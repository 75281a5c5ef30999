package schooner

// Periodic checkpointing of stateful procedures: the Manager pulls
// KStateGet snapshots of every export with a state clause and appends
// them to the journal. A checkpoint becomes "acked" only once the
// journal append returns, and only acked checkpoints are used for
// restore — so a restored procedure's state is never older than the
// last acked checkpoint at the time its host died.

import (
	"time"

	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/trace"
	"npss/internal/vclock"
)

// StartCheckpoints begins the periodic checkpoint sweep. The ticker
// runs on the Manager's clock, so DST drives it in virtual time. No-op
// if already running or the Manager is stopped.
func (m *Manager) StartCheckpoints(interval time.Duration) {
	if interval <= 0 {
		return
	}
	m.mu.Lock()
	if m.stopped || m.ck != nil {
		m.mu.Unlock()
		return
	}
	m.ck = vclock.Every(m.clock, "schooner.Manager.checkpointLoop", interval, func(time.Time) bool { m.CheckpointNow(); return true })
	m.mu.Unlock()
}

// StopCheckpoints halts the checkpoint loop, waiting for an in-flight
// sweep to finish.
func (m *Manager) StopCheckpoints() {
	m.mu.Lock()
	ck := m.ck
	m.ck = nil
	m.mu.Unlock()
	if ck != nil {
		ck.Stop()
	}
}

// CheckpointNow snapshots every stateful procedure once and journals
// the captured state. It reports how many processes were snapshotted
// and how many captures failed (process unreachable, state fetch
// error). Safe to call at any time; DST's checkpoint_now op calls it
// directly.
func (m *Manager) CheckpointNow() (snapshots, failures int) {
	for _, v := range m.victims(func(p *remoteProc) bool { return !statelessProc(p) }) {
		state, err := m.captureState(v.proc)
		if err != nil {
			failures++
			trace.Count("schooner.manager.checkpoint_failures")
			logx.For("manager", m.host).Debug("checkpoint capture failed",
				"proc", v.proc.path, "host", v.proc.host, "err", err)
			continue
		}
		m.mu.Lock()
		if !m.installed(v.ln, v.proc) {
			// The process moved, failed over, or quit while its state
			// was in flight; the snapshot describes an instance that no
			// longer exists.
			m.mu.Unlock()
			continue
		}
		err = m.commitState(v.ln, v.proc, state)
		m.mu.Unlock()
		if err != nil {
			failures++
			trace.Count("schooner.manager.checkpoint_failures")
			continue
		}
		snapshots++
		trace.Count("schooner.manager.checkpoints")
		flight.Record(flight.Event{Kind: flight.KindCheckpoint, Component: "manager",
			Host: m.host, Line: v.ln.id, Name: v.proc.path, Detail: v.proc.addr})
	}
	return snapshots, failures
}

// commitState commits state as proc's acked checkpoint: one record per
// export it covers, in export order so replay order is deterministic.
// Callers hold m.mu.
func (m *Manager) commitState(ln *line, proc *remoteProc, state map[string][]byte) error {
	for _, spec := range proc.exports {
		if data, ok := stateFor(state, spec.Name); ok {
			if err := m.commit(&journalRecord{Op: jopCheckpoint, Line: ln.id,
				Addr: proc.addr, Proc: spec.Name, State: data}); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkpointFor returns the last acked checkpoint covering every
// stateful export of proc, or nil when any is missing — a partial
// checkpoint cannot restore the process consistently.
func (m *Manager) checkpointFor(proc *remoteProc) map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	ck := m.checkpoints[proc.addr]
	if ck == nil {
		return nil
	}
	out := make(map[string][]byte)
	for _, spec := range proc.exports {
		if len(spec.State) == 0 {
			continue
		}
		data, ok := ck[spec.Name]
		if !ok {
			return nil
		}
		out[spec.Name] = data
	}
	return out
}
