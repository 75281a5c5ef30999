package schooner

import (
	"errors"
	"time"

	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/trace"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// HealthPolicy configures the Manager's health monitor: how often
// every machine's Server is heartbeated, how many consecutive missed
// heartbeats declare the machine dead, and the deadline on each probe.
type HealthPolicy struct {
	// Interval between heartbeat sweeps (default 50ms); a negative
	// Interval turns health monitoring off.
	Interval time.Duration
	// Threshold is the number of consecutive probe failures that mark
	// a machine dead and trigger failover (default 2).
	Threshold int
	// PingTimeout bounds one probe's round trip (default 1s).
	PingTimeout time.Duration
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.Interval == 0 {
		p.Interval = 50 * time.Millisecond
	}
	if p.Threshold <= 0 {
		p.Threshold = 2
	}
	if p.PingTimeout == 0 {
		p.PingTimeout = time.Second
	}
	return p
}

// hostHealth is the Manager's record of one machine's liveness.
type hostHealth struct {
	fails int  // consecutive failed probes
	dead  bool // declared dead (threshold reached)
}

// StartHealth begins heartbeating every machine's Server and, when a
// machine is declared dead, automatically re-homes its procedure
// processes on an alternate up machine through rehome, the same step
// Move takes, so the name database is repointed by the same journal
// records and clients' lazy stale-cache recovery finds the new home
// transparently. Stateless procedures restart from their initial
// state; stateful ones (those with a state clause) are restored from
// their last acked checkpoint when the Manager runs a checkpoint
// sweep, and are skipped — loudly — when no complete checkpoint
// exists. Health monitoring is off by default; call StartHealth to opt
// in, StopHealth (or Stop) to end it. A negative Interval starts
// nothing.
func (m *Manager) StartHealth(p HealthPolicy) {
	p = p.withDefaults()
	m.mu.Lock()
	if m.stopped || m.hb != nil || p.Interval < 0 {
		m.mu.Unlock()
		return
	}
	conns := new(connTable)
	m.health = make(map[string]*hostHealth)
	m.hb = vclock.Every(m.clock, "schooner.Manager.healthLoop", p.Interval, func(time.Time) bool { m.healthSweep(p, conns); return true })
	m.hbConns = conns
	m.mu.Unlock()
}

// StopHealth halts the health monitor, waiting for an in-flight sweep
// to finish, then closes the connections its probes kept.
func (m *Manager) StopHealth() {
	m.mu.Lock()
	hb, conns := m.hb, m.hbConns
	m.hb, m.hbConns = nil, nil
	m.mu.Unlock()
	if hb != nil {
		hb.Stop()
		conns.close()
	}
}

// HostHealth reports the monitor's current view: machine -> alive.
// Machines not yet probed are absent. Returns nil when the monitor is
// not running.
func (m *Manager) HostHealth() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.health == nil {
		return nil
	}
	out := make(map[string]bool, len(m.health))
	for h, st := range m.health {
		out[h] = !st.dead
	}
	return out
}

// healthSweep probes every candidate machine's Server once and reacts
// to liveness transitions.
func (m *Manager) healthSweep(p HealthPolicy, conns *connTable) {
	for _, host := range m.transport.Hosts() {
		ok := conns.probe(m.transport, m.host, host+":"+ServerPort, p.PingTimeout)
		trace.Count("schooner.manager.heartbeats")
		m.mu.Lock()
		if m.health == nil {
			m.mu.Unlock()
			return
		}
		st := m.health[host]
		if st == nil {
			st = &hostHealth{}
			m.health[host] = st
		}
		var died bool
		if ok {
			if st.dead {
				trace.Count("schooner.manager.hostup")
				flight.Record(flight.Event{Kind: flight.KindHealthUp, Component: "manager",
					Host: m.host, Name: host})
				logx.For("manager", m.host).Info("host back up", "machine", host)
			}
			st.fails, st.dead = 0, false
		} else {
			st.fails++
			if st.fails >= p.Threshold && !st.dead {
				st.dead = true
				died = true
			}
		}
		m.mu.Unlock()
		if died {
			trace.Count("schooner.manager.hostdown")
			flight.Record(flight.Event{Kind: flight.KindHealthDown, Component: "manager",
				Host: m.host, Name: host})
			logx.For("manager", m.host).Warn("host declared down", "machine", host, "missedProbes", p.Threshold)
			m.failoverHost(host)
		}
	}
}

// probe pings addr from one host with one KPing bounded by timeout,
// over the table's kept connection, dialed only when there is none,
// and reports whether it answered KOK. Any failure — a send error, a
// timeout, a closed connection or another reply — drops the
// connection, so the next probe dials afresh, as a one-shot ping
// would.
func (t *connTable) probe(tr Transport, from, addr string, timeout time.Duration) bool {
	g, err := t.get(tr, from, addr)
	if err != nil {
		return false
	}
	if resp, err := g.exchange(&wire.Message{Kind: wire.KPing}, timeout); err != nil || replyError(resp) != nil {
		t.drop(addr)
		return false
	}
	return true
}

// aliveHosts lists machines currently believed up, excluding one,
// sorted for deterministic failover placement.
func (m *Manager) aliveHosts(exclude string) []string {
	dead := make(map[string]bool)
	m.mu.Lock()
	for h, st := range m.health {
		if st.dead {
			dead[h] = true
		}
	}
	m.mu.Unlock()
	var out []string
	for _, h := range m.transport.Hosts() {
		if h != exclude && !dead[h] {
			out = append(out, h)
		}
	}
	return out
}

// statelessProc reports whether every export of a process is
// stateless (no state clause) — the property that makes
// shutdown-here/start-anew-there recovery correct.
func statelessProc(p *remoteProc) bool {
	for _, spec := range p.exports {
		if len(spec.State) > 0 {
			return false
		}
	}
	return true
}

// victim is one procedure process that needs re-homing, paired with
// the line whose database maps it.
type victim struct {
	ln   *line
	proc *remoteProc
}

// failoverHost re-homes every procedure process of a dead machine on
// an alternate up machine and repoints the name database. Stateless
// processes restart from their initial state; stateful ones are
// restored from their last acked checkpoint, or — when no complete
// checkpoint exists — left in place, with the skip surfaced to the
// flight recorder and the structured log so a post-mortem can name the
// lost procedure.
func (m *Manager) failoverHost(deadHost string) {
	// Failover is Manager-initiated, so it roots its own trace; the
	// affected clients' later rebinds annotate their own call spans.
	var sp *trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan("failover "+deadHost, m.host)
		defer sp.End()
	}
	for _, v := range m.victims(func(p *remoteProc) bool { return p.host == deadHost }) {
		m.failoverVictim(v, deadHost, sp)
	}
}

// failoverVictim re-homes one procedure process. For a stateful victim
// it first resolves the last acked checkpoint; without one the victim
// is skipped (the lost state cannot be reconstructed). Placement tries
// every alive machine except exclude, in sorted order. Reports whether
// the victim found a new home.
func (m *Manager) failoverVictim(v victim, exclude string, sp *trace.Span) bool {
	var state map[string][]byte
	if !statelessProc(v.proc) {
		state = m.checkpointFor(v.proc)
		if state == nil {
			trace.Count("schooner.manager.failover_skipped_stateful")
			ctx := sp.Context()
			flight.Record(flight.Event{Kind: flight.KindFailoverSkip, Component: "manager",
				Host: m.host, Line: v.ln.id, Trace: ctx.Trace, Span: ctx.Span,
				Name: v.proc.path, Detail: v.proc.host})
			logx.For("manager", m.host).Warn("stateful procedure lost with its host: no acked checkpoint to restore from",
				append([]any{"proc", v.proc.path, "host", v.proc.host, "line", v.ln.id}, logx.Span(ctx)...)...)
			return false
		}
	}
	for _, target := range m.aliveHosts(exclude) {
		_, err := m.rehome(v.ln, v.proc, target, state, sp.Context())
		if errors.Is(err, errSuperseded) {
			return false
		}
		if err != nil {
			// The target died (or mangled the transfer) between spawn
			// and swap; the next machine gets a fresh spawn.
			logx.For("manager", m.host).Warn("re-home failed, trying next machine",
				"proc", v.proc.path, "target", target, "err", err)
			continue
		}
		if state != nil {
			m.mu.Lock()
			m.restored[v.proc.addr]++
			m.mu.Unlock()
		}
		// Best-effort shutdown of the original (usually
		// unreachable — the machine is dead).
		m.shutdownProcess(v.proc)
		trace.Count("schooner.manager.failovers")
		ctx := sp.Context()
		flight.Record(flight.Event{Kind: flight.KindFailover, Component: "manager",
			Host: m.host, Line: v.ln.id, Trace: ctx.Trace, Span: ctx.Span,
			Name: v.proc.path, Detail: target})
		logx.For("manager", m.host).Info("failover",
			append([]any{"proc", v.proc.path, "from", v.proc.host, "to", target, "line", v.ln.id},
				logx.Span(ctx)...)...)
		if state != nil {
			trace.Count("schooner.manager.failover_restored_stateful")
			flight.Record(flight.Event{Kind: flight.KindStateRestore, Component: "manager",
				Host: m.host, Line: v.ln.id, Trace: ctx.Trace, Span: ctx.Span,
				Name: v.proc.path, Detail: target})
			logx.For("manager", m.host).Info("stateful procedure restored from checkpoint",
				"proc", v.proc.path, "from", v.proc.host, "to", target, "line", v.ln.id)
		}
		if sp != nil {
			sp.Annotate(v.proc.path, v.proc.host+" -> "+target)
			trace.Count(trace.LKey("schooner.manager.failovers", trace.Label{Key: "host", Value: v.proc.host}))
		}
		return true
	}
	return false
}
