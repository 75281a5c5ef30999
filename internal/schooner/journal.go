package schooner

// The Manager's control-plane journal: every change to the Manager's
// tables — line registration, process install, uninstall, line quit,
// acked state checkpoint — is one JSON record in a write-ahead log
// (package wal). commit appends a record and then applies it with
// applyJournal, the same function replay uses, so applyJournal is the
// only code that writes the tables and the live database is always
// the one a recovered Manager rebuilds from the log. That is what lets
// `schooner-manager -recover` (or a warm standby promoting itself)
// re-adopt the procedure processes that survived a crash.
//
// Records are committed while m.mu is held, so journal order equals
// table mutation order and a replayed database can never see an
// install for a line that has not been registered yet.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"npss/internal/trace"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// Journal record operations.
const (
	jopLine       = "line"       // a line was registered
	jopQuitLine   = "quit-line"  // a line quit; its processes are gone
	jopInstall    = "install"    // a process was installed into a line
	jopUninstall  = "uninstall"  // a process left a line (move/failover)
	jopCheckpoint = "checkpoint" // one stateful export's state snapshot
)

// journalRecord is one control-plane mutation. Line 0 designates the
// shared database for install/uninstall/checkpoint records.
type journalRecord struct {
	Op     string `json:"op"`
	Line   uint32 `json:"line,omitempty"`
	Module string `json:"module,omitempty"` // line
	Path   string `json:"path,omitempty"`   // install
	Host   string `json:"host,omitempty"`   // install
	Addr   string `json:"addr,omitempty"`   // install, uninstall, checkpoint
	Specs  string `json:"specs,omitempty"`  // install: raw spawn payload (language header + UTS text)
	Proc   string `json:"proc,omitempty"`   // checkpoint: export name
	State  []byte `json:"state,omitempty"`  // checkpoint: marshaled state

	// proc is a live install's already-parsed process, so only replay
	// parses Specs.
	proc *remoteProc
}

// journalEntry is one appended record as delivered to a KJournalTail
// subscriber.
type journalEntry struct {
	seq  uint64
	data []byte
}

// journalSub is one live KJournalTail subscription. A subscriber that
// cannot keep up is dropped (its queue closed); it reconnects and
// re-replays, deduplicating by sequence number.
type journalSub struct {
	q *vclock.Queue[journalEntry]
}

// maxTailBacklog is how many undelivered records a subscription may
// hold before it counts as not keeping up.
const maxTailBacklog = 256

// commit makes one change to the Manager's tables: it appends rec to
// the journal and then applies it with applyJournal, exactly as replay
// will. A record the journal refuses is not applied; without a journal
// the append is a no-op and the record is simply applied. Callers hold
// m.mu.
func (m *Manager) commit(rec *journalRecord) error {
	if err := m.journalAppend(rec); err != nil {
		return fmt.Errorf("schooner: journal refused %s record: %w", rec.Op, err)
	}
	return m.applyJournal(rec)
}

// journalAppend writes one record to the journal and fans it out to
// tail subscribers. A Manager without a journal configured is a no-op.
func (m *Manager) journalAppend(rec *journalRecord) error {
	if m.journal == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	seq, err := m.journal.Append(data)
	if err != nil {
		trace.Count("schooner.manager.journal_errors")
		return err
	}
	trace.Count("schooner.manager.journal_records")
	for sub := range m.subs {
		if sub.q.Len() >= maxTailBacklog {
			delete(m.subs, sub)
			sub.q.Close()
			continue
		}
		sub.q.Push(journalEntry{seq: seq, data: data})
	}
	return nil
}

// recoverFromJournal rebuilds the name database by replaying every
// journal record. Runs before the Manager starts serving, so no
// locking is needed; a decode failure is fatal (the journal is the
// only source of truth at this point).
func (m *Manager) recoverFromJournal() error {
	return m.journal.Replay(func(_ uint64, payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("schooner: undecodable journal record: %w", err)
		}
		return m.applyJournal(&rec)
	})
}

// applyJournal applies one record to the in-memory tables, live (from
// commit) and on replay alike.
func (m *Manager) applyJournal(rec *journalRecord) error {
	switch rec.Op {
	case jopLine:
		if rec.Line > m.nextLine {
			m.nextLine = rec.Line
		}
		m.lines[rec.Line] = newLine(rec.Line, rec.Module)
	case jopQuitLine:
		ln, ok := m.lines[rec.Line]
		if !ok {
			return nil
		}
		for addr := range ln.processes {
			delete(m.checkpoints, addr)
		}
		delete(m.lines, rec.Line)
	case jopInstall:
		ln := m.journalLine(rec.Line)
		if ln == nil {
			return fmt.Errorf("schooner: journal installs into unknown line %d", rec.Line)
		}
		proc := rec.proc
		if proc == nil {
			var err error
			if proc, err = parseProc(rec.Path, rec.Host, rec.Addr, rec.Specs); err != nil {
				return fmt.Errorf("schooner: journal install: %w", err)
			}
		}
		for _, spec := range proc.exports {
			ref := &procRef{proc: proc, spec: spec}
			for _, n := range lookupNames(spec, proc.language) {
				ln.names[n] = ref
			}
		}
		ln.processes[proc.addr] = proc
	case jopUninstall:
		ln := m.journalLine(rec.Line)
		if ln == nil {
			return nil
		}
		proc, ok := ln.processes[rec.Addr]
		if !ok {
			return nil
		}
		for name, ref := range ln.names {
			if ref.proc == proc {
				delete(ln.names, name)
			}
		}
		delete(ln.processes, rec.Addr)
		delete(m.checkpoints, rec.Addr)
	case jopCheckpoint:
		ck := m.checkpoints[rec.Addr]
		if ck == nil {
			ck = make(map[string][]byte)
			m.checkpoints[rec.Addr] = ck
		}
		ck[rec.Proc] = rec.State
	default:
		return fmt.Errorf("schooner: unknown journal op %q", rec.Op)
	}
	return nil
}

// journalLine resolves a record's target database (0 = shared).
func (m *Manager) journalLine(id uint32) *line {
	if id == 0 {
		return m.shared
	}
	return m.lines[id]
}

// dropSub unsubscribes one tail subscriber, closing its channel so the
// streaming goroutine unblocks. Idempotent.
func (m *Manager) dropSub(sub *journalSub) {
	m.mu.Lock()
	if _, ok := m.subs[sub]; ok {
		delete(m.subs, sub)
		sub.q.Close()
	}
	m.mu.Unlock()
}

// serveJournalTail streams the journal over one connection: first a
// snapshot of every record already in the log, then live records as
// they are appended. Entries observed both ways (a record appended
// during the snapshot replay) are deduplicated by sequence number. The
// handler owns the connection until the subscriber drops it or the
// Manager stops.
func (m *Manager) serveJournalTail(conn wire.Conn, req *wire.Message) {
	m.mu.Lock()
	if m.journal == nil || m.stopped {
		m.mu.Unlock()
		resp := errMsg("schooner: manager has no journal to tail")
		resp.Seq = req.Seq
		_ = conn.Send(resp)
		return
	}
	sub := &journalSub{q: vclock.NewQueue[journalEntry](m.clock)}
	m.subs[sub] = struct{}{}
	journal := m.journal
	m.mu.Unlock()
	defer m.dropSub(sub)
	// A reader watches the connection: when the subscriber hangs up,
	// the subscription is dropped so the streaming loop below unblocks
	// rather than waiting forever for a next append.
	m.clock.Go("schooner.Manager.tailWatch", func() {
		for {
			if _, err := conn.Recv(); err != nil {
				m.dropSub(sub)
				return
			}
		}
	})
	trace.Count("schooner.manager.journal_tails")
	var snapMax uint64
	err := journal.Replay(func(seq uint64, payload []byte) error {
		snapMax = seq
		return sendJournalEntry(conn, req.Seq, seq, payload)
	})
	if err != nil {
		return
	}
	for ent, ok := sub.q.Pop(); ok; ent, ok = sub.q.Pop() {
		if ent.seq <= snapMax {
			continue
		}
		if sendJournalEntry(conn, req.Seq, ent.seq, ent.data) != nil {
			return
		}
	}
}

// sendJournalEntry frames one journal record: Data is the 8-byte
// big-endian sequence number followed by the record payload.
func sendJournalEntry(conn wire.Conn, reqSeq uint32, seq uint64, payload []byte) error {
	data := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(data, seq)
	copy(data[8:], payload)
	return conn.Send(&wire.Message{Kind: wire.KOK, Seq: reqSeq, Data: data})
}
