package schooner

// The warm-standby Manager: a second machine tails the leader's
// control-plane journal over the wire (KJournalTail), mirroring every
// record into its own write-ahead log, while heartbeating the leader.
// When the leader misses enough consecutive heartbeats the standby
// promotes itself: it replays its mirrored journal exactly as
// `schooner-manager -recover` would, re-adopts the procedure processes
// that survived the leader, and starts serving on its own host.
// Clients find the promoted Manager through their rebind/retry path
// (Client.Managers lists the standby hosts to try).

import (
	"encoding/binary"
	"sync"
	"time"

	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/trace"
	"npss/internal/vclock"
	"npss/internal/wal"
	"npss/internal/wire"
)

// StandbyPolicy configures a warm standby: the leader heartbeat
// cadence, how many consecutive misses declare the leader dead, and
// what health/checkpoint policies the promoted Manager runs with.
type StandbyPolicy struct {
	// HeartbeatInterval between leader probes (default 50ms).
	HeartbeatInterval time.Duration
	// Threshold is the number of consecutive probe failures that
	// trigger takeover (default 3).
	Threshold int
	// PingTimeout bounds one probe's round trip (default 1s).
	PingTimeout time.Duration
	// Health is the health policy the promoted Manager starts with; the
	// zero value applies the HealthPolicy defaults.
	Health HealthPolicy
	// CheckpointInterval is the promoted Manager's checkpoint cadence;
	// zero disables checkpointing after takeover.
	CheckpointInterval time.Duration
}

func (p StandbyPolicy) withDefaults() StandbyPolicy {
	if p.HeartbeatInterval == 0 {
		p.HeartbeatInterval = 50 * time.Millisecond
	}
	if p.Threshold <= 0 {
		p.Threshold = 3
	}
	if p.PingTimeout == 0 {
		p.PingTimeout = time.Second
	}
	return p
}

// Standby is a warm-standby Manager: journal mirror plus leader
// heartbeat plus takeover. The promoted Manager (once TookOver) is
// owned by the caller; Stop halts the standby's own goroutines only.
type Standby struct {
	transport Transport
	clock     vclock.Clock // the transport's, read once at start
	host      string
	leader    string
	log       *wal.Log
	pol       StandbyPolicy

	// The heartbeat loop, its kept connection to the leader and its
	// count of consecutive misses. The connection is closed on
	// takeover, or by Stop once the loop has ended.
	hb     *vclock.Loop
	hbConn connTable
	fails  int

	tailDone *vclock.Slot // signalled when the tail loop has returned

	mu       sync.Mutex
	tailConn wire.Conn
	stopped  bool
	promoted bool
	mgr      *Manager
}

// StartStandby launches a warm standby on host, mirroring the journal
// of the Manager on leaderHost into log. Both loops run on the
// transport's clock, so DST drives the standby in virtual time.
func StartStandby(t Transport, host, leaderHost string, log *wal.Log, pol StandbyPolicy) *Standby {
	c := t.Clock()
	s := &Standby{
		transport: t,
		clock:     c,
		host:      host,
		leader:    leaderHost,
		log:       log,
		pol:       pol.withDefaults(),
		tailDone:  c.NewSlot(),
	}
	c.Go("schooner.Standby.tailLoop", s.tailLoop)
	s.hb = vclock.Every(c, "schooner.Standby.heartbeatLoop", s.pol.HeartbeatInterval, s.heartbeat)
	return s
}

// Manager returns the promoted Manager, or nil before takeover.
func (s *Standby) Manager() *Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr
}

// TookOver reports whether the standby has promoted itself.
func (s *Standby) TookOver() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Stop halts the standby's tail and heartbeat loops. A Manager already
// promoted keeps running; stop it through Manager().Stop().
func (s *Standby) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	tc := s.tailConn
	s.mu.Unlock()
	if tc != nil {
		tc.Close()
	}
	s.hb.Stop()
	s.hbConn.close()
	s.tailDone.Await()
}

func (s *Standby) halted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped || s.promoted
}

func (s *Standby) setTailConn(conn wire.Conn) {
	s.mu.Lock()
	s.tailConn = conn
	s.mu.Unlock()
}

// tailLoop keeps one KJournalTail subscription open against the
// leader, reconnecting (and re-deduplicating the snapshot by sequence
// number) whenever the connection drops.
func (s *Standby) tailLoop() {
	defer s.tailDone.Fill(nil)
	for {
		if s.halted() {
			return
		}
		conn, err := s.transport.Dial(s.host, s.leader+":"+ManagerPort)
		if err == nil {
			err = conn.Send(&wire.Message{Kind: wire.KJournalTail})
		}
		if err == nil {
			s.setTailConn(conn)
			s.drainTail(conn)
			s.setTailConn(nil)
		}
		if conn != nil {
			conn.Close()
		}
		if s.halted() {
			return
		}
		s.clock.Sleep(s.pol.HeartbeatInterval)
	}
}

// drainTail mirrors journal entries until the connection fails.
// Entries at or below the local log's last sequence are duplicates
// from a snapshot re-replay and are skipped; the remainder arrive in
// order, so the local log's numbering stays aligned with the leader's.
func (s *Standby) drainTail(conn wire.Conn) {
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if replyError(m) != nil || len(m.Data) < 8 {
			continue
		}
		seq := binary.BigEndian.Uint64(m.Data)
		if seq <= s.log.LastSeq() {
			continue
		}
		if _, err := s.log.Append(m.Data[8:]); err != nil {
			return
		}
		trace.Count("schooner.standby.journal_records")
	}
}

// heartbeat is one tick of the heartbeat loop: it probes the leader
// Manager over the kept connection and, after Threshold consecutive
// misses, promotes the standby and ends the loop.
func (s *Standby) heartbeat(time.Time) bool {
	trace.Count("schooner.standby.heartbeats")
	if s.hbConn.probe(s.transport, s.host, s.leader+":"+ManagerPort, s.pol.PingTimeout) {
		s.fails = 0
		return true
	}
	if s.fails++; s.fails < s.pol.Threshold {
		return true
	}
	s.takeover()
	s.hbConn.close()
	return false
}

// takeover promotes the standby: the tail is severed, the mirrored
// journal is replayed, surviving processes are re-adopted, and the new
// Manager starts serving with health monitoring and checkpointing.
func (s *Standby) takeover() {
	s.mu.Lock()
	if s.stopped || s.promoted {
		s.mu.Unlock()
		return
	}
	s.promoted = true
	tc := s.tailConn
	s.mu.Unlock()
	if tc != nil {
		tc.Close()
	}
	// Wait for the tailer so the promoted Manager is the log's only
	// writer.
	s.tailDone.Await()
	trace.Count("schooner.manager.standby_takeovers")
	flight.Record(flight.Event{Kind: flight.KindTakeover, Component: "standby",
		Host: s.host, Name: s.leader})
	logx.For("standby", s.host).Warn("leader manager dead; taking over",
		"leader", s.leader, "journalSeq", s.log.LastSeq())
	mgr, err := StartManagerConfig(s.transport, s.host, ManagerConfig{
		Journal: s.log, Recover: true, CheckpointInterval: s.pol.CheckpointInterval,
	})
	if err != nil {
		logx.For("standby", s.host).Error("takeover failed", "err", err)
		return
	}
	mgr.StartHealth(s.pol.Health)
	s.mu.Lock()
	s.mgr = mgr
	s.mu.Unlock()
}
