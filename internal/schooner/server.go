package schooner

import (
	"fmt"
	"sync"

	"npss/internal/flight"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// Server is the per-machine Schooner system process. There is one
// Server per machine involved in a computation; the Manager contacts
// it on the well-known ServerPort to instantiate procedure files as
// processes on that machine.
type Server struct {
	transport Transport
	clock     vclock.Clock // the transport's, read once at start
	host      string
	registry  *Registry
	listener  Listener
	// served holds the connections this Server and the processes it
	// spawned serve, those stopped since included.
	served connSet

	mu        sync.Mutex
	processes map[string]*process // keyed by process address
	stopped   bool
}

// StartServer launches a Server on the given host, serving spawn
// requests from its registry.
func StartServer(t Transport, host string, reg *Registry) (*Server, error) {
	l, err := t.Listen(host, ServerPort)
	if err != nil {
		return nil, err
	}
	s := &Server{
		transport: t,
		clock:     t.Clock(),
		host:      host,
		registry:  reg,
		listener:  l,
		processes: make(map[string]*process),
	}
	s.served.accept(s.clock, "schooner.Server", l, func() (handler, func()) { return s.handle, nil })
	return s, nil
}

// Host returns the machine the server runs on.
func (s *Server) Host() string { return s.host }

// Addr returns the server's dialable address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Stop shuts the server down along with every process it spawned, and
// closes every connection they and it serve.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	procs := make([]*process, 0, len(s.processes))
	for _, p := range s.processes {
		procs = append(procs, p)
	}
	s.processes = make(map[string]*process)
	s.mu.Unlock()
	s.listener.Close()
	for _, p := range procs {
		p.stop()
	}
	s.served.close()
}

// ProcessCount reports how many processes the server currently hosts.
func (s *Server) ProcessCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.processes {
		if !p.stopped() {
			n++
		}
	}
	return n
}

func (s *Server) handle(conn wire.Conn, m *wire.Message) *wire.Message {
	switch m.Kind {
	case wire.KSpawn:
		return s.handleSpawn(m)
	case wire.KBatch:
		return s.handleBatch(m)
	case wire.KObserve:
		return observe(m.Name, s.StatusReport)
	case wire.KShutdown:
		lastReply(conn, m, &wire.Message{Kind: wire.KOK})
		s.Stop()
		return nil
	case wire.KPing:
		return &wire.Message{Kind: wire.KOK}
	}
	return &wire.Message{Kind: wire.KError,
		Err: fmt.Sprintf("schooner: server cannot handle %v", m.Kind)}
}

// handleBatch is the serving side of a KBatch: each sub-request is
// tagged with the address of a process this Server spawned and is
// dispatched to it in-memory, so one wire round trip covers calls to
// any number of processes on the host. It walks the envelope's
// sub-frames in place and returns one KOK with a reply sub-frame
// per sub-request. Sub-requests run in envelope order — a batch may
// carry calls to stateful procedures, so envelope order is execution
// order. A tag naming no process here — it stopped, or this Server
// did — is answered as a stopped process answers, so the caller
// rebinds.
func (s *Server) handleBatch(env *wire.Message) *wire.Message {
	// Replies are roughly request-sized; start at the envelope's size
	// to avoid growth reallocations.
	data := make([]byte, 0, len(env.Data))
	for rest := env.Data; len(rest) > 0; {
		sub, r, err := wire.SplitSub(rest)
		if err != nil {
			return &wire.Message{Kind: wire.KError, Err: err.Error()}
		}
		rest = r
		s.mu.Lock()
		p := s.processes[sub.Addr]
		s.mu.Unlock()
		var resp *wire.Message
		if p == nil {
			resp = &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated}
		} else {
			resp = p.dispatch(sub.Msg)
		}
		resp.Seq = sub.Msg.Seq
		if data, err = wire.AppendSub(data, "", resp); err != nil {
			return &wire.Message{Kind: wire.KError, Err: err.Error()}
		}
	}
	trace.Count("schooner.server.batches")
	return &wire.Message{Kind: wire.KOK, Data: data}
}

func (s *Server) handleSpawn(m *wire.Message) *wire.Message {
	// Continue the Manager's span tree: a traced StartRemote shows
	// client -> Manager -> Server -> process creation on one timeline.
	var sp *trace.Span
	if m.Trace != 0 {
		sp = trace.StartChild(trace.SpanContext{Trace: m.Trace, Span: m.Span},
			"server.spawn "+m.Name, s.host)
		defer sp.End()
	}
	s.mu.Lock()
	stopped := s.stopped
	s.mu.Unlock()
	if stopped {
		return &wire.Message{Kind: wire.KError, Err: "schooner: server stopped"}
	}
	prog, err := s.registry.Lookup(m.Name)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	p, err := startProcess(s.transport, s.clock, &s.served, s.host, prog)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	s.mu.Lock()
	// Forget the processes that have stopped since the last spawn (a
	// line quit or a move shuts them down directly), so the table holds
	// no more than this spawn and the processes still running.
	for addr, q := range s.processes {
		if q.stopped() {
			delete(s.processes, addr)
		}
	}
	s.processes[p.addr()] = p
	s.mu.Unlock()
	flight.Record(flight.Event{Kind: flight.KindSpawn, Component: "server",
		Host: s.host, Trace: m.Trace, Span: m.Span, Name: m.Name})
	// Report the new process address together with its export
	// specification file (adjusted for the host compiler's case
	// convention) so the Manager can populate its mapping tables.
	specText := s.exportSpecText(p)
	return &wire.Message{Kind: wire.KOK, Str: p.addr(), Data: []byte(specText)}
}

// exportSpecText renders the process's export specs as the Manager
// will see them. On a machine whose Fortran compiler upper-cases
// procedure names (the Cray), the exported names of Fortran procedures
// appear in upper case — the naming inconsistency the Manager's
// synonym tables exist to absorb.
func (s *Server) exportSpecText(p *process) string {
	header := ""
	if p.program.Language == LangFortran {
		// A UTS comment the Manager reads to learn the naming
		// convention; older parsers skip it harmlessly.
		header = "#language fortran\n"
	}
	f := &uts.SpecFile{}
	for _, bp := range p.instance.Procs() {
		spec := bp.Spec
		if p.program.Language == LangFortran && p.arch.FortranUpperCase {
			up := spec.Clone(true)
			up.Name = upperName(spec.Name)
			spec = up
		}
		f.Procs = append(f.Procs, spec)
	}
	return header + f.String()
}

func upperName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
