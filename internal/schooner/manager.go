package schooner

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wal"
	"npss/internal/wire"
)

// Manager is the central Schooner system process: it starts and shuts
// down procedure processes (through the per-machine Servers),
// maintains the table of exported procedures and their locations, and
// performs runtime type-checking of procedure calls against the UTS
// specifications.
//
// In the extended model the Manager is persistent: it outlives any one
// simulation run and serves multiple lines, each with its own
// procedure name database, plus one database of shared procedures
// available to every line.
type Manager struct {
	transport Transport
	clock     vclock.Clock // the transport's, read once at start
	host      string
	listener  Listener
	served    connSet

	mu       sync.Mutex
	nextLine uint32
	lines    map[uint32]*line
	shared   *line // line id 0: the shared procedure database
	stopped  bool

	// Durability (see journal.go / checkpoint.go). journal is nil when
	// the Manager runs without a write-ahead log; checkpoints holds the
	// last acked state snapshot per process address; restored counts
	// checkpoint restores per pre-failover address (the no-double-
	// restore ledger DST verifies); subs are live KJournalTail
	// subscriptions.
	journal     *wal.Log
	checkpoints map[string]map[string][]byte
	restored    map[string]int
	subs        map[*journalSub]struct{}
	ck          *vclock.Loop // the checkpoint sweep; nil when not running

	// Health monitoring (see health.go); nil when the monitor is not
	// running. hbConns are the health loop's probe connections: only
	// StopHealth touches them, after halting the loop.
	health  map[string]*hostHealth
	hb      *vclock.Loop
	hbConns *connTable
}

// rpcTimeout bounds the Manager's own request/response round trips
// (spawn, shutdown, state transfer) so a lost message on a faulty
// link cannot hang the Manager.
const rpcTimeout = 3 * time.Second

// spawnAttempts is how many times the Manager retries a spawn whose
// transport failed (a dropped message, a flapping link) before
// reporting the failure.
const spawnAttempts = 3

// line is one thread of control and its procedure name database.
type line struct {
	id     uint32
	module string
	// names maps every lookup name (canonical plus case synonyms for
	// Fortran procedures) to its procedure reference.
	names map[string]*procRef
	// processes tracks the procedure processes belonging to the line,
	// keyed by address; one process may export several procedures.
	processes map[string]*remoteProc
}

// remoteProc is the Manager's record of one procedure process.
type remoteProc struct {
	path     string
	host     string
	addr     string
	language Language
	exports  []*uts.ProcSpec
	// specText is the raw spawn payload (language header plus UTS
	// export text) the Server returned, kept verbatim so the journal
	// can reproduce this record on replay.
	specText string
}

// procRef binds one lookup name to its process and export spec.
type procRef struct {
	proc *remoteProc
	spec *uts.ProcSpec

	// checked holds the import texts that have passed uts.CheckImport
	// against spec, so a repeat lookup parses nothing. It is derived
	// state: never journaled, and empty on every fresh record (a move,
	// failover, re-adoption or replay builds one). checkedMu guards it
	// against concurrent lookups.
	checkedMu sync.RWMutex
	checked   map[string]struct{}
}

// checkImport type-checks an import text against the export the way a
// lookup does. A text remembered in checked passes at once; any other
// is parsed and checked, and remembered only if it passes, names the
// procedure looked up, declares no state and is its parse's canonical
// rendering (what Line.lookup sends). So the memo holds at most one
// text per subset of the export's parameters per lookup name, and a
// text that fails, or differs only in spacing, is checked every time.
func (r *procRef) checkImport(name string, text []byte) error {
	r.checkedMu.RLock()
	_, ok := r.checked[string(text)]
	r.checkedMu.RUnlock()
	if ok {
		return nil
	}
	imp, err := uts.ParseProc(string(text))
	if err != nil {
		return fmt.Errorf("schooner: bad import specification for %q: %v", name, err)
	}
	if err := uts.CheckImport(imp, r.spec); err != nil {
		return fmt.Errorf("schooner: type check failed for %q: %v", name, err)
	}
	if imp.Name == name && len(imp.State) == 0 && imp.String() == string(text) {
		r.checkedMu.Lock()
		if r.checked == nil {
			r.checked = make(map[string]struct{})
		}
		r.checked[imp.String()] = struct{}{}
		r.checkedMu.Unlock()
	}
	return nil
}

// ManagerConfig selects the Manager's durability behavior.
type ManagerConfig struct {
	// Journal is the control-plane write-ahead log. Nil runs the
	// Manager without durability, exactly as before.
	Journal *wal.Log
	// Recover replays the journal before serving: the name database is
	// rebuilt, surviving processes are re-adopted, and unreachable ones
	// are failed over (stateful ones restored from their last acked
	// checkpoint).
	Recover bool
	// CheckpointInterval enables the periodic stateful-state checkpoint
	// sweep; zero disables it.
	CheckpointInterval time.Duration
}

// StartManager launches a Manager with no durability. It listens on
// ManagerPort and runs until Stop.
func StartManager(t Transport, host string) (*Manager, error) {
	return StartManagerConfig(t, host, ManagerConfig{})
}

// StartManagerConfig launches the Manager on a host with the given
// durability configuration. Recovery (journal replay plus process
// re-adoption) completes before the listener opens, so a client that
// can reach the Manager always sees the recovered database.
func StartManagerConfig(t Transport, host string, cfg ManagerConfig) (*Manager, error) {
	m := &Manager{
		transport:   t,
		clock:       t.Clock(),
		host:        host,
		lines:       make(map[uint32]*line),
		shared:      newLine(0, "<shared>"),
		journal:     cfg.Journal,
		checkpoints: make(map[string]map[string][]byte),
		restored:    make(map[string]int),
		subs:        make(map[*journalSub]struct{}),
	}
	if cfg.Recover && cfg.Journal != nil {
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	l, err := t.Listen(host, ManagerPort)
	if err != nil {
		return nil, err
	}
	m.listener = l
	m.served.accept(m.clock, "schooner.Manager", l, func() (handler, func()) {
		s := &session{m: m}
		return s.handle, s.drop
	})
	if cfg.CheckpointInterval > 0 {
		m.StartCheckpoints(cfg.CheckpointInterval)
	}
	return m, nil
}

// recover rebuilds the name database from the journal and then walks
// every recorded process: reachable ones are re-adopted as-is,
// unreachable ones are failed over (with checkpoint restore for
// stateful ones) exactly as if their host had just been declared dead.
func (m *Manager) recover() error {
	if err := m.recoverFromJournal(); err != nil {
		return err
	}
	trace.Count("schooner.manager.recoveries")
	flight.Record(flight.Event{Kind: flight.KindRecover, Component: "manager",
		Host: m.host, Detail: fmt.Sprintf("journal seq %d", m.journal.LastSeq())})
	logx.For("manager", m.host).Info("name database rebuilt from journal",
		"journalSeq", m.journal.LastSeq(), "lines", len(m.lines))
	m.readoptProcesses()
	return nil
}

// readoptProcesses pings every recovered process and re-adopts the
// live ones; dead ones go through the failover path. Runs before the
// listener opens, ordered deterministically for DST.
func (m *Manager) readoptProcesses() {
	for _, v := range m.victims(nil) {
		if resp, err := roundTrip(m.transport, m.host, v.proc.addr, &wire.Message{Kind: wire.KPing}); err == nil && replyError(resp) == nil {
			trace.Count("schooner.manager.readopted")
			flight.Record(flight.Event{Kind: flight.KindReadopt, Component: "manager",
				Host: m.host, Line: v.ln.id, Name: v.proc.path, Detail: v.proc.addr})
			logx.For("manager", m.host).Info("re-adopted surviving process",
				"proc", v.proc.path, "host", v.proc.host, "line", v.ln.id)
			continue
		}
		// The process did not survive the outage. Its host may be fine
		// (the process alone died), so no host is excluded from the
		// failover placement.
		m.failoverVictim(v, "", nil)
	}
}

// victims lists the installed processes keep accepts (every one when
// keep is nil) in one fixed order: the shared database first, then the
// lines by id, each by address. Recovery, failover and the checkpoint
// sweep all walk it, so a run on a virtual clock visits processes in
// the same order every time.
func (m *Manager) victims(keep func(*remoteProc) bool) []victim {
	m.mu.Lock()
	defer m.mu.Unlock()
	lines := []*line{m.shared}
	for _, ln := range m.lines {
		lines = append(lines, ln)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].id < lines[j].id }) // shared is id 0
	var out []victim
	for _, ln := range lines {
		start := len(out)
		for _, pr := range ln.processes {
			if keep == nil || keep(pr) {
				out = append(out, victim{ln, pr})
			}
		}
		sort.Slice(out[start:], func(i, j int) bool { return out[start+i].proc.addr < out[start+j].proc.addr })
	}
	return out
}

// live reports whether ln is still one of the Manager's databases and
// the Manager is running; installed adds that proc is still installed
// in it. They guard every commit made after an unlocked round trip (a
// concurrent Move, failover or quit wins). Callers hold m.mu.
func (m *Manager) live(ln *line) bool {
	return !m.stopped && (ln == m.shared || m.lines[ln.id] == ln)
}

func (m *Manager) installed(ln *line, proc *remoteProc) bool {
	return m.live(ln) && ln.processes[proc.addr] == proc
}

func newLine(id uint32, module string) *line {
	return &line{
		id:        id,
		module:    module,
		names:     make(map[string]*procRef),
		processes: make(map[string]*remoteProc),
	}
}

// Host returns the machine the Manager runs on.
func (m *Manager) Host() string { return m.host }

// Addr returns the Manager's dialable address.
func (m *Manager) Addr() string { return m.listener.Addr() }

// Stop shuts down the Manager, every connection it serves and every
// procedure process in every line, including shared procedures.
func (m *Manager) Stop() {
	m.StopHealth()
	m.StopCheckpoints()
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	var procs []*remoteProc
	for _, ln := range m.lines {
		for _, p := range ln.processes {
			procs = append(procs, p)
		}
	}
	for _, p := range m.shared.processes {
		procs = append(procs, p)
	}
	m.lines = make(map[uint32]*line)
	m.shared = newLine(0, "<shared>")
	for sub := range m.subs {
		sub.q.Close()
	}
	m.subs = make(map[*journalSub]struct{})
	journal := m.journal
	m.mu.Unlock()
	m.listener.Close()
	m.served.close()
	for _, p := range procs {
		m.shutdownProcess(p)
	}
	if journal != nil {
		journal.Close()
	}
}

// Crash simulates a Manager process death: serving stops instantly,
// every open connection is severed, and the journal is closed so no
// straggling handler can append to a log a recovered incarnation now
// owns — but, unlike Stop, the procedure processes are left running.
// That is exactly the crash a `-recover` restart (or a warm standby)
// must pick up after.
func (m *Manager) Crash() {
	m.StopHealth()
	m.StopCheckpoints()
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	for sub := range m.subs {
		sub.q.Close()
	}
	m.subs = make(map[*journalSub]struct{})
	journal := m.journal
	m.mu.Unlock()
	m.listener.Close()
	m.served.close()
	if journal != nil {
		journal.Close()
	}
	trace.Count("schooner.manager.crashes")
	logx.For("manager", m.host).Warn("manager crashed (simulated)")
}

// LineCount reports the number of live lines (excluding shared).
func (m *Manager) LineCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lines)
}

// Lines describes the live lines for diagnostics: "id module" sorted
// by id.
func (m *Manager) Lines() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]int, 0, len(m.lines))
	for id := range m.lines {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		ln := m.lines[uint32(id)]
		out[i] = fmt.Sprintf("%d %s", id, ln.module)
	}
	return out
}

// NameBindings reports a line's procedure name database as lookup
// name -> host currently serving it; line 0 reports the shared
// database. Returns nil for an unknown line. It exists for invariant
// checking (the DST harness verifies the database after every
// migration and failover) and for diagnostics.
func (m *Manager) NameBindings(lineID uint32) map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ln := m.shared
	if lineID != 0 {
		var ok bool
		ln, ok = m.lines[lineID]
		if !ok {
			return nil
		}
	}
	out := make(map[string]string, len(ln.names))
	for name, ref := range ln.names {
		out[name] = ref.proc.host
	}
	return out
}

// session is the Manager's side of one module connection. A connection
// registers at most one line; if the connection drops while its line
// is still live, the Manager treats it as a module failure and shuts
// the line down — "when an AVS module is removed from the network or
// an error occurs, the Manager terminates only the remote procedures
// within the affected line."
type session struct {
	m          *Manager
	registered uint32 // the line this connection registered, or 0
	quit       bool   // the line quit, or the Manager shut down, on request
}

func (s *session) drop() {
	if s.registered != 0 && !s.quit {
		s.m.quitLine(s.registered)
	}
}

func (s *session) handle(conn wire.Conn, req *wire.Message) *wire.Message {
	m := s.m
	// A traced request parents a Manager-side span: the client's span
	// context arrives in the envelope and the span tree continues here
	// (and, for spawns, on into the Server).
	var sp *trace.Span
	if req.Trace != 0 {
		sp = trace.StartChild(trace.SpanContext{Trace: req.Trace, Span: req.Span},
			"manager."+req.Kind.String(), m.host)
	}
	var resp *wire.Message
	switch req.Kind {
	case wire.KRegisterLine:
		if s.registered != 0 {
			resp = errMsg("schooner: connection already registered line %d", s.registered)
			break
		}
		id, err := m.registerLine(req.Name)
		if err != nil {
			resp = errMsg("%v", err)
			break
		}
		s.registered = id
		ctx := sp.Context()
		flight.Record(flight.Event{Kind: flight.KindLineRegister, Component: "manager",
			Host: m.host, Line: id, Trace: ctx.Trace, Span: ctx.Span, Name: req.Name})
		resp = &wire.Message{Kind: wire.KOK, Line: id}
	case wire.KAttachLine:
		if s.registered != 0 {
			resp = errMsg("schooner: connection already registered line %d", s.registered)
			break
		}
		id, errResp := m.attachLine(req.Line, req.Name)
		if errResp != nil {
			resp = errResp
			break
		}
		s.registered = id
		flight.Record(flight.Event{Kind: flight.KindLineRegister, Component: "manager",
			Host: m.host, Line: id, Name: req.Name, Detail: "reattach"})
		resp = &wire.Message{Kind: wire.KOK, Line: id}
	case wire.KJournalTail:
		// The tail handler owns the connection and streams until the
		// subscriber hangs up or the Manager stops.
		if sp != nil {
			sp.End()
		}
		m.serveJournalTail(conn, req)
		return nil
	case wire.KStartProc:
		resp = m.handleStartProc(s.registered, req, sp)
	case wire.KLookup:
		resp = m.handleLookup(s.registered, req)
	case wire.KMove:
		resp = m.handleMove(s.registered, req, sp)
	case wire.KObserve:
		resp = observe(req.Name, m.StatusReport)
	case wire.KQuitLine:
		if s.registered == 0 {
			resp = errMsg("schooner: no line registered on this connection")
			break
		}
		if err := m.quitLine(s.registered); err != nil {
			resp = errMsg("%v", err)
			break
		}
		s.quit = true
		resp = &wire.Message{Kind: wire.KOK}
	case wire.KShutdown:
		s.quit = true
		lastReply(conn, req, &wire.Message{Kind: wire.KOK})
		m.Stop()
		return nil
	case wire.KPing:
		resp = &wire.Message{Kind: wire.KOK}
	default:
		resp = errMsg("schooner: manager cannot handle %v", req.Kind)
	}
	if sp != nil {
		if err := replyError(resp); err != nil {
			sp.Annotate("error", err.Error())
		}
		sp.End()
	}
	if s.quit {
		return lastReply(conn, req, resp)
	}
	return resp
}

func errMsg(format string, args ...any) *wire.Message {
	return &wire.Message{Kind: wire.KError, Err: fmt.Sprintf(format, args...)}
}

var errStopped = errors.New("schooner: manager stopped")

func (m *Manager) registerLine(module string) (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return 0, errStopped
	}
	id := m.nextLine + 1
	if err := m.commit(&journalRecord{Op: jopLine, Line: id, Module: module}); err != nil {
		return 0, err
	}
	trace.Count("schooner.manager.lines")
	return id, nil
}

// attachLine re-binds an existing line to a fresh connection: the
// recovery path a client takes when its original Manager connection
// died (Manager crash, standby takeover) but the line itself — which
// the journal preserved — is still live.
func (m *Manager) attachLine(id uint32, module string) (uint32, *wire.Message) {
	if id == 0 {
		return 0, errMsg("schooner: attach needs a line id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return 0, errMsg("schooner: manager stopped")
	}
	ln, ok := m.lines[id]
	if !ok {
		return 0, errMsg("schooner: line %d unknown to this manager", id)
	}
	if ln.module != module {
		return 0, errMsg("schooner: line %d belongs to module %q, not %q", id, ln.module, module)
	}
	trace.Count("schooner.manager.attaches")
	return id, nil
}

// lineFor resolves a request's target database: the connection's own
// line, or the shared database when the request says line 0.
func (m *Manager) lineFor(registered, requested uint32) (*line, *wire.Message) {
	if registered == 0 {
		return nil, errMsg("schooner: no line registered on this connection")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if requested == 0 {
		return m.shared, nil
	}
	if requested != registered {
		return nil, errMsg("schooner: line %d does not belong to this connection", requested)
	}
	ln, ok := m.lines[requested]
	if !ok {
		return nil, errMsg("schooner: line %d no longer exists", requested)
	}
	return ln, nil
}

// handleStartProc asks the target machine's Server to instantiate the
// procedure file, then records its exports in the line's database.
// The request span (if any) continues into the spawn round trip.
func (m *Manager) handleStartProc(registered uint32, req *wire.Message, sp *trace.Span) *wire.Message {
	ln, errResp := m.lineFor(registered, req.Line)
	if errResp != nil {
		return errResp
	}
	path, host := req.Name, req.Str
	if path == "" || host == "" {
		return errMsg("schooner: start request needs a path and a machine")
	}
	proc, err := m.spawn(host, path, sp.Context())
	if err != nil {
		return errMsg("schooner: starting %s on %s: %v", path, host, err)
	}
	if err := m.install(ln, proc); err != nil {
		m.shutdownProcess(proc)
		return errMsg("%v", err)
	}
	trace.Count("schooner.manager.starts")
	ctx := sp.Context()
	flight.Record(flight.Event{Kind: flight.KindSpawn, Component: "manager",
		Host: m.host, Line: ln.id, Trace: ctx.Trace, Span: ctx.Span, Name: path, Detail: host})
	return &wire.Message{Kind: wire.KOK, Str: proc.addr}
}

// spawn contacts a machine's Server and instantiates a program there.
// Transport failures (dropped messages, timeouts) are retried a
// bounded number of times; a Server-reported error is final. ctx is
// the span context the KSpawn request carries to the Server (zero when
// untraced).
func (m *Manager) spawn(host, path string, ctx trace.SpanContext) (*remoteProc, error) {
	var lastErr error
	for attempt := 0; attempt < spawnAttempts; attempt++ {
		proc, err, final := m.spawnOnce(host, path, ctx)
		if err == nil || final {
			return proc, err
		}
		lastErr = err
		trace.Count("schooner.manager.spawn_retries")
	}
	return nil, lastErr
}

// spawnOnce performs one spawn round trip; final reports whether the
// error (if any) is not worth retrying.
func (m *Manager) spawnOnce(host, path string, ctx trace.SpanContext) (_ *remoteProc, err error, final bool) {
	resp, err := roundTrip(m.transport, m.host, host+":"+ServerPort,
		&wire.Message{Kind: wire.KSpawn, Name: path, Trace: ctx.Trace, Span: ctx.Span})
	if err != nil {
		return nil, err, false
	}
	if err := replyError(resp); err != nil {
		return nil, err, true
	}
	proc, err := parseProc(path, host, resp.Str, string(resp.Data))
	return proc, err, true
}

// parseProc builds the Manager's record of a process from its spawn
// payload: the UTS export text, after an optional "#language fortran"
// header (a UTS comment, so a Manager that did not know about it would
// still parse the specs).
func parseProc(path, host, addr, payload string) (*remoteProc, error) {
	specFile, err := uts.Parse(payload)
	if err != nil {
		return nil, fmt.Errorf("bad export specification from %s: %w", path, err)
	}
	proc := &remoteProc{path: path, host: host, addr: addr, language: LangC,
		exports: specFile.Exports(), specText: payload}
	if strings.HasPrefix(payload, "#language fortran\n") {
		proc.language = LangFortran
	}
	if len(proc.exports) == 0 {
		return nil, fmt.Errorf("%s exports no procedures", path)
	}
	return proc, nil
}

// lookupNames returns all names a procedure is reachable under: the
// canonical export name, plus upper- and lower-case synonyms for
// Fortran procedures (the Manager "stored both the upper and lower
// case alternatives in its mapping tables").
func lookupNames(spec *uts.ProcSpec, lang Language) []string {
	names := []string{spec.Name}
	if lang == LangFortran {
		lower := strings.ToLower(spec.Name)
		upper := strings.ToUpper(spec.Name)
		for _, n := range []string{lower, upper} {
			if n != spec.Name {
				names = append(names, n)
			}
		}
	}
	return names
}

// install commits a process's exports to a line database, enforcing
// the no-duplicate-names-within-a-line rule.
func (m *Manager) install(ln *line, proc *remoteProc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return errStopped
	}
	if !m.live(ln) {
		return fmt.Errorf("schooner: line %d no longer exists", ln.id)
	}
	for _, spec := range proc.exports {
		for _, n := range lookupNames(spec, proc.language) {
			if existing, dup := ln.names[n]; dup {
				return fmt.Errorf("schooner: procedure name %q already bound in line %d (to %s on %s); duplicate names are only permitted across lines",
					n, ln.id, existing.proc.path, existing.proc.host)
			}
		}
	}
	return m.commit(installRecord(ln, proc))
}

// installRecord is the journal record that installs proc into ln.
func installRecord(ln *line, proc *remoteProc) *journalRecord {
	return &journalRecord{Op: jopInstall, Line: ln.id, Path: proc.path,
		Host: proc.host, Addr: proc.addr, Specs: proc.specText, proc: proc}
}

// findRef resolves a lookup name: the line's own database first, then
// the shared database — "mapping requests to the Manager will be
// checked first against procedures in the line from which the request
// is received, and then against a list of shared procedures."
func (m *Manager) findRef(ln *line, name string) *procRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ref, ok := ln.names[name]; ok {
		return ref
	}
	if ln.id != 0 {
		if ref, ok := m.shared.names[name]; ok {
			return ref
		}
	}
	return nil
}

// handleLookup maps a procedure name to an address, type-checking the
// caller's import specification against the export.
func (m *Manager) handleLookup(registered uint32, req *wire.Message) *wire.Message {
	ln, errResp := m.lineFor(registered, req.Line)
	if errResp != nil {
		return errResp
	}
	ref := m.findRef(ln, req.Name)
	if ref == nil {
		return errMsg("schooner: no procedure %q in line %d or shared database", req.Name, ln.id)
	}
	if len(req.Data) > 0 {
		if err := ref.checkImport(req.Name, req.Data); err != nil {
			return errMsg("%v", err)
		}
	}
	trace.Count("schooner.manager.lookups")
	if trace.Enabled() {
		trace.Count(trace.LKey("schooner.manager.lookups",
			trace.Label{Key: "proc", Value: req.Name},
			trace.Label{Key: "host", Value: ref.proc.host}))
	}
	return &wire.Message{Kind: wire.KOK, Str: ref.proc.addr, Name: ref.spec.Name}
}

// handleMove relocates the process exporting the named procedure to a
// new machine: shut down the original, then re-home it (rehome). Clients
// discover the move lazily — their next call to the old address fails,
// and the automatic re-ask of the Manager finds the new location. When
// req.Data is "state", migration state is captured before shutdown and
// installed into the new process (the planned state-transfer
// extension). A Move that loses a race with failover fails.
func (m *Manager) handleMove(registered uint32, req *wire.Message, sp *trace.Span) *wire.Message {
	ln, errResp := m.lineFor(registered, req.Line)
	if errResp != nil {
		return errResp
	}
	newHost := req.Str
	if newHost == "" {
		return errMsg("schooner: move needs a target machine")
	}
	ref := m.findRef(ln, req.Name)
	if ref == nil {
		return errMsg("schooner: no procedure %q to move", req.Name)
	}
	old := ref.proc

	// Capture migration state before the original is shut down.
	var state map[string][]byte
	if string(req.Data) == "state" {
		if statelessProc(old) {
			return errMsg("schooner: %s declares no state clause; use a stateless move", old.path)
		}
		var err error
		state, err = m.captureState(old)
		if err != nil {
			return errMsg("schooner: capturing state of %s: %v", old.path, err)
		}
	}

	// Paper ordering: shut down the original, then start the copy. For
	// a shared procedure the one re-home serves all lines, since every
	// line resolves shared names through the one shared database.
	m.shutdownProcess(old)
	fresh, err := m.rehome(ln, old, newHost, state, sp.Context())
	if err != nil {
		return errMsg("%v", err)
	}
	trace.Count("schooner.manager.moves")
	ctx := sp.Context()
	flight.Record(flight.Event{Kind: flight.KindMigration, Component: "manager",
		Host: m.host, Line: ln.id, Trace: ctx.Trace, Span: ctx.Span, Name: req.Name, Detail: newHost})
	return &wire.Message{Kind: wire.KOK, Str: fresh.addr}
}

// errSuperseded is rehome's refusal to replace a process that is no
// longer installed: a concurrent Move, failover or quit got there first.
var errSuperseded = errors.New("superseded by a concurrent move, failover or quit")

// rehome replaces old with a copy on target — the one migration step
// Move and failover share. It spawns the copy, checks that it exports
// what old did, installs state into it (none for a stateless re-home)
// and, while old is still installed in ln, commits the swap: old's
// uninstall, the copy's install (its names come from its own exports,
// as on replay) and, with state, the copy's first acked checkpoint, so
// a crash right after restores from what was just installed. On any
// failure the copy is shut down. Dealing with old is the caller's job.
func (m *Manager) rehome(ln *line, old *remoteProc, target string, state map[string][]byte, ctx trace.SpanContext) (*remoteProc, error) {
	fresh, err := m.spawn(target, old.path, ctx)
	if err != nil {
		return nil, fmt.Errorf("schooner: restarting %s on %s: %w", old.path, target, err)
	}
	if err = sameExports(old.exports, fresh.exports, old.language); err != nil {
		err = fmt.Errorf("schooner: %s on %s: %w", old.path, target, err)
	} else if err = m.installState(fresh, state); err != nil {
		trace.Count("schooner.manager.restore_failures")
		err = fmt.Errorf("schooner: installing state on %s: %w", target, err)
	} else {
		m.mu.Lock()
		err = fmt.Errorf("schooner: %s: %w", old.path, errSuperseded)
		if m.installed(ln, old) {
			err = m.commit(&journalRecord{Op: jopUninstall, Line: ln.id, Addr: old.addr})
		}
		if err == nil {
			err = m.commit(installRecord(ln, fresh))
		}
		if err == nil {
			err = m.commitState(ln, fresh, state)
		}
		m.mu.Unlock()
	}
	if err != nil {
		m.shutdownProcess(fresh)
		return nil, err
	}
	return fresh, nil
}

// sameExports verifies that a respawned program exports the same
// procedures with identical signatures. Fortran names compare
// case-insensitively: moving a procedure file from a Cray (whose
// compiler upper-cases names) to a workstation (lower-cases) must not
// look like a signature change.
func sameExports(old, fresh []*uts.ProcSpec, lang Language) error {
	if len(old) != len(fresh) {
		return fmt.Errorf("export count changed: %d vs %d", len(old), len(fresh))
	}
	for i := range old {
		sameName := old[i].Name == fresh[i].Name
		if !sameName && lang == LangFortran {
			sameName = strings.EqualFold(old[i].Name, fresh[i].Name)
		}
		if !sameName || old[i].Signature() != fresh[i].Signature() {
			return fmt.Errorf("export %q changed signature", old[i].Name)
		}
	}
	return nil
}

// captureState fetches the migration state of every stateful export.
func (m *Manager) captureState(proc *remoteProc) (map[string][]byte, error) {
	g, err := dial(m.transport, m.clock, m.host, proc.addr)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	state := make(map[string][]byte)
	for _, spec := range proc.exports {
		if len(spec.State) == 0 {
			continue
		}
		resp, err := g.exchange(&wire.Message{Kind: wire.KStateGet, Name: spec.Name}, rpcTimeout)
		if err == nil {
			err = replyError(resp)
		}
		if err != nil {
			return nil, err
		}
		state[spec.Name] = resp.Data
	}
	return state, nil
}

// installState pushes captured state into a fresh process.
func (m *Manager) installState(proc *remoteProc, state map[string][]byte) error {
	if len(state) == 0 {
		return nil
	}
	g, err := dial(m.transport, m.clock, m.host, proc.addr)
	if err != nil {
		return err
	}
	defer g.Close()
	// Sorted, so the same move puts the same frames on the wire every
	// run: map order would leak into the byte stream.
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		resp, err := g.exchange(&wire.Message{Kind: wire.KStatePut, Name: name, Data: state[name]}, rpcTimeout)
		if err == nil {
			err = replyError(resp)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stateFor resolves captured state for a fresh export, tolerating the
// case-only renames Fortran compilers introduce.
func stateFor(state map[string][]byte, name string) ([]byte, bool) {
	if data, ok := state[name]; ok {
		return data, true
	}
	for n, data := range state {
		if strings.EqualFold(n, name) {
			return data, true
		}
	}
	return nil, false
}

// quitLine shuts down every procedure process in a line and removes
// the line. Shared procedures are unaffected. After a Crash the quit
// is a no-op: the dying Manager's connection-drop handlers must not
// shut down processes a recovered incarnation will re-adopt. A quit
// the journal refuses leaves the line as it was.
func (m *Manager) quitLine(id uint32) error {
	m.mu.Lock()
	ln, ok := m.lines[id]
	if m.stopped || !ok {
		m.mu.Unlock()
		return nil
	}
	err := m.commit(&journalRecord{Op: jopQuitLine, Line: id})
	m.mu.Unlock()
	if err != nil {
		return err
	}
	for _, p := range ln.processes {
		m.shutdownProcess(p)
	}
	trace.Count("schooner.manager.quits")
	flight.Record(flight.Event{Kind: flight.KindLineQuit, Component: "manager",
		Host: m.host, Line: id, Name: ln.module})
	return nil
}

// RestoreLedger reports how many times each pre-failover process
// address has been restored from checkpoint. DST merges the ledgers of
// successive Manager incarnations to verify no instance is ever
// double-restored.
func (m *Manager) RestoreLedger() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.restored))
	for addr, n := range m.restored {
		out[addr] = n
	}
	return out
}

// JournalSeq reports the journal's last appended sequence number, or 0
// when the Manager runs without a journal.
func (m *Manager) JournalSeq() uint64 {
	m.mu.Lock()
	journal := m.journal
	m.mu.Unlock()
	if journal == nil {
		return 0
	}
	return journal.LastSeq()
}

// shutdownProcess sends a best-effort shutdown to a procedure process.
func (m *Manager) shutdownProcess(p *remoteProc) {
	// An error means the host or process is already gone.
	_, _ = roundTrip(m.transport, m.host, p.addr, &wire.Message{Kind: wire.KShutdown})
}
