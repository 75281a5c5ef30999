package schooner

import (
	"fmt"
	"sync"
	"time"

	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// ErrProcessTerminated is the exact error text a stopped procedure
// process answers with; the client library treats it (and transport
// failures) as a stale binding and re-asks the Manager. Application
// errors are never matched against it, so a procedure whose own error
// mentions "terminated" cannot trigger a spurious retry.
const ErrProcessTerminated = "schooner: procedure process terminated"

// process is a running instantiation of a Program on some host: the
// Schooner runtime's procedure process. It owns a listener, serves
// KCall/KStateGet/KStatePut/KShutdown, and marshals all data through
// the host architecture's native representation so that heterogeneity
// (precision, range, byte order) is exercised on every call.
type process struct {
	clock    vclock.Clock // its Server's
	host     string
	arch     *machine.Arch
	program  *Program
	instance *Instance
	listener Listener

	// turn serializes calls within this instance. It is a Slot, not a
	// mutex, because a procedure body may sleep on the clock: whoever
	// waits for the turn meanwhile must be parked where the clock can
	// see it. Full means free.
	turn *vclock.Slot

	// plans caches what a call's name and signature text determine, so
	// it is worked out once per distinct caller rather than per call.
	planMu sync.RWMutex
	plans  map[planKey]*callPlan

	// args is the free list of argument sets: the storage a call
	// decodes its arguments into, taken before the decode and put back
	// once the reply is encoded (Handler's ownership rule). A set is
	// made only by a call that finds the list empty, so the list never
	// holds more sets than calls were ever in the process at once. It
	// is not a sync.Pool: a collection would drain the pool, and the
	// next bulk call would allocate what it was meant to reuse.
	argsMu sync.Mutex
	args   [][]uts.Value

	stopOnce sync.Once
	done     chan struct{}
}

// startProcess instantiates a program on a host and begins serving on
// clock c, its connections kept in served.
func startProcess(t Transport, c vclock.Clock, served *connSet, host string, prog *Program) (*process, error) {
	arch, err := t.HostArch(host)
	if err != nil {
		return nil, err
	}
	inst, err := prog.Build()
	if err != nil {
		return nil, fmt.Errorf("schooner: building %q: %w", prog.Path, err)
	}
	l, err := t.Listen(host, "")
	if err != nil {
		return nil, err
	}
	p := &process{
		clock:    c,
		host:     host,
		arch:     arch,
		program:  prog,
		instance: inst,
		listener: l,
		plans:    make(map[planKey]*callPlan),
		done:     make(chan struct{}),
		turn:     c.NewSlot(),
	}
	p.unlock()
	served.accept(c, "schooner.process", l, func() (handler, func()) { return p.handle, nil })
	return p, nil
}

// lock takes the instance's turn. It fails only when the virtual clock
// under the process has stopped, which ends the simulation it was in.
func (p *process) lock() bool {
	_, ok := p.turn.Wait(0)
	return ok
}

func (p *process) unlock() { p.turn.Fill(nil) }

// addr returns the process's dialable address.
func (p *process) addr() string { return p.listener.Addr() }

// stop terminates the process. The connections it serves stay open and
// answer ErrProcessTerminated, so a caller learns to rebind; its Server
// closes them when it stops.
func (p *process) stop() {
	p.stopOnce.Do(func() {
		close(p.done)
		p.listener.Close()
	})
}

func (p *process) stopped() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// handle answers one request of a connection on the goroutine that
// read it, as a Server does. Procedure bodies serialize on the
// instance's turn anyway, so a goroutine per request would overlap only
// the marshaling halves. A body that sleeps holds up its own connection
// alone; other lines, pings and observe requests reach the process on
// theirs. KShutdown, and any request once the process has stopped,
// ends the conversation.
func (p *process) handle(conn wire.Conn, m *wire.Message) *wire.Message {
	switch {
	case p.stopped():
		return lastReply(conn, m, &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated})
	case m.Kind == wire.KShutdown:
		// Stop before acknowledging: whoever sees the reply sees the
		// process stopped, its Server included.
		p.stop()
		return lastReply(conn, m, &wire.Message{Kind: wire.KOK})
	}
	return p.dispatch(m)
}

// dispatch computes the reply for one request. It is the entry point
// both for requests read off a connection and for batch sub-requests a
// Server fans out in-memory; the caller assigns the reply Seq.
func (p *process) dispatch(m *wire.Message) *wire.Message {
	if p.stopped() {
		return &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated}
	}
	switch m.Kind {
	case wire.KCall:
		return p.handleCall(m)
	case wire.KStateGet:
		return p.handleStateGet(m)
	case wire.KStatePut:
		return p.handleStatePut(m)
	case wire.KPing:
		return &wire.Message{Kind: wire.KOK}
	case wire.KObserve:
		return observe(m.Name, nil)
	default:
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: procedure process cannot handle %v", m.Kind)}
	}
}

type planKey struct{ name, sig string }

// callPlan is the part of handling a call that depends only on the
// procedure and the caller's import signature: the parsed import,
// verified against the export, and how its parameter lists map onto
// the export's. The export specification never changes, so verifying
// once per signature is the check a call used to repeat.
type callPlan struct {
	imp *uts.ProcSpec
	// inFrom[i] says which of the import's in-parameters supplies the
	// export's i-th, or is -1 for one the import omits, which takes
	// zero[i]. Nil when the import sends them all.
	inFrom []int
	zero   []uts.Value
	// keepOut[i] is whether the import asks for the export's i-th
	// out-parameter. Nil when it asks for them all.
	keepOut []bool
}

// subset maps the export's parameters onto the import's, which
// CheckImport has shown to be a subsequence of them by name: at[i] is
// the import index of the export's i-th parameter, or -1.
func subset(exp, imp []uts.Param) (at []int) {
	if len(imp) == len(exp) {
		return nil
	}
	at = make([]int, len(exp))
	j := 0
	for i, e := range exp {
		at[i] = -1
		if j < len(imp) && imp[j].Name == e.Name {
			at[i] = j
			j++
		}
	}
	return at
}

// plan resolves the caller's import signature for a procedure: either
// the cached plan or one built from the signature text on the call.
func (p *process) plan(bp *BoundProc, name, sig string) (*callPlan, error) {
	key := planKey{name, sig}
	p.planMu.RLock()
	cached := p.plans[key]
	p.planMu.RUnlock()
	if cached != nil {
		return cached, nil
	}
	if sig == "" {
		return nil, fmt.Errorf("schooner: call to %q carries no signature", name)
	}
	imp, err := uts.ParseProc("import " + name + " " + sig)
	if err != nil {
		return nil, fmt.Errorf("schooner: bad signature on call to %q: %w", name, err)
	}
	// The import may be a subset of the export; re-verify here (the
	// Manager checked at bind time, but a direct caller could lie).
	if err := uts.CheckImport(imp, bp.Spec); err != nil {
		return nil, err
	}
	pl := &callPlan{imp: imp, inFrom: subset(bp.Spec.InParams(), imp.InParams())}
	if pl.inFrom != nil {
		pl.zero = make([]uts.Value, len(pl.inFrom))
		for i, from := range pl.inFrom {
			if from < 0 {
				pl.zero[i] = uts.Zero(bp.Spec.InParams()[i].Type)
			}
		}
	}
	if at := subset(bp.Spec.OutParams(), imp.OutParams()); at != nil {
		pl.keepOut = make([]bool, len(at))
		for i, from := range at {
			pl.keepOut[i] = from >= 0
		}
	}
	// Only the canonical text (what Line sends) is kept, so the plans
	// stay bounded by the export's parameter subsets; another spelling
	// of a signature is parsed and checked on every call.
	if imp.Signature() == sig {
		p.planMu.Lock()
		p.plans[key] = pl
		p.planMu.Unlock()
	}
	return pl, nil
}

func (p *process) handleCall(m *wire.Message) *wire.Message {
	// Remote half of the call's span tree: a traced request parents a
	// dispatch span on this host, with children for the decode half of
	// the conversion, the procedure body, and the encode half.
	var dispatch *trace.Span
	if m.Trace != 0 {
		dispatch = trace.StartChild(trace.SpanContext{Trace: m.Trace, Span: m.Span},
			"dispatch "+m.Name, p.host)
		defer dispatch.End()
	}
	flight.Record(flight.Event{Kind: flight.KindDispatch, Component: "process",
		Host: p.host, Line: m.Line, Trace: m.Trace, Span: m.Span, Name: m.Name})
	bp := p.instance.Find(m.Name, p.program.Language)
	if bp == nil {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: no procedure %q in %s", m.Name, p.program.Path)}
	}
	var decode *trace.Span
	if dispatch != nil {
		decode = dispatch.Child("decode", p.host)
	}
	pl, err := p.plan(bp, m.Name, m.Str)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	// Convert incoming values into this machine's native formats as
	// they are decoded, into an argument set of the free list: the
	// UTS-to-native half of the conversion, with its range errors. The
	// values are this call's own, so they are converted where they lie.
	// A call that fails here drops its set.
	in, bad, err := uts.DecodeParamsNative(m.Data, pl.imp.InParams(), p.arch, p.takeArgs())
	if bad >= 0 {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: converting parameter to %s native format: %v", p.arch.Name, err)}
	}
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	// Every return below comes after the reply is encoded, or with no
	// reply to encode.
	defer p.putArgs(in)
	if pl.inFrom != nil {
		// Assemble the full in-parameter list of the export: parameters
		// omitted by a subset import take their zero values, which
		// every machine holds as they are.
		sent := in
		in = make([]uts.Value, len(pl.inFrom))
		for i, from := range pl.inFrom {
			if from >= 0 {
				in[i] = sent[from]
			} else {
				in[i] = pl.zero[i].Clone()
			}
		}
	}
	decode.End()

	// One line is sequential; distinct lines may call concurrently
	// into a shared procedure, so serialize at the instance.
	var body *trace.Span
	var bodyStart time.Time
	enabled := trace.Enabled()
	if enabled {
		if dispatch != nil {
			body = dispatch.Child("proc "+m.Name, p.host)
		}
		bodyStart = p.clock.Now()
	}
	if !p.lock() {
		return &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated}
	}
	out, err := bp.Fn(in)
	p.unlock()
	if enabled {
		d := p.clock.Since(bodyStart)
		body.End()
		trace.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "proc", Value: m.Name}), d)
		trace.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "host", Value: p.host}), d)
		if tseries.Enabled() {
			ctx := body.Context()
			if ctx.Trace == 0 {
				ctx = trace.SpanContext{Trace: m.Trace, Span: m.Span}
			}
			tseries.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "proc", Value: m.Name}), d, ctx.Trace, ctx.Span)
			tseries.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "host", Value: p.host}), d, ctx.Trace, ctx.Span)
		}
	}
	trace.Count("schooner.proc.calls")
	if err != nil {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: %s: %v", m.Name, err)}
	}
	exportOut := bp.Spec.OutParams()
	if len(out) != len(exportOut) {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: %s returned %d results, export declares %d", m.Name, len(out), len(exportOut))}
	}
	// Native-to-UTS conversion of results, straight into the reply and
	// without touching the procedure's own values; only the
	// out-parameters the import asked for are sent.
	var encode *trace.Span
	if dispatch != nil {
		encode = dispatch.Child("encode", p.host)
	}
	data, bad, err := marshalNative(p.arch, exportOut, out, pl.keepOut, uts.ParamsSize(pl.imp.OutParams()))
	if bad >= 0 {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: converting result %q from %s native format: %v", exportOut[bad].Name, p.arch.Name, err)}
	}
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	encode.End()
	return &wire.Message{Kind: wire.KOK, Data: data}
}

// takeArgs takes an argument set off the free list, or nil when it is
// empty.
func (p *process) takeArgs() []uts.Value {
	p.argsMu.Lock()
	defer p.argsMu.Unlock()
	n := len(p.args)
	if n == 0 {
		return nil
	}
	in := p.args[n-1]
	p.args[n-1] = nil
	p.args = p.args[:n-1]
	return in
}

// putArgs puts an argument set back on the free list.
func (p *process) putArgs(in []uts.Value) {
	p.argsMu.Lock()
	p.args = append(p.args, in)
	p.argsMu.Unlock()
}

// stateFor finds the bound procedure by name and checks it supports
// state transfer.
func (p *process) stateFor(name string) (*BoundProc, error) {
	bp := p.instance.Find(name, p.program.Language)
	if bp == nil {
		return nil, fmt.Errorf("schooner: no procedure %q in %s", name, p.program.Path)
	}
	if bp.GetState == nil {
		return nil, fmt.Errorf("schooner: procedure %q is stateless (no state clause)", name)
	}
	return bp, nil
}

func (p *process) handleStateGet(m *wire.Message) *wire.Message {
	bp, err := p.stateFor(m.Name)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	if !p.lock() {
		return &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated}
	}
	vals, err := bp.GetState()
	p.unlock()
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	params := stateParams(bp.Spec)
	data, err := uts.EncodeParams(nil, params, vals)
	if err != nil {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: state of %q does not match its state clause: %v", m.Name, err)}
	}
	return &wire.Message{Kind: wire.KOK, Data: data}
}

func (p *process) handleStatePut(m *wire.Message) *wire.Message {
	bp, err := p.stateFor(m.Name)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	vals, err := uts.DecodeParams(m.Data, stateParams(bp.Spec))
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	if !p.lock() {
		return &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated}
	}
	err = bp.SetState(vals)
	p.unlock()
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	return &wire.Message{Kind: wire.KOK}
}

// stateParams views a spec's state clause as a parameter list for
// marshaling.
func stateParams(s *uts.ProcSpec) []uts.Param {
	params := make([]uts.Param, len(s.State))
	for i, f := range s.State {
		params[i] = uts.Param{Name: f.Name, Mode: uts.Var, Type: f.Type}
	}
	return params
}
