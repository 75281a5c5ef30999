package dst

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"npss/internal/critpath"
	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/schooner"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wal"
)

// Config selects a scenario.
type Config struct {
	// Seed determines the entire op schedule.
	Seed int64
	// Ops is how many operations to generate (Replay ignores it).
	Ops int
	// Hosts is the worker-machine count h1..hN (default 3). The
	// Manager's machine "mgr" is additional and never faulted.
	Hosts int
	// Inject names a deliberate bug to plant, for testing the harness
	// itself: "double-commit" makes the counter procedure commit twice
	// on every fifth call ID.
	Inject string
	// Standby runs a warm-standby Manager on its own machine ("mgr2"),
	// tailing the leader's journal. With a standby, a crashed leader is
	// never restarted in place: the scenario converges through standby
	// takeover and client reattachment instead.
	Standby bool
	// SeriesInterval, when positive, runs a windowed time-series
	// sampler on the scenario's virtual clock, closing a window every
	// interval of simulated time. The series lands in Result.Series
	// and must be bit-identical across same-schedule replays.
	SeriesInterval time.Duration
	// Fleet names the worker machines and their simulated
	// architectures explicitly, overriding Hosts (which generates
	// h1..hN over the paper's architecture cycle). The declarative
	// scenario harness compiles its fleet templates into this.
	Fleet []HostSpec
	// Health overrides the Manager's health-monitoring policy. Nil
	// keeps the DST default (25ms sweeps); a negative Interval disables
	// monitoring entirely — necessary for thousand-host fleets, where
	// per-sweep pinging of every machine would dominate the run.
	Health *schooner.HealthPolicy
	// Profile records spans on the run's virtual clock and captures
	// the critical-path attribution when the run finishes. Every span
	// timestamp is a pure function of the op schedule, so
	// Result.Profile encodes byte-identically across same-seed replays.
	Profile bool
}

// HostSpec is one worker machine of an explicit fleet.
type HostSpec struct {
	Name string
	Arch *machine.Arch
}

// Violation is one invariant failure, tied to the op after which it
// was detected.
type Violation struct {
	Op     int // index into Result.Ops; len(Ops) = the final convergence check
	Name   string
	Detail string
}

func (v *Violation) String() string {
	return fmt.Sprintf("invariant %q violated after op %d: %s", v.Name, v.Op, v.Detail)
}

// Result is one scenario run.
type Result struct {
	Seed     int64
	Ops      []Op
	Outcomes []string // one entry per applied op, for schedule comparison
	// Violation is nil on a clean run.
	Violation *Violation
	// Signature captures the deterministic metric counters: two runs of
	// the same schedule must produce identical signatures.
	Signature map[string]int64
	// VirtualElapsed is how much simulated time the scenario covered;
	// RealElapsed is the wall-clock cost of simulating it.
	VirtualElapsed time.Duration
	RealElapsed    time.Duration
	// Series is the windowed metric series when Config.SeriesInterval
	// was set: virtual-time windows up to the instant Finish was called,
	// byte-identical across same-schedule replays.
	Series tseries.Series
	// Events is the run's cluster-shape transitions (crashes, health
	// verdicts, failovers, takeovers, violations) from the run-scoped
	// flight recorder, timestamped on the same clock as Series so a
	// report can overlay them.
	Events []flight.Event
	// FlightDump is the scoped flight recorder's dump, captured only
	// when the run ended in a violation — the post-mortem's starting
	// point. With SeriesInterval set it ends with the series tail.
	FlightDump string
	// Profile is the critical-path attribution of the whole run, when
	// Config.Profile was set.
	Profile *critpath.Profile
	// Metrics is the run's whole metric snapshot. The run scopes its
	// metric set, so this is how its counters reach a roll-up.
	Metrics trace.MetricsSnapshot
}

// signatureKeys are the counters included in Result.Signature. Every
// counter of the run is a pure function of the op schedule under the
// virtual clock — Finish reads them at one virtual instant — so the
// list is a choice of what is worth comparing, not of what is safe to.
var signatureKeys = []string{
	"dst.calls.ok",
	"dst.calls.fail",
	"dst.calls.timeout",
	"dst.ops.skipped",
	"dst.commits",
	"schooner.manager.moves",
	"schooner.manager.failovers",
	"schooner.manager.starts",
	"schooner.manager.lines",
	"schooner.client.calls",
	"schooner.client.call_failures",
	"schooner.client.retries",
	"schooner.client.stale",
	"schooner.client.timeouts",
	"schooner.client.rebinds",
	"schooner.client.reattaches",
	"schooner.manager.checkpoints",
	"schooner.manager.failover_restored_stateful",
	"schooner.manager.failover_skipped_stateful",
	"schooner.manager.readopted",
	"schooner.manager.recoveries",
	"schooner.manager.standby_takeovers",
	"schooner.manager.heartbeats",
	"schooner.standby.heartbeats",
	"schooner.client.rpcs",
	"netsim.drops",
}

// verifyIDBase is the call-ID space for the driver's own invariant
// verification calls, disjoint from generated bump and work IDs.
const verifyIDBase = 1 << 30

// ledger records every commit a procedure process performs, keyed by
// (call ID, attempt number). The bump procedure is called with no
// client-level retries and an explicit attempt number, so each key
// must commit at most once: a second commit means the runtime
// delivered one request twice.
type ledger struct {
	mu      sync.Mutex
	commits map[[2]int64]int
}

func newLedger() *ledger {
	return &ledger{commits: make(map[[2]int64]int)}
}

func (l *ledger) commit(id, attempt int64) {
	l.mu.Lock()
	l.commits[[2]int64{id, attempt}]++
	l.mu.Unlock()
	trace.Count("dst.commits")
}

// doubleCommit reports the first bump key committed more than once.
func (l *ledger) doubleCommit() (key [2]int64, n int, found bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([][2]int64, 0, len(l.commits))
	for k := range l.commits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if k[0] < workIDBase && l.commits[k] > 1 {
			return k, l.commits[k], true
		}
	}
	return [2]int64{}, 0, false
}

// Cluster is one simulated deployment under driver control: a whole
// Schooner cluster — Manager, a Server per machine, the shared work
// and accumulator procedures — on a virtual clock, with the scoped
// metric set, flight recorder, and invariant machinery of a DST run.
//
// Replay drives it with a generated schedule; the declarative
// scenario harness (package scenario) steps it explicitly: NewCluster,
// any interleaving of Apply / Sleep / AddHost / assertion probes
// (Counter, BoundHost), then Converge and Finish. A Cluster holds a
// Scope of the process-global observability planes between NewCluster
// and Finish, so at most one exists at a time.
type Cluster struct {
	cfg     Config
	v       *vclock.Virtual
	net     *netsim.Network
	tr      *schooner.SimTransport
	reg     *schooner.Registry
	mgr     *schooner.Manager
	servers map[string]*schooner.Server
	hosts   []string // h1..hN
	led     *ledger

	workClient *schooner.Client // workLine's; OpBatch dispatches through it
	workLine   *schooner.Line
	lines      [maxLines]*schooner.Line

	downs map[string]bool
	parts map[string]bool // "a|b" keys

	// Control-plane durability state. backend holds the Manager's
	// journal across simulated crashes; preCrash is the name-database
	// key-set snapshot taken at the last OpManagerCrash; restoredTotal
	// accumulates every incarnation's checkpoint-restore ledger for the
	// no-double-restore invariant; accFloor is the accumulator value any
	// later checkpoint restore must reach, raised only at acked
	// checkpoints.
	backend       *wal.MemBackend
	standby       *schooner.Standby
	mgrDown       bool
	preCrash      map[uint32][]string
	restoredTotal map[string]int
	accFloor      float64

	outcomes  []string
	violation *Violation
	verifySeq int64

	// Driver-stepping state: ops and step mirror what Replay's loop
	// tracked, so explicit Apply calls produce the same outcome log and
	// violation indices. scope holds the process globals the run
	// scoped, and set is its metric set.
	ops      []Op
	step     int
	scope    *Scope
	set      *trace.Set
	finished bool

	// Profiling state (Config.Profile): a span recorder reading the
	// virtual clock, and the recorder it displaced.
	spanRec     *trace.Recorder
	prevSpanRec *trace.Recorder
}

// clean reports whether no fault is currently injected — the state in
// which availability invariants must hold.
func (c *Cluster) clean() bool {
	return len(c.downs) == 0 && len(c.parts) == 0 && !c.mgrDown
}

// violate records the first invariant failure; later ones are ignored
// (the run stops at the first anyway).
func (c *Cluster) violate(op int, name, detail string) {
	if c.violation == nil {
		c.violation = &Violation{Op: op, Name: name, Detail: detail}
		flight.Record(flight.Event{Kind: flight.KindViolation, Component: "dst",
			Name: name, Detail: detail})
	}
}

// xFor derives the deterministic input of a call from its ID. The
// value is a small half-integer, exactly representable on every
// simulated architecture including the Cray's 48-bit mantissa, so
// answer checks need no tolerance for format conversion.
func xFor(id int64) float64 { return float64(id%1024) / 2 }

func bumpExpect(x float64) float64 { return 2*x + 1 }
func workExpect(x float64) float64 { return 1.5*x + 1 }

// close enough for cross-architecture round trips (exact for the
// half-integer inputs used here; the tolerance is belt and braces).
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// counterProgram exports bump (fast, commits (id,attempt)) and nap
// (commits, then holds the reply past any call deadline). Both report
// to the run's ledger; nap sleeps on the run's virtual clock so the
// stall costs no wall time.
func (c *Cluster) counterProgram() *schooner.Program {
	return &schooner.Program{
		Path:     "dst-counter",
		Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			bump := &schooner.BoundProc{
				Spec: uts.MustParseProc(`export bump prog("id" val long, "attempt" val long, "x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					id, _ := in[0].Int64()
					attempt, _ := in[1].Int64()
					c.led.commit(id, attempt)
					if c.cfg.Inject == "double-commit" && id < workIDBase && id%5 == 3 {
						c.led.commit(id, attempt)
					}
					return []uts.Value{uts.DoubleVal(bumpExpect(in[2].F))}, nil
				},
			}
			nap := &schooner.BoundProc{
				Spec: uts.MustParseProc(`export nap prog("id" val long, "x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					id, _ := in[0].Int64()
					c.led.commit(id, 0)
					c.v.Sleep(150 * time.Millisecond) // > the 80ms call deadline
					return []uts.Value{uts.DoubleVal(bumpExpect(in[1].F))}, nil
				},
			}
			return schooner.NewInstance(bump, nap)
		},
	}
}

// workProgram exports the shared work procedure. Its line keeps the
// full client retry policy, so commits per ID are bounded but not
// unique — the ledger entry uses attempt -1.
func (c *Cluster) workProgram() *schooner.Program {
	return &schooner.Program{
		Path:     "dst-work",
		Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			work := &schooner.BoundProc{
				Spec: uts.MustParseProc(`export work prog("id" val long, "x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					id, _ := in[0].Int64()
					c.led.commit(id, -1)
					return []uts.Value{uts.DoubleVal(workExpect(in[1].F))}, nil
				},
			}
			return schooner.NewInstance(work)
		},
	}
}

// accProgram exports the shared stateful accumulator: each call adds x
// to a running total and returns it. The state clause makes it the
// checkpoint/restore machinery's subject — after a crash of its host,
// the total must come back no older than the last acked checkpoint.
func (c *Cluster) accProgram() *schooner.Program {
	return &schooner.Program{
		Path:     "dst-acc",
		Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			var total float64
			acc := &schooner.BoundProc{
				Spec: uts.MustParseProc(`export acc prog("x" val double, "total" res double) state("sum" double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					total += in[0].F
					return []uts.Value{uts.DoubleVal(total)}, nil
				},
				GetState: func() ([]uts.Value, error) {
					return []uts.Value{uts.DoubleVal(total)}, nil
				},
				SetState: func(vals []uts.Value) error {
					total = vals[0].F
					return nil
				},
			}
			return schooner.NewInstance(acc)
		},
	}
}

// archCycle assigns the paper's testbed architectures round-robin to
// worker hosts, so every run crosses byte orders and float formats.
var archCycle = []*machine.Arch{
	machine.SPARC, machine.PC, machine.CrayYMP, machine.RS6000, machine.SGI,
}

// bumpImport / napImport / workImport are the client-side import
// specifications matching the program exports.
var (
	bumpImport = uts.MustParseProc(`import bump prog("id" val long, "attempt" val long, "x" val double, "y" res double)`)
	napImport  = uts.MustParseProc(`import nap prog("id" val long, "x" val double, "y" res double)`)
	workImport = uts.MustParseProc(`import work prog("id" val long, "x" val double, "y" res double)`)
	accImport  = uts.MustParseProc(`import acc prog("x" val double, "total" res double)`)
)

// bumpPolicy is the call policy for scenario lines: one attempt only
// (MaxRetries -1 means zero retries), so the driver controls retrying
// and can tag each attempt with its number — the bookkeeping the
// double-commit invariant rests on.
var bumpPolicy = schooner.CallPolicy{
	Timeout:    80 * time.Millisecond,
	MaxRetries: -1,
	Backoff:    2 * time.Millisecond,
	MaxBackoff: 10 * time.Millisecond,
}

// workPolicy keeps the full retry machinery for the shared work line,
// exercising backoff, rebind, and failover discovery.
var workPolicy = schooner.CallPolicy{
	Timeout:    80 * time.Millisecond,
	MaxRetries: 3,
	Backoff:    2 * time.Millisecond,
	MaxBackoff: 10 * time.Millisecond,
}

// healthPolicy drives failover quickly in virtual time.
var healthPolicy = schooner.HealthPolicy{
	Interval:    25 * time.Millisecond,
	Threshold:   2,
	PingTimeout: 40 * time.Millisecond,
}

// Run generates a schedule from cfg.Seed and executes it.
func Run(cfg Config) (*Result, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 3
	}
	hosts := workerHosts(cfg.Hosts)
	ops := Generate(cfg.Seed, cfg.Ops, hosts)
	return Replay(cfg, ops)
}

// Replay executes an explicit schedule — the same path Run uses, so a
// shrunk trace reproduces exactly what its parent run did.
func Replay(cfg Config, ops []Op) (*Result, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		c.Apply(op)
		if c.violation != nil {
			break
		}
	}
	c.Converge()
	return c.Finish(), nil
}

// fleet resolves the configured worker machines: the explicit Fleet
// when given, h1..hN over the paper's architecture cycle otherwise.
func (cfg *Config) fleet() []HostSpec {
	if len(cfg.Fleet) > 0 {
		return cfg.Fleet
	}
	if cfg.Hosts <= 0 {
		cfg.Hosts = 3
	}
	fleet := make([]HostSpec, cfg.Hosts)
	for i, h := range workerHosts(cfg.Hosts) {
		fleet[i] = HostSpec{Name: h, Arch: archCycle[i%len(archCycle)]}
	}
	return fleet
}

// NewCluster stands a cluster up on its own virtual clock, which every
// component reads from the simulated network it is built on, and
// scopes the observability globals to it. The caller must Finish the
// cluster (even after a violation) to restore them; until then no
// other simulated run can start.
func NewCluster(cfg Config) (*Cluster, error) {
	scope := OpenScope()
	fleet := cfg.fleet()

	c := &Cluster{
		cfg:           cfg,
		v:             vclock.NewVirtual(),
		led:           newLedger(),
		servers:       make(map[string]*schooner.Server),
		downs:         make(map[string]bool),
		parts:         make(map[string]bool),
		backend:       wal.NewMemBackend(),
		restoredTotal: make(map[string]int),
		scope:         scope,
	}
	c.set = scope.Start(c.v, cfg.SeriesInterval)
	if cfg.Profile {
		// Span timestamps read the virtual clock, so the profile is a
		// pure function of the schedule. The aux section puts the top critical-path edges into any
		// flight dump a violation triggers.
		c.spanRec = trace.NewRecorderClock(c.v.Now)
		c.prevSpanRec = trace.ActiveRecorder()
		trace.SetRecorder(c.spanRec)
		flight.SetAuxDump("critical path", critpath.FlightSection)
	}

	// The network carries the virtual clock to every component built on
	// it, and its jitter source, seeded alike for every cluster, makes
	// backoff durations reproducible.
	c.net = netsim.New()
	c.net.SetClock(c.v)
	c.net.SetTimeScale(1.0)
	c.net.MustAddHost("mgr", machine.SPARC)
	ctrlHosts := []string{"mgr"}
	if cfg.Standby {
		c.net.MustAddHost("mgr2", machine.SPARC)
		ctrlHosts = append(ctrlHosts, "mgr2")
	}
	for _, h := range fleet {
		c.hosts = append(c.hosts, h.Name)
		c.net.MustAddHost(h.Name, h.Arch)
	}
	c.tr = schooner.NewSimTransport(c.net)
	c.reg = schooner.NewRegistry()
	c.reg.MustRegister(c.counterProgram())
	c.reg.MustRegister(c.workProgram())
	c.reg.MustRegister(c.accProgram())

	// The Manager journals every name-database mutation into an
	// in-memory WAL; the backend outlives Manager crashes, so
	// OpManagerRecover replays exactly what an acked client saw.
	jlog, err := wal.Open(c.backend, wal.Options{})
	if err != nil {
		c.teardown()
		return nil, err
	}
	c.mgr, err = schooner.StartManagerConfig(c.tr, "mgr", schooner.ManagerConfig{Journal: jlog})
	if err != nil {
		c.teardown()
		return nil, err
	}
	for _, h := range append(ctrlHosts, c.hosts...) {
		srv, serr := schooner.StartServer(c.tr, h, c.reg)
		if serr != nil {
			c.teardown()
			return nil, serr
		}
		c.servers[h] = srv
	}
	hp := c.healthPolicy()
	c.mgr.StartHealth(hp)
	if cfg.Standby {
		slog, serr := wal.Open(wal.NewMemBackend(), wal.Options{})
		if serr != nil {
			c.teardown()
			return nil, serr
		}
		c.standby = schooner.StartStandby(c.tr, "mgr2", "mgr", slog, schooner.StandbyPolicy{
			HeartbeatInterval: 25 * time.Millisecond,
			Threshold:         3,
			PingTimeout:       40 * time.Millisecond,
			Health:            hp,
		})
	}

	// The shared work line exists for the whole run, its procedure
	// initially on the first worker; the stateful accumulator starts on
	// the second.
	c.workClient = &schooner.Client{Transport: c.tr, Host: "mgr", ManagerHost: "mgr",
		Managers: c.standbyHosts(), Policy: workPolicy}
	c.workLine, err = c.workClient.ContactSchx("dst-work-driver")
	if err == nil {
		err = c.workLine.Import(workImport)
	}
	if err == nil {
		err = c.workLine.Import(accImport)
	}
	if err == nil {
		err = c.workLine.StartShared("dst-work", c.hosts[0])
	}
	if err == nil {
		accHost := c.hosts[0]
		if len(c.hosts) > 1 {
			accHost = c.hosts[1]
		}
		err = c.workLine.StartShared("dst-acc", accHost)
	}
	if err != nil {
		c.teardown()
		return nil, err
	}
	return c, nil
}

// healthPolicy resolves the Manager monitoring policy: the DST default
// unless the config overrides it (negative Interval disables).
func (c *Cluster) healthPolicy() schooner.HealthPolicy {
	if c.cfg.Health != nil {
		return *c.cfg.Health
	}
	return healthPolicy
}

// Apply executes one op as the next step of the schedule, returning
// its outcome word. After a violation further ops are still applied
// (Replay stops instead); the first violation wins.
func (c *Cluster) Apply(op Op) string {
	idx := c.step
	c.step++
	c.ops = append(c.ops, op)
	out := c.apply(idx, op)
	c.outcomes = append(c.outcomes, fmt.Sprintf("%d %s: %s", idx, op, out))
	c.checkLedger(idx)
	return out
}

// Sleep advances the cluster's virtual clock by d.
func (c *Cluster) Sleep(d time.Duration) { c.v.Sleep(d) }

// Elapsed reports how much virtual time the run has covered.
func (c *Cluster) Elapsed() time.Duration { return c.v.Elapsed() }

// Violation reports the first invariant or assertion failure, nil on
// a clean run so far.
func (c *Cluster) Violation() *Violation { return c.violation }

// Violate records a driver-level invariant failure (an assertion of a
// declarative scenario, say) through the same machinery as the
// built-in invariants: first failure wins, and it lands in the flight
// recorder.
func (c *Cluster) Violate(name, detail string) { c.violate(c.step, name, detail) }

// Counter reads one metric counter from the run's scoped set — the
// raw material for scenario assert_counter checks.
func (c *Cluster) Counter(key string) int64 { return c.set.Get(key) }

// BoundHost reports which machine the name database currently binds a
// shared procedure to ("" when unbound). The scenario DSL's procedure
// names are the UTS names: "work", "acc".
func (c *Cluster) BoundHost(proc string) string {
	c.adoptPromoted()
	if c.mgrDown {
		return ""
	}
	return c.mgr.NameBindings(0)[proc]
}

// AddHost joins a fresh worker machine to the running cluster — the
// scenario harness's startup ramp adds most of a thousand-host fleet
// this way, at staggered virtual instants — and starts its Server.
func (c *Cluster) AddHost(name string, arch *machine.Arch) error {
	if _, err := c.net.AddHost(name, arch); err != nil {
		return err
	}
	srv, err := schooner.StartServer(c.tr, name, c.reg)
	if err != nil {
		return err
	}
	c.servers[name] = srv
	c.hosts = append(c.hosts, name)
	return nil
}

// Hosts lists the worker machines currently joined, in join order.
func (c *Cluster) Hosts() []string { return append([]string(nil), c.hosts...) }

// Converge runs the final convergence invariant (all faults lifted,
// workload answers the locally computed result) unless a violation
// already ended the run.
func (c *Cluster) Converge() {
	if c.violation == nil {
		c.converge(c.step)
		c.checkLedger(c.step)
	}
}

// captureProfile analyzes the scoped span recorder. The top edges are
// also recorded as attribution events, so a violation's flight dump
// leads from "what broke" to "where the time went".
func (c *Cluster) captureProfile() *critpath.Profile {
	if c.spanRec == nil {
		return nil
	}
	profile := critpath.Analyze(c.spanRec.Spans(), nil, c.spanRec.Dropped())
	for _, e := range critpath.TopEdges(profile, 3) {
		flight.Record(flight.Event{Kind: flight.KindAttribution, Component: "critpath",
			Host: e.Host, Name: e.Name,
			Detail: fmt.Sprintf("%s %s at +%s", e.Bucket, e.Dur, e.Start)})
	}
	return profile
}

// Finish collects the run's Result and dismantles the cluster,
// restoring the process-global observability planes. It must be called
// exactly once; the Cluster is dead afterwards.
func (c *Cluster) Finish() *Result {
	res := &Result{
		Seed:           c.cfg.Seed,
		Ops:            c.ops,
		Outcomes:       c.outcomes,
		Violation:      c.violation,
		Signature:      make(map[string]int64, len(signatureKeys)),
		VirtualElapsed: c.v.Elapsed(),
		Profile:        c.captureProfile(),
	}
	for _, k := range signatureKeys {
		res.Signature[k] = c.set.Get(k)
	}
	// On a violation the flight dump is the post-mortem.
	c.scope.Collect(res, c.violation != nil)
	res.RealElapsed = c.teardown()
	return res
}

// teardown dismantles the cluster in dependency order: the health
// prober first (it sleeps on the virtual clock, which must still be
// running), then the Manager and Servers, then the clock itself —
// stopping it releases whoever is still parked and waits until every
// goroutine of the cluster has returned — and finally the scope is
// closed, which reports the run's wall-clock cost. Idempotent via
// c.finished.
func (c *Cluster) teardown() time.Duration {
	if c.finished {
		return 0
	}
	c.finished = true
	// Normally already stopped by Finish; on an error path this
	// releases the sampler's virtual-clock timer before the clock halts.
	c.scope.stopSampler()
	if c.standby != nil {
		c.standby.Stop()
		if pm := c.standby.Manager(); pm != nil && pm != c.mgr {
			pm.StopHealth()
			pm.Stop()
		}
	}
	if c.mgr != nil {
		c.mgr.StopHealth()
		c.mgr.Stop()
	}
	for _, s := range c.servers {
		s.Stop()
	}
	if err := c.v.Stop(); err != nil {
		// A goroutine of the cluster is blocked where the clock cannot
		// reach it. It will wake on the wall clock, if ever; say so.
		flight.Record(flight.Event{Kind: flight.KindNote, Component: "dst",
			Name: "teardown", Detail: err.Error()})
		logx.For("dst", "").Error("cluster goroutines outlived teardown", "err", err)
	}
	if c.spanRec != nil {
		flight.SetAuxDump("critical path", nil)
		trace.SetRecorder(c.prevSpanRec)
	}
	return c.scope.Close()
}

func workerHosts(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i+1)
	}
	return hosts
}

// partKey canonicalizes a severed pair.
func partKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// apply executes one op and returns a short outcome word. Ops whose
// precondition no longer holds (their setup op was shrunk away) are
// skipped, never failed — shrinking must not manufacture violations.
func (c *Cluster) apply(idx int, op Op) string {
	c.adoptPromoted()
	switch op.Kind {
	case OpSpawnLine:
		if c.mgrDown || c.lines[op.Line] != nil {
			return c.skip()
		}
		client := &schooner.Client{Transport: c.tr, Host: "mgr", ManagerHost: "mgr",
			Managers: c.standbyHosts(), Policy: bumpPolicy}
		ln, err := client.ContactSchx(fmt.Sprintf("dst-line-%d", op.Line))
		if err != nil {
			return "fail: " + err.Error()
		}
		if err := ln.Import(bumpImport); err != nil {
			return "fail: " + err.Error()
		}
		if err := ln.Import(napImport); err != nil {
			return "fail: " + err.Error()
		}
		c.lines[op.Line] = ln
		return "ok"

	case OpQuitLine:
		ln := c.lines[op.Line]
		if c.mgrDown || ln == nil {
			return c.skip()
		}
		c.lines[op.Line] = nil
		if err := ln.IQuit(); err != nil {
			return "fail: " + err.Error()
		}
		// Invariant: quitting a line never takes shared procedures with
		// it. Only checkable when no fault could mask the loss.
		if c.clean() {
			if _, ok := c.verifiedWorkCall(); !ok {
				c.violate(idx, "shared-lost", fmt.Sprintf("shared work procedure unreachable after line %d quit", op.Line))
			}
		}
		return "ok"

	case OpStartProc:
		ln := c.lines[op.Line]
		if c.mgrDown || ln == nil {
			return c.skip()
		}
		if err := ln.StartRemote("dst-counter", op.Host); err != nil {
			return "fail: " + err.Error()
		}
		return "ok"

	case OpCall:
		ln := c.lines[op.Line]
		if ln == nil {
			return c.skip()
		}
		ok := 0
		for i := 0; i < op.N; i++ {
			if c.bumpCall(idx, ln, op.ID+int64(i)) {
				ok++
			}
			c.v.Sleep(5 * time.Millisecond)
		}
		return fmt.Sprintf("ok=%d/%d", ok, op.N)

	case OpSlow:
		ln := c.lines[op.Line]
		if ln == nil {
			return c.skip()
		}
		x := xFor(op.ID)
		res, err := ln.Call("nap", uts.LongVal(op.ID), uts.DoubleVal(x))
		if err != nil {
			trace.Count("dst.calls.timeout")
			return "timeout"
		}
		// The nap stalls 150ms against an 80ms deadline; a reply means
		// the deadline machinery is broken.
		c.violate(idx, "deadline-missed", fmt.Sprintf("nap id=%d returned %v despite stalling past the call deadline", op.ID, res))
		return "unexpected-ok"

	case OpBurst:
		pend := make([]*schooner.Pending, op.N)
		for i := range pend {
			id := op.ID + int64(i)
			pend[i] = c.workLine.Go("work", uts.LongVal(id), uts.DoubleVal(xFor(id)))
		}
		return c.checkWork(idx, op, pend, "work")

	case OpBatch:
		calls := make([]schooner.CrossCall, op.N)
		for i := range calls {
			id := op.ID + int64(i)
			calls[i] = schooner.CrossCall{Line: c.workLine, Name: "work",
				Args: []uts.Value{uts.LongVal(id), uts.DoubleVal(xFor(id))}}
		}
		return c.checkWork(idx, op, c.workClient.CallBatch(calls), "batched work")

	case OpWork:
		got, ok := c.workCallOnce(op.ID)
		if !ok {
			trace.Count("dst.calls.fail")
			return "fail"
		}
		if !near(got, workExpect(xFor(op.ID))) {
			c.violate(idx, "wrong-answer", fmt.Sprintf("work id=%d: got %v want %v", op.ID, got, workExpect(xFor(op.ID))))
			return "wrong"
		}
		trace.Count("dst.calls.ok")
		return "ok"

	case OpMove:
		ln := c.lines[op.Line]
		if c.mgrDown || ln == nil {
			return c.skip()
		}
		if err := ln.Move("bump", op.Host, false); err != nil {
			return "fail: " + err.Error()
		}
		// Invariant: after a successful Move the Manager's name database
		// points the procedure at the target machine...
		if host := c.mgr.NameBindings(ln.ID())["bump"]; host != op.Host {
			c.violate(idx, "move-db", fmt.Sprintf("after move of line %d bump to %s, name database says %q", op.Line, op.Host, host))
			return "ok"
		}
		// ...and the procedure still answers there.
		if !c.verifiedBumpCall(ln) {
			c.violate(idx, "move-verify", fmt.Sprintf("bump unreachable after move of line %d to %s", op.Line, op.Host))
		}
		return "ok"

	case OpMoveShared:
		if c.mgrDown {
			return c.skip()
		}
		if err := c.workLine.MoveShared("work", op.Host, false); err != nil {
			return "fail: " + err.Error()
		}
		return "ok"

	case OpCrash:
		if c.downs[op.Host] {
			return c.skip()
		}
		c.net.SetHostDown(op.Host, true)
		c.downs[op.Host] = true
		return "ok"

	case OpRestore:
		if !c.downs[op.Host] {
			return c.skip()
		}
		c.net.SetHostDown(op.Host, false)
		delete(c.downs, op.Host)
		return "ok"

	case OpPartition:
		k := partKey(op.Host, op.Host2)
		if c.parts[k] {
			return c.skip()
		}
		c.net.SetLinkDown(op.Host, op.Host2, true)
		c.parts[k] = true
		return "ok"

	case OpHeal:
		k := partKey(op.Host, op.Host2)
		if !c.parts[k] {
			return c.skip()
		}
		c.net.SetLinkDown(op.Host, op.Host2, false)
		delete(c.parts, k)
		return "ok"

	case OpSettle:
		c.v.Sleep(time.Duration(op.N) * 10 * time.Millisecond)
		return "ok"

	case OpAcc:
		got, ok := c.accCall(op.ID)
		if !ok {
			trace.Count("dst.calls.fail")
			return "fail"
		}
		// The total includes at least the x just added (all adds are
		// non-negative). The floor invariant proper is checked against
		// the name database's copy at checkpoint, recovery, and
		// convergence time — a lingering twin on a restored host may
		// legitimately answer scenario traffic with its own total.
		if got < xFor(op.ID)-1e-9 {
			c.violate(idx, "wrong-answer", fmt.Sprintf("acc id=%d: total %v below its own increment %v", op.ID, got, xFor(op.ID)))
			return "wrong"
		}
		trace.Count("dst.calls.ok")
		return "ok"

	case OpCheckpointNow:
		if c.mgrDown {
			return c.skip()
		}
		snaps, fails := c.mgr.CheckpointNow()
		if fails > 0 || snaps == 0 {
			return fmt.Sprintf("snapshots=%d failures=%d", snaps, fails)
		}
		// Every stateful procedure snapshotted and every journal append
		// was acked, so the floor may rise. The settle first lets any
		// failover already in flight — holding a pre-checkpoint snapshot
		// read before this sweep acked — finish swapping, after which
		// the probed value is exactly what the newest acked checkpoint
		// would restore.
		c.v.Sleep(time.Second)
		c.workLine.FlushCache()
		if got, ok := c.accProbe(); ok {
			if got < c.accFloor-1e-9 {
				c.violate(idx, "stale-restore", fmt.Sprintf("acc total %v below checkpoint floor %v after checkpoint sweep", got, c.accFloor))
				return "rollback"
			}
			c.accFloor = got
		}
		return fmt.Sprintf("snapshots=%d", snaps)

	case OpManagerCrash:
		if c.mgrDown {
			return c.skip()
		}
		if c.standby != nil && c.standby.TookOver() {
			return c.skip() // one leader kill per standby run
		}
		c.preCrash = c.nameKeySets()
		c.mergeRestores(idx)
		c.mgr.Crash()
		c.mgrDown = true
		return "ok"

	case OpManagerRecover:
		if !c.mgrDown {
			return c.skip()
		}
		if c.standby != nil {
			return c.skip() // the standby owns recovery via takeover
		}
		if err := c.recoverManager(); err != nil {
			return "fail: " + err.Error()
		}
		c.checkRecovered(idx)
		c.workLine.FlushCache()
		if got, ok := c.accProbe(); ok && got < c.accFloor-1e-9 {
			c.violate(idx, "stale-restore", fmt.Sprintf("acc total %v below checkpoint floor %v after manager recovery", got, c.accFloor))
		}
		return "ok"
	}
	return c.skip()
}

func (c *Cluster) skip() string {
	trace.Count("dst.ops.skipped")
	return "skipped"
}

// checkWork waits for the work calls of op, which pend holds in id
// order from op.ID, and verifies each answer; what names the calls in
// a violation.
func (c *Cluster) checkWork(idx int, op Op, pend []*schooner.Pending, what string) string {
	ok := 0
	for i, p := range pend {
		id := op.ID + int64(i)
		res, err := p.Wait()
		if err != nil {
			trace.Count("dst.calls.fail")
			continue
		}
		if !near(res[0].F, workExpect(xFor(id))) {
			c.violate(idx, "wrong-answer", fmt.Sprintf("%s id=%d: got %v want %v", what, id, res[0].F, workExpect(xFor(id))))
			continue
		}
		trace.Count("dst.calls.ok")
		ok++
	}
	return fmt.Sprintf("ok=%d/%d", ok, op.N)
}

// bumpCall performs one scenario call with driver-level retries: the
// line policy allows a single network attempt, so every attempt is
// tagged with its number and the ledger can detect a request that
// committed twice under one (id, attempt).
func (c *Cluster) bumpCall(idx int, ln *schooner.Line, id int64) bool {
	x := xFor(id)
	right := false
	answered := c.retry(4, 2*time.Millisecond, func(attempt int64) bool {
		res, err := ln.Call("bump", uts.LongVal(id), uts.LongVal(attempt), uts.DoubleVal(x))
		if err != nil {
			return false
		}
		if right = near(res[0].F, bumpExpect(x)); !right {
			c.violate(idx, "wrong-answer", fmt.Sprintf("bump id=%d: got %v want %v", id, res[0].F, bumpExpect(x)))
		}
		return true
	})
	switch {
	case !answered:
		trace.Count("dst.calls.fail")
	case right:
		trace.Count("dst.calls.ok")
	}
	return right
}

// retry makes up to tries attempts, numbered from 0, sleeping pause on
// the cluster's clock after each one that fails, the last included. It
// reports whether an attempt succeeded.
func (c *Cluster) retry(tries int, pause time.Duration, try func(attempt int64) bool) bool {
	for attempt := int64(0); attempt < int64(tries); attempt++ {
		if try(attempt) {
			return true
		}
		c.v.Sleep(pause)
	}
	return false
}

// verifiedBumpCall checks a moved procedure answers at its new home,
// using IDs outside the generated space so the check cannot collide
// with scenario calls (or with an injected bug keyed on scenario IDs).
func (c *Cluster) verifiedBumpCall(ln *schooner.Line) bool {
	c.verifySeq++
	id := verifyIDBase + c.verifySeq
	x := xFor(id)
	right := false
	c.retry(4, 2*time.Millisecond, func(attempt int64) bool {
		res, err := ln.Call("bump", uts.LongVal(id), uts.LongVal(attempt), uts.DoubleVal(x))
		if err != nil {
			return false
		}
		right = near(res[0].F, bumpExpect(x))
		return true
	})
	return right
}

// workCallOnce performs one work call (the line's own retry policy
// applies) and reports the result.
func (c *Cluster) workCallOnce(id int64) (float64, bool) {
	res, err := c.workLine.Call("work", uts.LongVal(id), uts.DoubleVal(xFor(id)))
	if err != nil {
		return 0, false
	}
	return res[0].F, true
}

// verifiedWorkCall retries a work call at the driver level, for
// availability invariants that must tolerate one stale cache miss.
func (c *Cluster) verifiedWorkCall() (float64, bool) {
	c.verifySeq++
	id := verifyIDBase + c.verifySeq
	var got float64
	ok := c.retry(4, 5*time.Millisecond, func(int64) (ok bool) {
		got, ok = c.workCallOnce(id)
		return ok
	})
	return got, ok
}

// standbyHosts lists the standby Manager machines clients may reattach
// to, or nil without a standby.
func (c *Cluster) standbyHosts() []string {
	if c.cfg.Standby {
		return []string{"mgr2"}
	}
	return nil
}

// accCall performs one accumulator call (the work line's retry policy
// applies) and returns the reported total.
func (c *Cluster) accCall(id int64) (float64, bool) {
	res, err := c.workLine.Call("acc", uts.DoubleVal(xFor(id)))
	if err != nil {
		return 0, false
	}
	return res[0].F, true
}

// accProbe reads the accumulator without changing it (x = 0), with
// driver-level retries. Callers flush the work line's cache first so
// the probe consults the name database's copy, not a cached — possibly
// superseded — address.
func (c *Cluster) accProbe() (float64, bool) {
	var got float64
	ok := c.retry(4, 5*time.Millisecond, func(int64) (ok bool) {
		got, ok = c.accCall(0)
		return ok
	})
	return got, ok
}

// nameKeySets snapshots the name database's key sets: which names are
// bound, per line, ignoring where they point (failover legitimately
// repoints names while the Manager is down recovering).
func (c *Cluster) nameKeySets() map[uint32][]string {
	sets := make(map[uint32][]string)
	add := func(id uint32) {
		names := c.mgr.NameBindings(id)
		keys := make([]string, 0, len(names))
		for k := range names {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sets[id] = keys
	}
	add(0)
	add(c.workLine.ID())
	for _, ln := range c.lines {
		if ln != nil {
			add(ln.ID())
		}
	}
	return sets
}

// checkRecovered asserts the journal round trip lost nothing: the
// recovered Manager's name database binds exactly the names the
// pre-crash snapshot had.
func (c *Cluster) checkRecovered(idx int) {
	after := c.nameKeySets()
	for id, want := range c.preCrash {
		if !equalStrings(after[id], want) {
			c.violate(idx, "recovery-db", fmt.Sprintf("line %d binds %v after recovery, %v before crash", id, after[id], want))
			return
		}
	}
	for id, got := range after {
		if _, ok := c.preCrash[id]; !ok && len(got) > 0 {
			c.violate(idx, "recovery-db", fmt.Sprintf("line %d binds %v after recovery, nothing before crash", id, got))
			return
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeRestores folds the current Manager incarnation's restore ledger
// into the run-wide tally. Called once per incarnation — at its crash,
// or at convergence for the final one — so counts never double. Any
// process restored from checkpoint more than once across the whole run
// means a failover re-ran against an already-superseded victim.
func (c *Cluster) mergeRestores(idx int) {
	addrs := make([]string, 0)
	ledger := c.mgr.RestoreLedger()
	for addr := range ledger {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		c.restoredTotal[addr] += ledger[addr]
		if c.restoredTotal[addr] > 1 {
			c.violate(idx, "double-restore", fmt.Sprintf("process %s restored from checkpoint %d times", addr, c.restoredTotal[addr]))
			return
		}
	}
}

// adoptPromoted swaps the cluster's Manager handle to the standby's
// promoted incarnation once takeover has started it.
func (c *Cluster) adoptPromoted() {
	if !c.mgrDown || c.standby == nil {
		return
	}
	if mgr := c.standby.Manager(); mgr != nil {
		c.mgr = mgr
		c.mgrDown = false
	}
}

// recoverManager restarts the Manager on its original machine from the
// journal backend, the DST equivalent of `schooner-manager -recover`.
func (c *Cluster) recoverManager() error {
	lg, err := wal.Open(c.backend, wal.Options{})
	if err != nil {
		return err
	}
	mgr, err := schooner.StartManagerConfig(c.tr, "mgr", schooner.ManagerConfig{Journal: lg, Recover: true})
	if err != nil {
		return err
	}
	mgr.StartHealth(c.healthPolicy())
	c.mgr = mgr
	c.mgrDown = false
	return nil
}

// checkLedger runs the double-commit invariant.
func (c *Cluster) checkLedger(idx int) {
	if k, n, found := c.led.doubleCommit(); found {
		c.violate(idx, "double-commit", fmt.Sprintf("call id=%d attempt=%d committed %d times", k[0], k[1], n))
	}
}

// converge is the final invariant: once every fault is lifted and the
// cluster has settled, the workload must return the locally computed
// answer — the Table-2 property that distribution changes where the
// computation runs, not what it computes.
func (c *Cluster) converge(idx int) {
	for h := range c.downs {
		c.net.SetHostDown(h, false)
	}
	c.downs = map[string]bool{}
	for k := range c.parts {
		for i := 0; i < len(k); i++ {
			if k[i] == '|' {
				c.net.SetLinkDown(k[:i], k[i+1:], false)
			}
		}
	}
	c.parts = map[string]bool{}

	// The control plane converges first: a crashed leader either hands
	// off to the standby (takeover needs virtual time to pass for the
	// missed heartbeats) or restarts from its journal. The wait is for
	// the promoted Manager, not the promotion: TookOver is set before
	// the journal replay and the re-adoption pings that start it.
	if c.mgrDown {
		if c.standby != nil {
			for i := 0; i < 200 && c.standby.Manager() == nil; i++ {
				c.v.Sleep(10 * time.Millisecond)
			}
			c.adoptPromoted()
			if c.mgrDown {
				c.violate(idx, "no-takeover", "standby never promoted itself after leader crash")
				return
			}
		} else if err := c.recoverManager(); err != nil {
			c.violate(idx, "no-convergence", "manager recovery failed: "+err.Error())
			return
		}
	}
	c.mergeRestores(idx)
	if c.violation != nil {
		return
	}

	c.v.Sleep(500 * time.Millisecond) // let health probes mark everything up
	c.workLine.FlushCache()

	c.verifySeq++
	id := verifyIDBase + c.verifySeq
	want := workExpect(xFor(id))
	var got float64
	if !c.retry(6, 20*time.Millisecond, func(int64) (ok bool) {
		got, ok = c.workCallOnce(id)
		return ok
	}) {
		c.violate(idx, "no-convergence", "work procedure unreachable after all faults quiesced")
		return
	}
	if !near(got, want) {
		c.violate(idx, "no-convergence", fmt.Sprintf("after faults quiesced, work returned %v, local answer %v", got, want))
		return
	}

	// The stateful accumulator must also be reachable, and its total
	// must be no older than the last acked checkpoint — the property a
	// checkpoint restore guarantees.
	got, ok := c.accProbe()
	if !ok {
		c.violate(idx, "no-convergence", "acc procedure unreachable after all faults quiesced")
		return
	}
	if got < c.accFloor-1e-9 {
		c.violate(idx, "stale-restore", fmt.Sprintf("acc total %v below checkpoint floor %v after convergence", got, c.accFloor))
	}
}
