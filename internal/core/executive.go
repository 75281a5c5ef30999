package core

import (
	"fmt"
	"io"
	"os"

	"npss/internal/cmap"
	"npss/internal/dataflow"
	"npss/internal/engine"
	"npss/internal/schooner"
	"npss/internal/solver"
	"npss/internal/vclock"
)

// Executive is the prototype NPSS simulation executive: an AVS-style
// network of TESS modules plus a Schooner client. The executive runs
// on one machine (the AVS workstation); each adapted module may place
// its computation on any machine in Machines.
type Executive struct {
	// Client is the Schooner communication library configured with the
	// executive's host and the Manager's location.
	Client *schooner.Client
	// Machines are the remote machine choices offered by the adapted
	// modules' radio-button widgets (the paper's strings between
	// colons naming machines at Lewis and Arizona).
	Machines []string
	// Network is the module graph (the Network Editor document).
	Network *dataflow.Network
	// Config is the engine design configuration used by Run.
	Config engine.F100Config
}

// NewExecutive creates an executive whose modules can reach the given
// machines.
func NewExecutive(client *schooner.Client, machines []string) *Executive {
	return &Executive{
		Client:   client,
		Machines: machines,
		Config:   engine.DefaultF100(),
	}
}

// Instance names of the F100 network, mirroring the paper's Figure 2.
const (
	InstInlet     = "inlet"
	InstFan       = "fan"
	InstBypDuct   = "bypass duct"
	InstHPC       = "compressor"
	InstBleed     = "bleed"
	InstComb      = "combustor"
	InstHPT       = "high pressure turbine"
	InstLPT       = "low pressure turbine"
	InstLowShaft  = "low speed shaft"
	InstHighShaft = "high speed shaft"
	InstAugDuct   = "augmentor duct"
	InstMixVol    = "mixing volume"
	InstNozzle    = "nozzle"
	InstSystem    = "system"
)

// Catalog returns the module palette bound to this executive, for
// loading saved networks.
func (x *Executive) Catalog() *dataflow.Catalog {
	c := dataflow.NewCatalog()
	c.MustRegister("inlet", func() dataflow.Module { return &InletModule{} })
	c.MustRegister("compressor-low", func() dataflow.Module { return &CompressorModule{Spool: "low"} })
	c.MustRegister("compressor-high", func() dataflow.Module { return &CompressorModule{Spool: "high"} })
	c.MustRegister("turbine-low", func() dataflow.Module { return &TurbineModule{Spool: "low"} })
	c.MustRegister("turbine-high", func() dataflow.Module { return &TurbineModule{Spool: "high"} })
	c.MustRegister("bleed", func() dataflow.Module { return &BleedModule{} })
	c.MustRegister("mixing-volume", func() dataflow.Module { return &MixingVolumeModule{} })
	c.MustRegister("shaft-low", func() dataflow.Module { return NewShaftModule(x, "", "low") })
	c.MustRegister("shaft-high", func() dataflow.Module { return NewShaftModule(x, "", "high") })
	c.MustRegister("duct-bypass", func() dataflow.Module { return NewDuctModule(x, "", "bypass") })
	c.MustRegister("duct-augmentor", func() dataflow.Module { return NewDuctModule(x, "", "mixer-core") })
	c.MustRegister("combustor", func() dataflow.Module { return NewCombustorModule(x, "") })
	c.MustRegister("nozzle", func() dataflow.Module { return NewNozzleModule(x, "") })
	c.MustRegister("system", func() dataflow.Module { return &SystemModule{} })
	c.MustRegister("monitor", func() dataflow.Module { return &MonitorModule{} })
	return c
}

// BuildF100 constructs the F100 engine network in the editor: the
// module instances and airflow connections of the paper's Figure 2.
func (x *Executive) BuildF100() error {
	n := dataflow.NewNetwork("f100")
	add := func(instance, typ string, m dataflow.Module) error {
		_, err := n.Add(instance, typ, m)
		return err
	}
	steps := []error{
		add(InstInlet, "inlet", &InletModule{}),
		add(InstFan, "compressor-low", &CompressorModule{Spool: "low"}),
		add(InstBypDuct, "duct-bypass", NewDuctModule(x, InstBypDuct, "bypass")),
		add(InstHPC, "compressor-high", &CompressorModule{Spool: "high"}),
		add(InstBleed, "bleed", &BleedModule{}),
		add(InstComb, "combustor", NewCombustorModule(x, InstComb)),
		add(InstHPT, "turbine-high", &TurbineModule{Spool: "high"}),
		add(InstLPT, "turbine-low", &TurbineModule{Spool: "low"}),
		add(InstHighShaft, "shaft-high", NewShaftModule(x, InstHighShaft, "high")),
		add(InstLowShaft, "shaft-low", NewShaftModule(x, InstLowShaft, "low")),
		add(InstAugDuct, "duct-augmentor", NewDuctModule(x, InstAugDuct, "mixer-core")),
		add(InstMixVol, "mixing-volume", &MixingVolumeModule{}),
		add(InstNozzle, "nozzle", NewNozzleModule(x, InstNozzle)),
		add(InstSystem, "system", &SystemModule{}),
	}
	for _, err := range steps {
		if err != nil {
			return err
		}
	}
	conns := [][4]string{
		{InstInlet, "out", InstFan, "in"},
		{InstFan, "out", InstBypDuct, "in"},
		{InstFan, "out", InstHPC, "in"},
		{InstHPC, "out", InstBleed, "in"},
		{InstBleed, "out", InstComb, "in"},
		{InstComb, "out", InstHPT, "in"},
		{InstHPT, "out", InstLPT, "in"},
		{InstHPT, "out", InstHighShaft, "in"},
		{InstLPT, "out", InstLowShaft, "in"},
		{InstLPT, "out", InstAugDuct, "in"},
		{InstAugDuct, "out", InstMixVol, "core"},
		{InstBypDuct, "out", InstMixVol, "bypass"},
		{InstMixVol, "out", InstNozzle, "in"},
	}
	for _, c := range conns {
		if err := n.Connect(c[0], c[1], c[2], c[3]); err != nil {
			return err
		}
	}
	x.Network = n
	return nil
}

// SetRemote selects the machine and executable path widgets of an
// adapted module, as the user would with the radio buttons and the
// type-in box. An empty path keeps the module's default.
func (x *Executive) SetRemote(instance, machineName, path string) error {
	if err := x.Network.SetParam(instance, "machine", machineName); err != nil {
		return err
	}
	if path != "" {
		return x.Network.SetParam(instance, "path", path)
	}
	return nil
}

// widgets

func (x *Executive) floatWidget(instance, widget string) (float64, error) {
	node, err := x.Network.Node(instance)
	if err != nil {
		return 0, err
	}
	for _, w := range node.Widgets() {
		if w.Name == widget {
			return w.Float()
		}
	}
	return 0, fmt.Errorf("core: %q has no widget %q", instance, widget)
}

func (x *Executive) textWidget(instance, widget string) (string, error) {
	node, err := x.Network.Node(instance)
	if err != nil {
		return "", err
	}
	for _, w := range node.Widgets() {
		if w.Name == widget {
			return w.Text()
		}
	}
	return "", fmt.Errorf("core: %q has no widget %q", instance, widget)
}

// RunOptions controls one simulation run.
type RunOptions struct {
	// SkipTransient stops after the steady-state balance.
	SkipTransient bool
	// Observe, when non-nil, receives every transient step.
	Observe func(t float64, out engine.Outputs)
	// Parallel overlaps the independent remote module computations:
	// the dataflow network executes as a wavefront, the engine's
	// adapted hook calls run concurrently where the airflow graph
	// allows, and the steady-state balance evaluates its Newton
	// Jacobian columns concurrently. Results are bit-identical to a
	// sequential run.
	Parallel bool
	// Batch additionally coalesces simultaneous remote calls that
	// target the same machine into single wire messages: the two shaft
	// computations, which become ready at the same instant of the
	// parallel pass, dispatch as one KBatch when their processes share
	// a host. Requires Parallel; results stay bit-identical.
	Batch bool
}

// parallelWorkers bounds the wavefront scheduler's worker pool; the
// F100 network's widest level is smaller than this.
const parallelWorkers = 8

// RunResult reports one simulation run.
type RunResult struct {
	// Steady is the balanced operating point before the transient.
	Steady engine.Outputs
	// SteadyIters is the balance iteration (or march step) count.
	SteadyIters int
	// Final is the state at the end of the transient (zero value when
	// the transient was skipped).
	Final engine.Outputs
	// State is the final engine state vector.
	State []float64
	// Engine is the engine the run executed on, for inspection.
	Engine *engine.Engine
}

// Run executes the simulation as TESS does: the network executes (so
// adapted modules register with the Manager and start their remote
// processes), the engine is assembled from the widget settings, the
// steady-state balance runs with the selected method, and the engine
// transient proceeds up to the number of seconds specified by the
// user.
func (x *Executive) Run(opts RunOptions) (*RunResult, error) {
	if x.Network == nil {
		return nil, fmt.Errorf("core: no network loaded; call BuildF100 or load one")
	}
	// The wavefront's workers and the engine's overlapped calls run on
	// the clock of the cluster the modules call into, so a virtual
	// clock sees every one of them.
	clock := vclock.Real()
	if x.Client != nil {
		clock = x.Client.Transport.Clock()
	}
	x.Network.SetClock(clock)
	workers := 1
	if opts.Parallel {
		workers = parallelWorkers
	}
	if _, err := x.Network.ExecuteParallel(workers); err != nil {
		return nil, err
	}
	eng, err := x.buildEngine()
	if err != nil {
		return nil, err
	}
	if err := x.installHooks(eng, opts.Batch); err != nil {
		return nil, err
	}
	if opts.Parallel {
		eng.Parallel = clock
	}

	steadyMethod := "Newton-Raphson"
	if _, err := x.Network.Node(InstSystem); err == nil {
		if steadyMethod, err = x.textWidget(InstSystem, "steady method"); err != nil {
			return nil, err
		}
	}
	res := &RunResult{Engine: eng}
	state := append([]float64(nil), eng.DesignState...)
	out, iters, err := eng.Balance(state, engine.SteadyOptions{Method: steadyMethod})
	if err != nil {
		return nil, fmt.Errorf("core: steady-state balance: %w", err)
	}
	res.Steady, res.SteadyIters = out, iters

	if opts.SkipTransient {
		res.State = state
		return res, nil
	}

	trMethodName := "Modified Euler"
	if _, err := x.Network.Node(InstSystem); err == nil {
		if trMethodName, err = x.textWidget(InstSystem, "transient method"); err != nil {
			return nil, err
		}
	}
	trMethod, err := solver.MethodByName(trMethodName)
	if err != nil {
		return nil, err
	}
	duration, err := x.floatWidgetOr(InstSystem, "transient seconds", 1.0)
	if err != nil {
		return nil, err
	}
	step, err := x.floatWidgetOr(InstSystem, "time step", 5e-4)
	if err != nil {
		return nil, err
	}
	// Stream transient steps to the caller and to every monitor
	// module in the network.
	monitors := x.monitors()
	observe := opts.Observe
	if len(monitors) > 0 {
		inner := opts.Observe
		observe = func(t float64, out engine.Outputs) {
			for _, m := range monitors {
				m.observe(t, out)
			}
			if inner != nil {
				inner(t, out)
			}
		}
	}
	final, err := eng.Transient(state, engine.TransientOptions{
		Method:   trMethod,
		Duration: duration,
		Step:     step,
		Observe:  observe,
	})
	if err != nil {
		return nil, fmt.Errorf("core: transient: %w", err)
	}
	res.Final = final
	res.State = state
	return res, nil
}

// buildEngine assembles a fresh engine from the design configuration
// and the widget settings.
func (x *Executive) buildEngine() (*engine.Engine, error) {
	cfg := x.Config
	var err error
	if cfg.InertiaL, err = x.floatWidgetOr(InstLowShaft, "moment inertia", cfg.InertiaL); err != nil {
		return nil, err
	}
	if cfg.InertiaH, err = x.floatWidgetOr(InstHighShaft, "moment inertia", cfg.InertiaH); err != nil {
		return nil, err
	}
	if cfg.InletRec, err = x.floatWidgetOr(InstInlet, "recovery", cfg.InletRec); err != nil {
		return nil, err
	}
	if cfg.BurnEff, err = x.floatWidgetOr(InstComb, "efficiency", cfg.BurnEff); err != nil {
		return nil, err
	}
	if cfg.BleedFrac, err = x.floatWidgetOr(InstBleed, "bleed fraction", cfg.BleedFrac); err != nil {
		return nil, err
	}
	if cfg.VolMix, err = x.floatWidgetOr(InstMixVol, "volume", cfg.VolMix); err != nil {
		return nil, err
	}
	eng, err := engine.NewF100(cfg)
	if err != nil {
		return nil, err
	}

	// Flight condition.
	if eng.Alt, err = x.floatWidgetOr(InstSystem, "altitude", 0); err != nil {
		return nil, err
	}
	if eng.Mach, err = x.floatWidgetOr(InstSystem, "mach", 0); err != nil {
		return nil, err
	}

	// Performance maps: each compressor and turbine module carries a
	// browser widget naming its map file (TESS selects performance
	// maps this way). When the file exists it replaces the generated
	// map; a missing file keeps the built-in map, so networks run
	// without a map library installed.
	if err := x.applyMaps(eng); err != nil {
		return nil, err
	}

	// Fuel: dial (0 = design fuel) overridden by the schedule widget.
	fuel, err := x.floatWidgetOr(InstComb, "fuel flow", 0)
	if err != nil {
		return nil, err
	}
	if fuel > 0 {
		eng.Fuel = engine.Constant(fuel)
	}
	if sched, err := x.scheduleWidgetOr(InstComb, "fuel schedule"); err != nil {
		return nil, err
	} else if sched != nil {
		eng.Fuel = sched
	}

	// Transient control schedules: compressor stators, combustor
	// stator, nozzle area.
	if err := x.applyStator(InstFan, &eng.FanStator); err != nil {
		return nil, err
	}
	if err := x.applyStator(InstHPC, &eng.HPCStator); err != nil {
		return nil, err
	}
	if sched, err := x.scheduleWidgetOr(InstComb, "stator schedule"); err != nil {
		return nil, err
	} else if sched != nil {
		eng.CombStator = sched
	}
	if sched, err := x.scheduleWidgetOr(InstNozzle, "area schedule"); err != nil {
		return nil, err
	} else if sched != nil {
		eng.NozzleArea = sched
	}

	// Augmentor fuel: the afterburner controls on the augmentor duct.
	augFuel, err := x.floatWidgetOr(InstAugDuct, "aug fuel", 0)
	if err != nil {
		return nil, err
	}
	if augFuel > 0 {
		eng.AugFuel = engine.Constant(augFuel)
	}
	if sched, err := x.scheduleWidgetOr(InstAugDuct, "aug fuel schedule"); err != nil {
		return nil, err
	} else if sched != nil {
		eng.AugFuel = sched
	}
	return eng, nil
}

// applyMaps loads performance maps from the files named by the
// turbomachinery modules' browser widgets, when present on disk.
func (x *Executive) applyMaps(eng *engine.Engine) error {
	comps := map[string]*engine.Compressor{InstFan: eng.Fan, InstHPC: eng.HPC}
	for inst, comp := range comps {
		if _, err := x.Network.Node(inst); err != nil {
			continue
		}
		path, err := x.textWidget(inst, "performance map")
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			continue // no map library installed: keep the generated map
		}
		m, err := cmap.ReadCompressor(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("core: %s map %q: %w", inst, path, err)
		}
		comp.Map = m
	}
	turbs := map[string]*engine.Turbine{InstHPT: eng.HPT, InstLPT: eng.LPT}
	for inst, turb := range turbs {
		if _, err := x.Network.Node(inst); err != nil {
			continue
		}
		path, err := x.textWidget(inst, "performance map")
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		m, err := cmap.ReadTurbine(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("core: %s map %q: %w", inst, path, err)
		}
		turb.Map = m
	}
	return nil
}

// scheduleWidget parses a schedule type-in; nil when empty.
func (x *Executive) scheduleWidget(instance, widget string) (*engine.Schedule, error) {
	text, err := x.textWidget(instance, widget)
	if err != nil {
		return nil, err
	}
	sched, err := engine.ParseSchedule(text)
	if err != nil {
		return nil, fmt.Errorf("core: %s %q: %w", instance, widget, err)
	}
	return sched, nil
}

// floatWidgetOr reads a numeric widget, returning def when the
// instance is not in the network (a bad widget name on a present
// instance is still an error), so partially built networks run with
// design defaults.
func (x *Executive) floatWidgetOr(instance, widget string, def float64) (float64, error) {
	if _, err := x.Network.Node(instance); err != nil {
		return def, nil
	}
	return x.floatWidget(instance, widget)
}

// scheduleWidgetOr is scheduleWidget tolerating an absent instance.
func (x *Executive) scheduleWidgetOr(instance, widget string) (*engine.Schedule, error) {
	if _, err := x.Network.Node(instance); err != nil {
		return nil, nil
	}
	return x.scheduleWidget(instance, widget)
}

// applyStator installs a compressor's stator angle dial and optional
// schedule; an absent compressor module keeps the nominal schedule.
func (x *Executive) applyStator(instance string, dst **engine.Schedule) error {
	if _, err := x.Network.Node(instance); err != nil {
		return nil
	}
	angle, err := x.floatWidget(instance, "stator angle")
	if err != nil {
		return err
	}
	*dst = engine.Constant(angle)
	if sched, err := x.scheduleWidget(instance, "stator schedule"); err != nil {
		return err
	} else if sched != nil {
		*dst = sched
	}
	return nil
}

// installHooks routes the engine's component computations through the
// network's adapted modules, choosing each route once per run: remote
// where a module's line is up, the engine.LocalHooks computation
// otherwise. With batch set, the two shaft modules' calls additionally
// dispatch as one coalesced operation when both compute remotely.
func (x *Executive) installHooks(eng *engine.Engine, batch bool) error {
	hooks := engine.LocalHooks()

	// Shafts, each to its spool's site.
	shafts := make(map[string]*ShaftModule)
	for _, inst := range []string{InstLowShaft, InstHighShaft} {
		node, err := x.Network.Node(inst)
		if err != nil {
			continue // partial networks run what they have
		}
		sm, ok := node.Module().(*ShaftModule)
		if !ok {
			return fmt.Errorf("core: instance %q is not a shaft module", inst)
		}
		shafts[sm.Spool] = sm
		switch h := sm.Hook(); {
		case h == nil: // computes in-process
		case sm.Spool == "low":
			hooks.LowShaft = h
		case sm.Spool == "high":
			hooks.HighShaft = h
		}
	}
	if low, high := shafts["low"], shafts["high"]; batch && low != nil && high != nil {
		hooks.ShaftPair = x.shaftPairHook(low, high)
	}

	// Ducts, each to its station's site.
	for _, inst := range []string{InstBypDuct, InstAugDuct} {
		node, err := x.Network.Node(inst)
		if err != nil {
			continue
		}
		dm, ok := node.Module().(*DuctModule)
		if !ok {
			return fmt.Errorf("core: instance %q is not a duct module", inst)
		}
		des, ok := eng.DesignDucts[dm.Station]
		if !ok {
			return fmt.Errorf("core: engine has no duct station %q", dm.Station)
		}
		switch h := dm.Hook(des); {
		case h == nil: // computes in-process
		case dm.Station == "bypass":
			hooks.BypassDuct = h
		case dm.Station == "mixer-core":
			hooks.MixerCoreDuct = h
		}
	}

	// Combustor.
	if node, err := x.Network.Node(InstComb); err == nil {
		cm, ok := node.Module().(*CombustorModule)
		if !ok {
			return fmt.Errorf("core: instance %q is not a combustor module", InstComb)
		}
		if h := cm.Hook(eng.DesignComb); h != nil {
			hooks.Combustor = h
		}
	}

	// Nozzle.
	if node, err := x.Network.Node(InstNozzle); err == nil {
		nm, ok := node.Module().(*NozzleModule)
		if !ok {
			return fmt.Errorf("core: instance %q is not a nozzle module", InstNozzle)
		}
		if h := nm.Hook(eng.DesignNozzle); h != nil {
			hooks.Nozzle = h
		}
	}

	eng.Hooks = hooks
	return nil
}

// RemotePlacements reports, for every adapted module instance, the
// machine it is computing on ("local" when in-process), sorted by
// instance name. Useful for the experiment harness's table output.
func (x *Executive) RemotePlacements() map[string]string {
	out := make(map[string]string)
	for _, node := range x.Network.Nodes() {
		if m, ok := node.Module().(interface{ Remote() string }); ok {
			out[node.Name] = m.Remote()
		}
	}
	return out
}

// Destroy clears the network, shutting down every adapted module's
// line (each remote computation terminates, other lines unaffected)
// and releasing the client's cached batch connections.
func (x *Executive) Destroy() {
	if x.Network != nil {
		x.Network.Clear()
	}
	if x.Client != nil {
		x.Client.Close()
	}
}

// SaveNetwork writes the current network in the editor file format.
func (x *Executive) SaveNetwork(w io.Writer) error {
	if x.Network == nil {
		return fmt.Errorf("core: no network to save")
	}
	return dataflow.Save(w, x.Network)
}

// LoadNetwork reads a network file through the executive's module
// catalog and installs it, replacing (and destroying) any current
// network.
func (x *Executive) LoadNetwork(r io.Reader) error {
	n, err := dataflow.Load(r, x.Catalog())
	if err != nil {
		return err
	}
	if x.Network != nil {
		x.Network.Clear()
	}
	x.Network = n
	return nil
}
