package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"npss/internal/dst"
	"npss/internal/machine"
)

// stepKind orders same-instant steps: a host must join before an op
// or probe at the same instant can target it.
type stepKind int

const (
	stepJoin stepKind = iota
	stepOp
	stepAssert
)

// step is one compiled timeline entry.
type step struct {
	at   time.Duration
	kind stepKind
	seq  int // definition order, for a stable same-instant sort

	host string        // stepJoin
	arch *machine.Arch // stepJoin
	op   dst.Op        // stepOp
	as   AssertSpec    // stepAssert
	line int
}

// Plan is a compiled scenario: the boot fleet, the merged timeline of
// joins, ops, and timed assertions, and the cluster config. Compiling
// is deterministic — fleet apportionment, ramp jitter, and stress
// schedules are pure functions of the spec — so two compiles of the
// same file agree step for step.
type Plan struct {
	Spec  *Spec
	Boot  []dst.HostSpec
	steps []step
	// HostCount is the eventual fleet size (boot + ramped joins).
	HostCount int
	// OpCount is how many dst ops the timeline will apply.
	OpCount int
	// crash is the table2 workload's crash_host event, nil when none.
	crash *EventSpec
}

// joinAt records when a ramped host comes up (boot hosts are at 0).
type joinAt struct {
	host string
	arch *machine.Arch
	at   time.Duration
	line int
}

// Compile expands the fleet, lays out the ramp, scripts the events and
// stress blocks onto the dst op vocabulary, and semantic-checks the
// result: every referenced host must exist and be up by the time an
// event targets it, and nothing may be scheduled past the scenario
// duration. A table2 scenario must also be the paper's testbed with at
// most one crash (checkTable2). This is exactly what `npss-exp -exp
// scenario -validate` runs.
func Compile(spec *Spec) (*Plan, error) {
	p := &Plan{Spec: spec}
	switch spec.Workload {
	case "", "dst":
		if len(spec.Faults) > 0 {
			return nil, errAt(spec.Faults[0].Line, "faults: only the table2 workload degrades links; the dst workload scripts its faults as events")
		}
		if spec.PolicyLine > 0 {
			return nil, errAt(spec.PolicyLine, "policy: only the table2 workload reads a call policy")
		}
	case "table2":
		crash, err := checkTable2(spec)
		if err != nil {
			return nil, err
		}
		p.crash = crash
	default:
		return nil, errAt(spec.WorkloadLine, "unknown workload %q", spec.Workload)
	}
	joins, err := compileFleet(spec, p)
	if err != nil {
		return nil, err
	}

	// Host visibility for semantic checks: name -> join instant.
	upAt := make(map[string]time.Duration, p.HostCount)
	for _, h := range p.Boot {
		upAt[h.Name] = 0
	}
	seq := 0
	for _, j := range joins {
		upAt[j.host] = j.at
		p.steps = append(p.steps, step{at: j.at, kind: stepJoin, seq: seq,
			host: j.host, arch: j.arch, line: j.line})
		seq++
	}

	// IDs for scripted traffic come from the same disjoint ranges the
	// dst generator uses, allocated sequentially in definition order so
	// replays agree.
	ids := &idAlloc{work: dst.WorkIDBase, acc: dst.AccIDBase}

	for i := range spec.Events {
		e := &spec.Events[i]
		if e.At > spec.Duration {
			return nil, errAt(e.Line, "event %q at %s is after the scenario duration %s", e.Action, e.At, spec.Duration)
		}
		steps, err := compileEvent(spec, e, upAt, ids)
		if err != nil {
			return nil, err
		}
		for _, st := range steps {
			st.seq = seq
			seq++
			p.steps = append(p.steps, st)
		}
	}

	for i := range spec.Stress {
		b := &spec.Stress[i]
		if b.At+b.Duration > spec.Duration {
			return nil, errAt(b.Line, "stress block [%s, %s] runs past the scenario duration %s", b.At, b.At+b.Duration, spec.Duration)
		}
		for _, st := range compileStress(spec, i, b, upAt, ids) {
			st.seq = seq
			seq++
			p.steps = append(p.steps, st)
		}
	}

	sort.SliceStable(p.steps, func(i, j int) bool {
		a, b := p.steps[i], p.steps[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.seq < b.seq
	})
	for _, st := range p.steps {
		if st.kind == stepOp {
			p.OpCount++
		}
	}
	return p, nil
}

// compileFleet expands templates by weight (largest-remainder
// apportionment), names hosts "<template>-<n>", and lays the startup
// ramp: host join instants spread linearly over fleet.ramp plus seeded
// normal cold-start jitter. Explicit hosts and at least the first two
// templated hosts boot at time zero — the work and accumulator
// procedures need somewhere to live before the ramp fills in.
func compileFleet(spec *Spec, p *Plan) ([]joinAt, error) {
	f := &spec.Fleet
	seen := make(map[string]int) // name -> declaring line
	for _, h := range f.Hosts {
		if first, dup := seen[h.Name]; dup {
			return nil, errAt(h.Line, "duplicate host id %q (first at line %d)", h.Name, first)
		}
		seen[h.Name] = h.Line
		arch, err := machine.ByName(h.Arch)
		if err != nil {
			return nil, errAt(h.Line, "host %q: %v", h.Name, err)
		}
		p.Boot = append(p.Boot, dst.HostSpec{Name: h.Name, Arch: arch})
	}

	counts, err := apportion(f)
	if err != nil {
		return nil, err
	}

	type ramped struct {
		host string
		arch *machine.Arch
		at   time.Duration
		line int
	}
	var fleet []ramped
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5ce9a12))
	idx := 0
	for ti, t := range f.Templates {
		arch, err := machine.ByName(t.Arch)
		if err != nil {
			return nil, errAt(t.Line, "template %q: %v", t.Name, err)
		}
		for k := 1; k <= counts[ti]; k++ {
			name := fmt.Sprintf("%s-%d", t.Name, k)
			if first, dup := seen[name]; dup {
				return nil, errAt(t.Line, "duplicate host id %q (first at line %d)", name, first)
			}
			seen[name] = t.Line
			var at time.Duration
			if f.Count > 1 {
				at = f.Ramp * time.Duration(idx) / time.Duration(f.Count-1)
			}
			at += f.ColdStartMean + time.Duration(float64(f.ColdStartStdev)*rng.NormFloat64())
			if at < 0 {
				at = 0
			}
			fleet = append(fleet, ramped{host: name, arch: arch, at: at, line: t.Line})
			idx++
		}
	}

	// Promote the earliest joiners to boot until two machines exist at
	// time zero.
	sort.SliceStable(fleet, func(i, j int) bool { return fleet[i].at < fleet[j].at })
	var joins []joinAt
	for _, h := range fleet {
		if h.at == 0 || len(p.Boot) < 2 {
			p.Boot = append(p.Boot, dst.HostSpec{Name: h.host, Arch: h.arch})
			continue
		}
		joins = append(joins, joinAt{host: h.host, arch: h.arch, at: h.at, line: h.line})
	}
	p.HostCount = len(p.Boot) + len(joins)
	if p.HostCount < 2 {
		return nil, errAt(f.Line, "fleet needs at least 2 hosts (work and accumulator placement), got %d", p.HostCount)
	}
	return joins, nil
}

// apportion divides fleet.count over the templates in proportion to
// weight, largest remainder first so the counts sum exactly.
func apportion(f *FleetSpec) ([]int, error) {
	counts := make([]int, len(f.Templates))
	if f.Count == 0 {
		return counts, nil
	}
	total := 0
	for _, t := range f.Templates {
		total += t.Weight
	}
	type rem struct {
		i    int
		frac float64
	}
	var rems []rem
	assigned := 0
	for i, t := range f.Templates {
		exact := float64(f.Count) * float64(t.Weight) / float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems = append(rems, rem{i, exact - float64(counts[i])})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < f.Count; k++ {
		counts[rems[k%len(rems)].i]++
		assigned++
	}
	return counts, nil
}

// idAlloc hands out work and accumulator call IDs.
type idAlloc struct{ work, acc int64 }

func (a *idAlloc) nextWork(n int) int64 { id := a.work; a.work += int64(n); return id }
func (a *idAlloc) nextAcc() int64       { id := a.acc; a.acc++; return id }

// compileEvent scripts one event onto dst ops or a timed assertion.
func compileEvent(spec *Spec, e *EventSpec, upAt map[string]time.Duration, ids *idAlloc) ([]step, error) {
	mk := func(op dst.Op) step {
		return step{at: e.At, kind: stepOp, op: op, line: e.Line}
	}
	needHost := func(name string, workersOnly bool) error {
		return checkHost(e, name, upAt, workersOnly)
	}
	switch e.Action {
	case "crash_host":
		if err := needHost(e.Host, true); err != nil {
			return nil, err
		}
		return []step{mk(dst.Op{Kind: dst.OpCrash, Host: e.Host})}, nil
	case "restore_host":
		if err := needHost(e.Host, true); err != nil {
			return nil, err
		}
		return []step{mk(dst.Op{Kind: dst.OpRestore, Host: e.Host})}, nil
	case "partition", "heal", "flap_link":
		if err := needHost(e.Host, false); err != nil {
			return nil, err
		}
		if err := needHost(e.Host2, false); err != nil {
			return nil, err
		}
		if e.Host == e.Host2 {
			return nil, errAt(e.Line, "%s: host and host2 are both %q", e.Action, e.Host)
		}
		switch e.Action {
		case "partition":
			return []step{mk(dst.Op{Kind: dst.OpPartition, Host: e.Host, Host2: e.Host2})}, nil
		case "heal":
			return []step{mk(dst.Op{Kind: dst.OpHeal, Host: e.Host, Host2: e.Host2})}, nil
		}
		// flap_link: a partition that heals itself after "for".
		if e.For <= 0 {
			return nil, errAt(e.Line, "flap_link needs a positive \"for\" (the partition lifetime)")
		}
		if e.At+e.For > spec.Duration {
			return nil, errAt(e.Line, "flap_link heals at %s, after the scenario duration %s", e.At+e.For, spec.Duration)
		}
		heal := step{at: e.At + e.For, kind: stepOp, line: e.Line,
			op: dst.Op{Kind: dst.OpHeal, Host: e.Host, Host2: e.Host2}}
		return []step{mk(dst.Op{Kind: dst.OpPartition, Host: e.Host, Host2: e.Host2}), heal}, nil
	case "migrate_proc":
		if e.Proc != "work" {
			return nil, errAt(e.Line, "migrate_proc: only the shared \"work\" procedure migrates, got %q", e.Proc)
		}
		if err := needHost(e.Host, true); err != nil {
			return nil, err
		}
		return []step{mk(dst.Op{Kind: dst.OpMoveShared, Host: e.Host})}, nil
	case "manager_crash":
		return []step{mk(dst.Op{Kind: dst.OpManagerCrash})}, nil
	case "manager_recover":
		return []step{mk(dst.Op{Kind: dst.OpManagerRecover})}, nil
	case "checkpoint_now":
		return []step{mk(dst.Op{Kind: dst.OpCheckpointNow})}, nil
	case "work":
		if e.N == 1 {
			return []step{mk(dst.Op{Kind: dst.OpWork, ID: ids.nextWork(1)})}, nil
		}
		return []step{mk(dst.Op{Kind: dst.OpBurst, N: e.N, ID: ids.nextWork(e.N)})}, nil
	case "batch":
		return []step{mk(dst.Op{Kind: dst.OpBatch, N: e.N, ID: ids.nextWork(e.N)})}, nil
	case "acc":
		steps := make([]step, e.N)
		for i := range steps {
			steps[i] = mk(dst.Op{Kind: dst.OpAcc, ID: ids.nextAcc()})
		}
		return steps, nil
	case "settle":
		if e.For <= 0 {
			return nil, errAt(e.Line, "settle needs a positive \"for\"")
		}
		n := int(e.For / (10 * time.Millisecond))
		if n < 1 {
			n = 1
		}
		return []step{mk(dst.Op{Kind: dst.OpSettle, N: n})}, nil
	case "assert_counter", "assert_bound_host", "assert_no_violation":
		a, err := assertFromEvent(e, upAt)
		if err != nil {
			return nil, err
		}
		return []step{{at: e.At, kind: stepAssert, as: a, line: e.Line}}, nil
	}
	return nil, errAt(e.Line, "unknown action %q", e.Action)
}

// assertFromEvent converts a timed assert_* event into the AssertSpec
// the evaluator shares with the final assertions list.
func assertFromEvent(e *EventSpec, upAt map[string]time.Duration) (AssertSpec, error) {
	a := AssertSpec{Key: e.Key, Min: e.Min, Max: e.Max, Proc: e.Proc, Host: e.Host, Line: e.Line}
	switch e.Action {
	case "assert_counter":
		a.Check = "counter"
	case "assert_bound_host":
		a.Check = "bound_host"
		if err := checkHost(e, e.Host, upAt, true); err != nil {
			return a, err
		}
	case "assert_no_violation":
		a.Check = "no_violation"
	}
	if err := validateAssert(a); err != nil {
		return a, err
	}
	return a, nil
}

// checkHost validates an event's host reference: the name must exist
// (worker fleet, or the manager machines for link faults) and, for a
// ramped host, already be up when the event fires.
func checkHost(e *EventSpec, name string, upAt map[string]time.Duration, workersOnly bool) error {
	if name == "" {
		return errAt(e.Line, "event %q needs a \"host\"", e.Action)
	}
	if !workersOnly && (name == "mgr" || name == "mgr2") {
		return nil
	}
	at, ok := upAt[name]
	if !ok {
		return errAt(e.Line, "event %q: unknown host %q", e.Action, name)
	}
	if at > e.At {
		return errAt(e.Line, "event %q at %s: host %q has not started yet (joins at %s)", e.Action, e.At, name, at.Round(time.Millisecond))
	}
	return nil
}

// stressModel mirrors the dst generator's model for the stress menu:
// it tracks outstanding faults so the stream stays sensible (restore
// what is down, heal what is cut) without ever needing run-time state.
type stressModel struct {
	hosts   []string
	downs   map[string]bool
	parts   map[[2]string]bool
	maxDown int
}

// compileStress draws ops from a weighted menu where failure_rate is
// the chance a draw is a fault rather than traffic, spreads them
// evenly over the block, and lifts any faults still outstanding at the
// block's end so a scenario can assert on a quiet cluster afterwards.
func compileStress(spec *Spec, index int, b *StressSpec, upAt map[string]time.Duration, ids *idAlloc) []step {
	seed := b.Seed
	if !b.SeedSet {
		seed = spec.Seed*1000003 + int64(index)
	}
	rng := rand.New(rand.NewSource(seed))

	// Only hosts up for the whole block are fault candidates; traffic
	// does not name hosts so the ramp does not constrain it.
	var stable []string
	for h, at := range upAt {
		if at <= b.At {
			stable = append(stable, h)
		}
	}
	sort.Strings(stable)
	m := &stressModel{
		hosts:   stable,
		downs:   make(map[string]bool),
		parts:   make(map[[2]string]bool),
		maxDown: max(1, len(stable)/10),
	}

	var steps []step
	for i := 0; i < b.Ops; i++ {
		at := b.At + b.Duration*time.Duration(i)/time.Duration(b.Ops)
		var op dst.Op
		if rng.Float64() < b.FailureRate && len(m.hosts) >= 2 {
			op = m.fault(rng)
		} else {
			op = traffic(rng, ids)
		}
		steps = append(steps, step{at: at, kind: stepOp, op: op, line: b.Line})
	}
	// Lift outstanding faults at block end, deterministically ordered.
	end := b.At + b.Duration
	var downs []string
	for h := range m.downs {
		downs = append(downs, h)
	}
	sort.Strings(downs)
	for _, h := range downs {
		steps = append(steps, step{at: end, kind: stepOp, line: b.Line,
			op: dst.Op{Kind: dst.OpRestore, Host: h}})
	}
	var parts [][2]string
	for p := range m.parts {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i][0] != parts[j][0] {
			return parts[i][0] < parts[j][0]
		}
		return parts[i][1] < parts[j][1]
	})
	for _, pr := range parts {
		steps = append(steps, step{at: end, kind: stepOp, line: b.Line,
			op: dst.Op{Kind: dst.OpHeal, Host: pr[0], Host2: pr[1]}})
	}
	return steps
}

// fault draws one fault op: crash (or restore when the down budget is
// spent), partition (or heal at the concurrent-cut cap), or a
// checkpoint sweep.
func (m *stressModel) fault(rng *rand.Rand) dst.Op {
	up := m.upHosts()
	switch rng.Intn(5) {
	case 0, 1: // host fault
		if len(m.downs) >= m.maxDown || len(up) <= 2 {
			return m.restoreOne(rng)
		}
		// Never crash the first two hosts: the work and accumulator
		// procedures boot there, and losing both at once leaves traffic
		// nothing to fail over between.
		h := up[2+rng.Intn(len(up)-2)]
		m.downs[h] = true
		return dst.Op{Kind: dst.OpCrash, Host: h}
	case 2, 3: // link fault
		if len(m.parts) >= 4 {
			return m.healOne(rng)
		}
		if len(up) < 2 {
			return dst.Op{Kind: dst.OpCheckpointNow}
		}
		i := rng.Intn(len(up))
		j := rng.Intn(len(up) - 1)
		if j >= i {
			j++
		}
		key := [2]string{up[i], up[j]}
		if m.parts[key] || m.parts[[2]string{up[j], up[i]}] {
			return dst.Op{Kind: dst.OpSettle, N: 1 + rng.Intn(5)}
		}
		m.parts[key] = true
		return dst.Op{Kind: dst.OpPartition, Host: key[0], Host2: key[1]}
	}
	return dst.Op{Kind: dst.OpCheckpointNow}
}

func (m *stressModel) upHosts() []string {
	var up []string
	for _, h := range m.hosts {
		if !m.downs[h] {
			up = append(up, h)
		}
	}
	return up
}

func (m *stressModel) restoreOne(rng *rand.Rand) dst.Op {
	var downs []string
	for h := range m.downs {
		downs = append(downs, h)
	}
	if len(downs) == 0 {
		return dst.Op{Kind: dst.OpSettle, N: 1 + rng.Intn(5)}
	}
	sort.Strings(downs)
	h := downs[rng.Intn(len(downs))]
	delete(m.downs, h)
	return dst.Op{Kind: dst.OpRestore, Host: h}
}

func (m *stressModel) healOne(rng *rand.Rand) dst.Op {
	var parts [][2]string
	for p := range m.parts {
		parts = append(parts, p)
	}
	if len(parts) == 0 {
		return dst.Op{Kind: dst.OpSettle, N: 1 + rng.Intn(5)}
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i][0] != parts[j][0] {
			return parts[i][0] < parts[j][0]
		}
		return parts[i][1] < parts[j][1]
	})
	p := parts[rng.Intn(len(parts))]
	delete(m.parts, p)
	return dst.Op{Kind: dst.OpHeal, Host: p[0], Host2: p[1]}
}

// traffic draws one traffic op on the shared work line or accumulator.
func traffic(rng *rand.Rand, ids *idAlloc) dst.Op {
	switch rng.Intn(10) {
	case 0, 1, 2: // work
		return dst.Op{Kind: dst.OpWork, ID: ids.nextWork(1)}
	case 3, 4: // batch
		n := 2 + rng.Intn(3)
		return dst.Op{Kind: dst.OpBatch, N: n, ID: ids.nextWork(n)}
	case 5, 6, 7: // accumulator
		return dst.Op{Kind: dst.OpAcc, ID: ids.nextAcc()}
	case 8: // burst
		n := 2 + rng.Intn(3)
		return dst.Op{Kind: dst.OpBurst, N: n, ID: ids.nextWork(n)}
	}
	return dst.Op{Kind: dst.OpSettle, N: 1 + rng.Intn(5)}
}
