package exper

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"npss/internal/core"
	"npss/internal/critpath"
	"npss/internal/dst"
	"npss/internal/trace"
	"npss/internal/vclock"
)

func TestTopology(t *testing.T) {
	tb, err := NewTestbed(SparcUA)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()
	if len(AllMachines()) != 8 {
		t.Errorf("machines = %v", AllMachines())
	}
	// Link classification matches the paper's Table 1 wording.
	cases := []struct{ a, b, want string }{
		{SparcLerc, SGI480Lerc, "local Ethernet"},
		{SparcLerc, ConvexLerc, "same building, multiple gateways"},
		{SGI480Lerc, CrayLerc, "same building, multiple gateways"},
		{SGI480Lerc, SparcUA, "via Internet"},
		{SparcUA, RS6000Lerc, "via Internet"},
		{SparcUA, SGI340UA, "local Ethernet"},
	}
	for _, c := range cases {
		if got := LinkName(c.a, c.b); got != c.want {
			t.Errorf("LinkName(%s, %s) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
	if Site(SparcUA) != "The University of Arizona" || Site(CrayLerc) != "Lewis Research Center" {
		t.Error("site mapping wrong")
	}
	exec, err := tb.NewExecutive()
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Destroy()
	if len(exec.Machines) != 7 {
		t.Errorf("executive offers %d machines", len(exec.Machines))
	}
}

var quickSpec = RunSpec{Transient: 0.1, Step: 5e-4}

func TestTable1Row(t *testing.T) {
	// One representative row end-to-end (the full table runs in
	// cmd/npss-exp).
	combo := Table1Combos()[0]
	row := runConfigured(combo.AVS, map[string]string{combo.Module: combo.Remote}, quickSpec)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if !row.Converged {
		t.Error("row did not converge")
	}
	if row.MaxRelErr > 1e-6 {
		t.Errorf("MaxRelErr = %g", row.MaxRelErr)
	}
	if row.RPCs == 0 {
		t.Error("no RPCs counted")
	}
	if row.SimNet == 0 {
		t.Error("no simulated network time")
	}
	if row.Network != "local Ethernet" {
		t.Errorf("network = %q", row.Network)
	}
	out := FormatTable1([]*ModuleRun{row})
	if !strings.Contains(out, "local Ethernet") || !strings.Contains(out, combo.Remote) {
		t.Errorf("FormatTable1:\n%s", out)
	}
}

func TestTable2Quick(t *testing.T) {
	row := Table2(quickSpec)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if !row.Converged || row.MaxRelErr > 1e-4 {
		t.Errorf("combined: converged=%v err=%g", row.Converged, row.MaxRelErr)
	}
	// Six remote computations.
	if len(row.Placements) != 6 {
		t.Errorf("placements = %v", row.Placements)
	}
	out := FormatTable2(row)
	for _, want := range []string{"sparc10-ua", "cray-lerc", "rs6000-lerc", "converged=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
}

// TestTable2Parallel runs the combined test with overlapped module
// calls and holds it to the sequential run's correctness bar: the
// parallel remote run must match the sequential local baseline to
// solver tolerance (runConfigured's local run always stays
// sequential, so MaxRelErr compares the two schedulers end to end).
func TestTable2Parallel(t *testing.T) {
	spec := RunSpec{Transient: 0.02, Step: 5e-4, Parallel: true}
	row := Table2(spec)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if !row.Converged {
		t.Error("parallel combined run did not converge")
	}
	if row.MaxRelErr > 1e-12 {
		t.Errorf("MaxRelErr = %g, parallel run drifted from the sequential baseline", row.MaxRelErr)
	}
	if row.RPCs == 0 {
		t.Error("no RPCs counted")
	}
}

// TestMaxRelErrNeverPassesABrokenAnswer: a remote answer with a NaN in
// it, or a state vector of another length, is an infinite deviation,
// so a row or a chaos run that computed it never reads as converged.
func TestMaxRelErrNeverPassesABrokenAnswer(t *testing.T) {
	local := &core.RunResult{State: []float64{1, 2, 3}}
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		state []float64
	}{
		{"all-NaN remote", []float64{nan, nan, nan}},
		{"NaN then a finite deviation", []float64{nan, 2.5, 3}},
		{"shorter remote", []float64{1, 2}},
		{"longer remote", []float64{1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := maxRelErr(local, &core.RunResult{State: tc.state}); !math.IsInf(got, 1) {
				t.Errorf("maxRelErr = %g, want +Inf", got)
			}
		})
	}
	if got := maxRelErr(local, &core.RunResult{State: []float64{1, 2, 3.3}}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("maxRelErr of a 10%% deviation = %g, want 0.1", got)
	}
}

// table2Counts is what a Table 2 run costs in exact terms: procedure
// calls, wire round trips, simulated network time, and the run's
// elapsed time on its virtual clock.
type table2Counts struct {
	calls, rpcs int64
	simNet      time.Duration
	elapsed     time.Duration
	// starts and turns are the goroutines the run starts and the
	// clock turns it takes, over every site (vclock.Virtual.Handoffs).
	starts, turns int
}

func (c table2Counts) String() string {
	return fmt.Sprintf("%d calls / %d rpcs / %s on the network / %s elapsed / %d goroutine starts / %d turns",
		c.calls, c.rpcs, c.simNet, c.elapsed, c.starts, c.turns)
}

// handoffTotal sums a Handoffs map over its sites.
func handoffTotal(m map[string]int) int {
	n := 0
	for _, k := range m {
		n += k
	}
	return n
}

// warmTable2 stands up the Table 2 placement on a fresh testbed on a
// virtual clock, runs it once to start the lines and fill the name
// caches, and counts a second run. Every network delay is waited in
// virtual time. The cold row of Table2 reads differently (1422 / 1204
// / 89.017 s batched), which is why this does not go through
// runConfigured.
func warmTable2(t *testing.T, opts core.RunOptions) table2Counts {
	t.Helper()
	v := vclock.NewVirtual()
	defer func() {
		if err := v.Stop(); err != nil {
			t.Error(err)
		}
	}()
	tb, err := newTestbed(SparcUA, v)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()
	exec, err := tb.NewExecutive()
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Destroy()
	if err := configure(exec, RunSpec{Transient: 0.02, Step: 5e-4}); err != nil {
		t.Fatal(err)
	}
	for inst, m := range Table2Placements() {
		if err := exec.SetRemote(inst, m, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := exec.Run(opts); err != nil {
		t.Fatal(err)
	}
	tb.Net.ResetStats()
	calls0 := trace.Get("schooner.client.calls")
	rpcs0 := trace.Get("schooner.client.rpcs")
	start := v.Now()
	turns0, starts0 := v.Handoffs()
	if _, err := exec.Run(opts); err != nil {
		t.Fatal(err)
	}
	turns1, starts1 := v.Handoffs()
	return table2Counts{
		calls:   trace.Get("schooner.client.calls") - calls0,
		rpcs:    trace.Get("schooner.client.rpcs") - rpcs0,
		simNet:  tb.Net.TotalSimDelay(),
		elapsed: v.Since(start),
		starts:  handoffTotal(starts1) - handoffTotal(starts0),
		turns:   handoffTotal(turns1) - handoffTotal(turns0),
	}
}

// TestTable2ExactCounts pins the numbers every change to the call path
// is held to. They are counts and virtual times, not timings: a warm
// batched Table 2 run makes 1416 procedure calls in 1180 wire round
// trips and spends 88.086967904 simulated seconds on the network, on
// any machine at any GOMAXPROCS. The unbatched parallel run beside it
// is the control: the same calls, one round trip each, so the test
// fails if batching stops coalescing, and shows what batching buys —
// 236 round trips and 21.02 simulated seconds. Both overlapped runs
// take 18.986389642 virtual seconds: the shaft pair's two calls
// travel at once either way, on connections that do not queue behind
// each other. The sequential run makes the same calls one at a time,
// so its elapsed time is exactly the sum of its message delays.
//
// Each run's hand-offs are pinned the same way: the goroutines it
// starts and the virtual-clock turns it takes, summed over every site.
// The overlapped runs start goroutines only in the engine's parallel
// scheduler (engine.launch). In the batched run the shaft pair is one
// launch, not two, and its CallBatch starts none, so it starts 236
// fewer than the unbatched run; the sequential run starts none.
func TestTable2ExactCounts(t *testing.T) {
	batched := warmTable2(t, core.RunOptions{Parallel: true, Batch: true})
	if want := (table2Counts{1416, 1180, 88086967904, 18986389642, 1324, 6457}); batched != want {
		t.Errorf("batched: %s, want %s", batched, want)
	}
	unbatched := warmTable2(t, core.RunOptions{Parallel: true})
	if want := (table2Counts{1416, 1416, 109106701080, 18986389642, 1560, 7502}); unbatched != want {
		t.Errorf("unbatched: %s, want %s", unbatched, want)
	}
	sequential := warmTable2(t, core.RunOptions{})
	if want := (table2Counts{1416, 1416, 109106701080, 109106701080, 0, 5664}); sequential != want {
		t.Errorf("sequential: %s, want %s", sequential, want)
	}
	if unbatched.rpcs != unbatched.calls || unbatched.calls != batched.calls {
		t.Errorf("unbatched run: %d round trips for %d calls (batched made %d calls), want one round trip per call and equal calls",
			unbatched.rpcs, unbatched.calls, batched.calls)
	}
	if unbatched.simNet <= batched.simNet {
		t.Errorf("unbatched simulated delay %s not above batched %s: batching bought nothing", unbatched.simNet, batched.simNet)
	}
}

func TestFig1(t *testing.T) {
	events, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Errorf("got %d events", len(events))
	}
	out := FormatFig1(events)
	if !strings.Contains(out, "sequential control") {
		t.Errorf("FormatFig1:\n%s", out)
	}
}

func TestFig2(t *testing.T) {
	out, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"low speed shaft", "moment inertia", "spool speed-op",
		"machine", "path", "combustor", "mixing volume",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 output missing %q", want)
		}
	}
}

func TestIncrementalScenarios(t *testing.T) {
	results := Incremental()
	if len(results) < 5 {
		t.Fatalf("only %d scenarios", len(results))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("scenario %s failed: %s", r.Name, r.Detail)
		}
	}
	if !strings.Contains(FormatScenarios(results), "PASS") {
		t.Error("format missing PASS")
	}
}

func TestLinesScenarios(t *testing.T) {
	results := Lines()
	if len(results) < 6 {
		t.Fatalf("only %d scenarios", len(results))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("scenario %s failed: %s", r.Name, r.Detail)
		}
	}
}

func TestAblations(t *testing.T) {
	rpc, err := RPCvsMsgPass(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpc) != 2 || rpc[0].PerOp <= 0 || rpc[1].PerOp <= 0 {
		t.Errorf("rpc ablation = %+v", rpc)
	}
	cache, err := NameCache(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache) != 2 {
		t.Fatalf("cache ablation = %+v", cache)
	}
	// The cache must win, in what it saves: the uncached variant adds
	// a Manager lookup to every call. Messages are counted, so this
	// holds on a loaded machine where the per-op times may not.
	if cache[0].msgs == 0 || cache[0].msgs >= cache[1].msgs {
		t.Errorf("cached variant sent %d messages, uncached %d: want fewer with the cache", cache[0].msgs, cache[1].msgs)
	}
	utsn, err := UTSvsNative(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(utsn) != 2 || utsn[0].PerOp <= 0 {
		t.Errorf("uts ablation = %+v", utsn)
	}
	if out := FormatAblations(append(append(rpc, cache...), utsn...)); !strings.Contains(out, "name-cache") {
		t.Errorf("FormatAblations:\n%s", out)
	}
}

func TestZooming(t *testing.T) {
	rows, err := Zooming([]float64{1.0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shared design point: the zoomed map is normalized there, so the
	// balanced points agree to solver tolerance.
	if d := rows[0].Base.NH - rows[0].Zoomed.NH; d > 1e-6 || d < -1e-6 {
		t.Errorf("design point differs: %g vs %g", rows[0].Base.NH, rows[0].Zoomed.NH)
	}
	// Off-design the models genuinely differ.
	if rows[1].Base.NH == rows[1].Zoomed.NH {
		t.Error("zooming had no off-design effect")
	}
	out := FormatZooming(rows)
	if !strings.Contains(out, "stage-stacked") {
		t.Errorf("FormatZooming:\n%s", out)
	}
}

// batchedAttribution runs the batched combined test over a 0.02s
// transient with span recording on and analyzes its spans with the
// run's link accounting.
func batchedAttribution(t *testing.T, netScale float64) (*ModuleRun, *critpath.Profile) {
	t.Helper()
	rec := trace.NewRecorder()
	trace.SetRecorder(rec)
	defer trace.SetRecorder(nil)
	row := Table2(RunSpec{Transient: 0.02, Step: 5e-4, Batch: true, NetScale: netScale})
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	return row, critpath.Analyze(rec.Spans(), row.Links, rec.Dropped())
}

// TestTable2BatchedAttribution holds the critical-path attribution of
// the batched combined test to equality. The run's spans are stamped
// on its virtual clock, so the analysis is exact: the bucket sums
// partition the summed phase durations, the remote phase is the row's
// elapsed time to the nanosecond, and the network, queueing and retry
// buckets are pinned. Computation takes no virtual time: the compute
// bucket holds only the dataflow nodes' message hops their child spans
// do not cover, and the ladder of bench/ measures real compute
// instead. Doubling every link's latency must move the pins.
func TestTable2BatchedAttribution(t *testing.T) {
	row, p := batchedAttribution(t, 0)
	var sum time.Duration
	for _, v := range p.Total.Buckets {
		sum += v
	}
	if sum != p.Total.CriticalPath {
		t.Errorf("bucket sum %s != critical path %s", sum, p.Total.CriticalPath)
	}
	var remote *critpath.Phase
	for i := range p.Phases {
		if p.Phases[i].Name == "remote run" {
			remote = &p.Phases[i]
		}
	}
	if remote == nil {
		t.Fatalf("no remote run phase among %+v", p.Phases)
	}
	if remote.Dur != row.Wall {
		t.Errorf("remote phase %s, want the run's elapsed time %s exactly", remote.Dur, row.Wall)
	}
	// The local baseline takes no virtual time, so its zero-length
	// phase sits inside the remote one and the critical path is the
	// remote run's.
	if p.Total.CriticalPath != row.Wall {
		t.Errorf("critical path %s, want the remote run's %s", p.Total.CriticalPath, row.Wall)
	}
	if want := 19547591235 * time.Nanosecond; row.Wall != want {
		t.Errorf("elapsed %s, want %s", row.Wall, want)
	}
	want := map[string]time.Duration{
		critpath.Network:  19171713953,
		critpath.Queueing: 375373223,
		critpath.Retry:    0,
	}
	for k, v := range want {
		if got := p.Total.Buckets[k]; got != v {
			t.Errorf("bucket %s = %s, want %s", k, got, v)
		}
	}
	if len(p.Links) == 0 {
		t.Fatal("no link cost profiles")
	}
	seen := map[string]bool{}
	for _, l := range p.Links {
		seen[l.Link] = true
		if l.Messages == 0 {
			t.Errorf("link %s has no traffic", l.Link)
		}
	}
	if !seen["via Internet"] {
		t.Errorf("links = %v, want the Internet path of the two-site topology", seen)
	}

	// The negative control: a doubled network must break the pins.
	_, scaled := batchedAttribution(t, 2)
	if got := scaled.Total.Buckets[critpath.Network]; got == want[critpath.Network] {
		t.Errorf("netscale=2 left the network bucket at its pin %s", got)
	}
}

// TestNetScaleDoublesSimNet pins the -netscale fault injection the
// attribution test's negative control relies on: doubling every link
// latency must grow the run's simulated network time by roughly the
// latency share.
func TestNetScaleDoublesSimNet(t *testing.T) {
	spec := RunSpec{Transient: 0.02, Step: 5e-4, Batch: true}
	base := Table2(spec)
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	spec.NetScale = 2
	scaled := Table2(spec)
	if scaled.Err != nil {
		t.Fatal(scaled.Err)
	}
	// Latency dominates these links' delay, so 2× latency means close
	// to 2× simulated network time.
	if float64(scaled.SimNet) < 1.5*float64(base.SimNet) {
		t.Errorf("SimNet %s with netscale=2, want >= 1.5× the baseline %s", scaled.SimNet, base.SimNet)
	}
	if scaled.MaxRelErr > 1e-12 {
		t.Errorf("netscale changed the answer: MaxRelErr = %g", scaled.MaxRelErr)
	}
}

// TestDSTReportSeriesTailOnce: a violating dst run's report carries
// the series tail of the flight dump, and only that one.
func TestDSTReportSeriesTailOnce(t *testing.T) {
	out, _, ok := dstReport(dst.Config{Seed: 1, Ops: 60, Inject: "double-commit", SeriesInterval: 50 * time.Millisecond})
	if ok {
		t.Fatal("injected double-commit not reported")
	}
	if n := strings.Count(out, "-- series tail --"); n != 1 {
		t.Errorf("report has %d series tail sections, want 1:\n%s", n, out)
	}
}
