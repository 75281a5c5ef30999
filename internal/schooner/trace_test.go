package schooner

import (
	"strings"
	"sync"
	"testing"
	"time"

	"npss/internal/trace"
	"npss/internal/uts"
)

// withSpans installs a fresh span recorder and a fresh metric set
// scoped to the test, so traced-runtime tests neither see nor leak
// global counters.
func withSpans(t *testing.T) *trace.Recorder {
	t.Helper()
	prev := trace.Swap(trace.NewSet())
	rec := trace.NewRecorder()
	trace.SetRecorder(rec)
	t.Cleanup(func() {
		trace.SetRecorder(nil)
		trace.Swap(prev)
	})
	return rec
}

// spansByName indexes recorded spans, keeping every span per name.
func spansByName(rec *trace.Recorder) map[string][]trace.SpanRecord {
	out := make(map[string][]trace.SpanRecord)
	for _, s := range rec.Spans() {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestSpanPropagationAcrossHosts pins the tentpole property: one
// traced Call produces spans on both the client machine and the
// procedure's machine, all sharing the root's trace id, with the
// remote dispatch parented to the client's attempt.
func TestSpanPropagationAcrossHosts(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	rec := withSpans(t)
	if out, err := ln.Call("add", uts.DoubleVal(2), uts.DoubleVal(3)); err != nil || out[0].F != 5 {
		t.Fatalf("call = %v, %v", out, err)
	}

	by := spansByName(rec)
	root := by["call add"]
	att := by["attempt add"]
	disp := by["dispatch add"]
	if len(root) != 1 || len(att) != 1 || len(disp) != 1 {
		t.Fatalf("spans: call=%d attempt=%d dispatch=%d, want 1 each", len(root), len(att), len(disp))
	}
	if root[0].Host != "avs-sparc" || disp[0].Host != "sgi-lerc" {
		t.Errorf("span hosts: call on %q, dispatch on %q", root[0].Host, disp[0].Host)
	}
	tr := root[0].Trace
	for name, ss := range by {
		for _, s := range ss {
			if s.Trace != tr {
				t.Errorf("span %q trace %d, want root's %d", name, s.Trace, tr)
			}
		}
	}
	if att[0].Parent != root[0].ID {
		t.Errorf("attempt parent %d, want call span %d", att[0].Parent, root[0].ID)
	}
	if disp[0].Parent != att[0].ID {
		t.Errorf("dispatch parent %d, want attempt span %d", disp[0].Parent, att[0].ID)
	}
	// The remote side breaks the dispatch into decode/proc/encode
	// children on the procedure's machine.
	for _, child := range []string{"decode", "proc add", "encode"} {
		ss := by[child]
		if len(ss) != 1 || ss[0].Parent != disp[0].ID || ss[0].Host != "sgi-lerc" {
			t.Errorf("child %q = %+v, want one span under dispatch on sgi-lerc", child, ss)
		}
	}
	// Labeled latency histograms accompany the spans.
	if h, ok := trace.Export().Hists["schooner.client.call{proc=add}"]; !ok || h.Count != 1 {
		t.Error("per-procedure client latency histogram missing")
	}
	if h, ok := trace.Export().Hists["schooner.proc.call{host=sgi-lerc}"]; !ok || h.Count != 1 {
		t.Error("per-host procedure latency histogram missing")
	}
}

// TestRetryKeepsOneTraceID pins the annotation contract under a stale
// binding: a Move behind the client's back forces the next call
// through a failed attempt and a rebind, and every attempt stays in
// the one trace rooted at the call span.
func TestRetryKeepsOneTraceID(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	// Move the procedure: the client's cached binding is now stale.
	if err := ln.Move("add", "rs6000", false); err != nil {
		t.Fatal(err)
	}

	rec := withSpans(t)
	out, err := ln.Call("add", uts.DoubleVal(20), uts.DoubleVal(22))
	if err != nil || out[0].F != 42 {
		t.Fatalf("call after move = %v, %v", out, err)
	}

	by := spansByName(rec)
	roots := by["call add"]
	atts := by["attempt add"]
	if len(roots) != 1 {
		t.Fatalf("call spans = %d, want 1", len(roots))
	}
	if len(atts) < 2 {
		t.Fatalf("attempt spans = %d, want >= 2 (stale attempt + rebound attempt)", len(atts))
	}
	for _, a := range atts {
		if a.Trace != roots[0].Trace {
			t.Errorf("attempt trace %d, want the one call trace %d", a.Trace, roots[0].Trace)
		}
		if a.Parent != roots[0].ID {
			t.Errorf("attempt parent %d, want original call span %d", a.Parent, roots[0].ID)
		}
	}
	// The successful dispatch ran on the new machine, same trace.
	disp := by["dispatch add"]
	if len(disp) == 0 || disp[len(disp)-1].Host != "rs6000" || disp[len(disp)-1].Trace != roots[0].Trace {
		t.Errorf("dispatch spans = %+v, want final dispatch on rs6000 in the call's trace", disp)
	}
	// The root records the recovery: a rebind annotation naming the
	// address change.
	var sawRebind bool
	for _, n := range roots[0].Notes {
		if n.Key == "rebind" {
			sawRebind = true
		}
	}
	if !sawRebind {
		t.Errorf("call span notes %+v lack a rebind annotation", roots[0].Notes)
	}
}

// TestFailoverSpanLinkage crashes a machine under health monitoring
// and checks the trace story: the Manager's failover roots its own
// span (it is Manager-initiated, not part of any call), while the
// recovering call's attempts — including the one that lands on the
// failover target — all stay parented to the original call span.
func TestFailoverSpanLinkage(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    100 * time.Millisecond,
		MaxRetries: 30,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}

	rec := withSpans(t)
	d.mgr.StartHealth(HealthPolicy{
		Interval:    5 * time.Millisecond,
		Threshold:   2,
		PingTimeout: 50 * time.Millisecond,
	})
	d.net.SetHostDown("sgi-lerc", true)
	out, err := ln.Call("add", uts.DoubleVal(20), uts.DoubleVal(22))
	if err != nil || out[0].F != 42 {
		t.Fatalf("call did not recover through failover: %v, %v", out, err)
	}
	if trace.Get("schooner.manager.failovers{host=sgi-lerc}") == 0 {
		t.Error("labeled failover counter not incremented")
	}

	by := spansByName(rec)
	roots := by["call add"]
	if len(roots) != 1 {
		t.Fatalf("call spans = %d, want 1", len(roots))
	}
	for _, a := range by["attempt add"] {
		if a.Trace != roots[0].Trace || a.Parent != roots[0].ID {
			t.Errorf("attempt %+v not linked to the original call span", a)
		}
	}
	fo := by["failover sgi-lerc"]
	if len(fo) == 0 {
		t.Fatal("no failover span recorded")
	}
	if fo[0].Trace == roots[0].Trace {
		t.Error("failover span joined the call's trace; it must root its own")
	}
	if fo[0].Parent != 0 {
		t.Errorf("failover span parent = %d, want root", fo[0].Parent)
	}
	var annotated bool
	for _, n := range fo[0].Notes {
		if n.Key == "/npss/adder" && strings.HasPrefix(n.Value, "sgi-lerc -> ") {
			annotated = true
		}
	}
	if !annotated {
		t.Errorf("failover span notes %+v lack the per-process migration", fo[0].Notes)
	}
}

// TestConcurrentTracedGo drives overlapping traced async calls from
// several goroutines; under -race this pins the recorder's and the
// span tree's thread-safety on the Line.Go path.
func TestConcurrentTracedGo(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	rec := withSpans(t)
	const workers, calls = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				p := ln.Go("add", uts.DoubleVal(float64(w)), uts.DoubleVal(float64(i)))
				out, err := p.Wait()
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if out[0].F != float64(w+i) {
					t.Errorf("worker %d call %d = %g", w, i, out[0].F)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	by := spansByName(rec)
	total := workers * calls
	if n := len(by["call add"]); n != total {
		t.Errorf("call spans = %d, want %d", n, total)
	}
	if n := len(by["dispatch add"]); n != total {
		t.Errorf("dispatch spans = %d, want %d", n, total)
	}
	// Every call is its own trace; traces must not bleed together.
	traces := make(map[uint64]bool)
	for _, s := range by["call add"] {
		if traces[s.Trace] {
			t.Fatalf("two call roots share trace %d", s.Trace)
		}
		traces[s.Trace] = true
	}
	if h, ok := trace.Export().Hists["schooner.client.call{proc=add}"]; !ok || h.Count != int64(total) {
		t.Error("per-procedure histogram did not count every concurrent call")
	}
}

// TestManagerStatusReport pins the introspection endpoint: the status
// plane round trip answers with the Manager's lines, health view, and the
// same counters trace.Get reads.
func TestManagerStatusReport(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	prev := trace.Swap(trace.NewSet())
	defer trace.Swap(prev)

	ln, err := d.client("sgi-lerc").ContactSchx("status-module")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "rs6000"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	for i := 0; i < 3; i++ {
		if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	report, err := observeText(d.tr, "sgi-lerc", "avs-sparc", "status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "schooner manager on avs-sparc") {
		t.Errorf("report header missing:\n%s", report)
	}
	if !strings.Contains(report, "status-module") {
		t.Errorf("report does not list the live line:\n%s", report)
	}
	if !strings.Contains(report, "(monitor off)") {
		t.Errorf("report health section wrong with monitor stopped:\n%s", report)
	}
	// The counters section must agree with trace.Get at this instant.
	calls := trace.Get("schooner.proc.calls")
	if calls == 0 {
		t.Fatal("no proc calls counted")
	}
	want := "schooner.proc.calls=" + itoa(calls)
	if !strings.Contains(report, want) {
		t.Errorf("report lacks %q:\n%s", want, report)
	}

	// With the monitor on, the health section lists machine states.
	d.mgr.StartHealth(HealthPolicy{Interval: 5 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(d.mgr.HostHealth()) == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	report, err = observeText(d.tr, "sgi-lerc", "avs-sparc", "status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "rs6000 up") {
		t.Errorf("report health section missing machines:\n%s", report)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
