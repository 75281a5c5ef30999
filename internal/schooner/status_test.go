package schooner

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npss/internal/critpath"
	"npss/internal/flight"
	"npss/internal/trace"
	"npss/internal/uts"
)

// TestStatusUnderConcurrentChurn hammers the introspection endpoints
// while lines spawn, call, migrate, and quit concurrently: StatusReport
// and the status plane must stay consistent (and data-race free under
// -race) no matter when they sample the Manager's tables.
func TestStatusUnderConcurrentChurn(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	prev := trace.Swap(trace.NewSet())
	defer trace.Swap(prev)

	var stop atomic.Bool
	var wg sync.WaitGroup
	const churners = 3
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hosts := []string{"sgi-lerc", "rs6000"}
			for i := 0; !stop.Load(); i++ {
				ln, err := d.client("sgi-lerc").ContactSchx("churn")
				if err != nil {
					t.Errorf("churner %d contact: %v", w, err)
					return
				}
				if err := ln.StartRemote("/npss/adder", hosts[i%2]); err != nil {
					t.Errorf("churner %d start: %v", w, err)
					ln.IQuit()
					return
				}
				ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
				if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil {
					t.Errorf("churner %d call: %v", w, err)
					ln.IQuit()
					return
				}
				// Migrate the process mid-life on some iterations.
				if i%3 == 0 {
					if err := ln.Move("add", hosts[(i+1)%2], false); err != nil {
						t.Errorf("churner %d move: %v", w, err)
						ln.IQuit()
						return
					}
				}
				ln.IQuit()
			}
		}(w)
	}

	for i := 0; i < 40; i++ {
		report := d.mgr.StatusReport()
		if !strings.Contains(report, "schooner manager on avs-sparc") {
			t.Fatalf("in-process report header missing:\n%s", report)
		}
		report, err := observeText(d.tr, "rs6000", "avs-sparc", "status")
		if err != nil {
			t.Fatalf("status during churn: %v", err)
		}
		if !strings.Contains(report, "-- lines --") {
			t.Fatalf("remote report sections missing:\n%s", report)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestStatusQueriesAgainstDeadManager pins the error paths: every
// introspection query against an unreachable Manager host reports the
// failure instead of hanging or panicking.
func TestStatusQueriesAgainstDeadManager(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.net.SetHostDown("avs-sparc", true)
	defer d.net.SetHostDown("avs-sparc", false)

	for _, plane := range []string{"status", "metrics", "flight"} {
		if _, err := Observe(d.tr, "sgi-lerc", "avs-sparc", plane); err == nil {
			t.Errorf("%s against dead manager succeeded", plane)
		}
	}
	// Unknown hosts fail too (no route at all).
	if _, err := Observe(d.tr, "sgi-lerc", "no-such-host", "status"); err == nil {
		t.Error("status against unknown host succeeded")
	}
}

// TestQueryMetricsRoundTrip drives calls through a deployment, fetches
// the Manager's and a Server's metric snapshots over the wire, and
// merges them into the cluster roll-up the -status query prints.
func TestQueryMetricsRoundTrip(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	prev := trace.Swap(trace.NewSet())
	defer trace.Swap(prev)

	ln, err := d.client("sgi-lerc").ContactSchx("metrics-module")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "rs6000"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	mgrSnap, err := observeMetrics(d.tr, "sgi-lerc", "avs-sparc")
	if err != nil {
		t.Fatal(err)
	}
	if mgrSnap.Counters["schooner.client.calls"] < calls {
		t.Errorf("manager snapshot calls = %d, want >= %d", mgrSnap.Counters["schooner.client.calls"], calls)
	}
	h, ok := mgrSnap.Hists["schooner.client.call"]
	if !ok || h.Count != calls {
		t.Errorf("manager snapshot latency histogram = %+v, want count %d", h, calls)
	}

	// The Server answers the metrics plane on its own port; in-process
	// it shares the global set, so merging models the cluster-wide
	// roll-up.
	srvSnap, err := observeMetrics(d.tr, "sgi-lerc", "rs6000:"+ServerPort)
	if err != nil {
		t.Fatal(err)
	}
	merged := trace.MetricsSnapshot{}
	merged.Merge(mgrSnap)
	merged.Merge(srvSnap)
	want := mgrSnap.Counters["schooner.proc.calls"] + srvSnap.Counters["schooner.proc.calls"]
	if got := merged.Counters["schooner.proc.calls"]; got != want {
		t.Errorf("merged proc calls = %d, want %d", got, want)
	}
	if mh := merged.Hists["schooner.client.call"]; mh.Count != 2*calls {
		t.Errorf("merged histogram count = %d, want %d", mh.Count, 2*calls)
	}
}

// TestQueryFlightRoundTrip fetches the flight recorder over the wire
// and checks the dump carries the call events the run just recorded.
func TestQueryFlightRoundTrip(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	oldRec := flight.Swap(flight.NewRecorder(256))
	defer flight.Swap(oldRec)

	ln, err := d.client("sgi-lerc").ContactSchx("flight-module")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "rs6000"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("add", uts.DoubleVal(2), uts.DoubleVal(3)); err != nil {
		t.Fatal(err)
	}

	dump, err := observeText(d.tr, "sgi-lerc", "avs-sparc", "flight")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flight recorder:", "call-attempt", "line-register", "spawn"} {
		if !strings.Contains(dump, want) {
			t.Errorf("flight dump missing %q:\n%s", want, dump)
		}
	}
}

// TestQueryProfileRoundTrip drives traced calls through a deployment
// and fetches the critical-path attribution over the wire: the
// profile-plane answer must decode into a profile whose span DAG
// covers the calls just made, with a nonzero network share (the calls
// crossed the simulated wire).
func TestQueryProfileRoundTrip(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	rec := trace.NewRecorder()
	trace.SetRecorder(rec)
	defer trace.SetRecorder(nil)

	ln, err := d.client("sgi-lerc").ContactSchx("profile-module")
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

	p, err := observeProfile(d.tr, "sgi-lerc", "avs-sparc")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spans == 0 || len(p.Phases) == 0 {
		t.Fatalf("profile empty: %+v", p)
	}
	if p.Total.Buckets[critpath.Network] == 0 {
		t.Errorf("no network time attributed: %s", p.Format())
	}
	var sum time.Duration
	for _, v := range p.Total.Buckets {
		sum += v
	}
	if sum != p.Total.CriticalPath {
		t.Errorf("bucket sum %s != critical path %s", sum, p.Total.CriticalPath)
	}

	// With tracing off the reply is still well-formed, just empty.
	trace.SetRecorder(nil)
	p, err = observeProfile(d.tr, "sgi-lerc", "avs-sparc")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spans != 0 {
		t.Errorf("profile with tracing off has %d spans", p.Spans)
	}
}

func observeText(tr Transport, from, addr, plane string) (string, error) {
	data, err := Observe(tr, from, addr, plane)
	return string(data), err
}

func observeMetrics(tr Transport, from, addr string) (trace.MetricsSnapshot, error) {
	var m trace.MetricsSnapshot
	data, err := Observe(tr, from, addr, "metrics")
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	return m, err
}

func observeProfile(tr Transport, from, addr string) (*critpath.Profile, error) {
	data, err := Observe(tr, from, addr, "profile")
	if err != nil {
		return nil, err
	}
	var p critpath.Profile
	return &p, json.Unmarshal(data, &p)
}
