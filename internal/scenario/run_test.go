package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"npss/internal/dst"
	"npss/internal/report"
)

// corpusDir is the shipped scenario corpus at the repo root.
const corpusDir = "../../scenarios"

// TestCorpusCompiles sweeps every shipped scenario through the full
// front end: each file must decode and compile. (The CI scenarios job
// actually runs them; this keeps `go test` fast while still catching a
// corpus file that drifts from the DSL.)
func TestCorpusCompiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("scenario corpus has %d files, want >= 6", len(files))
	}
	for _, f := range files {
		spec, err := Load(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := Compile(spec); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestSmallScenarioReplayIdentical runs a compact scripted scenario
// (faults, a migration, and a seeded stress block, health monitoring
// off) twice with the same seed and demands byte-identical op traces,
// outcomes, and metric signatures — the replay-identity contract at a
// size cheap enough for -short and -race runs.
func TestSmallScenarioReplayIdentical(t *testing.T) {
	defer dst.Watchdog(time.Minute)()
	spec, err := Load(filepath.Join("testdata", "replay-small.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.DST.Violation != nil {
			t.Fatalf("violation: %s", res.DST.Violation)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.DST.Ops, b.DST.Ops) {
		t.Error("op traces differ between same-seed runs")
	}
	if !reflect.DeepEqual(a.DST.Outcomes, b.DST.Outcomes) {
		t.Error("outcomes differ between same-seed runs")
	}
	if !reflect.DeepEqual(a.DST.Signature, b.DST.Signature) {
		t.Errorf("signatures differ:\n%v\n%v", a.DST.Signature, b.DST.Signature)
	}
	if !reflect.DeepEqual(a.Asserts, b.Asserts) {
		t.Error("assertion outcomes differ between same-seed runs")
	}
}

// TestStressThousandHosts is the acceptance run: the shipped
// 1000-host, 30-virtual-minute stress scenario must finish well under
// the 60s real-time budget and replay identically under the same seed.
func TestStressThousandHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1000-host scenario twice")
	}
	defer dst.Watchdog(3 * time.Minute)()
	spec, err := Load(filepath.Join(corpusDir, "stress-1000.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		start := time.Now()
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if wall := time.Since(start); wall > 60*time.Second {
			t.Errorf("run took %v, budget is 60s", wall)
		}
		return res
	}
	a, b := run(), run()
	if a.Hosts != 1000 {
		t.Errorf("hosts = %d, want 1000", a.Hosts)
	}
	if a.DST.VirtualElapsed < 30*time.Minute {
		t.Errorf("virtual elapsed = %v, want >= 30m", a.DST.VirtualElapsed)
	}
	if a.DST.Violation != nil {
		t.Fatalf("violation: %s\n%s", a.DST.Violation, a.DST.FlightDump)
	}
	if !reflect.DeepEqual(a.DST.Ops, b.DST.Ops) {
		t.Error("op traces differ between same-seed runs")
	}
	if !reflect.DeepEqual(a.DST.Outcomes, b.DST.Outcomes) {
		t.Error("outcomes differ between same-seed runs")
	}
	if !reflect.DeepEqual(a.DST.Signature, b.DST.Signature) {
		t.Errorf("signatures differ:\n%v\n%v", a.DST.Signature, b.DST.Signature)
	}
}

// TestBrokenAssertFails pins the failure path end to end: an
// unreachable counter floor becomes an "assert-counter" violation
// whose detail carries the assertion's line number, and Format renders
// the FAILED verdict with the reproduction seed.
func TestBrokenAssertFails(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "broken-assert.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := res.DST.Violation
	if v == nil {
		t.Fatal("broken assertion did not produce a violation")
	}
	if v.Name != "assert-counter" {
		t.Errorf("violation name = %q, want assert-counter", v.Name)
	}
	if !strings.Contains(v.Detail, "line 23") {
		t.Errorf("violation detail lacks the assertion line: %q", v.Detail)
	}
	out := Format(res)
	for _, want := range []string{`scenario "broken-assert" FAILED`, "assert FAIL", "seed 11"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	if res.DST.FlightDump == "" {
		t.Error("failed run has no flight dump for the post-mortem")
	}
}

// TestUnknownWorkload pins the error for a workload the harness does
// not have.
func TestUnknownWorkload(t *testing.T) {
	spec, err := Decode([]byte(minimal + "workload: warp\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), `unknown workload "warp"`) {
		t.Fatalf("err = %v, want unknown workload", err)
	}
}

// TestLoadMissingFile pins the file-context wrapping on Load errors.
func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.yaml")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name:t\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bad)
	if err == nil || !strings.Contains(err.Error(), "bad.yaml") || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err = %v, want file and line context", err)
	}
}

// TestReportOverlaysCrashFailover: a scenario's flight events are
// stamped on its virtual clock, like its series windows, so the crash
// and the failovers of crash-failover.yaml fall inside the series span,
// where a report can draw them over the load timeline.
func TestReportOverlaysCrashFailover(t *testing.T) {
	spec, err := Load(filepath.Join(corpusDir, "crash-failover.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	spec.SeriesInterval = 50 * time.Millisecond
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := Report(res)
	w := d.Series.Windows
	if len(w) == 0 {
		t.Fatal("no series windows")
	}
	t0, t1 := w[0].Start, w[len(w)-1].Start.Add(time.Duration(w[len(w)-1].Dur))
	inside := 0
	for _, e := range report.OverlayEvents(d.Events) {
		if !e.Time.Before(t0) && !e.Time.After(t1) {
			inside++
		}
	}
	if inside == 0 {
		t.Fatalf("none of %d events falls inside the series span %v..%v", len(d.Events), t0, t1)
	}
}
