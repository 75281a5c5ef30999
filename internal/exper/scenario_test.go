package exper

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"npss/internal/flight"
	"npss/internal/scenario"
)

// loadTable2Scenario loads the shipped YAML port of the chaos
// experiment from the repo's scenario corpus.
func loadTable2Scenario(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(filepath.Join("..", "..", "scenarios", "chaos-table2.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTable2ScenarioSpecParity pins the mapping layer exactly: the
// shipped YAML port must compile to the same ChaosSpec the hand-coded
// experiment defaults to — same seed, same crashed machine, and the
// same mid-transient crash step — for any engine RunSpec.
func TestTable2ScenarioSpecParity(t *testing.T) {
	spec := loadTable2Scenario(t)
	for _, run := range []RunSpec{
		{Throttle: true}, // production defaults
		{Transient: 0.05, Step: 5e-4, Throttle: true}, // the shortened test spec
	} {
		cs, err := table2ChaosSpec(spec, run)
		if err != nil {
			t.Fatal(err)
		}
		hand := ChaosSpec{Run: run, Seed: 1993}
		hand.defaults()
		if cs.Seed != hand.Seed {
			t.Errorf("seed = %d, hand-coded %d", cs.Seed, hand.Seed)
		}
		if cs.CrashHost != hand.CrashHost {
			t.Errorf("crash host = %q, hand-coded %q", cs.CrashHost, hand.CrashHost)
		}
		if cs.CrashStep != hand.CrashStep {
			t.Errorf("crash step = %d, hand-coded %d (transient %v)", cs.CrashStep, hand.CrashStep, run.Transient)
		}
	}
}

// TestTable2ScenarioRunParity runs the YAML port and the hand-coded
// chaos experiment over the same shortened transient. Both run on a
// virtual clock from the same seed, so they must be the same run: equal
// signatures, counter for counter, converging within tolerance after
// the crash (hostdown) and the health monitor's response (failovers).
func TestTable2ScenarioRunParity(t *testing.T) {
	run := RunSpec{Transient: 0.05, Step: 5e-4, Throttle: true}

	spec := loadTable2Scenario(t)
	res, err := RunTable2Scenario(spec, run)
	if err != nil {
		t.Fatal(err)
	}
	hand := Chaos(ChaosSpec{Run: run, Seed: spec.Seed})
	if hand.Row.Err != nil {
		t.Fatalf("hand-coded run: %v", hand.Row.Err)
	}

	if res.DST.Violation != nil {
		t.Fatalf("scenario run failed: %s", res.DST.Violation)
	}
	if !hand.Row.Converged {
		t.Fatal("hand-coded run did not converge")
	}
	if hand.Row.MaxRelErr > relErrTolerance {
		t.Errorf("hand-coded maxRelErr = %g", hand.Row.MaxRelErr)
	}
	if y, h := fmt.Sprint(res.DST.Signature), fmt.Sprint(hand.Counters); y != h {
		t.Errorf("signatures differ:\n yaml %s\n hand %s", y, h)
	}
	for _, key := range []string{"schooner.manager.hostdown", "schooner.manager.failovers"} {
		if n := hand.Counters[key]; n < 1 {
			t.Errorf("%s = %d, want >= 1", key, n)
		}
	}
	// Every assertion in the shipped file must have held.
	for _, a := range res.Asserts {
		if !a.OK {
			t.Errorf("assert failed: %s (%s)", a.Desc, a.Detail)
		}
	}
}

// TestTable2ScenarioSameBytesAtAnyGOMAXPROCS is the chaos-table2 case
// of dst's determinism contract: the same scenario file yields the same
// fingerprint, series and flight events whether the Go scheduler has
// one thread or eight.
func TestTable2ScenarioSameBytesAtAnyGOMAXPROCS(t *testing.T) {
	spec := loadTable2Scenario(t)
	spec.SeriesInterval = 50 * time.Millisecond
	var want []byte
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := RunTable2Scenario(spec, RunSpec{Transient: 0.05, Step: 5e-4, Throttle: true})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.WriteString(scenario.Expectation(spec, res))
		series, err := res.DST.Series.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		b.Write(series)
		for _, e := range res.DST.Events {
			fmt.Fprintf(&b, "\n%s %s", e.Time.Format(time.RFC3339Nano), flight.FormatEvent(&e))
		}
		if want == nil {
			want = b.Bytes()
		} else if !bytes.Equal(want, b.Bytes()) {
			t.Fatalf("GOMAXPROCS=1 and GOMAXPROCS=%d disagree:\n--- 1\n%s\n--- %d\n%s", procs, want, procs, b.Bytes())
		}
	}
}

// TestTable2ScenarioRejects pins the adapter's scope errors: the
// chaos engine runs a fixed topology, so fleet-style constructs are
// line-numbered rejections, not silent no-ops.
func TestTable2ScenarioRejects(t *testing.T) {
	base := "name: t\nseed: 1\nduration: 1s\nworkload: table2\nfleet:\n  hosts:\n    - name: sparc10-ua\n      arch: sparc\n    - name: rs6000-lerc\n      arch: rs6000\n"
	cases := []struct {
		name string
		add  string
		want string
	}{
		{
			"second crash",
			"events:\n  - at: 100ms\n    action: crash_host\n    host: rs6000-lerc\n  - at: 200ms\n    action: crash_host\n    host: sparc10-ua\n",
			"exactly one crash_host",
		},
		{
			"unsupported action",
			"events:\n  - at: 100ms\n    action: manager_crash\n",
			`does not support action "manager_crash"`,
		},
		{
			"stress block",
			"stress:\n  - at: 0s\n    duration: 1s\n    ops: 5\n",
			"does not support stress blocks",
		},
		{
			"bound_host assert",
			"assertions:\n  - check: bound_host\n    proc: work\n    host: sparc10-ua\n",
			"does not support bound_host assertions",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := scenario.Decode([]byte(base + tc.add))
			if err != nil {
				t.Fatal(err)
			}
			_, err = table2ChaosSpec(spec, RunSpec{Throttle: true})
			if err == nil {
				t.Fatal("adapter accepted unsupported scenario")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "line ") {
				t.Fatalf("err = %q, want %q with a line number", err, tc.want)
			}
		})
	}
}
