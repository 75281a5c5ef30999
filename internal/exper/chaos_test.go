package exper_test

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"npss/internal/dst"
	"npss/internal/exper"
	"npss/internal/scenario"
)

// loadTable2Scenario loads the shipped chaos experiment from the
// repo's scenario corpus.
func loadTable2Scenario(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(filepath.Join("..", "..", "scenarios", "chaos-table2.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortTable2Scenario is the shipped file with a 50 ms transient and
// the crash moved to its middle, 25 ms (transient step 50): the same
// experiment in about a tenth of a second.
func shortTable2Scenario(t *testing.T) *scenario.Spec {
	t.Helper()
	spec := loadTable2Scenario(t)
	spec.Duration = 50 * time.Millisecond
	if len(spec.Events) != 1 || spec.Events[0].Action != "crash_host" {
		t.Fatalf("shipped chaos-table2 events = %+v, want one crash_host", spec.Events)
	}
	spec.Events[0].At = 25 * time.Millisecond
	return spec
}

var maxRelErrNote = regexp.MustCompile(`maxRelErr=(\S+)`)

// TestChaos is the headline robustness check: the Table 2 combined
// F100 workload — six computations remote across both sites — run
// under the shipped file's seeded message loss, jitter, and link
// flaps, with the machine hosting both shafts crashed halfway through
// the transient. The run must complete with zero hung calls (it
// returns at all), exercise the failover path at least once, and
// converge to the local-only answer within the usual combined-test
// tolerance.
func TestChaos(t *testing.T) {
	res, err := scenario.Run(shortTable2Scenario(t))
	if err != nil {
		t.Fatal(err)
	}
	if v := res.DST.Violation; v != nil {
		t.Fatalf("chaos run failed: %s\n%s", v, scenario.Format(res))
	}
	var relErr string
	for _, n := range res.Notes {
		if m := maxRelErrNote.FindStringSubmatch(n); m != nil {
			relErr = m[1]
		}
	}
	if e, err := strconv.ParseFloat(relErr, 64); err != nil || !(e <= 1e-4) {
		t.Errorf("maxRelErr = %q under faults, want <= 1e-4 (notes %q)", relErr, res.Notes)
	}
	if !res.Asserts[0].OK || res.Asserts[0].Desc != "converged" {
		t.Errorf("first assertion = %+v, want converged to hold", res.Asserts[0])
	}
	// The crash must actually have been detected and recovered from:
	// the RS/6000 hosts two stateless shaft processes.
	sig := res.DST.Signature
	if n := sig["schooner.manager.hostdown"]; n < 1 {
		t.Errorf("hostdown transitions = %d, want >= 1", n)
	}
	if n := sig["schooner.manager.failovers"]; n < 1 {
		t.Errorf("failovers = %d, want >= 1", n)
	}
	// The injected faults must have bitten, and the retry machinery
	// must have absorbed them.
	if n := sig["netsim.drops"]; n < 1 {
		t.Errorf("drops = %d, want >= 1", n)
	}
	if n := sig["schooner.client.retries"]; n < 1 {
		t.Errorf("client retries = %d, want >= 1", n)
	}
	if n := sig["schooner.client.rebinds"]; n < 1 {
		t.Errorf("client rebinds = %d, want >= 1", n)
	}
}

// TestEveryChaosKnobIsLive perturbs every outcome-relevant value of the
// shipped file, one at a time, and requires each to change the run's
// fingerprint: a key the workload silently ignored would leave the
// fingerprint as it was. Every perturbed run must still converge,
// except the one whose only possible effect is failure: a retry count
// matters only once a call exhausts it.
func TestEveryChaosKnobIsLive(t *testing.T) {
	run := func(t *testing.T, spec *scenario.Spec) (fingerprint string, violation *dst.Violation) {
		t.Helper()
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return scenario.Expectation(spec, res), res.DST.Violation
	}
	base, v := run(t, shortTable2Scenario(t))
	if v != nil {
		t.Fatalf("unperturbed run failed: %s", v)
	}
	for _, tc := range []struct {
		key   string
		edit  func(*scenario.Spec)
		fails bool
	}{
		{"seed", func(s *scenario.Spec) { s.Seed = 1994 }, false},
		{"faults.from", func(s *scenario.Spec) { s.Faults[2].From = exper.SGI480Lerc }, false},
		{"faults.to", func(s *scenario.Spec) { s.Faults[2].To = exper.ConvexLerc }, false},
		// At 1 % loss on every link one spawn message is lost, which
		// used to fail the run before the Manager could retry it.
		{"faults.loss", func(s *scenario.Spec) {
			for i := range s.Faults {
				s.Faults[i].LossProb = 0.01
			}
		}, false},
		{"faults.jitter", func(s *scenario.Spec) { s.Faults[2].MaxJitter = time.Millisecond }, false},
		{"faults.flap_every", func(s *scenario.Spec) { s.Faults[2].FlapEvery = 100 }, false},
		{"faults.flap_len", func(s *scenario.Spec) { s.Faults[2].FlapLen = 5 }, false},
		{"policy.timeout", func(s *scenario.Spec) { s.Policy.Timeout = 400 * time.Millisecond }, false},
		// Seven retries run out before the crashed machine's processes
		// fail over; eight or more leave the run as it was.
		{"policy.retries", func(s *scenario.Spec) { s.Policy.MaxRetries = 7 }, true},
		{"policy.backoff", func(s *scenario.Spec) { s.Policy.Backoff = 20 * time.Millisecond }, false},
		{"policy.max_backoff", func(s *scenario.Spec) { s.Policy.MaxBackoff = 640 * time.Millisecond }, false},
		{"health.interval", func(s *scenario.Spec) { s.Health.Interval = 50 * time.Millisecond }, false},
		{"health.threshold", func(s *scenario.Spec) { s.Health.Threshold = 2 }, false},
		{"health.ping_timeout", func(s *scenario.Spec) { s.Health.PingTimeout = 100 * time.Millisecond }, false},
		{"crash host", func(s *scenario.Spec) { s.Events[0].Host = exper.SGI420Lerc }, false},
		{"crash at", func(s *scenario.Spec) { s.Events[0].At = 10 * time.Millisecond }, false},
	} {
		t.Run(tc.key, func(t *testing.T) {
			spec := shortTable2Scenario(t)
			tc.edit(spec)
			got, v := run(t, spec)
			if (v != nil) != tc.fails {
				t.Fatalf("violation = %v, want failure %v\n%s", v, tc.fails, got)
			}
			if got == base {
				t.Errorf("changing %s left the fingerprint as it was:\n%s", tc.key, got)
			}
		})
	}
}
