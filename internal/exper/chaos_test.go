package exper

import (
	"strings"
	"testing"
)

// TestChaos is the headline robustness check: the Table 2 combined
// F100 workload — six computations remote across both sites — run
// under seeded message loss, jitter, and link flaps, with the machine
// hosting both shafts crashed halfway through the transient. The run
// must complete with zero hung calls (it returns at all), exercise
// the failover path at least once, and converge to the local-only
// answer within the usual combined-test tolerance.
func TestChaos(t *testing.T) {
	res := Chaos(ChaosSpec{Run: RunSpec{Transient: 0.05, Step: 5e-4, Throttle: true}})
	if res.Row.Err != nil {
		t.Fatalf("chaos run failed: %v", res.Row.Err)
	}
	if !res.Row.Converged {
		t.Fatal("chaos run did not converge")
	}
	if res.Row.MaxRelErr > 1e-4 {
		t.Errorf("maxRelErr = %g under faults, want <= 1e-4", res.Row.MaxRelErr)
	}
	if res.CrashHost != RS6000Lerc {
		t.Errorf("default crash host = %s", res.CrashHost)
	}
	// The crash must actually have been detected and recovered from:
	// the RS/6000 hosts two stateless shaft processes.
	if n := res.Counters["schooner.manager.hostdown"]; n < 1 {
		t.Errorf("hostdown transitions = %d, want >= 1", n)
	}
	if n := res.Counters["schooner.manager.failovers"]; n < 1 {
		t.Errorf("failovers = %d, want >= 1", n)
	}
	// The injected faults must have bitten, and the retry machinery
	// must have absorbed them.
	if n := res.Counters["netsim.drops"]; n < 1 {
		t.Errorf("drops = %d, want >= 1", n)
	}
	if n := res.Counters["schooner.client.retries"]; n < 1 {
		t.Errorf("client retries = %d, want >= 1", n)
	}
	if n := res.Counters["schooner.client.rebinds"]; n < 1 {
		t.Errorf("client rebinds = %d, want >= 1", n)
	}
	out := FormatChaos(res)
	for _, want := range []string{"rs6000-lerc", "converged=true", "schooner.manager.failovers"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatChaos missing %q:\n%s", want, out)
		}
	}
}

// TestChaosDefaults pins the spec defaulting.
func TestChaosDefaults(t *testing.T) {
	var s ChaosSpec
	s.defaults()
	if s.Seed == 0 || s.Loss == 0 || s.FlapEvery == 0 || s.FlapLen == 0 {
		t.Errorf("fault defaults not applied: %+v", s)
	}
	if s.CrashHost != RS6000Lerc {
		t.Errorf("crash host = %s", s.CrashHost)
	}
	if s.CrashStep != int(s.Run.Transient/s.Run.Step)/2 {
		t.Errorf("crash step = %d", s.CrashStep)
	}
	if s.Policy.MaxRetries < 5 {
		t.Errorf("default chaos policy too timid: %+v", s.Policy)
	}
	if s.Health.Interval == 0 || s.Health.Threshold == 0 {
		t.Errorf("health defaults not applied: %+v", s.Health)
	}
}
