package scenario

import (
	"path/filepath"
	"testing"
	"time"

	"npss/internal/exper"
	"npss/internal/schooner"
)

// TestTable2WorkloadIsTable2: with no faults, no health monitor and no
// crash, the table2 workload is exper.Table2's sequential row at the
// same transient: the same calls, round trips, network time, elapsed
// time and answer. The chaos scenario is Table 2 under faults.
func TestTable2WorkloadIsTable2(t *testing.T) {
	spec, err := Load(filepath.Join(corpusDir, "chaos-table2.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 20 * time.Millisecond
	spec.Faults, spec.Events = nil, nil
	spec.Policy = schooner.CallPolicy{}
	spec.Health = &schooner.HealthPolicy{Interval: -1}
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := chaos(spec, plan.crash)
	if err != nil {
		t.Fatal(err)
	}
	want := exper.Table2(exper.RunSpec{Transient: 0.02})
	if r.row.Err != nil || want.Err != nil {
		t.Fatalf("workload err = %v, Table2 err = %v", r.row.Err, want.Err)
	}
	got := r.row
	if got.Calls != want.Calls || got.RPCs != want.RPCs || got.SimNet != want.SimNet || got.Wall != want.Wall {
		t.Errorf("workload: %d calls / %d rpcs / %s on the network / %s elapsed, Table2: %d / %d / %s / %s",
			got.Calls, got.RPCs, got.SimNet, got.Wall, want.Calls, want.RPCs, want.SimNet, want.Wall)
	}
	if got.MaxRelErr != want.MaxRelErr || got.SteadyIters != want.SteadyIters {
		t.Errorf("workload answer: maxRelErr %g after %d iterations, Table2: %g after %d",
			got.MaxRelErr, got.SteadyIters, want.MaxRelErr, want.SteadyIters)
	}
	if c, p := r.Signature["schooner.client.calls"], r.Signature["schooner.client.rpcs"]; c != want.Calls || p != want.RPCs {
		t.Errorf("signature: %d calls / %d rpcs, Table2: %d / %d", c, p, want.Calls, want.RPCs)
	}
}
