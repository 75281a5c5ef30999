package scenario

import (
	"strings"
	"testing"
	"time"

	"npss/internal/dst"
)

func expectFixture(workload string) (*Spec, *Result) {
	spec := &Spec{Name: "fx", Seed: 9, Workload: workload}
	res := &Result{
		Name:  "fx",
		Seed:  9,
		Hosts: 3,
		DST: &dst.Result{
			Seed:      9,
			Ops:       make([]dst.Op, 12),
			Signature: map[string]int64{"dst.commits": 7, "schooner.client.calls": 20},
		},
		Asserts: []AssertResult{
			{At: -1, Desc: "converged", OK: true, Detail: "no violation"},
			{At: 250 * time.Millisecond, Desc: "counter dst.commits >= 1", OK: true, Detail: "dst.commits = 7"},
		},
	}
	return spec, res
}

func TestExpectationDeterministicWorkload(t *testing.T) {
	spec, res := expectFixture("")
	got := Expectation(spec, res)
	for _, want := range []string{
		"scenario: fx\n", "workload: dst\n", "violation: none\n", "ops: 12\n",
		"  dst.commits: 7\n", "  schooner.client.calls: 20\n",
		"  - ok final: converged (no violation)\n",
		"  - ok at 250ms: counter dst.commits >= 1 (dst.commits = 7)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("expectation missing %q:\n%s", want, got)
		}
	}
	if got != Expectation(spec, res) {
		t.Fatal("expectation rendering not stable")
	}
}

// TestExpectationTable2Workload: table2 runs on a virtual clock like
// dst, so its fingerprint is just as strict — the signature counters
// and the values assertions saw are part of it.
func TestExpectationTable2Workload(t *testing.T) {
	spec, res := expectFixture("table2")
	got := Expectation(spec, res)
	for _, want := range []string{
		"workload: table2\n", "ops: 12\n", "signature:\n", "  dst.commits: 7\n",
		"  - ok final: converged (no violation)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("expectation missing %q:\n%s", want, got)
		}
	}
}

func TestExpectationRecordsViolation(t *testing.T) {
	spec, res := expectFixture("")
	res.DST.Violation = &dst.Violation{Name: "wrong-answer", Detail: "got 2 want 3"}
	if got := Expectation(spec, res); !strings.Contains(got, "violation: wrong-answer\n") {
		t.Errorf("violation name missing:\n%s", got)
	}
}

func TestDiffExpectation(t *testing.T) {
	spec, res := expectFixture("")
	golden := Expectation(spec, res)
	if d := DiffExpectation(golden, golden); d != "" {
		t.Fatalf("self-diff nonempty:\n%s", d)
	}
	res.DST.Signature["dst.commits"] = 8
	drifted := Expectation(spec, res)
	d := DiffExpectation(golden, drifted)
	if !strings.Contains(d, "-  dst.commits: 7") || !strings.Contains(d, "+  dst.commits: 8") {
		t.Fatalf("diff does not show the drifted counter:\n%s", d)
	}
}
