package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// Expectation renders the golden fingerprint of a completed scenario
// run — the text a repository commits under scenarios/expect/ and CI
// re-derives and diffs on every push, so a behavior change to the
// runtime that shifts what a scenario does (an extra retry sweep, a
// lost failover, a changed op schedule) is caught even when every
// invariant still holds.
//
// Every workload runs on a virtual clock from the scenario's seed, so
// the fingerprint is strict: op count, signature counters, and
// assertion verdicts with the values the probes saw are all pure
// functions of the scenario file. Virtual elapsed time is deliberately
// absent: the clock keeps advancing during the teardown tail, so it is
// not replay-stable.
func Expectation(spec *Spec, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\n", res.Name)
	fmt.Fprintf(&b, "seed: %d\n", res.Seed)
	fmt.Fprintf(&b, "hosts: %d\n", res.Hosts)
	wl := spec.Workload
	if wl == "" {
		wl = "dst"
	}
	fmt.Fprintf(&b, "workload: %s\n", wl)
	if v := res.DST.Violation; v == nil {
		b.WriteString("violation: none\n")
	} else {
		fmt.Fprintf(&b, "violation: %s\n", v.Name)
	}
	fmt.Fprintf(&b, "ops: %d\n", len(res.DST.Ops))
	b.WriteString("signature:\n")
	keys := make([]string, 0, len(res.DST.Signature))
	for k := range res.DST.Signature {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s: %d\n", k, res.DST.Signature[k])
	}
	if len(res.Asserts) > 0 {
		b.WriteString("asserts:\n")
		for _, a := range res.Asserts {
			verdict := "ok"
			if !a.OK {
				verdict = "fail"
			}
			when := "final"
			if a.At >= 0 {
				when = "at " + a.At.String()
			}
			fmt.Fprintf(&b, "  - %s %s: %s (%s)\n", verdict, when, a.Desc, a.Detail)
		}
	}
	return b.String()
}

// DiffExpectation compares a committed golden against a freshly
// derived fingerprint line by line. It returns "" when they match,
// otherwise a unified-style excerpt of every differing line
// (-golden / +got).
func DiffExpectation(golden, got string) string {
	if golden == got {
		return ""
	}
	g := strings.Split(strings.TrimRight(golden, "\n"), "\n")
	n := strings.Split(strings.TrimRight(got, "\n"), "\n")
	var b strings.Builder
	max := len(g)
	if len(n) > max {
		max = len(n)
	}
	for i := 0; i < max; i++ {
		var gl, nl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(n) {
			nl = n[i]
		}
		if gl == nl {
			continue
		}
		if gl != "" || i < len(g) {
			fmt.Fprintf(&b, "-%s\n", gl)
		}
		if nl != "" || i < len(n) {
			fmt.Fprintf(&b, "+%s\n", nl)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
