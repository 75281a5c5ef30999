package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"npss/internal/dst"
	"npss/internal/report"
)

// Result is one scenario run: the underlying DST result plus the
// per-assertion outcomes. A failed assertion surfaces as a Violation
// on the DST result (named "assert-<check>"), so the one failure
// channel covers built-in invariants and scenario assertions alike.
type Result struct {
	Name  string
	Seed  int64
	Hosts int
	DST   *dst.Result
	// Asserts holds every evaluated assertion in evaluation order:
	// timed probes first (At >= 0), then the final list (At = -1).
	Asserts []AssertResult
	// Notes are workload-specific summary lines (the table2 workload's
	// convergence and error against the local run) that Format prints
	// and Report carries.
	Notes []string
}

// AssertResult is one evaluated assertion.
type AssertResult struct {
	At     time.Duration // virtual instant; -1 for a final assertion
	Desc   string
	OK     bool
	Detail string // what the probe actually saw
	Line   int
}

// probe is the read-only cluster view an assertion evaluates against.
// The DST cluster implements it through clusterProbe; the table2
// workload's chaosRun provides its own.
type probe interface {
	// Counter reads one metric counter of the run.
	Counter(key string) int64
	// BoundHost reports which machine a shared procedure is bound to,
	// "" when unbound or unsupported by the workload.
	BoundHost(proc string) string
	// ViolationText is the first invariant failure so far, "" on a
	// clean run.
	ViolationText() string
}

// Run compiles and executes a scenario. The error return is for
// harness failures (bad spec, cluster bring-up); assertion failures
// and invariant violations land in Result.DST.Violation instead.
func Run(spec *Spec) (*Result, error) {
	plan, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	switch spec.Workload {
	case "table2":
		return runTable2(plan)
	default:
		return runPlan(plan)
	}
}

func runPlan(plan *Plan) (*Result, error) {
	spec := plan.Spec
	cfg := dst.Config{
		Seed:           spec.Seed,
		Fleet:          plan.Boot,
		SeriesInterval: spec.SeriesInterval,
		Standby:        spec.Standby,
		Health:         spec.Health,
	}
	c, err := dst.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: spec.Name, Seed: spec.Seed, Hosts: plan.HostCount}

	for _, st := range plan.steps {
		if c.Violation() != nil {
			break
		}
		if d := st.at - c.Elapsed(); d > 0 {
			c.Sleep(d)
		}
		switch st.kind {
		case stepJoin:
			if err := c.AddHost(st.host, st.arch); err != nil {
				c.Finish()
				return nil, fmt.Errorf("line %d: joining host %q: %w", st.line, st.host, err)
			}
		case stepOp:
			c.Apply(st.op)
		case stepAssert:
			fileAssert(c, st.as, st.at, res)
		}
	}

	// Cover the declared duration even if the script ended early, then
	// run the final convergence invariant and the final assertions.
	if c.Violation() == nil {
		if d := spec.Duration - c.Elapsed(); d > 0 {
			c.Sleep(d)
		}
	}
	c.Converge()
	for _, a := range spec.Asserts {
		fileAssert(c, a, -1, res)
	}
	res.DST = c.Finish()
	return res, nil
}

// clusterProbe adapts the DST cluster to the probe interface.
type clusterProbe struct{ c *dst.Cluster }

func (p clusterProbe) Counter(key string) int64     { return p.c.Counter(key) }
func (p clusterProbe) BoundHost(proc string) string { return p.c.BoundHost(proc) }
func (p clusterProbe) ViolationText() string {
	if v := p.c.Violation(); v != nil {
		return v.String()
	}
	return ""
}

// fileAssert evaluates one assertion against the live cluster and, on
// the first failure, files a violation — same channel, same
// flight-recorder event, as a built-in invariant — which also stops
// the timeline.
func fileAssert(c *dst.Cluster, a AssertSpec, at time.Duration, res *Result) {
	r := evalAssert(clusterProbe{c}, a, at)
	res.Asserts = append(res.Asserts, r)
	if !r.OK && c.Violation() == nil {
		c.Violate("assert-"+a.Check, fmt.Sprintf("line %d: %s: got %s", a.Line, r.Desc, r.Detail))
	}
}

// evalAssert runs one assertion against a probe. Shared between the
// DST runner and the table2 workload.
func evalAssert(p probe, a AssertSpec, at time.Duration) AssertResult {
	r := AssertResult{At: at, Desc: describeAssert(a), Line: a.Line}
	switch a.Check {
	case "no_violation", "converged":
		// "converged" differs from "no_violation" only in when it is
		// meaningful: it is evaluated after convergence, so a clean
		// verdict means the workload answered correctly with every
		// fault lifted.
		if v := p.ViolationText(); v != "" {
			r.Detail = v
		} else {
			r.OK = true
			r.Detail = "no violation"
		}
	case "counter":
		got := p.Counter(a.Key)
		r.Detail = fmt.Sprintf("%s = %d", a.Key, got)
		r.OK = (a.Min == nil || got >= *a.Min) && (a.Max == nil || got <= *a.Max)
	case "bound_host":
		got := p.BoundHost(a.Proc)
		r.Detail = fmt.Sprintf("%q bound to %q", a.Proc, got)
		r.OK = got == a.Host
	}
	return r
}

// describeAssert renders an assertion for the result table.
func describeAssert(a AssertSpec) string {
	switch a.Check {
	case "counter":
		s := "counter " + a.Key
		if a.Min != nil {
			s += fmt.Sprintf(" >= %d", *a.Min)
		}
		if a.Max != nil {
			s += fmt.Sprintf(" <= %d", *a.Max)
		}
		return s
	case "bound_host":
		return fmt.Sprintf("%q bound to %q", a.Proc, a.Host)
	}
	return a.Check
}

// Format renders a run for the terminal: header, assertion table, and
// either the all-clear or the violating event with the seed needed to
// reproduce it.
func Format(res *Result) string {
	var b strings.Builder
	d := res.DST
	fmt.Fprintf(&b, "scenario %q: seed %d, %d hosts, %d ops, %v virtual in %v real\n",
		res.Name, res.Seed, res.Hosts, len(d.Ops),
		d.VirtualElapsed.Round(time.Millisecond), d.RealElapsed.Round(time.Millisecond))
	keys := make([]string, 0, len(d.Signature))
	for k := range d.Signature {
		if d.Signature[k] != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-40s %d\n", k, d.Signature[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for _, a := range res.Asserts {
		verdict := "ok  "
		if !a.OK {
			verdict = "FAIL"
		}
		when := "final"
		if a.At >= 0 {
			when = "at " + a.At.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "  assert %s  %-8s %s (%s)\n", verdict, when, a.Desc, a.Detail)
	}
	if d.Violation == nil {
		fmt.Fprintf(&b, "scenario %q passed: all invariants and assertions held\n", res.Name)
	} else {
		fmt.Fprintf(&b, "scenario %q FAILED: %s\n", res.Name, d.Violation)
		b.WriteString(d.FlightDump)
		fmt.Fprintf(&b, "reproduce with: npss-exp -exp scenario -f <file> (seed %d in the file)\n", res.Seed)
	}
	return b.String()
}

// Report assembles the per-run HTML/JSON report bundle: the windowed
// series sampled on the virtual clock with the run's cluster-shape
// transitions overlaid, and the assertion outcomes as notes.
func Report(res *Result) *report.Data {
	d := &report.Data{
		Title:   fmt.Sprintf("scenario %q seed=%d hosts=%d", res.Name, res.Seed, res.Hosts),
		Series:  res.DST.Series,
		Events:  res.DST.Events,
		Profile: res.DST.Profile,
	}
	d.Notes = append(d.Notes, fmt.Sprintf("%d ops over %v virtual time (%v real)",
		len(res.DST.Ops), res.DST.VirtualElapsed.Round(time.Millisecond), res.DST.RealElapsed.Round(time.Millisecond)))
	d.Notes = append(d.Notes, res.Notes...)
	for _, a := range res.Asserts {
		verdict := "ok"
		if !a.OK {
			verdict = "FAIL"
		}
		when := "final"
		if a.At >= 0 {
			when = "at " + a.At.Round(time.Millisecond).String()
		}
		d.Notes = append(d.Notes, fmt.Sprintf("assert %s (%s): %s — %s", verdict, when, a.Desc, a.Detail))
	}
	if v := res.DST.Violation; v != nil {
		d.Notes = append(d.Notes, "VIOLATION: "+v.String())
	}
	return d
}
