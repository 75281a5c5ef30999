package exper_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"npss/internal/flight"
	"npss/internal/scenario"
)

// TestTable2ScenarioSameBytesAtAnyGOMAXPROCS is the chaos-table2 case
// of dst's determinism contract: the same scenario file yields the same
// fingerprint, series and flight events whether the Go scheduler has
// one thread or eight.
func TestTable2ScenarioSameBytesAtAnyGOMAXPROCS(t *testing.T) {
	spec := shortTable2Scenario(t)
	spec.SeriesInterval = 50 * time.Millisecond
	var want []byte
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := scenario.Run(spec)
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

// TestScenarioGoldens runs every file of the scenario corpus and diffs
// its fingerprint against scenarios/expect/<name>.yaml, as
// `npss-exp -exp scenario -f <file> -expect <golden>` does.
func TestScenarioGoldens(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files in %s: %v", dir, err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".yaml")
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if v := res.DST.Violation; v != nil {
				t.Errorf("invariant violated: %v", v)
			}
			golden, err := os.ReadFile(filepath.Join(dir, "expect", name+".yaml"))
			if err != nil {
				t.Fatal(err)
			}
			if diff := scenario.DiffExpectation(string(golden), scenario.Expectation(spec, res)); diff != "" {
				t.Errorf("run diverged from its golden:\n%s", diff)
			}
		})
	}
}

// testbedFleet is the fleet block listing the paper's testbed.
const testbedFleet = `fleet:
  hosts:
    - name: sparc10-ua
      arch: sparc
    - name: sgi4d340-ua
      arch: sgi4d
    - name: sparc10-lerc
      arch: sparc
    - name: sgi4d480-lerc
      arch: sgi4d
    - name: sgi4d420-lerc
      arch: sgi4d
    - name: convex-lerc
      arch: convex-c220
    - name: cray-lerc
      arch: cray-ymp
    - name: rs6000-lerc
      arch: rs6000
`

// TestTable2ScenarioRejects pins the workload's scope errors: the
// chaos engine runs the paper's fixed testbed, so a fleet that is not
// that testbed, faults on other machines, and fleet-style constructs
// are line-numbered rejections, not silent no-ops. Faults and a call
// policy are table2 settings, so the dst workload rejects them.
func TestTable2ScenarioRejects(t *testing.T) {
	head := "name: t\nseed: 1\nduration: 1s\nworkload: table2\n"
	base := head + testbedFleet
	cases := []struct {
		name string
		file string
		want string
	}{
		{
			"second crash",
			base + "events:\n  - at: 100ms\n    action: crash_host\n    host: rs6000-lerc\n  - at: 200ms\n    action: crash_host\n    host: sparc10-ua\n",
			"exactly one crash_host",
		},
		{
			"unsupported action",
			base + "events:\n  - at: 100ms\n    action: manager_crash\n",
			`does not support action "manager_crash"`,
		},
		{
			"stress block",
			base + "stress:\n  - at: 0s\n    duration: 1s\n    ops: 5\n",
			"does not support stress blocks",
		},
		{
			"bound_host assert",
			base + "assertions:\n  - check: bound_host\n    proc: work\n    host: sparc10-ua\n",
			"does not support bound_host assertions",
		},
		{
			"missing fleet host",
			head + strings.Replace(testbedFleet, "    - name: cray-lerc\n      arch: cray-ymp\n", "", 1),
			`fleet lacks testbed machine "cray-lerc"`,
		},
		{
			"wrong arch",
			head + strings.Replace(testbedFleet, "arch: cray-ymp", "arch: rs6000", 1),
			`fleet host "cray-lerc": arch "rs6000"`,
		},
		{
			"extra host",
			base + "    - name: ibm-lerc\n      arch: ibm370\n",
			`fleet host "ibm-lerc" is not a testbed machine`,
		},
		{
			"fault off the testbed",
			base + "faults:\n  - from: sparc10-ua\n    to: ibm-lerc\n    loss: 0.1\n",
			`"ibm-lerc" is not a testbed machine`,
		},
		{
			"faults under dst",
			strings.Replace(base, "table2", "dst", 1) + "faults:\n  - from: sparc10-ua\n    to: rs6000-lerc\n    loss: 0.1\n",
			"only the table2 workload degrades links",
		},
		{
			"policy under dst",
			strings.Replace(base, "table2", "dst", 1) + "policy:\n  timeout: 1s\n  retries: 2\n  backoff: 1ms\n  max_backoff: 5ms\n",
			"only the table2 workload reads a call policy",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := scenario.Decode([]byte(tc.file))
			if err != nil {
				t.Fatal(err)
			}
			_, err = scenario.Run(spec)
			if err == nil {
				t.Fatal("accepted unsupported scenario")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "line ") {
				t.Fatalf("err = %q, want %q with a line number", err, tc.want)
			}
		})
	}
}

// TestCompileRejectsWhatRunRejects: `npss-exp -exp scenario -validate`
// runs Compile, so Compile holds a table2 file to the testbed and
// rejects an unknown workload, each error at its line.
func TestCompileRejectsWhatRunRejects(t *testing.T) {
	head := "name: t\nseed: 1\nduration: 1s\nworkload: table2\n"
	twoCrashes := "events:\n  - at: 100ms\n    action: crash_host\n    host: rs6000-lerc\n  - at: 200ms\n    action: crash_host\n    host: cray-lerc\n"
	for _, tc := range []struct{ name, file, want string }{
		{
			"host off the testbed",
			head + strings.Replace(testbedFleet, "sgi4d340-ua", "vax-somewhere", 1) + twoCrashes,
			`line 9: fleet host "vax-somewhere" is not a testbed machine`,
		},
		{
			"second crash",
			head + testbedFleet + twoCrashes,
			"line 27: table2 workload supports exactly one crash_host event",
		},
		{
			"unknown workload",
			strings.Replace(head, "table2", "warp", 1) + testbedFleet,
			`line 4: unknown workload "warp"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := scenario.Decode([]byte(tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scenario.Compile(spec); err == nil || err.Error() != tc.want {
				t.Fatalf("Compile err = %v, want %q", err, tc.want)
			}
		})
	}
}
