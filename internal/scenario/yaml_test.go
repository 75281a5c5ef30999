package scenario

import (
	"strings"
	"testing"
	"time"
)

// minimal is the smallest scenario the strict decoder accepts; error
// tests splice malformed fragments into copies of it.
const minimal = `name: t
duration: 2s
fleet:
  hosts:
    - name: a
      arch: rs6000
    - name: b
      arch: sparc
`

func TestDecodeMinimal(t *testing.T) {
	spec, err := Decode([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "t" || spec.Duration != 2*time.Second {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", spec.Seed)
	}
	if len(spec.Fleet.Hosts) != 2 || spec.Fleet.Hosts[1].Arch != "sparc" {
		t.Fatalf("hosts = %+v", spec.Fleet.Hosts)
	}
}

func TestDecodeFull(t *testing.T) {
	spec, err := Decode([]byte(`# full-surface scenario
name: "quoted name"       # inline comment
seed: 1993
duration: 90s
series_interval: 250ms
health: off
standby: yes

fleet:
  count: 5
  ramp: 2s
  cold_start_mean: 100ms
  cold_start_stddev: 40ms
  templates:
    - name: rs
      arch: rs6000
      weight: 3
    - name: cray
      arch: cray-ymp
  hosts:
    - name: anchor
      arch: sparc

events:
  - at: 500ms
    action: work
    n: 4
  - at: 2s
    action: crash_host
    host: rs-1

stress:
  - at: 5s
    duration: 10s
    ops: 40
    failure_rate: 0.25
    seed: 7

assertions:
  - converged
  - check: counter
    key: dst.calls.ok
    min: 3
    max: 500
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "quoted name" {
		t.Errorf("name = %q", spec.Name)
	}
	if spec.Health == nil || spec.Health.Interval >= 0 {
		t.Errorf("health: off should map to a negative interval, got %+v", spec.Health)
	}
	if !spec.Standby {
		t.Error("standby not decoded")
	}
	if spec.Fleet.Count != 5 || len(spec.Fleet.Templates) != 2 || spec.Fleet.Templates[0].Weight != 3 {
		t.Errorf("fleet = %+v", spec.Fleet)
	}
	if spec.Fleet.Templates[1].Weight != 1 {
		t.Errorf("default template weight = %d, want 1", spec.Fleet.Templates[1].Weight)
	}
	if len(spec.Events) != 2 || spec.Events[0].N != 4 || spec.Events[1].Host != "rs-1" {
		t.Errorf("events = %+v", spec.Events)
	}
	if len(spec.Stress) != 1 || !spec.Stress[0].SeedSet || spec.Stress[0].Seed != 7 {
		t.Errorf("stress = %+v", spec.Stress)
	}
	if len(spec.Asserts) != 2 || spec.Asserts[0].Check != "converged" || spec.Asserts[1].Key != "dst.calls.ok" {
		t.Errorf("asserts = %+v", spec.Asserts)
	}
	if spec.Asserts[1].Min == nil || *spec.Asserts[1].Min != 3 || spec.Asserts[1].Max == nil || *spec.Asserts[1].Max != 500 {
		t.Errorf("counter bounds = %+v", spec.Asserts[1])
	}
}

// TestDecodeErrors is the malformed-input table: every rejection must
// carry the offending line number so a thousand-line scenario file is
// debuggable from the error alone.
func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // must appear in the error, including the "line N" prefix
	}{
		{
			"tab indent",
			"name: t\nduration: 2s\nfleet:\n\thosts: x\n",
			`line 4: tab in indentation`,
		},
		{
			"bad indent",
			"name: t\nduration: 2s\nfleet:\n  count: 2\n   ramp: 1s\n",
			`line 5: unexpected indent`,
		},
		{
			"indent under scalar",
			"name: t\nduration: 2s\nseed: 3\n  extra: 1\nfleet:\n  hosts: x\n",
			`line 4: unexpected indent under scalar value of "seed"`,
		},
		{
			"duplicate key",
			"name: t\nname: u\nduration: 2s\n",
			`line 2: duplicate key "name" (first at line 1)`,
		},
		{
			"missing space after colon",
			"name:t\n",
			`line 1: missing space after "name:"`,
		},
		{
			"key without value",
			"name: t\nduration: 2s\nfleet:\nevents:\n",
			`line 3: key "fleet" has no value`,
		},
		{
			"unknown top-level key",
			minimal + "frobnicate: 1\n",
			`line 9: unknown key "frobnicate"`,
		},
		{
			"missing name",
			"duration: 2s\nfleet:\n  hosts:\n    - name: a\n      arch: sparc\n",
			`missing required key "name"`,
		},
		{
			"missing duration",
			"name: t\nfleet:\n  hosts:\n    - name: a\n      arch: sparc\n",
			`missing required key "duration"`,
		},
		{
			"missing fleet",
			"name: t\nduration: 2s\n",
			`missing required key "fleet"`,
		},
		{
			"bad duration",
			"name: t\nduration: fast\n",
			`line 2: duration: "fast" is not a duration`,
		},
		{
			"bad integer",
			strings.Replace(minimal, "name: t", "name: t\nseed: many", 1),
			`line 2: seed: "many" is not an integer`,
		},
		{
			"bad bool",
			minimal + "standby: maybe\n",
			`line 9: standby: "maybe" is not a boolean`,
		},
		{
			"bad health",
			minimal + "health: sometimes\n",
			`line 9: health: want "off" or a mapping of interval, threshold and ping_timeout`,
		},
		{
			"unknown action",
			minimal + "events:\n  - at: 1s\n    action: explode\n",
			`line 10: unknown action "explode"`,
		},
		{
			"event missing action",
			minimal + "events:\n  - at: 1s\n",
			`line 10: event missing "action"`,
		},
		{
			"event missing at",
			minimal + "events:\n  - action: work\n",
			`line 10: event "work" missing "at"`,
		},
		{
			"negative at",
			minimal + "events:\n  - at: -2s\n    action: work\n",
			`line 10: event "work": negative at: -2s`,
		},
		{
			"event n too large",
			minimal + "events:\n  - at: 1s\n    action: acc\n    n: 999999999\n",
			`line 10: event "acc": n 999999999 exceeds`,
		},
		{
			"fleet count too large",
			"name: t\nduration: 2s\nfleet:\n  count: 999999999\n  templates:\n    - name: rs\n      arch: rs6000\n",
			`line 4: fleet.count 999999999 exceeds`,
		},
		{
			"count without templates",
			"name: t\nduration: 2s\nfleet:\n  count: 3\n",
			`line 4: fleet.count needs fleet.templates`,
		},
		{
			"template missing arch",
			"name: t\nduration: 2s\nfleet:\n  count: 2\n  templates:\n    - name: rs\n",
			`line 6: template "rs" missing "arch"`,
		},
		{
			"stress ops too large",
			minimal + "stress:\n  - at: 0s\n    duration: 1s\n    ops: 99999999\n",
			`line 10: stress.ops 99999999 exceeds`,
		},
		{
			"stress bad failure rate",
			minimal + "stress:\n  - at: 0s\n    duration: 1s\n    ops: 5\n    failure_rate: 1.5\n",
			`line 10: stress.failure_rate must be in [0, 1]`,
		},
		{
			"unknown assertion check",
			minimal + "assertions:\n  - check: sparkles\n",
			`line 10: unknown assertion check "sparkles"`,
		},
		{
			"counter assertion without bounds",
			minimal + "assertions:\n  - check: counter\n    key: dst.calls.ok\n",
			`line 10: counter assertion needs "min" and/or "max"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.in))
			if err == nil {
				t.Fatalf("Decode accepted malformed input:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestCompileErrors covers the semantic layer: syntactically valid
// files whose host references, timing, or assertion targets are wrong.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{
			"duplicate host id",
			"name: t\nduration: 2s\nfleet:\n  hosts:\n    - name: a\n      arch: rs6000\n    - name: a\n      arch: sparc\n",
			`line 7: duplicate host id "a" (first at line 5)`,
		},
		{
			"template collides with explicit host",
			"name: t\nduration: 2s\nfleet:\n  count: 1\n  templates:\n    - name: rs\n      arch: rs6000\n  hosts:\n    - name: rs-1\n      arch: sparc\n    - name: b\n      arch: sparc\n",
			`duplicate host id "rs-1"`,
		},
		{
			"unknown arch",
			"name: t\nduration: 2s\nfleet:\n  hosts:\n    - name: a\n      arch: pdp11\n    - name: b\n      arch: sparc\n",
			`line 5: host "a"`,
		},
		{
			"single host fleet",
			"name: t\nduration: 2s\nfleet:\n  hosts:\n    - name: a\n      arch: rs6000\n",
			`fleet needs at least 2 hosts`,
		},
		{
			"unknown event host",
			minimal + "events:\n  - at: 1s\n    action: crash_host\n    host: ghost\n",
			`line 10: event "crash_host": unknown host "ghost"`,
		},
		{
			"event after duration",
			minimal + "events:\n  - at: 5s\n    action: work\n",
			`line 10: event "work" at 5s is after the scenario duration 2s`,
		},
		{
			"stress past duration",
			minimal + "stress:\n  - at: 1s\n    duration: 5s\n    ops: 5\n",
			`line 10: stress block [1s, 6s] runs past the scenario duration 2s`,
		},
		{
			"flap without for",
			minimal + "events:\n  - at: 1s\n    action: flap_link\n    host: a\n    host2: b\n",
			`line 10: flap_link needs a positive "for"`,
		},
		{
			"migrate unknown proc",
			minimal + "events:\n  - at: 1s\n    action: migrate_proc\n    proc: acc\n    host: b\n",
			`line 10: migrate_proc: only the shared "work" procedure migrates`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Decode([]byte(tc.in))
			if err != nil {
				t.Fatalf("Decode rejected input meant for Compile: %v", err)
			}
			_, err = Compile(spec)
			if err == nil {
				t.Fatalf("Compile accepted bad scenario:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestCompileFleetApportionment pins the largest-remainder expansion
// and the two-boot-host floor.
func TestCompileFleetApportionment(t *testing.T) {
	spec, err := Decode([]byte(`name: t
duration: 10s
fleet:
  count: 10
  ramp: 5s
  templates:
    - name: rs
      arch: rs6000
      weight: 7
    - name: cray
      arch: cray-ymp
      weight: 3
`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.HostCount != 10 {
		t.Fatalf("HostCount = %d", plan.HostCount)
	}
	var rs, cray int
	for _, h := range plan.Boot {
		switch {
		case strings.HasPrefix(h.Name, "rs-"):
			rs++
		case strings.HasPrefix(h.Name, "cray-"):
			cray++
		}
	}
	joins := 0
	for _, st := range plan.steps {
		if st.kind == stepJoin {
			joins++
			switch {
			case strings.HasPrefix(st.host, "rs-"):
				rs++
			case strings.HasPrefix(st.host, "cray-"):
				cray++
			}
		}
	}
	if rs != 7 || cray != 3 {
		t.Fatalf("apportionment rs=%d cray=%d, want 7/3", rs, cray)
	}
	if len(plan.Boot) < 2 {
		t.Fatalf("boot hosts = %d, want >= 2 (work/acc placement)", len(plan.Boot))
	}
	if len(plan.Boot)+joins != 10 {
		t.Fatalf("boot %d + joins %d != 10", len(plan.Boot), joins)
	}
}
