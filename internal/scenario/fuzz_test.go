package scenario

import (
	"strings"
	"testing"
)

// FuzzParseScenario throws arbitrary bytes at the full decode+compile
// front end. The contract under fuzzing: never panic, never allocate
// proportionally to a number found in the input (the maxFleet /
// maxStressOps / maxEventN ceilings), and every rejection is an error
// string carrying a "line N:" location.
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(minimal))
	f.Add([]byte("name: s\nseed: 9\nduration: 4s\nhealth: off\nfleet:\n  count: 3\n  ramp: 1s\n  templates:\n    - name: rs\n      arch: rs6000\n"))
	f.Add([]byte(minimal + "events:\n  - at: 1s\n    action: crash_host\n    host: a\n"))
	f.Add([]byte(minimal + "stress:\n  - at: 0s\n    duration: 2s\n    ops: 10\n    failure_rate: 0.5\n"))
	f.Add([]byte(minimal + "assertions:\n  - converged\n  - check: counter\n    key: dst.calls.ok\n    min: 1\n"))
	f.Add([]byte(strings.Replace(minimal, "duration: 2s", "duration: 2s\nworkload: table2", 1) +
		"faults:\n  - from: a\n    to: b\n    loss: 0.01\n    jitter: 200us\n    flap_every: 400\n    flap_len: 3\n" +
		"policy:\n  timeout: 250ms\n  retries: 12\n  backoff: 10ms\n  max_backoff: 1s\n" +
		"health:\n  interval: 100ms\n  threshold: 3\n  ping_timeout: 250ms\n"))
	// Malformed seeds steer the fuzzer at the error paths.
	f.Add([]byte("name: t\nduration: 2s\nfleet:\n\thosts: x\n"))
	f.Add([]byte("name: t\nname: u\n"))
	f.Add([]byte(minimal + "events:\n  - at: -2s\n    action: work\n"))
	f.Add([]byte(minimal + "events:\n  - at: 1s\n    action: explode\n"))
	f.Add([]byte("fleet:\n  count: 999999999\n"))
	f.Add([]byte("- a\n- b\n"))
	f.Add([]byte(":\n"))
	f.Add([]byte("\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Decode(data)
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error without a line location: %q", err)
			}
			return
		}
		// A decoded spec must compile or fail cleanly; either way no
		// panics and no unbounded allocation.
		if _, err := Compile(spec); err != nil && !strings.Contains(err.Error(), "line ") {
			t.Fatalf("compile error without a line location: %q", err)
		}
	})
}
