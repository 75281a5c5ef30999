package dst

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fingerprint renders everything a run reports that is meant to be a
// function of the seed: schedule, outcomes, every signature counter,
// the windowed series and the critical-path profile.
func fingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(FormatTrace(res.Seed, res.Ops))
	b.WriteString(strings.Join(res.Outcomes, "\n"))
	keys := make([]string, 0, len(res.Signature))
	for k := range res.Signature {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\n%s=%d", k, res.Signature[k])
	}
	fmt.Fprintf(&b, "\nvirtual=%v violation=%v\n", res.VirtualElapsed, res.Violation)
	series, err := res.Series.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b.Write(series)
	profile, err := res.Profile.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b.Write(profile)
	return b.Bytes()
}

// TestSameBytesAtAnyGOMAXPROCS is the determinism contract stated the
// way a user of "-seed N" relies on it: the same seed yields the same
// bytes whether the Go scheduler has one thread or eight, because the
// order of events comes from the virtual clock's ledger and never from
// which goroutine the runtime happened to run first. DST_PROCS_SEEDS
// widens the sweep (CI runs 200).
func TestSameBytesAtAnyGOMAXPROCS(t *testing.T) {
	defer Watchdog(5 * time.Minute)()
	seeds := 20
	if s := os.Getenv("DST_PROCS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("DST_PROCS_SEEDS=%q: %v", s, err)
		}
		seeds = n
	}
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := Config{Seed: seed, Ops: 30, SeriesInterval: 50 * time.Millisecond,
			Profile: true, Standby: seed%4 == 0}
		var want []byte
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			res, err := Run(cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("seed %d at GOMAXPROCS=%d: %v", seed, procs, err)
			}
			got := fingerprint(t, res)
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Fatalf("seed %d: GOMAXPROCS=1 and GOMAXPROCS=%d disagree:\n--- 1\n%s\n--- %d\n%s",
					seed, procs, want, procs, got)
			}
		}
	}
}

// TestStuckReportNamesHolders checks the hang diagnostic on a live
// cluster: the ledger names the driver as the one runnable participant
// and the cluster's parked loops by site, and the report reaches the
// flight recorder.
func TestStuckReportNamesHolders(t *testing.T) {
	if StuckReport() != "" {
		t.Fatal("a report with no run in progress")
	}
	c, err := NewCluster(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	report := StuckReport()
	res := c.Finish()
	for _, want := range []string{
		"busy holders: driver × 1; parked:",
		"schooner.Manager.healthLoop × 1",
		"schooner.Server.acceptLoop × 4",
		"note          dst stuck at +",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	if StuckReport() != "" {
		t.Fatal("a report after the run finished")
	}
}
