package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"npss/internal/trace"
)

// TestDSTMetricsFile: -exp dst -metrics writes the run's counters. The
// run keeps them in a metric set of its own, so the file holds them
// only if the dst experiment merges that set's snapshot.
func TestDSTMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	args, stdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = args, stdout }()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Args = []string{"npss-exp", "-exp", "dst", "-seed", "1", "-ops", "20", "-log-level", "error", "-metrics", path}
	os.Stdout = devnull
	main()
	os.Stdout = stdout
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap trace.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["schooner.client.calls"] == 0 {
		t.Errorf("metrics file holds no schooner.client.calls: %s", data)
	}
}
