package clitest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"npss/internal/report"
)

// TestNpssExpChaosReport is the report plane's end-to-end proof: one
// run of the chaos scenario with -report/-report-json/-trace must
// yield a self-contained HTML report whose per-host timeline shows the
// crashed machine's calls stopping mid-run, and whose tail-latency
// exemplars carry span IDs that resolve in the same run's Chrome
// timeline. The run is the shipped file with its transient cut to
// 100 ms and the crash kept at the middle.
func TestNpssExpChaosReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs a multi-second experiment")
	}
	bin := build(t, "npss/cmd/npss-exp")
	dir := t.TempDir()
	htmlFile := filepath.Join(dir, "chaos-report.html")
	jsonFile := filepath.Join(dir, "chaos-report.json")
	traceFile := filepath.Join(dir, "chaos-timeline.json")
	shipped, err := os.ReadFile(filepath.Join(repoRoot(t), "scenarios", "chaos-table2.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	short := string(shipped)
	for old, new := range map[string]string{"\nduration: 1s\n": "\nduration: 100ms\n", "- at: 500ms\n": "- at: 50ms\n"} {
		if !strings.Contains(short, old) {
			t.Fatalf("shipped chaos-table2.yaml lacks %q", old)
		}
		short = strings.Replace(short, old, new, 1)
	}
	scenarioFile := filepath.Join(dir, "chaos-table2.yaml")
	if err := os.WriteFile(scenarioFile, []byte(short), 0o644); err != nil {
		t.Fatal(err)
	}

	out := run(t, bin, "-exp", "scenario", "-f", scenarioFile,
		"-trace", traceFile, "-report", htmlFile, "-report-json", jsonFile)
	if !strings.Contains(out, "converged=true") {
		t.Fatalf("chaos run did not converge:\n%s", out)
	}
	if !strings.Contains(out, "wrote report") {
		t.Fatalf("report note missing from output:\n%s", out)
	}

	// The HTML report: self-contained, with the load timeline and the
	// crashed host in it.
	html, err := os.ReadFile(htmlFile)
	if err != nil {
		t.Fatal(err)
	}
	page := string(html)
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "rs6000-lerc", "Tail-latency exemplars", "chaos-timeline.json", "seed=1993"} {
		if !strings.Contains(page, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "<script", "src=", "@import"} {
		if strings.Contains(page, banned) {
			t.Errorf("report not self-contained: found %q", banned)
		}
	}

	// The JSON bundle: the series must show the crash — the RS/6000
	// takes calls early and none after the failover settles.
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	var d report.Data
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("report bundle does not parse: %v", err)
	}
	n := len(d.Series.Windows)
	if n < 4 {
		t.Fatalf("series has only %d windows", n)
	}
	const crashedKey = "schooner.client.calls{host=rs6000-lerc}"
	var before, tail int64
	for i, w := range d.Series.Windows {
		if i >= n-3 {
			tail += w.Counters[crashedKey]
		} else {
			before += w.Counters[crashedKey]
		}
	}
	if before == 0 {
		keys := map[string]bool{}
		for _, w := range d.Series.Windows {
			for k := range w.Counters {
				keys[k] = true
			}
		}
		t.Errorf("no calls to the crashed host before the crash; series counter keys: %v", keys)
	}
	if tail != 0 {
		t.Errorf("crashed host still serving %d calls in the final windows", tail)
	}

	// Exemplars link into the timeline: at least one captured span ID
	// must appear among the timeline's span args (non-padded hex on
	// both sides).
	timeline, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	spans := make(map[string]bool)
	for _, m := range regexp.MustCompile(`"span":"([0-9a-f]+)"`).FindAllSubmatch(timeline, -1) {
		spans[string(m[1])] = true
	}
	exemplars, resolved := 0, 0
	for _, w := range d.Series.Windows {
		for _, h := range w.Hists {
			for _, ex := range h.Exemplars {
				exemplars++
				if ex.Span != 0 && spans[fmt.Sprintf("%x", ex.Span)] {
					resolved++
				}
			}
		}
	}
	if exemplars == 0 {
		t.Fatal("no exemplars captured in the series")
	}
	if resolved == 0 {
		t.Errorf("none of %d exemplar span IDs resolve in the timeline", exemplars)
	}
}
