package clitest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"npss/internal/telemetry"
	"npss/internal/trace"
)

// TestNpssExpMetricsExport checks -metrics: the aggregated snapshot
// written next to the experiment output parses and carries the
// cluster's call counters and latency histograms.
func TestNpssExpMetricsExport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := build(t, "npss/cmd/npss-exp")
	metricsFile := filepath.Join(t.TempDir(), "table2-metrics.json")
	out := run(t, bin, "-exp", "table2", "-parallel", "-transient", "0.02", "-metrics", metricsFile)
	if !strings.Contains(out, "wrote") || !strings.Contains(out, "histograms") {
		t.Errorf("output missing the -metrics note:\n%.2000s", out)
	}

	data, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var snap trace.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file does not parse: %v", err)
	}
	if snap.Counters["schooner.client.calls"] == 0 {
		t.Errorf("no client calls in exported metrics: %v", snap.Counters)
	}
	h, ok := snap.Hists["schooner.client.call"]
	if !ok || h.Count == 0 || h.Sum < h.Count*int64(h.Min) {
		t.Errorf("exported latency histogram malformed: %+v", h)
	}
	// The export renders into a valid Prometheus exposition too.
	var b strings.Builder
	if err := snap.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint([]byte(b.String())); err != nil {
		t.Errorf("exported metrics fail exposition lint: %v", err)
	}
}

// TestNpssExpTelemetryChaos is the live-cluster proof: one run of the
// shipped chaos scenario with -telemetry must yield three correlated
// artifacts — a parseable Prometheus scrape taken while the faults
// were live, a flight recorder dump whose events carry trace IDs, and
// a span timeline sharing those IDs — and a report titled with the
// file's seed.
func TestNpssExpTelemetryChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs a multi-second experiment")
	}
	bin := build(t, "npss/cmd/npss-exp")
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "chaos-timeline.json")
	htmlFile := filepath.Join(dir, "chaos-report.html")

	// The paper's one-second transient: on the virtual clock the run
	// costs only its computation, a few seconds of wall time, which is
	// the window the scrape below has.
	cmd := exec.Command(bin, "-exp", "scenario", "-f", filepath.Join(repoRoot(t), "scenarios", "chaos-table2.yaml"),
		"-trace", traceFile, "-report", htmlFile, "-telemetry", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon-style startup line carries the resolved listen address.
	addrRe := regexp.MustCompile(`telemetry listening.*addr=([0-9.:]+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("telemetry listener address never logged")
	}

	// Scrape while the chaos run is live: poll until the exposition
	// carries the call metrics and lints, and the flight ring has
	// traced events. A scrape before the first call lints too (its one
	// sample is npss_metrics_keys), so lint alone does not wait.
	var scrape, flightDump string
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && (scrape == "" || flightDump == "") {
		if scrape == "" {
			if body, err := httpGet(addr, "/metrics"); err == nil && strings.Contains(body, "schooner_client_call") {
				if err := telemetry.Lint([]byte(body)); err != nil {
					t.Fatalf("live scrape fails lint: %v\n%.2000s", err, body)
				}
				scrape = body
			}
		}
		if flightDump == "" {
			if body, err := httpGet(addr, "/flightz"); err == nil &&
				regexp.MustCompile(`trace=[0-9a-f]*[1-9a-f]`).MatchString(body) {
				flightDump = body
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if scrape == "" {
		t.Fatal("no /metrics scrape with the call metrics during the chaos run")
	}
	if flightDump == "" {
		t.Fatal("no /flightz dump with traced events during the chaos run")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("chaos run failed: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "converged=true") {
		t.Fatalf("chaos run did not converge:\n%s", stdout.String())
	}
	if page, err := os.ReadFile(htmlFile); err != nil || !strings.Contains(string(page), "seed=1993") {
		t.Errorf("report missing or not titled with the file's seed 1993 (err %v)", err)
	}

	// The timeline written at exit must share trace IDs with the
	// flight dump scraped mid-run.
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	timelineTraces := map[string]bool{}
	for _, e := range dump.TraceEvents {
		if e.Ph == "X" && e.Args["trace"] != "" {
			timelineTraces[e.Args["trace"]] = true
		}
	}
	flightTraceRe := regexp.MustCompile(`trace=([0-9a-f]{16})`)
	shared := 0
	for _, m := range flightTraceRe.FindAllStringSubmatch(flightDump, -1) {
		// The flight dump zero-pads IDs; the timeline does not.
		id := strings.TrimLeft(m[1], "0")
		if id != "" && timelineTraces[id] {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("no trace ID shared between the flight dump (%d traced events) and the timeline (%d traces)",
			len(flightTraceRe.FindAllString(flightDump, -1)), len(timelineTraces))
	}
}

func httpGet(addr, path string) (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
