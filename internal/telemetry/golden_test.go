package telemetry

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"npss/internal/flight"
	"npss/internal/trace"
)

var updateTelemetry = flag.Bool("update-telemetry", false,
	"rewrite testdata/telemetry.golden from this run")

// goldenPaths are the endpoints whose bodies and Content-Types
// testdata/telemetry.golden pins.
var goldenPaths = []string{
	"/metrics",
	"/statusz",
	"/flightz",
	"/seriesz",
	"/seriesz?format=json",
	"/profilez",
	"/profilez?format=json",
}

// TestTelemetryGolden serves a fixed state — sampleSet's metrics, a
// flight recorder on a fixed clock, sampleProfile's spans on a
// hand-stepped clock and a sampler on a virtual clock — and compares
// every plane endpoint's Content-Type and body byte for byte against
// testdata/telemetry.golden (-update-telemetry rewrites it).
func TestTelemetryGolden(t *testing.T) {
	defer trace.Swap(trace.Swap(sampleSet()))
	at := time.Date(1993, 7, 1, 0, 0, 8, 0, time.UTC)
	defer flight.Swap(flight.Swap(flight.NewRecorderClock(16, func() time.Time { return at })))
	flight.Record(flight.Event{Kind: flight.KindSpawn, Component: "server", Host: "cray-lerc", Name: "/npss/adder"})
	flight.Record(flight.Event{Kind: flight.KindCallAttempt, Component: "client", Host: "avs-sparc",
		Line: 1, Trace: 0xa1, Span: 0xb2, Name: "add"})
	activateSampleSampler(t)
	installSampleRecorder(t)

	srv, err := Start("127.0.0.1:0", Config{
		Status: func() string { return "schooner server on cray-lerc: 0 processes\n" },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var b strings.Builder
	for _, path := range goldenPaths {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		fmt.Fprintf(&b, "== GET %s ==\nstatus: %d\ncontent-type: %s\n%s", path,
			resp.StatusCode, resp.Header.Get("Content-Type"), body)
		if !strings.HasSuffix(string(body), "\n") {
			b.WriteString("\n(no trailing newline)\n")
		}
	}
	got := b.String()

	const golden = "testdata/telemetry.golden"
	if *updateTelemetry {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("telemetry bodies differ from %s\n--- want\n%s\n--- got\n%s", golden, want, got)
	}
}
