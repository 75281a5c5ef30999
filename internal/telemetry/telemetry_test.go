package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"npss/internal/critpath"
	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/schooner"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/vclock"
)

func sampleSet() *trace.Set {
	s := trace.NewSet()
	s.Add("schooner.client.calls", 42)
	s.Add("schooner.client.calls{proc=add}", 7)
	s.Add("netsim.drops", 3)
	s.Observe("schooner.client.call", 150*time.Microsecond)
	s.Observe("schooner.client.call", 300*time.Microsecond)
	s.Observe("schooner.client.call{proc=add}", 200*time.Microsecond)
	return s
}

func sampleSnapshot() trace.MetricsSnapshot { return sampleSet().Export() }

// fetch gets one endpoint of a running telemetry server.
func fetch(t *testing.T, srv *Server, path string) string {
	t.Helper()
	body, _ := get(t, srv, path)
	return string(body)
}

// get fetches one telemetry path, returning its body and Content-Type.
func get(t *testing.T, srv *Server, path string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return body, resp.Header.Get("Content-Type")
}

func TestWritePromAndLint(t *testing.T) {
	var b strings.Builder
	if err := sampleSnapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE npss_metrics_keys gauge\nnpss_metrics_keys 5\n",
		"# TYPE netsim_drops counter",
		"netsim_drops 3",
		"# TYPE schooner_client_calls counter",
		"schooner_client_calls 42",
		`schooner_client_calls{proc="add"} 7`,
		"# TYPE schooner_client_call summary",
		`schooner_client_call{quantile="0.95"}`,
		"schooner_client_call_sum", "schooner_client_call_count 2",
		`schooner_client_call_count{proc="add"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint rejects our own writer: %v\n%s", err, out)
	}
	// Deterministic output.
	var b2 strings.Builder
	sampleSnapshot().WriteProm(&b2)
	if b2.String() != out {
		t.Errorf("metrics WriteProm not deterministic")
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "foo 1\n",
		"bad value":      "# TYPE foo counter\nfoo abc\n",
		"bad name":       "# TYPE 9foo counter\n9foo 1\n",
		"dup TYPE":       "# TYPE foo counter\nfoo 1\n# TYPE foo counter\nfoo 2\n",
		"unclosed label": "# TYPE foo counter\nfoo{a=\"b 1\n",
		"no samples":     "# TYPE foo counter\n",
		"TYPE after use": "# TYPE foo counter\nfoo 1\nbar 2\n# TYPE bar counter\n",
	}
	for name, in := range cases {
		if err := Lint([]byte(in)); err == nil {
			t.Errorf("%s: lint accepted malformed exposition:\n%s", name, in)
		}
	}
}

func TestLintAcceptsTimestampsAndHelp(t *testing.T) {
	in := "# HELP foo a counter\n# TYPE foo counter\nfoo{a=\"b\\\"c\"} 1 1700000000\n"
	if err := Lint([]byte(in)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

func TestServerEndpoints(t *testing.T) {
	oldFlight := flight.Swap(flight.NewRecorder(16))
	defer flight.Swap(oldFlight)
	flight.Record(flight.Event{Kind: flight.KindNote, Component: "test", Name: "hello-flight"})
	defer trace.Swap(trace.Swap(sampleSet()))

	srv, err := Start("127.0.0.1:0", Config{
		Status: func() string { return "status-body-here" },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string { return fetch(t, srv, path) }

	if got := get("/metrics"); !strings.Contains(got, "schooner_client_calls 42") {
		t.Errorf("/metrics missing counter:\n%s", got)
	} else if err := Lint([]byte(got)); err != nil {
		t.Errorf("/metrics fails lint: %v", err)
	}
	if got := get("/statusz"); got != "status-body-here" {
		t.Errorf("/statusz = %q", got)
	}
	if got := get("/flightz"); !strings.Contains(got, "hello-flight") {
		t.Errorf("/flightz missing event:\n%s", got)
	}
	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Errorf("pprof cmdline empty")
	}
}

func sampleSeries() tseries.Series {
	return tseries.Series{Interval: int64(250 * time.Millisecond), Windows: []tseries.Window{
		{Seq: 0, Start: vclock.Epoch1993, Dur: int64(250 * time.Millisecond),
			Counters: map[string]int64{"schooner.client.calls{host=cray}": 25}},
		{Seq: 1, Start: vclock.Epoch1993.Add(250 * time.Millisecond), Dur: int64(250 * time.Millisecond),
			Counters: map[string]int64{
				"schooner.client.calls{host=cray}": 50,
				"netsim.drops":                     2,
			},
			Hists: map[string]tseries.WindowHist{
				"schooner.client.call{proc=add}": {
					Count: 50, Sum: int64(10 * time.Millisecond),
					P50: int64(150 * time.Microsecond), P95: int64(400 * time.Microsecond), P99: int64(2 * time.Millisecond),
					Exemplars: []tseries.Exemplar{{Dur: int64(2 * time.Millisecond), Trace: 0xa1, Span: 0xb2}},
				},
			}},
	}}
}

func TestWriteSeriesPromAndLint(t *testing.T) {
	var b strings.Builder
	if err := sampleSeries().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE npss_series_windows gauge",
		"npss_series_windows 2",
		"# TYPE schooner_client_calls_rate gauge",
		`schooner_client_calls_rate{host="cray"} 200`,
		"netsim_drops_rate 8",
		`schooner_client_call_window{proc="add",quantile="0.99"} 0.002`,
		`schooner_client_call_window_count{proc="add"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("series exposition fails lint: %v\n%s", err, out)
	}
}

func TestWriteSeriesPromEmptyStillLints(t *testing.T) {
	var b strings.Builder
	if err := (tseries.Series{}).WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("empty series exposition fails lint: %v\n%s", err, b.String())
	}
}

// activateSampleSampler runs a sampler on a virtual clock through two
// windows shaped like sampleSeries's and installs it as the active one.
func activateSampleSampler(t *testing.T) {
	v := vclock.NewVirtual()
	set := trace.NewSet()
	s := tseries.Start(tseries.Config{Interval: 250 * time.Millisecond, Clock: v, Source: set.Export})
	prev := tseries.SetActive(s)
	t.Cleanup(func() {
		tseries.SetActive(prev)
		s.Stop()
		if err := v.Stop(); err != nil {
			t.Error(err)
		}
	})
	set.Add("schooner.client.calls{host=cray}", 25)
	v.Sleep(300 * time.Millisecond)
	set.Add("schooner.client.calls{host=cray}", 50)
	set.Add("netsim.drops", 2)
	set.Observe("schooner.client.call{proc=add}", 2*time.Millisecond)
	tseries.Observe("schooner.client.call{proc=add}", 2*time.Millisecond, 0xa1, 0xb2)
	v.Sleep(250 * time.Millisecond)
}

func TestSerieszEndpoint(t *testing.T) {
	activateSampleSampler(t)
	srv, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string { return fetch(t, srv, path) }

	prom := get("/seriesz")
	if !strings.Contains(prom, "schooner_client_calls_rate") {
		t.Errorf("/seriesz missing rate gauge:\n%s", prom)
	}
	if err := Lint([]byte(prom)); err != nil {
		t.Errorf("/seriesz fails lint: %v", err)
	}

	js := get("/seriesz?format=json")
	var got tseries.Series
	if err := json.Unmarshal([]byte(js), &got); err != nil {
		t.Fatalf("/seriesz json does not decode: %v\n%s", err, js)
	}
	if len(got.Windows) != 2 {
		t.Errorf("/seriesz json windows = %d, want 2", len(got.Windows))
	}
	if got.Windows[1].Hists["schooner.client.call{proc=add}"].Exemplars[0].Span != 0xb2 {
		t.Errorf("/seriesz json lost exemplars: %s", js)
	}
}

// sampleProfile analyzes a small span DAG so the exposition exercises
// phases, hosts, and links at once.
func sampleProfile() *critpath.Profile {
	base := time.Unix(2000, 0).UTC()
	ms := func(m int) time.Time { return base.Add(time.Duration(m) * time.Millisecond) }
	spans := []trace.SpanRecord{
		{Trace: 1, ID: 1, Name: "remote run", Host: "avs", Start: ms(0), Dur: 50 * time.Millisecond},
		{Trace: 2, ID: 2, Name: "call add", Host: "avs", Start: ms(5), Dur: 30 * time.Millisecond},
		{Trace: 2, ID: 3, Parent: 2, Name: "attempt add", Host: "avs", Start: ms(5), Dur: 28 * time.Millisecond},
		{Trace: 2, ID: 4, Parent: 3, Name: "dispatch add", Host: "cray", Start: ms(10), Dur: 18 * time.Millisecond},
		{Trace: 2, ID: 5, Parent: 4, Name: "proc add", Host: "cray", Start: ms(11), Dur: 15 * time.Millisecond},
	}
	links := map[string]critpath.LinkIO{
		"avs->cray": {Messages: 4, Bytes: 800, Delay: 20 * time.Millisecond},
	}
	return critpath.Analyze(spans, links, 0)
}

func TestWriteProfilePromAndLint(t *testing.T) {
	var b strings.Builder
	if err := sampleProfile().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE npss_profile_spans gauge",
		"npss_profile_spans 5",
		"# TYPE npss_profile_critical_path_seconds gauge",
		"npss_profile_critical_path_seconds 0.05",
		`npss_profile_phase_seconds{seq="0",phase="remote run"} 0.05`,
		`npss_profile_phase_bucket_seconds{seq="0",phase="remote run",bucket="network"}`,
		`npss_profile_host_busy_seconds{host="cray"} 0.018`,
		`npss_profile_host_depth_max{host="avs"}`,
		`npss_profile_link_bytes{link="avs->cray"} 800`,
		`npss_profile_link_delay_seconds{link="avs->cray"} 0.02`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("profile exposition fails lint: %v\n%s", err, out)
	}
	// Deterministic output.
	var b2 strings.Builder
	sampleProfile().WriteProm(&b2)
	if b2.String() != out {
		t.Error("profile WriteProm not deterministic")
	}
}

func TestWriteProfilePromEmptyStillLints(t *testing.T) {
	var b strings.Builder
	if err := critpath.Analyze(nil, nil, 0).WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("empty profile exposition fails lint: %v\n%s", err, b.String())
	}
}

// installSampleRecorder records sampleProfile's span DAG into a span
// recorder on a hand-stepped clock and installs it as the active one.
func installSampleRecorder(t *testing.T) {
	base := time.Unix(2000, 0).UTC()
	now := base
	at := func(m int) { now = base.Add(time.Duration(m) * time.Millisecond) }
	trace.SetRecorder(trace.NewRecorderClock(func() time.Time { return now }))
	t.Cleanup(func() { trace.SetRecorder(nil) })

	run := trace.StartSpan("remote run", "avs")
	at(5)
	call := trace.StartSpan("call add", "avs")
	attempt := call.Child("attempt add", "avs")
	at(10)
	dispatch := attempt.Child("dispatch add", "cray")
	at(11)
	proc := dispatch.Child("proc add", "cray")
	at(26)
	proc.End()
	at(28)
	dispatch.End()
	at(33)
	attempt.End()
	at(35)
	call.End()
	at(50)
	run.End()
}

func TestProfilezEndpoint(t *testing.T) {
	installSampleRecorder(t)
	srv, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string { return fetch(t, srv, path) }

	prom := get("/profilez")
	if !strings.Contains(prom, "npss_profile_critical_path_seconds") {
		t.Errorf("/profilez missing critical path gauge:\n%s", prom)
	}
	if err := Lint([]byte(prom)); err != nil {
		t.Errorf("/profilez fails lint: %v", err)
	}
	js := get("/profilez?format=json")
	var p critpath.Profile
	if err := json.Unmarshal([]byte(js), &p); err != nil {
		t.Fatalf("/profilez?format=json not a profile: %v", err)
	}
	if p.Total.CriticalPath != 50*time.Millisecond {
		t.Errorf("json critical path = %s, want 50ms", p.Total.CriticalPath)
	}
}

// TestIdleServerMetricsLint scrapes /metrics beside a Server that has
// served nothing: an empty metric set must still be a conforming
// exposition.
func TestIdleServerMetricsLint(t *testing.T) {
	defer trace.Swap(trace.Swap(trace.NewSet()))
	n := netsim.New()
	n.MustAddHost("rs6000", machine.RS6000)
	srv, err := schooner.StartServer(schooner.NewSimTransport(n), "rs6000", schooner.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts, err := Start("127.0.0.1:0", Config{Status: srv.StatusReport})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	body := fetch(t, ts, "/metrics")
	if err := Lint([]byte(body)); err != nil {
		t.Errorf("idle /metrics fails lint: %v\n%q", err, body)
	}
}
