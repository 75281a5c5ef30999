// Package telemetry is the pull side of the observability plane: an
// optional HTTP listener a daemon or experiment binary opens with
// -telemetry, serving
//
//	/metrics  the live trace.Set in Prometheus text exposition format
//	/statusz  the component's plain-text status report (Config.Status)
//	/flightz  the flight recorder's recent events
//	/seriesz  the time-series sampler's latest window (Prometheus
//	          gauges; ?format=json serves the full windowed series)
//	/profilez the critical-path attribution profile of the live span
//	          recorder (Prometheus gauges; ?format=json serves the
//	          full critpath.Profile)
//	/debug/pprof/...  the standard Go profiler endpoints
//
// Nothing here runs unless the listener is opened, so the disabled
// path costs exactly nothing.
package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"npss/internal/critpath"
	"npss/internal/flight"
	"npss/internal/trace"
	"npss/internal/tseries"
)

// Config selects what /statusz serves: the component's status report,
// or a one-line placeholder when Status is nil. Every other endpoint
// serves the process globals (the trace set, the flight recorder, the
// active sampler and span recorder), which tests swap to inject state.
type Config struct {
	Status func() string
}

// Server is a running telemetry listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start opens the telemetry listener on addr (":0" picks a free
// port). The HTTP server runs until Close.
func Start(addr string, cfg Config) (*Server, error) {
	if cfg.Status == nil {
		cfg.Status = func() string { return "telemetry: no status source configured\n" }
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, trace.Export())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, cfg.Status())
	})
	mux.HandleFunc("/flightz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, flight.DumpString())
	})
	mux.HandleFunc("/seriesz", func(w http.ResponseWriter, r *http.Request) {
		s := tseries.ActiveSnapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			data, err := s.EncodeJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(data)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteSeriesProm(w, s)
	})
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, r *http.Request) {
		p := critpath.ActiveSnapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			w.Write(p.EncodeJSON())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProfileProm(w, p)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the listener's actual address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and the HTTP server.
func (s *Server) Close() error { return s.srv.Close() }

// promSample is one flattened exposition line before grouping.
type promSample struct {
	name   string // sanitized metric name (may carry _sum/_count suffix)
	labels string // rendered {k="v",...} or ""
	value  string
}

// family is one metric family: its TYPE and its samples.
type family struct {
	kind    string
	samples []promSample
}

// families groups exposition samples by family name.
type families map[string]*family

func (fs families) add(famName, kind string, s promSample) {
	f, ok := fs[famName]
	if !ok {
		f = &family{kind: kind}
		fs[famName] = f
	}
	f.samples = append(f.samples, s)
}

// write renders every family in name order, its TYPE line first, then
// its samples sorted by name and labels: deterministic output.
func (fs families) write(w io.Writer) error {
	names := make([]string, 0, len(fs))
	for n := range fs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs[n]
		sort.Slice(f.samples, func(i, j int) bool {
			a, b := f.samples[i], f.samples[j]
			if a.name != b.name {
				return a.name < b.name
			}
			return a.labels < b.labels
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteProm renders a metric snapshot in the Prometheus text
// exposition format, version 0.0.4. Counters become counter families;
// histograms become summaries (quantile series plus _sum and _count).
// Metric keys in the runtime's schooner.client.call{proc=add} style
// split into a sanitized family name and labels. Output is sorted and
// deterministic.
func WriteProm(w io.Writer, m trace.MetricsSnapshot) error {
	fs := families{}
	for key, v := range m.Counters {
		name, labels := splitKey(key)
		fs.add(name, "counter", promSample{name, labels, fmt.Sprintf("%d", v)})
	}
	quantiles := []struct {
		q float64
		s string
	}{{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}
	for key, h := range m.Hists {
		name, labels := splitKey(key)
		for _, q := range quantiles {
			ql := mergeLabels(labels, `quantile="`+q.s+`"`)
			fs.add(name, "summary", promSample{name, ql, formatSeconds(h.Quantile(q.q))})
		}
		fs.add(name, "summary", promSample{name + "_sum", labels, formatSeconds(time.Duration(h.Sum))})
		fs.add(name, "summary", promSample{name + "_count", labels, fmt.Sprintf("%d", h.Count)})
	}
	return fs.write(w)
}

// WriteSeriesProm renders the latest window of a time series in the
// Prometheus text exposition format: per-window counter rates as
// `<family>_rate` gauges (events per second), per-window histogram
// quantiles as `<family>_window{quantile=...}` gauges in seconds with
// a `<family>_window_count` companion, plus always-present meta gauges
// (`npss_series_windows`, `npss_series_interval_seconds`) so a scrape
// of an idle sampler is still a conforming exposition. Output is
// sorted and deterministic.
func WriteSeriesProm(w io.Writer, s tseries.Series) error {
	if _, err := fmt.Fprintf(w, "# TYPE npss_series_windows gauge\nnpss_series_windows %d\n", len(s.Windows)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# TYPE npss_series_interval_seconds gauge\nnpss_series_interval_seconds %s\n",
		formatSeconds(time.Duration(s.Interval))); err != nil {
		return err
	}
	if len(s.Windows) == 0 {
		return nil
	}
	win := s.Windows[len(s.Windows)-1]

	fs := families{}
	for key := range win.Counters {
		name, labels := splitKey(key)
		name += "_rate"
		fs.add(name, "gauge", promSample{name, labels, fmt.Sprintf("%g", win.Rate(key))})
	}
	quantiles := []struct {
		v func(tseries.WindowHist) int64
		s string
	}{
		{func(h tseries.WindowHist) int64 { return h.P50 }, "0.5"},
		{func(h tseries.WindowHist) int64 { return h.P95 }, "0.95"},
		{func(h tseries.WindowHist) int64 { return h.P99 }, "0.99"},
	}
	for key, h := range win.Hists {
		name, labels := splitKey(key)
		wname := name + "_window"
		for _, q := range quantiles {
			ql := mergeLabels(labels, `quantile="`+q.s+`"`)
			fs.add(wname, "gauge", promSample{wname, ql, formatSeconds(time.Duration(q.v(h)))})
		}
		cname := wname + "_count"
		fs.add(cname, "gauge", promSample{cname, labels, fmt.Sprintf("%d", h.Count)})
	}
	return fs.write(w)
}

// WriteProfileProm renders an attribution profile in the Prometheus
// text exposition format: the critical-path length and per-phase
// bucket decomposition, per-host busy time and queue depth, and
// per-link traffic costs, all as gauges (a profile is a snapshot of
// one run, not a monotone series). The always-present
// `npss_profile_spans` gauge keeps a scrape of an untraced process a
// conforming exposition. Output is sorted and deterministic.
func WriteProfileProm(w io.Writer, p *critpath.Profile) error {
	if _, err := fmt.Fprintf(w, "# TYPE npss_profile_spans gauge\nnpss_profile_spans %d\n", p.Spans); err != nil {
		return err
	}
	if p.Spans == 0 && len(p.Links) == 0 {
		return nil
	}
	emit := func(name string, lines []string) error {
		if len(lines) == 0 {
			return nil
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		sort.Strings(lines)
		for _, l := range lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
		return nil
	}
	hostLabel := func(h string) string {
		if h == "" {
			return "local"
		}
		return h
	}

	if err := emit("npss_profile_critical_path_seconds", []string{
		fmt.Sprintf("npss_profile_critical_path_seconds %s", formatSeconds(p.Total.CriticalPath)),
	}); err != nil {
		return err
	}
	// seq disambiguates phases sharing a name (two windows of the
	// same experiment would otherwise collide as series).
	var phase, bucket []string
	for i, ph := range p.Phases {
		phase = append(phase, fmt.Sprintf(`npss_profile_phase_seconds{seq="%d",phase="%s"} %s`,
			i, escapeLabel(ph.Name), formatSeconds(ph.Dur)))
		for _, bk := range critpath.Buckets {
			bucket = append(bucket, fmt.Sprintf(`npss_profile_phase_bucket_seconds{seq="%d",phase="%s",bucket="%s"} %s`,
				i, escapeLabel(ph.Name), bk, formatSeconds(ph.Buckets[bk])))
		}
	}
	if err := emit("npss_profile_phase_seconds", phase); err != nil {
		return err
	}
	if err := emit("npss_profile_phase_bucket_seconds", bucket); err != nil {
		return err
	}

	var busy, depthMax, depthAvg, hostBucket []string
	for _, h := range p.Hosts {
		hl := escapeLabel(hostLabel(h.Host))
		busy = append(busy, fmt.Sprintf(`npss_profile_host_busy_seconds{host="%s"} %s`, hl, formatSeconds(h.Busy)))
		depthMax = append(depthMax, fmt.Sprintf(`npss_profile_host_depth_max{host="%s"} %d`, hl, h.MaxDepth))
		depthAvg = append(depthAvg, fmt.Sprintf(`npss_profile_host_depth_avg{host="%s"} %g`, hl, h.AvgDepth))
		for _, bk := range critpath.Buckets {
			hostBucket = append(hostBucket, fmt.Sprintf(`npss_profile_host_bucket_seconds{host="%s",bucket="%s"} %s`,
				hl, bk, formatSeconds(h.Buckets[bk])))
		}
	}
	if err := emit("npss_profile_host_busy_seconds", busy); err != nil {
		return err
	}
	if err := emit("npss_profile_host_depth_max", depthMax); err != nil {
		return err
	}
	if err := emit("npss_profile_host_depth_avg", depthAvg); err != nil {
		return err
	}
	if err := emit("npss_profile_host_bucket_seconds", hostBucket); err != nil {
		return err
	}

	var msgs, bytes, delay, byteDelay []string
	for _, l := range p.Links {
		ll := escapeLabel(l.Link)
		msgs = append(msgs, fmt.Sprintf(`npss_profile_link_messages{link="%s"} %d`, ll, l.Messages))
		bytes = append(bytes, fmt.Sprintf(`npss_profile_link_bytes{link="%s"} %d`, ll, l.Bytes))
		delay = append(delay, fmt.Sprintf(`npss_profile_link_delay_seconds{link="%s"} %s`, ll, formatSeconds(l.Delay)))
		byteDelay = append(byteDelay, fmt.Sprintf(`npss_profile_link_byte_seconds{link="%s"} %g`, ll, l.ByteDelay))
	}
	if err := emit("npss_profile_link_messages", msgs); err != nil {
		return err
	}
	if err := emit("npss_profile_link_bytes", bytes); err != nil {
		return err
	}
	if err := emit("npss_profile_link_delay_seconds", delay); err != nil {
		return err
	}
	return emit("npss_profile_link_byte_seconds", byteDelay)
}

// splitKey separates a runtime metric key into a sanitized Prometheus
// family name and a rendered label set:
//
//	schooner.client.call{proc=add,host=cray} ->
//	  schooner_client_call, {proc="add",host="cray"}
func splitKey(key string) (name, labels string) {
	base := key
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		base = key[:i]
		inner := key[i+1 : len(key)-1]
		var parts []string
		for _, kv := range strings.Split(inner, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				k, v = kv, ""
			}
			parts = append(parts, sanitizeName(k)+`="`+escapeLabel(v)+`"`)
		}
		labels = "{" + strings.Join(parts, ",") + "}"
	}
	return sanitizeName(base), labels
}

// mergeLabels inserts an extra label into a rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// sanitizeName maps an arbitrary key to the Prometheus metric-name
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatSeconds renders a duration as seconds, the Prometheus base
// unit.
func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}
