package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"npss/internal/trace"
)

// EncodeJSON renders the profile deterministically: struct fields in
// declaration order, map keys sorted by the encoder, indented, with a
// trailing newline. Two same-seed DST replays must produce
// byte-identical output.
func (p *Profile) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", " ")
	return append(b, '\n'), err
}

// WriteProm renders the profile in the Prometheus text exposition
// format: the critical-path length and per-phase bucket decomposition,
// per-host busy time and queue depth, and per-link traffic costs, all
// as gauges (a profile is a snapshot of one run, not a monotone
// series). The leading `npss_profile_spans` gauge keeps a scrape of an
// untraced process a conforming exposition.
func (p *Profile) WriteProm(w io.Writer) error {
	e := trace.Exposition{}
	e.Gauge("npss_profile_spans", fmt.Sprintf("%d", p.Spans))
	if p.Spans == 0 && len(p.Links) == 0 {
		return e.Write(w)
	}
	gauge := func(name, labels, value string) { e.Add(name, "gauge", name, labels, value) }
	gauge("npss_profile_critical_path_seconds", "", trace.PromSeconds(p.Total.CriticalPath))
	// seq disambiguates phases sharing a name (two windows of the
	// same experiment would otherwise collide as series).
	for i, ph := range p.Phases {
		l := fmt.Sprintf(`{seq="%d",phase="%s"}`, i, trace.PromEscape(ph.Name))
		gauge("npss_profile_phase_seconds", l, trace.PromSeconds(ph.Dur))
		for _, bk := range Buckets {
			gauge("npss_profile_phase_bucket_seconds", trace.PromLabel(l, `bucket="`+bk+`"`), trace.PromSeconds(ph.Buckets[bk]))
		}
	}
	for _, h := range p.Hosts {
		host := h.Host
		if host == "" {
			host = "local"
		}
		l := `{host="` + trace.PromEscape(host) + `"}`
		gauge("npss_profile_host_busy_seconds", l, trace.PromSeconds(h.Busy))
		gauge("npss_profile_host_depth_max", l, fmt.Sprintf("%d", h.MaxDepth))
		gauge("npss_profile_host_depth_avg", l, fmt.Sprintf("%g", h.AvgDepth))
		for _, bk := range Buckets {
			gauge("npss_profile_host_bucket_seconds", trace.PromLabel(l, `bucket="`+bk+`"`), trace.PromSeconds(h.Buckets[bk]))
		}
	}
	for _, lk := range p.Links {
		l := `{link="` + trace.PromEscape(lk.Link) + `"}`
		gauge("npss_profile_link_messages", l, fmt.Sprintf("%d", lk.Messages))
		gauge("npss_profile_link_bytes", l, fmt.Sprintf("%d", lk.Bytes))
		gauge("npss_profile_link_delay_seconds", l, trace.PromSeconds(lk.Delay))
		gauge("npss_profile_link_byte_seconds", l, fmt.Sprintf("%g", lk.ByteDelay))
	}
	return e.Write(w, "npss_profile_spans", "npss_profile_critical_path_seconds",
		"npss_profile_phase_seconds", "npss_profile_phase_bucket_seconds",
		"npss_profile_host_busy_seconds", "npss_profile_host_depth_max",
		"npss_profile_host_depth_avg", "npss_profile_host_bucket_seconds",
		"npss_profile_link_messages", "npss_profile_link_bytes",
		"npss_profile_link_delay_seconds", "npss_profile_link_byte_seconds")
}

// Format renders the profile for a terminal: per-phase decomposition
// with bucket shares, host and link profiles, and the top edges.
func (p *Profile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path %s over %d phase(s), %d spans",
		p.Total.CriticalPath, len(p.Phases), p.Spans)
	if p.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped: attribution is partial)", p.Dropped)
	}
	b.WriteString("\n")
	for _, ph := range p.Phases {
		fmt.Fprintf(&b, "  phase %-12s %10s  %s\n", ph.Name, ph.Dur, bucketLine(ph.Buckets, ph.Dur))
	}
	if len(p.Hosts) > 0 {
		b.WriteString("  hosts:\n")
		for _, h := range p.Hosts {
			name := h.Host
			if name == "" {
				name = "local"
			}
			fmt.Fprintf(&b, "    %-16s busy %10s  depth max %d avg %.2f  %s\n",
				name, h.Busy, h.MaxDepth, h.AvgDepth, bucketLine(h.Buckets, h.Busy))
		}
	}
	if len(p.Links) > 0 {
		b.WriteString("  links:\n")
		for _, l := range p.Links {
			fmt.Fprintf(&b, "    %-36s %6d msgs %9d B  delay %10s  byte-delay %.3f\n",
				l.Link, l.Messages, l.Bytes, l.Delay, l.ByteDelay)
		}
	}
	if top := TopEdges(p, 3); len(top) > 0 {
		b.WriteString("  top edges:\n")
		for _, e := range top {
			host := e.Host
			if host == "" {
				host = "local"
			}
			fmt.Fprintf(&b, "    %-10s %-24s on %-16s %10s\n", e.Bucket, e.Name, host, e.Dur)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// bucketLine renders the nonzero buckets with their share of total,
// in canonical bucket order.
func bucketLine(m map[string]time.Duration, total time.Duration) string {
	var parts []string
	for _, k := range Buckets {
		v := m[k]
		if v == 0 {
			continue
		}
		if total > 0 {
			parts = append(parts, fmt.Sprintf("%s %s (%.0f%%)", k, v, 100*float64(v)/float64(total)))
		} else {
			parts = append(parts, fmt.Sprintf("%s %s", k, v))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}
