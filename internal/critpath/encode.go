package critpath

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// EncodeJSON renders the profile deterministically: struct fields in
// declaration order, map keys sorted by the encoder, trailing newline.
// Two same-seed DST replays must produce byte-identical output.
func (p *Profile) EncodeJSON() []byte {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		// Profile contains only marshalable fields; this is a bug.
		panic("critpath: encode: " + err.Error())
	}
	return append(b, '\n')
}

// DecodeProfile parses what EncodeJSON wrote.
func DecodeProfile(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("critpath: decode profile: %w", err)
	}
	return &p, nil
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
