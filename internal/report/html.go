package report

import (
	"fmt"
	"html"
	"sort"
	"strings"
	"time"

	"npss/internal/critpath"
	"npss/internal/flight"
	"npss/internal/tseries"
)

// The categorical palette lives in the CSS custom properties --s1..--s8
// below, in fixed slot order (never cycled): series i always wears slot
// i%maxSeries. The hexes are the validated reference palette — the dark
// block is the same hues re-stepped for the dark surface, not a flip.

// maxSeries caps the distinct line-chart series; everything past it
// folds into "Other" rather than inventing a ninth hue.
const maxSeries = 8

// ramp is the sequential blue ramp (light→dark) for heatmap cells.
var ramp = []string{"#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281", "#0d366b"}

// chart geometry (CSS pixels).
const (
	chartW   = 860
	chartH   = 260
	chartPad = 44 // left gutter for y labels
	chartTop = 12
	chartBot = 28 // x labels
)

// HTML renders the report as one self-contained page: inline styles,
// inline SVG, no scripts, no external assets. It is valid to render an
// empty Data — the report states what is missing.
func HTML(d Data) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(d.Title))
	b.WriteString("<style>\n")
	b.WriteString(css)
	b.WriteString("</style>\n</head>\n<body class=\"viz-root\">\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(d.Title))
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "<p class=\"note\">%s</p>\n", html.EscapeString(n))
	}
	writeSummary(&b, d)
	writeLoadTimeline(&b, d)
	writeLatencyHeatmap(&b, d)
	writeAttribution(&b, d)
	writeExemplars(&b, d)
	writeEvents(&b, d)
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}

// css defines the report's role tokens as custom properties, light
// values by default with dark declared both for the OS setting and an
// explicit data-theme stamp, so the chart body references roles only.
const css = `
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  --critical: #d03b3b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary);
  background: var(--page);
  margin: 0;
  padding: 24px 32px 48px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
    --critical: #d03b3b;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --grid: #2c2c2a;
  --axis: #383835;
  --border: rgba(255,255,255,0.10);
  --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
  --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  --critical: #d03b3b;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .note { color: var(--text-secondary); margin: 2px 0; }
.viz-root .empty { color: var(--text-muted); }
.viz-root .card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px 16px;
  margin: 8px 0 20px;
}
.viz-root .legend { margin: 6px 0 0; display: flex; flex-wrap: wrap; gap: 14px; }
.viz-root .legend span { color: var(--text-secondary); }
.viz-root .legend i {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: baseline;
}
.viz-root table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
.viz-root th { text-align: left; color: var(--text-secondary); font-weight: 600; padding: 3px 10px 3px 0; }
.viz-root td { padding: 3px 10px 3px 0; border-top: 1px solid var(--grid); }
.viz-root td.cell { width: 10px; min-width: 10px; height: 14px; padding: 0; border: 1px solid var(--surface-1); }
.viz-root code { font-size: 13px; }
.viz-root .axis-label { fill: var(--text-muted); font-size: 11px; }
.viz-root .chart-line { fill: none; stroke-width: 2; }
.viz-root .chart-grid { stroke: var(--grid); stroke-width: 1; }
.viz-root .chart-axis { stroke: var(--axis); stroke-width: 1; }
.viz-root .event-marker { stroke-width: 1.5; stroke-dasharray: 3 3; }
.viz-root .event-label { font-size: 10px; }
`

// writeSummary prints the run-level numbers.
func writeSummary(b *strings.Builder, d Data) {
	b.WriteString("<div class=\"card\"><table>\n")
	row := func(k, v string) {
		fmt.Fprintf(b, "<tr><th>%s</th><td>%s</td></tr>\n", html.EscapeString(k), html.EscapeString(v))
	}
	row("windows", fmt.Sprintf("%d × %v", len(d.Series.Windows), time.Duration(d.Series.Interval)))
	if t0, t1, ok := span(d.Series); ok {
		row("covered", fmt.Sprintf("%s … %s (%v)",
			t0.UTC().Format(time.RFC3339), t1.UTC().Format(time.RFC3339), t1.Sub(t0).Round(time.Millisecond)))
	}
	row("flight events", fmt.Sprintf("%d", len(d.Events)))
	if d.TimelineFile != "" {
		row("span timeline", d.TimelineFile)
	}
	b.WriteString("</table></div>\n")
}

// foldSeries applies the series cap: the first maxSeries-1 names keep
// their own lines and everything else sums into "Other", so the chart
// never invents a ninth hue.
func foldSeries(names []string, rows map[string][]float64, n int) ([]string, map[string][]float64) {
	if len(names) <= maxSeries {
		return names, rows
	}
	kept := append([]string(nil), names[:maxSeries-1]...)
	other := make([]float64, n)
	for _, name := range names[maxSeries-1:] {
		for i, v := range rows[name] {
			other[i] += v
		}
	}
	folded := make(map[string][]float64, maxSeries)
	for _, name := range kept {
		folded[name] = rows[name]
	}
	folded["Other"] = other
	return append(kept, "Other"), folded
}

// writeLoadTimeline draws the per-host call-rate line chart with
// cluster-event overlays.
func writeLoadTimeline(b *strings.Builder, d Data) {
	b.WriteString("<h2>Per-host load (calls/s by host)</h2>\n<div class=\"card\">\n")
	defer b.WriteString("</div>\n")
	names, rows := seriesByLabel(d.Series, "schooner.client.calls", "host")
	t0, t1, ok := span(d.Series)
	if len(names) == 0 || !ok {
		b.WriteString("<p class=\"empty\">no host-labeled call counters in this run (run with tracing/reporting enabled)</p>\n")
		return
	}
	names, rows = foldSeries(names, rows, len(d.Series.Windows))

	var maxRate float64
	for _, vs := range rows {
		for _, v := range vs {
			if v > maxRate {
				maxRate = v
			}
		}
	}
	if maxRate == 0 {
		maxRate = 1
	}
	total := t1.Sub(t0)
	x := func(t time.Time) float64 {
		return chartPad + float64(chartW-chartPad)*float64(t.Sub(t0))/float64(total)
	}
	y := func(v float64) float64 {
		return chartTop + float64(chartH-chartTop-chartBot)*(1-v/maxRate)
	}
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"100%%\" role=\"img\" aria-label=\"per-host call rate over time\">\n", chartW, chartH)
	// Grid: four horizontal hairlines with muted value labels.
	for i := 0; i <= 4; i++ {
		v := maxRate * float64(i) / 4
		fmt.Fprintf(b, "<line class=\"chart-grid\" x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\"/>\n", chartPad, y(v), chartW, y(v))
		fmt.Fprintf(b, "<text class=\"axis-label\" x=\"%d\" y=\"%.1f\" text-anchor=\"end\">%.0f</text>\n", chartPad-6, y(v)+4, v)
	}
	// One axis: the baseline.
	fmt.Fprintf(b, "<line class=\"chart-axis\" x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\"/>\n", chartPad, y(0), chartW, y(0))
	// X labels: elapsed seconds at quarters.
	for i := 0; i <= 4; i++ {
		t := t0.Add(total * time.Duration(i) / 4)
		fmt.Fprintf(b, "<text class=\"axis-label\" x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">+%.2fs</text>\n",
			x(t), chartH-8, t.Sub(t0).Seconds())
	}

	// Event overlays: dashed vertical markers where the cluster
	// changed shape, drawn under the series lines. Events and windows
	// share the run's clock; only events inside the series span are
	// drawable, and the table below lists them all.
	overlays := 0
	for _, e := range OverlayEvents(d.Events) {
		if e.Time.Before(t0) || e.Time.After(t1) || overlays >= 40 {
			continue
		}
		overlays++
		ex := x(e.Time)
		fmt.Fprintf(b, "<line class=\"event-marker\" stroke=\"var(--critical)\" x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%.1f\"><title>%s</title></line>\n",
			ex, chartTop, ex, y(0), html.EscapeString(flight.FormatEvent(&e)))
		fmt.Fprintf(b, "<text class=\"event-label\" fill=\"var(--critical)\" x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">%s</text>\n",
			ex, chartTop-2, html.EscapeString(e.Kind.String()))
	}

	// Series lines in fixed slot order, with native-tooltip markers on
	// every window point.
	for si, name := range names {
		slot := si % maxSeries
		var pts []string
		for i, w := range d.Series.Windows {
			mid := w.Start.Add(time.Duration(w.Dur) / 2)
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(mid), y(rows[name][i])))
		}
		fmt.Fprintf(b, "<polyline class=\"chart-line\" stroke=\"var(--s%d)\" points=\"%s\"/>\n", slot+1, strings.Join(pts, " "))
		for i, w := range d.Series.Windows {
			mid := w.Start.Add(time.Duration(w.Dur) / 2)
			fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4\" fill=\"var(--s%d)\" fill-opacity=\"0\"><title>%s w#%d: %.1f calls/s</title></circle>\n",
				x(mid), y(rows[name][i]), slot+1, html.EscapeString(name), w.Seq, rows[name][i])
		}
	}
	b.WriteString("</svg>\n")

	// Legend: identity for every series; mark swatch + secondary ink.
	b.WriteString("<div class=\"legend\">")
	for si, name := range names {
		fmt.Fprintf(b, "<span><i style=\"background:var(--s%d)\"></i>%s</span>", si%maxSeries+1, html.EscapeString(name))
	}
	b.WriteString("</div>\n")
	if overlays > 0 {
		fmt.Fprintf(b, "<p class=\"note\">%d cluster events overlaid (dashed markers; hover for detail)</p>\n", overlays)
	}
}

// writeLatencyHeatmap draws per-proc p95 latency as a window-by-proc
// heatmap on the sequential ramp.
func writeLatencyHeatmap(b *strings.Builder, d Data) {
	b.WriteString("<h2>Per-proc latency (p95 by window)</h2>\n<div class=\"card\">\n")
	defer b.WriteString("</div>\n")
	names, rows := histsByLabel(d.Series, "schooner.client.call", "proc",
		func(h tseries.WindowHist) int64 { return h.P95 })
	if len(names) == 0 {
		b.WriteString("<p class=\"empty\">no proc-labeled latency histograms in this run</p>\n")
		return
	}
	var maxV int64
	for _, vs := range rows {
		for _, v := range vs {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	// Long runs have more windows than a row has room for cells: bin
	// windows into at most heatmapCols column buckets, each showing the
	// worst p95 of its windows.
	const heatmapCols = 72
	n := len(d.Series.Windows)
	cols := n
	if cols > heatmapCols {
		cols = heatmapCols
	}
	b.WriteString("<table><tr><th>proc</th><th colspan=\"100\">windows →</th><th>worst p95</th></tr>\n")
	for _, name := range names {
		fmt.Fprintf(b, "<tr><td>%s</td>", html.EscapeString(name))
		var worst int64
		for c := 0; c < cols; c++ {
			lo, hi := c*n/cols, (c+1)*n/cols
			var v int64
			for i := lo; i < hi; i++ {
				if rows[name][i] > v {
					v = rows[name][i]
				}
			}
			if v > worst {
				worst = v
			}
			span := fmt.Sprintf("w#%d", lo)
			if hi-lo > 1 {
				span = fmt.Sprintf("w#%d–%d", lo, hi-1)
			}
			if v == 0 {
				fmt.Fprintf(b, "<td class=\"cell\" style=\"background:var(--surface-1)\" title=\"%s: no calls\"></td>", span)
				continue
			}
			step := int(float64(v) / float64(maxV) * float64(len(ramp)-1))
			fmt.Fprintf(b, "<td class=\"cell\" style=\"background:%s\" title=\"%s: p95=%v\"></td>",
				ramp[step], span, time.Duration(v))
		}
		fmt.Fprintf(b, "<td>%v</td></tr>\n", time.Duration(worst))
	}
	b.WriteString("</table>\n")
	fmt.Fprintf(b, "<p class=\"note\">cell shade: worst p95 in the bucket, 0 to %v (light → dark); hover a cell for its value</p>\n", time.Duration(maxV))
}

// bucketSlot fixes each attribution bucket onto a categorical palette
// slot, so compute/network/queueing/retry/conversion wear the same
// hues in every report.
var bucketSlot = map[string]int{
	critpath.Compute:    1,
	critpath.Network:    2,
	critpath.Queueing:   4,
	critpath.Retry:      8,
	critpath.Conversion: 7,
}

// writeAttribution renders the run's critical-path attribution: one
// stacked bucket bar per phase (scaled to the longest phase so
// absolute durations compare across rows), the critical-path lane
// with every edge drawn at its position in run time, and the host and
// link cost profiles the placement model consumes.
func writeAttribution(b *strings.Builder, d Data) {
	if d.Profile == nil {
		return
	}
	p := d.Profile
	b.WriteString("<h2>Critical-path attribution</h2>\n<div class=\"card\">\n")
	defer b.WriteString("</div>\n")
	if p.Spans == 0 || len(p.Phases) == 0 {
		b.WriteString("<p class=\"empty\">no spans recorded (run with tracing enabled)</p>\n")
		return
	}
	fmt.Fprintf(b, "<p class=\"note\">critical path %v across %d phase(s), %d spans analyzed</p>\n",
		p.Total.CriticalPath, len(p.Phases), p.Spans)
	if p.Dropped > 0 {
		fmt.Fprintf(b, "<p class=\"note\">⚠ %d spans dropped at the recorder cap — attribution is incomplete</p>\n", p.Dropped)
	}

	// Stacked bars: phases plus the total roll-up, bucket segments in
	// fixed bucket order. Geometry mirrors the line chart's width.
	const (
		labelW = 170
		rowH   = 20
		rowGap = 8
	)
	barW := float64(chartW - labelW - 90) // right gutter for duration labels
	longest := p.Total.CriticalPath
	for _, ph := range p.Phases {
		if ph.Dur > longest {
			longest = ph.Dur
		}
	}
	if longest <= 0 {
		longest = 1
	}
	type barRow struct {
		label   string
		dur     time.Duration
		buckets map[string]time.Duration
	}
	rows := make([]barRow, 0, len(p.Phases)+1)
	for _, ph := range p.Phases {
		label := ph.Name
		if ph.Host != "" {
			label += "@" + ph.Host
		}
		rows = append(rows, barRow{label, ph.Dur, ph.Buckets})
	}
	rows = append(rows, barRow{"total", p.Total.CriticalPath, p.Total.Buckets})
	svgH := len(rows)*(rowH+rowGap) + rowGap
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"100%%\" role=\"img\" aria-label=\"per-phase latency attribution\">\n", chartW, svgH)
	for ri, r := range rows {
		y := rowGap + ri*(rowH+rowGap)
		fmt.Fprintf(b, "<text class=\"axis-label\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
			labelW-8, y+rowH-6, html.EscapeString(r.label))
		x := float64(labelW)
		for _, bucket := range critpath.Buckets {
			v := r.buckets[bucket]
			if v <= 0 {
				continue
			}
			w := barW * float64(v) / float64(longest)
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"var(--s%d)\"><title>%s: %v (%.1f%%)</title></rect>\n",
				x, y, w, rowH, bucketSlot[bucket], bucket, v, 100*float64(v)/float64(r.dur))
			x += w
		}
		fmt.Fprintf(b, "<text class=\"axis-label\" x=\"%.1f\" y=\"%d\">%v</text>\n",
			x+6, y+rowH-6, r.dur)
	}
	b.WriteString("</svg>\n")
	b.WriteString("<div class=\"legend\">")
	for _, bucket := range critpath.Buckets {
		fmt.Fprintf(b, "<span><i style=\"background:var(--s%d)\"></i>%s</span>", bucketSlot[bucket], bucket)
	}
	b.WriteString("</div>\n")

	writeCriticalLane(b, p)
	writeCostProfiles(b, p)
}

// writeCriticalLane draws the critical path itself: one lane per
// phase on a shared run-time axis, every edge a rect colored by its
// bucket, so the eye follows where the run's time actually went.
func writeCriticalLane(b *strings.Builder, p *critpath.Profile) {
	t0 := p.Phases[0].Start
	t1 := t0
	for _, ph := range p.Phases {
		if ph.Start < t0 {
			t0 = ph.Start
		}
		if end := ph.Start + ph.Dur; end > t1 {
			t1 = end
		}
	}
	total := t1 - t0
	if total <= 0 {
		total = 1
	}
	const (
		labelW  = 170
		laneH   = 16
		laneGap = 10
	)
	x := func(off time.Duration) float64 {
		return labelW + float64(chartW-labelW-20)*float64(off-t0)/float64(total)
	}
	b.WriteString("<h2>Critical-path lane</h2>\n")
	svgH := len(p.Phases)*(laneH+laneGap) + laneGap + chartBot
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"100%%\" role=\"img\" aria-label=\"critical path timeline\">\n", chartW, svgH)
	for i := 0; i <= 4; i++ {
		off := t0 + total*time.Duration(i)/4
		fmt.Fprintf(b, "<line class=\"chart-grid\" x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\"/>\n",
			x(off), laneGap, x(off), svgH-chartBot)
		fmt.Fprintf(b, "<text class=\"axis-label\" x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">+%v</text>\n",
			x(off), svgH-chartBot+16, (off - t0).Round(time.Millisecond))
	}
	for pi, ph := range p.Phases {
		y := laneGap + pi*(laneH+laneGap)
		label := ph.Name
		if ph.Host != "" {
			label += "@" + ph.Host
		}
		fmt.Fprintf(b, "<text class=\"axis-label\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
			labelW-8, y+laneH-4, html.EscapeString(label))
		for _, e := range ph.Path {
			w := x(e.Start+e.Dur) - x(e.Start)
			if w < 0.5 {
				w = 0.5 // keep sub-pixel edges visible
			}
			where := e.Name
			if e.Host != "" {
				where += "@" + e.Host
			}
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"var(--s%d)\"><title>%s (%s) %v @ +%v</title></rect>\n",
				x(e.Start), y, w, laneH, bucketSlot[e.Bucket],
				html.EscapeString(where), e.Bucket, e.Dur, e.Start-t0)
		}
	}
	b.WriteString("</svg>\n")

	edges := critpath.TopEdges(p, 10)
	if len(edges) == 0 {
		return
	}
	b.WriteString("<h2>Longest critical-path edges</h2>\n")
	b.WriteString("<table><tr><th>span</th><th>host</th><th>bucket</th><th>start</th><th>duration</th></tr>\n")
	for _, e := range edges {
		host := e.Host
		if host == "" {
			host = "local"
		}
		fmt.Fprintf(b, "<tr><td><code>%s</code></td><td>%s</td><td>%s</td><td>+%v</td><td>%v</td></tr>\n",
			html.EscapeString(e.Name), html.EscapeString(host), e.Bucket, e.Start-t0, e.Dur)
	}
	b.WriteString("</table>\n")
}

// writeCostProfiles renders the per-host and per-link cost tables —
// the placement model's inputs, in the same units the analyzer
// exports them.
func writeCostProfiles(b *strings.Builder, p *critpath.Profile) {
	if len(p.Hosts) > 0 {
		b.WriteString("<h2>Host cost profile</h2>\n")
		b.WriteString("<table><tr><th>host</th><th>spans</th><th>busy</th><th>depth max/avg</th><th>dominant bucket</th></tr>\n")
		for _, h := range p.Hosts {
			name := h.Host
			if name == "" {
				name = "local"
			}
			var top string
			var topV time.Duration
			for _, bucket := range critpath.Buckets {
				if v := h.Buckets[bucket]; v > topV {
					top, topV = bucket, v
				}
			}
			dom := "-"
			if top != "" {
				dom = fmt.Sprintf("%s (%v)", top, topV)
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%v</td><td>%d / %.3f</td><td>%s</td></tr>\n",
				html.EscapeString(name), h.Spans, h.Busy, h.MaxDepth, h.AvgDepth, dom)
		}
		b.WriteString("</table>\n")
	}
	if len(p.Links) > 0 {
		b.WriteString("<h2>Link cost profile</h2>\n")
		b.WriteString("<table><tr><th>link</th><th>messages</th><th>bytes</th><th>sim delay</th><th>byte·s weight</th><th>dropped</th></tr>\n")
		for _, l := range p.Links {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%v</td><td>%.3f</td><td>%d</td></tr>\n",
				html.EscapeString(l.Link), l.Messages, l.Bytes, l.Delay, l.ByteDelay, l.Dropped)
		}
		b.WriteString("</table>\n")
	}
}

// writeExemplars renders the run's slowest calls with their span IDs
// in the same non-padded hex the Chrome-trace timeline carries in its
// span args, so an ID here greps straight into the timeline file.
func writeExemplars(b *strings.Builder, d Data) {
	b.WriteString("<h2>Tail-latency exemplars</h2>\n<div class=\"card\">\n")
	defer b.WriteString("</div>\n")
	rows := topExemplars(d.Series, 20)
	if len(rows) == 0 {
		b.WriteString("<p class=\"empty\">no exemplars captured (sampler or tracing off)</p>\n")
		return
	}
	t0, _, _ := span(d.Series)
	b.WriteString("<table><tr><th>duration</th><th>metric</th><th>window</th><th>trace</th><th>span</th></tr>\n")
	for _, r := range rows {
		traceID, spanID := "-", "-"
		if r.Ex.Trace != 0 {
			traceID = fmt.Sprintf("%x", r.Ex.Trace)
		}
		if r.Ex.Span != 0 {
			spanID = fmt.Sprintf("%x", r.Ex.Span)
		}
		fmt.Fprintf(b, "<tr><td>%v</td><td>%s</td><td>w#%d +%.2fs</td><td><code data-trace=\"%s\">%s</code></td><td><code data-span=\"%s\">%s</code></td></tr>\n",
			time.Duration(r.Ex.Dur), html.EscapeString(r.Key), r.Window, r.Start.Sub(t0).Seconds(),
			traceID, traceID, spanID, spanID)
	}
	b.WriteString("</table>\n")
	if d.TimelineFile != "" {
		fmt.Fprintf(b, "<p class=\"note\">span IDs resolve in the captured timeline %s (load it in a trace viewer and search the span ID)</p>\n",
			html.EscapeString(d.TimelineFile))
	}
}

// writeEvents lists the cluster-shape events as a table (all of them,
// not just the ones that landed on the chart), then states how much
// raw history backs them.
func writeEvents(b *strings.Builder, d Data) {
	b.WriteString("<h2>Cluster events</h2>\n<div class=\"card\">\n")
	defer b.WriteString("</div>\n")
	ov := OverlayEvents(d.Events)
	if len(ov) == 0 {
		fmt.Fprintf(b, "<p class=\"empty\">no cluster-shape transitions among %d flight events</p>\n", len(d.Events))
		return
	}
	sort.SliceStable(ov, func(i, j int) bool { return ov[i].Time.Before(ov[j].Time) })
	const capRows = 100
	shown := ov
	if len(shown) > capRows {
		shown = shown[:capRows]
	}
	b.WriteString("<table><tr><th>time</th><th>kind</th><th>where</th><th>what</th></tr>\n")
	for _, e := range shown {
		where := e.Component
		if e.Host != "" {
			where += "@" + e.Host
		}
		what := e.Name
		if e.Detail != "" {
			what += " " + e.Detail
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			e.Time.Format("15:04:05.000"), html.EscapeString(e.Kind.String()),
			html.EscapeString(where), html.EscapeString(what))
	}
	b.WriteString("</table>\n")
	if len(ov) > capRows {
		fmt.Fprintf(b, "<p class=\"note\">showing first %d of %d transitions</p>\n", capRows, len(ov))
	}
	fmt.Fprintf(b, "<p class=\"note\">%d flight events total in the run's ring</p>\n", len(d.Events))
}
