package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample summarises one set of timings the way the benchmark reports
// them: a median, the quartiles, and the highest percentile that still
// has at least ten samples beyond it, always with the sample count.
type sample struct {
	N          int
	P25        float64
	Median     float64
	P75        float64
	TopPct     float64 // 0 when N is too small for any tail percentile
	TopPctName float64 // which percentile TopPct is (90, 99, 99.9, ...)
}

// String renders the sample in microseconds, the unit of every wait.
func (s sample) String() string {
	out := fmt.Sprintf("n=%d p25=%.1fus p50=%.1fus p75=%.1fus", s.N, s.P25, s.Median, s.P75)
	if s.TopPctName > 0 {
		out += fmt.Sprintf(" p%g=%.1fus", s.TopPctName, s.TopPct)
	}
	return out
}

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of values and returns the middle.
func median(values []float64) float64 {
	return summarize(values).Median
}

// tailPercentiles are the candidates for "highest percentile with at
// least ten samples beyond it", highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90}

// summarize computes the reported statistics of values.
func summarize(values []float64) sample {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s := sample{
		N:      len(sorted),
		P25:    quantile(sorted, 0.25),
		Median: quantile(sorted, 0.5),
		P75:    quantile(sorted, 0.75),
	}
	for _, p := range tailPercentiles {
		// Samples strictly beyond the percentile's rank.
		// (The epsilon keeps 99.99% of 100000 at 99990, not a hair above.)
		beyond := len(sorted) - int(math.Ceil(p/100*float64(len(sorted))-1e-9))
		if beyond >= 10 {
			s.TopPct, s.TopPctName = quantile(sorted, p/100), p
			break
		}
	}
	return s
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure the regression bounds are compared with.
func spread(values []float64) float64 {
	s := summarize(values)
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.P75 - s.P25) / math.Abs(s.Median)
}

// micros converts durations to float microseconds for summarize.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [start, end) the children cover, with
// overlapping children counted once and parts outside the parent
// ignored.
func covered(start, end int64, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < start {
			c.start = start
		}
		if c.end > end {
			c.end = end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			total += c.end - reach
			reach = c.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(start, end int64, children []interval) int64 {
	return (end - start) - covered(start, end, children)
}

// tally counts operations against the number attempted: a failed or
// wrong-answer operation is attempted, counted failed, and contributes
// no latency sample.
type tally struct {
	Attempted int64
	Failed    int64
}

func (t *tally) ok(n int64)   { t.Attempted += n }
func (t *tally) fail(n int64) { t.Attempted += n; t.Failed += n }
func (t *tally) add(o tally)  { t.Attempted += o.Attempted; t.Failed += o.Failed }
