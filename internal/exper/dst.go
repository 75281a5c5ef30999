package exper

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"npss/internal/critpath"
	"npss/internal/dst"
	"npss/internal/tseries"
)

// DSTReport runs one deterministic-simulation scenario — a whole
// Schooner cluster under a seeded schedule of crashes, partitions, and
// migrations, in virtual time — and renders a report. A positive
// seriesInterval additionally samples windowed metric series on the
// scenario's virtual clock (returned for the HTML report; the series
// is a pure function of the seed). With profile set the run records
// spans on its virtual clock and returns the critical-path
// attribution of the whole run — byte-identical across same-seed
// runs. The boolean is false when an invariant was
// violated; the report then carries the seed and the shrunk trace
// needed to reproduce the failure.
func DSTReport(seed int64, ops int, seriesInterval time.Duration, profile bool) (string, tseries.Series, *critpath.Profile, bool) {
	cfg := dst.Config{Seed: seed, Ops: ops, SeriesInterval: seriesInterval, Profile: profile}
	res, err := dst.Run(cfg)
	if err != nil {
		return fmt.Sprintf("dst: harness error: %v\n", err), tseries.Series{}, nil, false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d ops, %v virtual in %v real\n",
		res.Seed, len(res.Ops), res.VirtualElapsed.Round(1e6), res.RealElapsed.Round(1e6))

	keys := make([]string, 0, len(res.Signature))
	for k := range res.Signature {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-40s %d\n", k, res.Signature[k])
	}
	if n := len(res.Series.Windows); n > 0 {
		fmt.Fprintf(&b, "sampled %d windows of %v virtual time\n", n, time.Duration(res.Series.Interval))
	}
	if res.Profile != nil {
		fmt.Fprintf(&b, "attribution: critical path %v across %d phase(s), %d spans\n",
			res.Profile.Total.CriticalPath, len(res.Profile.Phases), res.Profile.Spans)
	}

	if res.Violation == nil {
		b.WriteString("all invariants held\n")
		return b.String(), res.Series, res.Profile, true
	}

	fmt.Fprintf(&b, "INVARIANT VIOLATED: %s\n", res.Violation)
	// The run-scoped flight recorder's last events are the post-mortem's
	// starting point; the Result captured the dump at teardown, before
	// shrinking replays bury the original history.
	b.WriteString(res.FlightDump)
	if n := len(res.Series.Windows); n > 0 {
		// The last windows before the violation ride along, the same
		// section a live sampler appends to an in-flight dump.
		tail := res.Series
		if n > 8 {
			tail.Windows = tail.Windows[n-8:]
		}
		b.WriteString("-- series tail --\n")
		b.WriteString(tail.Format())
	}
	shrunk, serr := dst.Shrink(cfg, res.Ops, res.Violation.Name)
	if serr != nil {
		fmt.Fprintf(&b, "shrink failed (%v); full trace:\n%s", serr, dst.FormatTrace(seed, res.Ops))
		return b.String(), res.Series, res.Profile, false
	}
	fmt.Fprintf(&b, "minimized to %d of %d ops:\n%s", len(shrunk), len(res.Ops), dst.FormatTrace(seed, shrunk))
	fmt.Fprintf(&b, "reproduce with: npss-exp -exp dst -seed %d -ops %d\n", seed, ops)
	return b.String(), res.Series, res.Profile, false
}
