package main

import (
	"fmt"
	"time"
)

// modeler is implemented by a workload whose unit of work the ladder
// can price: rung cost times how often the unit pays it.
type modeler interface {
	// model returns the modeled wait of one unit of work and the part
	// of it the machine, uts and wire rungs account for, both in
	// microseconds, plus per-layer numbers only this workload has.
	model(rung map[string]float64, m *measurement) (waitUS, codecUS float64, extra map[string]float64, err error)
}

// tracedResult is one --trace 1 run: the ladder, then the workload for
// a quarter of the window plain, half of it traced, a quarter plain.
func tracedResult(w workload, seed int64, d time.Duration) (*result, error) {
	rung, err := runLadder(seed)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	// Both deployments stand before either is measured, and the plain
	// one runs before and after the traced one: the sandbox's speed
	// drifts by tens of percent over minutes, and a drift that is linear
	// over the window cancels out of plain-traced-plain.
	deployed := func(tr *tracer) (instance, error) {
		inst, err := w.setup(seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return inst, nil
	}
	plainInst, err := deployed(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tracedInst, err := deployed(tr)
	if err != nil {
		plainInst.close()
		return nil, err
	}
	tr.reset() // the trace covers the measured window, not set-up
	var plain, traced, after *measurement
	if plain, err = window(plainInst, d/4); err == nil {
		if traced, err = window(tracedInst, d/2); err == nil {
			after, err = window(plainInst, d/4)
		}
	}
	closeErr := plainInst.close()
	if cerr := tracedInst.close(); closeErr == nil {
		closeErr = cerr
	}
	if err != nil {
		return nil, err
	}
	// Counts and ratios in plain.Layer come from the first plain window;
	// the waits, operations and CPU time of both are pooled.
	plain.tally.add(after.tally)
	plain.tally.add(traced.tally)
	plain.Ops += after.Ops
	plain.CPU += after.CPU
	plain.Waits = append(plain.Waits, after.Waits...)
	r := newResult(plain)
	r.endOfRun(closeErr)
	for k, v := range rung {
		r.set(k, v)
	}
	for k, v := range plain.Layer {
		r.set(k, v)
	}
	waits := summarize(micros(plain.Waits))
	r.set("bench.cpu_us_per_op", float64(plain.CPU.Microseconds())/float64(plain.Ops))
	r.set("bench.wait_samples", float64(waits.N))
	r.set("bench.wait_top_us", waits.TopPct)
	r.set("bench.wait_top_pct", waits.TopPctName)
	r.set("bench.trace_overhead_pct", 100*(median(micros(traced.Waits))/waits.Median-1))

	spans := tr.all()
	sum := tr.summarize(spans)
	path, err := tr.write(outDir, w.Name, seed, spans, sum)
	if err != nil {
		return nil, err
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(traced.Ops) }
	for metric, layer := range map[string]string{
		"span.run_self_us_per_op":       "bench.run",
		"span.call_self_us_per_op":      "schooner.call",
		"span.conn_send_us_per_op":      "conn.send",
		"span.conn_recv_wait_us_per_op": "conn.recv_wait",
		"span.proc_fn_us_per_op":        "proc.fn",
		"span.mgr_wait_us_per_op":       "mgr.recv_wait",
	} {
		if l := sum.Layers[layer]; l != nil {
			r.set(metric, perOp(l.SelfNS))
		}
	}
	if sum.RootNS > 0 {
		r.set("netsim.sleep_share", float64(sum.SleepNS)/float64(sum.RootNS))
	}

	if mod, ok := plainInst.(modeler); ok {
		waitUS, codecUS, extra, err := mod.model(rung, plain)
		if err != nil {
			return nil, err
		}
		for k, v := range extra {
			r.set(k, v)
		}
		if waitUS > 0 {
			r.set("ladder.modeled_wait_us", waitUS)
			r.set("ladder.coverage", waitUS/waits.Median)
			r.set("ladder.codec_share", codecUS/waits.Median)
		}
	}
	r.notes = append(r.notes,
		"plain wait: "+waits.String(),
		"traced wait: "+summarize(micros(traced.Waits)).String(),
		fmt.Sprintf("%d spans, trace written to %s", len(spans), path))
	return r, nil
}
