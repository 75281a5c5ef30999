package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// A workload is one set of inputs the benchmark runs. All six are
// closed loops: every caller waits for its reply before it issues the
// next request, as a dataflow executive does.
type workload struct {
	Name string
	Why  string
	// setup deploys the workload for one seed up to and including its
	// first warm-up run or call. A nil tracer gives the plain
	// deployment; a non-nil one hangs the tracing decorators on it.
	setup func(seed int64, tr *tracer) (instance, error)
}

// instance is a deployed workload.
type instance interface {
	// measure drives the closed loop for about d.
	measure(d time.Duration) (*measurement, error)
	// close tears the deployment down and runs the end-of-run checks.
	close() error
}

// measurement is what one measured window produced.
type measurement struct {
	tally
	// Ops is the number of completed operations (see endToEnd for what
	// an operation is on each workload).
	Ops int64
	// Waits has one entry per completed unit of work.
	Waits   []time.Duration
	Elapsed time.Duration
	CPU     time.Duration
	// Layer carries the workload's own per-layer numbers (counters it
	// read, samples it took beside the waits).
	Layer map[string]float64
}

// callers is how many client goroutines the concurrent workloads run:
// the sandbox has two cores, and a dataflow executive rarely has more
// than a couple of modules ready at once.
const callers = 2

// setup_s is the median of full set-up/tear-down cycles: at least
// minSetupCycles, and for set-ups that take milliseconds as many more
// as fit in setupBudget, so that the median of a cheap set-up is as
// steady as that of a dear one.
const (
	minSetupCycles = 3
	maxSetupCycles = 40
	setupBudget    = time.Second
)

var workloads = []workload{
	{
		Name:  "table2-sw",
		Why:   "Paper's Table 2 placement, sequential calls, 1 s transient, network delays recorded but not slept: the whole software stack per message.",
		setup: setupTable2(false),
	},
	{
		Name:  "table2-wan",
		Why:   "Same placement, parallel+batched, simulated WAN really sleeps: latency-bound twin where only fewer round trips or more overlap help.",
		setup: setupTable2(true),
	},
	{
		Name:  "rpc-bulk",
		Why:   "Two lines echo array[4096] of double via Cray and VAX-D hosts on zero-delay links: bytes dominate, so conversion, codec and copying do the work.",
		setup: setupBulk,
	},
	{
		Name:  "rpc-tcp",
		Why:   "Paper's 7-value shaft call over loopback TCP, two callers pipelined on one binding: stream framing and reply demux, the daemons' production path.",
		setup: setupTCP,
	},
	{
		Name:  "ctl-churn",
		Why:   "Journaling Manager, 128 resident lines, seeded mix of 70 cache-miss lookups, 20 register-start-call-quit cycles, 10 moves: reads beside writes.",
		setup: setupChurn,
	},
	{
		Name:  "dst-sweep",
		Why:   "Consecutive dst.Run seeds on the virtual clock: the only workload where quiescence detection, health probing, failover and journal replay dominate.",
		setup: setupSweep,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop runs n callers for d. Each caller repeats unit — one unit
// of work, booked into the caller's own measurement — until the window
// closes, and the callers' measurements are merged. An error from unit
// means the run is broken, not that an operation failed.
func closedLoop(d time.Duration, n int, unit func(caller int, m *measurement) error) (*measurement, error) {
	parts := make([]*measurement, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < n; i++ {
		parts[i] = &measurement{Layer: make(map[string]float64)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < d {
				if err := unit(i, parts[i]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	total := &measurement{Elapsed: time.Since(start), CPU: cpuTime() - cpu0, Layer: make(map[string]float64)}
	for i, p := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.add(p.tally)
		total.Ops += p.Ops
		total.Waits = append(total.Waits, p.Waits...)
		for k, v := range p.Layer {
			total.Layer[k] += v
		}
	}
	return total, nil
}

// count books ops finished operations, failed when their outputs were
// wrong.
func (m *measurement) count(ops int64, ok bool) {
	m.Ops += ops
	if ok {
		m.ok(ops)
	} else {
		m.fail(ops)
	}
}

// record books one finished unit of work: its operations and, when its
// outputs were right, its wait — a failure has no latency to report.
func (m *measurement) record(wait time.Duration, ops int64, ok bool) {
	m.count(ops, ok)
	if ok {
		m.Waits = append(m.Waits, wait)
	}
}

// window measures a deployed workload for d and insists that it got
// something done.
func window(inst instance, d time.Duration) (*measurement, error) {
	m, err := inst.measure(d)
	if err == nil && (len(m.Waits) == 0 || m.Ops == 0) {
		err = fmt.Errorf("no unit of work completed in %v", d)
	}
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	return m, nil
}

// untracedResult is one --trace 0 run: every end-to-end metric.
func untracedResult(w workload, seed int64, d time.Duration) (*result, error) {
	var setups []float64
	var inst instance
	begun := time.Now()
	for i := 0; i < minSetupCycles || (i < maxSetupCycles && time.Since(begun) < setupBudget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tear-down of set-up cycle %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m, err := window(inst, d)
	if err != nil {
		inst.close()
		return nil, err
	}
	r := newResult(m)
	r.endOfRun(inst.close())
	waits := summarize(micros(m.Waits))
	r.set("setup_s", median(setups))
	r.set("ops_per_s", float64(m.Ops)/m.Elapsed.Seconds())
	r.set("wait_p50_us", waits.Median)
	r.notes = append(r.notes,
		"wait: "+waits.String(),
		fmt.Sprintf("setup: n=%d cycles, p50=%.6fs", len(setups), median(setups)),
		fmt.Sprintf("ops=%d in %.3fs, cpu %.3fs", m.Ops, m.Elapsed.Seconds(), m.CPU.Seconds()))
	return r, nil
}
