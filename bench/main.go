// Command bench is the repository's one executable benchmark: six
// named workloads over the NPSS/Schooner stack, end-to-end metrics
// with regression bounds, and a per-layer ladder that reconciles with
// them. BENCHMARK.json at the repository root declares it; README.md
// in this directory explains the design.
//
//	go run ./bench -workload table2-sw -seed 1              end-to-end metrics
//	go run ./bench -workload table2-sw -seed 1 -trace 1     per-layer metrics
//	go run ./bench -workload all -seed 1 -record a.jsonl    every workload, results appended to a file
//	go run ./bench -compare a.jsonl b.jsonl                 apply the bounds to two result files
//
// The last line of standard output is the result as one JSON object;
// everything meant for a reader goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime/pprof"
	"time"

	"npss/internal/logx"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints: whether every output was right, how
// many operations were attempted and failed, and the metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string
}

func newResult(m *measurement) *result {
	return &result{
		Correct:   m.Failed == 0,
		Attempted: m.Attempted,
		Failed:    m.Failed,
		Metrics:   make(map[string]metricValue),
	}
}

// endOfRun books the workload's tear-down checks.
func (r *result) endOfRun(err error) {
	if err != nil {
		r.Correct = false
		r.notes = append(r.notes, "end-of-run check: "+err.Error())
	}
}

// set records a declared metric; an undeclared name is a bug in the
// benchmark, not a condition of the run.
func (r *result) set(name string, v float64) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// complete checks an end-to-end result has every metric, finite and
// nonzero, and gives a per-layer result a 0 for every rung or span
// that does not exist on this workload.
func (r *result) complete(defs []metricDef, mustBeSet bool) error {
	for _, d := range defs {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			if mustBeSet {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			r.set(d.Name, 0)
			continue
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || (mustBeSet && mv.Value == 0) {
			return fmt.Errorf("metric %s has no usable value (%v)", d.Name, mv.Value)
		}
	}
	return nil
}

// runSeconds is the window BENCHMARK.json declares: long enough that
// the slowest unit of work (a table2-wan run, 1.4 s) gives a median of
// seven, short enough that the driver's 136 runs fit its budget.
const runSeconds = 10

// record is one line of a -record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: one of the six names, or all")
		seed       = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds    = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, tracing absent; 1: per-layer metrics from the ladder and a traced repeat")
		recordPath = flag.String("record", "", "append the result to this JSON-lines file, for -compare")
		compare    = flag.Bool("compare", false, "compare two -record files given as arguments against BENCHMARK.json's bounds")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	if err := run(*name, *seed, *seconds, *trace, *recordPath, *cpuprofile); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, recordPath, cpuprofile string) error {
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	selected := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	// The program under test logs expected faults (dst-sweep crashes
	// machines on purpose); only its errors belong on the terminal.
	logx.SetLevel(slog.LevelError + 4)
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	d := time.Duration(seconds * float64(time.Second))
	allCorrect := true
	for _, w := range selected {
		var r *result
		var err error
		if trace == 0 {
			if r, err = untracedResult(w, seed, d); err == nil {
				err = r.complete(endToEnd, true)
			}
		} else {
			if r, err = tracedResult(w, seed, d); err == nil {
				err = r.complete(perLayer, false)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Fprintf(os.Stderr, "== %s seed=%d trace=%d correct=%v attempted=%d failed=%d\n",
			w.Name, seed, trace, r.Correct, r.Attempted, r.Failed)
		for _, n := range r.notes {
			fmt.Fprintln(os.Stderr, "  ", n)
		}
		if recordPath != "" {
			if err := appendRecord(recordPath, record{w.Name, seed, trace, r}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && r.Correct
	}
	if !allCorrect {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
