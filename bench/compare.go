package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the declaration at the repository root; -compare
// takes its bounds from there, not from the binary's own tables, so
// that the file a reviewer reads is the file that judges.
const benchmarkFile = "BENCHMARK.json"

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []declWorkload `json:"workloads"`
	EndToEnd   []declEndToEnd `json:"end_to_end"`
	PerLayer   []declPerLayer `json:"per_layer"`
}

type declWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRecords loads a -record file: metric values of the untraced runs
// by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 || rec.Result == nil {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its correctness checks; its timings mean nothing", path, line, rec.Workload, rec.Seed)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, mv := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], mv.Value)
		}
	}
	return out, sc.Err()
}

// verdict compares the runs of a change (b) with those of its parent
// (a) for one metric. worse is measured as a share of the parent's
// median, in the direction that is bad for this metric.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (v string, worse, noise float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	sign := 1.0
	if !lowerIsBetter {
		worse, sign = -worse, -1
	}
	noise = max(spread(a), spread(b))
	// Every run of one side beating every run of the other resolves a
	// difference whatever the spread.
	sa, sb := summarizeRange(a, sign), summarizeRange(b, sign)
	switch {
	case sb.hi < sa.lo:
		return "better", worse, noise
	case sb.lo > sa.hi && worse > bound:
		return "worse", worse, noise
	case noise > bound:
		return "unresolved", worse, noise
	case worse > bound:
		return "worse", worse, noise
	case worse < -noise:
		return "better", worse, noise
	}
	return "same", worse, noise
}

// valueRange is the extent of a set of runs on a scale where higher is
// worse.
type valueRange struct{ lo, hi float64 }

func summarizeRange(v []float64, sign float64) valueRange {
	r := valueRange{sign * v[0], sign * v[0]}
	for _, x := range v {
		r.lo, r.hi = min(r.lo, sign*x), max(r.hi, sign*x)
	}
	return r
}

// compareMain prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any row is worse, 2 on bad input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare parent.jsonl change.jsonl")
		return 2
	}
	decl, err := readDeclaration(benchmarkFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sides [2]map[string]map[string][]float64
	for i, path := range args {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	names := make([]string, 0, len(sides[0]))
	for w := range sides[0] {
		if sides[1][w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two files share no workload")
		return 2
	}
	code := 0
	fmt.Printf("%-11s %-14s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "parent p50", "change p50", "worse%", "spread%", "bound%", "verdict")
	for _, w := range names {
		for _, m := range decl.EndToEnd {
			a, b := sides[0][w][m.Name], sides[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse, noise := verdict(a, b, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-11s %-14s %14.4f %14.4f %+8.2f %8.2f %7.1f  %s (n=%d,%d)\n",
				w, m.Name, median(a), median(b), 100*worse, 100*noise, 100*m.Bound, v, len(a), len(b))
		}
	}
	return code
}
