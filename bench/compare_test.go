package main

import "testing"

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		lower  bool
		bound  float64
		expect string
	}{
		{"same runs", steady, steady, true, 0.10, "same"},
		{"slower beyond the bound", steady, []float64{120, 121, 119, 122, 120}, true, 0.10, "worse"},
		{"slower within the bound", steady, []float64{104, 105, 103, 104, 106}, true, 0.10, "same"},
		{"every run faster", steady, []float64{90, 91, 89, 92, 90}, true, 0.10, "better"},
		{"throughput down beyond the bound", steady, []float64{80, 81, 79, 82, 80}, false, 0.10, "worse"},
		{"throughput up", steady, []float64{120, 121, 119, 122, 120}, false, 0.10, "better"},
		{"spread wider than the bound", []float64{100, 140, 70, 100, 130}, []float64{105, 150, 75, 100, 120}, true, 0.10, "unresolved"},
		{"wide spread, yet every run worse", []float64{100, 140, 70, 100, 130}, []float64{200, 260, 150, 210, 240}, true, 0.10, "worse"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.lower, c.bound); got != c.expect {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.expect)
		}
	}
}
