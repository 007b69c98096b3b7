package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 50, false},
		{19, 50, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
}

// The reference values come from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for _, p := range [][2]float64{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
				break
			}
		}
	}
}

// repeatWorkload replays the same 100 requests every pass.
type repeatWorkload struct{ fakeWorkload }

func (*repeatWorkload) pass(int) []request {
	out := make([]request, 100)
	for i := range out {
		out[i].eng.Seed = int64(i)
	}
	return out
}

// A tail over repeated requests needs ten distinct requests beyond it, not
// ten samples: five passes of 100 requests give p90, not p95.
func TestTailCountsDistinctRequests(t *testing.T) {
	info := map[string]any{}
	if _, err := measuredRun(&repeatWorkload{}, 0.5, info); err != nil {
		t.Fatal(err)
	}
	if info["samples"] != 500 || info["distinct_requests"] != 100 || info["tail_percentile"] != 90.0 {
		t.Errorf("samples %v, distinct %v, tail p%v; want 500, 100, p90",
			info["samples"], info["distinct_requests"], info["tail_percentile"])
	}
}
