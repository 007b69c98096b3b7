package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail latency is chosen from. A
// fixed ladder keeps the reported percentile the same across runs whose
// sample counts differ slightly; picking the exact highest percentile that
// leaves ten samples above it would move with every extra request.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many requests must rank above the tail percentile.
const minBeyond = 10

// beyond returns how many of n requests rank strictly above the p-th
// percentile's nearest rank. The tolerance absorbs float error in p/100*n.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n distinct requests beyond it, and whether any percentile
// qualified; when none does it returns the median.
func tailPercentile(n int) (float64, bool) {
	best, ok := tailLadder[0], false
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, the statistic the benchmark's steadiness is judged
// by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
