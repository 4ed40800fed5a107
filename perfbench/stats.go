package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. NaN for an empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a timing's tail may be reported
// at, in per-mille so the arithmetic below is exact.
var tailLadder = []int{999, 990, 900, 500}

// minBeyond is how many samples must lie beyond a percentile before it
// says anything about the tail rather than about the largest few samples.
const minBeyond = 10

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder with at least minBeyond of the n samples beyond
// it. ok is false when even the median lacks that many, i.e. n < 20.
func tailPercentile(n int) (pct float64, beyond int, ok bool) {
	for _, pm := range tailLadder {
		if b := n * (1000 - pm) / 1000; b >= minBeyond {
			return float64(pm) / 10, b, true
		}
	}
	return 0, 0, false
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
