package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 0},
		{n: 19},
		{n: 20, pct: 50, beyond: 10, ok: true},
		{n: 99, pct: 50, beyond: 49, ok: true},
		{n: 100, pct: 90, beyond: 10, ok: true},
		{n: 999, pct: 90, beyond: 99, ok: true},
		{n: 1000, pct: 99, beyond: 10, ok: true},
		{n: 9999, pct: 99, beyond: 99, ok: true},
		{n: 10000, pct: 99.9, beyond: 10, ok: true},
	} {
		pct, beyond, ok := tailPercentile(c.n)
		if pct != c.pct || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v",
				c.n, pct, beyond, ok, c.pct, c.beyond, c.ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}
