package phy

import (
	"math"
	"testing"
)

// TestPow10MatchesMathPow checks that pow10 returns math.Pow(10, y) bit
// for bit on the running GOARCH: every exponent −400…400 in 1e-4 steps
// (the dBm/10, SINR/10 and path-loss exponents the simulator feeds it,
// and far beyond the float64 range at both ends) with both float64
// neighbours, then the special values and |y| ≥ 2³¹.
func TestPow10MatchesMathPow(t *testing.T) {
	check := func(y float64) {
		t.Helper()
		got, want := pow10(y), math.Pow(10, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow10(%v) = %v (%#x), math.Pow %v (%#x)",
				y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const lo, hi, step = -400.0, 400.0, 1e-4
	n := int(math.Round((hi - lo) / step))
	for i := 0; i <= n; i++ {
		y := lo + float64(i)*step
		check(math.Nextafter(y, math.Inf(-1)))
		check(y)
		check(math.Nextafter(y, math.Inf(1)))
	}
	for _, y := range []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-308, -307.5, -323.3, -324, 308.25, 309,
		1 << 31, -(1 << 31), math.Nextafter(1<<31, 0), -math.Nextafter(1<<31, 0),
		1 << 40, -(1 << 40), 1<<40 + 0.5, 1 << 63, -(1 << 63), 1e300, -1e300,
	} {
		check(y)
	}
}
