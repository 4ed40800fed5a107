package phy

import "math"

// pow10 returns math.Pow(10, y) bit for bit. It repeats the arithmetic of
// Go's generic math.pow for x = 10 with the per-call work hoisted out:
// Log(10) is computed once, the Frexp(10) squaring ladder is a table,
// Modf is an integer truncation and Ldexp a multiply while the result
// stays normal. Special values and |y| ≥ 2³¹ go to math.Pow itself.
// TestPow10MatchesMathPow checks the identity on the running GOARCH; a
// GOARCH whose math.Pow is an assembly routine (s390x) may fail it.
func pow10(y float64) float64 {
	ay := math.Abs(y)
	if !(ay < 1<<31) || y == 0 || y == 1 || ay == 0.5 {
		return math.Pow(10, y) // NaN, ±Inf, huge |y| and pow's early returns
	}
	// Modf(ay): below 2³¹ the int64 conversion truncates exactly.
	yi := float64(int64(ay))
	yf := ay - yi

	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}
	for j, i := 0, int64(yi); i != 0; j, i = j+1, i>>1 {
		s := pow10Ladder[j]
		if s.xe > 1<<12 {
			ae += s.xe // pow's overflow exit: the result is ±Inf or 0
			break
		}
		if i&1 == 1 {
			a1 *= s.x1
			ae += s.xe
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	// a1 lies within 2^±40 (a product of at most 32 ladder fractions in
	// [0.5, 1) and one Exp of |arg| ≤ 1.2, or its reciprocal), so for
	// |ae| ≤ 900 the product is normal and the multiply is exact — the
	// value Ldexp builds from the exponent bits.
	if ae < -900 || ae > 900 {
		return math.Ldexp(a1, ae)
	}
	return a1 * math.Float64frombits(uint64(ae+1023)<<52)
}

// ln10 is math.Log(10) as math.pow computes it on every call. It is the
// function's value, not the math.Ln10 constant: nothing guarantees that
// every GOARCH's Log rounds to the constant, and pow10 must match
// math.Pow exactly.
var ln10 = math.Log(10)

// pow10Step is one rung of math.pow's squaring ladder for x = 10:
// 10^(2^j) = x1·2^xe with x1 in [0.5, 1).
type pow10Step struct {
	x1 float64
	xe int
}

// pow10Ladder holds the ladder's rungs in loop order, ending at the first
// rung whose exponent exceeds 2¹², where math.pow stops squaring.
var pow10Ladder = func() (l []pow10Step) {
	x1, xe := math.Frexp(10)
	for {
		l = append(l, pow10Step{x1, xe})
		if xe > 1<<12 {
			return l
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
}()
