package phy

import (
	"math"
	"testing"
	"testing/quick"
)

// referenceBitErrorRate is BitErrorRate as first written: all 15 terms,
// with the sign, binomial and 1/k − 1 recomputed per term. The fast path
// must reproduce its bits exactly.
func referenceBitErrorRate(sinrDB float64) float64 {
	binomial16 := [17]float64{
		1, 16, 120, 560, 1820, 4368, 8008, 11440,
		12870, 11440, 8008, 4368, 1820, 560, 120, 16, 1,
	}
	gamma := math.Pow(10, (sinrDB-ImplementationLoss)/10)
	sum := 0.0
	sign := 1.0 // (-1)^k for k=2 is +1
	for k := 2; k <= 16; k++ {
		sum += sign * binomial16[k] * math.Exp(20*gamma*(1/float64(k)-1))
		sign = -sign
	}
	ber := (8.0 / 15.0) * (1.0 / 16.0) * sum
	if ber < 0 {
		return 0
	}
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

func TestBitErrorRateMatchesReference(t *testing.T) {
	check := func(s float64) {
		t.Helper()
		got, want := BitErrorRate(s), referenceBitErrorRate(s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BitErrorRate(%v) = %v (%#x), reference %v (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// −30…80 dB in 1e-4 dB steps, each point with both float64
	// neighbours: every term count the early exit can stop at.
	const lo, hi, step = -30.0, 80.0, 1e-4
	for i := 0; i <= int((hi-lo)/step); i++ {
		s := lo + float64(i)*step
		check(math.Nextafter(s, math.Inf(-1)))
		check(s)
		check(math.Nextafter(s, math.Inf(1)))
	}
	for _, s := range []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, math.MaxFloat64, -math.MaxFloat64} {
		check(s)
	}
	// A lone transmission: the SINR phy.SINR reports against silence.
	for sig := DBm(-110); sig <= MaxTxPower; sig += 0.5 {
		check(SINR(sig, Silent))
	}
}

// TestExpZeroFloorIsMonotone checks the premise of BitErrorRate's early
// exit on the running GOARCH: the term exponents fall with k, and once
// math.Exp underflows to 0 it stays 0 for every smaller argument.
func TestExpZeroFloorIsMonotone(t *testing.T) {
	for k := 3; k <= 16; k++ {
		if !(berExponent[k] < berExponent[k-1]) {
			t.Fatalf("berExponent[%d] = %v not below berExponent[%d] = %v",
				k, berExponent[k], k-1, berExponent[k-1])
		}
	}
	const hi, lo, step = -740.0, -760.0, 1e-6
	if math.Exp(hi) == 0 || math.Exp(lo) != 0 {
		t.Fatalf("exp(%v) = %v, exp(%v) = %v: the zero floor is outside the sweep",
			hi, math.Exp(hi), lo, math.Exp(lo))
	}
	floor := math.NaN()
	for i := 0; i <= int((hi-lo)/step); i++ {
		x := hi - float64(i)*step
		e := math.Exp(x)
		switch {
		case e == 0 && math.IsNaN(floor):
			floor = x
		case e != 0 && !math.IsNaN(floor):
			t.Fatalf("exp(%v) = %v after exp(%v) = 0", x, e, floor)
		}
	}
	for _, x := range []float64{-800, -1e6, -math.MaxFloat64, math.Inf(-1)} {
		if e := math.Exp(x); e != 0 {
			t.Fatalf("exp(%v) = %v, want 0", x, e)
		}
	}
}

func TestBitErrorRateMonotoneDecreasing(t *testing.T) {
	prev := 1.0
	for sinr := -10.0; sinr <= 15; sinr += 0.25 {
		ber := BitErrorRate(sinr)
		if ber > prev+1e-12 {
			t.Fatalf("BER not monotone: BER(%v)=%v > previous %v", sinr, ber, prev)
		}
		prev = ber
	}
}

func TestBitErrorRateBounds(t *testing.T) {
	f := func(s float64) bool {
		ber := BitErrorRate(s)
		return ber >= 0 && ber <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitErrorRateCliff(t *testing.T) {
	// The DSSS cliff sits near CliffSINR: material bit errors at the
	// cliff, negligible a few dB above, hopeless a few dB below.
	atCliff := BitErrorRate(CliffSINR)
	if atCliff < 1e-5 || atCliff > 1e-2 {
		t.Errorf("BER(cliff) = %v, want within [1e-5, 1e-2]", atCliff)
	}
	if above := BitErrorRate(CliffSINR + 4); above > 1e-7 {
		t.Errorf("BER(cliff+4 dB) = %v, want < 1e-7", above)
	}
	if below := BitErrorRate(CliffSINR - 4); below < 0.01 {
		t.Errorf("BER(cliff-4 dB) = %v, want > 0.01", below)
	}
	// Equal-power co-channel collision (SINR ≈ 0 dB) must be fatal for a
	// typical frame — the paper's co-channel observation.
	if per := PacketErrorRate(0, 648); per < 0.99 {
		t.Errorf("PER(0 dB, 648 bits) = %v, want ≈ 1", per)
	}
}

func TestPacketErrorRateGrowsWithLength(t *testing.T) {
	short := PacketErrorRate(1, 100)
	long := PacketErrorRate(1, 1000)
	if long <= short {
		t.Errorf("PER(1000 bits) = %v not > PER(100 bits) = %v", long, short)
	}
}

func TestPacketErrorRateBounds(t *testing.T) {
	f := func(s float64, bits int) bool {
		if bits < 0 {
			bits = -bits
		}
		bits %= 10000
		per := PacketErrorRate(s, bits)
		return per >= 0 && per <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketErrorRateZeroBits(t *testing.T) {
	if got := PacketErrorRate(-20, 0); got != 0 {
		t.Errorf("PER(0 bits) = %v, want 0", got)
	}
}

func TestPacketErrorRateHighSINRIsClean(t *testing.T) {
	if got := PacketErrorRate(20, 8*127); got > 1e-9 {
		t.Errorf("PER(20 dB, max frame) = %v, want ~0", got)
	}
}
