package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBernoulliExtremes(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(p<0) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(p>1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	c := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			c++
		}
	}
	got := float64(c) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestUniformRangeBounds(t *testing.T) {
	g := NewRNG(3)
	f := func(a, b float64) bool {
		// Constrain to the dBm-scale magnitudes the simulator uses;
		// astronomically large ranges overflow hi-lo and are out of scope.
		lo := math.Mod(a, 1e6)
		hi := math.Mod(b, 1e6)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		v := g.UniformRange(lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialBounds(t *testing.T) {
	g := NewRNG(5)
	f := func(n int, p float64) bool {
		if n < 0 {
			n = -n
		}
		n %= 5000
		p = math.Mod(math.Abs(p), 1)
		c := g.Binomial(n, p)
		return c >= 0 && c <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialMeanSmallAndLargeN(t *testing.T) {
	g := NewRNG(11)
	for _, n := range []int{32, 1000} { // exercises both code paths
		const trials = 20000
		p := 0.01
		sum := 0
		for i := 0; i < trials; i++ {
			sum += g.Binomial(n, p)
		}
		mean := float64(sum) / trials
		want := float64(n) * p
		if math.Abs(mean-want) > 0.15*want+0.02 {
			t.Errorf("Binomial(%d, %v) mean = %v, want ~%v", n, p, mean, want)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	g := NewRNG(2)
	if got := g.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := g.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d", got)
	}
	if got := g.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d", got)
	}
}

// TestBinomialTinyPInvariant checks the invariance the radio's tiny-BER
// band rests on: for every p in (0, 2⁻⁸⁰], Binomial(n, p) returns the same
// count as Binomial(n, 2⁻⁸⁰) and leaves the stream at the same position.
// A third stream replays the draws the invariance predicts: n Float64s
// counting exact zeros for n ≤ 64, one Float64 and no success above.
func TestBinomialTinyPInvariant(t *testing.T) {
	var ns []int
	for n := 1; n <= 4096; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 1_000_000)
	for _, p := range []float64{0x1p-80, 1e-30, 1e-300, math.SmallestNonzeroFloat64} {
		ref, got, oracle := NewRNG(7), NewRNG(7), NewRNG(7)
		for _, n := range ns {
			want := ref.Binomial(n, 0x1p-80)
			if c := got.Binomial(n, p); c != want {
				t.Fatalf("Binomial(%d, %g) = %d, Binomial(%d, 2^-80) = %d", n, p, c, n, want)
			}
			predicted := 0
			if n <= 64 {
				for i := 0; i < n; i++ {
					if oracle.Float64() == 0 {
						predicted++
					}
				}
			} else {
				oracle.Float64()
			}
			if want != predicted {
				t.Fatalf("Binomial(%d, 2^-80) = %d, predicted %d", n, want, predicted)
			}
			r, g, o := ref.Int63(), got.Int63(), oracle.Int63()
			if g != r || o != r {
				t.Fatalf("n=%d p=%g: next draws %d (p), %d (2^-80), %d (predicted): the streams diverged", n, p, g, r, o)
			}
		}
	}
}

// TestBinomialTinyPCutBound checks the bound behind Binomial's tiny-p
// exit: at p = 2⁻⁸⁰ and the largest Float64 below 1, the geometric skip
// the exit stands in for already reaches 1.3e8 trials. A smaller p or
// draw only lengthens the skip, so below 1.3e8 trials the skipping loop
// would return 0 after its first draw, as the exit does.
func TestBinomialTinyPCutBound(t *testing.T) {
	skip := math.Floor(math.Log(math.Nextafter(1, 0)) / math.Log1p(-0x1p-80))
	if skip < 130_000_000 {
		t.Fatalf("shortest first skip at p = 2^-80 is %v trials, below the exit's 1.3e8", skip)
	}
	for _, p := range []float64{0x1p-80, 1e-30, math.SmallestNonzeroFloat64} {
		cut, skipped := NewRNG(3), NewRNG(3)
		for _, n := range []int{65, 1000, 129_999_999} {
			if c := cut.Binomial(n, p); c != 0 {
				t.Fatalf("Binomial(%d, %g) = %d, want 0", n, p, c)
			}
			u := skipped.Float64()
			if f := math.Floor(math.Log(u) / math.Log1p(-p)); !(f >= float64(n)) {
				t.Fatalf("draw %v: first skip %v trials is below n = %d", u, f, n)
			}
			if a, b := cut.Int63(), skipped.Int63(); a != b {
				t.Fatalf("n=%d p=%g: streams diverged after the exit (%d, %d)", n, p, a, b)
			}
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	g := NewRNG(13)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Gaussian(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	n := 0
	tk := k.NewTicker(10*Millisecond.Duration(), func() { n++ })
	k.RunUntil(55 * Millisecond)
	if n != 5 {
		t.Errorf("ticks = %d, want 5", n)
	}
	tk.Stop()
	k.RunUntil(200 * Millisecond)
	if n != 5 {
		t.Errorf("ticks after Stop = %d, want 5", n)
	}
	tk.Stop() // idempotent
}

func TestTickerStopFromCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var tk *Ticker
	tk = k.NewTicker(Millisecond.Duration(), func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	k.RunUntil(Second)
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	k := NewKernel(1)
	k.NewTicker(0, func() {})
}
