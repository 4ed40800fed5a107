package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. It wraps math/rand.Rand so the
// simulator controls seeding; callers must never reach for the global
// math/rand functions, which would break reproducibility.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// streamSeed derives a stream's seed from the kernel seed and its name, so
// adding a new stream does not perturb draws on existing streams.
func streamSeed(kernelSeed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return kernelSeed ^ int64(h.Sum64())
}

// Stream returns the named random stream, creating it on first use. The
// stream's seed is derived from the kernel seed and the name, so adding a
// new stream does not perturb draws on existing streams.
func (k *Kernel) Stream(name string) *RNG {
	if s, ok := k.streams[name]; ok {
		return s
	}
	s := NewRNG(streamSeed(k.seed, name))
	k.streams[name] = s
	return s
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard-normal draw.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Gaussian returns a normal draw with the given mean and standard deviation.
func (g *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// UniformRange returns a uniform draw in [lo, hi).
func (g *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exponential returns an exponentially distributed draw with the given
// mean — the dwell-time distribution of memoryless on/off processes such
// as the Gilbert–Elliott jammer. A non-positive mean returns 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(1-g.r.Float64())
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Binomial returns the number of successes in n Bernoulli(p) trials. For
// large n with small expected count it uses per-trial inversion on a
// geometric skip, which is O(successes) instead of O(n).
//
// Every p in (0, 2⁻⁸⁰] yields the same count from the same draws. For
// n ≤ 64 a trial succeeds only on a Float64 of exactly 0, since the
// smallest non-zero Float64 is 2⁻⁶³. For n > 64 the first skip is at
// least −log(1−2⁻⁵³)/p ≥ 1.3e8 trials (or +Inf on a 0 draw), so the
// call returns 0 after exactly one Float64 whenever n is below that, and
// takes that exit without evaluating the logarithms.
// TestBinomialTinyPInvariant and TestBinomialTinyPCutBound check it.
func (g *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// For moderate n a direct loop is cheap and unbiased.
	if n <= 64 {
		c := 0
		for i := 0; i < n; i++ {
			if g.r.Float64() < p {
				c++
			}
		}
		return c
	}
	if p <= 0x1p-80 && n < 130_000_000 {
		g.r.Float64() // the first skip's draw, which passes n
		return 0
	}
	// Geometric skipping: index of next success is current + 1 + Geom(p).
	c := 0
	i := 0
	logq := math.Log1p(-p)
	for {
		skipF := math.Floor(math.Log(g.r.Float64()) / logq)
		// Guard the int conversion: for tiny p the skip can exceed any
		// integer range, which simply means no further successes.
		if skipF >= float64(n-i) {
			return c
		}
		i += int(skipF) + 1
		if i > n {
			return c
		}
		c++
	}
}
