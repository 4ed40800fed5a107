// Package detsrc is a detsource fixture laid out as a simulation
// package (internal/<pkg>), so the analyzer applies.
package detsrc

import (
	"math/rand"
	"time"
)

// stream mimics the repository's sim.RNG: wrapping a seeded generator
// is the sanctioned way to produce randomness.
type stream struct {
	r *rand.Rand // using the rand.Rand TYPE is legal; only globals are not
}

func newStream(seed int64) *stream {
	return &stream{r: rand.New(rand.NewSource(seed))} // seeded: legal
}

func (s *stream) draw() float64 {
	return s.r.Float64() // method on an owned generator: legal
}

func globals() {
	_ = rand.Float64() // want "math/rand global Float64"
	_ = rand.Intn(7)   // want "math/rand global Intn"
	rand.Seed(42)      // want "math/rand global Seed"
	f := rand.Perm     // want "math/rand global Perm"
	_ = f
}

func unseeded(src rand.Source) {
	_ = rand.New(src) // want "rand.New with a source not built inline"
}

func clocks() time.Duration {
	t := time.Now()         // want "time.Now reads the wall clock"
	time.Sleep(time.Second) // want "time.Sleep reads the wall clock"
	return time.Since(t)    // want "time.Since reads the wall clock"
}

func conversionsAreFine(d time.Duration) int64 {
	// Pure duration arithmetic never touches the wall clock.
	return (d + 3*time.Millisecond).Nanoseconds()
}

func suppressed() {
	//lint:ignore detsource fixture exercises the suppression convention
	_ = rand.Float64()
}
