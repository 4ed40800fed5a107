package phy

import (
	"math"
	"testing"
)

func BenchmarkBitErrorRate(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += BitErrorRate(float64(i%20) - 10)
	}
	_ = s
}

// BenchmarkBitErrorRatePaperRange sweeps −10…60 dB, the SINRs a paper
// cell's reception segments actually see: above the cliff most terms of
// the DSSS sum underflow to 0.
func BenchmarkBitErrorRatePaperRange(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += BitErrorRate(float64(i%71) - 10)
	}
	_ = s
}

func BenchmarkPacketErrorRate(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += PacketErrorRate(2.0, 648)
	}
	_ = s
}

func BenchmarkCombine(b *testing.B) {
	levels := []DBm{-60, -70, -80, -90, -55}
	for i := 0; i < b.N; i++ {
		Combine(levels...)
	}
}

func BenchmarkRejectionLookup(b *testing.B) {
	c := NewCC2420Rejection()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += c.RejectionDB(MHz(i % 12))
	}
	_ = s
}

func BenchmarkPathLoss(b *testing.B) {
	m := DefaultPathLoss()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += m.Loss(float64(i%10) + 0.5)
	}
	_ = s
}

// BenchmarkMilliwatts converts dBm levels across a radio's working range,
// the conversion every link power and SINR bound goes through.
func BenchmarkMilliwatts(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += DBm(float64(i%1000)/10 - 100).Milliwatts()
	}
	_ = s
}

// BenchmarkMathPow10 is BenchmarkMilliwatts through math.Pow, the
// reference pow10 reproduces.
func BenchmarkMathPow10(b *testing.B) {
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += math.Pow(10, (float64(i%1000)/10-100)/10)
	}
	_ = s
}
