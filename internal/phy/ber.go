package phy

import "math"

// ImplementationLoss shifts the analytic DSSS curve to where real CC2420
// receivers sit: measurement studies of 802.15.4 capture place the
// decodable/undecodable cliff around +2…+4 dB SINR rather than the ~-1 dB
// the ideal coherent formula predicts. The shift also realises the paper's
// co-channel observation: two equal-power co-channel packets (SINR ≈ 0 dB)
// cannot both be decoded.
const ImplementationLoss = 3.5

// BitErrorRate returns the bit-error probability of the 802.15.4 2.4 GHz
// O-QPSK DSSS PHY at a given SINR in dB. It is the standard analytic form
// for 16-ary quasi-orthogonal signalling used throughout the WSN
// literature:
//
//	BER(γ) = (8/15)·(1/16)·Σ_{k=2}^{16} (-1)^k · C(16,k) · exp(20·γ·(1/k − 1))
//
// with γ the linear SINR, evaluated ImplementationLoss dB below the input.
// The curve has the characteristic DSSS cliff: a few dB separate
// near-perfect reception from total loss.
func BitErrorRate(sinrDB float64) float64 {
	gamma := math.Pow(10, (sinrDB-ImplementationLoss)/10)
	g := 20 * gamma
	sum := 0.0
	for k := 2; k <= 16; k++ {
		e := math.Exp(g * berExponent[k])
		if e == 0 {
			// The exponent falls with k and math.Exp is 0 below a fixed
			// floor, so every later term is ±0 and cannot change sum.
			break
		}
		sum += berCoeff[k] * e
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

// berCoeff[k] = (−1)^k·C(16, k) and berExponent[k] = 1/k − 1: the
// per-term constants of the BitErrorRate sum, computed once.
var berCoeff = [17]float64{
	1, -16, 120, -560, 1820, -4368, 8008, -11440,
	12870, -11440, 8008, -4368, 1820, -560, 120, -16, 1,
}

var berExponent = func() (e [17]float64) {
	for k := 1; k <= 16; k++ {
		e[k] = 1/float64(k) - 1
	}
	return e
}()

// PacketErrorRate returns the probability that at least one of bits bits is
// corrupted at the given SINR, assuming independent bit errors.
func PacketErrorRate(sinrDB float64, bits int) float64 {
	if bits <= 0 {
		return 0
	}
	ber := BitErrorRate(sinrDB)
	if ber <= 0 {
		return 0
	}
	return 1 - math.Pow(1-ber, float64(bits))
}

// CliffSINR is the approximate SINR in dB at which a typical data frame
// (on the order of 500–1000 bits) transitions from mostly-lost to
// mostly-received. Exposed for tests and documentation; the simulator
// itself always evaluates the full curve.
const CliffSINR = 2.5
