// Package phy models the physical layer of IEEE 802.15.4 radios in the
// 2.4 GHz band: power arithmetic, propagation, adjacent-channel rejection,
// and the O-QPSK DSSS bit-error-rate curve. All powers are in dBm and all
// frequencies in MHz unless stated otherwise.
package phy

import "math"

// DBm is a signal power level in dBm.
type DBm float64

// Reference levels used throughout the simulator. The noise floor and
// sensitivity follow the CC2420 datasheet (receiver sensitivity -95 dBm);
// the default CCA threshold is the ZigBee/CC2420 default the paper cites.
const (
	// NoiseFloor is the in-band thermal noise plus receiver noise figure.
	NoiseFloor DBm = -100
	// Sensitivity is the weakest signal a receiver can synchronise to.
	Sensitivity DBm = -94
	// DefaultCCAThreshold is the fixed ZigBee CCA threshold (-77 dBm).
	DefaultCCAThreshold DBm = -77
	// MaxTxPower is the CC2420 maximum transmit power.
	MaxTxPower DBm = 0
	// MinTxPower is the weakest setting used in the paper's sweeps.
	MinTxPower DBm = -33
	// CCARegisterMin and CCARegisterMax bound the CC2420's programmable
	// CCA threshold. The CCA_THR register is an 8-bit signed value offset
	// by the -45 dB RSSI offset, but the energy detector only produces
	// meaningful readings over roughly [-110, 0] dBm; writes outside this
	// span program a threshold the hardware cannot honour.
	CCARegisterMin DBm = -110
	CCARegisterMax DBm = 0
)

// ReachMarginDB is the conservative slack every reachable-power proof in
// the simulator carries: a pair is ruled out only when the bounding
// computation still sits this far below the listener's floor. The per-link
// shadowing and per-transmission jitter draws are unbounded Gaussians, so
// any such proof is probabilistic in the strictest sense — but 40 dB is
// more than 11 standard deviations of the default combined σ=√(3²+2²) dB
// distribution (exceedance ~2e-28 per draw), far beyond anything a
// simulation of any length can observe. Shared by the medium's lock-on
// cull and the spatial tier's far-pair bounds so the two always agree.
const ReachMarginDB DBm = 40

// ClampCCAThreshold confines a requested CCA threshold to the CC2420's
// programmable register range and reports whether clamping was needed.
func ClampCCAThreshold(t DBm) (DBm, bool) {
	switch {
	case t < CCARegisterMin:
		return CCARegisterMin, true
	case t > CCARegisterMax:
		return CCARegisterMax, true
	}
	return t, false
}

// Milliwatts converts a dBm level to linear milliwatts. It returns
// math.Pow(10, p/10) bit for bit, through pow10.
func (p DBm) Milliwatts() float64 {
	return pow10(float64(p) / 10)
}

// FromMilliwatts converts linear milliwatts to dBm. Zero or negative power
// maps to an effectively silent -infinity substitute well below any
// sensitivity used in the simulator.
func FromMilliwatts(mw float64) DBm {
	if mw <= 0 {
		return Silent
	}
	return DBm(10 * math.Log10(mw))
}

// Silent is a stand-in for -infinity dBm: no measurable signal.
const Silent DBm = -1000

// Combine sums an arbitrary set of powers in the linear domain and returns
// the total in dBm. Combine() of nothing returns Silent.
func Combine(levels ...DBm) DBm {
	total := 0.0
	for _, l := range levels {
		if l <= Silent {
			continue
		}
		total += l.Milliwatts()
	}
	return FromMilliwatts(total)
}

// Minus returns the power remaining after removing other from total, both in
// dBm, flooring at Silent. It is the inverse of Combine for two operands.
func Minus(total, other DBm) DBm {
	diff := total.Milliwatts() - other.Milliwatts()
	return FromMilliwatts(diff)
}

// NoiseFloorMW is NoiseFloor converted to milliwatts once: SINR and the
// medium's carrier-sense sums add it on every call.
var NoiseFloorMW = NoiseFloor.Milliwatts()

// SINR computes the signal-to-interference-plus-noise ratio in dB for a
// signal against a combined interference level, including the noise floor.
func SINR(signal, interference DBm) float64 {
	denom := interference.Milliwatts() + NoiseFloorMW
	return float64(signal) - 10*math.Log10(denom)
}
