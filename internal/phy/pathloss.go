package phy

import "math"

// Position is a point in the deployment plane, in meters.
type Position struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance to other, in meters.
func (p Position) DistanceTo(other Position) float64 {
	dx, dy := p.X-other.X, p.Y-other.Y
	return math.Hypot(dx, dy)
}

// PathLossModel computes propagation loss between two positions.
type PathLossModel interface {
	// Loss returns the path loss in dB for the given distance in meters.
	Loss(distanceMeters float64) float64
}

// RangeInverter is the optional PathLossModel extension the spatial tier
// needs: mapping a loss bound back to a distance bound. Models that
// implement it can back tiled (near-field) topology snapshots, whose far
// pairs carry only a certified loss floor instead of a computed loss.
type RangeInverter interface {
	PathLossModel
	// RangeForLoss returns a distance R such that Loss(d) >= lossDB for
	// every d > R. The model must be monotone non-decreasing in distance
	// for such an R to exist; implementations nudge the result upward so
	// the guarantee holds bit-exactly under floating-point rounding.
	RangeForLoss(lossDB float64) float64
}

// LogDistance is the classic log-distance path-loss model
//
//	PL(d) = PL0 + 10·n·log10(d / d0)
//
// with d0 = 1 m. The defaults approximate an indoor 2.4 GHz office — the
// environment of the paper's testbed.
type LogDistance struct {
	// ReferenceLoss is PL0, the loss at 1 m, in dB.
	ReferenceLoss float64
	// Exponent is the path-loss exponent n.
	Exponent float64
	// MinDistance clamps very small separations so co-located nodes do not
	// produce unphysical received powers.
	MinDistance float64
}

// DefaultPathLoss returns the indoor model used by the testbed scenarios:
// 48 dB loss at 1 m and exponent 3.5.
func DefaultPathLoss() *LogDistance {
	return &LogDistance{ReferenceLoss: 48, Exponent: 3.5, MinDistance: 0.1}
}

// Loss implements PathLossModel.
func (m *LogDistance) Loss(d float64) float64 {
	if d < m.MinDistance {
		d = m.MinDistance
	}
	return m.ReferenceLoss + 10*m.Exponent*math.Log10(d)
}

// RangeForLoss implements RangeInverter by inverting the log-distance
// curve: d = d0·10^((L−PL0)/(10n)). The raw inverse can round to a
// distance whose Loss lands a few ULPs below L, so the result is nudged
// upward until Loss(R) >= L holds exactly — the certified-far guarantee
// tiled snapshots rely on.
func (m *LogDistance) RangeForLoss(lossDB float64) float64 {
	r := pow10((lossDB - m.ReferenceLoss) / (10 * m.Exponent))
	if r < m.MinDistance {
		r = m.MinDistance
	}
	// Loss is monotone non-decreasing in d, so Loss(R) >= L alone implies
	// the guarantee for every d > R; the loop terminates after a handful of
	// ULPs (log10's rounding error), with the infinity check as a backstop
	// against unrepresentable bounds.
	for m.Loss(r) < lossDB && !math.IsInf(r, 1) {
		r = math.Nextafter(r, math.Inf(1))
	}
	return r
}

// ReceivedPower applies the model to a transmit power and a tx→rx geometry.
func ReceivedPower(model PathLossModel, tx DBm, from, to Position) DBm {
	return tx - DBm(model.Loss(from.DistanceTo(to)))
}
