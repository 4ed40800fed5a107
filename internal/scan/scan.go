// Package scan implements energy-detect spectrum surveys: a node sweeps a
// set of candidate center frequencies, samples the in-channel energy on
// each for a dwell period, and reports per-channel occupancy statistics.
// Real deployments run exactly this before picking channels; here it also
// feeds the channel-assignment baselines in internal/assign.
package scan

import (
	"fmt"
	"sort"
	"time"

	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// Sample is one energy reading.
type Sample struct {
	At    sim.Time
	Level phy.DBm
}

// ChannelReport summarises one surveyed frequency.
type ChannelReport struct {
	// Freq is the surveyed center frequency.
	Freq phy.MHz
	// Samples taken during the dwell.
	Samples int
	// Mean and Max of the sampled energy.
	Mean phy.DBm
	Max  phy.DBm
	// Occupancy is the fraction of samples above the busy threshold.
	Occupancy float64
}

// Config tunes a survey.
type Config struct {
	// Dwell is the listening time per channel (default 128 ms, i.e.
	// ~1000 RSSI register reads).
	Dwell time.Duration
	// SamplePeriod between energy reads (default 128 µs, one RSSI
	// averaging window).
	SamplePeriod time.Duration
	// BusyThreshold classifies a sample as occupied (default -77 dBm,
	// the CCA default).
	BusyThreshold phy.DBm
}

func (c Config) withDefaults() Config {
	if c.Dwell == 0 {
		c.Dwell = 128 * time.Millisecond
	}
	if c.SamplePeriod == 0 {
		c.SamplePeriod = 128 * time.Microsecond
	}
	if c.BusyThreshold == 0 {
		c.BusyThreshold = phy.DefaultCCAThreshold
	}
	return c
}

// Scanner surveys the medium from a fixed position. It is a passive
// listener: it never transmits and does not perturb the network.
type Scanner struct {
	kernel *sim.Kernel
	medium *medium.Medium
	id     int
	pos    phy.Position
	cfg    Config
}

// listener adapts the scanner to the medium (it ignores air events; it
// polls energy directly).
func (s *Scanner) Position() phy.Position         { return s.pos }
func (s *Scanner) OnAir(*medium.Transmission)     {}
func (s *Scanner) OffAir(tx *medium.Transmission) { _ = tx }

// NewScanner attaches a passive survey node to the medium.
func NewScanner(k *sim.Kernel, m *medium.Medium, pos phy.Position, cfg Config) *Scanner {
	s := &Scanner{kernel: k, medium: m, pos: pos, cfg: cfg.withDefaults()}
	s.id = m.Attach(s)
	return s
}

// Survey sweeps the frequencies in order, dwelling on each, and invokes
// done with the reports when the sweep completes. The sweep runs on the
// simulation clock; call kernel.Run* to advance it.
func (s *Scanner) Survey(freqs []phy.MHz, done func([]ChannelReport)) {
	if len(freqs) == 0 {
		done(nil)
		return
	}
	reports := make([]ChannelReport, 0, len(freqs))
	var surveyOne func(i int)
	surveyOne = func(i int) {
		freq := freqs[i]
		var (
			sum     float64
			max     = phy.Silent
			busy    int
			samples int
		)
		ticker := s.kernel.NewTicker(s.cfg.SamplePeriod, func() {
			level := s.medium.SensedPower(s.id, freq)
			sum += level.Milliwatts()
			if level > max {
				max = level
			}
			if level > s.cfg.BusyThreshold {
				busy++
			}
			samples++
		})
		s.kernel.After(s.cfg.Dwell, func() {
			ticker.Stop()
			rep := ChannelReport{Freq: freq, Samples: samples, Max: max}
			if samples > 0 {
				rep.Mean = phy.FromMilliwatts(sum / float64(samples))
				rep.Occupancy = float64(busy) / float64(samples)
			}
			reports = append(reports, rep)
			if i+1 < len(freqs) {
				surveyOne(i + 1)
				return
			}
			done(reports)
		})
	}
	surveyOne(0)
}

// Quietest orders the reports by ascending occupancy (mean energy breaks
// ties) — the order a channel-selection protocol would prefer them in.
func Quietest(reports []ChannelReport) []ChannelReport {
	out := make([]ChannelReport, len(reports))
	copy(out, reports)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Occupancy != out[j].Occupancy {
			return out[i].Occupancy < out[j].Occupancy
		}
		return out[i].Mean < out[j].Mean
	})
	return out
}

// String renders a report row.
func (r ChannelReport) String() string {
	return fmt.Sprintf("%v MHz: mean %.1f dBm, max %.1f dBm, occupancy %.0f%%",
		r.Freq, float64(r.Mean), float64(r.Max), 100*r.Occupancy)
}
