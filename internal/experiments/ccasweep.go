package experiments

import (
	"math"
	"sync"

	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// sweepThresholds is the CCA-threshold x-axis the paper sweeps in
// Figs 6-10 and 28: -120 dBm (everything busy) to -20 dBm (everything
// clear).
func sweepThresholds() []phy.DBm {
	var out []phy.DBm
	for t := phy.DBm(-120); t <= -20; t += 5 {
		out = append(out, t)
	}
	return out
}

// ccaSweepWorld builds the Fig. 5 configuration: one observed link in the
// middle (its CCA threshold is the sweep variable) surrounded by four
// interfering networks on the neighbouring non-orthogonal channels
// (CFD = ±3 and ±6 MHz), everything at fixed positions so the sweep
// varies exactly one knob.
//
// coChannel adds three extra links on the observed link's own channel
// (Fig. 8); linkPower sets the observed link's transmit power (Figs 9-10,
// 28).
type ccaSweepResultRow struct {
	Threshold phy.DBm
	SentRate  float64
	RecvRate  float64
	// RecoverableRate adds CRC-failed-but-repairable receptions (Fig 28).
	RecoverableRate float64
	PRR             float64
	OverallRate     float64
	// ErrFractions carries the error-bit fractions observed at this
	// threshold (consumed by Fig 29).
	ErrFractions []float64
}

// ccaSweepSpecs lays out the sweep geometry as explicit network specs.
//
// The observed link: sender at the origin, sink 1 m away, at linkPower.
// Around it, four interfering networks at CFD = ±3, ±6 MHz (Fig. 5), each
// 4 saturated senders at 0 dBm, placed ~2.6 m from the link so their
// filtered energy straddles the -77 dBm default.
//
// coChannel (Fig. 8) appends three additional co-channel links competing
// with the observed one, at the ZigBee default threshold. Their senders
// sit close enough (a) to hear the observed sender even at -22 dBm, so
// CSMA deference protects a weak link, and (b) to the observed sink that
// barging into their ongoing transmissions corrupts the observed link's
// packets — the paper's "disaster" past the minimum co-channel RSS.
func ccaSweepSpecs(linkPower phy.DBm, coChannel bool) []topology.NetworkSpec {
	specs := []topology.NetworkSpec{{
		Freq:    2460,
		Sink:    topology.NodeSpec{Pos: phy.Position{X: 1, Y: 0}, TxPower: linkPower},
		Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0, Y: 0}, TxPower: linkPower}},
	}}
	angles := []float64{45, 135, 225, 315}
	freqs := []phy.MHz{2463, 2457, 2466, 2454}
	for i, f := range freqs {
		cx := 2.6 * math.Cos(angles[i]*math.Pi/180)
		cy := 2.6 * math.Sin(angles[i]*math.Pi/180)
		spec := topology.NetworkSpec{
			Freq: f,
			Sink: topology.NodeSpec{Pos: phy.Position{X: cx, Y: cy}},
		}
		for s := 0; s < 4; s++ {
			dx := 0.8 * math.Cos(float64(s)*math.Pi/2)
			dy := 0.8 * math.Sin(float64(s)*math.Pi/2)
			spec.Senders = append(spec.Senders, topology.NodeSpec{
				Pos: phy.Position{X: cx + dx, Y: cy + dy},
			})
		}
		specs = append(specs, spec)
	}
	if coChannel {
		for i := 0; i < 3; i++ {
			y := 0.7 + 0.2*float64(i)
			specs = append(specs, topology.NetworkSpec{
				Freq:    2460,
				Sink:    topology.NodeSpec{Pos: phy.Position{X: 1, Y: y}},
				Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0, Y: y}}},
			})
		}
	}
	return specs
}

// ccaSweepSnap is the one shared snapshot of the full sweep geometry,
// co-channel links included. The positions are fixed across every
// (threshold, power) cell, and stored losses are keyed on positions
// only, so cells that omit the co-channel networks or override transmit
// power still hit the snapshot for every node they do attach.
var ccaSweepSnap = sync.OnceValue(func() *topology.Snapshot {
	return handPlacedSnap(ccaSweepSpecs(0, true))
})

func ccaSweepRun(seed int64, threshold phy.DBm, linkPower phy.DBm, coChannel bool, opts Options) ccaSweepResultRow {
	specs := ccaSweepSpecs(linkPower, coChannel)
	tb := newCellTestbed(opts, testbed.Options{
		Seed: seed, StaticFadingSigma: -1, Topology: ccaSweepSnap(),
	})
	defer tb.Close()

	link := tb.AddNetwork(specs[0],
		testbed.NetworkConfig{Scheme: testbed.SchemeFixed, CCAThreshold: threshold})
	for _, spec := range specs[1:] {
		tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: testbed.SchemeFixed})
	}

	tb.Run(opts.Warmup, opts.Measure)

	s := link.Stats()
	secs := tb.MeasuredDuration().Seconds()
	row := ccaSweepResultRow{
		Threshold:       threshold,
		SentRate:        float64(s.Sent) / secs,
		RecvRate:        float64(s.Received) / secs,
		RecoverableRate: float64(s.Received+link.Recoverable()) / secs,
		PRR:             s.PRR(),
		OverallRate:     tb.OverallThroughput(),
	}
	row.ErrFractions = link.ErrorFractions().Samples()
	return row
}

// Fig6Row is one threshold point of the no-co-channel sweep.
type Fig6Row struct {
	Threshold phy.DBm
	Sent      float64
	Received  float64
}

// Fig6Result is the link-level sweep without co-channel interference.
type Fig6Result struct{ Rows []Fig6Row }

// Fig6 regenerates Fig. 6: the observed link's sent and received packet
// rates as its CCA threshold relaxes from -120 to -20 dBm, with only
// inter-channel interference present (Fig. 5 layout). Shape: both curves
// rise together as the threshold passes the filtered neighbour-channel
// energy, and PRR stays ≈ 100 % — the inter-channel interference is
// tolerable.
func Fig6(opts Options) (Fig6Result, *Table) {
	opts = opts.withDefaults()
	ths := sweepThresholds()
	grid := runGrid(opts, len(ths), func(cell int, seed int64) ccaSweepResultRow {
		return ccaSweepRun(seed, ths[cell], 0, false, opts)
	})
	var res Fig6Result
	for i, th := range ths {
		var sent, recv float64
		for _, row := range grid[i] {
			sent += row.SentRate
			recv += row.RecvRate
		}
		res.Rows = append(res.Rows, Fig6Row{
			Threshold: th,
			Sent:      sent / float64(opts.Seeds),
			Received:  recv / float64(opts.Seeds),
		})
	}
	t := &Table{
		Title:   "Fig 6: Link throughput vs CCA threshold (no co-channel interference)",
		Columns: []string{"threshold (dBm)", "sent (pkt/s)", "received (pkt/s)"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.Threshold)), f0(r.Sent), f0(r.Received))
	}
	return res, t
}

// Fig7Row is one threshold point of the overall-throughput sweep.
type Fig7Row struct {
	Threshold phy.DBm
	Overall   float64
}

// Fig7Result is the overall-throughput view of the Fig. 6 run.
type Fig7Result struct{ Rows []Fig7Row }

// Fig7 regenerates Fig. 7: the overall throughput (observed link plus the
// four interfering networks) across the same sweep — relaxing the link's
// threshold must not degrade the neighbours, so the overall curve grows.
func Fig7(opts Options) (Fig7Result, *Table) {
	opts = opts.withDefaults()
	ths := sweepThresholds()
	grid := runGrid(opts, len(ths), func(cell int, seed int64) float64 {
		return ccaSweepRun(seed, ths[cell], 0, false, opts).OverallRate
	})
	var res Fig7Result
	for i, th := range ths {
		res.Rows = append(res.Rows, Fig7Row{Threshold: th, Overall: mean(grid[i])})
	}
	t := &Table{
		Title:   "Fig 7: Overall throughput vs CCA threshold (no co-channel interference)",
		Columns: []string{"threshold (dBm)", "overall (pkt/s)"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.Threshold)), f0(r.Overall))
	}
	return res, t
}

// Fig8Row is one threshold point of the with-co-channel sweep.
type Fig8Row struct {
	Threshold phy.DBm
	Sent      float64
	Received  float64
}

// Fig8Result is the link sweep with co-channel competitors present.
type Fig8Result struct{ Rows []Fig8Row }

// Fig8 regenerates Fig. 8: with three co-channel links added, relaxing the
// CCA threshold beyond the weakest co-channel signal admits co-channel
// collisions — received throughput peaks and then collapses while sent
// keeps rising.
func Fig8(opts Options) (Fig8Result, *Table) {
	opts = opts.withDefaults()
	ths := sweepThresholds()
	grid := runGrid(opts, len(ths), func(cell int, seed int64) ccaSweepResultRow {
		return ccaSweepRun(seed, ths[cell], 0, true, opts)
	})
	var res Fig8Result
	for i, th := range ths {
		var sent, recv float64
		for _, row := range grid[i] {
			sent += row.SentRate
			recv += row.RecvRate
		}
		res.Rows = append(res.Rows, Fig8Row{
			Threshold: th,
			Sent:      sent / float64(opts.Seeds),
			Received:  recv / float64(opts.Seeds),
		})
	}
	t := &Table{
		Title:   "Fig 8: Link throughput vs CCA threshold (with co-channel interference)",
		Columns: []string{"threshold (dBm)", "sent (pkt/s)", "received (pkt/s)"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.Threshold)), f0(r.Sent), f0(r.Received))
	}
	return res, t
}

// Fig9Row is one (power, threshold) point.
type Fig9Row struct {
	Power     phy.DBm
	Threshold phy.DBm
	Received  float64
	PRR       float64
}

// Fig9Result covers both Fig. 9 (throughput) and Fig. 10 (PRR).
type Fig9Result struct{ Rows []Fig9Row }

// Fig9and10 regenerates Figs. 9 and 10: the link sweep of Fig. 8 repeated
// for transmit powers {-8, -11, -15, -22, -33} dBm against 0 dBm
// interferers. Shape: every power level gains from relaxing the
// threshold; PRR stays ≈ 100 % down to about -15 dBm, degrades gently at
// -22 dBm, and collapses at -33 dBm.
func Fig9and10(opts Options) (Fig9Result, *Table, *Table) {
	opts = opts.withDefaults()
	powers := []phy.DBm{-8, -11, -15, -22, -33}
	ths := sweepThresholds()
	grid := runGrid(opts, len(powers)*len(ths), func(cell int, seed int64) ccaSweepResultRow {
		return ccaSweepRun(seed, ths[cell%len(ths)], powers[cell/len(ths)], true, opts)
	})
	var res Fig9Result
	for pi, p := range powers {
		for ti, th := range ths {
			var recv, prr float64
			for _, row := range grid[pi*len(ths)+ti] {
				recv += row.RecvRate
				prr += row.PRR
			}
			res.Rows = append(res.Rows, Fig9Row{
				Power:     p,
				Threshold: th,
				Received:  recv / float64(opts.Seeds),
				PRR:       prr / float64(opts.Seeds),
			})
		}
	}
	t9 := &Table{
		Title:   "Fig 9: Link throughput vs CCA threshold for different transmit power",
		Columns: []string{"power (dBm)", "threshold (dBm)", "received (pkt/s)"},
	}
	t10 := &Table{
		Title:   "Fig 10: Link PRR vs CCA threshold for different transmit power",
		Columns: []string{"power (dBm)", "threshold (dBm)", "PRR"},
	}
	for _, r := range res.Rows {
		t9.AddRow(f0(float64(r.Power)), f0(float64(r.Threshold)), f0(r.Received))
		t10.AddRow(f0(float64(r.Power)), f0(float64(r.Threshold)), pct(r.PRR))
	}
	return res, t9, t10
}
