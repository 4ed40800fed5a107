package experiments

import (
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// Fig30Row is one network's pair of bars in the wide-band run.
type Fig30Row struct {
	Network string
	Without float64
	With    float64
}

// Fig30Result is the 18 MHz / 7-network experiment.
type Fig30Result struct {
	Rows []Fig30Row
	// MiddleGain and BoundaryGain compare the relaxing gain of the central
	// network against the outermost ones — the paper's explanation for why
	// wider bands benefit more (the middle channel has the most
	// neighbour-channel interference to reclaim).
	MiddleGain   float64
	BoundaryGain float64
}

// Fig30 regenerates Fig. 30: seven networks at CFD = 3 MHz over an 18 MHz
// band, with and without DCN, at a fixed 0 dBm. Shape: every network
// gains; the middle network gains more than the boundary ones.
func Fig30(opts Options) (Fig30Result, *Table) {
	opts = opts.withDefaults()
	res := widebandRun(7, opts)
	t := &Table{
		Title:   "Fig 30: Throughput gain with 7 networks on an 18 MHz band (CFD=3 MHz)",
		Columns: []string{"network", "w/o scheme (pkt/s)", "with scheme (pkt/s)", "gain"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Network, f0(r.Without), f0(r.With), pct(r.With/r.Without-1))
	}
	t.AddRow("middle-vs-boundary", pct(res.MiddleGain), pct(res.BoundaryGain), "")
	return res, t
}

// BandSweepRow is one bandwidth point of the generalisation sweep.
type BandSweepRow struct {
	BandMHz  phy.MHz
	Channels int
	Without  float64
	With     float64
	Gain     float64
}

// BandSweepResult extends Section VII-B: DCN's relaxing gain as the band
// (and with it the number of CFD = 3 MHz channels) grows.
type BandSweepResult struct{ Rows []BandSweepRow }

// BandSweep runs the Section VII-B generalisation for 12/15/18/21 MHz
// bands (5/6/7/8 channels at CFD = 3 MHz). Shape: the overall relaxing
// gain grows with bandwidth, because wider bands contain more middle
// channels with neighbour interference to reclaim.
func BandSweep(opts Options) (BandSweepResult, *Table) {
	opts = opts.withDefaults()
	var res BandSweepResult
	for _, n := range []int{5, 6, 7, 8} {
		r := widebandRun(n, opts)
		var wo, wi float64
		for _, row := range r.Rows {
			wo += row.Without
			wi += row.With
		}
		res.Rows = append(res.Rows, BandSweepRow{
			BandMHz:  phy.MHz((n - 1) * 3),
			Channels: n,
			Without:  wo,
			With:     wi,
			Gain:     wi/wo - 1,
		})
	}
	t := &Table{
		Title:   "Band sweep (Section VII-B): DCN relaxing gain vs bandwidth at CFD=3 MHz",
		Columns: []string{"band (MHz)", "channels", "w/o DCN (pkt/s)", "with DCN (pkt/s)", "gain"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.BandMHz)), f0(float64(r.Channels)), f0(r.Without), f0(r.With), pct(r.Gain))
	}
	return res, t
}

func widebandRun(nChannels int, opts Options) Fig30Result {
	// Both scheme cells of a seed share one topology snapshot.
	topos := snapshotSeeds(opts, topology.Config{
		Plan:   evalPlan(nChannels, 3),
		Layout: topology.LayoutColocated,
	})
	// Cell 0 = fixed threshold, cell 1 = DCN.
	grid := runGrid(opts, 2, func(cell int, seed int64) []float64 {
		snap := topos.at(seed)
		tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
		scheme := testbed.SchemeFixed
		if cell == 1 {
			scheme = testbed.SchemeDCN
		}
		for _, spec := range snap.Networks() {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme})
		}
		tb.Run(opts.Warmup, opts.Measure)
		return tb.PerNetworkThroughput()
	})
	without := meanRows(grid[0])
	with := meanRows(grid[1])
	res := Fig30Result{}
	for i := range without {
		res.Rows = append(res.Rows, Fig30Row{
			Network: testbed.NetworkLabel(i),
			Without: without[i],
			With:    with[i],
		})
	}
	mid := (nChannels - 1) / 2
	res.MiddleGain = with[mid]/without[mid] - 1
	res.BoundaryGain = (with[0]+with[nChannels-1])/(without[0]+without[nChannels-1]) - 1
	return res
}
