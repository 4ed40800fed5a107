package experiments

import (
	"fmt"

	"nonortho/internal/phy"
	"nonortho/internal/stats"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// bandConfig is the 15 MHz evaluation band (2458-2473 MHz) under one of
// the two competing designs: the default ZigBee assignment (4 channels at
// CFD = 5 MHz) or the paper's non-orthogonal design (6 channels at
// CFD = 3 MHz).
func bandConfig(nonOrthogonal bool, layout topology.Layout, power topology.PowerPolicy) topology.Config {
	plan := evalPlan(4, 5)
	if nonOrthogonal {
		plan = evalPlan(6, 3)
	}
	return topology.Config{Plan: plan, Layout: layout, Power: power}
}

// bandDesign instantiates one evaluation-band cell from a shared topology
// snapshot, optionally with DCN.
func bandDesign(opts Options, seed int64, snap *topology.Snapshot, dcnEnabled bool) *testbed.Testbed {
	tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
	scheme := testbed.SchemeFixed
	if dcnEnabled {
		scheme = testbed.SchemeDCN
	}
	for _, spec := range snap.Networks() {
		tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme})
	}
	return tb
}

// Fig19Result is the headline comparison.
type Fig19Result struct {
	// ZigBeePerNetwork and DCNPerNetwork hold the per-channel goodputs.
	ZigBeePerNetwork []float64
	DCNPerNetwork    []float64
	ZigBeeTotal      float64
	DCNTotal         float64
	// ZigBeeStd and DCNStd are the across-seed standard deviations of the
	// totals (zero with a single seed).
	ZigBeeStd float64
	DCNStd    float64
	// Improvement is DCNTotal/ZigBeeTotal − 1 (the paper reports 58 %).
	Improvement float64
}

// Fig19 regenerates Fig. 19: on the 15 MHz band, the default ZigBee design
// (4 channels, CFD = 5 MHz, fixed CCA) against the non-orthogonal design
// with DCN (6 channels, CFD = 3 MHz). Shape: DCN wins by roughly half
// again the ZigBee total (paper: +58 %; bands 38.4-55.7 % across
// configurations).
func Fig19(opts Options) (Fig19Result, *Table) {
	opts = opts.withDefaults()
	type cellResult struct {
		Per   []float64
		Total float64
	}
	// Cell 0 = ZigBee design, cell 1 = non-orthogonal DCN design; every
	// (design, seed) simulation runs concurrently, sharing one topology
	// snapshot per (design, seed).
	zigTopos := snapshotSeeds(opts, bandConfig(false, topology.LayoutColocated, nil))
	dcnTopos := snapshotSeeds(opts, bandConfig(true, topology.LayoutColocated, nil))
	grid := runGrid(opts, 2, func(cell int, seed int64) cellResult {
		nonOrtho := cell == 1
		topos := zigTopos
		if nonOrtho {
			topos = dcnTopos
		}
		tb := bandDesign(opts, seed, topos.at(seed), nonOrtho)
		tb.Run(opts.Warmup, opts.Measure)
		return cellResult{Per: tb.PerNetworkThroughput(), Total: tb.OverallThroughput()}
	})
	var zigRows, dcnRows [][]float64
	var zigTotals, dcnTotals []float64
	for s := 0; s < opts.Seeds; s++ {
		zigRows = append(zigRows, grid[0][s].Per)
		zigTotals = append(zigTotals, grid[0][s].Total)
		dcnRows = append(dcnRows, grid[1][s].Per)
		dcnTotals = append(dcnTotals, grid[1][s].Total)
	}
	res := Fig19Result{
		ZigBeePerNetwork: meanRows(zigRows),
		DCNPerNetwork:    meanRows(dcnRows),
		ZigBeeStd:        stats.Summarize(zigTotals).Std,
		DCNStd:           stats.Summarize(dcnTotals).Std,
	}
	for _, v := range res.ZigBeePerNetwork {
		res.ZigBeeTotal += v
	}
	for _, v := range res.DCNPerNetwork {
		res.DCNTotal += v
	}
	res.Improvement = res.DCNTotal/res.ZigBeeTotal - 1

	t := &Table{
		Title:   "Fig 19: Overall throughput, ZigBee design vs non-orthogonal design with DCN (15 MHz)",
		Columns: []string{"design", "channels", "total (pkt/s)", "per-network (pkt/s)"},
	}
	t.AddRow("ZigBee (CFD=5, fixed)", f0(float64(len(res.ZigBeePerNetwork))),
		fmt.Sprintf("%s ±%s", f0(res.ZigBeeTotal), f0(res.ZigBeeStd)), joinF0(res.ZigBeePerNetwork))
	t.AddRow("DCN (CFD=3)", f0(float64(len(res.DCNPerNetwork))),
		fmt.Sprintf("%s ±%s", f0(res.DCNTotal), f0(res.DCNStd)), joinF0(res.DCNPerNetwork))
	t.AddRow("improvement", "", pct(res.Improvement), "")
	return res, t
}

func joinF0(xs []float64) string {
	out := ""
	for i, v := range xs {
		if i > 0 {
			out += " "
		}
		out += f0(v)
	}
	return out
}

// Fig20Row is one transmit-power point.
type Fig20Row struct {
	Power  phy.DBm
	N0     float64
	Others float64
}

// Fig20Result backs Figs. 20 and 21.
type Fig20Result struct{ Rows []Fig20Row }

// Fig20and21 regenerates Figs. 20 and 21: the 6-network DCN design with
// N0 (the central network, worst inter-channel interference) sweeping its
// transmit power from -33 to -0.6 dBm while the others stay at -0.6 dBm.
// Shape: N0's throughput grows with power in two phases (PRR recovery,
// then threshold relaxation) and the other networks are not hurt by N0's
// higher power.
func Fig20and21(opts Options) (Fig20Result, *Table, *Table) {
	opts = opts.withDefaults()
	powers := []phy.DBm{-33, -15, -6, -3, -0.6}
	const othersPower = -0.6

	// All five power cells of a seed share one topology snapshot; each
	// cell mutates only its own deep copy of the specs (powers, not
	// positions, so the snapshot's loss matrix stays fully valid).
	plan := evalPlan(6, 3)
	topos := snapshotSeeds(opts, topology.Config{
		Plan:   plan,
		Layout: topology.LayoutColocated,
		Power:  topology.FixedPower(othersPower),
	})
	type pair struct{ N0, Others float64 }
	grid := runGrid(opts, len(powers), func(cell int, seed int64) pair {
		p := powers[cell]
		snap := topos.at(seed)
		nets := snap.Networks()
		mid := plan.MiddleIndex()
		for i := range nets[mid].Senders {
			nets[mid].Senders[i].TxPower = p
		}
		nets[mid].Sink.TxPower = p
		tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
		for _, spec := range nets {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: testbed.SchemeDCN})
		}
		tb.Run(opts.Warmup, opts.Measure)
		per := tb.PerNetworkThroughput()
		out := pair{N0: per[mid]}
		for i, v := range per {
			if i != mid {
				out.Others += v
			}
		}
		return out
	})

	var res Fig20Result
	for i, p := range powers {
		var n0, others float64
		for _, c := range grid[i] {
			n0 += c.N0
			others += c.Others
		}
		res.Rows = append(res.Rows, Fig20Row{
			Power:  p,
			N0:     n0 / float64(opts.Seeds),
			Others: others / float64(opts.Seeds),
		})
	}

	t20 := &Table{
		Title:   "Fig 20: Throughput of network N0 vs its transmit power (DCN, others at -0.6 dBm)",
		Columns: []string{"power (dBm)", "N0 (pkt/s)"},
	}
	t21 := &Table{
		Title:   "Fig 21: Throughput of networks except N0 vs N0's transmit power",
		Columns: []string{"power (dBm)", "others (pkt/s)"},
	}
	for _, r := range res.Rows {
		t20.AddRow(f1(float64(r.Power)), f0(r.N0))
		t21.AddRow(f1(float64(r.Power)), f0(r.Others))
	}
	return res, t20, t21
}

// TableIResult is the fairness table.
type TableIResult struct {
	PerNetwork []float64
	// Spread is (max−min)/mean; the paper reports about 4-5 %.
	Spread float64
	// Jain is the Jain fairness index (1 = perfectly fair).
	Jain float64
}

// TableI regenerates Table I: per-network throughput of the six-network
// DCN design on the 15 MHz band. Shape: a small spread (paper ≈ 4 %), so
// DCN does not drive some networks against others, despite N0 facing the
// most inter-channel interference.
func TableI(opts Options) (TableIResult, *Table) {
	opts = opts.withDefaults()
	topos := snapshotSeeds(opts, bandConfig(true, topology.LayoutColocated, nil))
	rows := runSeeds(opts, func(seed int64) []float64 {
		tb := bandDesign(opts, seed, topos.at(seed), true)
		tb.Run(opts.Warmup, opts.Measure)
		return tb.PerNetworkThroughput()
	})
	res := TableIResult{PerNetwork: meanRows(rows)}
	res.Spread = stats.Spread(res.PerNetwork)
	res.Jain = stats.JainIndex(res.PerNetwork)

	t := &Table{
		Title:   "Table I: Fairness of the 6-network DCN design (15 MHz)",
		Columns: []string{"network", "throughput (pkt/s)"},
	}
	for i, v := range res.PerNetwork {
		t.AddRow(testbed.NetworkLabel(i), f1(v))
	}
	t.AddRow("spread", pct(res.Spread))
	t.AddRow("Jain index", f2(res.Jain))
	return res, t
}
