package experiments

import (
	"nonortho/internal/assign"
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// ScarcityRow is one strategy's outcome in the channel-scarcity study.
type ScarcityRow struct {
	Strategy string
	Total    float64
}

// ScarcityResult backs the orthogonal-scarcity extension experiment.
type ScarcityResult struct {
	Rows []ScarcityRow
	// DCNOverBestOrthogonal is the DCN design's gain over the best
	// orthogonal assignment.
	DCNOverBestOrthogonal float64
}

// Scarcity is an extension quantifying the paper's core scarcity argument
// against the strongest orthogonal baseline. Six networks want channels,
// but the 15 MHz band holds only four orthogonal ones (CFD = 5 MHz), so
// two channels must be shared by two networks each:
//
//   - "orthogonal round-robin" assigns channels geometry-blind
//     (MMSN-style even selection);
//   - "orthogonal greedy" packs the least-coupled networks together
//     (TMCP-style, the related work's answer to scarcity);
//   - "DCN (CFD=3)" gives every network its own non-orthogonal channel.
//
// The shape that must hold: greedy >= round-robin, and DCN beats both —
// no orthogonal assignment can conjure channels that do not exist, which
// is exactly why the paper abandons orthogonality.
func Scarcity(opts Options) (ScarcityResult, *Table) {
	opts = opts.withDefaults()

	orthogonal := []phy.MHz{2458, 2463, 2468, 2473} // 4 channels at CFD=5

	type strategy struct {
		assignFn   func(m assign.CouplingMatrix, nets []topology.NetworkSpec) assign.Assignment
		dcnInstead bool
	}
	strategies := []strategy{
		{assignFn: func(m assign.CouplingMatrix, nets []topology.NetworkSpec) assign.Assignment {
			return assign.RoundRobin(len(nets), len(orthogonal))
		}},
		{assignFn: func(m assign.CouplingMatrix, nets []topology.NetworkSpec) assign.Assignment {
			return assign.Greedy(m, len(orthogonal))
		}},
		{dcnInstead: true},
	}
	// All three strategy cells of a seed share one topology snapshot.
	// Six network clusters; the plan's frequencies are placeholders that
	// the assignment rewrites (frequencies never enter the loss matrix).
	topos := snapshotSeeds(opts, topology.Config{
		Plan:   evalPlan(6, 3),
		Layout: topology.LayoutColocated,
	})
	grid := runGrid(opts, len(strategies), func(cell int, seed int64) float64 {
		st := strategies[cell]
		snap := topos.at(seed)
		nets := snap.Networks()
		scheme := testbed.SchemeFixed
		if st.dcnInstead {
			scheme = testbed.SchemeDCN
		} else {
			m := assign.Coupling(nets, phy.DefaultPathLoss())
			a := st.assignFn(m, nets)
			var err error
			nets, err = assign.Apply(nets, a, orthogonal)
			if err != nil {
				panic(err)
			}
		}
		tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
		for _, spec := range nets {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme})
		}
		tb.Run(opts.Warmup, opts.Measure)
		return tb.OverallThroughput()
	})
	rr := sum(grid[0]) / float64(opts.Seeds)
	greedy := sum(grid[1]) / float64(opts.Seeds)
	dcnTotal := sum(grid[2]) / float64(opts.Seeds)

	best := greedy
	if rr > best {
		best = rr
	}
	res := ScarcityResult{
		Rows: []ScarcityRow{
			{Strategy: "orthogonal round-robin (6 nets / 4 ch)", Total: rr},
			{Strategy: "orthogonal greedy (TMCP-style)", Total: greedy},
			{Strategy: "DCN (6 nets / 6 ch, CFD=3)", Total: dcnTotal},
		},
		DCNOverBestOrthogonal: dcnTotal/best - 1,
	}

	t := &Table{
		Title:   "Extension: channel scarcity — orthogonal assignment vs non-orthogonal DCN (6 networks, 15 MHz)",
		Columns: []string{"strategy", "total (pkt/s)"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Strategy, f0(r.Total))
	}
	t.AddRow("DCN vs best orthogonal", pct(res.DCNOverBestOrthogonal))
	return res, t
}
