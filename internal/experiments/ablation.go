package experiments

import (
	"time"

	"nonortho/internal/dcn"
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// AblationRow is one DCN variant's overall throughput.
type AblationRow struct {
	Variant string
	Total   float64
	// VsFull is the throughput relative to the complete DCN design.
	VsFull float64
}

// AblationResult quantifies which parts of DCN its gain comes from.
type AblationResult struct{ Rows []AblationRow }

// AblationDCN runs the 15 MHz / 6-channel design in the Case I geometry
// with random powers in [-22, 0] dBm — the regime where the Adjustor's
// min-RSSI tracking actually binds — under DCN variants that remove one
// mechanism at a time (the design-choice ablations DESIGN.md calls out):
//
//   - full: the paper's scheme.
//   - no-case-2: the threshold can only fall (Eq. 4 removed). Without the
//     window-minimum reset, one deep-faded packet pins the node
//     conservative forever — this is where most of the relaxing gain
//     lives.
//   - no-init-sensing: Eq. 2 uses packet RSSI only (no P_I sampling).
//   - fixed: no Adjustor at all (the ZigBee threshold), as the floor.
//   - margin-3dB: a more cautious 3 dB guard below the weakest co-channel
//     interferer instead of the default 1 dB.
func AblationDCN(opts Options) (AblationResult, *Table) {
	opts = opts.withDefaults()

	variants := []struct {
		name string
		cfg  *dcn.Config // nil = fixed threshold, no DCN
	}{
		{"full", &dcn.Config{}},
		{"no-case-2", &dcn.Config{DisableCaseII: true}},
		{"no-init-sensing", &dcn.Config{DisableInitSensing: true}},
		{"margin-3dB", &dcn.Config{MarginDB: 3}},
		{"fixed (no DCN)", nil},
	}

	var res AblationResult
	// All five variants of a seed share one topology snapshot.
	region, link := caseGeometry(topology.LayoutColocated)
	topos := snapshotSeeds(opts, topology.Config{
		Plan:         evalPlan(6, 3),
		Layout:       topology.LayoutColocated,
		Power:        topology.UniformPower(-22, 0),
		RegionRadius: region,
		LinkRadius:   link,
	})
	grid := runGrid(opts, len(variants), func(cell int, seed int64) float64 {
		tb := ablationRun(seed, topos.at(seed), variants[cell].cfg, opts)
		return tb.OverallThroughput()
	})
	totals := make(map[string]float64, len(variants))
	for i, v := range variants {
		totals[v.name] = sum(grid[i]) / float64(opts.Seeds)
	}
	full := totals["full"]
	for _, v := range variants {
		res.Rows = append(res.Rows, AblationRow{
			Variant: v.name,
			Total:   totals[v.name],
			VsFull:  totals[v.name] / full,
		})
	}

	t := &Table{
		Title:   "Ablation: DCN variants on the 15 MHz / 6-channel design",
		Columns: []string{"variant", "total (pkt/s)", "vs full"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Variant, f0(r.Total), f2(r.VsFull))
	}
	return res, t
}

func ablationRun(seed int64, snap *topology.Snapshot, cfg *dcn.Config, opts Options) *testbed.Testbed {
	tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
	for _, spec := range snap.Networks() {
		nc := testbed.NetworkConfig{Scheme: testbed.SchemeFixed}
		if cfg != nil {
			nc.Scheme = testbed.SchemeDCN
			nc.DCN = *cfg
		}
		tb.AddNetwork(spec, nc)
	}
	tb.Run(opts.Warmup, opts.Measure)
	return tb
}

// EnergyRow is one design's energy accounting.
type EnergyRow struct {
	Design string
	// Throughput in pkt/s and consumption per delivered packet.
	Throughput     float64
	MJPerDelivered float64
}

// EnergyResult is the energy-per-packet extension experiment.
type EnergyResult struct{ Rows []EnergyRow }

// EnergyComparison is an extension beyond the paper: using the CC2420
// current model, compare the energy cost per *delivered* packet of the
// ZigBee design and the DCN design on the 15 MHz band. DCN's extra
// concurrency converts listening/backoff time into transmissions, and
// since the CC2420 transmits more cheaply than it listens, energy per
// delivered packet drops.
func EnergyComparison(opts Options) (EnergyResult, *Table) {
	opts = opts.withDefaults()

	type cellSums struct{ Pkts, MJ, Seconds float64 }
	// Energy meters run from t=0 but packet counters only during the
	// measurement window; radios draw power near-uniformly, so scale
	// the consumption to the measured share of the run.
	share := opts.Measure.Seconds() / (opts.Warmup + opts.Measure).Seconds()
	// Cell 0 = ZigBee design, cell 1 = DCN design.
	zigTopos := snapshotSeeds(opts, bandConfig(false, topology.LayoutColocated, nil))
	dcnTopos := snapshotSeeds(opts, bandConfig(true, topology.LayoutColocated, nil))
	grid := runGrid(opts, 2, func(cell int, seed int64) cellSums {
		nonOrtho := cell == 1
		topos := zigTopos
		if nonOrtho {
			topos = dcnTopos
		}
		tb := bandDesign(opts, seed, topos.at(seed), nonOrtho)
		tb.Run(opts.Warmup, opts.Measure)
		var c cellSums
		c.Seconds = tb.MeasuredDuration().Seconds()
		for _, n := range tb.Networks() {
			c.Pkts += float64(n.Stats().Received)
			for _, node := range n.Senders {
				c.MJ += share * node.Radio.EnergyReport().Millijoules
			}
			c.MJ += share * n.Sink.Radio.EnergyReport().Millijoules
		}
		return c
	})
	aggregate := func(cells []cellSums) (throughput, mjPerPkt float64) {
		var totalPkts, totalMJ, seconds float64
		for _, c := range cells {
			totalPkts += c.Pkts
			totalMJ += c.MJ
			seconds += c.Seconds
		}
		if totalPkts == 0 {
			return 0, 0
		}
		return totalPkts / seconds, totalMJ / totalPkts
	}

	var res EnergyResult
	zt, zmj := aggregate(grid[0])
	res.Rows = append(res.Rows, EnergyRow{Design: "ZigBee (CFD=5, fixed)", Throughput: zt, MJPerDelivered: zmj})
	dt, dmj := aggregate(grid[1])
	res.Rows = append(res.Rows, EnergyRow{Design: "DCN (CFD=3)", Throughput: dt, MJPerDelivered: dmj})

	t := &Table{
		Title:   "Extension: energy per delivered packet (CC2420 current model)",
		Columns: []string{"design", "throughput (pkt/s)", "mJ per delivered packet"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Design, f0(r.Throughput), f2(r.MJPerDelivered))
	}
	return res, t
}

// CaseIIRecoveryResult quantifies the Updating Phase's relaxing step under
// dynamics.
type CaseIIRecoveryResult struct {
	// WithCaseII and WithoutCaseII are the observed network's throughput
	// in the window after a weak co-channel node leaves the network.
	WithCaseII    float64
	WithoutCaseII float64
	// ThresholdWith and ThresholdWithout are a sender's final thresholds.
	ThresholdWith    float64
	ThresholdWithout float64
}

// CaseIIRecovery demonstrates what Eq. 4 is for. A weak co-channel node
// (low transmit power, placed at the network's edge) keeps every
// CCA-Adjustor pinned to a conservative threshold. Halfway through the
// run it powers off. With Case II the window-minimum reset relaxes the
// threshold within T_U and neighbour-channel concurrency returns; with
// Case II ablated the threshold stays pinned forever and the throughput
// never recovers.
func CaseIIRecovery(opts Options) (CaseIIRecoveryResult, *Table) {
	opts = opts.withDefaults()

	type cellResult struct{ Tput, Th float64 }
	plan := evalPlan(3, 3) // observed network flanked by two neighbours
	// Both cells of a seed share one snapshot; the weak node each cell
	// appends below lives only in that cell's deep copy of the specs.
	topos := snapshotSeeds(opts, topology.Config{
		Plan:   plan,
		Layout: topology.LayoutColocated,
		// Dense region so neighbour-channel energy sits above the
		// pinned threshold but below the relaxed one.
		RegionRadius: 1.0,
	})
	// Cell 0 = with Case II, cell 1 = Case II ablated.
	grid := runGrid(opts, 2, func(cell int, seed int64) cellResult {
		disableCaseII := cell == 1
		snap := topos.at(seed)
		tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
		{
			nets := snap.Networks()
			mid := plan.MiddleIndex()
			// The weak node: a co-channel sender of the middle network at
			// minimum power on the region's edge — overheard around
			// -85 dBm, pinning every Adjustor of that network.
			nets[mid].Senders = append(nets[mid].Senders, topology.NodeSpec{
				Pos:     phy.Position{X: 3.5, Y: 0},
				TxPower: -25,
			})
			var networks []*testbed.Network
			for _, spec := range nets {
				networks = append(networks, tb.AddNetwork(spec, testbed.NetworkConfig{
					Scheme: testbed.SchemeDCN,
					DCN:    dcn.Config{DisableCaseII: disableCaseII},
				}))
			}
			observed := networks[mid]
			weak := observed.Senders[len(observed.Senders)-1]

			// Let the pinned regime establish itself, then the weak node
			// dies; measure only the post-departure window (after T_U has
			// passed so Case II had its chance).
			tb.Run(opts.Warmup+2*time.Second, 0)
			weak.Radio.SetOff()
			tb.Kernel.RunFor(4 * time.Second) // T_U + settling, unmeasured
			tb.Run(0, opts.Measure)

			return cellResult{
				Tput: observed.Throughput(tb.MeasuredDuration()),
				Th:   float64(observed.Senders[0].Radio.CCAThreshold()),
			}
		}
	})
	aggregate := func(cells []cellResult) (throughput, threshold float64) {
		var tput, th float64
		for _, c := range cells {
			tput += c.Tput
			th += c.Th
		}
		n := float64(opts.Seeds)
		return tput / n, th / n
	}

	var res CaseIIRecoveryResult
	res.WithCaseII, res.ThresholdWith = aggregate(grid[0])
	res.WithoutCaseII, res.ThresholdWithout = aggregate(grid[1])

	t := &Table{
		Title:   "Ablation: Case II recovery after a weak co-channel node departs",
		Columns: []string{"variant", "post-departure throughput (pkt/s)", "final threshold (dBm)"},
	}
	t.AddRow("with Case II", f0(res.WithCaseII), f1(res.ThresholdWith))
	t.AddRow("without Case II", f0(res.WithoutCaseII), f1(res.ThresholdWithout))
	return res, t
}
