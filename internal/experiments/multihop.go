package experiments

import (
	"math"
	"time"

	"nonortho/internal/assign"
	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/routing"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// MultihopRow is one design's collection outcome.
type MultihopRow struct {
	Design string
	// DeliveredPerSec is the total root goodput in readings per second.
	DeliveredPerSec float64
	// DeliveryRatio is end-to-end delivered/generated.
	DeliveryRatio float64
	// MeanHops of delivered readings.
	MeanHops float64
}

// MultihopResult is the data-collection extension experiment.
type MultihopResult struct{ Rows []MultihopRow }

// Multihop is an extension to the workload the paper's introduction
// motivates: six multi-hop collection trees (a root plus seven reporters
// each, two to three hops deep) on the 15 MHz band.
//
//   - "ZigBee + greedy trees": only four orthogonal channels exist, so
//     two pairs of trees must share a channel; the TMCP-style greedy
//     assignment picks the least-coupled pairs.
//   - "DCN (CFD=3)": every tree gets its own non-orthogonal channel and
//     every node runs the CCA-Adjustor.
//
// The shape: DCN sustains a higher end-to-end delivery ratio and more
// delivered readings per second, because co-channel tree sharing costs
// far more than filtered neighbour-channel overlap.
func Multihop(opts Options) (MultihopResult, *Table) {
	opts = opts.withDefaults()

	var res MultihopResult
	zig := multihopRun(opts, false)
	dcnRow := multihopRun(opts, true)
	zig.Design = "ZigBee + greedy trees (6 trees / 4 ch)"
	dcnRow.Design = "DCN (6 trees / 6 ch, CFD=3)"
	res.Rows = []MultihopRow{zig, dcnRow}

	t := &Table{
		Title:   "Extension: multi-hop collection — orthogonal sharing vs DCN (15 MHz)",
		Columns: []string{"design", "delivered (readings/s)", "delivery ratio", "mean hops"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Design, f1(r.DeliveredPerSec), pct(r.DeliveryRatio), f2(r.MeanHops))
	}
	return res, t
}

// multihopTreeLayout places six tree clusters on a ring, each with a root
// at the cluster center and seven reporters around it at one- and two-hop
// distances.
func multihopTreeLayout(cluster int) (pos []phy.Position, root int) {
	angle := float64(cluster) * math.Pi / 3
	cx, cy := 6*math.Cos(angle), 6*math.Sin(angle)
	pos = append(pos, phy.Position{X: cx, Y: cy}) // root
	// Inner ring: three nodes ~2.5 m out (single hop).
	for i := 0; i < 3; i++ {
		a := angle + float64(i)*2*math.Pi/3
		pos = append(pos, phy.Position{X: cx + 2.5*math.Cos(a), Y: cy + 2.5*math.Sin(a)})
	}
	// Outer ring: four nodes ~5 m out (out of direct root range at
	// -16 dBm, forcing a second hop through the inner ring).
	for i := 0; i < 4; i++ {
		a := angle + math.Pi/4 + float64(i)*math.Pi/2
		pos = append(pos, phy.Position{X: cx + 5*math.Cos(a), Y: cy + 5*math.Sin(a)})
	}
	return pos, 0
}

func multihopRun(opts Options, useDCN bool) MultihopRow {
	const trees = 6
	type seedSums struct{ Delivered, Generated, HopsW, Seconds float64 }
	cells := runSeeds(opts, func(seed int64) seedSums {
		k, m := newCellCore(opts, seed)

		// Channel plans: DCN gets six CFD=3 channels; ZigBee packs six
		// trees onto four orthogonal channels via the greedy assignment
		// over tree-to-tree coupling.
		freqs := make([]phy.MHz, trees)
		if useDCN {
			for i := range freqs {
				freqs[i] = 2458 + phy.MHz(3*i)
			}
		} else {
			specs := make([]topology.NetworkSpec, trees)
			for i := range specs {
				pos, root := multihopTreeLayout(i)
				specs[i] = topology.NetworkSpec{Sink: topology.NodeSpec{Pos: pos[root], TxPower: -16}}
				for j, p := range pos {
					if j == root {
						continue
					}
					specs[i].Senders = append(specs[i].Senders,
						topology.NodeSpec{Pos: p, TxPower: -16})
				}
			}
			coupling := assign.Coupling(specs, phy.DefaultPathLoss())
			orth := []phy.MHz{2458, 2463, 2468, 2473}
			a := assign.Greedy(coupling, len(orth))
			for i := range freqs {
				freqs[i] = orth[a[i]]
			}
		}

		collectors := make([]*routing.Collector, trees)
		for i := 0; i < trees; i++ {
			pos, root := multihopTreeLayout(i)
			powersList := make([]phy.DBm, len(pos))
			for j := range powersList {
				powersList[j] = -16 // short-range links force multihop
			}
			c, err := routing.NewCollector(k, m, routing.Config{
				Freq:      freqs[i],
				Positions: pos,
				TxPowers:  powersList,
				Root:      root,
				UseDCN:    useDCN,
				BaseAddr:  frame.Address(1 + 100*i),
			})
			if err != nil {
				panic(err) // static layout; cannot fail
			}
			collectors[i] = c
			c.Start(60 * time.Millisecond)
		}

		k.RunUntil(sim.FromDuration(opts.Warmup))
		for _, c := range collectors {
			c.ResetCounters()
		}
		k.RunUntil(sim.FromDuration(opts.Warmup + opts.Measure))

		var s seedSums
		s.Seconds = opts.Measure.Seconds()
		for _, c := range collectors {
			s.Delivered += float64(c.Delivered())
			s.Generated += float64(c.Generated())
			s.HopsW += c.MeanHops() * float64(c.Delivered())
		}
		return s
	})
	var delivered, generated, hopsW, seconds float64
	for _, s := range cells {
		delivered += s.Delivered
		generated += s.Generated
		hopsW += s.HopsW
		seconds += s.Seconds
	}
	row := MultihopRow{}
	if seconds > 0 {
		row.DeliveredPerSec = delivered / seconds
	}
	if generated > 0 {
		row.DeliveryRatio = delivered / generated
	}
	if delivered > 0 {
		row.MeanHops = hopsW / delivered
	}
	return row
}
