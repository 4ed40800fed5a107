package medium

import (
	"testing"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// Reachable decides whether a radio may lock on to a preamble at all, so
// a wrong false silently drops a frame. These tests pin each branch of the
// decision and check it against the brute-force model loss.

// reachLine places single-node networks on the x axis at the given
// positions and captures them in a near-field snapshot under the default
// path-loss model (48 dB at 1 m, exponent 3.5).
func reachLine(t *testing.T, lossBound float64, xs ...float64) *topology.Snapshot {
	t.Helper()
	nets := make([]topology.NetworkSpec, len(xs))
	for i, x := range xs {
		nets[i] = topology.NetworkSpec{Freq: 2458, Sink: topology.NodeSpec{Pos: phy.Position{X: x}}}
	}
	snap, err := topology.SnapshotFromSpecsNear(nets, nil, lossBound)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// reachMedium attaches one listener per position, in attach-ID order.
func reachMedium(xs []float64, opts ...Option) *Medium {
	m := New(sim.NewKernel(1), opts...)
	for _, x := range xs {
		m.Attach(&fakeListener{pos: phy.Position{X: x}})
	}
	return m
}

func TestReachableDecisionTable(t *testing.T) {
	// With MaxTxPower 0 dBm, Sensitivity −94 dBm and a 40 dB margin, a
	// narrowband pair is reachable up to 134 dB of loss (~286 m). Nodes:
	// 0 at 0 m, 1 at 20 m (93.5 dB from node 0), 2 at 50 m (107.5 dB),
	// 3 at 500 m (142.5 dB).
	xs := []float64{0, 20, 50, 500}
	// tight stores pairs below 100 dB (~31 m): its floor never rules a
	// pair out, so every far pair falls back to the exact model loss.
	tight := reachLine(t, 100, xs...)
	// wide stores pairs below 140 dB (~425 m): a far pair sits at least
	// 140 dB away, and the floor alone rules it out.
	wide := reachLine(t, 140, xs...)

	cases := []struct {
		name      string
		snap      *topology.Snapshot
		noSnap    bool
		detach    bool
		move      bool
		src       int
		listener  int
		power     phy.DBm
		bandwidth phy.MHz
		want      bool
	}{
		{name: "near pair", snap: tight, src: 1, want: true},
		{name: "far pair ruled out by floor", snap: wide, src: 3, want: false},
		{name: "far pair, floor inconclusive, exact loss reaches", snap: tight, src: 2, want: true},
		{name: "far pair, floor inconclusive, exact loss rules out", snap: tight, src: 3, want: false},
		{name: "narrow wideband emitter has no bound", snap: wide, src: 3, bandwidth: 1, want: true},
		{name: "wide wideband emitter bounded by own power", snap: tight, src: 2, power: -60, bandwidth: 22, want: false},
		{name: "wide wideband emitter above spec power", snap: tight, src: 2, power: 20, bandwidth: 22, want: true},
		{name: "wide wideband emitter far", snap: wide, src: 3, bandwidth: 22, want: false},
		{name: "over-spec narrowband emitter", snap: wide, src: 3, power: phy.MaxTxPower + 1, want: true},
		{name: "detached listener", snap: wide, src: 3, detach: true, want: true},
		{name: "unbacked listener", snap: wide, src: 3, move: true, want: true},
		{name: "no snapshot installed", snap: wide, noSnap: true, src: 3, want: true},
		{name: "unknown listener", snap: wide, src: 3, listener: 99, want: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			at := append([]float64(nil), xs...)
			if c.move {
				// The listener sits half a metre from where the snapshot
				// captured it, as a node placed after the capture would.
				at[c.listener] += 0.5
			}
			var opts []Option
			if !c.noSnap {
				opts = append(opts, WithSnapshot(c.snap))
			}
			m := reachMedium(at, opts...)
			if c.detach {
				m.Detach(c.listener)
			}
			tx := &Transmission{
				Src:       c.src,
				Pos:       phy.Position{X: xs[c.src]},
				Power:     c.power,
				Freq:      2458,
				Bandwidth: c.bandwidth,
			}
			if got := m.Reachable(tx, c.listener); got != c.want {
				t.Errorf("Reachable = %v, want %v", got, c.want)
			}
		})
	}
	t.Run("sound against model loss", reachableMatchesModelLoss)
	t.Run("fan-out marks match the search", reachableMarksMatchSearch)
}

// reachableMarksMatchSearch puts one frame from every node of a spread-out
// line on the air under the fold, one after another, for emitters inside
// and outside the certificate. At every OnAir each listener's Reachable
// answer must equal the near-row search's, which clearing reachTx selects.
// The frames overlap, so every listener holds marks left by earlier
// frames' rows, and those must not answer for later frames.
func reachableMarksMatchSearch(t *testing.T) {
	xs := []float64{0, 3, 17, 40, 95, 180, 260, 290, 330, 610, 1200}
	emitters := []struct {
		power     phy.DBm
		bandwidth phy.MHz
	}{{0, 0}, {-25, 0}, {phy.MaxTxPower + 1, 0}, {0, 22}}
	reach := map[bool]int{} // marked answers by outcome
	for _, bound := range []float64{100, 134, 140, 170} {
		snap := reachLine(t, bound, xs...)
		k := sim.NewKernel(1)
		m := New(k, WithSnapshot(snap), WithFarField(60))
		var ids []int
		for _, x := range xs {
			ids = append(ids, m.Attach(&trackerListener{pos: phy.Position{X: x}}))
		}
		m.listeners[ids[0]].(*trackerListener).onAir = func(tx *Transmission) {
			for _, lid := range ids {
				got := m.Reachable(tx, lid)
				marks := m.reachTx
				m.reachTx = 0
				want := m.Reachable(tx, lid)
				m.reachTx = marks
				if got != want {
					t.Fatalf("bound %g dB, tx %d from node %d → listener %d: Reachable = %v, near-row search %v",
						bound, tx.ID, tx.Src, lid, got, want)
				}
				if marks == tx.ID+1 {
					reach[got]++
				}
			}
		}
		for _, e := range emitters {
			for src, x := range xs {
				m.TransmitShaped(ids[src], phy.Position{X: x}, e.power, 2458, e.bandwidth, testFrame(16))
			}
		}
		k.Run()
	}
	if reach[true] == 0 || reach[false] == 0 {
		t.Fatalf("answers from marks: %d reachable, %d culled; the sweep must exercise both", reach[true], reach[false])
	}
}

// reachableMatchesModelLoss sweeps every ordered pair of a spread-out line
// under snapshot bounds on both sides of the 134 dB decision loss, for
// narrowband and wideband emitters. Reachable must never be false when
// the bounding power across the exact model loss, plus the margin, clears
// the sensitivity floor. For captured nodes the decision is also exact:
// it must not depend on where the snapshot's bound lies.
func reachableMatchesModelLoss(t *testing.T) {
	xs := []float64{0, 3, 17, 40, 95, 180, 260, 290, 330, 610, 1200}
	model := phy.DefaultPathLoss()
	emitters := []struct {
		power     phy.DBm
		bandwidth phy.MHz
	}{{0, 0}, {-25, 0}, {0, 22}, {-30, 22}, {15, 22}}
	for _, bound := range []float64{80, 100, 134, 140, 170} {
		snap := reachLine(t, bound, xs...)
		m := reachMedium(xs, WithSnapshot(snap))
		var reach, cull int
		for src, sx := range xs {
			for l, lx := range xs {
				for _, e := range emitters {
					tx := &Transmission{Src: src, Pos: phy.Position{X: sx}, Power: e.power, Freq: 2458, Bandwidth: e.bandwidth}
					// Reachable bounds a narrowband emitter by the spec
					// maximum and a wideband one by its own power.
					power := phy.MaxTxPower
					if e.bandwidth != 0 {
						power = e.power
					}
					loss := model.Loss(phy.Position{X: sx}.DistanceTo(phy.Position{X: lx}))
					want := power-phy.DBm(loss)+phy.ReachMarginDB >= phy.Sensitivity
					got := m.Reachable(tx, l)
					if got != want {
						t.Fatalf("bound %g dB, src %d → listener %d, %+v: Reachable = %v, brute force %v (loss %.2f dB)",
							bound, src, l, e, got, want, loss)
					}
					if got {
						reach++
					} else {
						cull++
					}
				}
			}
		}
		if reach == 0 || cull == 0 {
			t.Fatalf("bound %g dB: %d reachable, %d culled; the sweep must exercise both", bound, reach, cull)
		}
	}
}
