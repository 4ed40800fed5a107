package arena_test

import (
	"testing"
	"time"

	"nonortho/internal/arena"
	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// runCell stands up a small two-network cell, runs it, and returns its
// per-network goodput — the kind of result every experiment driver reads
// off a leased core before releasing it.
func runCell(seed int64, ar *arena.Arena) []float64 {
	tb := testbed.New(testbed.Options{Seed: seed, Arena: ar})
	defer tb.Close()
	for i := 0; i < 2; i++ {
		spec := topology.NetworkSpec{
			Freq: 2458 + phy.MHz(3*i),
			Sink: topology.NodeSpec{Pos: phy.Position{X: 2 * float64(i)}},
		}
		for j := 0; j < 2; j++ {
			spec.Senders = append(spec.Senders, topology.NodeSpec{
				Pos: phy.Position{X: 2*float64(i) + 0.5, Y: 0.5 * float64(j)},
			})
		}
		tb.AddNetwork(spec, testbed.NetworkConfig{})
	}
	tb.Run(500*time.Millisecond, 500*time.Millisecond)
	return tb.PerNetworkThroughput()
}

// TestRecycledCoreBitIdentical is the arena's determinism contract: a cell
// must produce bit-identical results on a fresh core, a recycled core (same
// seed and different seed in between), and no arena at all.
func TestRecycledCoreBitIdentical(t *testing.T) {
	want := runCell(42, nil) // no arena: the reference

	ar := arena.New()
	fresh := runCell(42, ar)    // builds the core
	_ = runCell(7, ar)          // dirty it with a different seed's cell
	recycled := runCell(42, ar) // reuse after reset

	for i := range want {
		if fresh[i] != want[i] {
			t.Errorf("network %d: fresh-core %v != arena-free %v", i, fresh[i], want[i])
		}
		if recycled[i] != want[i] {
			t.Errorf("network %d: recycled-core %v != arena-free %v", i, recycled[i], want[i])
		}
	}
}

// TestCoreRadioReuse checks the pooling actually happens: a re-leased core
// hands back the same radio structs in creation order.
func TestCoreRadioReuse(t *testing.T) {
	ar := arena.New()
	core := ar.Lease(1)
	r0 := core.NewRadio(radioCfg(0))
	r1 := core.NewRadio(radioCfg(1))
	core.Release()

	again := ar.Lease(2)
	if got := again.NewRadio(radioCfg(5)); got != r0 {
		t.Errorf("first recycled radio is a new struct")
	}
	if got := again.NewRadio(radioCfg(6)); got != r1 {
		t.Errorf("second recycled radio is a new struct")
	}
	// Growing past the pool falls back to fresh construction.
	if got := again.NewRadio(radioCfg(7)); got == r0 || got == r1 {
		t.Errorf("third radio reused a struct already handed out this lease")
	}
	again.Release()
}

func radioCfg(i int) radio.Config {
	return radio.Config{
		Pos:          phy.Position{X: float64(i)},
		Freq:         2460,
		CCAThreshold: phy.DefaultCCAThreshold,
		Address:      frame.Address(1 + i),
	}
}

// TestDoubleReleasePanics: two cells must never share a live core.
func TestDoubleReleasePanics(t *testing.T) {
	ar := arena.New()
	core := ar.Lease(1)
	core.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	core.Release()
}

// runSnapCell is runCell over a shared topology snapshot, the
// configuration under which LeaseTopo may keep the medium's link-loss
// slabs between cells.
func runSnapCell(seed int64, ar *arena.Arena, snap *topology.Snapshot) []float64 {
	tb := testbed.New(testbed.Options{Seed: seed, Arena: ar, Topology: snap})
	defer tb.Close()
	for _, spec := range snap.Networks() {
		tb.AddNetwork(spec, testbed.NetworkConfig{})
	}
	tb.Run(500*time.Millisecond, 500*time.Millisecond)
	return tb.PerNetworkThroughput()
}

// TestLeaseTopoKeepsResultsBitIdentical pins the retained-links lease to
// the same contract as any other recycled core: whether a cell runs on a
// fresh core, a core recycled under the same snapshot (link losses
// retained), or a core dirtied by a different topology in between (full
// reset), its results are bit-identical to the arena-free run.
func TestLeaseTopoKeepsResultsBitIdentical(t *testing.T) {
	newSnap := func(start phy.MHz) *topology.Snapshot {
		snap, err := topology.NewSnapshotNear(topology.Config{
			Plan: phy.ChannelPlan{
				Start: start, Bandwidth: 9, CFD: 3,
				Centers: []phy.MHz{start, start + 3, start + 6},
			},
			Layout: topology.LayoutColocated,
		}, sim.NewRNG(1), nil, 150) // 150 dB: every colocated pair is stored
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := newSnap(2458)
	other := newSnap(2461)

	want := runSnapCell(42, nil, snap) // no arena: the reference

	ar := arena.New()
	fresh := runSnapCell(42, ar, snap)    // builds the core
	retained := runSnapCell(42, ar, snap) // same snapshot: links kept
	_ = runSnapCell(7, ar, other)         // different topology: full reset
	refilled := runSnapCell(42, ar, snap) // links refilled from scratch

	for i := range want {
		for name, got := range map[string][]float64{
			"fresh": fresh, "retained": retained, "refilled": refilled,
		} {
			if got[i] != want[i] {
				t.Errorf("network %d: %s-core %v != arena-free %v", i, name, got[i], want[i])
			}
		}
	}
}
