package topology

import (
	"testing"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

func snapshotConfig() Config {
	return Config{
		Plan: phy.ChannelPlan{
			Start: 2458, Bandwidth: 6, CFD: 3,
			Centers: []phy.MHz{2458, 2461, 2464},
		},
		Layout: LayoutRandomField,
		Power:  UniformPower(-10, 0),
	}
}

// testLossBound is the near-field bound the snapshot tests build with:
// the experiment drivers' 150 dB (~820 m), far beyond the random-field
// layout's extent, so every pair is stored.
const testLossBound = 150

func TestSnapshotMatchesGenerate(t *testing.T) {
	const seed = 11
	snap, err := NewSnapshotNear(snapshotConfig(), sim.NewRNG(seed), nil, testLossBound)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(snapshotConfig(), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Networks()
	if len(got) != len(want) {
		t.Fatalf("networks = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Freq != want[i].Freq || got[i].Sink != want[i].Sink {
			t.Fatalf("network %d: %+v, want %+v", i, got[i], want[i])
		}
		for j := range want[i].Senders {
			if got[i].Senders[j] != want[i].Senders[j] {
				t.Fatalf("network %d sender %d differs", i, j)
			}
		}
	}
}

func TestSnapshotPairLossMatchesModel(t *testing.T) {
	snap, err := NewSnapshotNear(snapshotConfig(), sim.NewRNG(3), nil, testLossBound)
	if err != nil {
		t.Fatal(err)
	}
	model := snap.Model()
	// Flatten in attach order: sink first, then senders, per network.
	var pos []phy.Position
	for _, net := range snap.Networks() {
		pos = append(pos, net.Sink.Pos)
		for _, nd := range net.Senders {
			pos = append(pos, nd.Pos)
		}
	}
	if len(pos) != snap.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", snap.NumNodes(), len(pos))
	}
	for i := range pos {
		for j := range pos {
			got, ok := snap.PairLoss(i, j, pos[i], pos[j])
			if !ok {
				t.Fatalf("PairLoss(%d, %d) not ok", i, j)
			}
			// Bit-identical to the lazy computation the medium would do.
			if want := model.Loss(pos[i].DistanceTo(pos[j])); got != want {
				t.Fatalf("PairLoss(%d, %d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSnapshotPairLossRejectsMismatch(t *testing.T) {
	snap, err := NewSnapshotNear(snapshotConfig(), sim.NewRNG(3), nil, testLossBound)
	if err != nil {
		t.Fatal(err)
	}
	good := snap.Networks()[0].Sink.Pos
	if _, ok := snap.PairLoss(0, 0, good, good); !ok {
		t.Fatal("matching position rejected")
	}
	shifted := phy.Position{X: good.X + 0.5, Y: good.Y}
	if _, ok := snap.PairLoss(0, 0, shifted, good); ok {
		t.Error("shifted src position accepted")
	}
	if _, ok := snap.PairLoss(0, 0, good, shifted); ok {
		t.Error("shifted listener position accepted")
	}
	if _, near, ok := snap.PairLossOrFloor(0, 0, shifted, good); ok || near {
		t.Errorf("shifted src position answered by PairLossOrFloor (near=%v ok=%v)", near, ok)
	}
	n := snap.NumNodes()
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {n, 0}, {0, n}} {
		if _, ok := snap.PairLoss(pair[0], pair[1], good, good); ok {
			t.Errorf("out-of-range pair %v accepted", pair)
		}
	}
}

func TestSnapshotNetworksIsDeepCopy(t *testing.T) {
	snap, err := NewSnapshotNear(snapshotConfig(), sim.NewRNG(5), nil, testLossBound)
	if err != nil {
		t.Fatal(err)
	}
	a := snap.Networks()
	a[0].Senders[0].TxPower = 99
	a[0].Senders[0].Pos.X += 1000
	b := snap.Networks()
	if b[0].Senders[0].TxPower == 99 {
		t.Error("mutating one copy's sender leaked into the snapshot")
	}
	// The snapshot still answers for the unmutated geometry.
	if _, ok := snap.PairLoss(0, 1, b[0].Sink.Pos, b[0].Senders[0].Pos); !ok {
		t.Error("PairLoss rejected the original geometry after caller mutation")
	}
}
