package topology

import (
	"math"
	"sort"
	"testing"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// The spatial tier's geometry layer: the grid index must report exactly
// the within-radius pairs a brute-force scan finds, and the near-field
// snapshot must be bit-identical to the model's own loss expression on
// every pair it materialises while certifying every omitted pair at or
// beyond the loss bound.

func TestGridVisitWithinMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(7)
	const n = 400
	pos := make([]phy.Position, n)
	for i := range pos {
		pos[i] = phy.Position{X: rng.Float64() * 500, Y: rng.Float64() * 500}
	}
	for _, radius := range []float64{5, 60, 800} {
		g := NewGrid(pos, radius)
		for _, probe := range []int{0, 17, n - 1} {
			var got []int32
			g.VisitWithin(pos[probe], radius, func(id int32, d float64) {
				got = append(got, id)
				if want := pos[probe].DistanceTo(pos[id]); d != want {
					t.Fatalf("radius %g probe %d id %d: visit distance %v, want %v", radius, probe, id, want, d)
				}
			})
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			var want []int32
			for j := range pos {
				if pos[probe].DistanceTo(pos[j]) <= radius {
					want = append(want, int32(j))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("radius %g probe %d: %d visited, want %d", radius, probe, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("radius %g probe %d: visited %v, want %v", radius, probe, got, want)
				}
			}
		}
	}
}

func TestNearSnapshotMatchesDense(t *testing.T) {
	cfg := CityConfig{
		Plan:     phy.ChannelPlan{Start: 2458, Bandwidth: 15, CFD: 3, Centers: []phy.MHz{2458, 2461, 2464}},
		Networks: 60,
		AreaSide: 1500,
	}
	nets, err := GenerateCity(cfg, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	const bound = 115 // ~82 m near range: plenty of far pairs over 1.5 km
	near, err := SnapshotFromSpecsNear(nets, nil, bound)
	if err != nil {
		t.Fatal(err)
	}
	model := near.Model()
	n := near.NumNodes()
	if n != cfg.NumNodes() {
		t.Fatalf("NumNodes: near %d cfg %d", n, cfg.NumNodes())
	}

	pos := make([]phy.Position, 0, n)
	for _, net := range nets {
		pos = append(pos, net.Sink.Pos)
		for _, s := range net.Senders {
			pos = append(pos, s.Pos)
		}
	}
	nearPairs, farPairs := 0, 0
	for l := 0; l < n; l++ {
		ids, loss := near.NearRow(l)
		if len(ids) != len(loss) {
			t.Fatalf("row %d: %d ids, %d losses", l, len(ids), len(loss))
		}
		inRow := map[int32]float64{}
		prev := int32(-1)
		for i, id := range ids {
			if id <= prev {
				t.Fatalf("row %d not in ascending ID order: %v", l, ids)
			}
			prev = id
			inRow[id] = loss[i]
		}
		if _, ok := inRow[int32(l)]; !ok {
			t.Fatalf("row %d omits the node itself", l)
		}
		// The transpose: each neighbour's row holds l at the recorded rank.
		ranks := near.NearRanks(l)
		if len(ranks) != len(ids) {
			t.Fatalf("row %d: %d ids, %d ranks", l, len(ids), len(ranks))
		}
		for i, id := range ids {
			if back, _ := near.NearRow(int(id)); back[ranks[i]] != int32(l) {
				t.Fatalf("row %d entry %d: node %d's row holds %d at rank %d, want %d", l, i, id, back[ranks[i]], ranks[i], l)
			}
		}
		for s := 0; s < n; s++ {
			// The reference: the expression the medium computes lazily.
			want := model.Loss(pos[s].DistanceTo(pos[l]))
			if rowLoss, isNear := inRow[int32(s)]; isNear {
				nearPairs++
				// Materialised pairs are bit-identical to the reference
				// through every access path.
				if rowLoss != want {
					t.Fatalf("pair (%d,%d): near row loss %v, reference %v", s, l, rowLoss, want)
				}
				got, ok := near.PairLoss(s, l, pos[s], pos[l])
				if !ok || got != want {
					t.Fatalf("pair (%d,%d): near PairLoss (%v,%v), reference %v", s, l, got, ok, want)
				}
				if got, isNear, ok := near.PairLossOrFloor(s, l, pos[s], pos[l]); !ok || !isNear || got != want {
					t.Fatalf("near pair (%d,%d): PairLossOrFloor = (%v,%v,%v), want (%v,true,true)", s, l, got, isNear, ok, want)
				}
			} else {
				farPairs++
				// Omitted pairs are certified: the true loss reaches the bound.
				if want < bound {
					t.Fatalf("pair (%d,%d) omitted but true loss %v < bound %v", s, l, want, float64(bound))
				}
				if _, ok := near.PairLoss(s, l, pos[s], pos[l]); ok {
					t.Fatalf("far pair (%d,%d): PairLoss answered", s, l)
				}
				floor, isNear, ok := near.PairLossOrFloor(s, l, pos[s], pos[l])
				if !ok || isNear || floor != bound {
					t.Fatalf("far pair (%d,%d): PairLossOrFloor = (%v,%v,%v), want (%v,false,true)", s, l, floor, isNear, ok, float64(bound))
				}
			}
			// Symmetry of the near/far split.
			if _, fwd := near.PairLoss(s, l, pos[s], pos[l]); true {
				_, rev := near.PairLoss(l, s, pos[l], pos[s])
				if fwd != rev {
					t.Fatalf("pair (%d,%d) near/far split asymmetric", s, l)
				}
			}
		}
	}
	if farPairs == 0 {
		t.Fatal("layout produced no far pairs; the certification path went untested")
	}
	if got := near.NearPairs(); got != nearPairs {
		t.Fatalf("NearPairs() = %d, counted %d", got, nearPairs)
	}
	// The whole point: materialised storage is a small fraction of n².
	if frac := float64(nearPairs) / float64(n*n); frac > 0.25 {
		t.Fatalf("near fraction %.2f — layout not sparse enough to prove O(n·k) storage", frac)
	}
	gotBound, maxFar := near.FarField()
	if gotBound != bound {
		t.Fatalf("FarField bound = %v, want %v", gotBound, float64(bound))
	}
	worstFar := 0
	for l := 0; l < n; l++ {
		ids, _ := near.NearRow(l)
		if far := n - len(ids); far > worstFar {
			worstFar = far
		}
	}
	if maxFar != worstFar {
		t.Fatalf("FarField maxFar = %d, want %d", maxFar, worstFar)
	}
}

// TestRangeForLossCertifies is the property behind every far certificate:
// any distance strictly beyond RangeForLoss(L) has model loss >= L, so a
// pair outside the radius can safely be omitted with floor L.
func TestRangeForLossCertifies(t *testing.T) {
	model := phy.DefaultPathLoss()
	rng := sim.NewRNG(11)
	for i := 0; i < 2000; i++ {
		lossDB := 40 + rng.Float64()*140
		r := model.RangeForLoss(lossDB)
		if model.Loss(r) < lossDB {
			t.Fatalf("Loss(RangeForLoss(%v)) = %v < %v", lossDB, model.Loss(r), lossDB)
		}
		// Just beyond the radius the certificate must hold exactly.
		beyond := math.Nextafter(r, math.Inf(1))
		if model.Loss(beyond) < lossDB {
			t.Fatalf("Loss just beyond RangeForLoss(%v) = %v < %v", lossDB, model.Loss(beyond), lossDB)
		}
	}
	// Sub-clamp losses resolve to the clamp distance, not zero.
	if r := model.RangeForLoss(1); r <= 0 {
		t.Fatalf("RangeForLoss(1) = %v, want the clamp distance", r)
	}
}

func TestGenerateCityDeterministicAndInBounds(t *testing.T) {
	cfg := CityConfig{
		Plan:     phy.ChannelPlan{Start: 2458, Bandwidth: 15, CFD: 3, Centers: []phy.MHz{2458, 2461}},
		Networks: 25,
	}
	a, err := GenerateCity(cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("network counts %d, %d, want 25", len(a), len(b))
	}
	half := 1000.0 // default AreaSide 2000
	for i := range a {
		if a[i].Freq != b[i].Freq || a[i].Sink.Pos != b[i].Sink.Pos {
			t.Fatalf("network %d differs across identical seeds", i)
		}
		if want := cfg.Plan.Centers[i%2]; a[i].Freq != want {
			t.Fatalf("network %d freq %v, want cycled %v", i, a[i].Freq, want)
		}
		if p := a[i].Sink.Pos; math.Abs(p.X) > half || math.Abs(p.Y) > half {
			t.Fatalf("sink %d at %v outside the default square", i, p)
		}
		if len(a[i].Senders) != 4 {
			t.Fatalf("network %d has %d senders, want default 4", i, len(a[i].Senders))
		}
		for j, s := range a[i].Senders {
			if s.Pos != b[i].Senders[j].Pos {
				t.Fatalf("sender %d/%d differs across identical seeds", i, j)
			}
			d := a[i].Sink.Pos.DistanceTo(s.Pos)
			if d < 0.5-1e-12 || d > 1+1e-12 {
				t.Fatalf("sender %d/%d at ring distance %v, want [0.5, 1]", i, j, d)
			}
		}
	}
	if _, err := GenerateCity(CityConfig{Plan: cfg.Plan}, sim.NewRNG(1)); err == nil {
		t.Fatal("zero networks accepted")
	}
	if _, err := GenerateCity(CityConfig{Networks: 3}, sim.NewRNG(1)); err == nil {
		t.Fatal("empty channel plan accepted")
	}
}

// TestNearSnapshotErrors pins the constructor's preconditions.
func TestNearSnapshotErrors(t *testing.T) {
	nets := []NetworkSpec{{Freq: 2458, Sink: NodeSpec{}}}
	if _, err := SnapshotFromSpecsNear(nets, nil, 0); err == nil {
		t.Fatal("zero loss bound accepted")
	}
	if _, err := SnapshotFromSpecsNear(nets, nil, -5); err == nil {
		t.Fatal("negative loss bound accepted")
	}
	if _, err := SnapshotFromSpecsNear(nets, flatLoss{}, 100); err == nil {
		t.Fatal("model without RangeForLoss accepted")
	}
}

// flatLoss is a PathLossModel that cannot invert a loss to a range.
type flatLoss struct{}

func (flatLoss) Loss(d float64) float64 { return 60 }
