package experiments

import (
	"testing"
	"time"

	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// TestCityScaleWorkerInvariance runs a shrunk city-scale ladder at one
// worker and at eight and requires byte-identical tables — the same
// contract every golden driver honours, here with the far-field fold
// active (folding changes which sums are approximated, but never varies
// with scheduling).
func TestCityScaleWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulation cells; skipped in -short")
	}
	old := cityPopulations
	cityPopulations = []int{4, 10}
	defer func() { cityPopulations = old }()

	opts := Options{Seed: 1, Seeds: 2, Warmup: 300 * time.Millisecond, Measure: 500 * time.Millisecond}
	opts.Workers = 1
	_, t1 := CityScale(opts)
	opts.Workers = 8
	res, t8 := CityScale(opts)
	if t1.String() != t8.String() {
		t.Fatalf("city-scale tables differ across worker counts:\n%s\nvs\n%s", t1, t8)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Nodes != r.Networks*5 {
			t.Fatalf("population %d: %d nodes, want %d", r.Networks, r.Nodes, r.Networks*5)
		}
		if r.Fixed <= 0 || r.DCN <= 0 {
			t.Fatalf("population %d: non-positive goodput (fixed %v, DCN %v)", r.Networks, r.Fixed, r.DCN)
		}
		if r.NearFrac <= 0 || r.NearFrac > 1 {
			t.Fatalf("population %d: near fraction %v outside (0, 1]", r.Networks, r.NearFrac)
		}
	}
	checkGolden(t, "CityScale/shrunk", t1.String())
}

// TestCityLadderSnapshotsAreSparseAndFoldable pins the driver's static
// configuration: every population of the real ladder builds a near-field
// snapshot whose certified floor honours the
// driver's fold budget — the same check the medium enforces by panic at
// cell reset, verified here without paying for the cells.
func TestCityLadderSnapshotsAreSparseAndFoldable(t *testing.T) {
	for _, networks := range cityPopulations {
		cfg := topology.CityConfig{
			Plan:     evalPlan(6, 3),
			Networks: networks,
			AreaSide: citySide(networks),
		}
		nets, err := topology.GenerateCity(cfg, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := topology.SnapshotFromSpecsNear(nets, nil, spatialLossBoundDB)
		if err != nil {
			t.Fatal(err)
		}
		n := snap.NumNodes()
		if n != cfg.NumNodes() {
			t.Fatalf("%d networks: %d nodes, want %d", networks, n, cfg.NumNodes())
		}
		bound, maxFar := snap.FarField()
		if bound != spatialLossBoundDB || maxFar <= 0 || maxFar >= n {
			t.Fatalf("%d networks: FarField() = (%v, %d)", networks, bound, maxFar)
		}
		// O(n·k) storage: the 5,000-node cell must materialise well under a
		// tenth of the dense matrix.
		if frac := float64(snap.NearPairs()) / float64(n*n); networks >= 1000 && frac > 0.10 {
			t.Fatalf("%d networks: near fraction %.3f, want < 0.10", networks, frac)
		}
	}
}
