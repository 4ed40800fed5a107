package topology

import (
	"cmp"
	"fmt"
	"slices"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// Snapshot is an immutable capture of one generated deployment: the network
// specifications plus the node-pair path losses within a certified bound,
// precomputed once. Experiment drivers build one snapshot per
// (configuration, seed) before fanning simulation cells across the worker
// pool, so every cell that reuses the configuration shares the same
// placements and geometry read-only instead of regenerating them — and the
// medium, via medium.WithSnapshot, skips recomputing per-pair path loss
// during cell setup and link-cache fills.
//
// Node indices follow testbed attach order: for each network in turn, the
// sink first, then its senders. Only pairs within the loss bound are
// materialised, in compressed sparse rows built through a Grid range
// query — O(n·k) construction and memory for neighbourhood size k — and
// far pairs are answered with the bound itself via PairLossOrFloor. Stored
// losses are computed with exactly the expression the medium itself uses
// (model.Loss of the pair distance), so lookups are bit-identical to lazy
// computation; PairLoss verifies positions before answering and reports
// ok=false for nodes that moved or attached outside the snapshot (e.g. a
// late-added interferer), letting the medium fall back to its own model.
type Snapshot struct {
	nets  []NetworkSpec
	pos   []phy.Position
	n     int
	model phy.PathLossModel

	// lossBound certifies that every pair absent from the rows has path
	// loss >= lossBound (nearRange is the matching distance bound). Row i
	// holds the ascending node IDs within nearRange of node i (always
	// including i itself) and their losses, CSR-packed:
	// nearIDs[nearOff[i]:nearOff[i+1]].
	lossBound float64
	nearRange float64
	nearOff   []int32
	nearIDs   []int32
	nearLoss  []float64
	// nearRanks is the rows' transpose: for CSR entry e of row i,
	// nearRanks[e] is i's index in the row of nearIDs[e].
	nearRanks []int32
	maxFar    int // max over listeners of (n - row length)
}

// NewSnapshotNear generates a deployment from cfg and rng (consuming exactly
// the draws Generate would) and materialises the pair losses below
// lossBoundDB under model (nil = phy.DefaultPathLoss, the testbed default).
func NewSnapshotNear(cfg Config, rng *sim.RNG, model phy.PathLossModel, lossBoundDB float64) (*Snapshot, error) {
	nets, err := Generate(cfg, rng)
	if err != nil {
		return nil, err
	}
	return SnapshotFromSpecsNear(nets, model, lossBoundDB)
}

// SnapshotFromSpecsNear captures an explicit set of network specifications —
// generated or hand-placed: pairs whose path loss is certified to reach
// lossBoundDB or more are not stored. The model (nil =
// phy.DefaultPathLoss) must implement phy.RangeInverter so the loss bound
// converts to a distance bound; losses for retained pairs are computed with
// exactly the expression the medium uses, so lookups stay bit-identical to
// lazy computation.
func SnapshotFromSpecsNear(nets []NetworkSpec, model phy.PathLossModel, lossBoundDB float64) (*Snapshot, error) {
	if model == nil {
		model = phy.DefaultPathLoss()
	}
	inv, ok := model.(phy.RangeInverter)
	if !ok {
		return nil, fmt.Errorf("topology: near-field snapshot needs a phy.RangeInverter path-loss model, got %T", model)
	}
	if !(lossBoundDB > 0) {
		return nil, fmt.Errorf("topology: near-field loss bound must be positive, got %g dB", lossBoundDB)
	}
	s := &Snapshot{nets: copySpecs(nets), model: model, lossBound: lossBoundDB}
	for _, net := range s.nets {
		s.pos = append(s.pos, net.Sink.Pos)
		for _, nd := range net.Senders {
			s.pos = append(s.pos, nd.Pos)
		}
	}
	s.n = len(s.pos)
	s.nearRange = inv.RangeForLoss(lossBoundDB)
	grid := NewGrid(s.pos, s.nearRange)
	s.nearOff = make([]int32, s.n+1)
	type nearEntry struct {
		id int32
		d  float64
	}
	var row []nearEntry
	for i := 0; i < s.n; i++ {
		row = row[:0]
		grid.VisitWithin(s.pos[i], s.nearRange, func(id int32, d float64) {
			row = append(row, nearEntry{id, d})
		})
		slices.SortFunc(row, func(a, b nearEntry) int { return cmp.Compare(a.id, b.id) })
		for _, e := range row {
			s.nearIDs = append(s.nearIDs, e.id)
			s.nearLoss = append(s.nearLoss, model.Loss(e.d))
		}
		s.nearOff[i+1] = int32(len(s.nearIDs))
		if far := s.n - len(row); far > s.maxFar {
			s.maxFar = far
		}
	}
	// Rows are symmetric, so visiting them in ascending i meets each row
	// l's entries in order, once per neighbour: a cursor per row hands out
	// the ranks, and checks the symmetry as it goes.
	s.nearRanks = make([]int32, len(s.nearIDs))
	cursor := make([]int32, s.n)
	for i := 0; i < s.n; i++ {
		for e := s.nearOff[i]; e < s.nearOff[i+1]; e++ {
			l := s.nearIDs[e]
			if c := s.nearOff[l] + cursor[l]; c >= s.nearOff[l+1] || s.nearIDs[c] != int32(i) {
				return nil, fmt.Errorf("topology: near rows not symmetric at pair (%d, %d)", i, l)
			}
			s.nearRanks[e] = cursor[l]
			cursor[l]++
		}
	}
	return s, nil
}

// Networks returns a deep copy of the captured network specifications.
// Callers mutate their copy freely (per-cell power overrides, extra nodes)
// without corrupting the snapshot shared across cells; PairLoss's position
// check keeps the stored losses safe against any such mutation.
func (s *Snapshot) Networks() []NetworkSpec { return copySpecs(s.nets) }

// NumNodes reports the number of nodes captured in the snapshot.
func (s *Snapshot) NumNodes() int { return s.n }

// Model returns the path-loss model the losses were computed under.
func (s *Snapshot) Model() phy.PathLossModel { return s.model }

// PairLoss serves the medium's link-budget lookups: it returns the precomputed
// loss for the (src, listener) attach-ID pair when both indices are inside
// the snapshot and both positions still match the captured geometry. The
// position check makes the lookup self-verifying — a mismatched node (late
// attacher, or an index shifted by caller-added nodes) simply falls
// back to the medium's own model, never to a wrong value. Safe for
// concurrent use: the snapshot is immutable after construction.
func (s *Snapshot) PairLoss(src, listener int, from, to phy.Position) (float64, bool) {
	loss, near, _ := s.PairLossOrFloor(src, listener, from, to)
	if !near {
		return 0, false // far pair or unmatched geometry: no stored loss
	}
	return loss, true
}

// PairLossOrFloor answers any pair of the captured geometry with one near-row
// search: for a near pair (near=true) the stored loss PairLoss returns; for
// a pair the snapshot deliberately omits (near=false) the snapshot's loss
// bound — a floor every such pair's true loss provably reaches. ok=false
// (and near=false) when either node is outside the snapshot or does not
// match the captured geometry.
func (s *Snapshot) PairLossOrFloor(src, listener int, from, to phy.Position) (loss float64, near, ok bool) {
	if src < 0 || src >= s.n || listener < 0 || listener >= s.n {
		return 0, false, false
	}
	if s.pos[src] != from || s.pos[listener] != to {
		return 0, false, false
	}
	if r := s.nearRank(listener, int32(src)); r >= 0 {
		return s.nearLoss[r], true, true
	}
	return s.lossBound, false, true
}

// nearRank returns src's index into the CSR arrays of listener's near row,
// or -1 when the pair is far.
func (s *Snapshot) nearRank(listener int, src int32) int {
	lo, hi := int(s.nearOff[listener]), int(s.nearOff[listener+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch v := s.nearIDs[mid]; {
		case v < src:
			lo = mid + 1
		case v > src:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// NearRow returns listener's near-field row: the ascending node IDs within
// the snapshot's distance bound (including listener itself) and their pair
// losses. The slices are views into the snapshot's CSR arrays — read-only.
// Nil for an out-of-range listener. Rows are symmetric: src ∈ NearRow(listener) iff
// listener ∈ NearRow(src), with the identical loss value.
func (s *Snapshot) NearRow(listener int) (ids []int32, loss []float64) {
	if listener < 0 || listener >= s.n {
		return nil, nil
	}
	lo, hi := s.nearOff[listener], s.nearOff[listener+1]
	return s.nearIDs[lo:hi], s.nearLoss[lo:hi]
}

// NearRanks returns the transpose of listener's near row: entry j is
// listener's index in the row of NearRow(listener)'s j-th node, so a
// source's near row yields its rank in each neighbour's row without a
// search. A read-only view; nil for an out-of-range listener.
func (s *Snapshot) NearRanks(listener int) []int32 {
	if listener < 0 || listener >= s.n {
		return nil
	}
	return s.nearRanks[s.nearOff[listener]:s.nearOff[listener+1]]
}

// Backed reports whether attach ID id is captured in the snapshot at
// exactly the given position — the self-verification PairLoss applies,
// exposed so the medium can classify listeners once instead of per pair.
func (s *Snapshot) Backed(id int, pos phy.Position) bool {
	return id >= 0 && id < s.n && s.pos[id] == pos
}

// FarField reports the certified loss floor of omitted pairs and the worst
// per-listener count of omitted sources.
func (s *Snapshot) FarField() (lossBoundDB float64, maxFarCount int) {
	return s.lossBound, s.maxFar
}

// NearPairs reports the number of materialised pair losses: the CSR
// population, self pairs included. The O(n·k) memory guarantee tests pin
// down is this count.
func (s *Snapshot) NearPairs() int { return len(s.nearIDs) }

// copySpecs deep-copies network specifications (the Senders slices are the
// only shared backing arrays; NodeSpec is a value type).
func copySpecs(nets []NetworkSpec) []NetworkSpec {
	out := make([]NetworkSpec, len(nets))
	copy(out, nets)
	for i := range out {
		out[i].Senders = append([]NodeSpec(nil), nets[i].Senders...)
	}
	return out
}
