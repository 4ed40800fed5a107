package medium

import (
	"fmt"
	"math"
	"sort"

	"nonortho/internal/phy"
)

// This file is the medium half of the spatial tier: far-field aggregation
// over a near-field topology snapshot. The snapshot certifies a loss floor
// for every node pair it deliberately omits; the medium uses that
// certificate two ways:
//
//   - Culling (always on when a snapshot is installed, exact): the
//     reachable-power predicate can rule a far pair out from the floor
//     alone, and falls back to computing the exact model loss when the
//     floor is inconclusive — so lock-on decisions are bit-identical to
//     storing every pair.
//
//   - Folding (opt-in via WithFarField, approximate with an enforced error
//     budget): power sums skip transmissions from far sources entirely and
//     add a precomputed aggregate — the worst-case fade-free contribution
//     of every far source — to the noise floor instead. Sensing then costs
//     O(neighbourhood), not O(active), and link-state memory follows the
//     snapshot's O(n·k) sparsity instead of O(n²).
//
// The budget is exact by default (no budget ⇒ no folding, bit-identical
// sums), and an opt-in bound that New enforces by panicking when the
// worst-case fold error exceeds it.
//
// Why the fold, and its second link-row layout (rank rows, spill map,
// farBacked), is kept: it pays for itself at city scale. On the perfbench
// city-1k workload (1,000 nodes, 0.5 dB budget against the same cell run
// exact), 10 alternating 30 s pairs on a 2-vCPU Xeon VM (go1.24, amd64),
// every run correct with no failed operation:
//
//	                    folded    exact
//	sim_s_per_wall_s      1.43     1.03   (fold faster in 10 of 10 pairs)
//	slice_ms_p50           461      619
//	live_heap_mb          30.5     73.4   (dense O(n²) link rows)
//
// BenchmarkSensedPower5kNodes does not separate the two (median 16.9 ns/op
// folded against 15.7 exact, fold faster in 5 of 10 pairs): its small
// CCA working set is served from the epoch cache either way. The saving
// is in link-row memory and in the cache-missing sums of a full cell.

// WithFarField enables far-field folding with the given error budget in dB:
// the maximum amount the aggregate far-field term may lift any listener's
// sensed noise floor. New panics unless a topology snapshot is installed whose
// certified floor keeps the worst-case fold error —
// 10·log10(1 + maxFarCount·unit/noise), unit the fade-free in-channel power
// of one maximum-power transmitter at exactly the floor loss — within the
// budget. A zero budget (the default) disables folding entirely: sums are
// exact.
//
// Error semantics: the certificate bounds the fade-free contribution of
// each folded transmitter, assuming at most one concurrent transmission
// per source (one antenna). Per-pair shadowing and per-transmission jitter
// are zero-mean Gaussians whose positive excursions are not counted
// against the budget — the same convention as the reachable-power cull's
// phy.ReachMarginDB. The fold is one-sided: it always adds the worst-case
// aggregate, so folded readings are never below what the skipped
// transmitters could explain.
func WithFarField(budgetDB float64) Option {
	return func(md *Medium) { md.farBudgetDB = budgetDB }
}

// FarFieldErrorDB reports the worst-case sensed-power error of the active
// far-field fold in dB, 0 when folding is off.
func (m *Medium) FarFieldErrorDB() float64 {
	if !m.spatial {
		return 0
	}
	return foldErrorDB(m.farMaxCount, m.farUnitMW)
}

func foldErrorDB(maxFarCount int, unitMW float64) float64 {
	return 10 * math.Log10(1+float64(maxFarCount)*unitMW/phy.NoiseFloorMW)
}

// resolveFarField derives the spatial-tier state from the freshly applied
// options; New calls it once so the hot paths never re-inspect
// the snapshot. Budget violations panic — misconfiguration is a
// programming error.
func (m *Medium) resolveFarField() {
	if m.farBudgetDB == 0 {
		return
	}
	if m.farBudgetDB < 0 {
		panic(fmt.Sprintf("medium: negative far-field error budget %g dB", m.farBudgetDB))
	}
	if m.snap == nil {
		panic("medium: WithFarField needs a topology snapshot (WithSnapshot)")
	}
	bound, maxFar := m.snap.FarField()
	unitMW := (phy.MaxTxPower - phy.DBm(bound)).Milliwatts()
	if errDB := foldErrorDB(maxFar, unitMW); errDB > m.farBudgetDB {
		panic(fmt.Sprintf("medium: far-field fold error %.3f dB exceeds the %.3f dB budget (loss bound %.1f dB, %d far sources); raise the snapshot's loss bound or the budget",
			errDB, m.farBudgetDB, bound, maxFar))
	}
	m.spatial = true
	m.farUnitMW = unitMW
	m.farMaxCount = maxFar
	m.farN = m.snap.NumNodes()
	m.spill = make(map[int64]*linkSlot)
}

// farFoldMW returns the aggregate worst-case far-field power at a backed
// listener in milliwatts: one fade-free maximum-power transmission at the
// floor loss per far source.
func (m *Medium) farFoldMW(listenerID int) float64 {
	near, _ := m.snap.NearRow(listenerID)
	return float64(m.farN-len(near)) * m.farUnitMW
}

// trackActive indexes a freshly transmitted tx for the folded paths: on its
// source's active list, and on the unbounded list when the fold's
// certificate cannot cover it (wideband, over-spec power, or a source
// outside the snapshot geometry).
func (m *Medium) trackActive(tx *Transmission) {
	for len(m.bySrc) <= tx.Src {
		m.bySrc = append(m.bySrc, nil)
	}
	m.bySrc[tx.Src] = append(m.bySrc[tx.Src], tx)
	tx.farBounded = tx.Bandwidth == 0 && tx.Power <= phy.MaxTxPower &&
		m.snap.Backed(tx.Src, tx.Pos)
	if !tx.farBounded {
		m.unbounded = append(m.unbounded, tx)
	}
}

// untrackActive undoes trackActive when the transmission leaves the air.
// removeTx keeps each list in ID order.
func (m *Medium) untrackActive(tx *Transmission) {
	if tx.Src < len(m.bySrc) {
		m.bySrc[tx.Src] = removeTx(m.bySrc[tx.Src], tx)
	}
	if !tx.farBounded {
		m.unbounded = removeTx(m.unbounded, tx)
	}
}

// nearActive gathers, in ascending transmission-ID order, every active
// transmission that can contribute above the fold's certificate at a
// backed listener: all transmissions from the listener's near sources,
// plus every unbounded transmission (deduplicated — an unbounded
// transmission from a near source is already gathered). Everything else
// is from a certified-far source at legal power and is covered by
// farFoldMW. The scratch slice is reused across calls.
func (m *Medium) nearActive(listenerID int) []*Transmission {
	s := m.nearScratch[:0]
	near, _ := m.snap.NearRow(listenerID)
	for _, src := range near {
		if int(src) < len(m.bySrc) {
			s = append(s, m.bySrc[src]...)
		}
	}
	for _, tx := range m.unbounded {
		if tx.Src >= m.farN || !containsID(near, int32(tx.Src)) {
			s = append(s, tx)
		}
	}
	// Restore ID order — floating-point sums must run in the same order
	// every time. Insertion sort: per-source lists are already ascending,
	// so the merge is nearly sorted.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	m.nearScratch = s
	return s
}

// containsID reports whether the ascending ID slice holds id.
func containsID(ids []int32, id int32) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}

// folded reports whether the listener's power sums run on the folded path:
// the spatial tier is active and the listener's position is backed by the
// snapshot, so its far field is certified. Unbacked listeners (late
// attachers) keep the exact full loop.
func (m *Medium) folded(listenerID int) bool {
	return m.spatial && listenerID < len(m.farBacked) && m.farBacked[listenerID]
}

// spatialSlot is the folded-mode replacement for dense link-row indexing:
// a backed listener's slots live in its row at the source's rank within
// the listener's near row — O(k) memory per listener instead of O(n) —
// and the rare pair outside that set (unbacked listener, far source being
// probed directly) spills to a keyed map.
func (m *Medium) spatialSlot(listenerID, src int) *linkSlot {
	if listenerID < len(m.farBacked) && m.farBacked[listenerID] {
		near, _ := m.snap.NearRow(listenerID)
		if r := rankOf(near, int32(src)); r >= 0 {
			return &m.spatialRow(listenerID, len(near))[r]
		}
	}
	key := int64(listenerID)<<32 | int64(uint32(src))
	s := m.spill[key]
	if s == nil {
		s = &linkSlot{}
		m.spill[key] = s
	}
	return s
}

// rankOf returns id's index in the ascending slice, or -1.
func rankOf(ids []int32, id int32) int {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return i
	}
	return -1
}

// spatialRow returns the listener's rank-indexed link row grown to its
// near-row length.
func (m *Medium) spatialRow(listenerID, k int) []linkSlot {
	row := m.rows[listenerID]
	if k <= len(row) {
		return row
	}
	grown := make([]linkSlot, k)
	copy(grown, row)
	m.rows[listenerID] = grown
	return grown
}
