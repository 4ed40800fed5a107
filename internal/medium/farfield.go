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
// farBacked, near-active lists), is kept: it pays for itself at city scale.
// On the perfbench city-1k workload (1,000 nodes, 0.5 dB budget against
// the same cell run exact), 5 alternating 30 s pairs on a 2-vCPU Xeon VM
// (go1.24, amd64), every run correct with no failed operation:
//
//	                    folded    exact
//	sim_s_per_wall_s      6.10     1.71   (fold faster in 5 of 5 pairs)
//	slice_ms_p50           104      367
//	live_heap_mb          31.7     73.4   (dense O(n²) link rows)
//
// A folded read costs O(near ∩ active): each backed listener keeps the
// transmissions its sums visit on its own ID-ordered list, maintained
// when a transmission goes on or off the air, so a read does no gather,
// sort or search. BenchmarkInterferenceFoldedBusy times one such read
// with 400 transmissions on the air.

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

// nearEntry is one transmission on a backed listener's near-active list,
// with the listener's rank of its source: the index of tx.Src in the
// listener's near row, which is also the source's slot in the listener's
// rank-indexed link row, or -1 when the source is not near.
type nearEntry struct {
	tx   *Transmission
	rank int32
}

// trackActive lists a freshly transmitted tx on the near-active list of
// every backed listener whose folded sums must visit it. A transmission the
// fold's certificate covers (narrowband, legal power, source backed by the
// snapshot) goes to the listeners in its source's near row — rows are
// symmetric, so those are exactly the listeners whose near row holds the
// source. Any other transmission cannot be folded and goes to every backed
// listener. IDs only grow, so appending keeps every list in ID order. It
// runs after the OnAir fan-out, like the append to the active set.
func (m *Medium) trackActive(tx *Transmission) {
	tx.farBounded = tx.Bandwidth == 0 && tx.Power <= phy.MaxTxPower &&
		m.snap.Backed(tx.Src, tx.Pos)
	if tx.farBounded {
		near, _ := m.snap.NearRow(tx.Src)
		for _, l := range near {
			if int(l) < len(m.farBacked) && m.farBacked[l] {
				m.listNear(int(l), tx)
			}
		}
		return
	}
	for l, backed := range m.farBacked {
		if backed {
			m.listNear(l, tx)
		}
	}
}

// listNear appends tx to the backed listener's near-active list, ranking
// its source once here so the folded sums index the listener's link row
// directly. The row is grown to the near-row length before any entry can
// index it.
func (m *Medium) listNear(listenerID int, tx *Transmission) {
	near, _ := m.snap.NearRow(listenerID)
	r := rankOf(near, int32(tx.Src))
	if r >= 0 {
		m.spatialRow(listenerID, len(near))
	}
	m.nearAct[listenerID] = append(m.nearAct[listenerID], nearEntry{tx: tx, rank: int32(r)})
}

// untrackActive takes tx off the lists trackActive put it on when it leaves
// the air. A listener attached after the transmission started was seeded
// by Attach, and a detached one's list was dropped, so visiting the
// currently backed listeners finds every copy.
func (m *Medium) untrackActive(tx *Transmission) {
	if tx.farBounded {
		near, _ := m.snap.NearRow(tx.Src)
		for _, l := range near {
			if int(l) < len(m.farBacked) && m.farBacked[l] {
				m.nearAct[l] = removeEntry(m.nearAct[l], tx)
			}
		}
		return
	}
	for l, backed := range m.farBacked {
		if backed {
			m.nearAct[l] = removeEntry(m.nearAct[l], tx)
		}
	}
}

// seedNear fills the near-active list of a backed listener that attaches
// while transmissions are on the air: the filter trackActive would have
// applied, over the ID-ordered active set.
func (m *Medium) seedNear(listenerID int) {
	near, _ := m.snap.NearRow(listenerID)
	for _, tx := range m.active {
		if !tx.farBounded || rankOf(near, int32(tx.Src)) >= 0 {
			m.listNear(listenerID, tx)
		}
	}
}

// removeEntry is removeTx for near-active lists: an in-place delete that
// keeps the list in ID order.
func removeEntry(s []nearEntry, tx *Transmission) []nearEntry {
	for i, e := range s {
		if e.tx == tx {
			last := len(s) - 1
			copy(s[i:], s[i+1:])
			s[last] = nearEntry{}
			return s[:last]
		}
	}
	return s
}

// The folded sums. A backed listener's sums visit its near-active list —
// in ascending ID order, the order the exact sums visit the active set in —
// and add the certified aggregate of everything beyond it (farFoldMW). Each
// entry's link slot is taken by its stored rank; only a source outside the
// near row (an unbounded transmission from afar) goes through spatialSlot
// to the spill map.

// nearSlot returns the listener's link slot for a near-active entry, rekeyed
// to the entry's transmission exactly as powerSlot rekeys.
func (m *Medium) nearSlot(listenerID int, e nearEntry) *linkSlot {
	var s *linkSlot
	if e.rank >= 0 {
		s = &m.rows[listenerID][e.rank]
	} else {
		s = m.spatialSlot(listenerID, e.tx.Src)
	}
	if s.txID != e.tx.ID {
		s.txID = e.tx.ID
		s.hasRx = false
		s.hasIn = false
	}
	return s
}

// sensedPowerFolded is sensedPowerDirect for a backed listener. The slot
// fills below mirror inChannelMW and rxMW, open-coded for the reason given
// above link in medium.go: a helper around nearSlot does not inline, and
// the call costs ~10% on BenchmarkInterferenceFoldedBusy.
func (m *Medium) sensedPowerFolded(listenerID int, freq phy.MHz) phy.DBm {
	total := phy.NoiseFloorMW + m.farFoldMW(listenerID)
	for _, e := range m.nearAct[listenerID] {
		if e.tx.Src == listenerID {
			continue
		}
		s := m.nearSlot(listenerID, e)
		if !s.hasIn || s.inFreq != freq {
			s.inMW = m.InChannelPower(e.tx, listenerID, freq).Milliwatts()
			s.inFreq = freq
			s.hasIn = true
		}
		total += s.inMW
	}
	return phy.FromMilliwatts(total)
}

// sensedCoChannelFolded is sensedCoChannelDirect for a backed listener.
func (m *Medium) sensedCoChannelFolded(listenerID int, freq phy.MHz) phy.DBm {
	total := phy.NoiseFloorMW + m.farFoldMW(listenerID)
	for _, e := range m.nearAct[listenerID] {
		if e.tx.Src == listenerID || e.tx.Freq != freq {
			continue
		}
		s := m.nearSlot(listenerID, e)
		if !s.hasRx {
			s.rxMW = m.RxPower(e.tx, listenerID).Milliwatts()
			s.hasRx = true
		}
		total += s.rxMW
	}
	return phy.FromMilliwatts(total)
}

// interferenceFolded is interferenceDirect for a backed listener.
func (m *Medium) interferenceFolded(wanted *Transmission, listenerID int, freq phy.MHz) float64 {
	total := m.farFoldMW(listenerID)
	for _, e := range m.nearAct[listenerID] {
		if e.tx.ID == wanted.ID || e.tx.Src == listenerID {
			continue
		}
		s := m.nearSlot(listenerID, e)
		if !s.hasIn || s.inFreq != freq {
			s.inMW = m.InChannelPower(e.tx, listenerID, freq).Milliwatts()
			s.inFreq = freq
			s.hasIn = true
		}
		total += s.inMW
	}
	return total
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
