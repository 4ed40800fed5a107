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
//	sim_s_per_wall_s      8.68     1.85   (fold faster in 5 of 5 pairs)
//	slice_ms_p50          70.8      339
//	live_heap_mb          32.0     73.4   (dense O(n²) link rows)
//
// A folded read costs O(entries changed since the listener's last read).
// Each backed listener keeps the transmissions its sums visit on its own
// ID-ordered list, maintained when a transmission goes on or off the air,
// and caches its sums on that list rather than on the medium-wide epoch:
// a read after changes beyond the listener's near field is a hit, a read
// after appends only adds the new tail, and only a read after a removal
// walks the list. On city-1k cells (seeds 1–78, medians per cell) the
// 237k folded reads split 41% hits, 31% extensions and 28% walks, and
// visit 1.62M list entries where walking on every read visited 5.23M.
// In 10 alternating 30 s pairs on the VM above, sim_s_per_wall_s read
// 8.28 against 6.26 with a walk on every read, faster in 10 of 10.
// BenchmarkInterferenceFoldedBusy times a walk with 400 transmissions on
// the air, and BenchmarkInterferenceFoldedChurn times reads as a busy
// cell makes them.

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
	m.farFloorDB = bound
	m.spill = make(map[int64]*linkSlot)
	m.reach = make([]reachMark, m.farN)
}

// nearList is a backed listener's near-active list and the folded sums
// cached on it. Entries are only appended at the tail (IDs only grow) or
// deleted, and every deletion bumps removed, so while removed is unchanged
// the list has only grown: a sum cached over its first n entries is still
// the sum of those entries, and the entries after n are exactly the
// appends since.
type nearList struct {
	entries []nearEntry
	removed uint64
	// far is the aggregate worst-case far-field power at the listener in
	// milliwatts: one fade-free maximum-power transmission at the floor
	// loss per far source. Every folded sum starts from it.
	far                  float64
	sensed, coch, interf foldSum
}

// nearEntry is one transmission on a backed listener's near-active list,
// with the listener's rank of its source: the index of tx.Src in the
// listener's near row, which is also the source's slot in the listener's
// rank-indexed link row, or -1 when the source is not near.
type nearEntry struct {
	tx   *Transmission
	rank int32
}

// foldSum is one folded sum memoized on a near-active list: the raw
// milliwatt total (far-field term and, for the sensing sums, the noise
// floor included) over the list's first n entries, for one receiver
// tuning and — InterferenceMW only — one left-out wanted transmission,
// valid while the list's removal count is removed. dbm caches the sensing
// sums' conversion of mw.
type foldSum struct {
	freq    phy.MHz
	wanted  uint64
	removed uint64
	n       int
	mw      float64
	dbm     phy.DBm
	valid   bool
}

// foldStats counts how folded reads were served: from the cache unchanged
// (hits), by summing only the entries appended since the cached read
// (extends), or by a walk of the whole list (walks), and the list entries
// the extensions and walks visited.
type foldStats struct {
	hits, extends, walks, visited uint64
}

// resume returns where a folded read keyed (freq, wanted) continues on nl:
// ok=false on a hit, when c already holds the answer; otherwise the index
// of the first entry to add and the total to add it to. A read extends
// the cached total only when nothing was removed since and the list grew,
// so it performs exactly the additions, in the same order, that a walk of
// the whole list from base would: the result is bit-identical, and so is
// the order of the lazy fading draws, since the cached entries' draws were
// made by the read that cached them.
func (m *Medium) resume(nl *nearList, c *foldSum, freq phy.MHz, wanted uint64, base float64) (start int, total float64, ok bool) {
	if c.valid && c.removed == nl.removed && c.freq == freq && c.wanted == wanted {
		switch n := len(nl.entries); {
		case c.n == n:
			m.folds.hits++
			return 0, 0, false
		case c.n < n:
			m.folds.extends++
			m.folds.visited += uint64(n - c.n)
			return c.n, c.mw, true
		}
	}
	m.folds.walks++
	m.folds.visited += uint64(len(nl.entries))
	return 0, base, true
}

// store records a folded read's total over the whole of nl in c.
func (c *foldSum) store(nl *nearList, freq phy.MHz, wanted uint64, mw float64) {
	*c = foldSum{freq: freq, wanted: wanted, removed: nl.removed, n: len(nl.entries), mw: mw, valid: true}
}

// reachMark is the pair loss markReach leaves for one listener in the
// source's near row of a bounded transmission; tx is that transmission's
// ID plus one, so the zero mark belongs to none.
type reachMark struct {
	tx   uint64
	loss float64
}

// markReach classifies a freshly transmitted tx for the fold and, when the
// fold's certificate covers it, marks every listener in its source's near
// row with the pair's loss just before the OnAir fan-out. Rows are
// symmetric with identical losses, so during the fan-out Reachable answers
// a backed listener from its mark (near, that loss) or, unmarked, from the
// certified floor (far) — what Snapshot.PairLossOrFloor would return —
// without a near-row search. The marks belong to tx until the next
// bounded transmission is marked.
func (m *Medium) markReach(tx *Transmission) {
	tx.farBounded = tx.Bandwidth == 0 && tx.Power <= phy.MaxTxPower &&
		m.snap.Backed(tx.Src, tx.Pos)
	if !tx.farBounded {
		return
	}
	m.reachTx = tx.ID + 1
	near, loss := m.snap.NearRow(tx.Src)
	for i, l := range near {
		m.reach[l] = reachMark{tx: m.reachTx, loss: loss[i]}
	}
}

// markedLoss is Snapshot.PairLossOrFloor for a backed listener and the
// marked transmission.
func (m *Medium) markedLoss(listenerID int) (loss float64, near, ok bool) {
	if mk := m.reach[listenerID]; mk.tx == m.reachTx {
		return mk.loss, true, true
	}
	return m.farFloorDB, false, true
}

// trackActive lists a freshly transmitted tx on the near-active list of
// every backed listener whose folded sums must visit it. A transmission the
// fold's certificate covers (narrowband, legal power, source backed by the
// snapshot) goes to the listeners in its source's near row — rows are
// symmetric, so those are exactly the listeners whose near row holds the
// source. Any other transmission cannot be folded and goes to every backed
// listener. IDs only grow, so appending keeps every list in ID order. It
// runs after the OnAir fan-out, like the append to the active set;
// markReach classified tx before it.
func (m *Medium) trackActive(tx *Transmission) {
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
	nl := &m.near[listenerID]
	nl.entries = append(nl.entries, nearEntry{tx: tx, rank: int32(r)})
}

// untrackActive takes tx off the lists trackActive put it on when it leaves
// the air, bumping each list's removal count. A listener attached after
// the transmission started was seeded by Attach, and a detached one's list
// was dropped, so visiting the currently backed listeners finds every
// copy.
func (m *Medium) untrackActive(tx *Transmission) {
	if tx.farBounded {
		near, _ := m.snap.NearRow(tx.Src)
		for _, l := range near {
			if int(l) < len(m.farBacked) && m.farBacked[l] {
				m.unlistNear(int(l), tx)
			}
		}
		return
	}
	for l, backed := range m.farBacked {
		if backed {
			m.unlistNear(l, tx)
		}
	}
}

// unlistNear deletes tx from the backed listener's near-active list.
func (m *Medium) unlistNear(listenerID int, tx *Transmission) {
	nl := &m.near[listenerID]
	nl.entries = removeEntry(nl.entries, tx)
	nl.removed++
}

// seedNear starts the near-active list of a backed listener at Attach:
// its far-field term and, when transmissions are on the air, the filter
// trackActive would have applied, over the ID-ordered active set.
func (m *Medium) seedNear(listenerID int) {
	near, _ := m.snap.NearRow(listenerID)
	m.near[listenerID].far = float64(m.farN-len(near)) * m.farUnitMW
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
// and add the certified aggregate of everything beyond it (nearList.far).
// Each sum is cached on the list (resume), so a read after on-air changes
// beyond the listener's near field is a hit and a read after appends only
// adds the new tail. Each entry's link slot is taken by its stored rank;
// only a source outside the near row (an unbounded transmission from
// afar) goes through spatialSlot to the spill map.

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

// nearRx is RxPower for a near-active entry from the slot it holds,
// filling the link budget on the pair's first use exactly as link does.
func (m *Medium) nearRx(s *linkSlot, tx *Transmission, listenerID int) phy.DBm {
	if !s.known {
		m.fillBudget(s, tx.Src, listenerID, tx.Pos, m.listeners[listenerID].Position())
	}
	return m.rxFrom(s, tx, listenerID)
}

// sensedPowerFolded is SensedPower for a backed listener. The far-field
// fold is frequency-blind (its certificate bounds total in-channel power),
// so this and the co-channel reading carry the same one-sided error bound.
func (m *Medium) sensedPowerFolded(listenerID int, freq phy.MHz) phy.DBm {
	nl := &m.near[listenerID]
	c := &nl.sensed
	start, total, ok := m.resume(nl, c, freq, 0, phy.NoiseFloorMW+nl.far)
	if ok {
		c.store(nl, freq, 0, m.sensedWalk(nl.entries[start:], listenerID, freq, total))
		c.dbm = phy.FromMilliwatts(c.mw)
	}
	return c.dbm
}

// sensedWalk adds the in-channel power of each entry not from the listener
// itself to total. The slot fills below mirror inChannelMW, open-coded for
// the reason given above link in medium.go: a helper around nearSlot does
// not inline, and the call costs ~10% on BenchmarkInterferenceFoldedBusy.
func (m *Medium) sensedWalk(entries []nearEntry, listenerID int, freq phy.MHz, total float64) float64 {
	for _, e := range entries {
		if e.tx.Src == listenerID {
			continue
		}
		s := m.nearSlot(listenerID, e)
		if !s.hasIn || s.inFreq != freq {
			s.inMW = m.inChannel(e.tx, m.nearRx(s, e.tx, listenerID), freq).Milliwatts()
			s.inFreq = freq
			s.hasIn = true
		}
		total += s.inMW
	}
	return total
}

// sensedCoChannelFolded is SensedCoChannelPower for a backed listener.
func (m *Medium) sensedCoChannelFolded(listenerID int, freq phy.MHz) phy.DBm {
	nl := &m.near[listenerID]
	c := &nl.coch
	start, total, ok := m.resume(nl, c, freq, 0, phy.NoiseFloorMW+nl.far)
	if ok {
		c.store(nl, freq, 0, m.coChannelWalk(nl.entries[start:], listenerID, freq, total))
		c.dbm = phy.FromMilliwatts(c.mw)
	}
	return c.dbm
}

// coChannelWalk adds the received power of each entry on freq not from the
// listener itself to total.
func (m *Medium) coChannelWalk(entries []nearEntry, listenerID int, freq phy.MHz, total float64) float64 {
	for _, e := range entries {
		if e.tx.Src == listenerID || e.tx.Freq != freq {
			continue
		}
		s := m.nearSlot(listenerID, e)
		if !s.hasRx {
			s.rxMW = m.nearRx(s, e.tx, listenerID).Milliwatts()
			s.hasRx = true
		}
		total += s.rxMW
	}
	return total
}

// interferenceFolded is InterferenceMW for a backed listener. It includes
// the far-field term: a receiver's SINR denominator must account for the
// folded far field.
func (m *Medium) interferenceFolded(wanted *Transmission, listenerID int, freq phy.MHz) float64 {
	nl := &m.near[listenerID]
	c := &nl.interf
	start, total, ok := m.resume(nl, c, freq, wanted.ID, nl.far)
	if ok {
		c.store(nl, freq, wanted.ID, m.interferenceWalk(nl.entries[start:], wanted, listenerID, freq, total))
	}
	return c.mw
}

// interferenceWalk adds the in-channel power of each entry other than
// wanted and not from the listener itself to total.
func (m *Medium) interferenceWalk(entries []nearEntry, wanted *Transmission, listenerID int, freq phy.MHz, total float64) float64 {
	for _, e := range entries {
		if e.tx.ID == wanted.ID || e.tx.Src == listenerID {
			continue
		}
		s := m.nearSlot(listenerID, e)
		if !s.hasIn || s.inFreq != freq {
			s.inMW = m.inChannel(e.tx, m.nearRx(s, e.tx, listenerID), freq).Milliwatts()
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
