package medium

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
//	sim_s_per_wall_s     18.25     3.29   (fold faster in 5 of 5 pairs)
//	slice_ms_p50          33.6      187
//	live_heap_mb          32.8     74.2   (dense O(n²) link rows)
//
// Each backed listener keeps the transmissions its sums visit on its own
// ID-ordered list, maintained when a transmission goes on or off the air.
// A removal is almost always of the list's oldest entry, so it only
// advances the list's head. The list caches one total per question the
// radio asks of the channel, keyed by the list's own changes, so a read
// after changes beyond the listener's near field is a hit and a read
// after appends only adds the new tail:
//
//   - sensed, the CCA reading (SensedPower). A read after a removal walks
//     the list.
//   - interf, the receiver's interference total. A receiving radio reads
//     it bound-first: its segment certificate only compares the sum with
//     a threshold, and rounded addition of non-negative terms is
//     monotone, so a cached total from which terms were since removed
//     still bounds the sum from above. The bound read adds only the
//     entries appended since, each through mwUpper (a table read) instead
//     of a power of ten. The exact sum is read only when the bound cannot
//     certify the segment; it walks the list and leaves its exact total
//     for the bound reads that follow.
//
// The co-channel reading, which only the oracle CCA policy makes, walks
// the list on every call. The certificates, the fading draws and every
// output stay bit-identical. Over city-1k seeds 1–10 (1 s warmup, 1 s
// measured) 2.34M bound reads visit 3.39M list entries and 105k exact
// reads visit 3.06M; in 10 alternating 30 s pairs on the VM above,
// bound-first reads lifted city-1k's sim_s_per_wall_s from 24.8, when
// every read was exact, to 30.8 (EXPERIMENTS.md, "City tier,
// bound-certified segments" and "One folded cache per question").
//
// BenchmarkInterferenceFoldedBusy times an exact read's walk with 400
// transmissions on the air, and BenchmarkInterferenceBoundChurn the reads
// a receiving radio makes on a busy cell.

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

// nearList is a backed listener's near-active list and the two folded
// totals cached on it: sensed, the CCA reading, and interf, the
// interference total bound-first reads resume from and every exact read
// overwrites. The list is entries[head:]. Entries are only appended at
// the tail (IDs only grow) or deleted, and every deletion bumps removed. A
// deletion at the head, the usual one, only advances head; push slides
// the live entries down once the dead prefix fills a quarter of the
// backing array.
type nearList struct {
	entries []nearEntry
	head    int
	// upto is one past the ID of the list's last entry, 0 when empty.
	upto    uint64
	removed uint64
	// far is the aggregate worst-case far-field power at the listener in
	// milliwatts: one fade-free maximum-power transmission at the floor
	// loss per far source. Every folded sum starts from it.
	far            float64
	sensed, interf foldSum
}

// nearEntry is one transmission on a backed listener's near-active list,
// with the listener's rank of its source: the index of tx.Src in the
// listener's near row, which is also the source's slot in the listener's
// rank-indexed link row, or -1 when the source is not near.
type nearEntry struct {
	tx   *Transmission
	rank int32
}

// live returns the list's entries in ID order.
func (nl *nearList) live() []nearEntry { return nl.entries[nl.head:] }

// push appends e at the tail.
func (nl *nearList) push(e nearEntry) {
	if n := len(nl.entries); n == cap(nl.entries) && 4*nl.head >= n && nl.head > 0 {
		k := copy(nl.entries, nl.entries[nl.head:])
		clear(nl.entries[k:])
		nl.entries = nl.entries[:k]
		nl.head = 0
	}
	nl.entries = append(nl.entries, e)
	nl.upto = e.tx.ID + 1
}

// remove deletes tx from the list, keeping it in ID order, and bumps
// removed.
func (nl *nearList) remove(tx *Transmission) {
	live := nl.live()
	for i, e := range live {
		if e.tx != tx {
			continue
		}
		if i == 0 {
			nl.entries[nl.head] = nearEntry{}
			nl.head++
			if nl.head == len(nl.entries) {
				nl.entries, nl.head = nl.entries[:0], 0
			}
		} else {
			last := len(live) - 1
			copy(live[i:], live[i+1:])
			live[last] = nearEntry{}
			nl.entries = nl.entries[:nl.head+last]
		}
		if i == len(live)-1 {
			nl.upto = 0
			if live := nl.live(); len(live) > 0 {
				nl.upto = live[len(live)-1].tx.ID + 1
			}
		}
		nl.removed++
		return
	}
}

// foldSum is one folded total memoized on a near-active list: the raw
// milliwatt total (far-field term and, for sensed, the noise floor
// included) over the list's entries with IDs below upto, for one receiver
// tuning and — interf only — one left-out wanted transmission. sensed is
// exact while the list's removal count is still removed, and dbm caches
// its conversion of mw. interf is a certified upper bound of the exact
// sum over the entries below upto still on the list: rounded addition is
// monotone in each operand and every term is non-negative, so a
// left-to-right sum that skips removed terms, or adds an upper bound in
// place of a term, never exceeds the one that added the terms exactly.
type foldSum struct {
	freq    phy.MHz
	wanted  uint64
	removed uint64
	upto    uint64
	mw      float64
	dbm     phy.DBm
	valid   bool
}

// foldStats counts how folded reads were served: from the cached total
// unchanged (hits), by summing only the entries appended since the cached
// read (extends), or by a walk of the whole list (walks), and the list
// entries the extensions and walks visited. boundReads counts the reads
// that asked only for an upper bound.
type foldStats struct {
	hits, extends, walks, visited uint64
	boundReads                    uint64
}

// since returns the index in live, the list's entries, of the first entry
// with an ID of at least upto: the entries appended since a sum that
// covered the IDs below upto. Appends only add higher IDs, so the scan
// from the tail stops after them, and a list with nothing newer answers
// without one.
func (nl *nearList) since(live []nearEntry, upto uint64) int {
	i := len(live)
	if nl.upto <= upto {
		return i
	}
	for i > 0 && live[i-1].tx.ID >= upto {
		i--
	}
	return i
}

// resume returns where an exact folded read tuned to freq continues on nl
// from the total c cached: ok=false on a hit, when c already holds the
// answer; otherwise the index of the first entry to add and the total to
// add it to. A read extends the cached total only when nothing was
// removed since, so it performs exactly the additions, in the same order,
// that a walk of the whole list from base would: the result is
// bit-identical, and so is the order of the lazy fading draws, since the
// cached entries' draws were made by the read that cached them.
func (m *Medium) resume(nl *nearList, c *foldSum, freq phy.MHz, base float64) (start int, total float64, ok bool) {
	live := nl.live()
	if c.valid && c.removed == nl.removed && c.freq == freq {
		if start = nl.since(live, c.upto); start == len(live) {
			m.folds.hits++
			return 0, 0, false
		}
		m.folds.extends++
		m.folds.visited += uint64(len(live) - start)
		return start, c.mw, true
	}
	m.walked(live)
	return 0, base, true
}

// walked counts a read that walks the whole of live.
func (m *Medium) walked(live []nearEntry) {
	m.folds.walks++
	m.folds.visited += uint64(len(live))
}

// store records a folded read's total over the whole of nl in c.
func (c *foldSum) store(nl *nearList, freq phy.MHz, wanted uint64, mw float64) {
	*c = foldSum{freq: freq, wanted: wanted, removed: nl.removed, upto: nl.upto, mw: mw, valid: true}
}

// reachMark is the pair loss markReach leaves for one listener in the
// source's near row of a bounded transmission, with the source's rank in
// the listener's near row; tx is that transmission's ID plus one, so the
// zero mark belongs to none.
type reachMark struct {
	tx   uint64
	loss float64
	rank int32
}

// markReach classifies a freshly transmitted tx for the fold and, when the
// fold's certificate covers it, marks every listener in its source's near
// row with the pair's loss and the source's rank in the listener's row
// just before the OnAir fan-out. Rows are symmetric with identical losses,
// so during the fan-out Reachable answers a backed listener from its mark
// (near, that loss) or, unmarked, from the certified floor (far) — what
// Snapshot.PairLossOrFloor would return — and a lock-on's RxPower finds
// the pair's link slot at the marked rank, both without a near-row
// search. The marks belong to tx until the next bounded transmission is
// marked.
func (m *Medium) markReach(tx *Transmission) {
	tx.farBounded = tx.Bandwidth == 0 && tx.Power <= phy.MaxTxPower &&
		m.snap.Backed(tx.Src, tx.Pos)
	if !tx.farBounded {
		return
	}
	m.reachTx = tx.ID + 1
	near, loss := m.snap.NearRow(tx.Src)
	ranks := m.snap.NearRanks(tx.Src)
	for i, l := range near {
		m.reach[l] = reachMark{tx: m.reachTx, loss: loss[i], rank: ranks[i]}
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
// source, and the snapshot's transpose gives the source's rank in each of
// their rows. Any other transmission cannot be folded and goes to every
// backed listener, ranked by a search. IDs only grow, so appending keeps
// every list in ID order. It runs after the OnAir fan-out, like the append
// to the active set; markReach classified tx before it.
func (m *Medium) trackActive(tx *Transmission) {
	if tx.farBounded {
		near, _ := m.snap.NearRow(tx.Src)
		ranks := m.snap.NearRanks(tx.Src)
		for i, l := range near {
			if int(l) < len(m.farBacked) && m.farBacked[l] {
				m.listNear(int(l), tx, ranks[i])
			}
		}
		return
	}
	for l, backed := range m.farBacked {
		if backed {
			near, _ := m.snap.NearRow(l)
			m.listNear(l, tx, int32(rankOf(near, int32(tx.Src))))
		}
	}
}

// listNear appends tx to the backed listener's near-active list with its
// source's rank in the listener's near row (-1 when not near), so the
// folded sums index the listener's link row directly. The row is grown to
// the near-row length before any entry can index it.
func (m *Medium) listNear(listenerID int, tx *Transmission, rank int32) {
	if rank >= 0 {
		near, _ := m.snap.NearRow(listenerID)
		m.spatialRow(listenerID, len(near))
	}
	m.near[listenerID].push(nearEntry{tx: tx, rank: rank})
}

// untrackActive takes tx off the lists trackActive put it on when it leaves
// the air, bumping each list's removal count. It is the oldest entry on
// almost every list, so the deletion is a head advance. A listener
// attached after the transmission started was seeded by Attach, and a
// detached one's list was dropped, so visiting the currently backed
// listeners finds every copy.
func (m *Medium) untrackActive(tx *Transmission) {
	if tx.farBounded {
		near, _ := m.snap.NearRow(tx.Src)
		for _, l := range near {
			if int(l) < len(m.farBacked) && m.farBacked[l] {
				m.near[l].remove(tx)
			}
		}
		return
	}
	for l, backed := range m.farBacked {
		if backed {
			m.near[l].remove(tx)
		}
	}
}

// seedNear starts the near-active list of a backed listener at Attach:
// its far-field term and, when transmissions are on the air, the filter
// trackActive would have applied, over the ID-ordered active set.
func (m *Medium) seedNear(listenerID int) {
	near, _ := m.snap.NearRow(listenerID)
	m.near[listenerID].far = float64(m.farN-len(near)) * m.farUnitMW
	for _, tx := range m.active {
		if r := rankOf(near, int32(tx.Src)); !tx.farBounded || r >= 0 {
			m.listNear(listenerID, tx, int32(r))
		}
	}
}

// The folded sums. A backed listener's sums visit its near-active list —
// in ascending ID order, the order the exact sums visit the active set in —
// and add the certified aggregate of everything beyond it (nearList.far).
// Each entry's link slot is taken by its stored rank; only a source
// outside the near row (an unbounded transmission from afar) goes through
// spatialSlot to the spill map.
//
// The sensing sum is cached on the list (resume), so a read after on-air
// changes beyond the listener's near field is a hit and a read after
// appends only adds the new tail. The interference sum has a bound-first
// read (interferenceBoundFolded), for a caller that only compares the sum
// with a threshold: it adds to the cached total only the entries appended
// since, and fills a slot it visits first with the entry's in-channel
// level in dBm, whose conversion (inLazy) it replaces by mwUpper. The
// exact reads, interference and co-channel, walk the list; they convert a
// lazy slot when they visit it.

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
// filling the link budget on the pair's first use as link does. A bounded
// transmission's source and the listener both sit at their snapshot
// positions, so the loss Snapshot.PairLoss would find is the one at the
// entry's rank in the listener's near row.
func (m *Medium) nearRx(s *linkSlot, e nearEntry, listenerID int) phy.DBm {
	if !s.known {
		if e.rank >= 0 && e.tx.farBounded {
			_, loss := m.snap.NearRow(listenerID)
			m.fillBudget(s, loss[e.rank])
		} else {
			m.fillBudget(s, m.lookupLoss(e.tx.Src, listenerID, e.tx.Pos, m.listeners[listenerID].Position()))
		}
	}
	return m.rxFrom(s, e.tx, listenerID)
}

// sensedPowerFolded is SensedPower for a backed listener. The far-field
// fold is frequency-blind (its certificate bounds total in-channel power),
// so this and the co-channel reading carry the same one-sided error bound.
func (m *Medium) sensedPowerFolded(listenerID int, freq phy.MHz) phy.DBm {
	nl := &m.near[listenerID]
	c := &nl.sensed
	start, total, ok := m.resume(nl, c, freq, phy.NoiseFloorMW+nl.far)
	if ok {
		c.store(nl, freq, 0, m.sensedWalk(nl.live()[start:], listenerID, freq, total))
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
			s.inMW = m.inChannel(e.tx, m.nearRx(s, e, listenerID), freq).Milliwatts()
			s.inFreq = freq
			s.hasIn = true
			s.inLazy = false
		} else if s.inLazy {
			s.inMW = phy.DBm(s.inMW).Milliwatts()
			s.inLazy = false
		}
		total += s.inMW
	}
	return total
}

// sensedCoChannelFolded is SensedCoChannelPower for a backed listener: a
// walk of its near-active list.
func (m *Medium) sensedCoChannelFolded(listenerID int, freq phy.MHz) phy.DBm {
	nl := &m.near[listenerID]
	live := nl.live()
	m.walked(live)
	return phy.FromMilliwatts(m.coChannelWalk(live, listenerID, freq, phy.NoiseFloorMW+nl.far))
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
			s.rxMW = m.nearRx(s, e, listenerID).Milliwatts()
			s.hasRx = true
		}
		total += s.rxMW
	}
	return total
}

// interferenceFolded is InterferenceMW for a backed listener: a walk of
// its near-active list from the far-field term, since a receiver's SINR
// denominator must account for the folded far field. The exact total
// replaces the cached interf, so the bound reads that follow resume from
// it.
func (m *Medium) interferenceFolded(wanted *Transmission, listenerID int, freq phy.MHz) float64 {
	nl := &m.near[listenerID]
	live := nl.live()
	m.walked(live)
	nl.interf.store(nl, freq, wanted.ID, m.interferenceWalk(live, wanted, listenerID, freq, nl.far))
	return nl.interf.mw
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
			s.inMW = m.inChannel(e.tx, m.nearRx(s, e, listenerID), freq).Milliwatts()
			s.inFreq = freq
			s.hasIn = true
			s.inLazy = false
		} else if s.inLazy {
			s.inMW = phy.DBm(s.inMW).Milliwatts()
			s.inLazy = false
		}
		total += s.inMW
	}
	return total
}

// interferenceBoundFolded returns an upper bound of interferenceFolded's
// value for the same arguments, and caches it under their key in interf.
// When the cached total bounds the sum (coversWanted) it adds only the
// entries appended since, so a removal costs nothing; otherwise it walks
// the list from the far-field term. Either way it visits every entry an
// exact read would visit first, filling its slot in the same order, so
// the lazy fading and shadowing draws match the exact read's.
func (m *Medium) interferenceBoundFolded(wanted *Transmission, listenerID int, freq phy.MHz) float64 {
	nl := &m.near[listenerID]
	c := &nl.interf
	live := nl.live()
	m.folds.boundReads++
	if !c.valid || c.freq != freq || !c.coversWanted(live, wanted.ID) {
		m.walked(live)
		c.store(nl, freq, wanted.ID, m.interferenceBoundWalk(live, wanted, listenerID, freq, nl.far))
		return c.mw
	}
	start := nl.since(live, c.upto)
	if start == len(live) {
		m.folds.hits++
		c.wanted = wanted.ID
		return c.mw
	}
	m.folds.extends++
	m.folds.visited += uint64(len(live) - start)
	c.store(nl, freq, wanted.ID, m.interferenceBoundWalk(live[start:], wanted, listenerID, freq, c.mw))
	return c.mw
}

// coversWanted reports whether c's interference total, with the entries
// appended since added, bounds the sum that leaves out wanted: it was
// cached for wanted, or wanted is newer than the entries it covers and the
// transmission it left out, when it covers that one, has left the list.
// The total then holds a term, or a bound of one, for every entry below
// upto still on the list, and the read that cached it made their draws.
func (c *foldSum) coversWanted(live []nearEntry, wanted uint64) bool {
	if c.wanted == wanted {
		return true
	}
	if wanted < c.upto {
		return false
	}
	if c.wanted >= c.upto {
		return true
	}
	_, found := slices.BinarySearchFunc(live, c.wanted, func(e nearEntry, id uint64) int {
		return cmp.Compare(e.tx.ID, id)
	})
	return !found
}

// interferenceBoundWalk is interferenceWalk that fills a slot it visits
// first with the entry's in-channel level in dBm (inLazy) and adds
// mwUpper of a lazy slot.
func (m *Medium) interferenceBoundWalk(entries []nearEntry, wanted *Transmission, listenerID int, freq phy.MHz, total float64) float64 {
	for _, e := range entries {
		if e.tx.ID == wanted.ID || e.tx.Src == listenerID {
			continue
		}
		s := m.nearSlot(listenerID, e)
		if !s.hasIn || s.inFreq != freq {
			s.inMW = float64(m.inChannel(e.tx, m.nearRx(s, e, listenerID), freq))
			s.inFreq = freq
			s.hasIn = true
			s.inLazy = true
		}
		if s.inLazy {
			total += mwUpper(phy.DBm(s.inMW))
		} else {
			total += s.inMW
		}
	}
	return total
}

// mwUpper returns an upper bound of d.Milliwatts() without a power of
// ten: the table value at the grid point d rounds up to, which includes a
// relative slack of 2⁻⁴⁰. For d at or below a grid point g, d/10 rounds
// to at most g/10, so d.Milliwatts() can exceed g.Milliwatts() only by
// pow10's own rounding, a few units in the last place (about 2⁻⁵⁰ each
// way), far below the slack. TestMWUpperBoundsMilliwatts checks every
// grid point and 10⁷ levels. The grid spans the in-channel levels a cell
// produces at 1/16 dB, a bound at most 1.5% high; a level outside it,
// Silent included, is converted exactly.
func mwUpper(d phy.DBm) float64 {
	x := float64(d) * mwGridStep
	if !(x > mwGridLo-1 && x <= mwGridHi) {
		return d.Milliwatts()
	}
	k := int(x) // truncation: the ceiling for x ≤ 0
	if float64(k) < x {
		k++
	}
	return mwGrid[k-mwGridLo]
}

// The mwUpper grid: mwGridStep points per dB from mwGridLo/mwGridStep to
// mwGridHi/mwGridStep dBm. The table is a fixed-size array, so it lives
// with the program's static data, not on the heap.
const (
	mwGridStep = 16
	mwGridLo   = -320 * mwGridStep
	mwGridHi   = 40 * mwGridStep
)

// mwGridSlack is the relative slack mwGrid adds to each grid point's
// conversion.
const mwGridSlack = 1 + 0x1p-40

var mwGrid [mwGridHi - mwGridLo + 1]float64

func init() {
	for i := range mwGrid {
		mwGrid[i] = phy.DBm(float64(i+mwGridLo)/mwGridStep).Milliwatts() * mwGridSlack
	}
}

// Folded reports whether the listener's power sums run on the folded path:
// the spatial tier is active and the listener's position is backed by the
// snapshot, so its far field is certified, and InterferenceBoundsMW
// answers from a cached bound. Unbacked listeners (late attachers) keep
// the exact full loop.
func (m *Medium) Folded(listenerID int) bool {
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

// markedSlot is spatialSlot for tx's source. During tx's OnAir fan-out a
// backed listener that markReach marked finds the slot at the marked rank,
// without spatialSlot's search.
func (m *Medium) markedSlot(tx *Transmission, listenerID int) *linkSlot {
	if m.reachTx == tx.ID+1 && m.farBacked[listenerID] {
		if mk := m.reach[listenerID]; mk.tx == m.reachTx {
			near, _ := m.snap.NearRow(listenerID)
			return &m.spatialRow(listenerID, len(near))[mk.rank]
		}
	}
	return m.spatialSlot(listenerID, tx.Src)
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
