package medium

import (
	"sort"

	"nonortho/internal/phy"
)

// This file is the interest-filtered dissemination layer: instead of
// notifying every attached listener of every OnAir/OffAir in the world, the
// medium keeps per-band listener indexes plus a reachable-power cull and
// delivers each event only to the listeners whose observable behaviour
// could depend on it. Filtering is exact, not approximate — the delivery
// set is constructed so that every skipped listener's handler would have
// been a guaranteed no-op — so simulation results are bit-identical with
// the filter on or off (oracle_test.go asserts this under randomized
// churn).

// Scope classifies which on-air events a listener wants delivered.
type Scope uint8

const (
	// ScopeAll delivers every event — the default for listeners that do
	// not declare an interest, and for radios in RX, whose segment
	// integration must observe every landscape change.
	ScopeAll Scope = iota
	// ScopeBand delivers events whose signal occupies the listener's
	// declared band (and always the listener's own transmissions).
	ScopeBand
	// ScopeOwn delivers only the listener's own transmissions — for
	// listeners deaf to everything else (detached slots, pure emitters).
	ScopeOwn
)

// Interest declares which events a listener needs to observe. The zero
// Interest (ScopeAll, no floor) reproduces unfiltered dissemination.
type Interest struct {
	// Scope selects the event classes delivered (see Scope constants).
	Scope Scope
	// Band is the channel center frequency a ScopeBand listener is tuned
	// to; ignored for other scopes.
	Band phy.MHz
	// Floor, when negative, enables the reachable-power cull for a
	// ScopeBand listener: a narrowband event is skipped when even a
	// maximum-power transmission over the pair's precomputed path loss
	// provably stays reachMarginDB below this level. Zero disables the
	// cull (a floor of exactly 0 dBm is not representable — no real
	// sensitivity floor is non-negative).
	Floor phy.DBm
}

// InterestedListener is the optional Listener extension consulted at
// Attach time. Listeners whose interest changes afterwards (retunes, state
// transitions) must push the update through Medium.SetInterest; the index
// is adjusted incrementally.
type InterestedListener interface {
	Listener
	Interest() Interest
}

// reachMarginDB is the conservative slack of the reachable-power cull: a
// pair is culled only when the bounding power minus the pair's path loss
// is still this far below the listener's floor. The constant itself lives
// in phy (phy.ReachMarginDB) so the spatial tier's far-pair certificates
// use the identical slack; see its comment for the 11σ exceedance
// argument.
const reachMarginDB = phy.ReachMarginDB

// widebandRxWindowMHz is the ~2 MHz window an 802.15.4 receiver integrates;
// the width InChannelPower's flat-PSD overlap model spreads wideband energy
// over, and the minimum occupied bandwidth at which that model provably
// never concentrates energy above the raw received power — the condition
// the wideband reachable-power cull relies on.
const widebandRxWindowMHz = 2

// widebandGuardMHz widens the band range a wideband emitter is delivered
// to, covering the receiver window an 802.15.4 radio integrates on either
// side of the occupied bandwidth.
const widebandGuardMHz = 2

// DisseminationStats counts dissemination work: Events is the number of
// OnAir/OffAir fan-outs performed, Callbacks the listener notifications
// actually invoked. Their ratio is the fan-out cost the interest filter
// saves (BenchmarkOnAirFanout).
type DisseminationStats struct {
	Events    uint64
	Callbacks uint64
}

// DisseminationStats returns the medium's fan-out counters.
func (m *Medium) DisseminationStats() DisseminationStats { return m.dstats }

// indexMinListeners is the population at which the interest index comes
// live. Below it the index stays dormant: a skipped callback only saves an
// interface call that early-returns (~nanoseconds), so the per-event merge
// and the bucket surgery on RX transitions must be amortised over many
// skipped listeners before filtering wins. From here up the culled fan-out
// pays off (2.4× ns/op and 16× fewer callbacks at ~100 listeners,
// BenchmarkOnAirFanout). Measured break-even: at ~30 listeners (the
// five-network strips) the live index still costs ~10% of a driver's
// wall-clock — the no-op callbacks it skips are cheaper than the merge
// plus maintenance — while at ~100 it wins 2.4×. 64 keeps every current
// experiment cell on the cheap plain walk and engages filtering only for
// the populations where it is actually profitable.
const indexMinListeners = 64

// SetInterest updates a listener's declared interest, incrementally moving
// it between index buckets. Events whose fan-out was already computed (a
// retune performed inside an OnAir handler, say) are unaffected: delivery
// sets are frozen when the event starts, exactly like the unfiltered
// fan-out froze the listener slice. Unknown or detached IDs are no-ops.
func (m *Medium) SetInterest(id int, in Interest) {
	if id < 0 || id >= len(m.listeners) || m.listeners[id] == nil {
		return
	}
	old := m.interests[id]
	if old == in {
		return
	}
	m.dropInterest(id, old)
	m.interests[id] = in
	m.addInterest(id, in)
}

// registerInterest records a freshly attached listener's interest and
// brings the index live once the population reaches indexMin (rebuilding
// the buckets from the recorded interests — they were empty while
// dormant). Once live, the index stays live: cells only shrink by
// detaching, and tearing the index down on a shrinking population would
// buy nothing but churn.
func (m *Medium) registerInterest(id int, l Listener) {
	in := Interest{} // ScopeAll: legacy listeners hear everything
	if il, ok := l.(InterestedListener); ok {
		in = il.Interest()
	}
	m.interests = append(m.interests, in)
	if m.indexLive {
		m.addInterest(id, in)
	} else if len(m.listeners) >= m.indexMin {
		m.buildIndex()
	}
}

// buildIndex files every live listener under its recorded interest and
// marks the index live. Attach IDs ascend, so the buckets come out sorted.
func (m *Medium) buildIndex() {
	m.indexLive = true
	for id, l := range m.listeners {
		if l != nil {
			m.addInterest(id, m.interests[id])
		}
	}
}

func (m *Medium) addInterest(id int, in Interest) {
	if !m.indexLive {
		return
	}
	switch in.Scope {
	case ScopeAll:
		m.allIDs = insertID(m.allIDs, id)
	case ScopeBand:
		if m.bands == nil {
			m.bands = make(map[phy.MHz][]int)
		}
		m.bands[in.Band] = insertID(m.bands[in.Band], id)
		if m.spatial && m.farTough(in.Floor) {
			if m.bandsTough == nil {
				m.bandsTough = make(map[phy.MHz][]int)
			}
			m.bandsTough[in.Band] = insertID(m.bandsTough[in.Band], id)
		}
	}
	// ScopeOwn listeners live in no bucket: the source of a transmission
	// is always part of its delivery set.
}

func (m *Medium) dropInterest(id int, in Interest) {
	if !m.indexLive {
		return
	}
	switch in.Scope {
	case ScopeAll:
		m.allIDs = removeID(m.allIDs, id)
	case ScopeBand:
		if b := removeID(m.bands[in.Band], id); len(b) == 0 {
			delete(m.bands, in.Band)
		} else {
			m.bands[in.Band] = b
		}
		if m.spatial && m.farTough(in.Floor) {
			if b := removeID(m.bandsTough[in.Band], id); len(b) == 0 {
				delete(m.bandsTough, in.Band)
			} else {
				m.bandsTough[in.Band] = b
			}
		}
	}
}

// farTough reports whether a ScopeBand floor is beyond the far-field
// certificate's reach: no floor at all, or one so low that a legal-power
// transmitter at the certified loss bound could still clear it (margin
// included). Such listeners join every same-band delivery set — the
// spatial fast path cannot prove anything about them from the near row
// alone.
func (m *Medium) farTough(floor phy.DBm) bool {
	return floor >= 0 || floor <= m.farCullThresh
}

// insertID adds id to an ascending ID slice, keeping it sorted.
func insertID(s []int, id int) []int {
	i := sort.SearchInts(s, id)
	if i < len(s) && s[i] == id {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// removeID deletes id from an ascending ID slice, if present.
func removeID(s []int, id int) []int {
	i := sort.SearchInts(s, id)
	if i >= len(s) || s[i] != id {
		return s
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// Reachable reports whether tx could conceivably register at listenerID
// above the listener's declared interest floor. It is conservative: false
// only when a bounding transmission across the pair's precomputed path
// loss would still sit reachMarginDB below the floor. The bounding power
// is the 802.15.4 spec maximum for narrowband signals, and the emitter's
// own frozen transmit power for wideband signals at least as wide as the
// receiver window — the flat-PSD overlap model never concentrates such a
// signal above its raw received power, so Wi-Fi-class interferers and
// jammers are culled too. Radios consult the same predicate in their idle
// lock-on path, so the event filter and the handlers agree by construction
// and filtered runs stay bit-identical to unfiltered ones.
//
// A pair the snapshot omits is first tested against its certified loss
// floor; when that bound alone cannot decide, the exact model loss — the
// expression the snapshot stores for near pairs — is computed, so delivery
// decisions do not depend on where the snapshot's bound lies.
func (m *Medium) Reachable(tx *Transmission, listenerID int) bool {
	if listenerID < 0 || listenerID >= len(m.interests) {
		return true
	}
	floor := m.interests[listenerID].Floor
	if floor >= 0 || m.lossProvider == nil {
		return true // no floor declared, or no precomputed losses to prove anything with
	}
	power := phy.MaxTxPower
	if tx.Bandwidth != 0 {
		if tx.Bandwidth < widebandRxWindowMHz {
			return true // narrower than the receiver window: dilution could exceed 0 dB
		}
		power = tx.Power
	} else if tx.Power > phy.MaxTxPower {
		return true // over-spec narrowband emitter: outside the cull's power bound
	}
	l := m.listeners[listenerID]
	if l == nil {
		return true // detached: callers skip nil listeners anyway
	}
	loss, ok := m.lossProvider.PairLoss(tx.Src, listenerID, tx.Pos, l.Position())
	if !ok {
		bound, okf := m.lossProvider.PairLossFloor(tx.Src, listenerID, tx.Pos, l.Position())
		if !okf {
			return true // outside the snapshot geometry: no proof, deliver
		}
		if power-phy.DBm(bound)+reachMarginDB < floor {
			return false // even the certified floor loss rules the pair out
		}
		// The floor alone cannot decide; fall back to the exact model loss.
		loss = m.pathLoss.Loss(tx.Pos.DistanceTo(l.Position()))
	}
	return power-phy.DBm(loss)+reachMarginDB >= floor
}

// deliverySet computes the ascending attach-ID list of listeners an event
// on tx must be delivered to: every ScopeAll listener, the ScopeBand
// listeners whose band the signal occupies (minus provably unreachable
// pairs), and always the source. The slice comes from a free-list and must
// be returned via putIDScratch; computing the set up front freezes it, so
// handlers that retune or change state mid-fan-out cannot perturb their
// neighbours' deliveries.
func (m *Medium) deliverySet(tx *Transmission) []int {
	ids := m.getIDScratch()
	if tx.Bandwidth == 0 {
		return m.mergeNarrow(ids, tx)
	}
	return m.mergeWide(ids, tx)
}

// mergeNarrow merges the all-scope and single-band buckets with the source
// in one ascending pass, applying the reachable-power cull to band-bucket
// members. With the spatial tier folded in, a snapshot-backed source takes
// the near-field fast path instead: the bucket walk — O(population/bands)
// — is replaced by a scan of the source's near row, so fan-out cost is
// bounded by neighbourhood size.
func (m *Medium) mergeNarrow(dst []int, tx *Transmission) []int {
	if m.spatial && tx.Power <= phy.MaxTxPower {
		if set, ok := m.mergeNarrowSpatial(dst, tx); ok {
			return set
		}
	}
	a, b := m.allIDs, m.bands[tx.Freq]
	srcDone := false
	take := func(id int, cullable bool) {
		if id == tx.Src {
			srcDone = true
			dst = append(dst, id)
			return
		}
		if cullable && !m.Reachable(tx, id) {
			return
		}
		if !srcDone && tx.Src < id {
			dst = append(dst, tx.Src)
			srcDone = true
		}
		dst = append(dst, id)
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] <= b[j]):
			if j < len(b) && a[i] == b[j] {
				j++ // one bucket per listener; defensive dedup
			}
			take(a[i], false)
			i++
		default:
			take(b[j], true)
			j++
		}
	}
	if !srcDone {
		dst = append(dst, tx.Src)
	}
	return dst
}

// mergeNarrowSpatial computes a narrowband delivery set in O(k): all-scope
// listeners, the source's snapshot near row filtered to the event's band
// (with the exact per-pair cull, using the loss straight from the row),
// every unbacked same-band listener (no certificate applies to them), the
// band's tough listeners (floors the far-field certificate can never rule
// out), and the source. ok=false — caller falls back to the bucket walk —
// when the source itself is not snapshot-backed.
//
// The set never under-delivers relative to Reachable, which is what
// bit-identity requires: a backed near pair uses the identical loss bits
// Reachable reads through PairLoss, a backed far pair is dropped only when
// its floor certificate decides — exactly Reachable's first test — and
// everything the certificate cannot cover is delivered. It may
// over-deliver where Reachable's exact-loss fallback would have culled
// (far pair, tough floor); the skipped handler is a guaranteed no-op, only
// the callback count differs.
func (m *Medium) mergeNarrowSpatial(dst []int, tx *Transmission) ([]int, bool) {
	if !m.lossProvider.Backed(tx.Src, tx.Pos) {
		return dst, false
	}
	nearIDs, nearLoss := m.lossProvider.NearRow(tx.Src)
	dst = append(dst, m.allIDs...)
	dst = append(dst, m.bandsTough[tx.Freq]...)
	for r, id32 := range nearIDs {
		id := int(id32)
		if id >= len(m.interests) || m.listeners[id] == nil || !m.farBacked[id] {
			continue // unbacked listeners are handled below, detached never
		}
		in := m.interests[id]
		if in.Scope != ScopeBand || in.Band != tx.Freq {
			continue
		}
		if in.Floor < 0 && phy.MaxTxPower-phy.DBm(nearLoss[r])+reachMarginDB < in.Floor {
			continue // same decision, same bits as Reachable's PairLoss path
		}
		dst = append(dst, id)
	}
	for _, id := range m.unbackedIDs {
		if in := m.interests[id]; in.Scope == ScopeBand && in.Band == tx.Freq {
			dst = append(dst, id)
		}
	}
	dst = append(dst, tx.Src)
	sort.Ints(dst)
	w := 0
	for i, id := range dst {
		if i == 0 || id != dst[w-1] {
			dst[w] = id
			w++
		}
	}
	return dst[:w], true
}

// mergeWide gathers every band bucket the wideband signal (plus receiver
// guard) overlaps, the all-scope bucket and the source, then sorts and
// dedups. Map iteration order does not matter: the sorted result is the
// delivery order. Bucket members pass through the reachable-power cull —
// Reachable bounds a wideband emitter by its own frozen transmit power, so
// dense coexistence cells no longer fan every Wi-Fi burst out to the whole
// population.
func (m *Medium) mergeWide(dst []int, tx *Transmission) []int {
	half := tx.Bandwidth/2 + widebandGuardMHz
	dst = append(dst, m.allIDs...)
	for f, bucket := range m.bands {
		if f >= tx.Freq-half && f <= tx.Freq+half {
			for _, id := range bucket {
				if m.Reachable(tx, id) {
					dst = append(dst, id)
				}
			}
		}
	}
	dst = append(dst, tx.Src)
	sort.Ints(dst)
	w := 0
	for i, id := range dst {
		if i == 0 || id != dst[w-1] {
			dst[w] = id
			w++
		}
	}
	return dst[:w]
}

// getIDScratch leases a delivery-set slice from the free-list. LIFO and
// single-threaded like the rest of the medium; nested fan-outs (a handler
// transmitting synchronously) each lease their own slice.
func (m *Medium) getIDScratch() []int {
	if n := len(m.idFree); n > 0 {
		s := m.idFree[n-1]
		m.idFree[n-1] = nil
		m.idFree = m.idFree[:n-1]
		return s[:0]
	}
	return make([]int, 0, 16)
}

func (m *Medium) putIDScratch(s []int) {
	m.idFree = append(m.idFree, s)
}
