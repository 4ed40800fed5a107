// Package medium models the shared wireless medium: it tracks every
// in-flight transmission, computes received and sensed power at any
// listener (applying path loss, per-pair shadow fading and the receiver's
// adjacent-channel rejection), and notifies listeners of on-air events so
// they can integrate interference over a reception.
package medium

import (
	"fmt"
	"math/bits"

	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// Listener is anything attached to the medium — typically a radio. The
// medium calls OnAir/OffAir for the events the listener's wake class
// selects (SetWake). The default, WakeAll, is every transmission in the
// world, including the listener's own (compare Transmission.Src with the
// listener's ID).
type Listener interface {
	// Position locates the listener's antenna. The value must not change
	// while the listener is attached: link budgets are computed once per
	// pair, on first use.
	Position() phy.Position
	// OnAir is invoked when a transmission begins anywhere on the medium.
	OnAir(tx *Transmission)
	// OffAir is invoked when that transmission completes.
	OffAir(tx *Transmission)
}

// Transmission is a frame in flight.
type Transmission struct {
	// ID is unique per medium instance.
	ID uint64
	// Src identifies the transmitting listener (medium attach ID).
	Src int
	// Pos is the transmitter's antenna position.
	Pos phy.Position
	// Power is the transmit power.
	Power phy.DBm
	// Freq is the channel center frequency.
	Freq phy.MHz
	// Bandwidth is the occupied bandwidth for wideband emitters (e.g.
	// 22 MHz for 802.11b). Zero means a narrowband 802.15.4 signal whose
	// off-channel leakage follows the medium's rejection curve directly.
	Bandwidth phy.MHz
	// Frame is the MAC frame being sent.
	Frame *frame.Frame
	// Start and End bound the on-air interval.
	Start, End sim.Time

	// perL caches each listener's per-transmission fading draw, indexed
	// by listener ID. The draw must live on the transmission (not the
	// listener's link row): it is consumed lazily from a shared stream at
	// first use, and pinning it here keeps the draw order — and therefore
	// every downstream draw — identical however often the power caches
	// thrash. Lazily sized and reused, uncleared, when the transmission is
	// recycled through the free-list: a slot is keyed by the transmission
	// it was drawn for.
	perL []txListenerCache

	// farBounded marks a transmission the far-field fold's certificate
	// covers (narrowband, legal power, source backed by the snapshot);
	// maintained only while folding is active (farfield.go).
	farBounded bool
}

// txListenerCache holds one listener's per-transmission fading draw. The
// memoized power values that used to sit beside it live in the listener's
// dense link row (linkSlot), keyed by transmission ID.
type txListenerCache struct {
	fade float64 // per-transmission fading draw, dB
	// tx is the ID plus one of the transmission fade was drawn for; zero
	// (a fresh slot) matches none, since medium IDs never reach MaxUint64.
	tx uint64
}

// Wake is a listener's delivery class: the on-air events the medium calls
// it for. A listener declares the class its handlers can act on, so the
// fan-out skips exactly the callbacks that would return without effect.
type Wake uint8

const (
	// WakeAll delivers every OnAir and OffAir: the class at Attach.
	WakeAll Wake = iota
	// WakeTuned delivers the OnAirs on one channel center frequency and
	// the listener's own OffAirs.
	WakeTuned
	// WakeOwn delivers only the listener's own OffAirs.
	WakeOwn
)

// tunedSet is the WakeTuned listeners of one frequency, a bitset over
// attach IDs.
type tunedSet struct {
	freq phy.MHz
	bits []uint64
}

// wakeMark is one listener's current class and, for WakeTuned, the index
// of its frequency's tunedSet.
type wakeMark struct {
	class Wake
	set   int32
}

// Option configures a Medium.
type Option func(*Medium)

// WithPathLoss overrides the propagation model.
func WithPathLoss(m phy.PathLossModel) Option {
	return func(md *Medium) { md.pathLoss = m }
}

// WithRejection overrides the adjacent-channel rejection curve.
func WithRejection(c phy.RejectionCurve) Option {
	return func(md *Medium) { md.rejection = c }
}

// WithFadingSigma sets the per-transmission fading jitter standard
// deviation in dB: the small temporal RSSI variation a static link shows
// packet to packet. Zero disables it.
func WithFadingSigma(sigma float64) Option {
	return func(md *Medium) { md.fadingSigma = sigma }
}

// WithStaticFadingSigma sets the per-(transmitter, listener) lognormal
// shadowing standard deviation in dB: a draw made once per ordered node
// pair that persists for the whole run, modelling obstacles and multipath
// of a fixed deployment. Zero disables it.
func WithStaticFadingSigma(sigma float64) Option {
	return func(md *Medium) { md.staticSigma = sigma }
}

// WithSnapshot installs a precomputed topology snapshot, built once and
// shared read-only across simulation cells. Its near-pair losses are
// consulted before the medium's own model when a link budget is computed,
// and its certified floor for the omitted pairs backs the reachable-power
// cull and the far-field fold (farfield.go).
func WithSnapshot(snap *topology.Snapshot) Option {
	return func(md *Medium) { md.snap = snap }
}

// Medium is the shared channel. Not safe for concurrent use: the simulation
// is single-threaded by design.
type Medium struct {
	kernel      *sim.Kernel
	pathLoss    phy.PathLossModel
	rejection   phy.RejectionCurve
	snap        *topology.Snapshot
	fadingSigma float64
	staticSigma float64
	fadingRNG   *sim.RNG
	staticRNG   *sim.RNG

	listeners []Listener
	// wakeAll and tuned are the fan-out's delivery sets, bitsets over
	// attach IDs: wakeAll holds the WakeAll listeners and each tuned entry
	// one frequency's WakeTuned listeners. Entries are appended, never
	// removed, so a set's index is stable. wake holds each listener's
	// class, in lockstep with listeners.
	wakeAll []uint64
	tuned   []tunedSet
	wake    []wakeMark
	// wakeGen counts class changes (SetWake, Detach), so the fan-out
	// re-reads its delivery word only after a callback made one.
	wakeGen uint64
	// active holds the in-flight transmissions in ascending ID order, the
	// order every power sum visits them in: floating-point sums must be
	// evaluated in the same order every run. Transmit appends (IDs only
	// grow) and finish deletes in place.
	active []*Transmission
	// txPool is the free-list of recycled Transmission objects. A
	// finished transmission (and its perL slice) parks here and is reset
	// on reuse, so steady-state churn allocates nothing.
	txPool []*Transmission
	// rows holds each listener's dense link cache: rows[listener][src] is
	// the structure-of-arrays replacement for the old map[linkKey]
	// lookup. A slot carries the pair's link budget (path loss for the
	// pair's geometry plus the persistent shadowing draw) and the
	// last-computed received/in-channel powers in milliwatts, keyed by
	// transmission ID — so the ID-ordered power sums index straight into
	// one contiguous row instead of hashing per transmission. Rows are
	// grown lazily and zeroed (not freed) on Detach.
	rows [][]linkSlot
	// rejDB caches the rejection curve per signed frequency offset — the
	// set of channel-pair offsets in a run is tiny and fixed.
	rejDB    map[phy.MHz]float64
	nextTxID uint64
	dstats   DisseminationStats

	// Spatial tier (farfield.go). These fields exist only while folding is
	// active (farBudgetDB > 0): spatial flags the folded mode,
	// farUnitMW/farMaxCount/farN/farFloorDB are derived constants,
	// farBacked tracks (in lockstep with listeners) whether each
	// listener's position is snapshot-backed, near holds (in the same
	// lockstep) each backed listener's ID-ordered near-active list — the
	// transmissions its folded sums visit, each with its source's rank in
	// the listener's link row — and the sums cached on it, spill backs
	// link slots outside the rank-indexed rows, reach and reachTx hold the
	// pair losses Reachable answers from during a bounded transmission's
	// OnAir fan-out, and folds counts how folded reads were served.
	farBudgetDB float64
	spatial     bool
	farUnitMW   float64
	farMaxCount int
	farN        int
	farFloorDB  float64
	farBacked   []bool
	near        []nearList
	spill       map[int64]*linkSlot
	reach       []reachMark
	reachTx     uint64
	folds       foldStats
}

// linkSlot is one source's entry in a listener's dense link row. The
// first half is the static link budget: path loss for the pair's fixed
// geometry and the pair's one-time shadowing draw. The second half
// memoizes the pair's received and in-channel powers in milliwatts for one
// transmission (txID) and receiver tuning (inFreq); everything cached is
// a pure function of state frozen at Transmit time plus the
// transmission-pinned fading draw, so a recompute after any cache
// turnover is bit-identical. A folded bound read leaves the in-channel
// power in dBm, its conversion deferred (inLazy); the flags fill the
// padding, so a slot stays 56 bytes.
type linkSlot struct {
	loss   float64 // path loss, dB
	static float64 // persistent shadowing draw, dB
	rxMW   float64 // RxPower of txID, milliwatts
	inMW   float64 // InChannelPower of txID at inFreq: milliwatts, or dBm while inLazy
	inFreq phy.MHz // receiver tuning inMW was computed for
	txID   uint64  // transmission the mW caches belong to
	known  bool    // link budget computed (shadowing drawn)
	hasRx  bool
	hasIn  bool
	inLazy bool // inMW holds the dBm level, not yet converted
}

// New creates a medium bound to the kernel. Defaults: indoor log-distance
// path loss, the calibrated CC2420 rejection curve, 3 dB static per-link
// shadowing and 2 dB per-transmission jitter (the combination that
// reproduces the paper's CPRR spread while keeping RSSI stable enough for
// min-tracking, as on real motes).
func New(k *sim.Kernel, opts ...Option) *Medium {
	m := &Medium{
		kernel:      k,
		pathLoss:    phy.DefaultPathLoss(),
		rejection:   phy.NewCC2420Rejection(),
		fadingSigma: 2,
		staticSigma: 3,
		fadingRNG:   k.Stream("medium.fading"),
		staticRNG:   k.Stream("medium.static"),
		rejDB:       make(map[phy.MHz]float64),
	}
	for _, o := range opts {
		o(m)
	}
	m.resolveFarField()
	return m
}

// Attach registers a listener and returns its medium ID. From then on the
// listener receives every OnAir/OffAir event until it declares a narrower
// class with SetWake or detaches.
func (m *Medium) Attach(l Listener) int {
	m.listeners = append(m.listeners, l)
	m.rows = append(m.rows, nil)
	m.wake = append(m.wake, wakeMark{class: WakeAll})
	id := len(m.listeners) - 1
	setBit(&m.wakeAll, id)
	if m.spatial {
		backed := m.snap.Backed(id, l.Position())
		m.farBacked = append(m.farBacked, backed)
		m.near = append(m.near, nearList{})
		if backed {
			m.seedNear(id)
		}
	}
	return id
}

// Detach removes a listener from the medium: it receives no further
// OnAir/OffAir notifications, and its sensing reads return Silent from
// then on. Its ID is never reused. Detaching mid-transmission is safe — a
// transmission the listener originated stays on the air until its
// scheduled end (the energy is already radiated) but completes without
// notifying the departed listener. Detaching an unknown or already-detached
// ID is a no-op.
func (m *Medium) Detach(id int) {
	if id < 0 || id >= len(m.listeners) {
		return
	}
	m.listeners[id] = nil
	m.clearWake(id)
	m.wake[id] = wakeMark{class: WakeOwn}
	m.wakeGen++
	// Zero the departed listener's link row and its slots in every
	// in-flight transmission's fading cache: a detached listener measures
	// Silent, and a stale cached power must not survive to contradict
	// that. Slots where the departed node is the *source* (other
	// listeners' rows) stay — a transmission it originated may still be
	// on the air, and the remaining listeners must keep seeing the exact
	// same link budget (including the pair's shadowing draw) for the rest
	// of the flight.
	row := m.rows[id]
	for j := range row {
		row[j] = linkSlot{}
	}
	for _, tx := range m.active {
		if id < len(tx.perL) {
			tx.perL[id] = txListenerCache{}
		}
	}
	if m.spatial {
		m.farBacked[id] = false
		m.near[id] = nearList{} // no longer folded: its cached sums go with the list
	}
}

// Attached reports whether the ID currently belongs to a live listener.
func (m *Medium) Attached(id int) bool {
	return id >= 0 && id < len(m.listeners) && m.listeners[id] != nil
}

// SetWake moves a live listener to delivery class w; freq is the channel
// WakeTuned listens on and is ignored otherwise. A handler may call it
// during a fan-out: a listener later in attach-ID order than the one being
// called is delivered the event exactly when its new class selects it. It
// allocates only to add a frequency's set or to grow one over a higher ID
// than it covered. Unknown and detached IDs are ignored.
func (m *Medium) SetWake(id int, w Wake, freq phy.MHz) {
	if w > WakeOwn {
		panic(fmt.Sprintf("medium: unknown wake class %d", w))
	}
	if !m.Attached(id) {
		return
	}
	cur := m.wake[id]
	set := int32(-1)
	if w == WakeTuned {
		if cur.class == WakeTuned && m.tuned[cur.set].freq == freq {
			return
		}
		set = m.tunedIndex(freq)
	} else if cur.class == w {
		return
	}
	m.clearWake(id)
	m.wakeGen++
	switch w {
	case WakeAll:
		setBit(&m.wakeAll, id)
	case WakeTuned:
		setBit(&m.tuned[set].bits, id)
	}
	m.wake[id] = wakeMark{class: w, set: set}
}

// clearWake takes the listener out of whichever delivery set holds it.
func (m *Medium) clearWake(id int) {
	switch cur := m.wake[id]; cur.class {
	case WakeAll:
		m.wakeAll[id>>6] &^= 1 << (id & 63)
	case WakeTuned:
		m.tuned[cur.set].bits[id>>6] &^= 1 << (id & 63)
	}
}

// findTuned returns the index of freq's tunedSet, or -1 when no listener
// has been tuned to freq. A run tunes to a handful of channels, so a scan
// beats a map and allocates nothing.
func (m *Medium) findTuned(freq phy.MHz) int32 {
	for i := range m.tuned {
		if m.tuned[i].freq == freq {
			return int32(i)
		}
	}
	return -1
}

// tunedIndex is findTuned, appending an empty set on first use.
func (m *Medium) tunedIndex(freq phy.MHz) int32 {
	if i := m.findTuned(freq); i >= 0 {
		return i
	}
	m.tuned = append(m.tuned, tunedSet{freq: freq})
	return int32(len(m.tuned) - 1)
}

// setBit sets bit id in the bitset, growing it to cover id.
func setBit(s *[]uint64, id int) {
	for len(*s) <= id>>6 {
		*s = append(*s, 0)
	}
	(*s)[id>>6] |= 1 << (id & 63)
}

// Transmit puts a frame on the air from listener src at the given power and
// channel. It returns the transmission handle; OffAir fires automatically
// when the airtime elapses.
//
// Ordering contract: listeners are notified of OnAir *before* the
// transmission joins the active set, and of OffAir *before* it leaves it.
// A receiver integrating interference over a reception therefore always
// sees the pre-change landscape when it closes the elapsed segment.
func (m *Medium) Transmit(src int, pos phy.Position, power phy.DBm, freq phy.MHz, f *frame.Frame) *Transmission {
	return m.TransmitShaped(src, pos, power, freq, 0, f)
}

// TransmitShaped is Transmit for wideband emitters: bandwidth is the
// occupied width of the signal (zero = narrowband 802.15.4).
func (m *Medium) TransmitShaped(src int, pos phy.Position, power phy.DBm, freq, bandwidth phy.MHz, f *frame.Frame) *Transmission {
	now := m.kernel.Now()
	tx := m.newTransmission()
	tx.ID = m.nextTxID
	tx.Src = src
	tx.Pos = pos
	tx.Power = power
	tx.Freq = freq
	tx.Bandwidth = bandwidth
	tx.Frame = f
	tx.Start = now
	tx.End = now + sim.FromDuration(f.Airtime())
	m.nextTxID++
	if m.spatial {
		m.markReach(tx)
	}
	m.fanout(tx, false)
	m.active = append(m.active, tx)
	if m.spatial {
		m.trackActive(tx)
	}
	m.kernel.At(tx.End, func() { m.finish(tx) })
	return tx
}

// newTransmission takes a recycled Transmission off the free-list (resetting
// it and keeping its perL capacity, whose slots are keyed by transmission
// ID and need no clearing) or allocates a fresh one. Deterministic LIFO:
// the medium is single-threaded by design.
func (m *Medium) newTransmission() *Transmission {
	n := len(m.txPool)
	if n == 0 {
		return &Transmission{}
	}
	tx := m.txPool[n-1]
	m.txPool[n-1] = nil
	m.txPool = m.txPool[:n-1]
	*tx = Transmission{perL: tx.perL[:0]}
	return tx
}

// DisseminationStats counts dissemination work: Events is the number of
// OnAir/OffAir fan-outs performed, Callbacks the listener notifications
// invoked. Callbacks/Events is the mean number of listeners each event
// woke: the live population only when every listener is WakeAll
// (BenchmarkOnAirFanout), far fewer among radios, which narrow their class
// to what their state can act on.
type DisseminationStats struct {
	Events    uint64
	Callbacks uint64
}

// DisseminationStats returns the medium's fan-out counters.
func (m *Medium) DisseminationStats() DisseminationStats { return m.dstats }

// fanout delivers one OnAir (off=false) or OffAir (off=true) event, in
// ascending attach-ID order, to the live listeners whose class selects it:
// the WakeAll listeners, plus the WakeTuned listeners of tx's frequency for
// an OnAir, or tx's source for an OffAir. Non-orthogonal channels leak into
// their neighbours, so a receiving radio stays WakeAll and observes every
// event. When a callback changes any class (wakeGen moved), the current
// delivery word is re-read with the IDs already passed masked off, so a
// handler's SetWake or Detach on a later listener takes effect within the
// same event. Listeners attached during the fan-out are not called.
func (m *Medium) fanout(tx *Transmission, off bool) {
	m.dstats.Events++
	n := len(m.listeners)
	set, own := int32(-1), -1
	if off {
		own = tx.Src
	} else {
		set = m.findTuned(tx.Freq)
	}
	for w := 0; w<<6 < n; w++ {
		limit := ^uint64(0) // the word's IDs below n
		if rem := n - w<<6; rem < 64 {
			limit = 1<<rem - 1
		}
		for x := m.wakeWord(w, set, own) & limit; x != 0; {
			var b int
			if off {
				b = m.deliverOff(tx, w<<6, x)
			} else {
				b = m.deliverOn(tx, w<<6, x)
			}
			if b == 64 {
				break
			}
			if !off && set < 0 {
				set = m.findTuned(tx.Freq) // the callback may have tuned a listener to it
			}
			x = m.wakeWord(w, set, own) & limit &^ (2<<b - 1)
		}
	}
}

// deliverOn calls OnAir, in ascending ID order, on the listeners of one
// delivery word: base is the word's first ID and x its bits. It returns
// the bit of the last listener called when that callback changed a wake
// class, so the caller re-reads the word past it, and 64 when the word is
// done. deliverOff is its OffAir twin. A function of its own keeps
// fanout's per-word state out of the registers each callback clobbers, and
// one copy per event kind keeps the kind out of the per-listener loop: a
// single loop holding both calls ran BenchmarkOnAirFanout 25% slower.
func (m *Medium) deliverOn(tx *Transmission, base int, x uint64) int {
	gen, ls := m.wakeGen, m.listeners[base:]
	for x != 0 {
		b := bits.TrailingZeros64(x)
		x &= x - 1
		if l := ls[b]; l != nil {
			m.dstats.Callbacks++
			l.OnAir(tx)
			if m.wakeGen != gen {
				return b
			}
		}
	}
	return 64
}

// deliverOff is deliverOn for OffAir. A nil entry is a detached source,
// whose own bit the OffAir word carries.
func (m *Medium) deliverOff(tx *Transmission, base int, x uint64) int {
	gen, ls := m.wakeGen, m.listeners[base:]
	for x != 0 {
		b := bits.TrailingZeros64(x)
		x &= x - 1
		if l := ls[b]; l != nil {
			m.dstats.Callbacks++
			l.OffAir(tx)
			if m.wakeGen != gen {
				return b
			}
		}
	}
	return 64
}

// wakeWord is word w of the union of delivery sets an event wakes: the
// WakeAll set, the tuned set at index set (none when negative) and the bit
// of listener own (none when negative).
func (m *Medium) wakeWord(w int, set int32, own int) uint64 {
	var x uint64
	if w < len(m.wakeAll) {
		x = m.wakeAll[w]
	}
	if set >= 0 {
		if b := m.tuned[set].bits; w < len(b) {
			x |= b[w]
		}
	}
	if own >= 0 && own>>6 == w {
		x |= 1 << (own & 63)
	}
	return x
}

func (m *Medium) finish(tx *Transmission) {
	m.fanout(tx, true)
	m.active = removeTx(m.active, tx)
	if m.spatial {
		m.untrackActive(tx)
	}
	// Park the transmission for reuse. Fields stay readable until the
	// object is actually reused — callers may still inspect Start/End
	// after the flight — and are reset in newTransmission.
	m.txPool = append(m.txPool, tx)
}

// removeTx deletes tx from s in place, keeping the remaining elements in
// order: the active set stays ID-ordered.
func removeTx(s []*Transmission, tx *Transmission) []*Transmission {
	for i, t := range s {
		if t == tx {
			last := len(s) - 1
			copy(s[i:], s[i+1:])
			s[last] = nil
			return s[:last]
		}
	}
	return s
}

// ActiveCount reports the number of transmissions currently on the air.
func (m *Medium) ActiveCount() int { return len(m.active) }

// RxPower returns the raw (pre-filter) received power of tx at listener l,
// including that pair's shadow-fading draw. The draw is made once per
// (transmission, listener) pair and reused, so CCA sensing and SINR
// integration observe a consistent channel.
func (m *Medium) RxPower(tx *Transmission, listenerID int) phy.DBm {
	l := m.listeners[listenerID]
	if l == nil {
		return phy.Silent // detached listener measures nothing
	}
	return m.rxFrom(m.link(tx, listenerID, l.Position()), tx, listenerID)
}

// rxFrom is RxPower from the pair's slot, its link budget already filled:
// the one received-power expression both RxPower and the folded sums
// evaluate.
func (m *Medium) rxFrom(lb *linkSlot, tx *Transmission, listenerID int) phy.DBm {
	base := tx.Power - phy.DBm(lb.loss)
	return base + phy.DBm(lb.static) + phy.DBm(m.fade(tx, listenerID))
}

// Slot resolution is branch-open-coded in link and powerSlot rather than
// shared through a helper: a helper that can call spatialSlot is too big
// for the inliner, and the call it leaves behind costs dense-mode setup
// ~20% on whole-cell benchmarks. Dense mode indexes the listener's row by
// source ID; folded mode routes through the rank-indexed spatial layout
// (farfield.go), whose per-listener memory follows the snapshot's
// near-row length instead of the population.

// linkRow returns the listener's dense link row grown to cover src,
// re-extending into zeroed slab capacity when possible. Growth past the
// current listener count sizes for the whole population at once, so a
// power sum grows its listener's row exactly once.
func (m *Medium) linkRow(listenerID, src int) []linkSlot {
	row := m.rows[listenerID]
	if src < len(row) {
		return row
	}
	n := len(m.listeners)
	if src >= n {
		n = src + 1
	}
	grown := make([]linkSlot, n)
	copy(grown, row)
	m.rows[listenerID] = grown
	return grown
}

// link returns the cached slot of the (tx.Src, listener) pair, filling its
// budget half on first use: the path loss for the pair's geometry plus the
// pair's one-time shadowing draw (drawn lazily, exactly when the first
// RxPower for the pair used to draw it). Positions are fixed while
// attached, so the budget never needs recomputing.
func (m *Medium) link(tx *Transmission, listenerID int, to phy.Position) *linkSlot {
	var s *linkSlot
	if m.spatial {
		s = m.markedSlot(tx, listenerID)
	} else {
		s = &m.linkRow(listenerID, tx.Src)[tx.Src]
	}
	if !s.known {
		m.fillBudget(s, m.lookupLoss(tx.Src, listenerID, tx.Pos, to))
	}
	return s
}

// fillBudget fills a slot's link budget: the pair's path loss and its
// one-time shadowing draw.
func (m *Medium) fillBudget(s *linkSlot, loss float64) {
	s.loss = loss
	if m.staticSigma != 0 {
		s.static = m.staticRNG.Gaussian(0, m.staticSigma)
	}
	s.known = true
}

// lookupLoss resolves the pair's path loss: from the installed snapshot
// when the pair is near and the geometry matches, else from the medium's
// own model. The snapshot stores bit-identical values for matched pairs,
// so the two sources are interchangeable.
func (m *Medium) lookupLoss(src, listenerID int, from, to phy.Position) float64 {
	if m.snap != nil {
		if loss, ok := m.snap.PairLoss(src, listenerID, from, to); ok {
			return loss
		}
	}
	return m.pathLoss.Loss(from.DistanceTo(to))
}

// slot returns tx's fading-cache slot for the listener, growing the table
// to the medium's current listener count on first touch. Recycled
// transmissions regrow into their previous capacity without allocating;
// the slots there belong to earlier transmissions and do not match tx.
func (m *Medium) slot(tx *Transmission, listenerID int) *txListenerCache {
	if listenerID >= len(tx.perL) {
		n := len(m.listeners)
		if cap(tx.perL) >= n {
			tx.perL = tx.perL[:n]
		} else {
			grown := make([]txListenerCache, n)
			copy(grown, tx.perL)
			tx.perL = grown
		}
	}
	return &tx.perL[listenerID]
}

func (m *Medium) fade(tx *Transmission, listenerID int) float64 {
	if m.fadingSigma == 0 {
		return 0
	}
	s := m.slot(tx, listenerID)
	if s.tx != tx.ID+1 {
		s.fade = m.fadingRNG.Gaussian(0, m.fadingSigma)
		s.tx = tx.ID + 1
	}
	return s.fade
}

// Reachable reports whether tx could conceivably register at listenerID
// above phy.Sensitivity, the floor below which no radio can lock on. It is
// conservative: false only when a bounding transmission across the pair's
// precomputed path loss would still sit phy.ReachMarginDB below the floor.
// The bounding power is the 802.15.4 spec maximum for narrowband signals,
// and the emitter's own frozen transmit power for wideband signals at
// least as wide as the receiver window — the flat-PSD overlap model never
// concentrates such a signal above its raw received power. Radios consult
// it in their idle lock-on path before drawing any fading, so a provably
// unreachable preamble costs no RNG draw.
//
// A pair the snapshot omits is first tested against its certified loss
// floor; when that bound alone cannot decide, the exact model loss — the
// expression the snapshot stores for near pairs — is computed, so the
// answer does not depend on where the snapshot's bound lies. During a
// bounded transmission's OnAir fan-out under the fold, a backed
// listener's pair comes from the marks markReach left (farfield.go)
// instead of a near-row search; the answer is the same.
func (m *Medium) Reachable(tx *Transmission, listenerID int) bool {
	if listenerID < 0 || listenerID >= len(m.listeners) || m.snap == nil {
		return true // unknown ID, or no precomputed losses to prove anything with
	}
	power := phy.MaxTxPower
	if tx.Bandwidth != 0 {
		if tx.Bandwidth < widebandRxWindowMHz {
			return true // narrower than the receiver window: dilution could exceed 0 dB
		}
		power = tx.Power
	} else if tx.Power > phy.MaxTxPower {
		return true // over-spec narrowband emitter: outside the power bound
	}
	l := m.listeners[listenerID]
	if l == nil {
		return true // detached: it hears nothing anyway
	}
	var loss float64
	var near, ok bool
	if m.reachTx == tx.ID+1 && m.farBacked[listenerID] {
		loss, near, ok = m.markedLoss(listenerID)
	} else {
		loss, near, ok = m.snap.PairLossOrFloor(tx.Src, listenerID, tx.Pos, l.Position())
	}
	if !ok {
		return true // outside the snapshot geometry: no proof
	}
	if !near {
		if power-phy.DBm(loss)+phy.ReachMarginDB < phy.Sensitivity {
			return false // even the certified floor loss rules the pair out
		}
		// The floor alone cannot decide; fall back to the exact model loss.
		loss = m.pathLoss.Loss(tx.Pos.DistanceTo(l.Position()))
	}
	return power-phy.DBm(loss)+phy.ReachMarginDB >= phy.Sensitivity
}

// widebandRxWindowMHz is the ~2 MHz window an 802.15.4 receiver integrates;
// the width InChannelPower's flat-PSD overlap model spreads wideband energy
// over, and the minimum occupied bandwidth at which that model provably
// never concentrates energy above the raw received power — the condition
// Reachable's wideband bound relies on.
const widebandRxWindowMHz = 2

// InChannelPower returns the portion of tx's energy that lands inside a
// receiver tuned to freq at listener l, i.e. RxPower reduced by the
// adjacent-channel rejection for the frequency offset.
func (m *Medium) InChannelPower(tx *Transmission, listenerID int, freq phy.MHz) phy.DBm {
	return m.inChannel(tx, m.RxPower(tx, listenerID), freq)
}

// inChannel reduces tx's received power rx at a listener to the portion a
// receiver tuned to freq takes in: the rejection step InChannelPower and
// the folded sums share.
func (m *Medium) inChannel(tx *Transmission, rx phy.DBm, freq phy.MHz) phy.DBm {
	if tx.Bandwidth > 0 {
		// Wideband emitter: flat-PSD overlap model (an 802.15.4 receiver
		// window is ~2 MHz wide).
		return phy.WidebandInterference(m.rejection, rx, tx.Freq-freq, tx.Bandwidth, widebandRxWindowMHz)
	}
	if rx <= phy.Silent {
		return phy.Silent
	}
	return rx - phy.DBm(m.rejectionDB(tx.Freq-freq))
}

// rejectionDB memoizes the rejection curve per signed frequency offset; the
// curves in use are pure functions of the offset and a run only ever probes
// a handful of channel-pair offsets.
func (m *Medium) rejectionDB(deltaF phy.MHz) float64 {
	if v, ok := m.rejDB[deltaF]; ok {
		return v
	}
	v := m.rejection.RejectionDB(deltaF)
	m.rejDB[deltaF] = v
	return v
}

// powerSlot returns the listener's link slot for tx's source, rekeyed to
// tx: a slot whose mW caches belong to an earlier transmission from the
// same source is invalidated first. Rekeying is exact — the cached values
// are pure functions of frozen transmission state plus the
// transmission-pinned fading draw, so recomputing after turnover yields
// the same bits.
func (m *Medium) powerSlot(tx *Transmission, listenerID int) *linkSlot {
	var s *linkSlot
	if m.spatial {
		s = m.spatialSlot(listenerID, tx.Src)
	} else {
		s = &m.linkRow(listenerID, tx.Src)[tx.Src]
	}
	if s.txID != tx.ID {
		s.txID = tx.ID
		s.hasRx = false
		s.hasIn = false
	}
	return s
}

// inChannelMW returns InChannelPower in milliwatts, cached on the
// listener's link row per transmission. The cache keys on the receiver
// tuning because a radio can retune mid-flight (channel-hopping MACs).
func (m *Medium) inChannelMW(tx *Transmission, listenerID int, freq phy.MHz) float64 {
	s := m.powerSlot(tx, listenerID)
	if !s.hasIn || s.inFreq != freq {
		s.inMW = m.InChannelPower(tx, listenerID, freq).Milliwatts()
		s.inFreq = freq
		s.hasIn = true
		s.inLazy = false
	} else if s.inLazy {
		s.inMW = phy.DBm(s.inMW).Milliwatts()
		s.inLazy = false
	}
	return s.inMW
}

// rxMW returns RxPower in milliwatts, cached on the listener's link row
// per transmission.
func (m *Medium) rxMW(tx *Transmission, listenerID int) float64 {
	s := m.powerSlot(tx, listenerID)
	if !s.hasRx {
		s.rxMW = m.RxPower(tx, listenerID).Milliwatts()
		s.hasRx = true
	}
	return s.rxMW
}

// SensedPower returns the total in-channel energy a receiver tuned to freq
// measures at listener l — the quantity the CCA and the RSSI register see.
// It includes the noise floor and leaves out the listener's own
// transmissions. A dense or unbacked listener's sum walks the on-air set
// in ID order on every call, each term read from the pair's per-slot mW
// cache; a folded listener's sum is cached on its own near-active list
// (farfield.go).
func (m *Medium) SensedPower(listenerID int, freq phy.MHz) phy.DBm {
	if m.listeners[listenerID] == nil {
		return phy.Silent // detached listener measures nothing
	}
	if m.Folded(listenerID) {
		return m.sensedPowerFolded(listenerID, freq)
	}
	total := phy.NoiseFloorMW
	for _, tx := range m.active {
		if tx.Src != listenerID {
			total += m.inChannelMW(tx, listenerID, freq)
		}
	}
	return phy.FromMilliwatts(total)
}

// SensedCoChannelPower returns only the co-channel portion of the sensed
// energy at listener l: transmissions on exactly the listener's center
// frequency, plus the noise floor. Real CC2420 hardware cannot measure
// this quantity — its energy detector integrates the whole filter
// bandwidth — so this accessor exists for the oracle CCA policy that
// quantifies the paper's Section VII-C future-work upper bound. Summed
// like SensedPower.
func (m *Medium) SensedCoChannelPower(listenerID int, freq phy.MHz) phy.DBm {
	if m.listeners[listenerID] == nil {
		return phy.Silent // detached listener measures nothing
	}
	if m.Folded(listenerID) {
		return m.sensedCoChannelFolded(listenerID, freq)
	}
	total := phy.NoiseFloorMW
	for _, tx := range m.active {
		if tx.Src != listenerID && tx.Freq == freq {
			total += m.rxMW(tx, listenerID)
		}
	}
	return phy.FromMilliwatts(total)
}

// InterferenceMW returns the combined in-channel interference, in
// milliwatts, a receiver locked to wanted experiences at listener l: the
// noise floor, the wanted transmission and the listener's own
// transmissions are left out. Summed like SensedPower: a dense or unbacked
// listener walks the on-air set on every call, and a folded listener's sum
// is cached on its own near-active list (farfield.go), so on-air changes
// beyond its near field leave it valid.
func (m *Medium) InterferenceMW(wanted *Transmission, listenerID int, freq phy.MHz) float64 {
	if m.Folded(listenerID) {
		return m.interferenceFolded(wanted, listenerID, freq)
	}
	total := 0.0
	for _, tx := range m.active {
		if tx.ID != wanted.ID && tx.Src != listenerID {
			total += m.inChannelMW(tx, listenerID, freq)
		}
	}
	return total
}

// InterferenceBoundsMW returns lo ≤ InterferenceMW(wanted, listenerID, freq)
// ≤ hi for a caller that only compares the sum with a threshold. For a
// folded listener (Folded) lo is the far-field term every folded sum starts
// from, and hi an upper bound cached on the listener's near-active list,
// which a read after a removal or after new transmissions on the air
// updates without a walk and without converting the new terms from dBm
// exactly; the read makes the same lazy fading draws, in the same order,
// as InterferenceMW would. For any other listener both are InterferenceMW.
func (m *Medium) InterferenceBoundsMW(wanted *Transmission, listenerID int, freq phy.MHz) (lo, hi float64) {
	if m.Folded(listenerID) {
		return m.near[listenerID].far, m.interferenceBoundFolded(wanted, listenerID, freq)
	}
	v := m.InterferenceMW(wanted, listenerID, freq)
	return v, v
}
