// Package medium models the shared wireless medium: it tracks every
// in-flight transmission, computes received and sensed power at any
// listener (applying path loss, per-pair shadow fading and the receiver's
// adjacent-channel rejection), and notifies listeners of on-air events so
// they can integrate interference over a reception.
package medium

import (
	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// Listener is anything attached to the medium — typically a radio. The
// medium calls OnAir/OffAir for every transmission in the world, including
// the listener's own (compare Transmission.Src with the listener's ID).
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
	// thrash. Lazily sized; zeroed and reused when the transmission is
	// recycled through the free-list.
	perL []txListenerCache

	// activeIdx is the transmission's current index in Medium.active
	// (maintained across swap-removes), or -1 when off the air.
	activeIdx int
	// farBounded marks a transmission the far-field fold's certificate
	// covers (narrowband, legal power, source backed by the snapshot);
	// maintained only while folding is active (farfield.go).
	farBounded bool
}

// txListenerCache holds one listener's per-transmission fading draw. The
// memoized power values that used to sit beside it live in the listener's
// dense link row (linkSlot), keyed by transmission ID.
type txListenerCache struct {
	fade    float64 // per-transmission fading draw, dB
	hasFade bool
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

// LossProvider supplies precomputed path loss for (src, listener) attach-ID
// pairs — a topology snapshot built once and shared read-only across
// simulation cells. It stores the pairs within a loss bound and certifies
// a floor for the rest. All methods are read-only and mutually
// consistent: a pair is either near (PairLoss answers, and the source
// appears in the listener's NearRow) or certified far (PairLossFloor
// answers) — never both.
type LossProvider interface {
	// PairLoss returns the bit-identical value the medium's own path-loss
	// model would compute for the given positions, or ok=false when the
	// pair is far or the positions no longer match the geometry the
	// provider was built from (late-attached nodes); the medium then
	// falls back to computing the loss itself.
	PairLoss(src, listener int, from, to phy.Position) (loss float64, ok bool)
	// PairLossFloor returns a floor every certified-far pair's true loss
	// provably reaches, with ok=false for near pairs or unmatched geometry.
	PairLossFloor(src, listener int, from, to phy.Position) (floor float64, ok bool)
	// NearRow returns the ascending node IDs within the near-field bound
	// of the given node (including itself) and their exact pair losses.
	// Rows are symmetric views into shared storage — read-only.
	NearRow(node int) (ids []int32, loss []float64)
	// Backed reports whether the node is captured at exactly this position.
	Backed(id int, pos phy.Position) bool
	// FarField reports the certified loss floor and the worst per-listener
	// far-source count.
	FarField() (lossBoundDB float64, maxFarCount int)
	// NumNodes reports the captured population.
	NumNodes() int
}

// WithLossProvider installs a precomputed path-loss source consulted before
// the medium's own model when a link budget is (re)computed.
func WithLossProvider(p LossProvider) Option {
	return func(md *Medium) { md.lossProvider = p }
}

// Medium is the shared channel. Not safe for concurrent use: the simulation
// is single-threaded by design.
type Medium struct {
	kernel       *sim.Kernel
	pathLoss     phy.PathLossModel
	rejection    phy.RejectionCurve
	lossProvider LossProvider
	fadingSigma  float64
	staticSigma  float64
	fadingRNG    *sim.RNG
	staticRNG    *sim.RNG

	listeners []Listener
	// active holds the in-flight transmissions. finish removes by
	// swap-remove, so the slice is NOT ID-ordered; power sums always go
	// through orderedActive, which restores ID order — floating-point
	// sums must be evaluated in the same order every run.
	active []*Transmission
	// scratch is the reusable ID-ordered copy of active used by resums.
	// The sorted order is a property of the on-air set alone, so it is
	// memoized by epoch: the first cache miss after a change sorts, every
	// other listener missing in the same epoch reuses the result.
	scratch      []*Transmission
	scratchEpoch uint64
	scratchValid bool
	// txPool is the free-list of recycled Transmission objects. A
	// finished transmission (and its perL slice) parks here and is reset
	// on reuse, so steady-state churn allocates nothing.
	txPool []*Transmission
	// epoch counts on-air landscape changes (Transmit/finish/Detach).
	// Cached per-listener power sums are valid only within the epoch they
	// were computed in.
	epoch uint64
	// sums holds each listener's cached sensing sums, indexed by attach
	// ID in lockstep with listeners.
	sums []listenerSums
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
	// farUnitMW/farMaxCount/farN are derived constants, farBacked tracks
	// (in lockstep with listeners) whether each listener's position is
	// snapshot-backed, bySrc/unbounded index the active set for the folded
	// sums, spill backs link slots outside the rank-indexed rows, and
	// nearScratch is the folded sums' reusable gather buffer.
	farBudgetDB float64
	spatial     bool
	farUnitMW   float64
	farMaxCount int
	farN        int
	farBacked   []bool
	bySrc       [][]*Transmission
	unbounded   []*Transmission
	spill       map[int64]*linkSlot
	nearScratch []*Transmission
}

// sumCache is one listener's memoized SensedPower (or co-channel) result:
// the dBm total for one receiver tuning, valid within one epoch. A hit can
// only occur after the identical ID-ordered loop already ran in the same
// epoch, so returning the cached value is bit-identical to recomputing —
// and makes CCA sampling O(1) between on-air changes.
type sumCache struct {
	freq  phy.MHz
	epoch uint64
	dbm   phy.DBm
	valid bool
}

// interfCache is the Interference variant, additionally keyed by the wanted
// transmission being excluded from the sum.
type interfCache struct {
	freq   phy.MHz
	wanted uint64
	epoch  uint64
	dbm    phy.DBm
	valid  bool
}

// listenerSums carries one listener's cached sensing sums.
type listenerSums struct {
	sensed sumCache
	coch   sumCache
	interf interfCache
}

// linkSlot is one source's entry in a listener's dense link row. The
// first half is the static link budget: path loss for the pair's fixed
// geometry and the pair's one-time shadowing draw. The second half
// memoizes the pair's received and in-channel powers in milliwatts for one
// transmission (txID) and receiver tuning (inFreq); everything cached is
// a pure function of state frozen at Transmit time plus the
// transmission-pinned fading draw, so a recompute after any cache
// turnover is bit-identical.
type linkSlot struct {
	loss   float64 // path loss, dB
	static float64 // persistent shadowing draw, dB
	rxMW   float64 // RxPower of txID, milliwatts
	inMW   float64 // InChannelPower of txID at inFreq, milliwatts
	inFreq phy.MHz // receiver tuning inMW was computed for
	txID   uint64  // transmission the mW caches belong to
	known  bool    // link budget computed (shadowing drawn)
	hasRx  bool
	hasIn  bool
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

// Rejection exposes the curve so radios share the exact same filter model.
func (m *Medium) Rejection() phy.RejectionCurve { return m.rejection }

// Attach registers a listener and returns its medium ID. From then on the
// listener receives every OnAir/OffAir event until it detaches.
func (m *Medium) Attach(l Listener) int {
	m.listeners = append(m.listeners, l)
	m.sums = append(m.sums, listenerSums{})
	m.rows = append(m.rows, nil)
	id := len(m.listeners) - 1
	if m.spatial {
		m.farBacked = append(m.farBacked, m.lossProvider.Backed(id, l.Position()))
	}
	return id
}

// Detach removes a listener from the medium: it receives no further
// OnAir/OffAir notifications and contributes nothing to power sums. Its ID
// is never reused. Detaching mid-transmission is safe — a transmission the
// listener originated stays on the air until its scheduled end (the energy
// is already radiated) but completes without notifying the departed
// listener. Detaching an unknown or already-detached ID is a no-op.
func (m *Medium) Detach(id int) {
	if id < 0 || id >= len(m.listeners) {
		return
	}
	m.listeners[id] = nil
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
	}
	// The departed listener now measures Silent where a cached sum holds
	// its old landscape; invalidate every cached sum.
	m.epoch++
}

// Attached reports whether the ID currently belongs to a live listener.
func (m *Medium) Attached(id int) bool {
	return id >= 0 && id < len(m.listeners) && m.listeners[id] != nil
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
	m.fanout(tx, false)
	tx.activeIdx = len(m.active)
	m.active = append(m.active, tx)
	if m.spatial {
		m.trackActive(tx)
	}
	m.epoch++ // after the OnAir fan-out: listeners sensing there see the pre-change landscape
	m.kernel.At(tx.End, func() { m.finish(tx) })
	return tx
}

// newTransmission takes a recycled Transmission off the free-list (resetting
// it and its zeroed perL slice) or allocates a fresh one. Deterministic LIFO:
// the medium is single-threaded by design.
func (m *Medium) newTransmission() *Transmission {
	n := len(m.txPool)
	if n == 0 {
		return &Transmission{activeIdx: -1}
	}
	tx := m.txPool[n-1]
	m.txPool[n-1] = nil
	m.txPool = m.txPool[:n-1]
	perL := tx.perL[:cap(tx.perL)]
	for i := range perL {
		perL[i] = txListenerCache{}
	}
	*tx = Transmission{perL: perL[:0], activeIdx: -1}
	return tx
}

// DisseminationStats counts dissemination work: Events is the number of
// OnAir/OffAir fan-outs performed, Callbacks the listener notifications
// invoked. Every live listener hears every event, so Callbacks/Events is
// the mean live population (BenchmarkOnAirFanout).
type DisseminationStats struct {
	Events    uint64
	Callbacks uint64
}

// DisseminationStats returns the medium's fan-out counters.
func (m *Medium) DisseminationStats() DisseminationStats { return m.dstats }

// fanout delivers one OnAir (off=false) or OffAir (off=true) event to every
// live listener in ascending attach-ID order. Non-orthogonal channels leak
// into their neighbours, so a receiving radio must observe every event; an
// idle one rejects what it cannot lock on to in its own handler. Listeners
// detached by an earlier handler of the same event are skipped. The two
// loops keep the event kind out of the per-listener path, which is the
// medium's hottest loop in large cells.
func (m *Medium) fanout(tx *Transmission, off bool) {
	m.dstats.Events++
	if off {
		for _, l := range m.listeners {
			if l != nil {
				m.dstats.Callbacks++
				l.OffAir(tx)
			}
		}
		return
	}
	for _, l := range m.listeners {
		if l != nil {
			m.dstats.Callbacks++
			l.OnAir(tx)
		}
	}
}

func (m *Medium) finish(tx *Transmission) {
	m.fanout(tx, true)
	// Index-tracked swap-remove: O(1) instead of the old linear scan.
	// ID order of the slice is sacrificed; orderedActive restores it for
	// every power sum.
	if i := tx.activeIdx; i >= 0 && i < len(m.active) && m.active[i] == tx {
		last := len(m.active) - 1
		m.active[i] = m.active[last]
		m.active[i].activeIdx = i
		m.active[last] = nil
		m.active = m.active[:last]
		tx.activeIdx = -1
		if m.spatial {
			m.untrackActive(tx)
		}
		m.epoch++ // after the OffAir fan-out: receivers closing segments see tx still on the air
		// Park the transmission for reuse. Fields stay readable until the
		// object is actually reused — callers may still inspect Start/End
		// after the flight — and are reset in newTransmission.
		m.txPool = append(m.txPool, tx)
	}
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
	lb := m.link(tx.Src, listenerID, tx.Pos, l.Position())
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

// link returns the cached slot of the (src, listener) pair, filling its
// budget half on first use: the path loss for the pair's geometry plus the
// pair's one-time shadowing draw (drawn lazily, exactly when the first
// RxPower for the pair used to draw it). Positions are fixed while
// attached, so the budget never needs recomputing.
func (m *Medium) link(src, listenerID int, from, to phy.Position) *linkSlot {
	var s *linkSlot
	if m.spatial {
		s = m.spatialSlot(listenerID, src)
	} else {
		s = &m.linkRow(listenerID, src)[src]
	}
	if !s.known {
		s.loss = m.lookupLoss(src, listenerID, from, to)
		if m.staticSigma != 0 {
			s.static = m.staticRNG.Gaussian(0, m.staticSigma)
		}
		s.known = true
	}
	return s
}

// lookupLoss resolves the pair's path loss: from the installed provider's
// precomputed matrix when the pair and geometry match, else from the
// medium's own model. Providers guarantee bit-identical values for matched
// pairs, so the two sources are interchangeable.
func (m *Medium) lookupLoss(src, listenerID int, from, to phy.Position) float64 {
	if m.lossProvider != nil {
		if loss, ok := m.lossProvider.PairLoss(src, listenerID, from, to); ok {
			return loss
		}
	}
	return m.pathLoss.Loss(from.DistanceTo(to))
}

// slot returns tx's fading-cache slot for the listener, growing the table
// to the medium's current listener count on first touch. Recycled
// transmissions regrow into their previous (zeroed) capacity without
// allocating.
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
	if !s.hasFade {
		s.fade = m.fadingRNG.Gaussian(0, m.fadingSigma)
		s.hasFade = true
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
// answer does not depend on where the snapshot's bound lies.
func (m *Medium) Reachable(tx *Transmission, listenerID int) bool {
	if listenerID < 0 || listenerID >= len(m.listeners) || m.lossProvider == nil {
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
	loss, ok := m.lossProvider.PairLoss(tx.Src, listenerID, tx.Pos, l.Position())
	if !ok {
		bound, okf := m.lossProvider.PairLossFloor(tx.Src, listenerID, tx.Pos, l.Position())
		if !okf {
			return true // outside the snapshot geometry: no proof
		}
		if power-phy.DBm(bound)+phy.ReachMarginDB < phy.Sensitivity {
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
	rx := m.RxPower(tx, listenerID)
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

// orderedActive returns the active set sorted by transmission ID, in a
// scratch slice reused across calls. finish's swap-remove leaves m.active
// unordered, but every floating-point power sum must run in ID order to
// stay deterministic; the insertion sort is cheap because the set is small
// and nearly sorted.
func (m *Medium) orderedActive() []*Transmission {
	if m.scratchValid && m.scratchEpoch == m.epoch {
		return m.scratch
	}
	s := append(m.scratch[:0], m.active...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	m.scratch = s
	m.scratchEpoch = m.epoch
	m.scratchValid = true
	return s
}

// SensedPower returns the total in-channel energy a receiver tuned to freq
// measures at listener l — the quantity the CCA and the RSSI register see.
// It includes the noise floor; exclude (may be nil) is omitted from the sum,
// which a transmitting radio uses to ignore its own signal.
//
// The sum is cached per listener and tuning, keyed by the on-air epoch:
// repeated samples between on-air changes — the CCA hot path — cost O(1).
// The cache is exact, not approximate: a hit can only occur after the
// identical ID-ordered loop already ran in the same epoch, so both the
// returned bits and the lazy fading/shadowing RNG draw order match the
// direct computation.
func (m *Medium) SensedPower(listenerID int, freq phy.MHz, exclude *Transmission) phy.DBm {
	if m.listeners[listenerID] == nil {
		return phy.Silent // detached listener measures nothing
	}
	if exclude != nil && exclude.Src != listenerID {
		// Excluding a foreign transmission changes the sum's composition
		// in a way the per-listener cache does not model; compute
		// directly. A radio ignoring its own signal (the common case,
		// exclude.Src == listenerID) skips the same set of transmissions
		// as exclude == nil, because the listener's own transmissions are
		// always skipped — the cached value is valid for both.
		return m.sensedPowerDirect(listenerID, freq, exclude)
	}
	c := &m.sums[listenerID].sensed
	if !c.valid || c.epoch != m.epoch || c.freq != freq {
		*c = sumCache{
			freq:  freq,
			epoch: m.epoch,
			dbm:   m.sensedPowerDirect(listenerID, freq, exclude),
			valid: true,
		}
	}
	return c.dbm
}

// sumSet returns the ID-ordered transmissions the listener's power sums
// visit and the far-field term they add: the whole active set and 0 for a
// plain listener; with the far-field fold active, a backed listener's
// near field and the certified aggregate of everything beyond it
// (farfield.go). Adding the 0 term leaves a plain sum's bits unchanged.
func (m *Medium) sumSet(listenerID int) (set []*Transmission, farMW float64) {
	if m.folded(listenerID) {
		return m.nearActive(listenerID), m.farFoldMW(listenerID)
	}
	return m.orderedActive(), 0
}

// sensedPowerDirect is the reference ID-ordered sum behind SensedPower.
func (m *Medium) sensedPowerDirect(listenerID int, freq phy.MHz, exclude *Transmission) phy.DBm {
	set, farMW := m.sumSet(listenerID)
	total := phy.NoiseFloorMW + farMW
	for _, tx := range set {
		if exclude != nil && tx.ID == exclude.ID {
			continue
		}
		if tx.Src == listenerID {
			continue
		}
		total += m.inChannelMW(tx, listenerID, freq)
	}
	return phy.FromMilliwatts(total)
}

// SensedCoChannelPower returns only the co-channel portion of the sensed
// energy at listener l: transmissions on exactly the listener's center
// frequency, plus the noise floor. Real CC2420 hardware cannot measure
// this quantity — its energy detector integrates the whole filter
// bandwidth — so this accessor exists for the oracle CCA policy that
// quantifies the paper's Section VII-C future-work upper bound.
// Cached per (listener, tuning, epoch) exactly like SensedPower.
func (m *Medium) SensedCoChannelPower(listenerID int, freq phy.MHz, exclude *Transmission) phy.DBm {
	if m.listeners[listenerID] == nil {
		return phy.Silent // detached listener measures nothing
	}
	if exclude != nil && exclude.Src != listenerID {
		return m.sensedCoChannelDirect(listenerID, freq, exclude)
	}
	c := &m.sums[listenerID].coch
	if !c.valid || c.epoch != m.epoch || c.freq != freq {
		*c = sumCache{
			freq:  freq,
			epoch: m.epoch,
			dbm:   m.sensedCoChannelDirect(listenerID, freq, exclude),
			valid: true,
		}
	}
	return c.dbm
}

// sensedCoChannelDirect is the reference ID-ordered sum behind
// SensedCoChannelPower. The far-field fold is frequency-blind (its
// certificate bounds total in-channel power), so a folded co-channel
// reading carries the same one-sided error bound as SensedPower.
func (m *Medium) sensedCoChannelDirect(listenerID int, freq phy.MHz, exclude *Transmission) phy.DBm {
	set, farMW := m.sumSet(listenerID)
	total := phy.NoiseFloorMW + farMW
	for _, tx := range set {
		if exclude != nil && tx.ID == exclude.ID {
			continue
		}
		if tx.Src == listenerID || tx.Freq != freq {
			continue
		}
		total += m.rxMW(tx, listenerID)
	}
	return phy.FromMilliwatts(total)
}

// Interference returns the combined in-channel interference (excluding the
// noise floor and the wanted transmission itself) a receiver locked to
// wanted experiences at listener l. Cached per (listener, tuning, wanted,
// epoch) — a receiver repeatedly probing the landscape around one locked
// frame between on-air changes pays the loop once.
func (m *Medium) Interference(wanted *Transmission, listenerID int, freq phy.MHz) phy.DBm {
	c := &m.sums[listenerID].interf
	if !c.valid || c.epoch != m.epoch || c.freq != freq || c.wanted != wanted.ID {
		*c = interfCache{
			freq:   freq,
			wanted: wanted.ID,
			epoch:  m.epoch,
			dbm:    m.interferenceDirect(wanted, listenerID, freq),
			valid:  true,
		}
	}
	return c.dbm
}

// interferenceDirect is the reference ID-ordered sum behind Interference.
// It excludes the noise floor but not the far-field term: a receiver's
// SINR denominator must account for the folded far field.
func (m *Medium) interferenceDirect(wanted *Transmission, listenerID int, freq phy.MHz) phy.DBm {
	set, total := m.sumSet(listenerID)
	for _, tx := range set {
		if tx.ID == wanted.ID || tx.Src == listenerID {
			continue
		}
		total += m.inChannelMW(tx, listenerID, freq)
	}
	return phy.FromMilliwatts(total)
}
