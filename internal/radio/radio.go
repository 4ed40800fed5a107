// Package radio models a CC2420-class IEEE 802.15.4 transceiver: a state
// machine with clear-channel assessment against a programmable threshold,
// an RSSI register, preamble lock-on, and per-segment interference
// integration that yields both packet verdicts and bit-error statistics.
//
// The model captures the property the paper's design rests on: the
// receiver can only synchronise to packets on its own channel. Energy from
// other channels (even 1 MHz away) is never decoded — it enters the SINR
// as filtered interference only.
package radio

import (
	"fmt"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// State is the transceiver state.
type State int

// Radio states.
const (
	StateOff State = iota + 1
	StateIdle
	StateRX
	StateTX
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateIdle:
		return "idle"
	case StateRX:
		return "rx"
	case StateTX:
		return "tx"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// bitPeriod is the duration of one bit at 250 kbps.
const bitPeriod = 4 * sim.Microsecond

// Reception describes a frame whose preamble the radio captured, whether or
// not it finally passed the CRC.
type Reception struct {
	// Frame is the MAC frame carried by the transmission.
	Frame *frame.Frame
	// RSSI is the received signal strength the radio records for the
	// packet, as the CC2420 stamps into the RX FIFO.
	RSSI phy.DBm
	// BitErrors is the number of corrupted MPDU bits.
	BitErrors int
	// TotalBits is the MPDU size in bits.
	TotalBits int
	// CRCOK reports whether the frame decoded cleanly.
	CRCOK bool
	// Collided reports whether any interference above the noise floor
	// overlapped the reception.
	Collided bool
	// Start and End bound the reception interval.
	Start, End sim.Time
}

// ErrorFraction is the proportion of corrupted bits, the quantity of the
// paper's Fig. 29.
func (r Reception) ErrorFraction() float64 {
	if r.TotalBits == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.TotalBits)
}

// Config parameterises a radio.
type Config struct {
	// Pos is the antenna position.
	Pos phy.Position
	// Freq is the channel center frequency the radio is tuned to.
	Freq phy.MHz
	// TxPower is the transmit power.
	TxPower phy.DBm
	// CCAThreshold is the programmable clear-channel threshold; the
	// CC2420/ZigBee default is -77 dBm.
	CCAThreshold phy.DBm
	// Address is the node's short address.
	Address frame.Address
	// CaptureMargin enables message-in-message capture when positive: a
	// co-channel packet arriving at least this many dB above the one
	// being received steals the lock (the weaker frame is lost). Zero
	// disables capture, the conservative default.
	CaptureMargin phy.DBm
}

// RegisterStats counts anomalous interactions with the CCA threshold
// register — the observability the fault-injection subsystem relies on.
type RegisterStats struct {
	// OutOfRangeWrites counts SetCCAThreshold calls whose value had to be
	// clamped into the CC2420 programmable range.
	OutOfRangeWrites int
	// IgnoredWrites counts writes silently dropped while the register was
	// stuck (fault injection).
	IgnoredWrites int
}

// SegmentStats counts the reception segments a radio closed, by how their
// bit errors were charged. Plain deterministic counters: the same seed
// yields the same counts on any host.
type SegmentStats struct {
	// Closed counts segments that carried at least one whole bit.
	Closed uint64
	// CertifiedZero counts segments whose SINR was provably at or above
	// phy.ZeroBERSINR, charged zero errors without evaluating the BER.
	CertifiedZero uint64
	// CertifiedTiny counts segments whose SINR was provably inside
	// [phy.TinyBERLoSINR, phy.TinyBERHiSINR], charged
	// Binomial(bits, phy.TinyBERMax) without evaluating the SINR or BER.
	CertifiedTiny uint64
	// Exact counts segments charged through the SINR→BER→Binomial chain.
	Exact uint64
}

// Add accumulates o into s.
func (s *SegmentStats) Add(o SegmentStats) {
	s.Closed += o.Closed
	s.CertifiedZero += o.CertifiedZero
	s.CertifiedTiny += o.CertifiedTiny
	s.Exact += o.Exact
}

// certMarginDB is the slack both certificates keep inside their SINR
// bounds: 0.23% in linear power, many orders of magnitude above the
// rounding of the exact path's mW→dBm→mW round trip and of the tiny-BER
// bounds' derivation from zeroMW, so a certified segment's exact SINR can
// never fall outside the certified range.
const certMarginDB = 0.01

// tinyMinFactor and tinyMaxFactor scale a reception's zeroMW to its
// tiny-BER bounds, so a lock-on pays one power of ten instead of three:
// (signal − TinyBERHiSINR + m) = (signal − ZeroBERSINR − m) +
// (ZeroBERSINR − TinyBERHiSINR + 2m), and likewise for TinyBERLoSINR.
var (
	tinyMinFactor = phy.DBm(phy.ZeroBERSINR - phy.TinyBERHiSINR + 2*certMarginDB).Milliwatts()
	tinyMaxFactor = phy.DBm(phy.ZeroBERSINR - phy.TinyBERLoSINR).Milliwatts()
)

// Radio is one transceiver attached to a medium. Single-threaded, like the
// rest of the simulation.
type Radio struct {
	kernel *sim.Kernel
	medium *medium.Medium
	id     int
	cfg    Config
	state  State
	rng    *sim.RNG

	// rssiOffset is a calibration error added to every measured power
	// (sensed energy and reported packet RSSI). It shifts what the radio
	// *reads*, never the physics: SINR integration uses true powers.
	rssiOffset phy.DBm
	// ccaStuck, when set, makes the CCA threshold register ignore writes —
	// the stuck-register fault model.
	ccaStuck bool
	regStats RegisterStats
	segStats SegmentStats

	rx     *receptionState
	energy energyMeter

	// rxBuf backs rx: the state never escapes a reception (receivers get a
	// Reception value), so one embedded buffer per radio replaces a heap
	// allocation per lock-on.
	rxBuf receptionState

	// OnReceive is invoked for every co-channel frame whose preamble was
	// captured, including CRC failures and frames addressed elsewhere —
	// the promiscuous view the DCN CCA-Adjustor needs.
	OnReceive func(Reception)
	// OnTxDone is invoked when the radio's own transmission leaves the air.
	OnTxDone func(*medium.Transmission)
}

type receptionState struct {
	tx     *medium.Transmission
	signal phy.DBm
	// zeroMW bounds the noise-plus-interference, in milliwatts, under
	// which a segment's SINR is at least phy.ZeroBERSINR + certMarginDB.
	zeroMW float64
	// tinyMinMW and tinyMaxMW bound the noise-plus-interference, in
	// milliwatts, between which a segment's SINR lies in
	// [phy.TinyBERLoSINR + certMarginDB, phy.TinyBERHiSINR − certMarginDB],
	// up to the few ulps of their derivation from zeroMW, which
	// certMarginDB absorbs.
	tinyMinMW float64
	tinyMaxMW float64
	bitErrors int
	segStart  sim.Time
	collided  bool
	carry     float64 // fractional bits not yet attributed to a segment
}

// newReception starts a reception of tx at the given signal power.
func newReception(tx *medium.Transmission, signal phy.DBm, now sim.Time, collided bool) receptionState {
	zeroMW := (signal - phy.ZeroBERSINR - certMarginDB).Milliwatts()
	return receptionState{
		tx:        tx,
		signal:    signal,
		zeroMW:    zeroMW,
		tinyMinMW: zeroMW * tinyMinFactor,
		tinyMaxMW: zeroMW * tinyMaxFactor,
		segStart:  now,
		collided:  collided,
	}
}

// New attaches a radio to the medium in the idle state.
func New(k *sim.Kernel, m *medium.Medium, cfg Config) *Radio {
	r := &Radio{
		kernel: k,
		medium: m,
		cfg:    cfg,
		state:  StateIdle,
		rng:    k.Stream(fmt.Sprintf("radio.%d.bits", cfg.Address)),
	}
	// The hardware register cannot hold an out-of-range threshold, however
	// the radio was configured.
	r.cfg.CCAThreshold, _ = phy.ClampCCAThreshold(cfg.CCAThreshold)
	r.energy.account(r.state, cfg.TxPower, k.Now()) // start the meter
	r.id = m.Attach(r)
	r.wake()
	return r
}

// wake declares to the medium the on-air events the radio's handlers can
// act on, given its state and tuning: exactly the events OnAir and OffAir
// do not return from at once. A receiving radio acts on every event, since
// any change of the landscape closes a segment of its reception; an idle
// one only on preambles on its own channel; a transmitting or powered-off
// one only on its own OffAir, which every class delivers. The one place
// the mapping lives: setState, SetFreq and New call it.
func (r *Radio) wake() {
	switch r.state {
	case StateRX:
		r.medium.SetWake(r.id, medium.WakeAll, 0)
	case StateIdle:
		r.medium.SetWake(r.id, medium.WakeTuned, r.cfg.Freq)
	default:
		r.medium.SetWake(r.id, medium.WakeOwn, 0)
	}
}

// ID returns the radio's medium attachment ID.
func (r *Radio) ID() int { return r.id }

// Position implements medium.Listener.
func (r *Radio) Position() phy.Position { return r.cfg.Pos }

// State reports the transceiver state.
func (r *Radio) State() State { return r.state }

// Config returns a copy of the radio's configuration.
func (r *Radio) Config() Config { return r.cfg }

// Freq returns the tuned channel center frequency.
func (r *Radio) Freq() phy.MHz { return r.cfg.Freq }

// Address returns the radio's short address.
func (r *Radio) Address() frame.Address { return r.cfg.Address }

// SetCCAThreshold reprograms the CCA threshold register, the knob the DCN
// CCA-Adjustor turns. Values outside the CC2420 programmable range are
// clamped (and counted), so injected drift can never program an impossible
// threshold. While the register is stuck (fault injection) the write is
// silently ignored, exactly as the fault model prescribes.
func (r *Radio) SetCCAThreshold(t phy.DBm) {
	if r.ccaStuck {
		r.regStats.IgnoredWrites++
		return
	}
	v, clamped := phy.ClampCCAThreshold(t)
	if clamped {
		r.regStats.OutOfRangeWrites++
	}
	r.cfg.CCAThreshold = v
}

// CCAThreshold reads the current threshold register.
func (r *Radio) CCAThreshold() phy.DBm { return r.cfg.CCAThreshold }

// RegisterStats returns the CCA register write anomaly counters.
func (r *Radio) RegisterStats() RegisterStats { return r.regStats }

// SetCCAStuck injects (true) or clears (false) the stuck-register fault:
// while stuck, SetCCAThreshold writes are silently ignored.
func (r *Radio) SetCCAStuck(stuck bool) { r.ccaStuck = stuck }

// CCAStuck reports whether the stuck-register fault is active.
func (r *Radio) CCAStuck() bool { return r.ccaStuck }

// SetRSSICalibration injects an additive calibration error, in dB, into
// every power measurement the radio reports (sensed energy, packet RSSI).
// Zero restores a perfectly calibrated radio.
func (r *Radio) SetRSSICalibration(offset phy.DBm) { r.rssiOffset = offset }

// RSSICalibration returns the current calibration error.
func (r *Radio) RSSICalibration() phy.DBm { return r.rssiOffset }

// SetTxPower reprograms the transmit power.
func (r *Radio) SetTxPower(p phy.DBm) { r.cfg.TxPower = p }

// SetAddress rewrites the hardware address-recognition register — the
// operation a device performs after a PAN coordinator assigns it a short
// address during association.
func (r *Radio) SetAddress(a frame.Address) { r.cfg.Address = a }

// SetFreq retunes the synthesizer to a new channel center frequency — the
// operation a channel-hopping MAC performs at every slot boundary. Any
// reception in progress is lost (the PLL leaves the channel), matching
// hardware behaviour.
func (r *Radio) SetFreq(f phy.MHz) {
	if r.cfg.Freq == f {
		return
	}
	r.abortRx()
	r.cfg.Freq = f
	r.wake()
}

// SetOff powers the radio down, aborting any reception in progress. Used
// for failure injection.
func (r *Radio) SetOff() {
	r.abortRx()
	r.setState(StateOff)
}

// SetOn powers an off radio back to idle. No-op in any other state.
func (r *Radio) SetOn() {
	if r.state == StateOff {
		r.setState(StateIdle)
	}
}

// SensedPower reads the RSSI register: total in-channel energy, the
// quantity CCA compares against the threshold. The medium leaves the
// radio's own transmissions out of the sum, so a reading taken during TX
// sees only the rest of the air. The reading includes any injected
// calibration error.
func (r *Radio) SensedPower() phy.DBm {
	return r.medium.SensedPower(r.id, r.cfg.Freq) + r.rssiOffset
}

// CCAClear performs a clear-channel assessment: true when the sensed
// in-channel energy does not exceed the programmed threshold.
func (r *Radio) CCAClear() bool {
	return r.SensedPower() <= r.cfg.CCAThreshold
}

// SensedCoChannelPower reads only the co-channel energy — an oracle
// measurement no real CC2420 can make (see Medium.SensedCoChannelPower).
// It backs the interference-differentiating CCA upper bound of the
// paper's Section VII-C.
func (r *Radio) SensedCoChannelPower() phy.DBm {
	return r.medium.SensedCoChannelPower(r.id, r.cfg.Freq)
}

// Transmit puts f on the air at the radio's channel and power. Any
// reception in progress is abandoned (the PLL retunes to TX), exactly as on
// real hardware when the MAC strobes TXON. Returns an error if the radio is
// off or already transmitting.
func (r *Radio) Transmit(f *frame.Frame) (*medium.Transmission, error) {
	switch r.state {
	case StateOff:
		return nil, fmt.Errorf("radio %d: transmit while off", r.cfg.Address)
	case StateTX:
		return nil, fmt.Errorf("radio %d: transmit while already transmitting", r.cfg.Address)
	}
	r.abortRx()
	r.setState(StateTX)
	return r.medium.Transmit(r.id, r.cfg.Pos, r.cfg.TxPower, r.cfg.Freq, f), nil
}

// OnAir implements medium.Listener.
func (r *Radio) OnAir(tx *medium.Transmission) {
	if tx.Src == r.id {
		return // our own signal
	}
	if r.state == StateOff || r.state == StateTX {
		return // deaf while off or transmitting
	}
	if r.state == StateRX {
		// Interference landscape changed mid-reception.
		r.closeSegment()
		r.rx.collided = true
		// Message-in-message capture: a sufficiently stronger co-channel
		// arrival steals the lock.
		if r.cfg.CaptureMargin > 0 && tx.Freq == r.cfg.Freq {
			if newSignal := r.medium.RxPower(tx, r.id); newSignal >= r.rx.signal+r.cfg.CaptureMargin {
				r.rxBuf = newReception(tx, newSignal, r.kernel.Now(), true)
				r.rx = &r.rxBuf
			}
		}
		return
	}
	// Idle: can we lock on? Only co-channel preambles are decodable —
	// the 802.15.4 receiver cannot synchronise to an offset carrier.
	if tx.Freq != r.cfg.Freq {
		return
	}
	// A transmission provably below the sensitivity floor cannot lock,
	// and must not consume a fading draw.
	if !r.medium.Reachable(tx, r.id) {
		return
	}
	signal := r.medium.RxPower(tx, r.id)
	if signal < phy.Sensitivity {
		return
	}
	r.setState(StateRX)
	r.rxBuf = newReception(tx, signal, r.kernel.Now(), false)
	r.rx = &r.rxBuf
	// The probe's sum also makes the lazy fading draws of every other
	// transmission on the air, in ID order, so it runs at every lock-on.
	// The comparison is made in dBm: a Silent contributor adds 1e-100 mW.
	if phy.FromMilliwatts(r.medium.InterferenceMW(tx, r.id, r.cfg.Freq)) > phy.Silent {
		r.rx.collided = true
	}
}

// OffAir implements medium.Listener.
func (r *Radio) OffAir(tx *medium.Transmission) {
	if tx.Src == r.id {
		if r.state == StateTX {
			r.setState(StateIdle)
		}
		if r.OnTxDone != nil {
			r.OnTxDone(tx)
		}
		return
	}
	if r.state != StateRX {
		return
	}
	if r.rx.tx == tx {
		r.finishRx()
		return
	}
	// An interferer left mid-reception.
	r.closeSegment()
}

// closeSegment integrates bit errors over the elapsed segment at the
// current interference level and starts a new segment.
//
// Two certificates skip the chain. A segment whose noise-plus-interference
// is at most rx.zeroMW has an SINR of at least phy.ZeroBERSINR, where
// phy.BitErrorRate is exactly 0 and RNG.Binomial returns 0 without a
// draw; it is charged 0 errors. A segment whose sum lies in
// [rx.tinyMinMW, rx.tinyMaxMW] has an SINR in the tiny-BER band, where
// the BER lies in (0, phy.TinyBERMax] and RNG.Binomial returns the same
// count from the same draws as at phy.TinyBERMax; it is charged that.
// Every other segment takes the exact path. All three read the same
// medium sum, so the fading draws happen either way and the charged
// errors and RNG positions match the exact path bit for bit.
func (r *Radio) closeSegment() {
	now := r.kernel.Now()
	elapsed := now - r.rx.segStart
	r.rx.segStart = now
	if elapsed <= 0 {
		return
	}
	exact := float64(elapsed)/float64(bitPeriod) + r.rx.carry
	bits := int(exact)
	r.rx.carry = exact - float64(bits)
	if bits == 0 {
		return
	}
	r.segStats.Closed++
	interfMW := r.medium.InterferenceMW(r.rx.tx, r.id, r.cfg.Freq)
	sumMW := interfMW + phy.NoiseFloorMW
	if sumMW <= r.rx.zeroMW {
		r.segStats.CertifiedZero++
		return
	}
	if sumMW >= r.rx.tinyMinMW && sumMW <= r.rx.tinyMaxMW {
		r.segStats.CertifiedTiny++
		r.rx.bitErrors += r.rng.Binomial(bits, phy.TinyBERMax)
		return
	}
	r.segStats.Exact++
	ber := phy.BitErrorRate(phy.SINR(r.rx.signal, phy.FromMilliwatts(interfMW)))
	r.rx.bitErrors += r.rng.Binomial(bits, ber)
}

// SegmentStats returns the radio's reception-segment counters.
func (r *Radio) SegmentStats() SegmentStats { return r.segStats }

func (r *Radio) finishRx() {
	r.closeSegment()
	rx := r.rx
	r.rx = nil
	r.setState(StateIdle)

	total := rx.tx.Frame.PayloadBits()
	errs := rx.bitErrors
	if errs > total {
		errs = total
	}
	rcv := Reception{
		Frame:     rx.tx.Frame,
		RSSI:      rx.signal + r.rssiOffset,
		BitErrors: errs,
		TotalBits: total,
		CRCOK:     errs == 0,
		Collided:  rx.collided,
		Start:     rx.tx.Start,
		End:       rx.tx.End,
	}
	if r.OnReceive != nil {
		r.OnReceive(rcv)
	}
}

func (r *Radio) abortRx() {
	if r.state == StateRX {
		r.rx = nil
		r.setState(StateIdle)
	}
}
