// Package net80211 is a deliberately small 802.11b model used for one
// purpose: reproducing the paper's Fig. 2, the contrast between 802.11 and
// 802.15.4 on partially overlapped channels.
//
// The decisive difference is receiver behaviour. An 802.11b receiver locks
// onto and attempts to decode packets arriving from overlapping channels —
// the paper cites Mishra et al.: "inter-channel interference acts as valid
// packets and forces the receiver to decode it (even ... 15 MHz away);
// during the decoding, the receiver loses the desired packet". An 802.15.4
// receiver cannot synchronise to an off-channel carrier at all. This
// package implements the 802.11 side; the main simulator provides the
// 802.15.4 side.
package net80211

import (
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// 802.11b constants used by the model.
const (
	// ChannelSpacing between adjacent 2.4 GHz Wi-Fi channels.
	ChannelSpacing phy.MHz = 5
	// Channel1Freq is the center of channel 1.
	Channel1Freq phy.MHz = 2412
	// LockRange is how far off-channel a packet can be and still capture
	// the receiver's decoder (three channels, 15 MHz).
	LockRange phy.MHz = 15
	// CSThreshold is the DCF carrier-sense (energy-detect) threshold.
	CSThreshold phy.DBm = -82
	// Sensitivity below which a preamble cannot capture the decoder.
	Sensitivity phy.DBm = -88
	// SlotTime, DIFS and CWMax shape the DCF backoff.
	SlotTime = 20 * time.Microsecond
	// DIFS is the DCF inter-frame space.
	DIFS = 50 * time.Microsecond
	// CW is the (fixed, for this model) contention window in slots.
	CW = 31
	// CaptureSINR is the SINR above which a locked packet decodes.
	CaptureSINR = 4.0
)

// ChannelFreq returns the center frequency of 802.11b channel ch (1-11).
func ChannelFreq(ch int) phy.MHz {
	return Channel1Freq + phy.MHz(ch-1)*ChannelSpacing
}

// OverlapCurve is the spectral-overlap attenuation between two 22 MHz-wide
// 802.11b signals as a function of center-frequency distance. It plays the
// role phy.RejectionCurve plays for 802.15.4, so the generic medium can be
// reused.
type OverlapCurve struct{}

var overlapAnchors = []struct {
	off phy.MHz
	db  float64
}{
	{0, 0}, {5, 0.5}, {10, 2}, {15, 5}, {20, 9}, {25, 15}, {30, 30}, {35, 45}, {40, 50},
}

// RejectionDB implements phy.RejectionCurve for the Wi-Fi overlap model.
func (OverlapCurve) RejectionDB(deltaF phy.MHz) float64 {
	f := deltaF
	if f < 0 {
		f = -f
	}
	last := overlapAnchors[len(overlapAnchors)-1]
	if f >= last.off {
		return last.db
	}
	for i := 1; i < len(overlapAnchors); i++ {
		if f <= overlapAnchors[i].off {
			lo, hi := overlapAnchors[i-1], overlapAnchors[i]
			frac := float64(f-lo.off) / float64(hi.off-lo.off)
			return lo.db + frac*(hi.db-lo.db)
		}
	}
	return last.db
}

// Station is one 802.11b node: a saturated DCF sender or a receiver.
type Station struct {
	kernel *sim.Kernel
	medium *medium.Medium
	id     int
	pos    phy.Position
	freq   phy.MHz
	power  phy.DBm
	rng    *sim.RNG

	transmitting bool
	locked       *medium.Transmission
	lockedSINRok bool

	// Delivered counts co-channel packets successfully decoded. When
	// WatchSrc is >= 0, only packets from that station are counted.
	Delivered int
	// WatchSrc restricts Delivered to one transmitter's medium ID
	// (-1, the default, counts any co-channel packet).
	WatchSrc int
	// ForeignLocks counts decoder captures by off-channel packets — the
	// wasted receptions that destroy 802.11 overlap concurrency.
	ForeignLocks int
	// Sent counts transmissions put on the air.
	Sent int

	payload int
}

// NewStation attaches a station to the medium on the given Wi-Fi channel.
func NewStation(k *sim.Kernel, m *medium.Medium, name string, pos phy.Position, ch int, power phy.DBm) *Station {
	s := &Station{
		kernel:   k,
		medium:   m,
		pos:      pos,
		freq:     ChannelFreq(ch),
		power:    power,
		rng:      k.Stream("net80211." + name),
		WatchSrc: -1,
	}
	// The station stays WakeAll: it locks on to off-channel frames within
	// LockRange, so no single-channel class covers what it acts on.
	s.id = m.Attach(s)
	return s
}

// Position implements medium.Listener.
func (s *Station) Position() phy.Position { return s.pos }

// StartSaturated begins an endless saturated DCF transmit loop of frames
// with the given payload size.
func (s *Station) StartSaturated(payload int) {
	s.payload = payload
	s.scheduleAttempt()
}

func (s *Station) scheduleAttempt() {
	backoff := DIFS + time.Duration(s.rng.Intn(CW+1))*SlotTime
	s.kernel.After(backoff, s.attempt)
}

func (s *Station) attempt() {
	// DCF energy-detect carrier sense on our own channel: overlapping
	// foreign energy above CSThreshold defers us, co-channel obviously too.
	if s.medium.SensedPower(s.id, s.freq) > CSThreshold || s.transmitting {
		s.scheduleAttempt()
		return
	}
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, s.payload)}
	s.transmitting = true
	s.Sent++
	tx := s.medium.Transmit(s.id, s.pos, s.power, s.freq, f)
	s.kernel.At(tx.End, func() {
		s.transmitting = false
		s.scheduleAttempt()
	})
}

// OnAir implements medium.Listener: the 802.11 decoder locks onto ANY
// sufficiently strong packet within LockRange of its channel, co-channel
// or not.
func (s *Station) OnAir(tx *medium.Transmission) {
	if tx.Src == s.id || s.transmitting || s.locked != nil {
		return
	}
	off := tx.Freq - s.freq
	if off < 0 {
		off = -off
	}
	if off > LockRange {
		return
	}
	if s.medium.RxPower(tx, s.id) < Sensitivity {
		return
	}
	s.locked = tx
	sinr := phy.SINR(s.medium.InChannelPower(tx, s.id, s.freq),
		phy.FromMilliwatts(s.medium.InterferenceMW(tx, s.id, s.freq)))
	s.lockedSINRok = sinr >= CaptureSINR
	if off != 0 {
		s.ForeignLocks++
	}
}

// OffAir implements medium.Listener.
func (s *Station) OffAir(tx *medium.Transmission) {
	if s.locked != tx {
		return
	}
	if tx.Freq == s.freq && s.lockedSINRok &&
		(s.WatchSrc < 0 || tx.Src == s.WatchSrc) {
		s.Delivered++
	}
	s.locked = nil
}

// Interferer is a duty-cycled wideband 802.11 traffic source used for
// coexistence studies: it blasts back-to-back frames for BusyTime, idles
// for IdleTime, and repeats — the on/off envelope of a busy Wi-Fi cell as
// seen by a sensor network. It performs no carrier sense: real Wi-Fi
// rarely defers to 802.15.4, whose signals sit below the Wi-Fi
// energy-detect threshold.
type Interferer struct {
	kernel *sim.Kernel
	medium *medium.Medium
	id     int
	pos    phy.Position
	freq   phy.MHz
	power  phy.DBm

	// BusyTime and IdleTime shape the duty cycle.
	BusyTime, IdleTime time.Duration
	// Bursts counts completed busy periods.
	Bursts int

	running bool
}

// SignalWidth is the occupied bandwidth of an 802.11b transmission.
const SignalWidth phy.MHz = 22

// NewInterferer attaches a wideband interferer on the given Wi-Fi channel.
func NewInterferer(k *sim.Kernel, m *medium.Medium, pos phy.Position, ch int, power phy.DBm) *Interferer {
	i := &Interferer{
		kernel:   k,
		medium:   m,
		pos:      pos,
		freq:     ChannelFreq(ch),
		power:    power,
		BusyTime: 20 * time.Millisecond,
		IdleTime: 20 * time.Millisecond,
	}
	i.id = m.Attach(i)
	m.SetWake(i.id, medium.WakeOwn, 0) // its handlers are empty
	return i
}

// Position implements medium.Listener.
func (i *Interferer) Position() phy.Position { return i.pos }

// OnAir implements medium.Listener (the interferer never receives).
func (i *Interferer) OnAir(*medium.Transmission) {}

// OffAir implements medium.Listener.
func (i *Interferer) OffAir(*medium.Transmission) {}

// Start begins the duty cycle.
func (i *Interferer) Start() {
	if i.running {
		return
	}
	i.running = true
	i.busyPhase()
}

// Stop halts the duty cycle after the current frame.
func (i *Interferer) Stop() { i.running = false }

func (i *Interferer) busyPhase() {
	if !i.running {
		return
	}
	end := i.kernel.Now() + sim.FromDuration(i.BusyTime)
	var next func()
	next = func() {
		if !i.running || i.kernel.Now() >= end {
			i.Bursts++
			i.kernel.After(i.IdleTime, i.busyPhase)
			return
		}
		f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 100)}
		tx := i.medium.TransmitShaped(i.id, i.pos, i.power, i.freq, SignalWidth, f)
		i.kernel.At(tx.End, next)
	}
	next()
}
