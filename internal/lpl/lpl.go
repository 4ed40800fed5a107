// Package lpl implements a preamble-sampling low-power-listening MAC in
// the B-MAC/X-MAC family: receivers sleep almost always and wake every
// check interval for a single energy sample (a CCA); senders precede each
// data frame with a strobe train long enough to span the receivers' check
// interval, so a sampling receiver finds energy, stays awake, decodes a
// strobe carrying its address and waits for the data frame.
//
// The wake decision is an energy-vs-threshold comparison — the very same
// mechanism the paper studies for CSMA. On non-orthogonal channel plans,
// neighbour-channel leakage above the threshold causes FALSE WAKEUPS: the
// receiver burns listen energy for traffic it can never decode. A
// DCN-style adaptive threshold (above the filtered foreign energy, below
// co-channel strobe RSSI) removes them; the lpl experiment quantifies it.
package lpl

import (
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
)

// Defaults of the LPL scheme.
const (
	// DefaultCheckInterval is the receiver's sampling period.
	DefaultCheckInterval = 100 * time.Millisecond
	// StrobePayload marks strobe frames (empty payload, command type
	// would clash with association; a 1-byte marker keeps it simple).
	strobeMarker = 0xAA
	// wakeListen is how long a woken receiver waits for a decodable
	// strobe before declaring the wakeup false and going back to sleep.
	wakeListen = 12 * time.Millisecond
)

// Receiver is a duty-cycled LPL listener.
type Receiver struct {
	kernel *sim.Kernel
	radio  *radio.Radio

	// CheckInterval is the sampling period.
	CheckInterval time.Duration
	// WakeThreshold is the energy level that keeps the radio awake.
	WakeThreshold phy.DBm

	wakeups      int
	falseWakeups int
	received     int

	awake   bool
	pending sim.Event

	// OnReceive delivers data frames addressed to this node.
	OnReceive func(radio.Reception)
}

// NewReceiver builds an LPL receiver on the radio; Start begins sampling.
func NewReceiver(k *sim.Kernel, r *radio.Radio, checkInterval time.Duration, threshold phy.DBm) *Receiver {
	if checkInterval <= 0 {
		checkInterval = DefaultCheckInterval
	}
	rx := &Receiver{
		kernel:        k,
		radio:         r,
		CheckInterval: checkInterval,
		WakeThreshold: threshold,
	}
	r.OnReceive = rx.handle
	return rx
}

// Radio exposes the receiver's radio.
func (rx *Receiver) Radio() *radio.Radio { return rx.radio }

// Wakeups, FalseWakeups and Received report the LPL counters.
func (rx *Receiver) Wakeups() int { return rx.wakeups }

// FalseWakeups counts wakeups that decoded nothing for this node.
func (rx *Receiver) FalseWakeups() int { return rx.falseWakeups }

// Received counts data frames delivered.
func (rx *Receiver) Received() int { return rx.received }

// Start begins the sleep/sample cycle.
func (rx *Receiver) Start() {
	rx.radio.SetOff()
	rx.kernel.NewTicker(rx.CheckInterval, rx.sample)
}

// sample is one check: wake, one CCA-length listen, sleep unless energy.
func (rx *Receiver) sample() {
	if rx.awake {
		return // already up servicing a wakeup
	}
	rx.radio.SetOn()
	rx.kernel.After(frame.CCATime, func() {
		if rx.awake {
			return
		}
		if rx.radio.SensedPower() <= rx.WakeThreshold {
			rx.radio.SetOff()
			return
		}
		// Energy found: stay awake until a strobe names us or the listen
		// window expires (a false wakeup).
		rx.awake = true
		rx.wakeups++
		rx.pending = rx.kernel.After(wakeListen, func() {
			rx.falseWakeups++
			rx.sleep()
		})
	})
}

func (rx *Receiver) sleep() {
	rx.awake = false
	rx.kernel.Cancel(rx.pending)
	rx.pending = sim.Event{}
	rx.radio.SetOff()
}

// handle processes receptions while awake.
func (rx *Receiver) handle(rcv radio.Reception) {
	if !rcv.CRCOK || rcv.Frame.Dst != rx.radio.Address() {
		return
	}
	if isStrobe(rcv.Frame) {
		// A strobe for us: extend the awake window until the data frame.
		rx.kernel.Cancel(rx.pending)
		rx.pending = rx.kernel.After(3*wakeListen, func() {
			rx.falseWakeups++
			rx.sleep()
		})
		return
	}
	// The data frame itself.
	rx.received++
	if rx.OnReceive != nil {
		rx.OnReceive(rcv)
	}
	rx.sleep()
}

func isStrobe(f *frame.Frame) bool {
	return f.Type == frame.TypeData && len(f.Payload) == 1 && f.Payload[0] == strobeMarker
}

// Sender transmits LPL frames: a strobe train spanning the receivers'
// check interval, then the data frame.
type Sender struct {
	kernel *sim.Kernel
	radio  *radio.Radio

	// CheckInterval must match the receivers' setting.
	CheckInterval time.Duration

	sent int
	busy bool
}

// NewSender builds an LPL sender (always-on radio; LPL spends the
// receivers' energy budget, not the senders').
func NewSender(k *sim.Kernel, r *radio.Radio, checkInterval time.Duration) *Sender {
	if checkInterval <= 0 {
		checkInterval = DefaultCheckInterval
	}
	return &Sender{kernel: k, radio: r, CheckInterval: checkInterval}
}

// Radio exposes the sender's radio.
func (s *Sender) Radio() *radio.Radio { return s.radio }

// Sent counts completed data transmissions.
func (s *Sender) Sent() int { return s.sent }

// Send strobes for one check interval plus margin and then transmits the
// payload to dst. Returns false when a send is already in progress.
func (s *Sender) Send(dst frame.Address, payload []byte) bool {
	if s.busy {
		return false
	}
	s.busy = true
	deadline := s.kernel.Now() + sim.FromDuration(s.CheckInterval) +
		sim.FromDuration(2*frame.CCATime)
	strobe := func() *frame.Frame {
		return &frame.Frame{
			Type:    frame.TypeData,
			Src:     s.radio.Address(),
			Dst:     dst,
			Payload: []byte{strobeMarker},
		}
	}
	var pump func()
	pump = func() {
		if s.kernel.Now() >= deadline {
			data := &frame.Frame{
				Type:    frame.TypeData,
				Src:     s.radio.Address(),
				Dst:     dst,
				Payload: payload,
			}
			if tx, err := s.radio.Transmit(data); err == nil {
				s.kernel.At(tx.End, func() {
					s.sent++
					s.busy = false
				})
			} else {
				s.busy = false
			}
			return
		}
		f := strobe()
		if tx, err := s.radio.Transmit(f); err == nil {
			s.kernel.At(tx.End, pump)
		} else {
			s.busy = false
		}
	}
	pump()
	return true
}

// attachable check: both endpoints are plain medium listeners.
var _ medium.Listener = (*radio.Radio)(nil)
