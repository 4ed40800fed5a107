package fault

import (
	"fmt"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// JammerAddress is the source address stamped on jammer frames. It is a
// reserved-range unicast address no node owns, so no MAC ever accepts or
// acknowledges a jammer frame — receivers only overhear it, which is
// exactly the path that feeds (and can poison) the DCN Adjustor.
const JammerAddress frame.Address = 0xFFFE

// JammerConfig parameterises a Gilbert–Elliott burst jammer.
type JammerConfig struct {
	// Pos is the emitter position.
	Pos phy.Position
	// Freq is the emission center frequency.
	Freq phy.MHz
	// Bandwidth is the occupied bandwidth for wideband emission
	// (e.g. 22 MHz for an 802.11-class source). Zero emits narrowband
	// 802.15.4-shaped frames that co-channel receivers can lock onto.
	Bandwidth phy.MHz
	// Power is the transmit power.
	Power phy.DBm
	// Payload is the frame payload size in bytes (default 100).
	Payload int
	// MeanBurst is the mean on-state dwell (default 200 ms). Dwells are
	// exponential, the continuous-time limit of the Gilbert–Elliott
	// two-state chain's geometric holding times.
	MeanBurst time.Duration
	// MeanGap is the mean off-state dwell (default 2 s).
	MeanGap time.Duration
	// Start delays the first burst (default 0: the chain starts in the
	// burst state as soon as Start() is called).
	Start time.Duration
	// Stop, when positive, is the virtual instant (measured from the
	// simulation origin) after which no new burst or frame begins.
	Stop time.Duration
}

func (c JammerConfig) withDefaults() JammerConfig {
	if c.Payload == 0 {
		c.Payload = 100
	}
	if c.MeanBurst == 0 {
		c.MeanBurst = 200 * time.Millisecond
	}
	if c.MeanGap == 0 {
		c.MeanGap = 2 * time.Second
	}
	return c
}

// Jammer is a Gilbert–Elliott on/off emitter attached to the medium. In
// the on (burst) state it transmits back-to-back frames; in the off (gap)
// state it is silent. State dwells are drawn from a dedicated kernel
// stream, so a jammer's schedule is a pure function of the kernel seed and
// its creation order.
type Jammer struct {
	kernel *sim.Kernel
	medium *medium.Medium
	id     int
	cfg    JammerConfig
	rng    *sim.RNG

	running bool
	bursts  int
}

// NewJammer creates a jammer through the injector and attaches it to the
// medium. Call Start to begin the on/off chain.
func (inj *Injector) NewJammer(m *medium.Medium, cfg JammerConfig) *Jammer {
	j := &Jammer{
		kernel: inj.kernel,
		medium: m,
		cfg:    cfg.withDefaults(),
		rng:    inj.kernel.Stream(fmt.Sprintf("fault.jammer.%d", len(inj.jammers))),
	}
	j.id = m.Attach(j)
	m.SetWake(j.id, medium.WakeOwn, 0) // its handlers are empty
	inj.jammers = append(inj.jammers, j)
	return j
}

// Position implements medium.Listener.
func (j *Jammer) Position() phy.Position { return j.cfg.Pos }

// OnAir implements medium.Listener (a jammer never receives).
func (j *Jammer) OnAir(*medium.Transmission) {}

// OffAir implements medium.Listener.
func (j *Jammer) OffAir(*medium.Transmission) {}

// Bursts reports the number of completed burst periods.
func (j *Jammer) Bursts() int { return j.bursts }

// Start launches the Gilbert–Elliott chain, beginning with a burst after
// the configured Start delay.
func (j *Jammer) Start() {
	if j.running {
		return
	}
	j.running = true
	j.kernel.After(j.cfg.Start, j.burstPhase)
}

// Stop silences the jammer after the frame currently on air (if any).
func (j *Jammer) Stop() { j.running = false }

// Detach silences the jammer and removes it from the medium entirely; a
// frame already on the air still completes (the energy is radiated).
func (j *Jammer) Detach() {
	j.Stop()
	j.medium.Detach(j.id)
}

// expired reports whether the configured Stop instant has passed.
func (j *Jammer) expired() bool {
	return j.cfg.Stop > 0 && j.kernel.Now() >= sim.FromDuration(j.cfg.Stop)
}

func (j *Jammer) burstPhase() {
	if !j.running || j.expired() {
		return
	}
	end := j.kernel.Now() + sim.FromDuration(time.Duration(j.rng.Exponential(float64(j.cfg.MeanBurst))))
	var next func()
	next = func() {
		if !j.running || j.expired() || j.kernel.Now() >= end {
			j.bursts++
			gap := time.Duration(j.rng.Exponential(float64(j.cfg.MeanGap)))
			j.kernel.After(gap, j.burstPhase)
			return
		}
		f := &frame.Frame{
			Type:    frame.TypeData,
			Src:     JammerAddress,
			Dst:     JammerAddress,
			Payload: make([]byte, j.cfg.Payload),
		}
		tx := j.medium.TransmitShaped(j.id, j.cfg.Pos, j.cfg.Power, j.cfg.Freq, j.cfg.Bandwidth, f)
		j.kernel.At(tx.End, next)
	}
	next()
}
