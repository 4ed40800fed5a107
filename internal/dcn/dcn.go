// Package dcn implements the paper's contribution: DCN (Dynamic
// CCA-threshold for Non-orthogonal transmission). A CCA-Adjustor attached
// to a node's MAC reprograms the radio's CCA threshold register so that
// inter-channel interference from non-orthogonal neighbour channels is
// ignored (unlocking concurrency) while co-channel transmissions are still
// deferred to.
//
// The Adjustor runs in two phases, exactly as in Section V of the paper:
//
//   - Initializing Phase (duration T_I, default 1 s): record the minimum
//     RSSI S_I of overheard co-channel packets and, every millisecond, the
//     maximum in-channel sensed power P_I. The initial threshold is
//     CCA_I = min{ min S_I, max P_I }   (Eq. 2)
//     — conservative on both counts.
//
//   - Updating Phase: only packet RSSI is tracked (in-channel power
//     sensing is too costly to keep running, as the paper notes).
//     Case I (Eq. 3): an overheard co-channel packet weaker than the
//     current threshold lowers the threshold immediately.
//     Case II (Eq. 4): if Case I has not fired for T_U seconds (default
//     3 s), the threshold is reset to the minimum RSSI recorded in the
//     last T_U window — this is the relaxing step that exploits
//     concurrency once weak interferers fall silent.
package dcn

import (
	"fmt"
	"time"

	"nonortho/internal/mac"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
)

// Phase identifies the Adjustor's current phase.
type Phase int

// Adjustor phases.
const (
	PhaseStopped Phase = iota
	PhaseInitializing
	PhaseUpdating
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseStopped:
		return "stopped"
	case PhaseInitializing:
		return "initializing"
	case PhaseUpdating:
		return "updating"
	default:
		return "phase(?)"
	}
}

// Config parameterises the CCA-Adjustor. Zero values take the paper's
// settings.
type Config struct {
	// InitDuration is T_I, the Initializing Phase length (paper: 1 s).
	InitDuration time.Duration
	// UpdateWindow is T_U, the Updating Phase window (paper: 3 s).
	UpdateWindow time.Duration
	// SamplePeriod is the in-channel power sampling cadence during the
	// Initializing Phase (paper: 1 ms).
	SamplePeriod time.Duration
	// CheckPeriod is how often the Case II condition is evaluated.
	CheckPeriod time.Duration
	// MarginDB keeps the threshold strictly below the weakest co-channel
	// interferer (Eq. 1 requires CCA < S_i, not <=).
	MarginDB float64
	// Fallback is the threshold used when no information is available
	// (defaults to the ZigBee -77 dBm).
	Fallback phy.DBm
	// MinThreshold floors the programmed threshold. Eq. 2 applied to a
	// quiet medium would otherwise pin the threshold at the noise floor
	// and deadlock the node (every CCA busy forever). Defaults to
	// 3 dB above the noise floor.
	MinThreshold phy.DBm
	// DisableCaseII ablates the Updating Phase's relaxing step (Eq. 4):
	// the threshold can only ever fall. Used to quantify how much of
	// DCN's gain the window-minimum reset contributes.
	DisableCaseII bool
	// DisableInitSensing ablates the in-channel power sampling of the
	// Initializing Phase: Eq. 2 degenerates to min S_I over packet RSSI
	// alone. The paper motivates the sampling's existence by CPU cost;
	// this knob measures what it buys.
	DisableInitSensing bool

	// Watchdog enables the self-healing monitor: a periodic check that
	// detects threshold poisoning (the MAC starved of clear-channel wins
	// for PoisonWindow while the Adjustor holds state), stale state after
	// co-channel silence, and stuck register writes, recovering by
	// re-entering the Initializing Phase. The paper's Adjustor has no such
	// guard; a single burst of anomalous RSSI can pin its threshold until
	// the node reboots.
	Watchdog bool
	// WatchdogPeriod is the monitor cadence (default 250 ms).
	WatchdogPeriod time.Duration
	// PoisonWindow is T_W: how long the MAC may keep attempting CCAs with
	// a win rate at or below PoisonWinRate before the watchdog declares
	// the threshold poisoned (default 1 s).
	PoisonWindow time.Duration
	// PoisonWinRate is the clear-channel win fraction at or below which a
	// node counts as starved. A healthy DCN node wins most of its CCAs;
	// a poisoned one still scrapes an occasional win in the gaps of
	// neighbour-channel traffic, so an absolute zero-win test would never
	// fire (default 0.05).
	PoisonWinRate float64
	// SilenceWindow is how long total co-channel silence may last while
	// the threshold sits tightened below Fallback before the retained
	// state is declared stale (default 2×UpdateWindow).
	SilenceWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.InitDuration == 0 {
		c.InitDuration = time.Second
	}
	if c.UpdateWindow == 0 {
		c.UpdateWindow = 3 * time.Second
	}
	if c.SamplePeriod == 0 {
		c.SamplePeriod = time.Millisecond
	}
	if c.CheckPeriod == 0 {
		c.CheckPeriod = 250 * time.Millisecond
	}
	if c.MarginDB == 0 {
		c.MarginDB = 1
	}
	if c.Fallback == 0 {
		c.Fallback = phy.DefaultCCAThreshold
	}
	if c.MinThreshold == 0 {
		c.MinThreshold = phy.NoiseFloor + 3
	}
	if c.WatchdogPeriod == 0 {
		c.WatchdogPeriod = 250 * time.Millisecond
	}
	if c.PoisonWindow == 0 {
		c.PoisonWindow = time.Second
	}
	if c.PoisonWinRate == 0 {
		c.PoisonWinRate = 0.05
	}
	if c.SilenceWindow == 0 {
		c.SilenceWindow = 2 * c.UpdateWindow
	}
	return c
}

// Validate rejects nonsensical configurations instead of silently mapping
// them onto the paper's defaults. Zero fields still mean "take the
// default" (the long-standing contract); it is explicit out-of-range
// values that error.
func (c Config) Validate() error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"InitDuration", c.InitDuration},
		{"UpdateWindow", c.UpdateWindow},
		{"SamplePeriod", c.SamplePeriod},
		{"CheckPeriod", c.CheckPeriod},
		{"WatchdogPeriod", c.WatchdogPeriod},
		{"PoisonWindow", c.PoisonWindow},
		{"SilenceWindow", c.SilenceWindow},
	} {
		if d.v < 0 {
			return fmt.Errorf("dcn: %s must not be negative, got %v", d.name, d.v)
		}
	}
	if c.MarginDB < 0 {
		return fmt.Errorf("dcn: MarginDB must not be negative, got %g", c.MarginDB)
	}
	if c.PoisonWinRate < 0 || c.PoisonWinRate >= 1 {
		return fmt.Errorf("dcn: PoisonWinRate must be in [0, 1), got %g", c.PoisonWinRate)
	}
	for _, t := range []struct {
		name string
		v    phy.DBm
	}{
		{"Fallback", c.Fallback},
		{"MinThreshold", c.MinThreshold},
	} {
		if t.v == 0 {
			continue // default sentinel
		}
		if t.v < phy.CCARegisterMin || t.v > phy.CCARegisterMax {
			return fmt.Errorf("dcn: %s %g dBm outside the CC2420 register range [%g, %g]",
				t.name, float64(t.v), float64(phy.CCARegisterMin), float64(phy.CCARegisterMax))
		}
	}
	if c.Fallback != 0 && c.MinThreshold != 0 && c.MinThreshold > c.Fallback {
		return fmt.Errorf("dcn: MinThreshold %g dBm above Fallback %g dBm",
			float64(c.MinThreshold), float64(c.Fallback))
	}
	return nil
}

type record struct {
	at   sim.Time
	rssi phy.DBm
}

// Adjustor drives one radio's CCA threshold.
type Adjustor struct {
	kernel *sim.Kernel
	radio  *radio.Radio
	cfg    Config

	// OnThreshold, when set, observes every threshold the Adjustor
	// programs into the radio (instrumentation/tracing hook).
	OnThreshold func(phy.DBm)

	phase Phase

	// Initializing Phase state.
	initMinRSSI   phy.DBm
	initHasRSSI   bool
	initMaxSensed phy.DBm
	sampler       *sim.Ticker
	initDone      sim.Event

	// Updating Phase state. window[head:] holds the live T_U records in
	// arrival order; window[:head] are records prune has retired.
	window      []record
	head        int
	lastCaseI   sim.Time
	checkTicker *sim.Ticker

	// Watchdog state.
	watchdog       *sim.Ticker
	ccaStats       func() (clear, busy int)
	lastClear      int
	lastBusy       int
	starvedAt      sim.Time
	lastHeard      sim.Time
	lastProgrammed phy.DBm
	hasProgrammed  bool
	wstats         WatchdogStats
}

// WatchdogStats counts the watchdog's detections and recoveries, exported
// for the experiments layer.
type WatchdogStats struct {
	// PoisonRecoveries counts re-initialisations triggered by CCA
	// starvation (win rate at or below PoisonWinRate for PoisonWindow).
	PoisonRecoveries int
	// SilenceRecoveries counts re-initialisations triggered by stale state
	// after total co-channel silence.
	SilenceRecoveries int
	// StuckWriteDetections counts watchdog ticks on which the threshold
	// register did not hold the last programmed value (a stuck register).
	StuckWriteDetections int
}

// Recoveries is the total number of watchdog-triggered re-initialisations.
func (s WatchdogStats) Recoveries() int { return s.PoisonRecoveries + s.SilenceRecoveries }

// New creates an Adjustor for the radio. Call Start to begin. An invalid
// configuration (see Config.Validate) is a programming error and panics;
// use NewChecked for an error return.
func New(k *sim.Kernel, r *radio.Radio, cfg Config) *Adjustor {
	a, err := NewChecked(k, r, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// NewChecked is New with the configuration error surfaced instead of a
// panic — the constructor for externally supplied configurations.
func NewChecked(k *sim.Kernel, r *radio.Radio, cfg Config) (*Adjustor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Adjustor{
		kernel: k,
		radio:  r,
		cfg:    cfg.withDefaults(),
		phase:  PhaseStopped,
	}, nil
}

// Attach wires the Adjustor into a MAC's overhear stream, chaining any
// existing handler, and returns the Adjustor for fluent setup. The MAC's
// CCA counters also feed the watchdog's starvation detector. An invalid
// configuration panics; use AttachChecked for an error return.
func Attach(k *sim.Kernel, m *mac.MAC, cfg Config) *Adjustor {
	a, err := AttachChecked(k, m, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// AttachChecked is Attach with the configuration error surfaced instead of
// a panic.
func AttachChecked(k *sim.Kernel, m *mac.MAC, cfg Config) (*Adjustor, error) {
	a, err := NewChecked(k, m.Radio(), cfg)
	if err != nil {
		return nil, err
	}
	prev := m.OnOverhear
	m.OnOverhear = func(r radio.Reception) {
		if prev != nil {
			prev(r)
		}
		a.Observe(r)
	}
	a.SetCCAStats(func() (int, int) {
		c := m.Counters()
		return c.ClearCCA, c.BusyCCA
	})
	return a, nil
}

// SetCCAStats supplies the cumulative (clear, busy) CCA counters of the
// MAC driving this radio. The watchdog's poisoning detector needs them to
// tell "starved of wins" from "not transmitting"; without the feed (New
// without Attach), poisoning detection is disabled and only the silence
// and stuck-register checks run.
func (a *Adjustor) SetCCAStats(fn func() (clear, busy int)) { a.ccaStats = fn }

// Watchdog returns the self-healing monitor's counters.
func (a *Adjustor) Watchdog() WatchdogStats { return a.wstats }

// Phase reports the Adjustor's phase.
func (a *Adjustor) Phase() Phase { return a.phase }

// Threshold reads the threshold currently programmed into the radio.
func (a *Adjustor) Threshold() phy.DBm { return a.radio.CCAThreshold() }

// Start enters the Initializing Phase: the radio keeps its conservative
// fallback threshold while S_I and P_I are collected.
func (a *Adjustor) Start() {
	a.stopTimers()
	a.phase = PhaseInitializing
	a.initHasRSSI = false
	a.initMinRSSI = 0
	a.initMaxSensed = phy.Silent
	a.window = a.window[:0]
	a.head = 0
	a.radio.SetCCAThreshold(a.cfg.Fallback)
	a.lastProgrammed = a.cfg.Fallback
	a.hasProgrammed = true

	now := a.kernel.Now()
	a.starvedAt = now
	a.lastHeard = now
	if a.ccaStats != nil {
		a.lastClear, a.lastBusy = a.ccaStats()
	}
	if a.cfg.Watchdog {
		a.watchdog = a.kernel.NewTicker(a.cfg.WatchdogPeriod, a.watchdogCheck)
	}

	if !a.cfg.DisableInitSensing {
		a.sampler = a.kernel.NewTicker(a.cfg.SamplePeriod, func() {
			if s := a.radio.SensedPower(); s > a.initMaxSensed {
				a.initMaxSensed = s
			}
		})
	}
	a.initDone = a.kernel.After(a.cfg.InitDuration, a.finishInit)
}

// Stop halts the Adjustor, leaving the radio at its current threshold.
func (a *Adjustor) Stop() {
	a.stopTimers()
	a.phase = PhaseStopped
}

func (a *Adjustor) stopTimers() {
	if a.sampler != nil {
		a.sampler.Stop()
		a.sampler = nil
	}
	a.kernel.Cancel(a.initDone)
	a.initDone = sim.Event{}
	if a.checkTicker != nil {
		a.checkTicker.Stop()
		a.checkTicker = nil
	}
	if a.watchdog != nil {
		a.watchdog.Stop()
		a.watchdog = nil
	}
}

func (a *Adjustor) finishInit() {
	if a.sampler != nil {
		a.sampler.Stop()
		a.sampler = nil
	}
	a.initDone = sim.Event{}

	// Eq. 2: CCA_I = min{ S_1, S_2, ..., max{P_1, P_2, ...} }.
	threshold := a.initMaxSensed
	if a.initHasRSSI && (a.initMinRSSI < threshold || threshold == phy.Silent) {
		threshold = a.initMinRSSI
	}
	if threshold == phy.Silent {
		threshold = a.cfg.Fallback
	}
	a.program(threshold)

	a.phase = PhaseUpdating
	a.lastCaseI = a.kernel.Now()
	a.checkTicker = a.kernel.NewTicker(a.cfg.CheckPeriod, a.caseIICheck)

	// The starvation-observation window opens now: CCA outcomes racked up
	// during the Initializing Phase (threshold at the conservative
	// fallback) say nothing about the freshly programmed threshold.
	a.starvedAt = a.kernel.Now()
	if a.ccaStats != nil {
		a.lastClear, a.lastBusy = a.ccaStats()
	}
}

// Observe feeds one co-channel reception (clean or CRC-failed — the CC2420
// buffers both) into the Adjustor.
func (a *Adjustor) Observe(r radio.Reception) {
	a.lastHeard = a.kernel.Now()
	switch a.phase {
	case PhaseInitializing:
		if !a.initHasRSSI || r.RSSI < a.initMinRSSI {
			a.initMinRSSI = r.RSSI
			a.initHasRSSI = true
		}
	case PhaseUpdating:
		now := a.kernel.Now()
		if len(a.window) == cap(a.window) && a.head > 0 {
			// Reuse the retired prefix instead of growing: the slice
			// grows only when every record in it is live.
			n := copy(a.window, a.window[a.head:])
			a.window = a.window[:n]
			a.head = 0
		}
		a.window = append(a.window, record{at: now, rssi: r.RSSI})
		a.prune(now)
		// Case I (Eq. 3): immediately lower on a weaker co-channel packet.
		if a.clamp(r.RSSI) < a.radio.CCAThreshold() {
			a.program(r.RSSI)
			a.lastCaseI = now
		}
	}
}

// program writes threshold−margin into the radio, floored at MinThreshold
// and confined to the CC2420 register range.
func (a *Adjustor) program(threshold phy.DBm) {
	v := a.clamp(threshold)
	a.radio.SetCCAThreshold(v)
	a.lastProgrammed = v
	a.hasProgrammed = true
	if a.OnThreshold != nil {
		a.OnThreshold(v)
	}
}

func (a *Adjustor) clamp(threshold phy.DBm) phy.DBm {
	t := threshold - phy.DBm(a.cfg.MarginDB)
	if t < a.cfg.MinThreshold {
		t = a.cfg.MinThreshold
	}
	t, _ = phy.ClampCCAThreshold(t)
	return t
}

// caseIICheck applies Eq. 4 when Case I has been quiet for T_U.
func (a *Adjustor) caseIICheck() {
	if a.cfg.DisableCaseII {
		return
	}
	now := a.kernel.Now()
	if now-a.lastCaseI < sim.FromDuration(a.cfg.UpdateWindow) {
		return
	}
	a.prune(now)
	if a.WindowSize() == 0 {
		return // nothing heard recently; keep the current threshold
	}
	a.program(a.windowMin())
}

// windowMin returns the weakest RSSI among the live window records; the
// window must be non-empty.
func (a *Adjustor) windowMin() phy.DBm {
	live := a.window[a.head:]
	min := live[0].rssi
	for _, rec := range live[1:] {
		if rec.rssi < min {
			min = rec.rssi
		}
	}
	return min
}

// prune retires window records older than T_U by advancing head past
// them, O(1) per retired record; Observe reclaims the retired prefix.
func (a *Adjustor) prune(now sim.Time) {
	cutoff := now - sim.FromDuration(a.cfg.UpdateWindow)
	for a.head < len(a.window) && a.window[a.head].at < cutoff {
		a.head++
	}
}

// WindowSize reports the number of live RSSI records, window[head:]
// (exported for tests and instrumentation).
func (a *Adjustor) WindowSize() int { return len(a.window) - a.head }

// watchdogCheck is the self-healing monitor. Three independent detectors:
//
//   - Stuck register: the threshold register does not hold the last value
//     program() wrote. Counted every tick and the write retried, so the
//     Adjustor converges as soon as the fault clears.
//   - Threshold poisoning: the MAC kept attempting CCAs for a full
//     PoisonWindow while winning at most a PoisonWinRate fraction of them.
//     A healthy DCN node wins most of its CCAs (its threshold sits above
//     the filtered inter-channel energy); a poisoned node still scrapes
//     the odd win in gaps of neighbour-channel traffic, but sustained
//     near-total starvation means the threshold was dragged somewhere the
//     medium can essentially never satisfy — e.g. by a burst of weak
//     anomalous RSSI (Eq. 3 has no guard).
//   - Stale state: the threshold sits tightened below the conservative
//     fallback although no co-channel packet has been heard for
//     SilenceWindow. Eq. 4 cannot relax an empty window, so state learned
//     from a now-silent interferer would otherwise persist forever.
//
// Poisoning and staleness recover by discarding all learned state and
// re-entering the Initializing Phase, the same path as a node rejoin.
func (a *Adjustor) watchdogCheck() {
	if a.hasProgrammed && a.radio.CCAThreshold() != a.lastProgrammed {
		a.wstats.StuckWriteDetections++
		a.radio.SetCCAThreshold(a.lastProgrammed) // retried; ignored while the fault persists
	}
	if a.phase != PhaseUpdating {
		return
	}
	now := a.kernel.Now()
	if a.ccaStats != nil {
		// lastClear/lastBusy snapshot the counters at the start of the
		// current starvation-observation window.
		clear, busy := a.ccaStats()
		wins := clear - a.lastClear
		attempts := wins + busy - a.lastBusy
		if attempts == 0 || float64(wins) > a.cfg.PoisonWinRate*float64(attempts) {
			// A healthy win rate breaks the streak; an idle MAC is no
			// evidence either way.
			a.starvedAt = now
			a.lastClear, a.lastBusy = clear, busy
		} else if now-a.starvedAt >= sim.FromDuration(a.cfg.PoisonWindow) {
			a.wstats.PoisonRecoveries++
			a.Start()
			return
		}
	}
	if a.radio.CCAThreshold() < a.cfg.Fallback &&
		now-a.lastHeard >= sim.FromDuration(a.cfg.SilenceWindow) {
		a.wstats.SilenceRecoveries++
		a.Start()
	}
}
