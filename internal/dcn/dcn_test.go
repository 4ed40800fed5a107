package dcn

import (
	"testing"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/mac"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
)

func world(t *testing.T) (*sim.Kernel, *medium.Medium) {
	t.Helper()
	k := sim.NewKernel(5)
	m := medium.New(k,
		medium.WithFadingSigma(0),
		medium.WithStaticFadingSigma(0),
		medium.WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
	return k, m
}

func newRadio(k *sim.Kernel, m *medium.Medium, addr frame.Address, x float64, freq phy.MHz) *radio.Radio {
	return radio.New(k, m, radio.Config{
		Pos:          phy.Position{X: x},
		Freq:         freq,
		TxPower:      0,
		CCAThreshold: phy.DefaultCCAThreshold,
		Address:      addr,
	})
}

// rcv fabricates a reception with a given RSSI.
func rcv(rssi phy.DBm) radio.Reception {
	return radio.Reception{Frame: &frame.Frame{Type: frame.TypeData}, RSSI: rssi, CRCOK: true}
}

// blast keeps src transmitting back-to-back frames until the deadline, so
// in-channel power sampling during the Initializing Phase sees real energy
// (max P_I) instead of the bare noise floor.
func blast(k *sim.Kernel, src *radio.Radio, until time.Duration) {
	var next func()
	next = func() {
		if k.Now() >= sim.FromDuration(until) {
			return
		}
		f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 100)}
		if _, err := src.Transmit(f); err == nil {
			k.After(f.Airtime(), next)
		}
	}
	next()
}

func TestInitialThresholdFromMinRSSI(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()

	if a.Phase() != PhaseInitializing {
		t.Fatalf("phase = %v, want initializing", a.Phase())
	}
	// During init the radio keeps the conservative fallback.
	if got := r.CCAThreshold(); got != phy.DefaultCCAThreshold {
		t.Fatalf("threshold during init = %v, want fallback", got)
	}
	// Co-channel packets heard at -55 and -62 dBm. In-channel sensing
	// only sees the noise floor (quiet medium between packets).
	k.After(100*time.Millisecond, func() { a.Observe(rcv(-55)) })
	k.After(200*time.Millisecond, func() { a.Observe(rcv(-62)) })
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))

	if a.Phase() != PhaseUpdating {
		t.Fatalf("phase = %v, want updating", a.Phase())
	}
	// Eq. 2: min{min S, max P} = min{-62, ~noise} → but the noise-floor
	// clamp keeps the node alive: max P is ≈ -100, so the raw Eq. 2
	// value (-100) is floored at MinThreshold.
	want := phy.NoiseFloor + 3
	if got := r.CCAThreshold(); got != want {
		t.Errorf("threshold after init = %v, want %v (floored Eq. 2)", got, want)
	}
}

func TestInitialThresholdUsesSensedPowerCeiling(t *testing.T) {
	k, m := world(t)
	// A continuous inter-channel transmitter keeps the in-channel sensed
	// power well above the noise floor during init, so max P_I is the
	// binding term of Eq. 2 when the weakest co-channel packet is louder.
	r := newRadio(k, m, 1, 0, 2460)
	neighbor := newRadio(k, m, 2, 1, 2463)

	a := New(k, r, Config{})
	a.Start()

	// Saturate the neighbour channel: raw -40 dBm at 3 MHz → sensed ≈ -57.
	var blast func()
	blast = func() {
		if k.Now() > sim.FromDuration(2*time.Second) {
			return
		}
		f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 100)}
		if _, err := neighbor.Transmit(f); err == nil {
			k.After(f.Airtime(), blast)
		}
	}
	blast()

	// One loud co-channel packet at -45 dBm.
	k.After(500*time.Millisecond, func() { a.Observe(rcv(-45)) })
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))

	// Eq. 2: min{-45, max P ≈ -57} = -57, minus the 1 dB margin.
	got := float64(r.CCAThreshold())
	if got < -59.5 || got > -57 {
		t.Errorf("threshold = %v, want ≈ -58 (max sensed -57, margin 1)", got)
	}
}

func TestCaseILowersImmediately(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	// Keep the medium loud during init so max P_I ≈ -40 and the overheard
	// -50 dBm packet binds Eq. 2.
	blaster := newRadio(k, m, 9, 1, 2460)
	blast(k, blaster, 990*time.Millisecond)
	a := New(k, r, Config{})
	a.Start()
	k.After(10*time.Millisecond, func() { a.Observe(rcv(-50)) })
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))
	if a.Phase() != PhaseUpdating {
		t.Fatal("not in updating phase")
	}
	base := r.CCAThreshold()
	if base != -51 {
		t.Fatalf("post-init threshold = %v, want -51 (min RSSI − margin)", base)
	}

	// A weaker co-channel packet arrives: threshold drops at once.
	a.Observe(rcv(-80))
	if got := r.CCAThreshold(); got != -81 {
		t.Errorf("threshold after Case I = %v, want -81 (RSSI − margin)", got)
	}
	if r.CCAThreshold() >= base {
		t.Error("Case I did not lower the threshold")
	}
	// A stronger packet does not raise it (Case I only lowers).
	a.Observe(rcv(-40))
	if got := r.CCAThreshold(); got != -81 {
		t.Errorf("threshold after louder packet = %v, want unchanged -81", got)
	}
}

func TestCaseIIRelaxesAfterQuietWindow(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	blaster := newRadio(k, m, 9, 1, 2460)
	blast(k, blaster, 990*time.Millisecond)
	a := New(k, r, Config{})
	a.Start()
	k.After(10*time.Millisecond, func() { a.Observe(rcv(-80)) })
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))
	if got := r.CCAThreshold(); got != -81 {
		t.Fatalf("post-init threshold = %v, want -81", got)
	}

	// From now on only strong (-50 dBm) co-channel packets are heard.
	tick := k.NewTicker(100*time.Millisecond, func() { a.Observe(rcv(-50)) })
	defer tick.Stop()
	// After T_U with no Case I update, Eq. 4 raises the threshold to the
	// window minimum: -50 − margin.
	k.RunUntil(sim.FromDuration(5 * time.Second))
	if got := r.CCAThreshold(); got != -51 {
		t.Errorf("threshold after Case II = %v, want -51", got)
	}
}

func TestCaseIIKeepsThresholdWhenWindowEmpty(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()
	k.After(10*time.Millisecond, func() { a.Observe(rcv(-70)) })
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))
	got := r.CCAThreshold()
	// Total silence afterwards: window drains, threshold must not move.
	k.RunUntil(sim.FromDuration(10 * time.Second))
	if r.CCAThreshold() != got {
		t.Errorf("threshold moved on a silent channel: %v → %v", got, r.CCAThreshold())
	}
	if a.WindowSize() != 0 {
		t.Errorf("window not pruned: %d records", a.WindowSize())
	}
}

func TestCaseIResetsQuietTimer(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))

	// Keep delivering ever-weaker packets more often than T_U: Case I
	// keeps firing, so Case II must never raise the threshold.
	level := phy.DBm(-60)
	tick := k.NewTicker(time.Second, func() {
		level -= 2
		a.Observe(rcv(level))
	})
	defer tick.Stop()
	k.RunUntil(sim.FromDuration(10 * time.Second))
	// Nine ticks: threshold = last level − margin, strictly decreasing.
	if got := r.CCAThreshold(); got != phy.DBm(level)-1 {
		t.Errorf("threshold = %v, want %v (Case I tracking)", got, level-1)
	}
}

func TestThresholdInvariantNeverAboveWindowMin(t *testing.T) {
	// Property: in the updating phase the programmed threshold is always
	// strictly below the weakest co-channel packet in the current window.
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))

	rng := k.Stream("test.rssi")
	minInWindow := func() (phy.DBm, bool) {
		if a.WindowSize() == 0 {
			return 0, false
		}
		return a.windowMin(), true
	}
	tick := k.NewTicker(50*time.Millisecond, func() {
		a.Observe(rcv(phy.DBm(rng.UniformRange(-90, -40))))
		if min, ok := minInWindow(); ok {
			if th := r.CCAThreshold(); th >= min {
				t.Fatalf("invariant violated at %v: threshold %v >= window min %v",
					k.Now(), th, min)
			}
		}
	})
	defer tick.Stop()
	k.RunUntil(sim.FromDuration(30 * time.Second))
}

func TestWindowMatchesLiveRecordsAndStaysBounded(t *testing.T) {
	// 60 s of 20 ms observations with a 4 s silence in the middle: the
	// live window is exactly the records of the last T_U (none, late in
	// the silence), and reclaiming retired records keeps the backing
	// array within twice the peak live size.
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))

	type obs struct {
		at   sim.Time
		rssi phy.DBm
	}
	var seen []obs
	peak := 0
	rng := k.Stream("test.rssi")
	silent := func(now sim.Time) bool {
		return now >= sim.FromDuration(30*time.Second) && now < sim.FromDuration(34*time.Second)
	}
	tick := k.NewTicker(20*time.Millisecond, func() {
		now := k.Now()
		if silent(now) {
			a.prune(now)
		} else {
			rssi := phy.DBm(rng.UniformRange(-90, -40))
			a.Observe(rcv(rssi))
			seen = append(seen, obs{now, rssi})
		}
		cutoff := now - sim.FromDuration(a.cfg.UpdateWindow)
		live, min := 0, phy.DBm(0)
		for _, o := range seen {
			if o.at >= cutoff {
				if live == 0 || o.rssi < min {
					min = o.rssi
				}
				live++
			}
		}
		if a.WindowSize() != live {
			t.Fatalf("at %v: WindowSize() = %d, want %d live records", now, a.WindowSize(), live)
		}
		if live > 0 && a.windowMin() != min {
			t.Fatalf("at %v: windowMin() = %v, want %v", now, a.windowMin(), min)
		}
		if live > peak {
			peak = live
		}
	})
	defer tick.Stop()
	k.RunUntil(sim.FromDuration(61100 * time.Millisecond))
	if len(seen) < 2700 {
		t.Fatalf("only %d observations", len(seen))
	}
	if c := cap(a.window); c > 2*peak {
		t.Fatalf("cap(window) = %d, want at most 2x the peak live size %d", c, peak)
	}
}

func TestStartRestartsInitializing(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))
	if a.Phase() != PhaseUpdating {
		t.Fatal("not updating")
	}
	// A rejoining node restarts the Initializing Phase (Section V).
	a.Start()
	if a.Phase() != PhaseInitializing {
		t.Errorf("phase after restart = %v, want initializing", a.Phase())
	}
	if got := r.CCAThreshold(); got != phy.DefaultCCAThreshold {
		t.Errorf("threshold after restart = %v, want fallback", got)
	}
	k.RunUntil(sim.FromDuration(2500 * time.Millisecond))
	if a.Phase() != PhaseUpdating {
		t.Errorf("phase after second init = %v, want updating", a.Phase())
	}
}

func TestStopHaltsAdjustment(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))
	a.Stop()
	if a.Phase() != PhaseStopped {
		t.Fatalf("phase = %v, want stopped", a.Phase())
	}
	before := r.CCAThreshold()
	a.Observe(rcv(-95)) // would trigger Case I if running
	if r.CCAThreshold() != before {
		t.Error("stopped Adjustor still reprogrammed the radio")
	}
	if k.Pending() != 0 {
		t.Errorf("timers still pending after Stop: %d", k.Pending())
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseStopped: "stopped", PhaseInitializing: "initializing",
		PhaseUpdating: "updating", Phase(42): "phase(?)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestNoiseFloorClampPreventsDeadlock(t *testing.T) {
	// A node started on a totally quiet medium must still be able to
	// transmit: the floored threshold sits above the noise floor.
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	a := New(k, r, Config{})
	a.Start()
	k.RunUntil(sim.FromDuration(2 * time.Second))
	if a.Phase() != PhaseUpdating {
		t.Fatal("init did not finish")
	}
	if !r.CCAClear() {
		t.Errorf("CCA busy on a silent medium: threshold %v", r.CCAThreshold())
	}
}

func TestAttachChainsOverhear(t *testing.T) {
	k, m := world(t)
	r := newRadio(k, m, 1, 0, 2460)
	mc := mac.New(k, r, mac.Config{})
	seen := 0
	mc.OnOverhear = func(radio.Reception) { seen++ }
	a := Attach(k, mc, Config{})
	a.Start()
	k.RunUntil(sim.FromDuration(1100 * time.Millisecond))

	// A co-channel packet flows through both the original handler and
	// the adjustor.
	peer := newRadio(k, m, 2, 1, 2460)
	f := &frame.Frame{Type: frame.TypeData, Src: 2, Dst: 9, Payload: make([]byte, 16)}
	if _, err := peer.Transmit(f); err != nil {
		t.Fatal(err)
	}
	k.RunFor(10 * time.Millisecond)
	a.Stop()
	if seen != 1 {
		t.Errorf("original overhear handler saw %d packets, want 1", seen)
	}
	if a.WindowSize() != 1 {
		t.Errorf("adjustor window = %d, want 1", a.WindowSize())
	}
	if a.Threshold() != r.CCAThreshold() {
		t.Error("Threshold() disagrees with the radio register")
	}
}
