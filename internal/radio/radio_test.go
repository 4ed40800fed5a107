package radio

import (
	"math"
	"testing"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// world bundles a kernel and medium with flat, fading-free propagation for
// deterministic unit tests.
func world(t *testing.T) (*sim.Kernel, *medium.Medium) {
	t.Helper()
	k := sim.NewKernel(7)
	m := medium.New(k,
		medium.WithFadingSigma(0),
		medium.WithStaticFadingSigma(0),
		medium.WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
	return k, m
}

func dataFrame(payload int, src, dst frame.Address) *frame.Frame {
	return &frame.Frame{Type: frame.TypeData, Src: src, Dst: dst, Payload: make([]byte, payload)}
}

func TestCleanReceptionDelivers(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, Address: 1})
	rx := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, Address: 2})

	var got []Reception
	rx.OnReceive = func(r Reception) { got = append(got, r) }

	f := dataFrame(64, 1, 2)
	if _, err := tx.Transmit(f); err != nil {
		t.Fatal(err)
	}
	if tx.State() != StateTX {
		t.Fatalf("sender state = %v, want tx", tx.State())
	}
	if rx.State() != StateRX {
		t.Fatalf("receiver state = %v, want rx", rx.State())
	}
	k.Run()

	if len(got) != 1 {
		t.Fatalf("receptions = %d, want 1", len(got))
	}
	r := got[0]
	if !r.CRCOK {
		t.Errorf("CRCOK = false on a clean channel (bit errors %d)", r.BitErrors)
	}
	if r.Collided {
		t.Error("Collided = true with no interferer")
	}
	if math.Abs(float64(r.RSSI)+40) > 0.01 {
		t.Errorf("RSSI = %v, want ≈ -40 (1 m at 0 dBm)", r.RSSI)
	}
	if r.TotalBits != f.PayloadBits() {
		t.Errorf("TotalBits = %d, want %d", r.TotalBits, f.PayloadBits())
	}
	if tx.State() != StateIdle || rx.State() != StateIdle {
		t.Error("radios not back to idle after the frame")
	}
}

func TestInterChannelPacketIsNeverDecoded(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2461, TxPower: 0, Address: 1})
	rx := New(k, m, Config{Pos: phy.Position{X: 0.5}, Freq: 2460, Address: 2})

	delivered := 0
	rx.OnReceive = func(Reception) { delivered++ }

	// Just 1 MHz away and blisteringly strong — still undecodable, the
	// core 802.15.4 uniqueness the paper exploits (vs 802.11, Fig 2).
	if _, err := tx.Transmit(dataFrame(64, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if rx.State() != StateIdle {
		t.Fatalf("receiver locked onto an off-channel packet (state %v)", rx.State())
	}
	k.Run()
	if delivered != 0 {
		t.Errorf("delivered = %d inter-channel packets, want 0", delivered)
	}
}

func TestBelowSensitivityNotLocked(t *testing.T) {
	k, m := world(t)
	// 0 dBm over ~100 m: 40+30·log10(100) = 100 dB loss → -100 dBm < -94.
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, Address: 1})
	rx := New(k, m, Config{Pos: phy.Position{X: 100}, Freq: 2460, Address: 2})

	delivered := 0
	rx.OnReceive = func(Reception) { delivered++ }
	if _, err := tx.Transmit(dataFrame(32, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if rx.State() != StateIdle {
		t.Fatal("receiver locked onto a sub-sensitivity packet")
	}
	k.Run()
	if delivered != 0 {
		t.Errorf("delivered = %d, want 0", delivered)
	}
}

func TestCoChannelCollisionCorruptsWeakerPacket(t *testing.T) {
	k, m := world(t)
	// Wanted signal: 2 m → -49 dBm. Interferer: equidistant co-channel at
	// the same power starting mid-frame → SINR ≈ 0 dB for the overlap.
	txA := New(k, m, Config{Pos: phy.Position{X: -2}, Freq: 2460, TxPower: 0, Address: 1})
	txB := New(k, m, Config{Pos: phy.Position{X: 2}, Freq: 2460, TxPower: 0, Address: 2})
	rx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, Address: 3})

	var got []Reception
	rx.OnReceive = func(r Reception) { got = append(got, r) }

	if _, err := txA.Transmit(dataFrame(100, 1, 3)); err != nil {
		t.Fatal(err)
	}
	// Start the collider shortly after lock-on; equal power co-channel
	// → SINR ≈ 0 dB → the long overlap must corrupt bits w.h.p.
	k.After(200*sim.Microsecond.Duration(), func() {
		if _, err := txB.Transmit(dataFrame(100, 2, 3)); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()

	if len(got) != 1 {
		t.Fatalf("receptions = %d, want 1 (only the locked frame)", len(got))
	}
	r := got[0]
	if !r.Collided {
		t.Error("Collided = false for an overlapped reception")
	}
	if r.CRCOK {
		t.Error("CRCOK = true despite a 0 dB co-channel collision")
	}
	if r.BitErrors == 0 || r.BitErrors > r.TotalBits {
		t.Errorf("BitErrors = %d out of %d, want within (0, total]", r.BitErrors, r.TotalBits)
	}
}

func TestToleratedInterChannelCollision(t *testing.T) {
	k, m := world(t)
	// Interferer 3 MHz away at equal received power: 14 dB rejection
	// → SINR ≈ 14 dB → clean decode. This is the paper's core claim.
	txA := New(k, m, Config{Pos: phy.Position{X: -2}, Freq: 2460, TxPower: 0, Address: 1})
	txB := New(k, m, Config{Pos: phy.Position{X: 2}, Freq: 2463, TxPower: 0, Address: 2})
	rx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, Address: 3})

	var got []Reception
	rx.OnReceive = func(r Reception) { got = append(got, r) }

	if _, err := txA.Transmit(dataFrame(100, 1, 3)); err != nil {
		t.Fatal(err)
	}
	k.After(200*sim.Microsecond.Duration(), func() {
		if _, err := txB.Transmit(dataFrame(100, 2, 3)); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()

	if len(got) != 1 {
		t.Fatalf("receptions = %d, want 1", len(got))
	}
	if !got[0].Collided {
		t.Error("Collided = false, interference overlapped")
	}
	if !got[0].CRCOK {
		t.Errorf("CRCOK = false at 14 dB SINR (bit errors %d)", got[0].BitErrors)
	}
}

func TestCCAThresholdSemantics(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, Address: 1})
	obs := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, CCAThreshold: phy.DefaultCCAThreshold, Address: 2})
	_ = k

	if !obs.CCAClear() {
		t.Fatal("CCA busy on a quiet medium")
	}
	if _, err := tx.Transmit(dataFrame(32, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// -40 dBm sensed > -77 dBm threshold → busy.
	if obs.CCAClear() {
		t.Error("CCA clear while a -40 dBm co-channel signal is on the air")
	}
	// Relax the threshold above the sensed level → clear again, the DCN move.
	obs.SetCCAThreshold(-35)
	if !obs.CCAClear() {
		t.Error("CCA busy despite threshold above the sensed power")
	}
}

func TestCCAAppliesRejectionToOffChannelEnergy(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2463, TxPower: 0, Address: 1})
	obs := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, CCAThreshold: -50, Address: 2})
	_ = k

	if _, err := tx.Transmit(dataFrame(32, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Raw -40 dBm, 3 MHz off → sensed ≈ -54 dBm < -50 → clear.
	if !obs.CCAClear() {
		t.Errorf("CCA busy: sensed %v vs threshold -50", obs.SensedPower())
	}
	obs.SetCCAThreshold(-60)
	if obs.CCAClear() {
		t.Error("CCA clear with threshold below the filtered energy")
	}
}

func TestTransmitterIgnoresOwnSignal(t *testing.T) {
	k, m := world(t)
	r := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, CCAThreshold: -77, Address: 1})
	_ = k
	if _, err := r.Transmit(dataFrame(32, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := r.SensedPower(); math.Abs(float64(got-phy.NoiseFloor)) > 1e-9 {
		t.Errorf("SensedPower during own TX = %v, want noise floor", got)
	}
}

func TestTransmitWhileTransmittingFails(t *testing.T) {
	k, m := world(t)
	r := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, Address: 1})
	_ = k
	if _, err := r.Transmit(dataFrame(32, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Transmit(dataFrame(32, 1, 2)); err == nil {
		t.Error("second Transmit during TX succeeded")
	}
}

func TestTransmitAbortsReception(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, Address: 1})
	rx := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, TxPower: 0, Address: 2})

	delivered := 0
	rx.OnReceive = func(Reception) { delivered++ }

	if _, err := tx.Transmit(dataFrame(64, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if rx.State() != StateRX {
		t.Fatal("receiver did not lock")
	}
	if _, err := rx.Transmit(dataFrame(16, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if rx.State() != StateTX {
		t.Fatalf("state = %v, want tx", rx.State())
	}
	k.Run()
	if delivered != 0 {
		t.Errorf("aborted reception still delivered (%d)", delivered)
	}
}

func TestOffRadioIsDeaf(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, Address: 1})
	rx := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, Address: 2})

	delivered := 0
	rx.OnReceive = func(Reception) { delivered++ }
	rx.SetOff()
	if _, err := tx.Transmit(dataFrame(32, 1, 2)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if delivered != 0 {
		t.Errorf("off radio delivered %d frames", delivered)
	}
	if _, err := rx.Transmit(dataFrame(16, 2, 1)); err == nil {
		t.Error("off radio transmitted")
	}
	rx.SetOn()
	if rx.State() != StateIdle {
		t.Errorf("state after SetOn = %v, want idle", rx.State())
	}
	// SetOn while idle is a no-op.
	rx.SetOn()
	if rx.State() != StateIdle {
		t.Error("SetOn changed a non-off state")
	}
}

func TestPowerOffMidReceptionAborts(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, Address: 1})
	rx := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, Address: 2})

	delivered := 0
	rx.OnReceive = func(Reception) { delivered++ }
	if _, err := tx.Transmit(dataFrame(64, 1, 2)); err != nil {
		t.Fatal(err)
	}
	k.After(100*sim.Microsecond.Duration(), rx.SetOff)
	k.Run()
	if delivered != 0 {
		t.Errorf("delivered = %d after mid-frame power-off", delivered)
	}
	if rx.State() != StateOff {
		t.Errorf("state = %v, want off", rx.State())
	}
}

func TestOnTxDoneFires(t *testing.T) {
	k, m := world(t)
	r := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, Address: 1})
	done := 0
	r.OnTxDone = func(*medium.Transmission) { done++ }
	f := dataFrame(32, 1, 2)
	if _, err := r.Transmit(f); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if done != 1 {
		t.Errorf("OnTxDone fired %d times, want 1", done)
	}
	if k.Now() != sim.FromDuration(f.Airtime()) {
		t.Errorf("tx completed at %v, want %v", k.Now(), f.Airtime())
	}
}

func TestBusyReceiverIgnoresSecondPreamble(t *testing.T) {
	k, m := world(t)
	txA := New(k, m, Config{Pos: phy.Position{X: -1}, Freq: 2460, TxPower: 0, Address: 1})
	txB := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, TxPower: 0, Address: 2})
	rx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, Address: 3})

	var frames []frame.Address
	rx.OnReceive = func(r Reception) { frames = append(frames, r.Frame.Src) }

	if _, err := txA.Transmit(dataFrame(64, 1, 3)); err != nil {
		t.Fatal(err)
	}
	k.After(300*sim.Microsecond.Duration(), func() {
		if _, err := txB.Transmit(dataFrame(16, 2, 3)); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	// Only the first frame is ever reported (likely corrupted); the second
	// is pure interference.
	if len(frames) != 1 || frames[0] != 1 {
		t.Errorf("delivered srcs = %v, want [1]", frames)
	}
}

func TestErrorFraction(t *testing.T) {
	r := Reception{BitErrors: 10, TotalBits: 100}
	if got := r.ErrorFraction(); got != 0.1 {
		t.Errorf("ErrorFraction = %v, want 0.1", got)
	}
	var zero Reception
	if got := zero.ErrorFraction(); got != 0 {
		t.Errorf("zero ErrorFraction = %v, want 0", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateOff: "off", StateIdle: "idle", StateRX: "rx", StateTX: "tx", State(0): "state(0)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestSetFreqRetunesAndAbortsReception(t *testing.T) {
	k, m := world(t)
	tx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0, Address: 1})
	rx := New(k, m, Config{Pos: phy.Position{X: 1}, Freq: 2460, Address: 2})

	delivered := 0
	rx.OnReceive = func(Reception) { delivered++ }
	if _, err := tx.Transmit(dataFrame(64, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if rx.State() != StateRX {
		t.Fatal("receiver did not lock")
	}
	// Retune mid-reception: the frame is lost.
	k.After(100*sim.Microsecond.Duration(), func() { rx.SetFreq(2463) })
	k.Run()
	if delivered != 0 {
		t.Errorf("delivered = %d after mid-frame retune, want 0", delivered)
	}
	if rx.Freq() != 2463 {
		t.Errorf("Freq = %v, want 2463", rx.Freq())
	}
	// Same-frequency retune is a no-op (no abort).
	if _, err := tx.Transmit(dataFrame(64, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// rx is tuned to 2463 now: the 2460 frame is inter-channel, no lock.
	if rx.State() != StateIdle {
		t.Error("receiver locked to an off-channel frame after retune")
	}
	k.Run()
}

func TestPreambleCaptureStealsLock(t *testing.T) {
	k, m := world(t)
	weak := New(k, m, Config{Pos: phy.Position{X: 4}, Freq: 2460, TxPower: 0, Address: 1})
	strong := New(k, m, Config{Pos: phy.Position{X: 0.5}, Freq: 2460, TxPower: 0, Address: 2})
	rx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, Address: 3,
		CaptureMargin: 6})

	var got []frame.Address
	rx.OnReceive = func(r Reception) {
		if r.CRCOK {
			got = append(got, r.Frame.Src)
		}
	}
	// Weak frame first (-67 dBm at 4 m), then a much stronger one
	// (-31 dBm at 0.5 m) arrives mid-frame and captures the receiver.
	if _, err := weak.Transmit(dataFrame(100, 1, 3)); err != nil {
		t.Fatal(err)
	}
	k.After(500*sim.Microsecond.Duration(), func() {
		if _, err := strong.Transmit(dataFrame(32, 2, 3)); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("delivered srcs = %v, want [2] (capture)", got)
	}
}

func TestNoCaptureWithoutMargin(t *testing.T) {
	k, m := world(t)
	weak := New(k, m, Config{Pos: phy.Position{X: 4}, Freq: 2460, TxPower: 0, Address: 1})
	strong := New(k, m, Config{Pos: phy.Position{X: 0.5}, Freq: 2460, TxPower: 0, Address: 2})
	rx := New(k, m, Config{Pos: phy.Position{X: 0}, Freq: 2460, Address: 3}) // capture off

	var clean []frame.Address
	rx.OnReceive = func(r Reception) {
		if r.CRCOK {
			clean = append(clean, r.Frame.Src)
		}
	}
	if _, err := weak.Transmit(dataFrame(100, 1, 3)); err != nil {
		t.Fatal(err)
	}
	k.After(500*sim.Microsecond.Duration(), func() {
		if _, err := strong.Transmit(dataFrame(32, 2, 3)); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	// Without capture the radio stays on the weak frame, which the strong
	// overlap destroys; the strong frame was never locked. Nothing clean.
	if len(clean) != 0 {
		t.Errorf("delivered srcs = %v, want none without capture", clean)
	}
}

// TestEventsReachOnlyListenersThatAct pins which listeners the medium's
// fan-out calls. With radios split across two channels, one transmission's
// OnAir reaches the 31 idle radios on its channel, which all lock on; its
// OffAir reaches those 31 receivers and the source. The 32 idle radios on
// the other channel, whose handlers would reject both events, are never
// called. A listener that declares no class hears both events.
func TestEventsReachOnlyListenersThatAct(t *testing.T) {
	k, m := world(t)
	const n = 64
	radios := make([]*Radio, n)
	received := 0
	for i := range radios {
		freq := phy.MHz(2460)
		if i%2 == 1 {
			freq = 2465
		}
		radios[i] = New(k, m, Config{
			Pos:     phy.Position{X: float64(i % 8), Y: float64(i / 8)},
			Freq:    freq,
			Address: frame.Address(i + 1),
		})
		radios[i].OnReceive = func(Reception) { received++ }
	}
	m.Attach(silentSource{pos: phy.Position{X: 20}})
	if _, err := radios[0].Transmit(dataFrame(16, 1, 2)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if received != n/2-1 {
		t.Fatalf("receptions = %d, want %d (every other co-channel radio)", received, n/2-1)
	}
	const want = (n/2 - 1) + n/2 + 2 // OnAir to the co-channel idle radios, OffAir to them and the source, both to the plain listener
	if st := m.DisseminationStats(); st.Events != 2 || st.Callbacks != want {
		t.Fatalf("DisseminationStats = %+v, want 2 events and %d callbacks", st, want)
	}
}
