package medium

import (
	"math"
	"testing"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// fakeListener records medium events.
type fakeListener struct {
	pos    phy.Position
	onAir  []*Transmission
	offAir []*Transmission
}

func (f *fakeListener) Position() phy.Position  { return f.pos }
func (f *fakeListener) OnAir(tx *Transmission)  { f.onAir = append(f.onAir, tx) }
func (f *fakeListener) OffAir(tx *Transmission) { f.offAir = append(f.offAir, tx) }

func testFrame(payload int) *frame.Frame {
	return &frame.Frame{Type: frame.TypeData, Payload: make([]byte, payload)}
}

func newTestMedium(t *testing.T, opts ...Option) (*sim.Kernel, *Medium) {
	t.Helper()
	k := sim.NewKernel(1)
	return k, New(k, opts...)
}

func TestTransmitNotifiesAllListeners(t *testing.T) {
	k, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	a := &fakeListener{pos: phy.Position{X: 0}}
	b := &fakeListener{pos: phy.Position{X: 5}}
	idA := m.Attach(a)
	m.Attach(b)

	f := testFrame(64)
	tx := m.Transmit(idA, a.pos, 0, 2460, f)
	if m.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d, want 1", m.ActiveCount())
	}
	if len(a.onAir) != 1 || len(b.onAir) != 1 {
		t.Fatal("OnAir not delivered to all listeners")
	}
	if a.onAir[0] != tx {
		t.Error("OnAir delivered wrong transmission")
	}

	k.Run()
	if m.ActiveCount() != 0 {
		t.Errorf("ActiveCount after end = %d, want 0", m.ActiveCount())
	}
	if len(a.offAir) != 1 || len(b.offAir) != 1 {
		t.Fatal("OffAir not delivered to all listeners")
	}
	if got, want := tx.End-tx.Start, sim.FromDuration(f.Airtime()); got != want {
		t.Errorf("airtime on medium = %v, want %v", got, want)
	}
}

func TestRxPowerUsesPathLoss(t *testing.T) {
	k, m := newTestMedium(t,
		WithFadingSigma(0), WithStaticFadingSigma(0),
		WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
	src := &fakeListener{pos: phy.Position{X: 0}}
	dst := &fakeListener{pos: phy.Position{X: 10}}
	idSrc := m.Attach(src)
	idDst := m.Attach(dst)
	_ = k

	tx := m.Transmit(idSrc, src.pos, 0, 2460, testFrame(16))
	got := m.RxPower(tx, idDst)
	if math.Abs(float64(got)+70) > 1e-9 { // 40 + 30·log10(10) = 70 dB loss
		t.Errorf("RxPower = %v, want -70", got)
	}
}

func TestFadingIsConsistentPerPair(t *testing.T) {
	_, m := newTestMedium(t, WithFadingSigma(6), WithStaticFadingSigma(0))
	src := &fakeListener{pos: phy.Position{X: 0}}
	dst := &fakeListener{pos: phy.Position{X: 10}}
	idSrc := m.Attach(src)
	idDst := m.Attach(dst)

	tx := m.Transmit(idSrc, src.pos, 0, 2460, testFrame(16))
	first := m.RxPower(tx, idDst)
	for i := 0; i < 5; i++ {
		if got := m.RxPower(tx, idDst); got != first {
			t.Fatal("fading draw changed within one transmission")
		}
	}
}

func TestFadingVariesAcrossTransmissions(t *testing.T) {
	k, m := newTestMedium(t, WithFadingSigma(6), WithStaticFadingSigma(0))
	src := &fakeListener{pos: phy.Position{X: 0}}
	dst := &fakeListener{pos: phy.Position{X: 10}}
	idSrc := m.Attach(src)
	idDst := m.Attach(dst)

	tx1 := m.Transmit(idSrc, src.pos, 0, 2460, testFrame(16))
	p1 := m.RxPower(tx1, idDst)
	k.Run()
	tx2 := m.Transmit(idSrc, src.pos, 0, 2460, testFrame(16))
	p2 := m.RxPower(tx2, idDst)
	if p1 == p2 {
		t.Error("fading identical across transmissions (expected fresh draw)")
	}
}

func TestSensedPowerNoiseFloorWhenQuiet(t *testing.T) {
	_, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	l := &fakeListener{}
	id := m.Attach(l)
	got := m.SensedPower(id, 2460)
	if math.Abs(float64(got-phy.NoiseFloor)) > 1e-9 {
		t.Errorf("quiet SensedPower = %v, want noise floor %v", got, phy.NoiseFloor)
	}
}

func TestSensedPowerAppliesRejection(t *testing.T) {
	_, m := newTestMedium(t,
		WithFadingSigma(0), WithStaticFadingSigma(0),
		WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
	src := &fakeListener{pos: phy.Position{X: 0}}
	obs := &fakeListener{pos: phy.Position{X: 1}} // raw rx = -40 dBm
	idSrc := m.Attach(src)
	idObs := m.Attach(obs)

	m.Transmit(idSrc, src.pos, 0, 2460, testFrame(16))

	co := m.SensedPower(idObs, 2460)
	if math.Abs(float64(co)+40) > 0.01 {
		t.Errorf("co-channel sensed = %v, want ≈ -40", co)
	}
	adj := m.SensedPower(idObs, 2463) // 3 MHz away: 17 dB rejection
	if math.Abs(float64(adj)+57) > 0.01 {
		t.Errorf("adjacent sensed = %v, want ≈ -57", adj)
	}
	// 15 MHz away: saturated 50 dB rejection → -90 dBm, which combines
	// with the -100 dBm noise floor to ≈ -89.59 dBm.
	far := m.SensedPower(idObs, 2475)
	if math.Abs(float64(far)+89.59) > 0.05 {
		t.Errorf("far sensed = %v, want ≈ -89.59", far)
	}
}

func TestSensedPowerExcludesOwn(t *testing.T) {
	_, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	a := &fakeListener{pos: phy.Position{X: 0}}
	idA := m.Attach(a)

	m.Transmit(idA, a.pos, 0, 2460, testFrame(16))
	// A senses: own transmission excluded by Src, so just noise.
	got := m.SensedPower(idA, 2460)
	if math.Abs(float64(got-phy.NoiseFloor)) > 1e-9 {
		t.Errorf("own-tx sensed = %v, want noise floor", got)
	}
}

func TestSensedPowerCombinesConcurrentTransmitters(t *testing.T) {
	_, m := newTestMedium(t,
		WithFadingSigma(0), WithStaticFadingSigma(0),
		WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
	s1 := &fakeListener{pos: phy.Position{X: -1}}
	s2 := &fakeListener{pos: phy.Position{X: 1}}
	obs := &fakeListener{pos: phy.Position{X: 0}}
	id1 := m.Attach(s1)
	id2 := m.Attach(s2)
	idObs := m.Attach(obs)

	m.Transmit(id1, s1.pos, 0, 2460, testFrame(16))
	m.Transmit(id2, s2.pos, 0, 2460, testFrame(16))
	got := m.SensedPower(idObs, 2460)
	// Two -40 dBm arrivals sum to ≈ -37 dBm.
	if math.Abs(float64(got)+37) > 0.05 {
		t.Errorf("combined sensed = %v, want ≈ -37", got)
	}
}

func TestInterferenceExcludesWanted(t *testing.T) {
	_, m := newTestMedium(t,
		WithFadingSigma(0), WithStaticFadingSigma(0),
		WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
	want := &fakeListener{pos: phy.Position{X: -1}}
	intf := &fakeListener{pos: phy.Position{X: 2}}
	obs := &fakeListener{pos: phy.Position{X: 0}}
	idW := m.Attach(want)
	idI := m.Attach(intf)
	idObs := m.Attach(obs)

	txW := m.Transmit(idW, want.pos, 0, 2460, testFrame(16))
	m.Transmit(idI, intf.pos, 0, 2463, testFrame(16))

	got := phy.FromMilliwatts(m.InterferenceMW(txW, idObs, 2460))
	// Interferer raw at 2 m: -49.03 dBm; minus 17 dB rejection ≈ -66.
	if math.Abs(float64(got)+66.03) > 0.1 {
		t.Errorf("Interference = %v, want ≈ -66", got)
	}
}

func TestTransmissionEndsExactlyAtAirtime(t *testing.T) {
	k, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	l := &fakeListener{}
	id := m.Attach(l)
	f := testFrame(64)
	m.Transmit(id, l.pos, 0, 2460, f)

	k.RunUntil(sim.FromDuration(f.Airtime()) - 1)
	if m.ActiveCount() != 1 {
		t.Fatal("transmission ended early")
	}
	k.RunFor(time.Nanosecond)
	if m.ActiveCount() != 0 {
		t.Fatal("transmission did not end at airtime")
	}
}

func TestFadingDrawIsStablePerTransmission(t *testing.T) {
	k, m := newTestMedium(t, WithFadingSigma(6), WithStaticFadingSigma(0))
	src := &fakeListener{pos: phy.Position{X: 0}}
	dst := &fakeListener{pos: phy.Position{X: 10}}
	idSrc := m.Attach(src)
	idDst := m.Attach(dst)

	tx := m.Transmit(idSrc, src.pos, 0, 2460, testFrame(16))
	first := m.RxPower(tx, idDst)
	if tx.perL[idDst].tx != tx.ID+1 {
		t.Fatal("fading draw not cached on the transmission")
	}
	if again := m.RxPower(tx, idDst); again != first {
		t.Errorf("RxPower not stable within a transmission: %v then %v", first, again)
	}
	k.Run() // the cache dies with the transmission — nothing lingers in the medium
	tx2 := m.Transmit(idSrc, src.pos, 0, 2460, testFrame(16))
	if second := m.RxPower(tx2, idDst); second == first {
		t.Error("distinct transmissions reused the same fading draw")
	}
}
