package medium

import (
	"testing"

	"nonortho/internal/frame"
	"nonortho/internal/phy"
)

func TestDetachMidTransmissionIsSafe(t *testing.T) {
	k, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	src := &probe{pos: phy.Position{X: 0}}
	gone := &probe{pos: phy.Position{X: 1}}
	stay := &probe{pos: phy.Position{X: 2}}
	srcID := m.Attach(src)
	goneID := m.Attach(gone)
	m.Attach(stay)

	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 64)}
	tx := m.Transmit(srcID, src.pos, 0, 2460, f)

	// The listener detaches while the frame is on the air — e.g. a node
	// powering off mid-reception.
	m.Detach(goneID)
	if m.Attached(goneID) {
		t.Fatal("Attached = true after Detach")
	}
	if got := m.RxPower(tx, goneID); got != phy.Silent {
		t.Fatalf("RxPower at a detached listener = %v, want Silent", got)
	}

	k.Run()

	if gone.offAir != 0 {
		t.Fatalf("detached listener saw %d OffAir events, want 0", gone.offAir)
	}
	if stay.offAir != 1 {
		t.Fatalf("remaining listener saw %d OffAir events, want 1", stay.offAir)
	}
}

func TestDetachedListenerMissesLaterTransmissions(t *testing.T) {
	k, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	src := &probe{pos: phy.Position{X: 0}}
	gone := &probe{pos: phy.Position{X: 1}}
	srcID := m.Attach(src)
	goneID := m.Attach(gone)
	m.Detach(goneID)

	m.Transmit(srcID, src.pos, 0, 2460, &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)})
	k.Run()

	if gone.onAir != 0 || gone.offAir != 0 {
		t.Fatalf("detached listener notified: %d on-air, %d off-air", gone.onAir, gone.offAir)
	}
}

func TestDetachDoesNotRecycleIDs(t *testing.T) {
	_, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	a := m.Attach(&probe{})
	m.Detach(a)
	b := m.Attach(&probe{})
	if a == b {
		t.Fatalf("listener ID %d recycled after Detach", a)
	}
	if !m.Attached(b) {
		t.Fatal("fresh listener not attached")
	}
}

func TestDetachedListenerSensesNothing(t *testing.T) {
	_, m := newTestMedium(t, WithFadingSigma(0), WithStaticFadingSigma(0))
	src := &probe{pos: phy.Position{X: 0}}
	gone := &probe{pos: phy.Position{X: 1}}
	srcID := m.Attach(src)
	goneID := m.Attach(gone)

	m.Transmit(srcID, src.pos, 0, 2460, &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 64)})
	m.Detach(goneID)
	if got := m.SensedPower(goneID, 2460); got != phy.Silent {
		t.Fatalf("sensed power at a detached listener = %v, want Silent", got)
	}
}

// TestDetachDropsCachedLinkBudgets is the stale-cache regression test: a
// listener that warmed the link-budget and per-transmission caches, then
// detached mid-flight, must measure Silent — not a cached real power — and
// the remaining listeners' cached values must be untouched.
func TestDetachDropsCachedLinkBudgets(t *testing.T) {
	_, m := newTestMedium(t)
	src := &probe{pos: phy.Position{X: 0}}
	gone := &probe{pos: phy.Position{X: 1}}
	stay := &probe{pos: phy.Position{X: 2}}
	srcID := m.Attach(src)
	goneID := m.Attach(gone)
	stayID := m.Attach(stay)

	tx := m.Transmit(srcID, src.pos, 0, 2460, &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 64)})

	// Warm every cache layer: link budgets, fading draws and mW slots.
	_ = m.SensedPower(goneID, 2460)
	stayBefore := m.SensedPower(stayID, 2460)
	if got := m.SensedPower(goneID, 2460); got <= phy.Silent {
		t.Fatalf("attached listener sensed %v, want real power", got)
	}

	m.Detach(goneID)

	for src, slot := range m.rows[goneID] {
		if slot != (linkSlot{}) {
			t.Fatalf("link row slot [%d][%d] for detached listener survived Detach: %+v", goneID, src, slot)
		}
	}
	if tx.perL[goneID] != (txListenerCache{}) {
		t.Fatalf("in-flight transmission kept a cache slot for detached listener: %+v", tx.perL[goneID])
	}
	if got := m.SensedPower(goneID, 2460); got != phy.Silent {
		t.Fatalf("SensedPower at detached listener = %v, want Silent", got)
	}
	if got := m.RxPower(tx, goneID); got != phy.Silent {
		t.Fatalf("RxPower at detached listener = %v, want Silent", got)
	}
	if got := phy.FromMilliwatts(m.InterferenceMW(tx, goneID, 2460)); got != phy.Silent {
		t.Fatalf("Interference at detached listener = %v, want Silent", got)
	}
	if got := m.SensedPower(stayID, 2460); got != stayBefore {
		t.Fatalf("remaining listener's sensed power drifted after Detach: %v, was %v", got, stayBefore)
	}
}

// probe is a minimal listener counting notifications.
type probe struct {
	pos    phy.Position
	onAir  int
	offAir int
}

func (p *probe) Position() phy.Position  { return p.pos }
func (p *probe) OnAir(tx *Transmission)  { p.onAir++ }
func (p *probe) OffAir(tx *Transmission) { p.offAir++ }
