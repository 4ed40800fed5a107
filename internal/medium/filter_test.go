package medium

import (
	"math"
	"testing"

	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// withFilter pins the dissemination path regardless of listener count:
// on brings the interest index live from the first attach, off keeps it
// dormant for any population. Both paths are bit-identical; tests use this
// to compare them and to pin the filtered path's delivery contract.
func withFilter(on bool) Option {
	return func(m *Medium) {
		if on {
			m.indexMin = 0
		} else {
			m.indexMin = math.MaxInt
		}
	}
}

// interestProbe is a listener with a declared band interest that counts
// its deliveries.
type interestProbe struct {
	pos           phy.Position
	in            Interest
	onAir, offAir int
}

func (p *interestProbe) Position() phy.Position  { return p.pos }
func (p *interestProbe) OnAir(tx *Transmission)  { p.onAir++ }
func (p *interestProbe) OffAir(tx *Transmission) { p.offAir++ }
func (p *interestProbe) Interest() Interest      { return p.in }

// TestRetuneWhileOnAir pins the frozen-delivery-set contract: a listener
// that retunes while a transmission is in flight keeps the OnAir it
// already received, and the OffAir fan-out is computed against the index
// as it stands at finish time — the listener now tuned to the
// transmission's band gets the OffAir, the one that left does not.
func TestRetuneWhileOnAir(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, withFilter(true))

	src := &interestProbe{in: Interest{Scope: ScopeOwn}}
	onA := &interestProbe{pos: phy.Position{X: 1}, in: Interest{Scope: ScopeBand, Band: 2460}}
	onB := &interestProbe{pos: phy.Position{X: 2}, in: Interest{Scope: ScopeBand, Band: 2470}}
	srcID := m.Attach(src)
	aID := m.Attach(onA)
	bID := m.Attach(onB)

	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)}
	m.Transmit(srcID, src.pos, 0, 2460, f)
	if onA.onAir != 1 || onB.onAir != 0 {
		t.Fatalf("OnAir delivery: onA=%d onB=%d, want 1, 0", onA.onAir, onB.onAir)
	}

	// Swap the two listeners' bands mid-air.
	onA.in = Interest{Scope: ScopeBand, Band: 2470}
	m.SetInterest(aID, onA.in)
	onB.in = Interest{Scope: ScopeBand, Band: 2460}
	m.SetInterest(bID, onB.in)

	k.Run() // the transmission finishes
	if onA.offAir != 0 {
		t.Errorf("onA retuned away but still got %d OffAir(s)", onA.offAir)
	}
	if onB.offAir != 1 {
		t.Errorf("onB retuned onto the band but got %d OffAir(s), want 1", onB.offAir)
	}
	if src.onAir != 1 || src.offAir != 1 {
		t.Errorf("source must always be in its own delivery set: onAir=%d offAir=%d", src.onAir, src.offAir)
	}

	// The index reflects the final interests: a second transmission goes
	// to onB only.
	m.Transmit(srcID, src.pos, 0, 2460, f)
	k.Run()
	if onA.onAir != 1 || onB.onAir != 1 {
		t.Errorf("post-retune delivery: onA=%d onB=%d, want 1, 1", onA.onAir, onB.onAir)
	}
}

// TestDetachWithPendingInterest detaches a band-interested listener while
// a transmission on its band is still in flight: the finish fan-out must
// skip it without touching it, its bucket entry must be gone, and a
// late SetInterest for the dead ID must be a no-op instead of resurrecting
// it in the index.
func TestDetachWithPendingInterest(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, withFilter(true))

	src := &interestProbe{in: Interest{Scope: ScopeOwn}}
	lis := &interestProbe{pos: phy.Position{X: 1}, in: Interest{Scope: ScopeBand, Band: 2460, Floor: phy.Sensitivity}}
	srcID := m.Attach(src)
	lisID := m.Attach(lis)

	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)}
	m.Transmit(srcID, src.pos, 0, 2460, f)
	if lis.onAir != 1 {
		t.Fatalf("listener got %d OnAir(s), want 1", lis.onAir)
	}

	m.Detach(lisID)
	if got := len(m.bands[2460]); got != 0 {
		t.Fatalf("band bucket still holds %d entries after Detach", got)
	}

	// A stale retune for the detached ID must not re-enter the index.
	m.SetInterest(lisID, Interest{Scope: ScopeBand, Band: 2460})
	if got := len(m.bands[2460]); got != 0 {
		t.Fatalf("SetInterest on detached ID re-entered the index (%d entries)", got)
	}

	k.Run() // finish the pending transmission
	if lis.offAir != 0 {
		t.Errorf("detached listener received %d OffAir(s)", lis.offAir)
	}
	if src.offAir != 1 {
		t.Errorf("source OffAir=%d, want 1", src.offAir)
	}

	// The slot can be reused by a new attach without inheriting the dead
	// listener's interest.
	fresh := &interestProbe{pos: phy.Position{X: 3}, in: Interest{Scope: ScopeBand, Band: 2470}}
	freshID := m.Attach(fresh)
	m.Transmit(srcID, src.pos, 0, 2470, f)
	k.Run()
	if fresh.onAir != 1 {
		t.Errorf("reattached listener (id %d) got %d OnAir(s), want 1", freshID, fresh.onAir)
	}
}

// TestAutoIndexEngagesAtThreshold pins the engagement policy: the
// interest index stays dormant — empty buckets, plain
// notify-everyone fan-out — until indexMinListeners listeners attach,
// then comes live with every earlier listener's recorded interest filed,
// and stays live as the population shrinks again.
func TestAutoIndexEngagesAtThreshold(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k)
	ids := make([]int, 0, indexMinListeners)
	for i := 0; i < indexMinListeners-1; i++ {
		p := &interestProbe{pos: phy.Position{X: float64(i)}, in: Interest{Scope: ScopeBand, Band: 2460}}
		ids = append(ids, m.Attach(p))
	}
	if m.indexLive || len(m.bands) != 0 {
		t.Fatalf("index live with %d listeners (buckets: %d); want dormant below %d",
			indexMinListeners-1, len(m.bands), indexMinListeners)
	}

	// A retune while dormant must still be recorded, so the build below
	// files the listener under its latest interest, not its attach-time one.
	m.SetInterest(ids[0], Interest{Scope: ScopeBand, Band: 2470})

	last := m.Attach(&interestProbe{pos: phy.Position{Y: 1}, in: Interest{Scope: ScopeBand, Band: 2460}})
	if !m.indexLive {
		t.Fatalf("index still dormant after listener %d of %d", last+1, indexMinListeners)
	}
	if got := len(m.bands[2460]); got != indexMinListeners-1 {
		t.Errorf("band 2460 bucket holds %d listeners, want %d", got, indexMinListeners-1)
	}
	if got := len(m.bands[2470]); got != 1 {
		t.Errorf("band 2470 bucket holds %d listeners, want 1 (the pre-build retune)", got)
	}

	m.Detach(last)
	if !m.indexLive {
		t.Error("index torn down by a detach; it should stay live once built")
	}
	if got := len(m.bands[2460]); got != indexMinListeners-2 {
		t.Errorf("band 2460 bucket holds %d listeners after detach, want %d", got, indexMinListeners-2)
	}
}

// TestWidebandDeliverySpansBands checks that a shaped (wideband)
// transmission reaches every band bucket its occupied bandwidth plus the
// receiver guard overlaps, exactly once, regardless of map iteration
// order.
func TestWidebandDeliverySpansBands(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, withFilter(true))

	src := &interestProbe{in: Interest{Scope: ScopeOwn}}
	srcID := m.Attach(src)
	probes := make([]*interestProbe, 0, 8)
	for i := 0; i < 8; i++ {
		p := &interestProbe{
			pos: phy.Position{X: float64(i + 1)},
			in:  Interest{Scope: ScopeBand, Band: 2405 + phy.MHz(10*i)}, // 2405..2475
		}
		probes = append(probes, p)
		m.Attach(p)
	}

	// A 22 MHz Wi-Fi-style emission at 2437: with the ±2 MHz guard it
	// spans [2424, 2450] — buckets 2425, 2435, 2445 (probes 2..4).
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)}
	m.TransmitShaped(srcID, src.pos, 15, 2437, 22, f)
	k.Run()
	for i, p := range probes {
		want := 0
		if i >= 2 && i <= 4 {
			want = 1
		}
		if p.onAir != want || p.offAir != want {
			t.Errorf("band %v: OnAir=%d OffAir=%d, want %d each",
				p.in.Band, p.onAir, p.offAir, want)
		}
	}
	if src.onAir != 1 || src.offAir != 1 {
		t.Errorf("source deliveries: OnAir=%d OffAir=%d, want 1 each", src.onAir, src.offAir)
	}
}
