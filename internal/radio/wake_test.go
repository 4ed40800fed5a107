package radio

import (
	"testing"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// wakeTap is a plain listener attached ahead of every radio, so the medium
// calls it first in every fan-out. From the radios' public state it counts
// the radios the event must reach — every receiving radio; for an OnAir,
// the idle radios tuned to its channel; for an OffAir, its source — and
// checks, at the next event, that the medium made exactly that many
// callbacks plus its own.
type wakeTap struct {
	t      *testing.T
	m      *medium.Medium
	radios []*Radio
	want   uint64 // callbacks expected up to and including this event's own
	events uint64
}

func (w *wakeTap) Position() phy.Position         { return phy.Position{X: -30} }
func (w *wakeTap) OnAir(tx *medium.Transmission)  { w.event(tx, false) }
func (w *wakeTap) OffAir(tx *medium.Transmission) { w.event(tx, true) }

func (w *wakeTap) event(tx *medium.Transmission, off bool) {
	w.t.Helper()
	w.events++
	w.want++ // the tap's own callback, already counted
	if got := w.m.DisseminationStats().Callbacks; got != w.want {
		w.t.Fatalf("event %d (tx %d, off=%v): %d callbacks so far, want %d", w.events, tx.ID, off, got, w.want)
	}
	for _, r := range w.radios {
		if !w.m.Attached(r.ID()) {
			continue
		}
		switch {
		case r.State() == StateRX,
			off && tx.Src == r.ID(),
			!off && r.State() == StateIdle && r.Freq() == tx.Freq:
			w.want++
		}
	}
}

// TestWakeClassesMatchRadioState replays churn through radios on three
// channels — retunes mid-reception, power cycles, capture, a detach — and
// checks, event by event, that the medium calls exactly the radios whose
// state lets them act on the event. A scripted prefix makes each of those
// transitions happen at least once; random traffic follows.
func TestWakeClassesMatchRadioState(t *testing.T) {
	k := sim.NewKernel(11)
	m := medium.New(k, medium.WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
	tap := &wakeTap{t: t, m: m}
	if id := m.Attach(tap); id != 0 {
		t.Fatalf("tap attached as %d, want 0", id)
	}
	freqs := []phy.MHz{2460, 2461, 2465}
	const n = 24
	for i := 0; i < n; i++ {
		cfg := Config{
			Pos:     phy.Position{X: float64(i%6) * 1.5, Y: float64(i/6) * 1.5},
			Freq:    freqs[i%3],
			TxPower: 0,
			Address: frame.Address(i + 1),
		}
		if i%4 == 0 {
			cfg.CaptureMargin = 3
		}
		tap.radios = append(tap.radios, New(k, m, cfg))
	}
	r := tap.radios
	var captured []frame.Address // radio 0's receptions
	r[0].OnReceive = func(rc Reception) { captured = append(captured, rc.Frame.Src) }
	send := func(rd *Radio, payload int) {
		if !m.Attached(rd.ID()) || rd.State() == StateOff || rd.State() == StateTX {
			return
		}
		if _, err := rd.Transmit(dataFrame(payload, rd.Address(), 0xffff)); err != nil {
			t.Fatal(err)
		}
	}
	at := func(us int, f func()) { k.At(sim.Time(us)*sim.Microsecond, f) }
	need := func(rd *Radio, st State, what string) {
		if rd.State() != st {
			t.Fatalf("%s: radio %d is %v, want %v", what, rd.ID(), rd.State(), st)
		}
	}

	// Capture: radio 0 (capture on, 2460) locks on to radio 21's weak frame
	// from 6.4 m, then radio 1's frame from 1.5 m steals the lock.
	at(0, func() { r[1].SetFreq(2460); send(r[21], 100) })
	at(400, func() { need(r[0], StateRX, "before capture"); send(r[1], 20) })
	// Retune mid-reception: radio 6 (2460) is receiving radio 21's frame.
	at(800, func() { need(r[6], StateRX, "before retune"); r[6].SetFreq(2465) })
	// Power cycle mid-reception, then back on while the air is still busy.
	at(900, func() { need(r[9], StateRX, "before power-off"); r[9].SetOff() })
	at(1500, func() { r[9].SetOn(); need(r[9], StateIdle, "after power-on") })
	// Detach a receiving radio mid-flight.
	at(1600, func() { need(r[15], StateRX, "before detach"); m.Detach(r[15].ID()) })

	// Random churn from 5 ms on.
	rng := sim.NewRNG(5)
	for us := 5000; us < 1000000; us += 1 + rng.Intn(400) {
		rd, op, v := r[rng.Intn(n)], rng.Intn(10), rng.Intn(3)
		at(us, func() {
			switch {
			case op < 6:
				send(rd, 10+20*v)
			case op < 8:
				rd.SetFreq(freqs[v])
			case op == 8:
				rd.SetOff()
			default:
				rd.SetOn()
			}
		})
	}
	k.Run()

	if len(captured) == 0 || captured[0] != r[1].Address() {
		t.Errorf("radio 0 received %v first, want radio 1's frame (capture)", captured)
	}
	st := m.DisseminationStats()
	if st.Events != tap.events || st.Callbacks != tap.want {
		t.Fatalf("DisseminationStats = %+v, want %d events and %d callbacks", st, tap.events, tap.want)
	}
	if st.Events < 1000 || st.Callbacks >= st.Events*(n+1) {
		t.Fatalf("DisseminationStats = %+v: too little churn, or no callback skipped", st)
	}
}
