package medium

import (
	"testing"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// wakeModel mirrors each listener's delivery class in the test, so the
// listeners can check every call against it as the fan-out makes it.
type wakeModel struct {
	t     *testing.T
	m     *Medium
	class []Wake
	freq  []phy.MHz
	// seen counts the (from, to) class transitions made, a frequency
	// change within WakeTuned included.
	seen map[[2]Wake]int
	// Per event: the transmission, its kind and the last ID called; and
	// the calls over the whole test.
	tx    *Transmission
	off   bool
	last  int
	calls uint64
	// hooks run inside a listener's handler when the medium calls it.
	hooks map[int]func(tx *Transmission, off bool)
}

// wakes reports whether the event being fanned out must reach id now.
func (w *wakeModel) wakes(id int) bool {
	if !w.m.Attached(id) {
		return false
	}
	switch w.class[id] {
	case WakeAll:
		return true
	case WakeTuned:
		return (!w.off && w.freq[id] == w.tx.Freq) || (w.off && w.tx.Src == id)
	}
	return w.off && w.tx.Src == id
}

func (w *wakeModel) setWake(id int, c Wake, f phy.MHz) {
	if c != WakeTuned {
		f = 0
	}
	if w.m.Attached(id) && (c != w.class[id] || f != w.freq[id]) {
		w.seen[[2]Wake{w.class[id], c}]++
	}
	w.m.SetWake(id, c, f)
	if w.m.Attached(id) {
		w.class[id], w.freq[id] = c, f
	}
}

// call is every listener's handler: the medium must call exactly the IDs
// the model wakes, in ascending order, so every ID skipped since the last
// call must be one the model does not wake.
func (w *wakeModel) call(id int, tx *Transmission, off bool) {
	w.t.Helper()
	w.calls++
	if id == 0 { // the sentinel that opens every event
		w.tx, w.off, w.last = tx, off, 0
	} else if tx != w.tx || off != w.off {
		w.t.Fatalf("listener %d called for tx %d off=%v inside the fan-out of tx %d off=%v", id, tx.ID, off, w.tx.ID, w.off)
	}
	for skipped := w.last + 1; skipped < id; skipped++ {
		if w.wakes(skipped) {
			w.t.Fatalf("tx %d off=%v: listener %d (class %d, freq %v) skipped", tx.ID, off, skipped, w.class[skipped], w.freq[skipped])
		}
	}
	if id != 0 && !w.wakes(id) {
		w.t.Fatalf("tx %d off=%v: listener %d (class %d, freq %v) called", tx.ID, off, id, w.class[id], w.freq[id])
	}
	w.last = id
	if h := w.hooks[id]; h != nil {
		h(tx, off)
	}
}

type wakeListener struct {
	id int
	w  *wakeModel
}

func (l *wakeListener) Position() phy.Position  { return phy.Position{X: float64(l.id)} }
func (l *wakeListener) OnAir(tx *Transmission)  { l.w.call(l.id, tx, false) }
func (l *wakeListener) OffAir(tx *Transmission) { l.w.call(l.id, tx, true) }

// TestWakeBitsetFanout drives the fan-out's delivery sets across three
// 64-bit words. IDs 0 and n-1 are WakeAll sentinels that open and close
// every event, so each listener's call checks the IDs skipped before it.
// It covers IDs 63 and 64 through every class and frequency transition, a
// source detached mid-flight, and handlers that re-wake or detach later
// listeners in their own word and in a later one during the fan-out.
func TestWakeBitsetFanout(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, WithFadingSigma(0), WithStaticFadingSigma(0))
	const n = 130
	w := &wakeModel{t: t, m: m, class: make([]Wake, n), freq: make([]phy.MHz, n),
		seen: map[[2]Wake]int{}, hooks: map[int]func(*Transmission, bool){}}
	for i := 0; i < n; i++ {
		if id := m.Attach(&wakeListener{id: i, w: w}); id != i {
			t.Fatalf("attach ID %d, want %d", id, i)
		}
	}
	freqs := []phy.MHz{2460, 2461, 2465}
	f := testFrame(16)
	airtime := sim.FromDuration(f.Airtime())
	send := func(src int, freq phy.MHz) {
		m.Transmit(src, phy.Position{X: float64(src)}, 0, freq, f)
		if w.last != n-1 {
			t.Fatalf("OnAir of src %d ended at listener %d, want the closing sentinel", src, w.last)
		}
	}
	flush := func() { k.RunUntil(k.Now() + airtime) }

	// Every transition at the word boundary, each followed by events.
	steps := []struct {
		c Wake
		f phy.MHz
	}{
		{WakeTuned, 2460}, {WakeTuned, 2465}, {WakeOwn, 0}, {WakeTuned, 2460},
		{WakeAll, 0}, {WakeOwn, 0}, {WakeAll, 0}, {WakeTuned, 2465}, {WakeTuned, 2465},
	}
	for _, st := range steps {
		for _, id := range []int{63, 64} {
			w.setWake(id, st.c, st.f)
		}
		for _, src := range []int{63, 64, 5} {
			for _, fr := range freqs {
				send(src, fr)
			}
		}
		flush()
	}
	for _, from := range []Wake{WakeAll, WakeTuned, WakeOwn} {
		for _, to := range []Wake{WakeAll, WakeTuned, WakeOwn} {
			if (from != to || to == WakeTuned) && w.seen[[2]Wake{from, to}] == 0 {
				t.Errorf("transition %d -> %d not exercised", from, to)
			}
		}
	}

	// A handler tunes a later listener to the event's channel, one no
	// listener was tuned to before: the fan-out must pick up the new set.
	w.hooks[10] = func(tx *Transmission, off bool) {
		if !off {
			w.setWake(20, WakeTuned, tx.Freq)
		}
	}
	w.setWake(10, WakeAll, 0)
	w.setWake(20, WakeOwn, 0)
	send(5, 2470)
	if w.class[20] != WakeTuned {
		t.Fatal("the hook at listener 10 did not run")
	}
	flush()

	// A detached source's OffAir reaches no one but the sentinels.
	w.setWake(70, WakeOwn, 0)
	send(70, 2461)
	m.Detach(70)
	flush()

	// Handlers that re-class and detach later listeners mid-fan-out: 10
	// flips 20 (same word) and 100 (a later word); 30 detaches one later
	// listener in its word or the next, once per event until few remain.
	rng := sim.NewRNG(3)
	pick := func() (Wake, phy.MHz) {
		return Wake(rng.Intn(3)), freqs[rng.Intn(len(freqs))]
	}
	w.hooks[10] = func(*Transmission, bool) {
		c, fr := pick()
		w.setWake(20, c, fr)
		c, fr = pick()
		w.setWake(100, c, fr)
	}
	detached := 0
	w.hooks[30] = func(*Transmission, bool) {
		if detached < 12 {
			id := 31 + rng.Intn(n-32)
			if m.Attached(id) && id != 100 {
				m.Detach(id)
				detached++
			}
		}
	}
	for id := 1; id < n-1; id++ {
		c, fr := pick()
		w.setWake(id, c, fr)
	}
	w.setWake(10, WakeAll, 0)
	w.setWake(30, WakeAll, 0)
	for step := 0; step < 400; step++ {
		for j := 0; j < 3; j++ {
			if id := 1 + rng.Intn(n-2); id != 10 && id != 30 {
				c, fr := pick()
				w.setWake(id, c, fr)
			}
		}
		if src := 1 + rng.Intn(n-2); m.Attached(src) {
			send(src, freqs[rng.Intn(len(freqs))])
		}
		if step%4 == 3 {
			flush()
		}
	}
	k.Run()

	if detached == 0 {
		t.Error("no listener detached mid-fan-out")
	}
	st := m.DisseminationStats()
	if st.Callbacks != w.calls {
		t.Fatalf("DisseminationStats.Callbacks = %d, listeners counted %d calls", st.Callbacks, w.calls)
	}
	if st.Callbacks >= st.Events*n/2 {
		t.Fatalf("DisseminationStats = %+v: the classes skipped too few callbacks", st)
	}
}

// TestSetWakeAllocatesNothing pins SetWake's steady state: once a
// frequency and an ID have been seen, moving a listener between classes
// allocates nothing.
func TestSetWakeAllocatesNothing(t *testing.T) {
	_, m := newTestMedium(t)
	for i := 0; i < 100; i++ {
		m.Attach(&probe{})
	}
	for _, fr := range []phy.MHz{2460, 2465} {
		m.SetWake(99, WakeTuned, fr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for id := 0; id < 100; id++ {
			m.SetWake(id, WakeTuned, 2460)
			m.SetWake(id, WakeTuned, 2465)
			m.SetWake(id, WakeOwn, 0)
			m.SetWake(id, WakeAll, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("SetWake allocated %v times per run, want 0", allocs)
	}
}
