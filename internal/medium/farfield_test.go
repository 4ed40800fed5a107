package medium

import (
	"math"
	"strings"
	"testing"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// The far-field fold's constructor contract: exact by default, and an
// opt-in budget that New enforces by panicking on any configuration that
// cannot honour it.

// farTestSnapshot builds a near-field snapshot of n single-node networks
// on a line with the given spacing, so the far/near split is easy to
// reason about.
func farTestSnapshot(t *testing.T, n int, spacing, lossBound float64) *topology.Snapshot {
	t.Helper()
	nets := make([]topology.NetworkSpec, n)
	for i := range nets {
		nets[i] = topology.NetworkSpec{
			Freq: 2458,
			Sink: topology.NodeSpec{Pos: phy.Position{X: float64(i) * spacing}},
		}
	}
	snap, err := topology.SnapshotFromSpecsNear(nets, nil, lossBound)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// mustPanic asserts fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T); want a string containing %q", r, r, want)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

func TestFarFieldBudgetContract(t *testing.T) {
	sparse := farTestSnapshot(t, 10, 40, 95) // ~22 m near range: line neighbours only

	t.Run("negative budget panics", func(t *testing.T) {
		mustPanic(t, "negative far-field error budget", func() {
			New(sim.NewKernel(1), WithSnapshot(sparse), WithFarField(-1))
		})
	})
	t.Run("no provider panics", func(t *testing.T) {
		mustPanic(t, "needs a topology snapshot", func() {
			New(sim.NewKernel(1), WithFarField(1))
		})
	})
	t.Run("exceeded budget panics", func(t *testing.T) {
		// At bound 95 dB the worst-case fold error over 9 far sources is
		// ~10·log10(1+9·10^-9.5/10^-10) ≈ 14.7 dB — far over a 1 dB budget.
		mustPanic(t, "exceeds the", func() {
			New(sim.NewKernel(1), WithSnapshot(sparse), WithFarField(1))
		})
	})
	t.Run("zero budget means exact", func(t *testing.T) {
		m := New(sim.NewKernel(1), WithSnapshot(sparse))
		if got := m.FarFieldErrorDB(); got != 0 {
			t.Fatalf("FarFieldErrorDB() = %v without a budget, want 0", got)
		}
		if m.spatial {
			t.Fatal("medium folded without a budget")
		}
		if m.snap == nil {
			t.Fatal("exact mode lost the snapshot: the far-pair cull certificate is gone")
		}
	})
	t.Run("honoured budget reports its error", func(t *testing.T) {
		m := New(sim.NewKernel(1), WithSnapshot(sparse), WithFarField(15))
		_, maxFar := sparse.FarField()
		unit := (phy.MaxTxPower - phy.DBm(95)).Milliwatts()
		want := 10 * math.Log10(1+float64(maxFar)*unit/phy.NoiseFloorMW)
		got := m.FarFieldErrorDB()
		if math.Abs(got-want) > 1e-12 || got <= 0 || got > 15 {
			t.Fatalf("FarFieldErrorDB() = %v, want %v (within the 15 dB budget)", got, want)
		}
	})
}

// TestFoldedUnbackedFallbacks pins the demotion paths: a detached listener
// and a late attacher leave the folded fast path, the late attacher gets
// exact sums, and untouched listeners stay folded.
func TestFoldedUnbackedFallbacks(t *testing.T) {
	snap := farTestSnapshot(t, 10, 40, 95)
	k := sim.NewKernel(1)
	m := New(k, WithSnapshot(snap), WithFarField(15),
		WithFadingSigma(0), WithStaticFadingSigma(0))

	probes := make([]*probe, 10)
	ids := make([]int, 10)
	for i := range probes {
		probes[i] = &probe{pos: phy.Position{X: float64(i) * 40}}
		ids[i] = m.Attach(probes[i])
	}
	for _, id := range ids {
		if !m.Folded(id) {
			t.Fatalf("listener %d not folded after attach at captured geometry", id)
		}
	}

	// While a far node transmits, a folded listener's reading sits above
	// the exact truth by at most the declared error.
	tx := m.Transmit(ids[9], probes[9].pos, 0, 2458, testFrame(16))
	exact := phy.FromMilliwatts(phy.NoiseFloorMW + m.InChannelPower(tx, ids[5], 2458).Milliwatts())
	folded := m.SensedPower(ids[5], 2458)
	if float64(folded) < float64(exact) || float64(folded) > float64(exact)+m.FarFieldErrorDB()+1e-9 {
		t.Fatalf("folded SensedPower = %v, want within [%v, +%v dB]", folded, exact, m.FarFieldErrorDB())
	}

	// Detach clears the fold flag; a late attacher never gets one.
	m.Detach(ids[7])
	if m.Folded(ids[7]) {
		t.Fatal("detached listener still folded")
	}
	if !m.Folded(ids[6]) {
		t.Fatal("neighbour of the detached listener lost its fold")
	}
	late := m.Attach(&probe{pos: phy.Position{X: -500}})
	if m.Folded(late) {
		t.Fatal("late attacher folded despite being outside the snapshot")
	}
	// Its sums are exact: compare against a brute-force walk.
	want := phy.FromMilliwatts(phy.NoiseFloorMW + m.InChannelPower(tx, late, 2458).Milliwatts())
	if got := m.SensedPower(late, 2458); got != want {
		t.Fatalf("unbacked SensedPower = %v, want exact %v", got, want)
	}
}

// TestFoldedReadsServedFromList churns the city cell the way receiving
// radios read it, a bound read and then the exact read at each reader. It
// holds the exact read to the bits of a fresh walk of the reader's
// near-active list, and the bound to at least that walk. The bound reads
// must hit and extend the total cached on the list: a fold whose cache
// every on-air change invalidated would return the same bounds, every
// bound read a walk, and fail here.
func TestFoldedReadsServedFromList(t *testing.T) {
	c := newCityChurn(t)
	var hits, extends, walks uint64
	for i := 800; i < 1200; i++ {
		c.advance(i)
		for _, r := range c.readers {
			before := c.m.folds
			_, hi := c.m.InterferenceBoundsMW(c.locked, r, c.probes[r].band)
			st := c.m.folds
			hits += st.hits - before.hits
			extends += st.extends - before.extends
			walks += st.walks - before.walks
			got := c.read(r)
			nl := &c.m.near[r]
			fresh := c.m.interferenceWalk(nl.live(), c.locked, r, c.probes[r].band, nl.far)
			if math.Float64bits(got) != math.Float64bits(fresh) {
				t.Fatalf("step %d reader %d: InterferenceMW = %v, a fresh walk of its list %v", i, r, got, fresh)
			}
			if !(fresh <= hi) {
				t.Fatalf("step %d reader %d: bound %v below a fresh walk of its list %v", i, r, hi, fresh)
			}
		}
	}
	t.Logf("bound reads: %d hits, %d extensions, %d walks", hits, extends, walks)
	if hits == 0 || extends == 0 {
		t.Fatalf("bound reads: %d hits, %d extensions, %d walks: the churn's bound reads must hit and extend", hits, extends, walks)
	}
}
