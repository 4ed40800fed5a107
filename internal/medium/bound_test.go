package medium

import (
	"math"
	"testing"
	"unsafe"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// The bound-first interference read rests on two facts, checked here
// apart from the medium: mwUpper never reads below the exact conversion,
// and a left-to-right sum of non-negative terms never grows when terms
// are removed. The churn oracle (oracle_test.go) checks the two together
// on the medium's own reads.

// TestMWUpperBoundsMilliwatts holds mwUpper(d) ≥ d.Milliwatts() at every
// grid point and the four floats on either side of it, at 10⁷ seeded
// levels over and beyond the grid, and at Silent and levels outside the
// grid, where it must convert exactly.
func TestMWUpperBoundsMilliwatts(t *testing.T) {
	check := func(d phy.DBm) {
		t.Helper()
		if up, mw := mwUpper(d), d.Milliwatts(); !(up >= mw) {
			t.Fatalf("mwUpper(%v) = %v, below Milliwatts %v", d, up, mw)
		}
	}
	for k := mwGridLo; k <= mwGridHi; k++ {
		g := float64(k) / mwGridStep
		// The slack is what covers a conversion that is not monotone: each
		// grid value must sit strictly above its own point's conversion.
		if v, mw := mwGrid[k-mwGridLo], phy.DBm(g).Milliwatts(); !(v > mw) {
			t.Fatalf("grid value %v at %v dBm carries no slack over Milliwatts %v", v, g, mw)
		}
		lo, hi := g, g
		check(phy.DBm(g))
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			check(phy.DBm(lo))
			check(phy.DBm(hi))
		}
	}
	rng := sim.NewRNG(24)
	span := float64(mwGridHi-mwGridLo)/mwGridStep + 20
	for i := 0; i < 10_000_000; i++ {
		check(phy.DBm(float64(mwGridLo)/mwGridStep - 10 + rng.Float64()*span))
	}
	for _, d := range []phy.DBm{phy.Silent, -400, mwGridLo/mwGridStep - 1, mwGridHi/mwGridStep + 1e-9, 100, -2000} {
		if up, mw := mwUpper(d), d.Milliwatts(); up != mw {
			t.Fatalf("mwUpper(%v) = %v outside the grid, want the exact %v", d, up, mw)
		}
	}
	// Inside the grid the bound is at most one step high.
	if r := mwUpper(-80.01) / phy.DBm(-80.01).Milliwatts(); r > math.Pow(10, 0.1/mwGridStep)*(1+1e-9) {
		t.Fatalf("mwUpper(-80.01) is %v times Milliwatts, over one grid step", r)
	}
}

// TestRemovedTermsNeverRaiseTheSum is the removal lemma the cached bounds
// rest on, as a property: a total kept the way interferenceBoundFolded
// keeps it — terms added as they are appended, some through mwUpper, and
// never reduced when a term is removed — stays at or above a fresh
// left-to-right sum of the terms still present, from the same base.
func TestRemovedTermsNeverRaiseTheSum(t *testing.T) {
	rng := sim.NewRNG(5)
	term := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(8))
		default:
			return phy.DBm(rng.Float64()*200 - 180).Milliwatts()
		}
	}
	strict := 0
	for trial := 0; trial < 2000; trial++ {
		base := phy.DBm(rng.Float64()*60 - 130).Milliwatts()
		var terms []float64
		bound := base
		for op := 0; op < 200; op++ {
			if len(terms) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(terms))
				terms = append(terms[:i], terms[i+1:]...)
			} else {
				v := term()
				if rng.Intn(2) == 0 {
					d := phy.FromMilliwatts(v) // a term a walk converts from dBm
					v = d.Milliwatts()
					bound += mwUpper(d)
				} else {
					bound += v
				}
				terms = append(terms, v)
			}
			fresh := base
			for _, v := range terms {
				fresh += v
			}
			if !(bound >= fresh) {
				t.Fatalf("trial %d op %d: kept total %v below a fresh sum %v of %d terms", trial, op, bound, fresh, len(terms))
			}
			if bound > fresh {
				strict++
			}
		}
	}
	if strict == 0 {
		t.Fatal("the kept total never exceeded the fresh sum: the property was not exercised")
	}
}

// TestLinkSlotSize pins the link slot at 56 bytes: the bound flag must fit
// the padding, since the folded walks are bound by slot loads.
func TestLinkSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(linkSlot{}); n != 56 {
		t.Fatalf("linkSlot is %d bytes, want 56", n)
	}
}

// TestNearListHeadRemoval drives a near-active list through random appends
// and removals, most at the head as transmissions leave the air oldest
// first, and holds it to a plain slice after every operation. The backing
// array must stay within a constant factor of the largest live length.
func TestNearListHeadRemoval(t *testing.T) {
	rng := sim.NewRNG(9)
	var nl nearList
	var model []*Transmission
	next := uint64(0)
	maxLive := 0
	for op := 0; op < 200_000; op++ {
		if len(model) > 0 && rng.Intn(2) == 0 {
			i := 0
			if rng.Intn(8) == 0 {
				i = rng.Intn(len(model))
			}
			before := nl.removed
			nl.remove(model[i])
			if nl.removed != before+1 {
				t.Fatalf("op %d: removal did not bump the removal count", op)
			}
			model = append(model[:i], model[i+1:]...)
		} else {
			tx := &Transmission{ID: next}
			next++
			nl.push(nearEntry{tx: tx, rank: int32(op)})
			model = append(model, tx)
		}
		maxLive = max(maxLive, len(model))
		live := nl.live()
		if len(live) != len(model) {
			t.Fatalf("op %d: %d live entries, want %d", op, len(live), len(model))
		}
		for i, e := range live {
			if e.tx != model[i] {
				t.Fatalf("op %d: entry %d is tx %d, want %d", op, i, e.tx.ID, model[i].ID)
			}
		}
		want := uint64(0)
		if len(model) > 0 {
			want = model[len(model)-1].ID + 1
		}
		if nl.upto != want {
			t.Fatalf("op %d: list upto %d, want %d", op, nl.upto, want)
		}
		for _, e := range nl.entries[:nl.head] {
			if e.tx != nil {
				t.Fatalf("op %d: a removed entry still holds tx %d", op, e.tx.ID)
			}
		}
	}
	if c := cap(nl.entries); c > 4*maxLive+8 {
		t.Fatalf("backing array of %d entries for at most %d live", c, maxLive)
	}
}
