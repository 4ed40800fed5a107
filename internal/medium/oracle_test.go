package medium

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// The differential oracle: the sensing accessors must return values
// bit-identical to a brute-force sum the test maintains itself, under a
// randomized churn of transmissions starting and ending, listeners
// detaching and attaching, receivers retuning across channels,
// wideband and over-spec emitters, and transmitting listeners, whose own
// signal the sums leave out. The oracle tracks the on-air set through the
// public OnAir/OffAir listener callbacks and sums per-transmission powers
// through the public InChannelPower/RxPower accessors in ID order — its
// references never read the medium's active slice or cached sums; it
// only asserts that the active slice stays in ascending ID
// order, the order the medium's own sums rely on. The same churn runs
// against a dense medium, a near-field snapshot in exact mode
// (bit-identical by construction), and the far-field fold (bounded
// one-sided error). Under the fold, every read is also held to the bits
// of a fresh walk of the listener's own near-active list, so a cached
// folded total that went stale inside the error band still fails.

// trackerListener forwards air events to the test's own bookkeeping.
type trackerListener struct {
	pos    phy.Position
	onAir  func(*Transmission)
	offAir func(*Transmission)
}

func (l *trackerListener) Position() phy.Position { return l.pos }
func (l *trackerListener) OnAir(tx *Transmission) {
	if l.onAir != nil {
		l.onAir(tx)
	}
}
func (l *trackerListener) OffAir(tx *Transmission) {
	if l.offAir != nil {
		l.offAir(tx)
	}
}

// oracleConfig parameterises one churn run.
type oracleConfig struct {
	seed int64
	// record, when set, accumulates every sampled value for cross-run
	// bit-identity comparisons.
	record *[]phy.DBm
	// nearBound, when positive, installs a near-field topology snapshot
	// with this loss bound on the medium (WithSnapshot). The field is
	// sized so a small bound certifies many pairs far.
	nearBound float64
	// farBudget, when positive, additionally enables the far-field fold
	// under this error budget (requires nearBound). Sampled sums are then
	// compared against the brute force with a one-sided bounded error
	// instead of bit equality.
	farBudget float64
	// area is the field side in meters (default 40).
	area float64
	// noFading zeroes both fading sigmas. The folded runs need it: the
	// fold's certificate is fade-free, so only the fade-free landscape is
	// provably one-sided against the brute force.
	noFading bool
	// lateBacked (requires nearBound) captures a seventh node in the
	// snapshot, 3 m from the first, that attaches at its captured
	// position only late in the run, just after a narrowband frame from
	// the first node and a wideband one have gone on the air — so a
	// snapshot-backed listener joins mid-flight and, under the fold,
	// Attach must seed its near-active list. It replaces the run's
	// unbacked late attacher.
	lateBacked bool
}

// oracleName labels a churn subtest. Every fan-out reaches every live
// listener; the "filtered=false" suffix keeps the subtest names stable.
func oracleName(seed int64) string {
	return fmt.Sprintf("seed=%d/filtered=false", seed)
}

func TestCachedSumsMatchBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(oracleName(seed), func(t *testing.T) {
			testOracleChurn(t, oracleConfig{seed: seed})
		})
	}
}

// TestSpatialExactChurnBitIdentical replays the churn with and without a
// near-field snapshot in exact mode (no error budget) and
// requires bit-identical sample histories: materialised near losses are
// computed with the medium's own expression, certified-far pairs fall back
// to the exact model, so the spatial tier in exact mode must be
// observationally invisible. The small bound certifies a large fraction of
// the field's pairs far, so the far fallback actually runs.
func TestSpatialExactChurnBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(oracleName(seed), func(t *testing.T) {
			var dense, near []phy.DBm
			testOracleChurn(t, oracleConfig{seed: seed, record: &dense, area: 120})
			testOracleChurn(t, oracleConfig{seed: seed, record: &near, area: 120, nearBound: 95})
			compareSampleHistories(t, dense, near, "dense", "near-field")
		})
	}
}

// TestFoldedChurnBoundedError runs the churn with the far-field fold
// enabled and a fade-free landscape: every sampled sensing value must sit
// at or above the brute-force truth and within the medium's declared
// FarFieldErrorDB of it. The in-run check() asserts this per sample; the
// run here only needs to complete.
func TestFoldedChurnBoundedError(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(oracleName(seed), func(t *testing.T) {
			testOracleChurn(t, oracleConfig{seed: seed,
				area: 120, nearBound: 95, farBudget: 15, noFading: true})
		})
	}
	t.Run("seed=1/late-backed-attach", func(t *testing.T) {
		testOracleChurn(t, oracleConfig{seed: 1,
			area: 120, nearBound: 95, farBudget: 15, noFading: true, lateBacked: true})
	})
}

func compareSampleHistories(t *testing.T, a, b []phy.DBm, an, bn string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d %s, %d %s", len(a), an, len(b), bn)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v %s, %v %s", i, a[i], an, b[i], bn)
		}
	}
}

func testOracleChurn(t *testing.T, cfg oracleConfig) {
	if cfg.area == 0 {
		cfg.area = 40
	}
	k := sim.NewKernel(cfg.seed)
	rng := sim.NewRNG(cfg.seed * 977)
	channels := []phy.MHz{2458, 2460, 2461, 2463}

	// Pre-draw the six initial positions (the draw order matches the old
	// inline attach loop, keeping the churn identical across modes) so a
	// snapshot can be built before the medium.
	initPos := make([]phy.Position, 6)
	for i := range initPos {
		initPos[i] = phy.Position{
			X: rng.Float64()*cfg.area - cfg.area/2,
			Y: rng.Float64()*cfg.area - cfg.area/2,
		}
	}
	var mopts []Option
	if cfg.noFading {
		mopts = append(mopts, WithFadingSigma(0), WithStaticFadingSigma(0))
	}
	latePos := phy.Position{X: initPos[0].X + 3, Y: initPos[0].Y}
	var farUnitMW float64
	var snap *topology.Snapshot
	if cfg.nearBound > 0 {
		// One single-node network per initial listener: snapshot attach IDs
		// 0..5 line up with the medium's, and the late-backed node's 6 with
		// the late attacher's.
		captured := initPos
		if cfg.lateBacked {
			captured = append(captured[:len(captured):len(captured)], latePos)
		}
		nets := make([]topology.NetworkSpec, len(captured))
		for i, p := range captured {
			nets[i] = topology.NetworkSpec{Freq: channels[0], Sink: topology.NodeSpec{Pos: p}}
		}
		var err error
		snap, err = topology.SnapshotFromSpecsNear(nets, nil, cfg.nearBound)
		if err != nil {
			t.Fatal(err)
		}
		mopts = append(mopts, WithSnapshot(snap))
		if cfg.farBudget > 0 {
			mopts = append(mopts, WithFarField(cfg.farBudget))
			farUnitMW = (phy.MaxTxPower - phy.DBm(cfg.nearBound)).Milliwatts()
		}
	}
	// Default fading + shadowing unless disabled: exercise the lazy RNG draws.
	m := New(k, mopts...)
	folded := cfg.farBudget > 0
	if folded && m.FarFieldErrorDB() <= 0 {
		t.Fatal("FarFieldErrorDB() not positive with the fold enabled")
	}

	// The test's own view of the air, maintained purely from listener
	// callbacks.
	var active []*Transmission
	// Under the fold, Reachable answers a backed listener during a
	// bounded transmission's fan-out from the marks markReach left; the
	// tracker asserts, at every OnAir, that each listener's answer equals
	// the near-row search's, which clearing reachTx selects.
	var ids []int
	markedAnswers := 0
	checkReachable := func(tx *Transmission) {
		for _, lid := range ids {
			if m.reachTx == tx.ID+1 && m.Folded(lid) {
				markedAnswers++
			}
			got := m.Reachable(tx, lid)
			marks := m.reachTx
			m.reachTx = 0
			want := m.Reachable(tx, lid)
			m.reachTx = marks
			if got != want {
				t.Fatalf("t=%v tx %d listener %d: Reachable = %v, near-row search %v",
					k.Now(), tx.ID, lid, got, want)
			}
		}
	}
	track := func(l *trackerListener) {
		l.onAir = func(tx *Transmission) {
			active = append(active, tx)
			checkReachable(tx)
		}
		l.offAir = func(tx *Transmission) {
			for i, a := range active {
				if a == tx {
					active = append(active[:i], active[i+1:]...)
					return
				}
			}
			t.Fatalf("OffAir for unknown transmission %d", tx.ID)
		}
	}

	// Brute-force references, iterating a freshly sorted copy of the
	// tracked set. These mirror the documented semantics, not the
	// implementation's bookkeeping.
	ordered := func() []*Transmission {
		s := append([]*Transmission(nil), active...)
		sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
		return s
	}
	bruteSensed := func(lid int, freq phy.MHz) phy.DBm {
		total := phy.NoiseFloorMW
		for _, tx := range ordered() {
			if tx.Src == lid {
				continue
			}
			total += m.InChannelPower(tx, lid, freq).Milliwatts()
		}
		return phy.FromMilliwatts(total)
	}
	bruteCoChannel := func(lid int, freq phy.MHz) phy.DBm {
		total := phy.NoiseFloorMW
		for _, tx := range ordered() {
			if tx.Src == lid || tx.Freq != freq {
				continue
			}
			total += m.RxPower(tx, lid).Milliwatts()
		}
		return phy.FromMilliwatts(total)
	}
	bruteInterference := func(wanted *Transmission, lid int, freq phy.MHz) phy.DBm {
		total := 0.0
		for _, tx := range ordered() {
			if tx.ID == wanted.ID || tx.Src == lid {
				continue
			}
			total += m.InChannelPower(tx, lid, freq).Milliwatts()
		}
		return phy.FromMilliwatts(total)
	}

	// Six listeners scattered over the field; listener 0 maintains the
	// tracked set. One extra joins and one leaves mid-run.
	pos := make(map[int]phy.Position)
	attach := func(p phy.Position, tracked bool) int {
		l := &trackerListener{pos: p}
		if tracked {
			track(l)
		}
		id := m.Attach(l)
		pos[id] = p
		ids = append(ids, id)
		return id
	}
	for i, p := range initPos {
		attach(p, i == 0)
	}
	victim := ids[len(ids)-1] // detached mid-run, never transmits

	// compare checks one sampled value against its brute-force reference.
	// Exact modes demand bit equality. The folded mode demands the
	// documented one-sided bounded error: the fold only ever ADDS the
	// certified worst-case far aggregate, so got ∈ [want, want+errDB] in
	// the noise-floored sums (a 1e-9 dB slack absorbs summation-order
	// rounding).
	errDB := 0.0
	if folded {
		errDB = m.FarFieldErrorDB()
	}
	compare := func(what string, lid int, got, want phy.DBm) {
		t.Helper()
		if !folded {
			if got != want {
				t.Fatalf("t=%v listener %d: %s = %v, want %v", k.Now(), lid, what, got, want)
			}
			return
		}
		const eps = 1e-9
		if float64(got) < float64(want)-eps || float64(got) > float64(want)+errDB+eps {
			t.Fatalf("t=%v listener %d: folded %s = %v, want within [%v, %v+%v dB]",
				k.Now(), lid, what, got, want, want, errDB)
		}
	}
	// compareMW is the interference variant: with no noise-floor term the
	// dB error is unbounded near silence, but the fold's absolute overshoot
	// is still at most the whole far aggregate in milliwatts.
	compareMW := func(lid int, got, want phy.DBm) {
		t.Helper()
		if !folded {
			compare("Interference", lid, got, want)
			return
		}
		gotMW, wantMW := got.Milliwatts(), want.Milliwatts()
		bound := float64(m.farN) * farUnitMW
		const eps = 1e-15
		if gotMW < wantMW-eps || gotMW > wantMW+bound+bound*1e-9+eps {
			t.Fatalf("t=%v listener %d: folded Interference = %v mW, want within [%v, %v+%v mW]",
				k.Now(), lid, gotMW, wantMW, wantMW, bound)
		}
	}

	// checkNearLists holds the folded sums' sum sets to their definition:
	// a backed listener's near-active list is, in ID order, every tracked
	// transmission from a source in its near row plus every transmission
	// the fold cannot cover (wideband, over-spec, or from an unbacked
	// source), each with its source's rankOf in the near row; any other
	// listener's list is empty.
	unboundedSeen := 0
	checkNearLists := func() {
		if len(m.near) != len(m.listeners) {
			t.Fatalf("%d near-active lists for %d listeners", len(m.near), len(m.listeners))
		}
		for lid := range m.near {
			got := m.near[lid].live()
			var want []*Transmission
			var row []int32
			if m.Folded(lid) {
				row, _ = snap.NearRow(lid)
				for _, tx := range ordered() {
					near := false
					for _, id := range row {
						near = near || int(id) == tx.Src
					}
					bounded := tx.Bandwidth == 0 && tx.Power <= phy.MaxTxPower && snap.Backed(tx.Src, tx.Pos)
					if !bounded {
						unboundedSeen++
					}
					if near || !bounded {
						want = append(want, tx)
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("t=%v listener %d: near-active list holds %d transmissions, want %d",
					k.Now(), lid, len(got), len(want))
			}
			for i, e := range got {
				if e.tx != want[i] {
					t.Fatalf("t=%v listener %d: near-active entry %d is tx %d, want tx %d",
						k.Now(), lid, i, e.tx.ID, want[i].ID)
				}
				if r := rankOf(row, int32(e.tx.Src)); int(e.rank) != r {
					t.Fatalf("t=%v listener %d: tx %d stored rank %d, rankOf %d",
						k.Now(), lid, e.tx.ID, e.rank, r)
				}
			}
		}
	}

	// checkFresh holds a folded listener's reads — cache hits, extended
	// totals and walks alike — to the bits of a fresh walk of its whole
	// near-active list, whatever the fold's error band would allow.
	checkFresh := func(what string, lid int, got, fresh float64) {
		t.Helper()
		if got != fresh {
			t.Fatalf("t=%v listener %d: folded %s = %v, a fresh walk of its list %v (reads so far %+v)",
				k.Now(), lid, what, got, fresh, m.folds)
		}
	}

	// checkBounds holds a folded listener's bound-first interference read,
	// made just before the exact read, to the fresh walk: lo ≤ fresh ≤ hi.
	// It also replays Radio.closeSegment's zero certificate, fl(sum +
	// noise) ≤ z, at thresholds on both sides of the two sums: certifying
	// from the bound first and from the exact sum only when the bound
	// cannot must decide exactly as the exact sum alone. A bound hit is a
	// strict bound that still certified, a bound miss a threshold only the
	// exact sum certified.
	boundHits, boundMisses, strictBounds, exactBounds := 0, 0, 0, 0
	checkBounds := func(lid int, lo, hi, fresh float64) {
		t.Helper()
		if !(lo <= fresh && fresh <= hi) {
			t.Fatalf("t=%v listener %d: interference bounds [%v, %v] miss a fresh walk's %v (reads so far %+v)",
				k.Now(), lid, lo, hi, fresh, m.folds)
		}
		if hi != fresh {
			strictBounds++
		}
		hiSum, exactSum := hi+phy.NoiseFloorMW, fresh+phy.NoiseFloorMW
		for _, z := range []float64{exactSum, hiSum, math.Nextafter(exactSum, 0), math.Nextafter(hiSum, 0), (exactSum + hiSum) / 2} {
			fromBound := hiSum <= z
			fromExact := exactSum <= z
			if fromBound && !fromExact {
				t.Fatalf("t=%v listener %d: bound %v certifies zero at %v mW, the exact sum %v does not",
					k.Now(), lid, hi, z, fresh)
			}
			if fromBound && hi != fresh {
				boundHits++
			}
			if !fromBound && fromExact {
				boundMisses++
			}
		}
	}

	// checkExactBounds holds any other listener's bound read to the exact
	// read that follows it: lo == hi == InterferenceMW, bit for bit.
	checkExactBounds := func(lid int, lo, hi, exact float64) {
		t.Helper()
		if math.Float64bits(lo) != math.Float64bits(exact) || math.Float64bits(hi) != math.Float64bits(exact) {
			t.Fatalf("t=%v listener %d: non-folded interference bounds [%v, %v], InterferenceMW %v",
				k.Now(), lid, lo, hi, exact)
		}
		exactBounds++
	}

	foldedSamples, ownSamples := 0, 0
	check := func() {
		for i := 1; i < len(m.active); i++ {
			if m.active[i-1].ID >= m.active[i].ID {
				t.Fatalf("t=%v: active set out of ID order at index %d: ID %d before %d",
					k.Now(), i, m.active[i-1].ID, m.active[i].ID)
			}
		}
		if folded {
			checkNearLists()
		}
		for _, lid := range ids {
			if m.Attached(lid) && m.Folded(lid) {
				foldedSamples++
			}
			if !m.Attached(lid) {
				if got := m.SensedPower(lid, channels[0]); got != phy.Silent {
					t.Fatalf("detached listener %d: SensedPower = %v, want Silent", lid, got)
				}
				continue
			}
			freq := channels[rng.Intn(len(channels))]
			// A transmitting listener's samples cover the own-signal skip.
			for _, tx := range active {
				if tx.Src == lid {
					ownSamples++
					break
				}
			}
			// Sample twice: a folded listener's second read is served
			// from the sums cached on its list, any other listener's
			// walks the on-air set again, and both must return the
			// identical bits.
			sample := func(v phy.DBm) phy.DBm {
				if cfg.record != nil {
					*cfg.record = append(*cfg.record, v)
				}
				return v
			}
			var nl *nearList
			if m.Folded(lid) {
				nl = &m.near[lid]
			}
			// A receiver's bound-first read comes before the sensing reads
			// fill the slots exactly, as a segment close can.
			if len(active) > 0 {
				lo, hi := m.InterferenceBoundsMW(active[0], lid, freq)
				if nl != nil {
					checkBounds(lid, lo, hi, m.interferenceWalk(nl.live(), active[0], lid, freq, nl.far))
				} else {
					checkExactBounds(lid, lo, hi, m.InterferenceMW(active[0], lid, freq))
				}
			}
			for pass := 0; pass < 2; pass++ {
				sensed := sample(m.SensedPower(lid, freq))
				compare("SensedPower", lid, sensed, bruteSensed(lid, freq))
				coch := sample(m.SensedCoChannelPower(lid, freq))
				compare("SensedCoChannelPower", lid, coch, bruteCoChannel(lid, freq))
				if nl != nil {
					checkFresh("SensedPower", lid, float64(sensed),
						float64(phy.FromMilliwatts(m.sensedWalk(nl.live(), lid, freq, phy.NoiseFloorMW+nl.far))))
					checkFresh("SensedCoChannelPower", lid, float64(coch),
						float64(phy.FromMilliwatts(m.coChannelWalk(nl.live(), lid, freq, phy.NoiseFloorMW+nl.far))))
				}
			}
			// Every transmission on the air in turn as the wanted one,
			// twice each. The first goes again last, so the next check
			// opens on the wanted its interference cache holds and can
			// extend that total.
			if len(active) == 0 {
				continue
			}
			wanteds := append(append([]*Transmission(nil), active...), active[0])
			for _, wanted := range wanteds {
				for pass := 0; pass < 2; pass++ {
					lo, hi := m.InterferenceBoundsMW(wanted, lid, freq)
					got := m.InterferenceMW(wanted, lid, freq)
					compareMW(lid, sample(phy.FromMilliwatts(got)), bruteInterference(wanted, lid, freq))
					if nl != nil {
						fresh := m.interferenceWalk(nl.live(), wanted, lid, freq, nl.far)
						checkFresh("InterferenceMW", lid, got, fresh)
						checkBounds(lid, lo, hi, fresh)
					} else {
						checkExactBounds(lid, lo, hi, got)
					}
				}
			}
		}
	}

	// Churn: transmissions start at random times on random channels from
	// random sources, and end whenever their airtime runs out. Samples are
	// interleaved throughout; retunes are the samples' changing freq
	// argument. Every sixth emitter is wideband — alternating between
	// narrower than the receiver window (never culled) and wider (culled by
	// its actual power) — and every tenth narrowband one runs over spec,
	// outside the cull's power bound.
	const span = 2 * time.Second
	for i := 0; i < 120; i++ {
		at := time.Duration(rng.Intn(int(span)))
		src := ids[rng.Intn(len(ids)-1)] // never the victim
		freq := channels[rng.Intn(len(channels))]
		power := phy.DBm(rng.Float64()*25 - 25)
		payload := 8 + rng.Intn(112)
		var bandwidth phy.MHz
		if i%6 == 5 {
			bandwidth = phy.MHz(1 + 3*(i%2)) // 1 MHz or 4 MHz occupied
		} else if i%10 == 9 {
			power = phy.MaxTxPower + phy.DBm(rng.Float64()*3) // over-spec
		}
		k.After(at, func() {
			m.TransmitShaped(src, pos[src], power, freq, bandwidth, testFrame(payload))
		})
	}
	for i := 0; i < 250; i++ {
		k.After(time.Duration(rng.Intn(int(span))), check)
	}
	// Bursts: four equal-length frames from distinct sources, staggered so
	// the first to start ends first while the other three are still up.
	// Sampling just after each end catches a removal that leaves the
	// active set out of ID order; the sparse churn above rarely has more
	// than two frames on the air. Sampling just after each start reads
	// near-active lists that only grew since the previous start's sample,
	// so the folded caches extend non-empty totals.
	burst := testFrame(64)
	airtime := burst.Airtime()
	for b := 0; b < 8; b++ {
		at := time.Duration(rng.Intn(int(span - 2*airtime)))
		for j := 0; j < 4; j++ {
			src, start := ids[j], at+time.Duration(j)*airtime/8
			freq := channels[rng.Intn(len(channels))]
			k.After(start, func() { m.Transmit(src, pos[src], -5, freq, burst) })
			k.After(start+time.Microsecond, check)
			k.After(start+airtime+time.Microsecond, check)
		}
	}
	k.After(span/2, func() { m.Detach(victim) })
	k.After(3*span/4, func() {
		if !cfg.lateBacked {
			attach(phy.Position{X: rng.Float64() * 10, Y: -5}, false)
			check()
			return
		}
		m.Transmit(ids[0], pos[ids[0]], -5, channels[0], burst)
		m.TransmitShaped(ids[1], pos[ids[1]], -5, channels[1], 4, burst)
		late := attach(latePos, false)
		if folded && !m.Folded(late) {
			t.Fatalf("late attacher %d at its captured position is not snapshot-backed", late)
		}
		check()
	})
	k.Run()
	if len(active) != 0 {
		t.Fatalf("tracked set not empty after run: %d left", len(active))
	}
	check() // quiescent air: pure noise floor everywhere
	// The fold must actually have been live for a meaningful share of the
	// samples.
	if folded && foldedSamples == 0 {
		t.Fatal("folded run sampled no folded listener — the fold path was never exercised")
	}
	if folded && unboundedSeen == 0 {
		t.Fatal("no unbounded transmission was on the air at a near-active list check")
	}
	// The fresh-walk check is only as strong as the reads it saw: each
	// way of serving a folded read must have been checked.
	if folded {
		t.Logf("folded reads: %d hits, %d extensions, %d walks, %d entries visited; %d Reachable answers from marks",
			m.folds.hits, m.folds.extends, m.folds.walks, m.folds.visited, markedAnswers)
	}
	if folded && (m.folds.hits == 0 || m.folds.extends == 0 || m.folds.walks == 0) {
		t.Fatalf("folded reads %+v: a hit, an extension and a walk must each be checked", m.folds)
	}
	if folded {
		t.Logf("bound reads: %d, %d strict; %d bound hits and %d bound misses checked; %d exact reads after a bound",
			m.folds.boundReads, strictBounds, boundHits, boundMisses, m.folds.boundMisses)
	}
	if folded && (boundHits == 0 || boundMisses == 0 || m.folds.boundMisses == 0) {
		t.Fatalf("%d bound hits, %d bound misses, %d exact reads after a bound: each must be checked",
			boundHits, boundMisses, m.folds.boundMisses)
	}
	if folded && markedAnswers == 0 {
		t.Fatal("no Reachable answer came from the fan-out marks")
	}
	if ownSamples == 0 {
		t.Fatal("no listener was sampled while transmitting — the own-signal skip was never exercised")
	}
	if !cfg.lateBacked && exactBounds == 0 {
		t.Fatal("no non-folded listener's interference bounds were checked")
	}
}
