package radio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// The zero-error certificate and the tiny-BER band in closeSegment must
// not change a single bit error or random draw. These tests replay the
// same randomized air twice: once through production radios, once
// through refReceiver, a receive-only copy of the radio's reception logic
// whose closeSegment always evaluates SINR→BER→Binomial. Charged errors and the position of
// every random stream must agree.

// refReceiver is the reference: the radio's lock-on, capture and segment
// integration, making the same medium calls in the same order, with the
// segment close as it was before either certificate.
type refReceiver struct {
	k       *sim.Kernel
	m       *medium.Medium
	id      int
	pos     phy.Position
	freq    phy.MHz
	capture phy.DBm
	rng     *sim.RNG

	tx        *medium.Transmission // locked frame, nil when idle
	signal    phy.DBm
	bitErrors int
	segStart  sim.Time
	carry     float64

	onAir []*medium.Transmission // every foreign transmission in flight
	errs  []int                  // BitErrors per finished reception
	cov   coverage
}

// coverage counts what the replay exercised, so a test that silently
// stopped reaching a case fails instead of passing vacuously.
type coverage struct {
	segments int // segments evaluated (at least one whole bit)
	// certTight and certLoose count segments whose exact SINR is at or
	// above ZeroBERSINR + certMarginDB, give or take 1e-9 dB: the
	// certificate must fire on every tight one and on no more than the
	// loose ones.
	certTight int
	certLoose int
	// tinyTight and tinyLoose do the same for the tiny-BER band, an
	// exact SINR in [TinyBERLoSINR + certMarginDB,
	// TinyBERHiSINR − certMarginDB].
	tinyTight int
	tinyLoose int
	nearBound int // exact SINR within 1 dB of ZeroBERSINR
	nearTiny  int // exact SINR within 1 dB of a tiny-BER band edge
	coChannel int // a co-channel interferer on the air
	adjacent  int // an interferer on another channel on the air
	captures  int // locks stolen by a stronger co-channel frame
}

func (c *coverage) add(o coverage) {
	c.segments += o.segments
	c.certTight += o.certTight
	c.certLoose += o.certLoose
	c.tinyTight += o.tinyTight
	c.tinyLoose += o.tinyLoose
	c.nearBound += o.nearBound
	c.nearTiny += o.nearTiny
	c.coChannel += o.coChannel
	c.adjacent += o.adjacent
	c.captures += o.captures
}

func (r *refReceiver) Position() phy.Position { return r.pos }

func (r *refReceiver) OnAir(tx *medium.Transmission) {
	if tx.Src == r.id {
		return
	}
	defer func() { r.onAir = append(r.onAir, tx) }()
	if r.tx != nil {
		r.closeSegment()
		if r.capture > 0 && tx.Freq == r.freq {
			if s := r.m.RxPower(tx, r.id); s >= r.signal+r.capture {
				r.lock(tx, s)
				r.cov.captures++
			}
		}
		return
	}
	if tx.Freq != r.freq || !r.m.Reachable(tx, r.id) {
		return
	}
	s := r.m.RxPower(tx, r.id)
	if s < phy.Sensitivity {
		return
	}
	r.lock(tx, s)
	r.m.InterferenceMW(tx, r.id, r.freq) // the radio's lock-on collision probe
}

func (r *refReceiver) OffAir(tx *medium.Transmission) {
	if tx.Src == r.id {
		return
	}
	defer func() {
		for i, a := range r.onAir {
			if a == tx {
				r.onAir = append(r.onAir[:i], r.onAir[i+1:]...)
				break
			}
		}
	}()
	if r.tx == nil {
		return
	}
	r.closeSegment()
	if r.tx == tx {
		r.errs = append(r.errs, min(r.bitErrors, tx.Frame.PayloadBits()))
		r.tx = nil
	}
}

func (r *refReceiver) lock(tx *medium.Transmission, signal phy.DBm) {
	r.tx, r.signal, r.bitErrors, r.segStart, r.carry = tx, signal, 0, r.k.Now(), 0
}

func (r *refReceiver) closeSegment() {
	now := r.k.Now()
	elapsed := now - r.segStart
	r.segStart = now
	if elapsed <= 0 {
		return
	}
	exact := float64(elapsed)/float64(bitPeriod) + r.carry
	bits := int(exact)
	r.carry = exact - float64(bits)
	if bits == 0 {
		return
	}
	interf := phy.FromMilliwatts(r.m.InterferenceMW(r.tx, r.id, r.freq))
	sinr := phy.SINR(r.signal, interf)
	r.bitErrors += r.rng.Binomial(bits, phy.BitErrorRate(sinr))

	r.cov.segments++
	if sinr >= phy.ZeroBERSINR+certMarginDB+1e-9 {
		r.cov.certTight++
	}
	if sinr >= phy.ZeroBERSINR+certMarginDB-1e-9 {
		r.cov.certLoose++
	}
	lo, hi := phy.TinyBERLoSINR+certMarginDB, phy.TinyBERHiSINR-certMarginDB
	if sinr >= lo+1e-9 && sinr <= hi-1e-9 {
		r.cov.tinyTight++
	}
	if sinr >= lo-1e-9 && sinr <= hi+1e-9 {
		r.cov.tinyLoose++
	}
	if math.Abs(sinr-phy.ZeroBERSINR) < 1 {
		r.cov.nearBound++
	}
	if math.Abs(sinr-phy.TinyBERLoSINR) < 1 || math.Abs(sinr-phy.TinyBERHiSINR) < 1 {
		r.cov.nearTiny++
	}
	co, adj := false, false
	for _, a := range r.onAir {
		if a == r.tx {
			continue
		}
		co = co || a.Freq == r.freq
		adj = adj || a.Freq != r.freq
	}
	if co {
		r.cov.coChannel++
	}
	if adj {
		r.cov.adjacent++
	}
}

// silentSource is a scripted transmitter's medium attachment; it hears
// nothing.
type silentSource struct{ pos phy.Position }

func (s silentSource) Position() phy.Position    { return s.pos }
func (silentSource) OnAir(*medium.Transmission)  {}
func (silentSource) OffAir(*medium.Transmission) {}

// replayNode is one attachment of the replay layout.
type replayNode struct {
	pos     phy.Position
	source  bool
	freq    phy.MHz // receivers only
	capture phy.DBm // receivers only
}

var replayChannels = []phy.MHz{2458, 2459, 2461, 2464}

// replayLayout scatters sources and receivers over a 24 m square; every
// other receiver captures with a 3 dB margin.
func replayLayout(seed int64) []replayNode {
	rng := sim.NewRNG(seed)
	nodes := make([]replayNode, 14)
	for i := range nodes {
		n := &nodes[i]
		n.pos = phy.Position{X: rng.UniformRange(0, 24), Y: rng.UniformRange(0, 24)}
		n.source = i%2 == 0
		n.freq = replayChannels[rng.Intn(len(replayChannels))]
		if i%4 == 1 {
			n.capture = 3
		}
	}
	return nodes
}

// replayWorld builds a kernel and medium for the layout; with folded set,
// the medium folds pairs beyond 90 dB of loss into its far-field term.
func replayWorld(t *testing.T, seed int64, nodes []replayNode, folded bool) (*sim.Kernel, *medium.Medium) {
	t.Helper()
	k := sim.NewKernel(seed)
	if !folded {
		return k, medium.New(k)
	}
	nets := make([]topology.NetworkSpec, len(nodes))
	for i, n := range nodes {
		nets[i] = topology.NetworkSpec{Freq: replayChannels[0], Sink: topology.NodeSpec{Pos: n.pos}}
	}
	snap, err := topology.SnapshotFromSpecsNear(nets, nil, 90)
	if err != nil {
		t.Fatal(err)
	}
	m := medium.New(k, medium.WithSnapshot(snap), medium.WithFarField(30))
	if m.FarFieldErrorDB() <= 0 {
		t.Fatal("far-field fold inactive: no pair beyond the near bound")
	}
	return k, m
}

// driveTraffic schedules every source to send frames back to back with
// random gaps, channels, powers and lengths until the deadline. The
// script draws only from its own stream, so both replays put the same
// transmissions on the air.
func driveTraffic(k *sim.Kernel, m *medium.Medium, nodes []replayNode, ids []int, until sim.Time) {
	rng := k.Stream("test.traffic")
	for i, n := range nodes {
		if !n.source {
			continue
		}
		id, pos := ids[i], n.pos
		var send func()
		send = func() {
			if k.Now() >= until {
				return
			}
			f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 5+rng.Intn(100))}
			power := phy.DBm(rng.UniformRange(-25, 0))
			freq := replayChannels[rng.Intn(len(replayChannels))]
			m.Transmit(id, pos, power, freq, f)
			gap := time.Duration(rng.Intn(3000)) * time.Microsecond
			k.After(f.Airtime()+gap, send)
		}
		k.After(time.Duration(rng.Intn(2000))*time.Microsecond, send)
	}
}

// streamPositions draws from each named stream, a fingerprint of how far
// every stream has been consumed.
func streamPositions(k *sim.Kernel, names []string) []int64 {
	out := make([]int64, 0, 2*len(names))
	for _, name := range names {
		s := k.Stream(name)
		out = append(out, s.Int63(), s.Int63())
	}
	return out
}

// replayCertified runs the layout through production radios and returns
// each receiver's per-reception bit errors, the summed segment counters,
// and the stream fingerprint.
func replayCertified(t *testing.T, seed int64, nodes []replayNode, folded bool, dur sim.Time) ([][]int, SegmentStats, []int64) {
	k, m := replayWorld(t, seed, nodes, folded)
	ids := make([]int, len(nodes))
	errs := make([][]int, len(nodes))
	var radios []*Radio
	var names []string
	for i, n := range nodes {
		if n.source {
			ids[i] = m.Attach(silentSource{n.pos})
			continue
		}
		r := New(k, m, Config{Pos: n.pos, Freq: n.freq, Address: frame.Address(i), CaptureMargin: n.capture})
		ids[i] = r.ID()
		r.OnReceive = func(rc Reception) { errs[i] = append(errs[i], rc.BitErrors) }
		radios = append(radios, r)
		names = append(names, fmt.Sprintf("radio.%d.bits", i))
	}
	driveTraffic(k, m, nodes, ids, dur)
	k.Run()
	var st SegmentStats
	for _, r := range radios {
		st.Add(r.SegmentStats())
	}
	names = append(names, "medium.fading", "medium.static")
	return errs, st, streamPositions(k, names)
}

// replayReference runs the same layout through refReceivers.
func replayReference(t *testing.T, seed int64, nodes []replayNode, folded bool, dur sim.Time) ([][]int, coverage, []int64) {
	k, m := replayWorld(t, seed, nodes, folded)
	ids := make([]int, len(nodes))
	refs := make([]*refReceiver, len(nodes))
	var names []string
	for i, n := range nodes {
		if n.source {
			ids[i] = m.Attach(silentSource{n.pos})
			continue
		}
		name := fmt.Sprintf("radio.%d.bits", i)
		r := &refReceiver{k: k, m: m, pos: n.pos, freq: n.freq, capture: n.capture, rng: k.Stream(name)}
		r.id = m.Attach(r)
		ids[i] = r.id
		refs[i] = r
		names = append(names, name)
	}
	driveTraffic(k, m, nodes, ids, dur)
	k.Run()
	errs := make([][]int, len(nodes))
	var cov coverage
	for i, r := range refs {
		if r != nil {
			errs[i] = r.errs
			cov.add(r.cov)
		}
	}
	names = append(names, "medium.fading", "medium.static")
	return errs, cov, streamPositions(k, names)
}

func TestCertifiedSegmentsMatchExactPath(t *testing.T) {
	const dur = 2 * sim.Second
	for _, folded := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("folded=%v/seed=%d", folded, seed), func(t *testing.T) {
				nodes := replayLayout(seed)
				gotErrs, st, gotPos := replayCertified(t, seed, nodes, folded, dur)
				wantErrs, cov, wantPos := replayReference(t, seed, nodes, folded, dur)

				receptions := 0
				for i, want := range wantErrs {
					got := gotErrs[i]
					if len(got) != len(want) {
						t.Fatalf("node %d: %d receptions, reference %d", i, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("node %d reception %d: %d bit errors, reference %d", i, j, got[j], want[j])
						}
					}
					receptions += len(want)
				}
				for i := range wantPos {
					if gotPos[i] != wantPos[i] {
						t.Fatalf("stream fingerprint %d = %d, reference %d: a random stream moved", i, gotPos[i], wantPos[i])
					}
				}
				if st.Closed != uint64(cov.segments) || st.Closed != st.CertifiedZero+st.CertifiedTiny+st.Exact {
					t.Fatalf("segments %+v, reference closed %d", st, cov.segments)
				}
				if st.CertifiedZero < uint64(cov.certTight) || st.CertifiedZero > uint64(cov.certLoose) {
					t.Fatalf("%d segments certified; %d to %d have an exact SINR above the bound",
						st.CertifiedZero, cov.certTight, cov.certLoose)
				}
				if st.CertifiedTiny < uint64(cov.tinyTight) || st.CertifiedTiny > uint64(cov.tinyLoose) {
					t.Fatalf("%d segments in the tiny-BER band; %d to %d have an exact SINR inside it",
						st.CertifiedTiny, cov.tinyTight, cov.tinyLoose)
				}
				t.Logf("%d receptions, segments %+v, coverage %+v", receptions, st, cov)
				if st.CertifiedZero == 0 || st.CertifiedTiny == 0 || st.Exact == 0 ||
					cov.nearBound == 0 || cov.nearTiny == 0 ||
					cov.coChannel == 0 || cov.adjacent == 0 || cov.captures == 0 {
					t.Fatalf("replay too narrow: segments %+v, coverage %+v", st, cov)
				}
			})
		}
	}
}
