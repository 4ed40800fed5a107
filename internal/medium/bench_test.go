package medium

import (
	"math"
	"testing"

	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// denseBench is the dense 35-node landscape of the paper's five-network
// experiments: a 7×5 grid at 3 m spacing with five transmissions on the
// air, one from each grid row, on neighbouring channels.
type denseBench struct {
	m      *Medium
	ids    [35]int
	freqs  [5]phy.MHz
	active [5]*Transmission
}

func newDenseBench() *denseBench {
	m := New(sim.NewKernel(1))
	d := &denseBench{m: m, freqs: [5]phy.MHz{2460, 2461, 2463, 2465, 2467}}
	var pos [len(d.ids)]phy.Position
	for i := range pos {
		pos[i] = phy.Position{X: float64(i%7) * 3, Y: float64(i/7) * 3}
		d.ids[i] = m.Attach(&probe{pos: pos[i]})
	}
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 64)}
	for j, freq := range d.freqs {
		src := j * 7
		d.active[j] = m.Transmit(d.ids[src], pos[src], 0, freq, f)
	}
	return d
}

// BenchmarkSensedPowerDenseSweep measures the CCA hot path on the dense
// landscape: an op is one SensedPower read at each of the 35 listeners,
// each the ID-ordered sum over the five transmissions on the air. Every
// listener is always tuned to the same channel, so the per-slot mW caches
// stay warm and an op times the sums, not the dBm→mW conversions of a
// retune. Thirty-five reads per op keep the loop's own cost out of ns/op,
// so a slowdown of SensedPower shows at its full size.
func BenchmarkSensedPowerDenseSweep(b *testing.B) {
	d := newDenseBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, id := range d.ids {
			_ = d.m.SensedPower(id, d.freqs[j%len(d.freqs)])
		}
	}
}

// BenchmarkSensedPowerChurn interleaves transmission starts, finishes, and
// CCA samples: every new transmission's slots are cold at each reader's
// first sample. It also exercises the transmission free-list: every
// finished transmission's object and per-listener cache array are recycled
// into the next start.
func BenchmarkSensedPowerChurn(b *testing.B) {
	k := sim.NewKernel(1)
	m := New(k)
	const nodes = 35
	ids := make([]int, nodes)
	probes := make([]*probe, nodes)
	for i := 0; i < nodes; i++ {
		p := &probe{pos: phy.Position{X: float64(i%7) * 3, Y: float64(i/7) * 3}}
		probes[i] = p
		ids[i] = m.Attach(p)
	}
	freqs := []phy.MHz{2460, 2461, 2463, 2465, 2467}
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)}
	airtime := sim.FromDuration(f.Airtime())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := (i * 7) % nodes
		m.Transmit(ids[src], probes[src].pos, 0, freqs[i%len(freqs)], f)
		_ = m.SensedPower(ids[(i*11)%nodes], freqs[i%len(freqs)])
		_ = m.SensedPower(ids[(i*17)%nodes], freqs[(i+1)%len(freqs)])
		if i%8 == 7 {
			// Advance past every outstanding airtime: the batch finishes
			// and its objects go back to the pool.
			k.RunUntil(k.Now() + airtime)
		}
	}
}

// bandedProbe is a minimal listener idle on one band, like a radio
// waiting for a preamble.
type bandedProbe struct {
	pos  phy.Position
	band phy.MHz
}

func (p *bandedProbe) Position() phy.Position  { return p.pos }
func (p *bandedProbe) OnAir(tx *Transmission)  {}
func (p *bandedProbe) OffAir(tx *Transmission) {}

// BenchmarkOnAirFanout measures event dissemination on a wide-band
// deployment: 16 channels across 2405-2480 MHz with six idle listeners
// each, transmissions hopping over all of them. The probes declare no wake
// class, so they stay WakeAll and every OnAir/OffAir notifies all 96
// (callbacks/event = 96): the delivery bitsets walked at full population.
// The sub-benchmark keeps its historical name so recorded baselines still
// compare.
func BenchmarkOnAirFanout(b *testing.B) {
	b.Run("unfiltered", func(b *testing.B) {
		k := sim.NewKernel(1)
		m := New(k)
		const bandCount, perBand = 16, 6
		ids := make([]int, 0, bandCount*perBand)
		probes := make([]*bandedProbe, 0, bandCount*perBand)
		for bi := 0; bi < bandCount; bi++ {
			f := 2405 + phy.MHz(5*bi)
			for j := 0; j < perBand; j++ {
				p := &bandedProbe{
					pos:  phy.Position{X: float64(bi) * 2, Y: float64(j) * 2},
					band: f,
				}
				probes = append(probes, p)
				ids = append(ids, m.Attach(p))
			}
		}
		f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)}
		airtime := sim.FromDuration(f.Airtime())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := (i * 7) % len(ids)
			m.Transmit(ids[src], probes[src].pos, 0, probes[src].band, f)
			if i%8 == 7 {
				k.RunUntil(k.Now() + airtime)
			}
		}
		b.StopTimer()
		k.Run() // flush outstanding OffAirs so Events/Callbacks pair up
		st := m.DisseminationStats()
		if st.Events > 0 {
			b.ReportMetric(float64(st.Callbacks)/float64(st.Events), "callbacks/event")
		}
	})
}

// cityBenchSetup builds a city cell of the given number of four-sender
// networks (200 m of square side per √network, 6-channel plan) on a
// near-field snapshot with the far-field fold active under a 0.5 dB
// budget, and attaches one banded probe per node. It returns the medium,
// kernel, attach IDs and per-node bands, with sinks at indices i*5.
func cityBenchSetup(b testing.TB, networks int) (*sim.Kernel, *Medium, []int, []*bandedProbe) {
	b.Helper()
	centers := make([]phy.MHz, 6)
	for i := range centers {
		centers[i] = 2458 + phy.MHz(i)*3
	}
	cfg := topology.CityConfig{
		Plan:     phy.ChannelPlan{Start: 2458, Bandwidth: 15, CFD: 3, Centers: centers},
		Networks: networks,
		AreaSide: 200 * math.Sqrt(float64(networks)),
	}
	nets, err := topology.GenerateCity(cfg, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	snap, err := topology.SnapshotFromSpecsNear(nets, nil, 150)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel(1)
	m := New(k, WithSnapshot(snap), WithFarField(0.5))
	ids := make([]int, 0, snap.NumNodes())
	probes := make([]*bandedProbe, 0, snap.NumNodes())
	for _, net := range nets {
		for _, nd := range append([]topology.NodeSpec{net.Sink}, net.Senders...) {
			p := &bandedProbe{pos: nd.Pos, band: net.Freq}
			probes = append(probes, p)
			ids = append(ids, m.Attach(p))
		}
	}
	return k, m, ids, probes
}

// BenchmarkSensedPower5kNodes measures the CCA hot path at city scale:
// 5,000 nodes, five concurrent transmissions scattered across the city,
// the same 35-listener CCA working set as BenchmarkSensedPowerDenseSweep,
// and a batch restart every 4,096 samples. With the far-field fold a
// cache-missing sample integrates only the listener's near-field
// neighbourhood plus one precomputed aggregate term, so the per-sample
// cost tracks the neighbourhood size k, not the population n.
func BenchmarkSensedPower5kNodes(b *testing.B) {
	k, m, ids, probes := cityBenchSetup(b, 1000)
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 64)}
	startBatch := func() {
		for j := 0; j < 5; j++ {
			// Sender 1 of networks spread across the city, on their own
			// channels.
			src := (j*199)*5 + 1
			m.Transmit(ids[src], probes[src].pos, 0, probes[src].band, f)
		}
	}
	startBatch()
	// The CCA-active working set: the nodes of seven networks scattered
	// across the city (indices mirror the dense bench's 35 nodes).
	const working = 35
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 4095 {
			b.StopTimer()
			k.Run() // drain the old batch
			startBatch()
			b.StartTimer()
		}
		listener := ids[(i*11)%working]
		_ = m.SensedPower(listener, probes[listener].band)
	}
}

// BenchmarkOnAirFanout5kNodes measures event dissemination at city scale:
// every transmission notifies all 5,000 listeners, WakeAll probes whose
// handlers are no-ops. The callbacks/event metric reports the population
// walked; BenchmarkOnAirFanoutCityRadios in the radio package measures
// the fan-out among radios that declare their wake classes.
func BenchmarkOnAirFanout5kNodes(b *testing.B) {
	k, m, ids, probes := cityBenchSetup(b, 1000)
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)}
	airtime := sim.FromDuration(f.Airtime())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := ((i*211)%1000)*5 + 1 + i%4
		m.Transmit(ids[src], probes[src].pos, 0, probes[src].band, f)
		if i%8 == 7 {
			k.RunUntil(k.Now() + airtime)
		}
	}
	b.StopTimer()
	k.Run()
	st := m.DisseminationStats()
	if st.Events > 0 {
		b.ReportMetric(float64(st.Callbacks)/float64(st.Events), "callbacks/event")
	}
}

// BenchmarkInterferenceDenseSweep measures SINR integration over the dense
// landscape: the per-segment interference sum a receiver evaluates every
// time the on-air set changes during a reception. An op reads it at all
// 35 listeners at 2460 MHz, so the per-slot mW caches stay warm, and the
// wanted transmission left out of the sum moves on from op to op, so no
// read repeats the one before it at the same listener.
func BenchmarkInterferenceDenseSweep(b *testing.B) {
	d := newDenseBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wanted := d.active[i%len(d.active)]
		for _, id := range d.ids {
			_ = d.m.InterferenceMW(wanted, id, 2460)
		}
	}
}

// BenchmarkInterferenceFoldedBusy measures a cache-missing folded read on a
// busy city cell: 1,000 nodes (200 networks, the perfbench city-1k
// geometry) with 400 transmissions on the air from sources spread across
// the city, about what a city-1k cell carries. Consecutive reads change
// both the listener and the wanted transmission, so every InterferenceMW
// call misses the per-listener sum cache and walks the listener's whole
// folded sum set; the per-pair power slots stay warm after the first pass.
func BenchmarkInterferenceFoldedBusy(b *testing.B) {
	_, m, ids, probes := cityBenchSetup(b, 200)
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 64)}
	const onAir = 400
	active := make([]*Transmission, 0, onAir)
	for j := 0; j < onAir; j++ {
		src := j * len(ids) / onAir
		active = append(active, m.Transmit(ids[src], probes[src].pos, 0, probes[src].band, f))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		listener := ids[(i*13)%len(ids)]
		_ = m.InterferenceMW(active[i%onAir], listener, probes[listener].band)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.ActiveCount()), "active")
}

// cityChurn drives the 1,000-node city cell of BenchmarkInterferenceFoldedBusy
// the way receiving radios read it. advance puts one 64-byte frame on the
// air from a source cycling through the city and runs the kernel on by a
// 400th of its airtime, so about 400 frames stay up and, on average, one
// comes down per step. read is one reader's interference read, the read
// Radio.closeSegment makes on every on-air change, left out of which is
// locked, a frame outside the churn's ID range.
type cityChurn struct {
	k       *sim.Kernel
	m       *Medium
	ids     []int
	probes  []*bandedProbe
	readers []int
	locked  *Transmission
	f       *frame.Frame
	dt      sim.Time
}

// newCityChurn builds the cell with 50 readers spread over it and runs the
// churn to its steady state.
func newCityChurn(tb testing.TB) *cityChurn {
	k, m, ids, probes := cityBenchSetup(tb, 200)
	c := &cityChurn{
		k: k, m: m, ids: ids, probes: probes,
		locked: &Transmission{ID: math.MaxUint64},
		f:      &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 64)},
	}
	c.dt = sim.FromDuration(c.f.Airtime()) / 400
	for j := 0; j < 50; j++ {
		c.readers = append(c.readers, ids[j*len(ids)/50+2])
	}
	for i := 0; i < 800; i++ {
		c.advance(i)
	}
	return c
}

// advance is step i of the churn.
func (c *cityChurn) advance(i int) {
	src := c.ids[(i*211)%len(c.ids)]
	c.m.Transmit(src, c.probes[src].pos, 0, c.probes[src].band, c.f)
	c.k.RunUntil(c.k.Now() + c.dt)
}

func (c *cityChurn) read(listener int) float64 {
	return c.m.InterferenceMW(c.locked, listener, c.probes[listener].band)
}

// BenchmarkInterferenceFoldedChurn measures folded reads as a busy city
// cell makes them. One op is one churn step, a frame going up and about
// one coming down, followed by one read at each of 50 readers. Most
// changes lie beyond a given reader's near field and leave its cached
// total valid, a near frame going up extends the total over the new tail
// entry, and a near frame coming down makes the next read walk the
// reader's list. The split is reported per read.
func BenchmarkInterferenceFoldedChurn(b *testing.B) {
	c := newCityChurn(b)
	before := c.m.folds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.advance(800 + i)
		for _, r := range c.readers {
			_ = c.read(r)
		}
	}
	b.StopTimer()
	st := c.m.folds
	reads := float64(b.N * len(c.readers))
	b.ReportMetric(float64(st.hits-before.hits)/reads, "hits/read")
	b.ReportMetric(float64(st.extends-before.extends)/reads, "extends/read")
	b.ReportMetric(float64(st.visited-before.visited)/reads, "entries/read")
}

// BenchmarkInterferenceBoundChurn is BenchmarkInterferenceFoldedChurn with
// the reads Radio.closeSegment makes on a folded listener: a bound-first
// read (InterferenceBoundsMW), and the exact read only when the bound
// cannot certify a zero-error segment for a -50 dBm locked signal. A near
// frame coming down leaves the cached bound valid, so the split reported
// per read shows how rarely a read walks and how rarely it misses.
func BenchmarkInterferenceBoundChurn(b *testing.B) {
	c := newCityChurn(b)
	zeroMW := (phy.DBm(-50) - phy.ZeroBERSINR).Milliwatts()
	before := c.m.folds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.advance(800 + i)
		for _, r := range c.readers {
			if _, hi := c.m.InterferenceBoundsMW(c.locked, r, c.probes[r].band); hi+phy.NoiseFloorMW > zeroMW {
				_ = c.read(r)
			}
		}
	}
	b.StopTimer()
	st := c.m.folds
	reads := float64(b.N * len(c.readers))
	b.ReportMetric(float64(st.walks-before.walks)/reads, "walks/read")
	b.ReportMetric(float64(st.boundMisses-before.boundMisses)/reads, "misses/read")
	b.ReportMetric(float64(st.visited-before.visited)/reads, "entries/read")
}
