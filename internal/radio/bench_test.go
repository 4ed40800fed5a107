package radio

import (
	"math"
	"sync"
	"testing"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// BenchmarkOnAirFanoutCityRadios measures event dissemination among real
// radios at city scale: 1,000 radios in 200 four-sender networks over a
// 6-channel plan (the perfbench city-1k geometry, far-field fold on), with
// senders cycling through the city. Each radio declares the wake class its
// state can act on, so an event reaches the receiving radios and the idle
// ones on its channel, not the whole population; callbacks/event reports
// how many.
func BenchmarkOnAirFanoutCityRadios(b *testing.B) {
	cityFanoutOnce.Do(func() { cityFanoutCity, cityFanoutErr = newCityFanout() })
	if cityFanoutErr != nil {
		b.Fatal(cityFanoutErr)
	}
	c := cityFanoutCity
	before := c.m.DisseminationStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.k.Run()
	if st := c.m.DisseminationStats(); st.Events > before.Events {
		b.ReportMetric(float64(st.Callbacks-before.Callbacks)/float64(st.Events-before.Events), "callbacks/event")
	}
}

// cityFanout is the city BenchmarkOnAirFanoutCityRadios runs, built once
// per test binary: building and warming it up takes longer than a short
// run measures, and every run (the b.N=1 probe, each -count repeat) would
// pay for it again. Each run continues the simulation where the last one
// stopped.
type cityFanout struct {
	k       *sim.Kernel
	m       *medium.Medium
	radios  []*Radio
	f       *frame.Frame
	airtime sim.Time
	next    int // index of the next step
}

var (
	cityFanoutOnce sync.Once
	cityFanoutCity *cityFanout
	cityFanoutErr  error
)

const cityFanoutNetworks = 200

func newCityFanout() (*cityFanout, error) {
	centers := make([]phy.MHz, 6)
	for i := range centers {
		centers[i] = 2458 + phy.MHz(i)*3
	}
	nets, err := topology.GenerateCity(topology.CityConfig{
		Plan:     phy.ChannelPlan{Start: 2458, Bandwidth: 15, CFD: 3, Centers: centers},
		Networks: cityFanoutNetworks,
		AreaSide: 200 * math.Sqrt(cityFanoutNetworks),
	}, sim.NewRNG(1))
	if err != nil {
		return nil, err
	}
	snap, err := topology.SnapshotFromSpecsNear(nets, nil, 150)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(1)
	c := &cityFanout{
		k: k,
		m: medium.New(k, medium.WithSnapshot(snap), medium.WithFarField(0.5)),
		f: &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)},
	}
	c.airtime = sim.FromDuration(c.f.Airtime())
	for _, net := range nets {
		for _, nd := range append([]topology.NodeSpec{net.Sink}, net.Senders...) {
			c.radios = append(c.radios, New(k, c.m, Config{
				Pos:     nd.Pos,
				Freq:    net.Freq,
				TxPower: nd.TxPower,
				Address: frame.Address(len(c.radios) + 1),
			}))
		}
	}
	// A warm-up grows the transmission pool and the per-listener state
	// the first events allocate, so runs time steady-state fan-out.
	for i := 0; i < 4000; i++ {
		if err := c.step(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// step starts the next sender's transmission unless it is still on the
// air, and every eighth step runs the kernel one airtime on.
func (c *cityFanout) step() error {
	i := c.next
	c.next++
	// Sender 1-4 of a network stepping through the city.
	if r := c.radios[((i*211)%cityFanoutNetworks)*5+1+i%4]; r.State() != StateTX {
		if _, err := r.Transmit(c.f); err != nil {
			return err
		}
	}
	if i%8 == 7 {
		c.k.RunUntil(c.k.Now() + c.airtime)
	}
	return nil
}
