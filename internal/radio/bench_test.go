package radio

import (
	"math"
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
	const networks = 200
	centers := make([]phy.MHz, 6)
	for i := range centers {
		centers[i] = 2458 + phy.MHz(i)*3
	}
	nets, err := topology.GenerateCity(topology.CityConfig{
		Plan:     phy.ChannelPlan{Start: 2458, Bandwidth: 15, CFD: 3, Centers: centers},
		Networks: networks,
		AreaSide: 200 * math.Sqrt(networks),
	}, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	snap, err := topology.SnapshotFromSpecsNear(nets, nil, 150)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel(1)
	m := medium.New(k, medium.WithSnapshot(snap), medium.WithFarField(0.5))
	var radios []*Radio
	for _, net := range nets {
		for _, nd := range append([]topology.NodeSpec{net.Sink}, net.Senders...) {
			radios = append(radios, New(k, m, Config{
				Pos:     nd.Pos,
				Freq:    net.Freq,
				TxPower: nd.TxPower,
				Address: frame.Address(len(radios) + 1),
			}))
		}
	}
	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 16)}
	airtime := sim.FromDuration(f.Airtime())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sender 1-4 of a network stepping through the city.
		if r := radios[((i*211)%networks)*5+1+i%4]; r.State() != StateTX {
			if _, err := r.Transmit(f); err != nil {
				b.Fatal(err)
			}
		}
		if i%8 == 7 {
			k.RunUntil(k.Now() + airtime)
		}
	}
	b.StopTimer()
	k.Run()
	if st := m.DisseminationStats(); st.Events > 0 {
		b.ReportMetric(float64(st.Callbacks)/float64(st.Events), "callbacks/event")
	}
}
