package experiments

import (
	"nonortho/internal/beacon"
	"nonortho/internal/dcn"
	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
)

// BeaconModeRow is one policy's outcome in the slotted-MAC extension.
type BeaconModeRow struct {
	Policy    string
	Delivered float64 // frames/s across all coordinators
}

// BeaconModeResult is the beacon-enabled extension experiment.
type BeaconModeResult struct {
	Rows []BeaconModeRow
	// Gain is DCN's improvement over the fixed threshold.
	Gain float64
}

// BeaconMode extends the paper to the beacon-enabled (slotted CSMA/CA)
// MAC it does not evaluate: four PANs on adjacent CFD = 3 MHz channels,
// each a coordinator plus four saturated devices, with BO = SO = 3. The
// CCA-Adjustor touches only the radio's threshold register, so it
// composes with slotted channel access unchanged — and the false-busy
// losses of the fixed -77 dBm threshold exist in slotted mode too (every
// CCA in the CW = 2 window can be spoofed by neighbour-channel energy).
// Shape: DCN again recovers throughput.
func BeaconMode(opts Options) (BeaconModeResult, *Table) {
	opts = opts.withDefaults()

	// Cell 0 = fixed threshold, cell 1 = DCN.
	grid := runGrid(opts, 2, func(cell int, seed int64) float64 {
		useDCN := cell == 1
		{
			k, m := newCellCore(opts, seed)
			sched := beacon.Schedule{BeaconOrder: 3, SuperframeOrder: 3}

			const pans = 4
			coords := make([]*beacon.Coordinator, pans)
			addr := frame.Address(1)
			newRadio := func(x, y float64, freq phy.MHz) *radio.Radio {
				r := radio.New(k, m, radio.Config{
					Pos:          phy.Position{X: x, Y: y},
					Freq:         freq,
					TxPower:      0,
					CCAThreshold: phy.DefaultCCAThreshold,
					Address:      addr,
				})
				addr++
				return r
			}
			for p := 0; p < pans; p++ {
				freq := 2458 + phy.MHz(3*p)
				cx := 1.8 * float64(p)
				coordRadio := newRadio(cx, 0, freq)
				coord, err := beacon.NewCoordinator(k, coordRadio, sched)
				if err != nil {
					panic(err) // static schedule; cannot fail
				}
				coords[p] = coord
				coordAddr := coordRadio.Address()
				for dIdx := 0; dIdx < 4; dIdx++ {
					devRadio := newRadio(cx+0.4+0.2*float64(dIdx), 0.7, freq)
					dev, err := beacon.NewDevice(k, devRadio, coordAddr, sched)
					if err != nil {
						panic(err)
					}
					if useDCN {
						adj := dcn.New(k, devRadio, dcn.Config{})
						adj.Start()
						prev := devRadio.OnReceive
						devRadio.OnReceive = func(r radio.Reception) {
							if prev != nil {
								prev(r)
							}
							adj.Observe(r)
						}
					}
					// Saturated device: refill after every send.
					refill := func() {
						for i := 0; i < 2; i++ {
							dev.Send(make([]byte, 64))
						}
					}
					dev.OnSent = func(*frame.Frame) { refill() }
					refill()
				}
				coord.Start()
			}

			k.RunUntil(sim.FromDuration(opts.Warmup))
			before := 0
			for _, c := range coords {
				before += c.Received()
			}
			k.RunUntil(sim.FromDuration(opts.Warmup + opts.Measure))
			after := 0
			for _, c := range coords {
				after += c.Received()
			}
			return float64(after-before) / opts.Measure.Seconds()
		}
	})

	fixed := sum(grid[0]) / float64(opts.Seeds)
	withDCN := sum(grid[1]) / float64(opts.Seeds)
	res := BeaconModeResult{
		Rows: []BeaconModeRow{
			{Policy: "slotted, fixed -77 dBm", Delivered: fixed},
			{Policy: "slotted, DCN", Delivered: withDCN},
		},
		Gain: withDCN/fixed - 1,
	}

	t := &Table{
		Title:   "Extension: beacon-enabled slotted CSMA/CA, 4 PANs at CFD=3 MHz",
		Columns: []string{"policy", "delivered (pkt/s)"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Policy, f0(r.Delivered))
	}
	t.AddRow("DCN gain", pct(res.Gain))
	return res, t
}
