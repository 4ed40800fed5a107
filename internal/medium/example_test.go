package medium_test

import (
	"fmt"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// silent listener for the example.
type probe struct{ pos phy.Position }

func (p *probe) Position() phy.Position      { return p.pos }
func (p *probe) OnAir(*medium.Transmission)  {}
func (p *probe) OffAir(*medium.Transmission) {}

// Example shows the medium's power bookkeeping: raw received power, the
// filtered in-channel view of an off-channel transmission, and the total
// sensed energy a CCA would compare against its threshold.
func Example() {
	k := sim.NewKernel(1)
	m := medium.New(k,
		medium.WithFadingSigma(0), medium.WithStaticFadingSigma(0),
		medium.WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))

	src := &probe{pos: phy.Position{X: 0}}
	obs := &probe{pos: phy.Position{X: 1}}
	srcID := m.Attach(src)
	obsID := m.Attach(obs)

	f := &frame.Frame{Type: frame.TypeData, Payload: make([]byte, 32)}
	tx := m.Transmit(srcID, src.pos, 0 /* dBm */, 2463, f)

	fmt.Printf("raw rx power:      %.1f dBm\n", float64(m.RxPower(tx, obsID)))
	fmt.Printf("in-channel @2460:  %.1f dBm (3 MHz off, 17 dB rejected)\n",
		float64(m.InChannelPower(tx, obsID, 2460)))
	fmt.Printf("sensed @2463:      %.1f dBm\n", float64(m.SensedPower(obsID, 2463)))
	// Output:
	// raw rx power:      -40.0 dBm
	// in-channel @2460:  -57.0 dBm (3 MHz off, 17 dB rejected)
	// sensed @2463:      -40.0 dBm
	k.Run()
}
