package radio

import (
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// EnergyReport summarises a radio's consumption since creation. Idle and
// RX both draw the receive current (a CSMA node listens whenever it is not
// transmitting), TX draws the power-dependent transmit current, OFF the
// power-down current.
type EnergyReport struct {
	// TxSeconds, ListenSeconds and OffSeconds partition the radio's
	// lifetime.
	TxSeconds     float64
	ListenSeconds float64
	OffSeconds    float64
	// Millijoules is the total energy consumed.
	Millijoules float64
}

// energyMeter accumulates state residency. TX energy is integrated
// directly because the transmit power (and with it the current draw) can
// change between transmissions.
type energyMeter struct {
	lastChange  sim.Time
	txTime      sim.Time
	listenTime  sim.Time
	offTime     sim.Time
	txEnergyMJ  float64
	initialized bool
}

// account closes the residency interval ending now for the given state.
func (m *energyMeter) account(state State, txPower phy.DBm, now sim.Time) {
	if !m.initialized {
		m.lastChange = now
		m.initialized = true
		return
	}
	elapsed := now - m.lastChange
	m.lastChange = now
	if elapsed <= 0 {
		return
	}
	switch state {
	case StateTX:
		m.txTime += elapsed
		m.txEnergyMJ += phy.EnergyMillijoules(phy.TxCurrentMA(txPower), elapsed.Seconds())
	case StateOff:
		m.offTime += elapsed
	default: // Idle and RX both listen
		m.listenTime += elapsed
	}
}

func (m *energyMeter) report() EnergyReport {
	r := EnergyReport{
		TxSeconds:     m.txTime.Seconds(),
		ListenSeconds: m.listenTime.Seconds(),
		OffSeconds:    m.offTime.Seconds(),
	}
	r.Millijoules = m.txEnergyMJ +
		phy.EnergyMillijoules(phy.RxCurrentMA, r.ListenSeconds) +
		phy.EnergyMillijoules(phy.OffCurrentMA, r.OffSeconds)
	return r
}

// EnergyReport returns the radio's consumption up to the current instant.
func (r *Radio) EnergyReport() EnergyReport {
	r.energy.account(r.state, r.cfg.TxPower, r.kernel.Now())
	return r.energy.report()
}

// setState transitions the state machine, charging the elapsed residency
// of the outgoing state to the energy meter.
func (r *Radio) setState(s State) {
	r.energy.account(r.state, r.cfg.TxPower, r.kernel.Now())
	r.state = s
	r.wake()
}
