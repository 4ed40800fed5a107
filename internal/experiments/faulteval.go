package experiments

import (
	"time"

	"nonortho/internal/dcn"
	"nonortho/internal/fault"
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// FaultModel names one injected disturbance of the robustness evaluation.
type FaultModel string

// The fault models evaluated by FaultEval.
const (
	FaultNone     FaultModel = "none"
	FaultJammer   FaultModel = "jammer-burst"
	FaultCrash    FaultModel = "node-crash"
	FaultDrift    FaultModel = "rssi-drift"
	FaultStuckCCA FaultModel = "stuck-cca"
)

// FaultModels lists the models in evaluation order.
func FaultModels() []FaultModel {
	return []FaultModel{FaultNone, FaultJammer, FaultCrash, FaultDrift, FaultStuckCCA}
}

// faultScheme is one channel-access configuration of the comparison.
type faultScheme struct {
	name     string
	scheme   testbed.Scheme
	watchdog bool
}

func faultSchemes() []faultScheme {
	return []faultScheme{
		{"fixed", testbed.SchemeFixed, false},
		{"dcn", testbed.SchemeDCN, false},
		{"dcn+wd", testbed.SchemeDCN, true},
	}
}

// faultTargetIndex is the network the targeted faults (jammer, crash,
// stuck-CCA) hit: the middle channel of the five-network strip, whose
// nodes face inter-channel interference from both sides and therefore
// depend the most on a healthy threshold.
const faultTargetIndex = middleIndex

// watchdogConfig is the guard parameterisation the evaluation uses:
// tighter than the defaults so recovery completes well inside the
// measurement window.
func watchdogConfig() dcn.Config {
	return dcn.Config{
		Watchdog:       true,
		WatchdogPeriod: 200 * time.Millisecond,
		PoisonWindow:   600 * time.Millisecond,
	}
}

// FaultRow is one (model, scheme) cell of the robustness comparison.
type FaultRow struct {
	Model  FaultModel
	Scheme string
	// Overall is the all-networks goodput; Target is the goodput of the
	// network the targeted faults hit.
	Overall, Target float64
	// Recoveries counts watchdog re-initialisations across the target
	// network's adjustors; StuckDetections counts stuck-register
	// detections there.
	Recoveries, StuckDetections int
	// Injected summarises the fault events actually fired.
	Injected fault.Stats
}

// FaultEvalResult backs the fault-injection robustness table.
type FaultEvalResult struct{ Rows []FaultRow }

// Row returns the cell for (model, scheme), or nil.
func (r FaultEvalResult) Row(m FaultModel, scheme string) *FaultRow {
	for i := range r.Rows {
		if r.Rows[i].Model == m && r.Rows[i].Scheme == scheme {
			return &r.Rows[i]
		}
	}
	return nil
}

// faultRun executes one seeded run and returns (overall, target goodput,
// watchdog stats of the target network, injector stats).
func faultRun(seed int64, snap *topology.Snapshot, fs faultScheme, model FaultModel, opts Options) FaultRow {
	tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
	cfg := testbed.NetworkConfig{Scheme: fs.scheme}
	if fs.watchdog {
		cfg.DCN = watchdogConfig()
	}
	for _, spec := range snap.Networks() {
		tb.AddNetwork(spec, cfg)
	}

	inj := fault.NewInjector(tb.Kernel)
	target := tb.Networks()[faultTargetIndex]
	switch model {
	case FaultNone:
	case FaultJammer:
		// A distant wideband Gilbert–Elliott emitter centered on the target
		// channel — an 802.11-class access point ~25 m away. Every
		// target-network radio locks onto its frames at a weak, nearly
		// uniform RSSI (~-80 dBm), so one burst drives every sender's
		// threshold below the inter-channel energy floor via Eq. 3 and the
		// whole network falls silent. With nobody transmitting, every
		// Eq. 4 window drains empty and the unguarded Adjustor can never
		// relax again. Bursts stop shortly into the measurement window, so
		// what the table shows afterwards is pure retained-state damage.
		j := inj.NewJammer(tb.Medium, fault.JammerConfig{
			Pos:       phy.Position{X: 25},
			Freq:      target.Freq,
			Bandwidth: 22,
			Power:     17,
			MeanBurst: 250 * time.Millisecond,
			MeanGap:   1500 * time.Millisecond,
			Start:     time.Second,
			Stop:      opts.Warmup + 1500*time.Millisecond,
		})
		j.Start()
	case FaultCrash:
		// Two of the target network's senders power-cycle mid-measurement.
		for i, s := range target.Senders {
			if i >= 2 {
				break
			}
			inj.ScheduleCrash(fault.CrashTarget{
				Radio: s.Radio, MAC: s.MAC, Adjustor: s.Adjustor,
			}, opts.Warmup+time.Second+time.Duration(i)*300*time.Millisecond, 1500*time.Millisecond)
		}
	case FaultDrift:
		// Every node's RSSI calibration random-walks independently.
		for _, n := range tb.Networks() {
			for _, s := range append([]*testbed.Node{n.Sink}, n.Senders...) {
				inj.ScheduleDrift(s.Radio, fault.DriftConfig{
					Step:  250 * time.Millisecond,
					Sigma: 1.5,
				})
			}
		}
	case FaultStuckCCA:
		// The target network's registers stick early in the Initializing
		// Phase and release two seconds into the measurement window.
		for _, s := range append([]*testbed.Node{target.Sink}, target.Senders...) {
			inj.ScheduleStuckCCA(s.Radio, 500*time.Millisecond, opts.Warmup+1500*time.Millisecond)
		}
	}

	tb.Run(opts.Warmup, opts.Measure)

	row := FaultRow{
		Model:    model,
		Scheme:   fs.name,
		Overall:  tb.OverallThroughput(),
		Target:   tb.PerNetworkThroughput()[faultTargetIndex],
		Injected: inj.Stats(),
	}
	for _, s := range append([]*testbed.Node{target.Sink}, target.Senders...) {
		if s.Adjustor == nil {
			continue
		}
		w := s.Adjustor.Watchdog()
		row.Recoveries += w.Recoveries()
		row.StuckDetections += w.StuckWriteDetections
	}
	return row
}

// FaultEval runs the robustness evaluation: every fault model against the
// fixed-threshold ZigBee design, the paper's unguarded DCN Adjustor, and
// DCN with the self-healing watchdog. The headline shape: under the
// jammer-burst model the unguarded Adjustor's threshold stays poisoned
// after the burst ends and its throughput degrades toward (or below) the
// default-ZigBee baseline, while the watchdog re-initialises and recovers
// most of the fault-free DCN throughput.
func FaultEval(opts Options) (FaultEvalResult, *Table) {
	opts = opts.withDefaults()
	models := FaultModels()
	schemes := faultSchemes()
	// All (model, scheme) cells of a seed share one topology snapshot.
	topos := snapshotSeeds(opts, topology.Config{
		Plan:   evalPlan(5, 3),
		Layout: topology.LayoutColocated,
	})
	grid := runGrid(opts, len(models)*len(schemes), func(cell int, seed int64) FaultRow {
		return faultRun(seed, topos.at(seed), schemes[cell%len(schemes)], models[cell/len(schemes)], opts)
	})
	var res FaultEvalResult
	for mi, model := range models {
		for si, fs := range schemes {
			var acc FaultRow
			for _, r := range grid[mi*len(schemes)+si] {
				acc.Overall += r.Overall
				acc.Target += r.Target
				acc.Recoveries += r.Recoveries
				acc.StuckDetections += r.StuckDetections
				acc.Injected.Crashes += r.Injected.Crashes
				acc.Injected.Reboots += r.Injected.Reboots
				acc.Injected.DriftSteps += r.Injected.DriftSteps
				acc.Injected.StuckPeriods += r.Injected.StuckPeriods
				acc.Injected.JammerBursts += r.Injected.JammerBursts
			}
			n := float64(opts.Seeds)
			acc.Model, acc.Scheme = model, fs.name
			acc.Overall /= n
			acc.Target /= n
			res.Rows = append(res.Rows, acc)
		}
	}

	t := &Table{
		Title: "Fault injection: throughput under disturbance (5 networks, CFD=3 MHz)",
		Columns: []string{"fault", "scheme", "overall (pkt/s)", "target N2 (pkt/s)",
			"recoveries", "stuck-detects", "events"},
	}
	for _, r := range res.Rows {
		t.AddRow(string(r.Model), r.Scheme, f0(r.Overall), f0(r.Target),
			f0(float64(r.Recoveries)), f0(float64(r.StuckDetections)), faultEvents(r))
	}
	return res, t
}

// faultEvents renders the injected-event summary cell.
func faultEvents(r FaultRow) string {
	s := r.Injected
	switch r.Model {
	case FaultJammer:
		return f0(float64(s.JammerBursts)) + " bursts"
	case FaultCrash:
		return f0(float64(s.Crashes)) + " crashes"
	case FaultDrift:
		return f0(float64(s.DriftSteps)) + " steps"
	case FaultStuckCCA:
		return f0(float64(s.StuckPeriods)) + " sticks"
	}
	return "-"
}
