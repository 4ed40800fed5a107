package experiments

import (
	"reflect"
	"testing"

	"nonortho/internal/topology"
)

// faultTestSnapshot builds the FaultEval topology for one seed, as the
// driver's snapshotSeeds would.
func faultTestSnapshot(t *testing.T, seed int64) *topology.Snapshot {
	t.Helper()
	return snapshotSeeds(Options{Seed: seed, Seeds: 1}, topology.Config{
		Plan:   evalPlan(5, 3),
		Layout: topology.LayoutColocated,
	}).at(seed)
}

// TestFaultRunDeterministicReplay asserts the acceptance property: the same
// seed and fault schedule yield bit-identical experiment output. The jammer
// model exercises the most machinery (GE dwell-time RNG streams, wideband
// medium bookkeeping, watchdog recoveries), so replaying it twice covers
// the whole injection stack.
func TestFaultRunDeterministicReplay(t *testing.T) {
	opts := Quick().withDefaults()
	snap := faultTestSnapshot(t, 7)
	for _, fs := range faultSchemes() {
		a := faultRun(7, snap, fs, FaultJammer, opts)
		b := faultRun(7, snap, fs, FaultJammer, opts)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scheme %s: replay diverged:\n  first  %+v\n  second %+v", fs.name, a, b)
		}
	}
}

// TestFaultRunSeedsDiffer guards against the opposite failure: a frozen RNG
// that makes every seed identical would also pass the replay test.
func TestFaultRunSeedsDiffer(t *testing.T) {
	opts := Quick().withDefaults()
	fs := faultSchemes()[1] // unguarded dcn
	a := faultRun(1, faultTestSnapshot(t, 1), fs, FaultJammer, opts)
	b := faultRun(2, faultTestSnapshot(t, 2), fs, FaultJammer, opts)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical runs — RNG streams not wired")
	}
}

// TestFaultEvalJammerAcceptance checks the headline robustness claim on the
// default windows: after jammer bursts poison every target-network
// threshold, the watchdog recovers at least 80 % of the fault-free DCN
// throughput while the unguarded Adjustor stays poisoned and degrades to
// (or below) the default-ZigBee baseline.
func TestFaultEvalJammerAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	opts := Options{Seed: 1, Seeds: 2}.withDefaults()
	schemes := faultSchemes()
	avg := func(fs faultScheme, m FaultModel) FaultRow {
		var acc FaultRow
		for s := 0; s < opts.Seeds; s++ {
			seed := opts.Seed + int64(s)
			r := faultRun(seed, faultTestSnapshot(t, seed), fs, m, opts)
			acc.Overall += r.Overall
			acc.Target += r.Target
			acc.Recoveries += r.Recoveries
		}
		acc.Overall /= float64(opts.Seeds)
		acc.Target /= float64(opts.Seeds)
		return acc
	}

	faultFree := avg(schemes[1], FaultNone)   // dcn, no fault
	fixed := avg(schemes[0], FaultJammer)     // default ZigBee under jammer
	unguarded := avg(schemes[1], FaultJammer) // dcn under jammer
	guarded := avg(schemes[2], FaultJammer)   // dcn+wd under jammer

	// The jammer hits the target network, so the claim is made on its
	// goodput — the overall column dilutes the damage across the four
	// untouched networks.
	if guarded.Target < 0.8*faultFree.Target {
		t.Errorf("guarded DCN target goodput under jammer = %.1f pkt/s, want >= 80%% of fault-free %.1f",
			guarded.Target, faultFree.Target)
	}
	if guarded.Recoveries == 0 {
		t.Error("watchdog recorded no poison recoveries under the jammer model")
	}
	// The unguarded Adjustor's retained poisoning must cost it its DCN
	// advantage: no better than the fixed-threshold baseline (small
	// tolerance for seed noise).
	if unguarded.Target > fixed.Target*1.05 {
		t.Errorf("unguarded DCN target goodput under jammer = %.1f pkt/s, expected degradation toward fixed baseline %.1f",
			unguarded.Target, fixed.Target)
	}
	if guarded.Target <= unguarded.Target {
		t.Errorf("watchdog gain absent: guarded %.1f <= unguarded %.1f",
			guarded.Target, unguarded.Target)
	}
}

// TestFaultEvalQuickSmoke renders the full table once on quick windows so a
// plain `go test` exercises every model × scheme cell.
func TestFaultEvalQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	res, tbl := FaultEval(Quick())
	if got, want := len(res.Rows), len(FaultModels())*len(faultSchemes()); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for _, m := range FaultModels() {
		for _, fs := range faultSchemes() {
			r := res.Row(m, fs.name)
			if r == nil {
				t.Fatalf("missing row (%s, %s)", m, fs.name)
			}
			if r.Overall <= 0 {
				t.Errorf("(%s, %s): overall throughput = %v, want > 0", m, fs.name, r.Overall)
			}
		}
	}
	if r := res.Row(FaultJammer, "dcn"); r.Injected.JammerBursts == 0 {
		t.Error("jammer model fired no bursts")
	}
	if r := res.Row(FaultCrash, "dcn"); r.Injected.Crashes == 0 || r.Injected.Reboots == 0 {
		t.Error("crash model fired no crash/reboot events")
	}
	if r := res.Row(FaultDrift, "dcn"); r.Injected.DriftSteps == 0 {
		t.Error("drift model took no steps")
	}
	if r := res.Row(FaultStuckCCA, "dcn+wd"); r.Injected.StuckPeriods == 0 {
		t.Error("stuck-CCA model stuck no registers")
	}
	if len(tbl.Rows) != len(res.Rows) {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(res.Rows))
	}
}
