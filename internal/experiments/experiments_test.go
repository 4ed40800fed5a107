package experiments

import (
	"strings"
	"testing"
)

// quick returns the fast options used across the integration tests.
func quick() Options { return Quick() }

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "bbb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	out := tbl.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Errorf("render lines = %d, want 5:\n%s", len(lines), out)
	}
}

func TestMeanHelpers(t *testing.T) {
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v", got)
	}
	rows := meanRows([][]float64{{1, 2}, {3, 4}})
	if rows[0] != 2 || rows[1] != 3 {
		t.Errorf("meanRows = %v", rows)
	}
	if meanRows(nil) != nil {
		t.Error("meanRows(nil) != nil")
	}
	// Ragged input clips to the shortest row.
	if got := meanRows([][]float64{{1, 2, 3}, {3, 4}}); len(got) != 2 {
		t.Errorf("ragged meanRows = %v", got)
	}
}

func TestEvalPlan(t *testing.T) {
	p := evalPlan(6, 3)
	if p.NumChannels() != 6 || p.Centers[0] != 2458 || p.Centers[5] != 2473 {
		t.Errorf("evalPlan = %+v", p)
	}
}

// --- Shape assertions against the paper ---

func TestFig1ShapePeaksAtCFD3(t *testing.T) {
	res, tbl := Fig1(Options{Seed: 1, Seeds: 2, Warmup: quick().Warmup, Measure: quick().Measure})
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	byCFD := map[float64]float64{}
	for _, r := range res.Rows {
		byCFD[float64(r.CFD)] = r.Total
	}
	// Orthogonal single channel is worst; CFD=3 beats both the ZigBee
	// spacing and the aggressive 2 MHz packing.
	if !(byCFD[3] > byCFD[5] && byCFD[3] > byCFD[9]) {
		t.Errorf("CFD=3 not above 5/9 MHz: %v\n%s", byCFD, tbl)
	}
	if !(byCFD[3] >= byCFD[2]) {
		t.Errorf("CFD=3 (%.0f) below CFD=2 (%.0f): peak must be at 3 MHz\n%s",
			byCFD[3], byCFD[2], tbl)
	}
	if !(byCFD[5] > 1.5*byCFD[9]) {
		t.Errorf("two ZigBee channels should roughly double one: %v", byCFD)
	}
}

func TestFig2ShapeContrast(t *testing.T) {
	res, tbl := Fig2(quick())
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(res.Rows))
	}
	co := res.Rows[0]
	// Co-channel: both technologies share via CSMA, roughly halving.
	if co.Norm80211 > 0.8 || co.Norm802154 > 0.8 {
		t.Errorf("co-channel norms = %.2f / %.2f, want both suppressed\n%s",
			co.Norm80211, co.Norm802154, tbl)
	}
	// One channel away: 802.15.4 recovers fully, 802.11b stays suppressed.
	one := res.Rows[1]
	if one.Norm802154 < 0.9 {
		t.Errorf("802.15.4 at 1 channel = %.2f, want ≈ 1\n%s", one.Norm802154, tbl)
	}
	if one.Norm80211 > 0.8 {
		t.Errorf("802.11b at 1 channel = %.2f, want suppressed\n%s", one.Norm80211, tbl)
	}
	// 802.11b stays suppressed through 4 channels and recovers far out.
	if res.Rows[4].Norm80211 > 0.8 {
		t.Errorf("802.11b at 4 channels = %.2f, want suppressed", res.Rows[4].Norm80211)
	}
	if res.Rows[10].Norm80211 < 0.85 {
		t.Errorf("802.11b at 10 channels = %.2f, want recovered", res.Rows[10].Norm80211)
	}
}

func TestFig4CPRRBands(t *testing.T) {
	res, tbl := Fig4(Options{Seed: 1, Seeds: 2, Warmup: quick().Warmup, Measure: quick().Measure})
	get := func(cfd float64) Fig4Row {
		for _, r := range res.Rows {
			if float64(r.CFD) == cfd {
				return r
			}
		}
		t.Fatalf("missing CFD %v", cfd)
		return Fig4Row{}
	}
	if r := get(5); r.NormalCPRR < 0.97 || r.AttackerCPRR < 0.97 {
		t.Errorf("CFD=5 CPRR = %.2f/%.2f, want ≈ 100%%\n%s", r.NormalCPRR, r.AttackerCPRR, tbl)
	}
	if r := get(4); r.NormalCPRR < 0.95 {
		t.Errorf("CFD=4 CPRR = %.2f, want ≈ 100%%\n%s", r.NormalCPRR, tbl)
	}
	if r := get(3); r.NormalCPRR < 0.90 {
		t.Errorf("CFD=3 CPRR = %.2f, want ≈ 97%%\n%s", r.NormalCPRR, tbl)
	}
	if r := get(2); r.NormalCPRR < 0.5 || r.NormalCPRR > 0.85 {
		t.Errorf("CFD=2 CPRR = %.2f, want ≈ 70%%\n%s", r.NormalCPRR, tbl)
	}
	if r := get(1); r.NormalCPRR > 0.30 {
		t.Errorf("CFD=1 CPRR = %.2f, want < 20%%\n%s", r.NormalCPRR, tbl)
	}
	// Monotone in CFD.
	if !(get(3).NormalCPRR > get(2).NormalCPRR && get(2).NormalCPRR > get(1).NormalCPRR) {
		t.Errorf("CPRR not monotone in CFD:\n%s", tbl)
	}
}

func TestFig6RelaxingUnlocksThroughputWithoutLoss(t *testing.T) {
	res, tbl := Fig6(quick())
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Sent > 5 {
		t.Errorf("sent at -120 dBm = %.0f, want ≈ 0 (always busy)\n%s", first.Sent, tbl)
	}
	if last.Sent < 200 {
		t.Errorf("sent at -20 dBm = %.0f, want saturated\n%s", last.Sent, tbl)
	}
	// Inter-channel interference is tolerable: received tracks sent.
	if last.Received < 0.95*last.Sent {
		t.Errorf("received %.0f vs sent %.0f: PRR should stay ≈ 100%%\n%s",
			last.Received, last.Sent, tbl)
	}
}

func TestFig7OverallGrowsWithRelaxing(t *testing.T) {
	res, tbl := Fig7(quick())
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Overall <= first.Overall {
		t.Errorf("overall did not grow: %.0f → %.0f\n%s", first.Overall, last.Overall, tbl)
	}
}

func TestFig8CoChannelCollisionsCapReceived(t *testing.T) {
	res, tbl := Fig8(quick())
	last := res.Rows[len(res.Rows)-1]
	if last.Sent < 200 {
		t.Fatalf("sent at -20 dBm = %.0f, want saturated\n%s", last.Sent, tbl)
	}
	// Fully relaxed: the link barges into co-channel transmissions, so a
	// clear gap opens between sent and received (the paper's "disaster").
	if last.Received > 0.9*last.Sent {
		t.Errorf("received %.0f vs sent %.0f: expected co-channel losses\n%s",
			last.Received, last.Sent, tbl)
	}
	// And the no-co-channel configuration of Fig 6 must NOT show that gap
	// (cross-check between the two experiments).
	res6, _ := Fig6(quick())
	last6 := res6.Rows[len(res6.Rows)-1]
	if last6.Received/last6.Sent < last.Received/last.Sent {
		t.Errorf("Fig6 PRR (%.2f) below Fig8 PRR (%.2f)",
			last6.Received/last6.Sent, last.Received/last.Sent)
	}
}

func TestFig9and10PowerBands(t *testing.T) {
	if testing.Short() {
		t.Skip("105 simulation runs; skipped in -short")
	}
	res, _, tbl10 := Fig9and10(quick())
	// Pick the fully relaxed threshold point per power.
	finalFor := func(p float64) Fig9Row {
		var out Fig9Row
		for _, r := range res.Rows {
			if float64(r.Power) == p && r.Threshold == -20 {
				out = r
			}
		}
		return out
	}
	// Shape: PRR is monotone in transmit power — near the plateau for
	// -8/-15 dBm, visibly degraded at -22 dBm, collapsed at -33 dBm.
	// (The paper reports higher absolute plateaus; see EXPERIMENTS.md.)
	if r := finalFor(-8); r.PRR < 0.65 {
		t.Errorf("-8 dBm PRR = %.2f, want near plateau\n%s", r.PRR, tbl10)
	}
	if r := finalFor(-15); r.PRR < 0.6 {
		t.Errorf("-15 dBm PRR = %.2f, want near plateau\n%s", r.PRR, tbl10)
	}
	if r := finalFor(-22); r.PRR < 0.2 || r.PRR > 0.65 {
		t.Errorf("-22 dBm PRR = %.2f, want visibly degraded\n%s", r.PRR, tbl10)
	}
	if r := finalFor(-33); r.PRR > 0.2 {
		t.Errorf("-33 dBm PRR = %.2f, want collapsed\n%s", r.PRR, tbl10)
	}
	if !(finalFor(-8).PRR >= finalFor(-22).PRR && finalFor(-22).PRR > finalFor(-33).PRR) {
		t.Errorf("PRR not monotone in power\n%s", tbl10)
	}
	// Throughput at every power grows with relaxing.
	for _, p := range []float64{-8, -11, -15, -22} {
		var atDefault, atRelaxed float64
		for _, r := range res.Rows {
			if float64(r.Power) != p {
				continue
			}
			if r.Threshold == -105 {
				atDefault = r.Received
			}
			if r.Threshold == -20 {
				atRelaxed = r.Received
			}
		}
		if atRelaxed <= atDefault {
			t.Errorf("power %v: no relaxing gain (%.0f → %.0f)", p, atDefault, atRelaxed)
		}
	}
}

func TestFig14and15DCNOnN0(t *testing.T) {
	res, t14, t15 := Fig14and15(quick())
	for _, r := range res.Rows {
		if r.N0With <= r.N0Without {
			t.Errorf("CFD=%v: DCN on N0 did not help N0 (%.0f → %.0f)\n%s",
				r.CFD, r.N0Without, r.N0With, t14)
		}
		// The other networks may lose a little, but must not collapse
		// (paper: ≈ -5 %).
		if r.OthersWith < 0.8*r.OthersWithout {
			t.Errorf("CFD=%v: others collapsed (%.0f → %.0f)\n%s",
				r.CFD, r.OthersWithout, r.OthersWith, t15)
		}
	}
}

func TestFig17EveryNetworkGains(t *testing.T) {
	res, tbl := Fig17(Options{Seed: 1, Seeds: 2, Warmup: quick().Warmup, Measure: quick().Measure})
	var woTotal, wiTotal float64
	for _, r := range res.Rows {
		woTotal += r.Without
		wiTotal += r.With
		// Individual networks can fluctuate a few percent; none may
		// collapse.
		if r.With < 0.85*r.Without {
			t.Errorf("%s collapsed under DCN: %.0f → %.0f\n%s", r.Network, r.Without, r.With, tbl)
		}
	}
	if wiTotal <= woTotal {
		t.Errorf("DCN on all networks did not raise the total: %.0f → %.0f\n%s",
			woTotal, wiTotal, tbl)
	}
}

func TestFig18CFD3Wins(t *testing.T) {
	res, tbl := Fig18(quick())
	byCFD := map[float64]Fig18Row{}
	for _, r := range res.Rows {
		byCFD[float64(r.CFD)] = r
	}
	// DCN helps at both CFDs...
	for cfd, r := range byCFD {
		if r.With <= r.Without {
			t.Errorf("CFD=%v: no DCN gain (%.0f → %.0f)\n%s", cfd, r.Without, r.With, tbl)
		}
	}
	// ...and CFD=3 MHz delivers the better overall throughput (paper:
	// 1.37x the CFD=2 design).
	if byCFD[3].With <= byCFD[2].With {
		t.Errorf("CFD=3 with DCN (%.0f) not above CFD=2 (%.0f)\n%s",
			byCFD[3].With, byCFD[2].With, tbl)
	}
	ratio := byCFD[3].With / byCFD[2].With
	if ratio < 1.1 || ratio > 1.9 {
		t.Errorf("CFD3/CFD2 ratio = %.2f, want around the paper's 1.37", ratio)
	}
}

func TestFig19HeadlineImprovement(t *testing.T) {
	res, tbl := Fig19(Options{Seed: 1, Seeds: 2, Warmup: quick().Warmup, Measure: quick().Measure})
	if len(res.ZigBeePerNetwork) != 4 || len(res.DCNPerNetwork) != 6 {
		t.Fatalf("channel counts = %d/%d, want 4/6\n%s",
			len(res.ZigBeePerNetwork), len(res.DCNPerNetwork), tbl)
	}
	// The paper reports +58 % here and 38.4-55.7 % across configurations.
	if res.Improvement < 0.30 || res.Improvement > 0.75 {
		t.Errorf("improvement = %.1f%%, want within the paper's band\n%s",
			100*res.Improvement, tbl)
	}
}

func TestFig20PowerPhases(t *testing.T) {
	res, t20, t21 := Fig20and21(quick())
	// N0's throughput grows monotonically with its transmit power.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].N0+10 < res.Rows[i-1].N0 {
			t.Errorf("N0 throughput not increasing at %v dBm\n%s",
				res.Rows[i].Power, t20)
		}
	}
	lo, hi := res.Rows[0], res.Rows[len(res.Rows)-1]
	if hi.N0 < 4*lo.N0+50 {
		t.Errorf("N0 gain from power too small: %.0f → %.0f\n%s", lo.N0, hi.N0, t20)
	}
	// High co-channel power does not hurt the neighbours (Fig 21).
	if hi.Others < 0.9*lo.Others {
		t.Errorf("neighbours degraded by N0's power: %.0f → %.0f\n%s",
			lo.Others, hi.Others, t21)
	}
}

func TestTableIFairness(t *testing.T) {
	res, tbl := TableI(Options{Seed: 1, Seeds: 2, Warmup: quick().Warmup, Measure: quick().Measure})
	if len(res.PerNetwork) != 6 {
		t.Fatalf("networks = %d, want 6", len(res.PerNetwork))
	}
	// The paper reports ~4 % spread; allow headroom for the short runs.
	if res.Spread > 0.25 {
		t.Errorf("spread = %.1f%%, want small\n%s", 100*res.Spread, tbl)
	}
	if res.Jain < 0.98 {
		t.Errorf("Jain index = %.3f, want near 1\n%s", res.Jain, tbl)
	}
}

func TestCasesOrderingAndBands(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full runs; skipped in -short")
	}
	opts := Options{Seed: 1, Seeds: 2, Warmup: quick().Warmup, Measure: quick().Measure}
	c1, t1 := Fig25(opts)
	c2, t2 := Fig26(opts)
	c3, t3 := Fig27(opts)
	for _, c := range []struct {
		res CaseResult
		tbl *Table
	}{{c1, t1}, {c2, t2}, {c3, t3}} {
		if !(c.res.ZigBee < c.res.WithoutDCN && c.res.WithoutDCN < c.res.WithDCN) {
			t.Errorf("ordering violated: %+v\n%s", c.res, c.tbl)
		}
		// The paper's overall band: 38.4-55.7 % vs ZigBee; allow slack.
		if c.res.GainOverZigBee < 0.25 || c.res.GainOverZigBee > 0.85 {
			t.Errorf("gain vs ZigBee = %.1f%%, outside plausible band\n%s",
				100*c.res.GainOverZigBee, c.tbl)
		}
	}
	// Relaxing gain ordering: Case I >= Case II >= Case III (paper:
	// 14.7 / 10.4 / 6.2 %). Allow a small tolerance for run noise.
	if c1.GainOverWithout+0.02 < c2.GainOverWithout {
		t.Errorf("Case I gain (%.1f%%) below Case II (%.1f%%)",
			100*c1.GainOverWithout, 100*c2.GainOverWithout)
	}
	if c2.GainOverWithout+0.02 < c3.GainOverWithout {
		t.Errorf("Case II gain (%.1f%%) below Case III (%.1f%%)",
			100*c2.GainOverWithout, 100*c3.GainOverWithout)
	}
}

func TestFig28RecoveryClosesGap(t *testing.T) {
	res, tbl := Fig28(quick())
	last := res.Rows[len(res.Rows)-1]
	if last.Sent < 100 {
		t.Fatalf("sent = %.0f, want saturated at relaxed threshold\n%s", last.Sent, tbl)
	}
	if last.Received >= last.Sent {
		t.Fatalf("no loss at -22 dBm under 0 dBm interferers?\n%s", tbl)
	}
	if last.Recoverable <= last.Received {
		t.Errorf("recovery added nothing: recv %.0f recoverable %.0f\n%s",
			last.Received, last.Recoverable, tbl)
	}
	if last.Recoverable > last.Sent {
		t.Errorf("recoverable %.0f exceeds sent %.0f\n%s", last.Recoverable, last.Sent, tbl)
	}
}

func TestFig29FrontLoadedCDF(t *testing.T) {
	res, tbl := Fig29(quick())
	if res.Failed == 0 {
		t.Fatal("no CRC-failed packets collected")
	}
	// The distribution is front-loaded: a large share of CRC failures
	// carry few error bits (paper: 87 % within 10 %).
	if res.FractionWithin10Pct < 0.3 {
		t.Errorf("fraction within 10%% errors = %.2f, want front-loaded\n%s",
			res.FractionWithin10Pct, tbl)
	}
	// CDF is monotone and ends at 1.
	for i := 1; i < len(res.CDF); i++ {
		if res.CDF[i].F < res.CDF[i-1].F {
			t.Fatalf("CDF not monotone\n%s", tbl)
		}
	}
	if res.CDF[len(res.CDF)-1].F != 1 {
		t.Errorf("CDF tail = %v, want 1", res.CDF[len(res.CDF)-1].F)
	}
}

func TestFig30WideBand(t *testing.T) {
	res, tbl := Fig30(quick())
	if len(res.Rows) != 7 {
		t.Fatalf("networks = %d, want 7", len(res.Rows))
	}
	var wo, wi float64
	for _, r := range res.Rows {
		wo += r.Without
		wi += r.With
	}
	if wi <= wo {
		t.Errorf("no overall DCN gain on 18 MHz: %.0f → %.0f\n%s", wo, wi, tbl)
	}
}

func TestBandSweepGainPersists(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full runs; skipped in -short")
	}
	res, tbl := BandSweep(quick())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Gain <= 0 {
			t.Errorf("band %v MHz: DCN gain %.1f%%, want positive\n%s",
				r.BandMHz, 100*r.Gain, tbl)
		}
	}
	// Wider bands keep at least comparable relaxing gains (Section VII-B).
	if res.Rows[3].Gain < 0.5*res.Rows[0].Gain {
		t.Errorf("gain fades with bandwidth: %v\n%s", res.Rows, tbl)
	}
}

func TestAblationDCN(t *testing.T) {
	if testing.Short() {
		t.Skip("five full runs; skipped in -short")
	}
	res, tbl := AblationDCN(quick())
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Variant] = r
	}
	full := byName["full"]
	if full.Total == 0 {
		t.Fatalf("full variant carried no traffic\n%s", tbl)
	}
	// In a stationary saturated scenario the Initializing Phase already
	// sees the RSSI minimum, so removing Case II changes little — its
	// value shows up under dynamics (TestCaseIIRecovery). Assert the
	// honest finding: near parity here.
	if noC2 := byName["no-case-2"]; noC2.VsFull < 0.9 || noC2.VsFull > 1.1 {
		t.Errorf("no-case-2 vs full = %.2f, want near parity in steady state\n%s", noC2.VsFull, tbl)
	}
	if fixed := byName["fixed (no DCN)"]; fixed.VsFull > 0.97 {
		t.Errorf("fixed vs full = %.2f, want below the full scheme\n%s", fixed.VsFull, tbl)
	}
	// The init-sensing and margin ablations are second-order: they stay
	// within a modest band of the full scheme.
	if v := byName["no-init-sensing"]; v.VsFull < 0.8 || v.VsFull > 1.15 {
		t.Errorf("no-init-sensing vs full = %.2f, want second-order\n%s", v.VsFull, tbl)
	}
	if v := byName["margin-3dB"]; v.VsFull < 0.8 || v.VsFull > 1.1 {
		t.Errorf("margin-3dB vs full = %.2f, want second-order\n%s", v.VsFull, tbl)
	}
}

func TestEnergyComparison(t *testing.T) {
	res, tbl := EnergyComparison(quick())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	zig, dcnRow := res.Rows[0], res.Rows[1]
	if zig.Throughput == 0 || dcnRow.Throughput == 0 {
		t.Fatalf("zero throughput\n%s", tbl)
	}
	if dcnRow.Throughput <= zig.Throughput {
		t.Errorf("DCN throughput %.0f not above ZigBee %.0f\n%s",
			dcnRow.Throughput, zig.Throughput, tbl)
	}
	// More delivered packets over the same always-on radio time ⇒ the
	// per-packet energy must not rise (TX is marginally cheaper than RX
	// on a CC2420, so in practice it lands at or slightly below parity).
	if dcnRow.MJPerDelivered > 1.05*zig.MJPerDelivered {
		t.Errorf("DCN mJ/pkt %.2f above ZigBee %.2f\n%s",
			dcnRow.MJPerDelivered, zig.MJPerDelivered, tbl)
	}
}

func TestCaseIIRecovery(t *testing.T) {
	res, tbl := CaseIIRecovery(Options{Seed: 1, Seeds: 2, Warmup: quick().Warmup, Measure: quick().Measure})
	// After the weak node departs, Case II relaxes the threshold back up;
	// the ablated variant stays pinned near the weak node's RSSI.
	if res.ThresholdWith <= res.ThresholdWithout {
		t.Errorf("Case II did not raise the threshold: with %.1f vs without %.1f\n%s",
			res.ThresholdWith, res.ThresholdWithout, tbl)
	}
	if res.WithCaseII <= res.WithoutCaseII {
		t.Errorf("no recovery gain: with %.0f vs without %.0f pkt/s\n%s",
			res.WithCaseII, res.WithoutCaseII, tbl)
	}
}

func TestScarcityDCNBeatsOrthogonalAssignment(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs; skipped in -short")
	}
	res, tbl := Scarcity(quick())
	byName := map[string]float64{}
	for _, r := range res.Rows {
		byName[r.Strategy] = r.Total
	}
	dcnTotal := byName["DCN (6 nets / 6 ch, CFD=3)"]
	for name, total := range byName {
		if name == "DCN (6 nets / 6 ch, CFD=3)" {
			continue
		}
		if dcnTotal <= total {
			t.Errorf("DCN (%.0f) not above %q (%.0f)\n%s", dcnTotal, name, total, tbl)
		}
	}
	if res.DCNOverBestOrthogonal < 0.2 {
		t.Errorf("DCN over best orthogonal = %.1f%%, want a decisive margin\n%s",
			100*res.DCNOverBestOrthogonal, tbl)
	}
}

func TestMultihopCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve trees; skipped in -short")
	}
	res, tbl := Multihop(quick())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	zig, dcnRow := res.Rows[0], res.Rows[1]
	if zig.DeliveredPerSec == 0 || dcnRow.DeliveredPerSec == 0 {
		t.Fatalf("a design delivered nothing\n%s", tbl)
	}
	// Multi-hop actually happened.
	if zig.MeanHops < 1.2 || dcnRow.MeanHops < 1.2 {
		t.Errorf("mean hops = %.2f/%.2f, want > 1.2 (outer ring must relay)",
			zig.MeanHops, dcnRow.MeanHops)
	}
	// DCN sustains more goodput and a higher end-to-end delivery ratio
	// than orthogonal tree-sharing.
	if dcnRow.DeliveredPerSec <= zig.DeliveredPerSec {
		t.Errorf("DCN %.1f not above ZigBee %.1f readings/s\n%s",
			dcnRow.DeliveredPerSec, zig.DeliveredPerSec, tbl)
	}
	if dcnRow.DeliveryRatio <= zig.DeliveryRatio {
		t.Errorf("DCN ratio %.2f not above ZigBee %.2f\n%s",
			dcnRow.DeliveryRatio, zig.DeliveryRatio, tbl)
	}
}

func TestUpperBoundBothRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("six full runs; skipped in -short")
	}
	res, tbl := UpperBound(quick())
	// The oracle rows are the only table output that reads
	// SensedCoChannelPower; pin their bytes.
	checkGolden(t, "UpperBound/quick", tbl.String())
	get := func(geom, policy string) float64 {
		for _, r := range res.Rows {
			if r.Geometry == geom && r.Policy == policy {
				return r.Total
			}
		}
		t.Fatalf("missing row %s/%s", geom, policy)
		return 0
	}
	// Dense regime: DCN reaches the oracle (within noise) and both beat
	// the fixed threshold.
	denseFixed := get("dense, 0 dBm", "fixed -77 dBm")
	denseDCN := get("dense, 0 dBm", "DCN")
	denseOracle := get("dense, 0 dBm", "oracle")
	if denseDCN <= denseFixed || denseOracle <= denseFixed {
		t.Errorf("dense ordering violated: fixed %.0f dcn %.0f oracle %.0f\n%s",
			denseFixed, denseDCN, denseOracle, tbl)
	}
	if res.DenseOracleOverDCN > 0.1 {
		t.Errorf("oracle leaves %.1f%% over DCN in the dense regime, want ≈ none\n%s",
			100*res.DenseOracleOverDCN, tbl)
	}
	// Sparse weak-link regime: ignoring all inter-channel energy is
	// unsafe — the oracle must lose to the fixed threshold (the paper's
	// VII-C caveat).
	if res.SparseOracleOverFixed >= 0 {
		t.Errorf("oracle did not backfire in the weak-link regime (%.1f%%)\n%s",
			100*res.SparseOracleOverFixed, tbl)
	}
}

func TestCoexistenceDCNResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("four full runs; skipped in -short")
	}
	res, tbl := Coexistence(quick())
	if res.ZigBeeLoss < 0.1 {
		t.Errorf("ZigBee loss under Wi-Fi = %.1f%%, want substantial\n%s",
			100*res.ZigBeeLoss, tbl)
	}
	if res.DCNLoss >= res.ZigBeeLoss {
		t.Errorf("DCN loss (%.1f%%) not below ZigBee loss (%.1f%%)\n%s",
			100*res.DCNLoss, 100*res.ZigBeeLoss, tbl)
	}
	// DCN under Wi-Fi still beats ZigBee without Wi-Fi's handicap removed.
	var zigOn, dcnOn float64
	for _, r := range res.Rows {
		if r.WiFi && r.Design == "ZigBee (fixed -77 dBm)" {
			zigOn = r.Total
		}
		if r.WiFi && r.Design == "DCN (CFD=3)" {
			dcnOn = r.Total
		}
	}
	if dcnOn <= zigOn {
		t.Errorf("DCN under Wi-Fi (%.0f) not above ZigBee under Wi-Fi (%.0f)\n%s",
			dcnOn, zigOn, tbl)
	}
}

func TestBeaconModeDCNComposes(t *testing.T) {
	res, tbl := BeaconMode(quick())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0].Delivered == 0 || res.Rows[1].Delivered == 0 {
		t.Fatalf("a policy delivered nothing\n%s", tbl)
	}
	if res.Gain <= 0 {
		t.Errorf("DCN gain in slotted mode = %.1f%%, want positive\n%s",
			100*res.Gain, tbl)
	}
}

func TestTSCHNonOrthogonalLanes(t *testing.T) {
	res, tbl := TSCH(quick())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	orth, non := res.Rows[0], res.Rows[1]
	if orth.DeliveredPerS == 0 || non.DeliveredPerS == 0 {
		t.Fatalf("a hop set delivered nothing\n%s", tbl)
	}
	// Six lanes vs four with two oversubscribed: the non-orthogonal set
	// must deliver ~6/4 of the orthogonal rate at ~100% delivery.
	if non.DeliveredPerS <= orth.DeliveredPerS {
		t.Errorf("non-orthogonal %.0f not above orthogonal %.0f\n%s",
			non.DeliveredPerS, orth.DeliveredPerS, tbl)
	}
	if non.DeliveryRatio < 0.95 {
		t.Errorf("non-orthogonal delivery ratio = %.2f, want ≈ 1\n%s", non.DeliveryRatio, tbl)
	}
	if orth.DeliveryRatio > 0.8 {
		t.Errorf("orthogonal oversubscription ratio = %.2f, want collision losses\n%s",
			orth.DeliveryRatio, tbl)
	}
	if res.Gain < 0.3 || res.Gain > 0.7 {
		t.Errorf("gain = %.1f%%, want ≈ 50%%\n%s", 100*res.Gain, tbl)
	}
}

func TestLayoutsDiagrams(t *testing.T) {
	results, tables := Layouts(quick())
	if len(results) != 4 || len(tables) != 4 {
		t.Fatalf("results/tables = %d/%d, want 4/4", len(results), len(tables))
	}
	// Fig 13: 5 networks × (1 sink + 4 senders) = 25 rows at 0 dBm.
	if got := len(results[0].Rows); got != 25 {
		t.Errorf("Fig 13 rows = %d, want 25", got)
	}
	for _, r := range results[0].Rows {
		if r.Power != 0 {
			t.Fatalf("Fig 13 node power = %v, want 0 dBm", r.Power)
		}
	}
	// Cases: 6 networks × 5 nodes = 30 rows, powers within [-22, 0].
	for i := 1; i < 4; i++ {
		if got := len(results[i].Rows); got != 30 {
			t.Errorf("case %d rows = %d, want 30", i, got)
		}
		for _, r := range results[i].Rows {
			if r.Power < -22 || r.Power > 0 {
				t.Fatalf("case %d power = %v outside [-22, 0]", i, r.Power)
			}
		}
	}
}

func TestLPLAdaptiveThresholdSavesEnergy(t *testing.T) {
	res, tbl := LPL(quick())
	naive, adaptive := res.Rows[0], res.Rows[1]
	if naive.Delivered == 0 || adaptive.Delivered != naive.Delivered {
		t.Errorf("delivery changed: naive %d adaptive %d\n%s",
			naive.Delivered, adaptive.Delivered, tbl)
	}
	if naive.FalseWakeupsPerS < 1 {
		t.Errorf("naive false wakeups = %.1f/s, want frequent\n%s",
			naive.FalseWakeupsPerS, tbl)
	}
	if adaptive.FalseWakeupsPerS > 0.2*naive.FalseWakeupsPerS {
		t.Errorf("adaptive false wakeups = %.1f/s, want near zero\n%s",
			adaptive.FalseWakeupsPerS, tbl)
	}
	if res.EnergySavings < 0.3 {
		t.Errorf("energy savings = %.1f%%, want substantial\n%s",
			100*res.EnergySavings, tbl)
	}
}
