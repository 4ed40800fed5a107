package testbed

import (
	"testing"
	"time"

	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// singleNetworkSpec builds one network of nSenders around the origin.
func singleNetworkSpec(t *testing.T, freq phy.MHz, nSenders int) topology.NetworkSpec {
	t.Helper()
	rng := sim.NewRNG(42)
	plan := phy.ChannelPlan{Centers: []phy.MHz{freq}}
	nets, err := topology.Generate(topology.Config{
		Plan:              plan,
		SendersPerNetwork: nSenders,
		Layout:            topology.LayoutColocated,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nets[0]
}

func TestSingleNetworkSaturatedThroughputCalibration(t *testing.T) {
	// Calibration target from DESIGN.md: one isolated channel with 4
	// saturated senders lands in the paper's 250-310 pkt/s range.
	tb := New(Options{Seed: 1})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 4), NetworkConfig{})
	tb.Run(2*time.Second, 10*time.Second)

	got := n.Throughput(tb.MeasuredDuration())
	if got < 240 || got > 330 {
		t.Errorf("single-channel saturated throughput = %.1f pkt/s, want 250-310", got)
	}
	if s := n.Stats(); s.Sent == 0 || s.Received == 0 {
		t.Fatalf("no traffic recorded: %+v", s)
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	tb := New(Options{Seed: 2})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 1), NetworkConfig{})
	tb.Run(time.Second, time.Second)
	oneSec := n.Stats().Received

	tb2 := New(Options{Seed: 2})
	n2 := tb2.AddNetwork(singleNetworkSpec(t, 2460, 1), NetworkConfig{})
	tb2.Run(5*time.Second, time.Second)
	if got := n2.Stats().Received; got > 2*oneSec {
		t.Errorf("longer warmup inflated stats: %d vs %d", got, oneSec)
	}
	if oneSec == 0 {
		t.Fatal("no packets in measurement window")
	}
}

func TestPeriodicSourceRate(t *testing.T) {
	tb := New(Options{Seed: 3})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 1),
		NetworkConfig{Period: 10 * time.Millisecond})
	tb.Run(time.Second, 5*time.Second)
	got := n.Throughput(tb.MeasuredDuration())
	if got < 90 || got > 101 {
		t.Errorf("periodic 100 Hz source delivered %.1f pkt/s, want ≈ 100", got)
	}
}

func TestRunAccumulates(t *testing.T) {
	tb := New(Options{Seed: 4})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 2), NetworkConfig{})
	tb.Run(time.Second, 2*time.Second)
	first := n.Stats().Received
	tb.Run(0, 2*time.Second)
	if tb.MeasuredDuration() != 4*time.Second {
		t.Errorf("MeasuredDuration = %v, want 4s", tb.MeasuredDuration())
	}
	if n.Stats().Received <= first {
		t.Error("second Run did not extend the measurement")
	}
}

func TestDCNNetworkRunsAdjustors(t *testing.T) {
	tb := New(Options{Seed: 5})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 4), NetworkConfig{Scheme: SchemeDCN})
	tb.Run(2*time.Second, 2*time.Second)
	for _, s := range n.Senders {
		if s.Adjustor == nil {
			t.Fatal("DCN sender missing adjustor")
		}
		if got := s.Adjustor.Phase(); got.String() != "updating" {
			t.Errorf("adjustor phase = %v after 4s, want updating", got)
		}
		// The threshold must track the co-channel RSSI neighbourhood
		// (tens of dB above the post-init noise-floor clamp), not stay
		// stuck at the conservative init value.
		if th := s.Radio.CCAThreshold(); th < phy.NoiseFloor+10 {
			t.Errorf("DCN threshold = %v, want tracking co-channel RSSI", th)
		}
	}
	if n.Throughput(tb.MeasuredDuration()) == 0 {
		t.Error("DCN network carried no traffic")
	}
}

func TestNoCarrierSenseSchemeTransmitsBlindly(t *testing.T) {
	tb := New(Options{Seed: 6})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 2), NetworkConfig{Scheme: SchemeNoCarrierSense})
	tb.Run(time.Second, 2*time.Second)
	s := n.Stats()
	if s.Sent == 0 {
		t.Fatal("no-CS network sent nothing")
	}
	// Blind senders collide: some receptions must have overlapped.
	if s.Collided == 0 {
		t.Error("no collisions under disabled carrier sense with 2 saturated senders")
	}
}

func TestTwoOrthogonalNetworksDoNotInterfere(t *testing.T) {
	rng := sim.NewRNG(7)
	plan, err := phy.NewChannelPlan(2458, 15, 15, phy.SpanInclusive) // 2 channels 15 MHz apart
	if err != nil {
		t.Fatal(err)
	}
	nets, err := topology.Generate(topology.Config{Plan: plan, SendersPerNetwork: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tb := New(Options{Seed: 7})
	a := tb.AddNetwork(nets[0], NetworkConfig{})
	b := tb.AddNetwork(nets[1], NetworkConfig{})
	tb.Run(time.Second, 5*time.Second)

	ta := a.Throughput(tb.MeasuredDuration())
	tbp := b.Throughput(tb.MeasuredDuration())
	if ta < 200 || tbp < 200 {
		t.Errorf("orthogonal networks = %.1f / %.1f pkt/s, want both near isolated rate", ta, tbp)
	}
	if got := tb.OverallThroughput(); got < ta || got < tbp {
		t.Errorf("OverallThroughput = %.1f inconsistent with parts", got)
	}
	if per := tb.PerNetworkThroughput(); len(per) != 2 || per[0] != ta || per[1] != tbp {
		t.Errorf("PerNetworkThroughput = %v", per)
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeFixed: "fixed", SchemeDCN: "dcn",
		SchemeNoCarrierSense: "no-cs", Scheme(9): "scheme(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Scheme.String() = %q, want %q", got, want)
		}
	}
}

func TestNetworkLabel(t *testing.T) {
	if NetworkLabel(0) != "N0" || NetworkLabel(5) != "N5" {
		t.Error("NetworkLabel format")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		tb := New(Options{Seed: 99})
		n := tb.AddNetwork(singleNetworkSpec(t, 2460, 4), NetworkConfig{})
		tb.Run(time.Second, 3*time.Second)
		return n.Throughput(tb.MeasuredDuration())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged: %v vs %v", a, b)
	}
}

func TestTraceRecordsEvents(t *testing.T) {
	tb := New(Options{Seed: 8})
	rec := tb.EnableTrace(10000)
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 2), NetworkConfig{Scheme: SchemeDCN})
	tb.Run(2*time.Second, 2*time.Second)

	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	// All senders' transmissions and the sink's receptions must appear.
	var txEnd, rxOK, threshold int
	for _, e := range evs {
		switch e.Kind.String() {
		case "tx-end":
			txEnd++
		case "rx-ok":
			rxOK++
		case "threshold":
			threshold++
		}
	}
	if txEnd == 0 || rxOK == 0 {
		t.Errorf("txEnd=%d rxOK=%d, want both recorded", txEnd, rxOK)
	}
	if threshold == 0 {
		t.Error("DCN threshold changes not traced")
	}
	// Events are time-ordered.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace not chronological")
		}
	}
	_ = n
}

func TestFailureInjectionSenderDies(t *testing.T) {
	// Rate-limited sources (100 Hz each) so per-sender load is visible:
	// with saturated sources a single survivor would just fill the
	// channel alone.
	tb := New(Options{Seed: 9})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 2),
		NetworkConfig{Period: 10 * time.Millisecond})
	tb.Run(time.Second, 2*time.Second)
	before := n.Stats().Received // ≈ 400 over 2 s

	// One of the two senders dies; throughput roughly halves but the
	// network keeps operating.
	n.Senders[0].Radio.SetOff()
	tb.Run(0, 2*time.Second)
	delta := n.Stats().Received - before
	if delta <= 0 {
		t.Fatal("network stalled after one sender died")
	}
	if float64(delta) < 0.4*float64(before) || float64(delta) > 0.65*float64(before) {
		t.Errorf("throughput after losing one of two senders = %d (was %d), want ≈ half", delta, before)
	}

	// The sender comes back; throughput recovers.
	n.Senders[0].Radio.SetOn()
	mid := n.Stats().Received
	tb.Run(0, 2*time.Second)
	recovered := n.Stats().Received - mid
	if float64(recovered) < 0.85*float64(before) {
		t.Errorf("no recovery after power-on: %d then %d", before, recovered)
	}
}

func TestFailureInjectionAdjustorRestart(t *testing.T) {
	tb := New(Options{Seed: 10})
	n := tb.AddNetwork(singleNetworkSpec(t, 2460, 4), NetworkConfig{Scheme: SchemeDCN})
	tb.Run(2*time.Second, time.Second)
	adj := n.Senders[0].Adjustor
	if adj.Phase().String() != "updating" {
		t.Fatalf("phase = %v, want updating", adj.Phase())
	}
	// Node reboots: adjustor re-initializes and converges again.
	adj.Start()
	if adj.Phase().String() != "initializing" {
		t.Fatalf("phase after restart = %v", adj.Phase())
	}
	tb.Run(0, 2*time.Second)
	if adj.Phase().String() != "updating" {
		t.Errorf("phase after re-init = %v, want updating", adj.Phase())
	}
	if th := n.Senders[0].Radio.CCAThreshold(); th < phy.NoiseFloor+10 {
		t.Errorf("threshold after re-init = %v, want re-converged", th)
	}
}

func TestSegmentCountersAddUp(t *testing.T) {
	// Every closed segment is charged exactly once: by the zero-error
	// certificate, by the tiny-BER band or through the exact SINR→BER
	// chain. The cell exercises all three, and the counts are a
	// deterministic function of the seed.
	run := func() radio.SegmentStats {
		tb := benchCell(SchemeDCN)
		tb.Run(2*time.Second, time.Second)
		return tb.SegmentStats()
	}
	s := run()
	if s.Closed != s.CertifiedZero+s.CertifiedTiny+s.Exact {
		t.Fatalf("closed %d != certified zero %d + tiny %d + exact %d",
			s.Closed, s.CertifiedZero, s.CertifiedTiny, s.Exact)
	}
	if s.CertifiedZero == 0 || s.CertifiedTiny == 0 || s.Exact == 0 {
		t.Fatalf("segments %+v: the cell should exercise all three paths", s)
	}
	if again := run(); again != s {
		t.Fatalf("segment counters differ between identical runs: %+v vs %+v", s, again)
	}
	t.Logf("segments %+v: %.1f%% certified zero, %.1f%% tiny", s,
		100*float64(s.CertifiedZero)/float64(s.Closed), 100*float64(s.CertifiedTiny)/float64(s.Closed))
}
