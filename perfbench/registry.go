package main

import (
	"fmt"
	"regexp"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps
// the two in step. Moves records, before any change is measured, which
// end-to-end metric on which workload the metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd metrics are measured with tracing off.
var endToEnd = []metricDef{
	{Name: "sim_s_per_wall_s", Unit: "s/s", Better: "higher", Bound: 0.2, Layer: "all",
		Moves: "virtual seconds simulated (warmup included) per wall second: median over cells, or over sweeps of the sweep's summed cell time"},
	{Name: "slice_ms_p50", Unit: "ms", Better: "lower", Bound: 0.2, Layer: "all",
		Moves: "wall ms per measured slice: 250 ms virtual on paper-dcn, one 500 ms traffic period on city-1k, one regenerated figure on fig19-sweep"},
	{Name: "slice_ms_p90", Unit: "ms", Better: "lower", Bound: 0.2, Layer: "all",
		Moves: "tail of the same slices; the sample count is printed beside it"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "topology+testbed",
		Moves: "generated inputs to first simulated event, median over operations: snapshot plus testbed build per cell; call to first CellStarted per sweep"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.1, Layer: "all",
		Moves: "live heap after a forced GC outside the timed region, median over operations: per cell the larger of after setup and at its end; per sweep after it returns"},
}

// perLayer metrics come from the traced run (--trace 1).
var perLayer = []metricDef{
	{Name: "sim.events_per_sim_s", Unit: "events/sim_s", Better: "lower", Layer: "sim",
		Moves: "sim_s_per_wall_s on paper-dcn (about 19k events per simulated second); not city-1k, where the medium dominates"},
	{Name: "sim.wall_ns_per_event", Unit: "ns", Better: "lower", Layer: "sim",
		Moves: "sim_s_per_wall_s on every workload: wall time of measured slices over events fired"},
	{Name: "sim.pending_p50", Unit: "count", Better: "lower", Layer: "sim",
		Moves: "event-queue depth at slice edges; heap cost per event on paper-dcn"},
	{Name: "sim.cpu_share", Unit: "fraction", Better: "lower", Layer: "sim",
		Moves: "sim_s_per_wall_s on paper-dcn"},
	{Name: "medium.tx_per_sim_s", Unit: "tx/sim_s", Better: "higher", Layer: "medium",
		Moves: "model behaviour (fan-out events / 2); a pure speed-up leaves it unchanged"},
	{Name: "medium.callbacks_per_tx", Unit: "count", Better: "lower", Layer: "medium",
		Moves: "sim_s_per_wall_s and slice_ms_p90 on city-1k (interest index live); fixed at the listener count on paper-dcn"},
	{Name: "medium.active_p50", Unit: "count", Better: "lower", Layer: "medium",
		Moves: "transmissions on the air at slice edges; sets the cost of every power sum"},
	{Name: "medium.cpu_share", Unit: "fraction", Better: "lower", Layer: "medium",
		Moves: "sim_s_per_wall_s and slice_ms_p90 on city-1k; spatial-path changes leave paper-dcn unchanged"},
	{Name: "radio.rx_per_sim_s", Unit: "rx/sim_s", Better: "higher", Layer: "radio",
		Moves: "model behaviour: receptions closed by every radio; each closes BER segments"},
	{Name: "radio.rx_crc_fail_frac", Unit: "fraction", Better: "lower", Layer: "radio",
		Moves: "model behaviour; a pure speed-up leaves it unchanged"},
	{Name: "radio.rx_collided_frac", Unit: "fraction", Better: "lower", Layer: "radio",
		Moves: "model behaviour; a pure speed-up leaves it unchanged"},
	{Name: "radio.cpu_share", Unit: "fraction", Better: "lower", Layer: "radio",
		Moves: "sim_s_per_wall_s and slice_ms_p50 on paper-dcn; a BER-only change leaves city-1k unchanged"},
	{Name: "phy.cpu_share", Unit: "fraction", Better: "lower", Layer: "phy",
		Moves: "sim_s_per_wall_s and slice_ms_p50 on paper-dcn (math Exp/Log/Pow count to their phy or radio caller)"},
	{Name: "mac.cca_per_sim_s", Unit: "cca/sim_s", Better: "lower", Layer: "mac",
		Moves: "model behaviour: CCA samples, each a sensed-power sum in the medium"},
	{Name: "mac.cca_busy_frac", Unit: "fraction", Better: "lower", Layer: "mac",
		Moves: "model behaviour; DCN lowers it on paper-dcn"},
	{Name: "mac.access_fail_frac", Unit: "fraction", Better: "lower", Layer: "mac",
		Moves: "model behaviour: CSMA drops over channel-access attempts"},
	{Name: "mac.cpu_share", Unit: "fraction", Better: "lower", Layer: "mac",
		Moves: "sim_s_per_wall_s on paper-dcn"},
	{Name: "dcn.threshold_writes_per_sim_s", Unit: "writes/sim_s", Better: "lower", Layer: "dcn",
		Moves: "model behaviour; sets radio.rx_per_sim_s and medium.active_p50 on paper-dcn and fig19-sweep; zero on city-1k"},
	{Name: "dcn.recoveries", Unit: "count", Better: "lower", Layer: "dcn",
		Moves: "watchdog re-initialisations per cell; zero on city-1k"},
	{Name: "dcn.cpu_share", Unit: "fraction", Better: "lower", Layer: "dcn",
		Moves: "sim_s_per_wall_s on paper-dcn and fig19-sweep; zero on city-1k"},
	{Name: "topology.snapshot_s", Unit: "s", Better: "lower", Layer: "topology",
		Moves: "setup_s and live_heap_mb on city-1k; about 1.5 ms on paper-dcn"},
	{Name: "topology.near_pair_frac", Unit: "fraction", Better: "lower", Layer: "topology",
		Moves: "setup_s and live_heap_mb on city-1k (NearPairs / n^2); 1 on paper-dcn"},
	{Name: "testbed.build_s", Unit: "s", Better: "lower", Layer: "testbed",
		Moves: "setup_s on the cell workloads (New + AddNetwork)"},
	{Name: "testbed.warmup_s", Unit: "s", Better: "lower", Layer: "testbed",
		Moves: "sim_s_per_wall_s; covers the DCN Initializing Phase on paper-dcn"},
	{Name: "experiments.pre_fanout_s", Unit: "s", Better: "lower", Layer: "experiments",
		Moves: "setup_s on fig19-sweep (serial snapshot builds); absent (0) on the cell workloads"},
	{Name: "experiments.post_join_s", Unit: "s", Better: "lower", Layer: "experiments",
		Moves: "slice_ms_p50 on fig19-sweep; absent (0) on the cell workloads"},
	{Name: "parallel.cell_s_p50", Unit: "s", Better: "lower", Layer: "parallel",
		Moves: "sim_s_per_wall_s on fig19-sweep; absent (0) on the cell workloads"},
	{Name: "parallel.cell_s_max", Unit: "s", Better: "lower", Layer: "parallel",
		Moves: "slice_ms_p50 on fig19-sweep: the slowest cell sets the join; absent (0) on the cell workloads"},
	{Name: "parallel.worker_idle_frac", Unit: "fraction", Better: "lower", Layer: "parallel",
		Moves: "sim_s_per_wall_s on fig19-sweep (6 cells on 2 workers); absent (0) on the cell workloads"},
	{Name: "runtime.alloc_mb_per_sim_s", Unit: "MiB/sim_s", Better: "lower", Layer: "runtime",
		Moves: "slice_ms_p90 and live_heap_mb on every workload"},
	{Name: "runtime.allocs_per_sim_s", Unit: "allocs/sim_s", Better: "lower", Layer: "runtime",
		Moves: "slice_ms_p90 and live_heap_mb on every workload"},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower", Layer: "runtime",
		Moves: "slice_ms_p90 on every workload"},
	{Name: "runtime.cpu_share", Unit: "fraction", Better: "lower", Layer: "runtime",
		Moves: "slice_ms_p90 on every workload: samples with no frame of the module (GC workers, scheduler)"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Layer: "bench",
		Moves: "none: untraced over traced sim_s_per_wall_s, minus 1, within the traced run"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks metric names and units against the benchmark
// format's limits: well-formed, unique names, a known direction, and an
// end-to-end bound in (0, 0.25].
func validateDefs(e2e, layer []metricDef) error {
	seen := map[string]bool{}
	for i, d := range append(append([]metricDef(nil), e2e...), layer...) {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric %q: malformed name", d.Name)
		case seen[d.Name]:
			return fmt.Errorf("metric %q: declared twice", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %q: malformed unit %q", d.Name, d.Unit)
		case d.Better != "higher" && d.Better != "lower":
			return fmt.Errorf("metric %q: direction %q is neither higher nor lower", d.Name, d.Better)
		case i < len(e2e) && !(d.Bound > 0 && d.Bound <= 0.25):
			return fmt.Errorf("metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	return nil
}
