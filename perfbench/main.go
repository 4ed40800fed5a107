// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the simulator through its public packages, checks every
// operation's output, and prints each metric with its unit; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 20, "failed": 0, "metrics": {"setup_s": {"value": 0.0016, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-dcn --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced (CPU profile, spans, counters read at
// slice edges), and reports the per-layer metrics and the tracing
// overhead. README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var workloads = []string{"paper-dcn", "city-1k", "fig19-sweep"}

// result is one run's outcome.
type result struct {
	attempted int
	failures  []string
	values    map[string]float64
	counts    map[string]int // samples behind a value, where it is a statistic
	spans     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-dcn, city-1k or fig19-sweep")
	seed := fs.Int64("seed", 1, "input seed; operation i of a run uses seed+i")
	seconds := fs.Float64("seconds", 30, "wall-clock seconds to measure for")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench-trace"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := validateDefs(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1
	tr := newTracer(traced)

	var r *result
	var err error
	switch *workload {
	case "paper-dcn":
		r, err = runCellWorkload(paperDCN, *seed, budget, traced, tr)
	case "city-1k":
		r, err = runCellWorkload(city1k, *seed, budget, traced, tr)
	case "fig19-sweep":
		r, err = runSweepWorkload(*seed, budget, traced, tr)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.spans, err = tr.write(*traceDir, *workload, *seed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := report(stdout, stderr, *workload, *seed, r, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runCellWorkload measures a cell workload. The traced run spends the
// budget on pairs of identical cells, one untraced and one traced.
func runCellWorkload(w cellWorkload, seed int64, budget time.Duration, traced bool, tr *tracer) (*result, error) {
	if !traced {
		p := w.runPass(seed, budget, tr, nil)
		values, counts := cellMetrics(p.cells)
		return &result{attempted: p.attempted, failures: p.failures, values: values, counts: counts}, nil
	}
	lt := &layerTotals{}
	var p *cellPass
	values, counts, err := tracedSection(func() float64 {
		p = w.runPass(seed, budget, tr, lt)
		return simSeconds(p.cells) + simSeconds(p.traced)
	})
	if err != nil {
		return nil, err
	}
	addLayerMetrics(values, counts, lt, p.traced)
	values["trace.overhead_frac"] = ratio(p.pairWall[1], p.pairWall[0]) - 1
	return &result{attempted: p.attempted, failures: p.failures, values: values, counts: counts}, nil
}

// runSweepWorkload measures the Fig. 19 sweep. The traced run spends the
// budget on pairs of identical sweeps, one untraced and one traced, then
// replays one sweep's cells by hand to read the layer counters the sweep
// does not expose.
func runSweepWorkload(seed int64, budget time.Duration, traced bool, tr *tracer) (*result, error) {
	if !traced {
		p := runSweeps(seed, budget, tr)
		values, counts := sweepMetrics(p.sweeps)
		return &result{attempted: p.attempted, failures: p.failures, values: values, counts: counts}, nil
	}
	var p *sweepPass
	values, counts, err := tracedSection(func() float64 {
		p = runSweeps(seed, budget, tr)
		return float64(len(p.sweeps)+len(p.traced)) * sweepCells * sweepCellSimS
	})
	if err != nil {
		return nil, err
	}
	for k, v := range harnessMetrics(p.traced) {
		values[k] = v
	}
	lt := &layerTotals{}
	cells, replayFailures := replayFig19(seed, p.last, tr, lt)
	addLayerMetrics(values, counts, lt, cells)
	values["trace.overhead_frac"] = ratio(p.pairWall[1], p.pairWall[0]) - 1
	return &result{
		attempted: p.attempted + sweepCells,
		failures:  append(p.failures, replayFailures...),
		values:    values,
		counts:    counts,
	}, nil
}

// addLayerMetrics adds the counter metrics and the topology and testbed
// set-up timings of traced cells, and the number of samples behind the
// sampled statistics.
func addLayerMetrics(values map[string]float64, counts map[string]int, lt *layerTotals, cells []cellRecord) {
	for k, v := range lt.metrics() {
		values[k] = v
	}
	counts["sim.pending_p50"] = len(lt.pending)
	counts["medium.active_p50"] = len(lt.active)
	var snap, build, warm, near []float64
	for _, c := range cells {
		snap = append(snap, c.snapshotS)
		build = append(build, c.buildS)
		warm = append(warm, c.warmupS)
		near = append(near, c.nearFrac)
	}
	values["topology.snapshot_s"] = median(snap)
	values["topology.near_pair_frac"] = mean(near)
	values["testbed.build_s"] = median(build)
	values["testbed.warmup_s"] = median(warm)
}

// profileHz is the CPU profile's sampling rate in the traced run, five
// times runtime/pprof's default, so that a layer with a 1% share rests on
// hundreds of samples rather than tens.
const profileHz = 500

// tracedSection runs body under a CPU profile and reports the layers' CPU
// shares, with the number of samples behind them, and the runtime's
// allocation and GC figures for it. body returns the virtual seconds it
// simulated.
func tracedSection(body func() float64) (map[string]float64, map[string]int, error) {
	var prof bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a one-line warning that it cannot change the rate again.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	before := readRuntime()
	simS := body()
	after := readRuntime()
	pprof.StopCPUProfile()
	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	values := map[string]float64{
		"runtime.alloc_mb_per_sim_s": ratio(float64(after.allocBytes-before.allocBytes)/(1<<20), simS),
		"runtime.allocs_per_sim_s":   ratio(float64(after.mallocs-before.mallocs), simS),
		"runtime.gc_cpu_frac":        ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
	}
	counts := map[string]int{}
	for _, layer := range []string{"sim", "medium", "radio", "phy", "mac", "dcn", runtimeLayer} {
		values[layer+".cpu_share"] = shares[layer]
		counts[layer+".cpu_share"] = int(samples)
	}
	return values, counts, nil
}

type runtimeCounters struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	rc := runtimeCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU, rc.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rc
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one human-readable line per metric and then the JSON
// result line.
func report(stdout, stderr io.Writer, workload string, seed int64, r *result, defs []metricDef) error {
	fmt.Fprintf(stdout, "perfbench %s seed=%d: %d operations, %d failed\n", workload, seed, r.attempted, len(r.failures))
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s not measured in this run; reported as 0\n", d.Name)
			v = 0
		}
		out[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-32s %14.6g %-13s", d.Name, v, d.Unit)
		if n, ok := r.counts[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
			if d.Name == "slice_ms_p90" {
				if p, beyond, ok := tailPercentile(n); ok {
					line += fmt.Sprintf(" (highest percentile with >=%d samples beyond: p%g, %d beyond)", minBeyond, p, beyond)
				} else {
					line += fmt.Sprintf(" (fewer than %d samples beyond any percentile)", minBeyond)
				}
			}
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "  %-32s %14.6g %-13s %d of %d operations\n", "failed_frac",
		ratio(float64(len(r.failures)), float64(r.attempted)), "fraction", len(r.failures), r.attempted)
	if r.spans != "" {
		fmt.Fprintln(stdout, "  spans written to", r.spans)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, len(r.failures), out})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
