package main

import (
	"fmt"
	"math"
	"time"

	"nonortho/internal/experiments"
	"nonortho/internal/testbed"
)

// The fig19-sweep workload regenerates Fig. 19 with the paper defaults
// (3 seeds, 3 s warmup, 8 s measurement) on 2 workers: the number a user
// who regenerates a figure waits for.
const (
	sweepWorkers = 2
	sweepSeeds   = 3
	sweepCells   = 2 * sweepSeeds // ZigBee and DCN design per seed
	// sweepCellSimS is each cell's virtual time, warmup included.
	sweepCellSimS = 11.0
)

// fig19Band is the improvement band TestFig19HeadlineImprovement holds
// Fig. 19 to: the paper reports +58% and 38.4-55.7% across
// configurations.
var fig19Band = [2]float64{0.30, 0.75}

// fig19Ref is the Fig. 19 outcome recorded for seed 1 (pkt/s).
var fig19Ref = struct {
	seed        int64
	dcn, zigbee float64
}{1, 1494, 997.4583333333334}

// sweepRecord is what one sweep measured.
type sweepRecord struct {
	wallS  float64
	timing sweepTiming
	// heapMB is the live heap after the sweep returned, read after a
	// forced GC outside the timed region: the arena's pooled cores.
	heapMB float64
}

type sweepPass struct {
	sweeps []sweepRecord // untraced
	traced []sweepRecord // traced twins, in a traced run
	// pairWall sums the wall seconds of the pairs whose two sweeps both
	// passed: untraced, traced.
	pairWall  [2]float64
	attempted int
	failures  []string
	last      experiments.Fig19Result
}

// runSweeps regenerates Fig. 19 until budget is spent (at least once).
// Traced, each sweep runs twice, untraced and then with spans, so the
// tracing overhead compares identical work; neither twin reads the heap.
func runSweeps(seed int64, budget time.Duration, tr *tracer) *sweepPass {
	p := &sweepPass{}
	off := newTracer(false)
	readHeap := !tr.on
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		rec, ok := p.add(&p.sweeps, seed, i, off, readHeap)
		if tr.on {
			twin, tok := p.add(&p.traced, seed, i, tr, false)
			if ok && tok {
				p.pairWall[0] += rec.wallS
				p.pairWall[1] += twin.wallS
			}
		}
	}
	return p
}

func (p *sweepPass) add(to *[]sweepRecord, seed int64, op int, tr *tracer, readHeap bool) (sweepRecord, bool) {
	rec, res, failed, err := runSweep(seed, op, tr, readHeap)
	p.attempted += sweepCells
	if err != nil {
		for j := 0; j < failed; j++ {
			p.failures = append(p.failures, err.Error())
		}
		return rec, false
	}
	*to = append(*to, rec)
	p.last = res
	return rec, true
}

// runSweep regenerates Fig. 19 once, watching its cells. Cell failures
// (panics, tripped budgets) are collected by keep-going rather than
// aborting; failed is the number of cells the sweep's error covers.
func runSweep(seed int64, op int, tr *tracer, readHeap bool) (rec sweepRecord, res experiments.Fig19Result, failed int, err error) {
	w := newCellWatcher()
	rc := &experiments.RunControl{Watch: w, KeepGoing: true}
	root := tr.begin("sweep", 0, op)
	call := time.Now()
	res, err = fig19(experiments.Options{Seed: seed, Workers: sweepWorkers, Run: rc})
	ret := time.Now()
	tr.end(root)
	cells := w.intervals()
	rec.wallS = ret.Sub(call).Seconds()
	rec.timing = summarizeSweep(call, ret, cells, sweepWorkers)
	if readHeap {
		rec.heapMB = liveHeapMB()
	}
	if len(cells) > 0 {
		tr.add("experiments.pre_fanout", root, op, call, call.Add(rec.timing.preFanout))
		tr.add("experiments.post_join", root, op, ret.Add(-rec.timing.postJoin), ret)
	}
	for _, c := range cells {
		tr.add(fmt.Sprintf("parallel.cell.%d", c.cell), root, op, c.start, c.end)
	}
	if err != nil {
		return rec, res, sweepCells, err
	}
	if n := experiments.FailedCells(rc.TakeFailures()); n > 0 {
		return rec, res, n, fmt.Errorf("sweep seed %d: %d of %d cells failed", seed, n, sweepCells)
	}
	if err := checkFig19(res, seed); err != nil {
		return rec, res, sweepCells, err
	}
	return rec, res, 0, nil
}

func fig19(opts experiments.Options) (res experiments.Fig19Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep seed %d: panic: %v", opts.Seed, r)
		}
	}()
	res, _ = experiments.Fig19(opts)
	return res, nil
}

// checkFig19 verifies a sweep's output: both designs have their channel
// count, every network delivers, the improvement lies in the band, and
// the recorded seed reproduces its reference totals.
func checkFig19(res experiments.Fig19Result, seed int64) error {
	if len(res.ZigBeePerNetwork) != 4 || len(res.DCNPerNetwork) != 6 {
		return fmt.Errorf("sweep seed %d: %d/%d networks, want 4/6", seed, len(res.ZigBeePerNetwork), len(res.DCNPerNetwork))
	}
	for i, v := range append(append([]float64(nil), res.ZigBeePerNetwork...), res.DCNPerNetwork...) {
		if !(v > 0) {
			return fmt.Errorf("sweep seed %d: network %d delivered %.1f pkt/s", seed, i, v)
		}
	}
	if res.Improvement < fig19Band[0] || res.Improvement > fig19Band[1] {
		return fmt.Errorf("sweep seed %d: improvement %.1f%% outside %.0f-%.0f%%", seed,
			100*res.Improvement, 100*fig19Band[0], 100*fig19Band[1])
	}
	if seed == fig19Ref.seed {
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"DCN", res.DCNTotal, fig19Ref.dcn}, {"ZigBee", res.ZigBeeTotal, fig19Ref.zigbee}} {
			if math.Abs(c.got/c.want-1) > referenceTolerance {
				return fmt.Errorf("sweep seed %d: %s total %.3f pkt/s, reference %.3f (tolerance %.0f%%)",
					seed, c.name, c.got, c.want, 100*referenceTolerance)
			}
		}
	}
	return nil
}

// sweepMetrics reduces sweeps to the end-to-end metrics. A sweep's slice
// is the whole regenerated figure.
func sweepMetrics(sweeps []sweepRecord) (map[string]float64, map[string]int) {
	var rate, wallMS, setup, heap []float64
	for _, s := range sweeps {
		heap = append(heap, s.heapMB)
		rate = append(rate, sweepCells*sweepCellSimS/s.wallS)
		wallMS = append(wallMS, s.wallS*1e3)
		setup = append(setup, s.timing.preFanout.Seconds())
	}
	return map[string]float64{
			"sim_s_per_wall_s": median(rate),
			"slice_ms_p50":     quantile(wallMS, 0.5),
			"slice_ms_p90":     quantile(wallMS, 0.9),
			"setup_s":          median(setup),
			"live_heap_mb":     median(heap),
		}, map[string]int{
			"sim_s_per_wall_s": len(rate),
			"slice_ms_p50":     len(wallMS),
			"slice_ms_p90":     len(wallMS),
			"setup_s":          len(setup),
			"live_heap_mb":     len(heap),
		}
}

// harnessMetrics reduces the watcher records of sweeps to the
// experiments and parallel layer metrics.
func harnessMetrics(sweeps []sweepRecord) map[string]float64 {
	var pre, post, cells, maxes, idle []float64
	for _, s := range sweeps {
		pre = append(pre, s.timing.preFanout.Seconds())
		post = append(post, s.timing.postJoin.Seconds())
		cells = append(cells, s.timing.cellSecs...)
		mx := 0.0
		for _, c := range s.timing.cellSecs {
			mx = math.Max(mx, c)
		}
		maxes = append(maxes, mx)
		idle = append(idle, s.timing.idleFrac)
	}
	return map[string]float64{
		"experiments.pre_fanout_s":  median(pre),
		"experiments.post_join_s":   median(post),
		"parallel.cell_s_p50":       median(cells),
		"parallel.cell_s_max":       median(maxes),
		"parallel.worker_idle_frac": median(idle),
	}
}

// replayFig19 runs the cells of one Fig. 19 sweep by hand, instrumented,
// to read the counters the sweep does not expose. Every replayed cell is
// checked like a paper-dcn cell, and the per-network means must equal
// the sweep's own result: the benchmark's cell is the figure's cell.
func replayFig19(seed int64, want experiments.Fig19Result, tr *tracer, lt *layerTotals) (cells []cellRecord, failures []string) {
	if seed == 0 {
		seed = 1 // experiments.Options takes seed 0 as its default, 1
	}
	designs := []struct {
		w    cellWorkload
		want []float64
	}{
		{paperCell(5, testbed.SchemeFixed, nil), want.ZigBeePerNetwork},
		{paperCell(3, testbed.SchemeDCN, nil), want.DCNPerNetwork},
	}
	for d, design := range designs {
		var total []float64
		for i := 0; i < sweepSeeds; i++ {
			rec, tb, err := design.w.runCell(seed+int64(i), 100+d*sweepSeeds+i, tr, lt, false)
			if err != nil {
				failures = append(failures, "replay: "+err.Error())
				continue
			}
			cells = append(cells, rec)
			per := tb.PerNetworkThroughput()
			if total == nil {
				total = make([]float64, len(per))
			}
			for k, v := range per {
				total[k] += v
			}
		}
		for k := range total {
			if len(total) != len(design.want) || total[k]/sweepSeeds != design.want[k] {
				failures = append(failures, fmt.Sprintf("replay: design %d per-network goodput sums %v differ from the sweep's means %v", d, total, design.want))
				break
			}
		}
	}
	return cells, failures
}
