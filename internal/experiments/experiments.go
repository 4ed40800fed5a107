// Package experiments regenerates every table and figure of the paper's
// evaluation. Each FigNN/TableNN function builds the corresponding
// workload on the simulated testbed, runs it (averaging over several
// seeds), and returns both a typed result and a printable table whose rows
// mirror what the paper plots.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"nonortho/internal/medium"
	"nonortho/internal/parallel"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// newCellTestbed builds one cell's testbed with the run's per-cell budget
// applied.
func newCellTestbed(opts Options, o testbed.Options) *testbed.Testbed {
	o.Budget = opts.Budget
	return testbed.New(o)
}

// newCellCore builds a fresh kernel and medium for drivers that assemble
// their networks by hand instead of through the testbed, with the run's
// per-cell budget applied.
func newCellCore(opts Options, seed int64, mopts ...medium.Option) (*sim.Kernel, *medium.Medium) {
	k := sim.NewKernel(seed)
	k.SetBudget(opts.Budget)
	return k, medium.New(k, mopts...)
}

// Options controls experiment execution. The zero value takes defaults
// suitable for regenerating the paper's numbers; benchmarks shrink the
// durations via Quick.
type Options struct {
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Seeds is the number of independent runs averaged (default 3).
	Seeds int
	// Warmup precedes measurement in each run (default 3 s — long enough
	// for the DCN Initializing Phase plus Case II settling).
	Warmup time.Duration
	// Measure is the measurement window per run (default 8 s).
	Measure time.Duration
	// Workers bounds the number of simulation cells run concurrently.
	// Zero means one worker per logical CPU; 1 runs everything inline.
	// Results are independent of the worker count: every cell builds its
	// own kernel, medium and testbed, and all aggregation happens after
	// the join in cell-index order, so output is bit-identical at any
	// setting.
	Workers int
	// Budget bounds each simulation cell's kernel work (fired events
	// and/or virtual time); zero is unlimited. A tripped budget panics
	// the cell with *sim.BudgetError, reported like any cell failure.
	Budget sim.Budget
	// Run, when set, attaches the crash-safety machinery — result store,
	// deterministic retry, keep-going failure collection, cancellation,
	// wall-clock watcher — to every sweep. Nil runs sweeps bare.
	Run *RunControl
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Seeds == 0 {
		o.Seeds = 3
	}
	if o.Warmup == 0 {
		o.Warmup = 3 * time.Second
	}
	if o.Measure == 0 {
		o.Measure = 8 * time.Second
	}
	return o
}

// Quick returns options for fast regression runs (single seed, short
// windows) — used by benchmarks and smoke tests.
func Quick() Options {
	return Options{Seed: 1, Seeds: 1, Warmup: 2 * time.Second, Measure: 3 * time.Second}
}

// workerCount resolves Workers to a concrete pool size.
func (o Options) workerCount() int {
	if o.Workers <= 0 {
		return parallel.DefaultWorkers()
	}
	return o.Workers
}

// runSeeds evaluates run once per seed (opts.Seed+i) across the worker
// pool and returns the results in seed order. run must be self-contained:
// it builds its own kernel/medium/testbed from the seed and touches no
// shared mutable state.
func runSeeds[T any](opts Options, run func(seed int64) T) []T {
	return runEngine(opts, opts.Seeds, func(i int) T {
		return run(opts.Seed + int64(i))
	})
}

// runGrid evaluates run for every (cell, seed) pair of a cells×Seeds grid
// across the worker pool and returns results as [cell][seed], both in
// order. This is the workhorse of the sweep-style drivers: each parameter
// value × seed is an independent simulation.
func runGrid[T any](opts Options, cells int, run func(cell int, seed int64) T) [][]T {
	flat := runEngine(opts, cells*opts.Seeds, func(i int) T {
		return run(i/opts.Seeds, opts.Seed+int64(i%opts.Seeds))
	})
	out := make([][]T, cells)
	for c := 0; c < cells; c++ {
		out[c] = flat[c*opts.Seeds : (c+1)*opts.Seeds]
	}
	return out
}

// runCells evaluates run once per cell with no per-seed fan-out, for
// drivers whose cells iterate seeds internally or have none.
func runCells[T any](opts Options, cells int, run func(cell int) T) []T {
	return runEngine(opts, cells, run)
}

// seedTopos holds one immutable topology snapshot per seed of a run —
// the shared read-only geometry every cell of that seed builds from.
type seedTopos struct {
	base  int64
	snaps []*topology.Snapshot
}

// spatialLossBoundDB is the near-field loss bound every driver-built
// snapshot uses: pairs whose path loss provably reaches it are never
// materialised. The paper's layouts span meters, so their pairs are all
// near-field and the rows hold every pair, while city-scale drivers get
// O(n·k) snapshots from the same code path. 150 dB is ~820 m under the
// default indoor model, and leaves a certified-far transmitter at least 16 dB below the
// lock-on floor (phy.Sensitivity) even with the full
// phy.ReachMarginDB fade allowance.
const spatialLossBoundDB = 150

// snapshotSeeds builds one topology snapshot per seed (Seed..Seed+Seeds-1)
// of cfg, serially before the cells fan out across the worker pool. Each
// snapshot consumes exactly the RNG draws a cell calling
// topology.Generate(cfg, sim.NewRNG(seed)) itself would, so placements are
// bit-identical to per-cell generation; cells sharing a (cfg, seed) then
// share one set of placements and one set of precomputed path losses
// instead of regenerating both.
func snapshotSeeds(opts Options, cfg topology.Config) seedTopos {
	st := seedTopos{base: opts.Seed, snaps: make([]*topology.Snapshot, opts.Seeds)}
	for i := range st.snaps {
		snap, err := topology.NewSnapshotNear(cfg, sim.NewRNG(opts.Seed+int64(i)), nil, spatialLossBoundDB)
		if err != nil {
			panic(err) // driver configurations are static; cannot fail
		}
		st.snaps[i] = snap
	}
	return st
}

// handPlacedSnap captures a fixed hand-placed layout at the drivers' loss
// bound. These layouts span meters, so every pair is stored.
func handPlacedSnap(nets []topology.NetworkSpec) *topology.Snapshot {
	snap, err := topology.SnapshotFromSpecsNear(nets, nil, spatialLossBoundDB)
	if err != nil {
		panic(err) // the default model inverts and the bound is positive; cannot fail
	}
	return snap
}

// at returns the snapshot for one seed of the run.
func (st seedTopos) at(seed int64) *topology.Snapshot {
	return st.snaps[seed-st.base]
}

// Table is a printable experiment result.
type Table struct {
	// Title identifies the figure or table being regenerated.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	line := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		line[i] = pad(c, widths[i])
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(line, "  "))
	for i := range line {
		line[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(line, "  "))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			cells[i] = pad(cell, width)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(cells, "  "))
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f0, f1 and f2 format floats with 0/1/2 decimals for table cells.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// sum totals a slice.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanRows averages per-seed vectors element-wise; ragged inputs use the
// shortest length.
func meanRows(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	n := len(rows[0])
	for _, r := range rows {
		if len(r) < n {
			n = len(r)
		}
	}
	out := make([]float64, n)
	for _, r := range rows {
		for i := 0; i < n; i++ {
			out[i] += r[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(rows))
	}
	return out
}

// evalPlan builds the N-channel plan the evaluation uses: centers spaced
// cfd apart starting at 2458 MHz.
func evalPlan(n int, cfd phy.MHz) phy.ChannelPlan {
	centers := make([]phy.MHz, n)
	for i := range centers {
		centers[i] = 2458 + phy.MHz(i)*cfd
	}
	return phy.ChannelPlan{Start: 2458, Bandwidth: phy.MHz(n-1) * cfd, CFD: cfd, Centers: centers}
}
