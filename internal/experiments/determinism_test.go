package experiments

import (
	"fmt"
	"testing"
	"time"
)

// Worker-count independence: every experiment's rendered table must be
// byte-identical no matter how many workers run the grid. Each cell owns
// its kernel, medium, and RNG streams, and the drivers aggregate in
// cell-index order after the join, so the schedule of workers must not be
// observable in the output.
func determinismOpts(seed int64) Options {
	return Options{
		Seed:    seed,
		Seeds:   3,
		Warmup:  1 * time.Second,
		Measure: 1 * time.Second,
	}
}

// assertWorkerInvariant also checks each seed's Workers=1 table against
// the committed golden manifest (golden_test.go), after every seed's
// worker comparison has run.
func assertWorkerInvariant(t *testing.T, name string, run func(Options) string) {
	t.Helper()
	seeds := []int64{1, 7, 42}
	serialOut := make([]string, len(seeds))
	for i, seed := range seeds {
		serial := determinismOpts(seed)
		serial.Workers = 1
		fanned := determinismOpts(seed)
		fanned.Workers = 8
		got1 := run(serial)
		got8 := run(fanned)
		if got1 != got8 {
			t.Errorf("%s seed %d: Workers=1 and Workers=8 outputs differ\n--- Workers=1 ---\n%s\n--- Workers=8 ---\n%s",
				name, seed, got1, got8)
		}
		serialOut[i] = got1
	}
	for i, seed := range seeds {
		checkGolden(t, fmt.Sprintf("%s/seed=%d", name, seed), serialOut[i])
	}
}

func TestFig19WorkerCountInvariant(t *testing.T) {
	assertWorkerInvariant(t, "Fig19", func(o Options) string {
		_, tbl := Fig19(o)
		return tbl.String()
	})
}

func TestFig16WorkerCountInvariant(t *testing.T) {
	assertWorkerInvariant(t, "Fig16", func(o Options) string {
		_, tbl := Fig16(o)
		return tbl.String()
	})
}

func TestFaultEvalWorkerCountInvariant(t *testing.T) {
	assertWorkerInvariant(t, "FaultEval", func(o Options) string {
		_, tbl := FaultEval(o)
		return tbl.String()
	})
}

func TestTableIWorkerCountInvariant(t *testing.T) {
	assertWorkerInvariant(t, "TableI", func(o Options) string {
		_, tbl := TableI(o)
		return tbl.String()
	})
}

func TestCoexistenceWorkerCountInvariant(t *testing.T) {
	assertWorkerInvariant(t, "Coexistence", func(o Options) string {
		_, tbl := Coexistence(o)
		return tbl.String()
	})
}

// TestGoldenTablesWorkerInvariant renders 17 golden experiment tables —
// the motivation, CCA-study, DCN-evaluation, headline and extension
// figures the report is built from — at Workers=1 and Workers=8 and
// requires byte-identical output. Every cell builds its own kernel,
// medium and radios, and the dissemination layer runs in its default
// auto mode, so this is the PR-level assertion that neither the filter's
// engagement decision nor the worker schedule can move a single byte of
// any table. The Workers=1 bytes are additionally checked against the
// committed golden manifest, so a change that moves every worker count
// alike fails too.
func TestGoldenTablesWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 17 tables twice; skipped in -short")
	}
	if raceEnabled {
		t.Skip("minutes under the race detector; the per-figure worker-invariance tests cover the parallel paths under race")
	}
	tables := goldenTables()
	if len(tables) != 17 {
		t.Fatalf("expected 17 golden tables, have %d", len(tables))
	}
	for _, tc := range tables {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got1 := tc.run(goldenOpts(1))
			got8 := tc.run(goldenOpts(8))
			if got1 != got8 {
				t.Errorf("%s: Workers=1 and Workers=8 tables differ\n--- Workers=1 ---\n%s\n--- Workers=8 ---\n%s",
					tc.name, got1, got8)
			}
			checkGolden(t, "golden/"+tc.name, got1)
		})
	}
}

// goldenOpts are the short windows the golden-table suites run with.
func goldenOpts(workers int) Options {
	return Options{
		Seed: 1, Seeds: 2,
		Warmup:  time.Second,
		Measure: 500 * time.Millisecond,
		Workers: workers,
	}
}

// goldenTable names one renderable golden table.
type goldenTable struct {
	name string
	run  func(Options) string
}

// goldenTables lists the 17 golden experiment tables shared by the
// worker-invariance and crash/resume identity suites.
func goldenTables() []goldenTable {
	return []goldenTable{
		{"Fig1", func(o Options) string { _, tbl := Fig1(o); return tbl.String() }},
		{"Fig2", func(o Options) string { _, tbl := Fig2(o); return tbl.String() }},
		{"Fig4", func(o Options) string { _, tbl := Fig4(o); return tbl.String() }},
		{"Fig6", func(o Options) string { _, tbl := Fig6(o); return tbl.String() }},
		{"Fig7", func(o Options) string { _, tbl := Fig7(o); return tbl.String() }},
		{"Fig14and15", func(o Options) string { _, t14, t15 := Fig14and15(o); return t14.String() + t15.String() }},
		{"Fig16", func(o Options) string { _, tbl := Fig16(o); return tbl.String() }},
		{"Fig17", func(o Options) string { _, tbl := Fig17(o); return tbl.String() }},
		{"Fig18", func(o Options) string { _, tbl := Fig18(o); return tbl.String() }},
		{"Fig19", func(o Options) string { _, tbl := Fig19(o); return tbl.String() }},
		{"Fig20and21", func(o Options) string { _, t20, t21 := Fig20and21(o); return t20.String() + t21.String() }},
		{"TableI", func(o Options) string { _, tbl := TableI(o); return tbl.String() }},
		{"Fig25", func(o Options) string { _, tbl := Fig25(o); return tbl.String() }},
		{"Fig26", func(o Options) string { _, tbl := Fig26(o); return tbl.String() }},
		{"Fig28", func(o Options) string { _, tbl := Fig28(o); return tbl.String() }},
		{"Fig30", func(o Options) string { _, tbl := Fig30(o); return tbl.String() }},
		{"BandSweep", func(o Options) string { _, tbl := BandSweep(o); return tbl.String() }},
	}
}

// BenchmarkFig19 measures the headline comparison end to end. Run it at
// contrasting worker counts to see the parallel engine's speedup:
//
//	go test ./internal/experiments -bench=Fig19 -benchtime=3x
func BenchmarkFig19(b *testing.B) {
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			opts := determinismOpts(1)
			opts.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Fig19(opts)
			}
		}
	}
	b.Run("workers=1", bench(1))
	b.Run("workers=4", bench(4))
}
