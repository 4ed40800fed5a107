package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: nonortho/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelScheduleCancel-8   	 2000000	       150.3 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	nonortho/internal/sim	0.5s
pkg: nonortho/internal/medium
BenchmarkSensedPowerDense-8       	21474836	        53.75 ns/op	       3 B/op	       0 allocs/op
PASS
`
	var rep Report
	if err := parseInto(&rep, bytes.NewBufferString(out)); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	k := rep.Benchmarks[0]
	if k.Package != "nonortho/internal/sim" || k.Name != "BenchmarkKernelScheduleCancel-8" {
		t.Fatalf("first benchmark = %q in %q", k.Name, k.Package)
	}
	if k.Iterations != 2000000 || k.Metrics["ns/op"] != 150.3 || k.Metrics["allocs/op"] != 0 {
		t.Fatalf("first benchmark parsed as %+v", k)
	}
	m := rep.Benchmarks[1]
	if m.Package != "nonortho/internal/medium" || m.Metrics["ns/op"] != 53.75 {
		t.Fatalf("second benchmark parsed as %+v", m)
	}
	if rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", rep.CPU)
	}
}

func TestParseBenchLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX notanumber 5 ns/op",
		"BenchmarkX 10 bad ns/op",
		"BenchmarkX 10 5", // odd pair
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) accepted malformed line", line)
		}
	}
}

func benchResult(pkg, name string, ns float64) Benchmark {
	return Benchmark{Package: pkg, Name: name, Metrics: map[string]float64{"ns/op": ns}}
}

func TestCompareReports(t *testing.T) {
	old := Report{Benchmarks: []Benchmark{
		benchResult("p", "BenchmarkA-8", 100),
		benchResult("p", "BenchmarkB", 50),
		benchResult("p", "BenchmarkOldOnly", 10),
	}}
	cur := Report{Benchmarks: []Benchmark{
		benchResult("p", "BenchmarkA-4", 115), // +15%: inside threshold, suffix differs
		benchResult("p", "BenchmarkB", 75),    // +50%: regression
		benchResult("p", "BenchmarkNewOnly", 10),
	}}
	shared, regs := compareReports(old, cur, 0.20)
	if shared != 2 {
		t.Fatalf("shared = %d, want 2", shared)
	}
	if len(regs) != 1 || regs[0].key != "p.BenchmarkB" {
		t.Fatalf("regressions = %+v, want only p.BenchmarkB", regs)
	}
	// A looser threshold admits the +50% too.
	if _, regs := compareReports(old, cur, 0.60); len(regs) != 0 {
		t.Fatalf("threshold 0.60: regressions = %+v, want none", regs)
	}
	// Improvements never count as regressions.
	better := Report{Benchmarks: []Benchmark{benchResult("p", "BenchmarkB", 5)}}
	if _, regs := compareReports(old, better, 0.20); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", regs)
	}
}

// TestCompareTakesFastestRun: a benchmark listed several times counts at
// its fastest run on each side, and is compared once.
func TestCompareTakesFastestRun(t *testing.T) {
	old := Report{Benchmarks: []Benchmark{
		benchResult("p", "BenchmarkA", 130), // a burst-slowed run
		benchResult("p", "BenchmarkA", 100),
	}}
	noisy := Report{Benchmarks: []Benchmark{
		benchResult("p", "BenchmarkA", 160),
		benchResult("p", "BenchmarkA", 105),
		benchResult("p", "BenchmarkA", 140),
	}}
	if shared, regs := compareReports(old, noisy, 0.20); shared != 1 || len(regs) != 0 {
		t.Fatalf("noisy runs: shared = %d, regressions = %+v; want 1 shared, none", shared, regs)
	}
	slow := Report{Benchmarks: []Benchmark{
		benchResult("p", "BenchmarkA", 125),
		benchResult("p", "BenchmarkA", 140),
	}}
	if _, regs := compareReports(old, slow, 0.20); len(regs) != 1 || regs[0].old != 100 || regs[0].new != 125 {
		t.Fatalf("slow runs: regressions = %+v, want one 100 -> 125", regs)
	}
}

// TestCompareRoundsTakesMedianRatio: with paired rounds, a fast spell that
// only one side's run caught moves one round, not the verdict, while a
// slowdown in most rounds fails.
func TestCompareRoundsTakesMedianRatio(t *testing.T) {
	rounds := func(ns ...float64) []Report {
		reps := make([]Report, len(ns))
		for i, v := range ns {
			reps[i] = Report{Benchmarks: []Benchmark{benchResult("p", "BenchmarkA", v)}}
		}
		return reps
	}
	old := rounds(75, 100, 100, 100, 100) // round 1 caught a fast spell
	if changes := compareRounds(old, rounds(100, 102, 99, 103, 101)); len(changes) != 1 || changes[0].ratio != 1.02 {
		t.Fatalf("one-sided fast spell: changes = %+v; want one at ratio 1.02", changes)
	}
	// Pooled, the same runs compare 99 against 75: +32%.
	if _, regs := compareReports(pooled(old)[0], pooled(rounds(100, 102, 99, 103, 101))[0], 0.20); len(regs) != 1 {
		t.Fatalf("pooled runs: regressions = %+v, want one", regs)
	}
	if regs := regressions(compareRounds(old, rounds(100, 125, 126, 99, 124)), 0.20); len(regs) != 1 || regs[0].ratio != 1.25 {
		t.Fatalf("slow in most rounds: regressions = %+v, want one at ratio 1.25", regs)
	}
}

func TestBenchKeyStripsGomaxprocsSuffix(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkA-8":             "p.BenchmarkA",
		"BenchmarkA":               "p.BenchmarkA",
		"BenchmarkCellSetup/a-2":   "p.BenchmarkCellSetup/a",
		"BenchmarkFig19/workers=4": "p.BenchmarkFig19/workers=4", // =4 is not a -N suffix
	} {
		if got := benchKey(benchResult("p", name, 1)); got != want {
			t.Errorf("benchKey(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep Report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", Report{Benchmarks: []Benchmark{benchResult("p", "BenchmarkA", 100)}})
	same := write("same.json", Report{Benchmarks: []Benchmark{benchResult("p", "BenchmarkA", 101)}})
	edge := write("edge.json", Report{Benchmarks: []Benchmark{benchResult("p", "BenchmarkA", 120)}})
	worse := write("worse.json", Report{Benchmarks: []Benchmark{benchResult("p", "BenchmarkA", 300)}})
	disjoint := write("disjoint.json", Report{Benchmarks: []Benchmark{benchResult("p", "BenchmarkZ", 1)}})

	if err := run([]string{"-compare", old, same}); err != nil {
		t.Errorf("steady result failed compare: %v", err)
	}
	// Sides listing different numbers of result files pool each side's
	// files; its fastest run counts.
	if err := run([]string{"-compare", old, worse + "," + same}); err != nil {
		t.Errorf("fastest of two runs failed compare: %v", err)
	}
	// Equal-length lists pair up as rounds: one slow round of three is
	// outvoted.
	if err := run([]string{"-compare", old + "," + old + "," + old, same + "," + worse + "," + same}); err != nil {
		t.Errorf("one slow round of three failed compare: %v", err)
	}
	if err := run([]string{"-compare", old, worse + "," + edge + ",missing.json"}); err == nil {
		t.Error("a missing result file passed compare")
	}
	// A side may also be raw `go test -bench` output, as a test binary
	// run with -test.bench prints it.
	raw := func(name string, ns ...string) string {
		text := "goos: linux\npkg: p\n"
		for _, v := range ns {
			text += "BenchmarkA-2   \t 3000\t " + v + " ns/op\t 0 B/op\t 0 allocs/op\n"
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text+"PASS\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := run([]string{"-compare", old, raw("raw-same.txt", "300", "101")}); err != nil {
		t.Errorf("raw output's fastest run failed compare: %v", err)
	}
	if err := run([]string{"-compare", old, raw("raw-worse.txt", "300", "125")}); err == nil {
		t.Error("raw output 25% slower in every run passed compare")
	}
	// The gate is strictly greater-than: exactly +20% on the default 0.20
	// threshold is still exit 0, so a result hovering on the line never
	// flakes the gate red.
	if err := run([]string{"-compare", old, edge}); err != nil {
		t.Errorf("exactly-at-threshold result failed compare: %v", err)
	}
	if err := run([]string{"-compare", old, worse}); err == nil {
		t.Error("3x regression passed compare")
	}
	if err := run([]string{"-compare", "-threshold", "3", old, worse}); err != nil {
		t.Errorf("3x regression failed compare at threshold 3: %v", err)
	}
	if err := run([]string{"-compare", old, disjoint}); err == nil {
		t.Error("disjoint benchmark sets passed compare")
	}
	if err := run([]string{"-compare", old}); err == nil {
		t.Error("single file accepted")
	}
}

func TestParseBenchLineCustomMetrics(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkTput-4  100  12.5 ns/op  340.2 dcn-pkt/s")
	if !ok {
		t.Fatal("rejected valid line with custom metric")
	}
	if b.Metrics["dcn-pkt/s"] != 340.2 {
		t.Fatalf("custom metric = %v", b.Metrics)
	}
}
