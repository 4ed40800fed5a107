// Command dcnbench runs the repository's microbenchmarks through
// `go test -bench` and writes the parsed results as JSON, so perf
// changes can be tracked as committed artifacts (see BENCH_PR3.json).
// It can also diff two such artifacts and fail on regressions.
//
// Usage:
//
//	dcnbench -out BENCH.json
//	dcnbench -bench 'SensedPower|Kernel' -benchtime 100000x -out /dev/stdout
//	dcnbench -compare old.json new.json            # exit 1 on >20% ns/op regression
//	dcnbench -compare -threshold 0.5 old.json new.json
//	dcnbench -compare old1.txt,old2.txt new1.txt,new2.txt  # median over paired rounds
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Package    string `json:"package"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit -> value, e.g. "ns/op": 53.7, "allocs/op": 0,
	// including any custom testing.B metrics the benchmark reports.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Bench      string      `json:"bench_regexp"`
	BenchTime  string      `json:"benchtime"`
	Packages   []string    `json:"packages"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcnbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcnbench", flag.ContinueOnError)
	var (
		out       = fs.String("out", "", "output JSON path (default stdout)")
		bench     = fs.String("bench", ".", "benchmark regexp passed to go test -bench")
		benchtime = fs.String("benchtime", "", "passed to go test -benchtime (default go's own)")
		pkgs      = fs.String("pkgs", "./...", "comma-separated package patterns to benchmark")
		compare   = fs.Bool("compare", false, "compare two sides' results: dcnbench -compare old.json new.json (a side may list one file per round with commas; a file may be raw go test -bench output)")
		threshold = fs.Float64("threshold", 0.20, "with -compare: fail when ns/op grows by more than this fraction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two files, got %d", fs.NArg())
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *threshold, os.Stdout)
	}

	patterns := strings.Split(*pkgs, ",")
	cmdArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
	if *benchtime != "" {
		cmdArgs = append(cmdArgs, "-benchtime", *benchtime)
	}
	cmdArgs = append(cmdArgs, patterns...)

	cmd := exec.Command("go", cmdArgs...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(cmdArgs, " "), err)
	}

	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Bench:     *bench,
		BenchTime: *benchtime,
		Packages:  patterns,
	}
	if err := parseInto(&rep, &buf); err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines matched -bench %q", *bench)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// parseInto scans `go test -bench` output. Relevant lines:
//
//	cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
//	pkg: nonortho/internal/sim
//	BenchmarkKernelScheduleCancel  2000000  150.3 ns/op  0 B/op  0 allocs/op
//
// Benchmark lines are NAME ITERATIONS then (value unit) pairs; custom
// testing.B metrics use the same pair form.
func parseInto(rep *Report, buf *bytes.Buffer) error {
	pkg := ""
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	return sc.Err()
}

// benchKey identifies a benchmark across runs: package plus name with the
// -GOMAXPROCS suffix stripped, so results from machines with different
// core counts still line up.
func benchKey(b Benchmark) string {
	name := b.Name
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return b.Package + "." + name
}

// change is one shared benchmark's move: old and new are the fastest
// ns/op of the median round, ratio the median of the rounds' new/old.
type change struct {
	key      string
	old, new float64
	ratio    float64
}

// compareReports diffs new against old on ns/op for every benchmark present
// in both, returning the shared count and the entries exceeding threshold,
// in new's order. It compares a single round.
func compareReports(old, new Report, threshold float64) (shared int, regs []change) {
	changes := compareRounds([]Report{old}, []Report{new})
	return len(changes), regressions(changes, threshold)
}

// regressions returns the changes whose ns/op grew by more than threshold.
func regressions(changes []change, threshold float64) []change {
	var regs []change
	for _, c := range changes {
		if c.ratio-1 > threshold {
			regs = append(regs, c)
		}
	}
	return regs
}

// compareRounds compares two sides' runs round by round, returning one
// change per shared benchmark in new's order: old[i] was run next to
// new[i], and both lists have the same length. Within a round a
// benchmark listed more than once counts at its fastest run, since on a
// shared host noise only ever adds time; a benchmark's change is the
// median over the rounds that ran it on both sides of its new/old ratio,
// so a slow spell that falls on one side of a few rounds does not move
// it. A benchmark is shared when some round ran it on both sides.
func compareRounds(old, new []Report) []change {
	type pair struct{ old, new float64 }
	byKey := make(map[string][]pair)
	var order []string
	for i := range new {
		oldNs, newNs := fastest(old[i]), fastest(new[i])
		for _, b := range new[i].Benchmarks {
			key := benchKey(b)
			was, ok := oldNs[key]
			now, okNew := newNs[key]
			if !ok || !okNew || was <= 0 {
				continue
			}
			delete(newNs, key) // later runs of key are already folded in
			if _, seen := byKey[key]; !seen {
				order = append(order, key)
			}
			byKey[key] = append(byKey[key], pair{was, now})
		}
	}
	changes := make([]change, 0, len(order))
	for _, key := range order {
		pairs := byKey[key]
		slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.new/a.old, b.new/b.old) })
		mid := pairs[len(pairs)/2]
		ratio := mid.new / mid.old
		if len(pairs)%2 == 0 {
			lo := pairs[len(pairs)/2-1]
			ratio = (ratio + lo.new/lo.old) / 2
		}
		changes = append(changes, change{key: key, old: mid.old, new: mid.new, ratio: ratio})
	}
	return changes
}

// fastest maps each benchmark key in rep to its lowest ns/op.
func fastest(rep Report) map[string]float64 {
	ns := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		v, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		if was, seen := ns[benchKey(b)]; !seen || v < was {
			ns[benchKey(b)] = v
		}
	}
	return ns
}

// readRounds reads a comma-separated list of result files, one report
// per file. A file is either a dcnbench JSON report or the raw output of
// `go test -bench` (or of a test binary run with -test.bench).
func readRounds(paths string) ([]Report, error) {
	var reps []Report
	for _, path := range strings.Split(paths, ",") {
		var rep Report
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
			err = json.Unmarshal(data, &rep)
		} else {
			err = parseInto(&rep, bytes.NewBuffer(data))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// pooled merges reports into one holding all their benchmarks.
func pooled(reps []Report) []Report {
	var all Report
	for _, rep := range reps {
		all.Benchmarks = append(all.Benchmarks, rep.Benchmarks...)
	}
	return []Report{all}
}

// runCompare implements -compare: non-nil error (and so a non-zero exit)
// when any shared benchmark's ns/op regressed by more than threshold.
// When both sides list the same number of files, file i of one side is
// round i of the other; otherwise each side's files pool into one round.
func runCompare(oldPaths, newPaths string, threshold float64, w *os.File) error {
	old, err := readRounds(oldPaths)
	if err != nil {
		return err
	}
	cur, err := readRounds(newPaths)
	if err != nil {
		return err
	}
	if len(old) != len(cur) {
		old, cur = pooled(old), pooled(cur)
	}
	changes := compareRounds(old, cur)
	if len(changes) == 0 {
		return fmt.Errorf("no shared ns/op benchmarks between %s and %s", oldPaths, newPaths)
	}
	fmt.Fprintf(w, "compared %d shared benchmarks over %d round(s) (threshold +%.0f%% ns/op)\n",
		len(changes), len(cur), threshold*100)
	regs := regressions(changes, threshold)
	for _, c := range changes {
		verdict := "ok"
		if c.ratio-1 > threshold {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(w, "%s %s: %+.1f%% (median round: %.4g -> %.4g ns/op)\n",
			verdict, c.key, (c.ratio-1)*100, c.old, c.new)
	}
	if len(regs) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond +%.0f%%", len(regs), threshold*100)
	}
	fmt.Fprintln(w, "no regressions")
	return nil
}

func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
