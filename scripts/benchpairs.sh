#!/usr/bin/env bash
# benchpairs.sh — same-host A/B pairs of the repository benchmark.
#
#   scripts/benchpairs.sh <base-rev> <workload> [pairs] [seconds] [head-rev]
#
# Exports <base-rev> and <head-rev> (default HEAD; commit the change under
# test first) with `git archive` into a temporary directory, then runs
# `bash perfbench/run.sh --workload <workload>` on both, <pairs> times
# each (default 10) for <seconds> per run (default 30). The side that runs
# first alternates from pair to pair, so host drift falls on both sides.
#
# For every end-to-end metric in BENCHMARK.json it prints the base and
# head medians, the base interquartile range and the number of pairs the
# head won. It exits 1 when any run is not correct or has failed
# operations, or when the head is worse than the base by more than the
# metric's BENCHMARK.json bound (a relative fraction) in most pairs.
#
# Opt-in: nothing runs it automatically. It needs git, go and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 <base-rev> <workload> [pairs] [seconds] [head-rev]" >&2
	exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-30}
head_rev=${5:-HEAD}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in base head; do
	rev=$base_rev
	[ "$side" = head ] && rev=$head_rev
	mkdir "$tmp/$side"
	git archive "$rev" | tar -x -C "$tmp/$side"
done

# run SIDE PAIR appends one JSON record to results.jsonl: the side, the
# pair index and the benchmark's final-line report.
run() {
	report=$(bash "$tmp/$1/perfbench/run.sh" --workload "$workload" \
		--seed 1 --seconds "$seconds" --trace 0 | tail -n 1)
	printf '{"side":"%s","pair":%d,"report":%s}\n' "$1" "$2" "$report" >>"$tmp/results.jsonl"
	echo "pair $2 $1: $report" >&2
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
done

python3 - "$tmp/results.jsonl" "$tmp/head/BENCHMARK.json" "$workload" <<'EOF'
import json, statistics, sys

results_path, bench_path, workload = sys.argv[1:]
spec = json.load(open(bench_path))
runs = {"base": {}, "head": {}}
bad = []
for line in open(results_path):
    r = json.loads(line)
    rep = r["report"]
    if not rep.get("correct") or rep.get("failed", 0) != 0:
        bad.append(f'pair {r["pair"]} {r["side"]}: correct={rep.get("correct")} failed={rep.get("failed")}')
    runs[r["side"]][r["pair"]] = rep["metrics"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]

pairs = sorted(runs["base"])
failing = []
print(f"{workload}: {len(pairs)} pairs")
print(f'{"metric":<18} {"base med":>12} {"head med":>12} {"base IQR":>10} {"head wins":>10} {"worse>bound":>12}')
for m in spec["end_to_end"]:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    b = [runs["base"][p][name]["value"] for p in pairs]
    h = [runs["head"][p][name]["value"] for p in pairs]
    wins = sum((hv > bv) if higher else (hv < bv) for bv, hv in zip(b, h))
    worse = sum((hv < bv * (1 - bound)) if higher else (hv > bv * (1 + bound)) for bv, hv in zip(b, h))
    q1, q3 = quartiles(b)
    print(f"{name:<18} {statistics.median(b):>12.4g} {statistics.median(h):>12.4g} {q3 - q1:>10.3g} {wins:>7}/{len(pairs):<2} {worse:>9}/{len(pairs):<2}")
    if worse > len(pairs) / 2:
        failing.append(f"{name}: head worse than base by more than {bound:.0%} in {worse} of {len(pairs)} pairs")
for msg in bad + failing:
    print("FAIL " + msg, file=sys.stderr)
sys.exit(1 if bad or failing else 0)
EOF
