#!/bin/sh
# benchcompare.sh — the same-host micro-benchmark compare (check.sh and
# `make bench-compare` run it).
#
#   scripts/benchcompare.sh
#
# Times the medium's dense sensing and interference sums and its event
# fan-out, and the fan-out among 1,000 city radios, in a `git archive`
# export of the base commit and in the working tree. The base is HEAD
# when tracked files have uncommitted changes, else HEAD^ (so a clone
# needs the parent commit: CI checks out with fetch-depth 2).
# `dcnbench -compare` then fails a benchmark whose ns/op grew by more
# than 20% over the base's. A benchmark only one side has is not
# compared.
#
# It checks one commit against its parent. A push of several commits
# is gated on its last one only, and slowdowns under 20% per commit add
# up unnoticed: the compare does not catch cumulative drift.
#
# On a shared VM one run of these benchmarks can read 2x another run of
# the same binary, and even the fastest run drifts by several percent
# over a minute. So each side's test binaries are built once, and each
# attempt runs them in ten rounds, the two sides back to back in each
# round: 30 short samples of each medium benchmark and ten of the city
# fan-out per side and round (-test.count). A benchmark's change is the
# median over the rounds of its fastest new sample over its fastest base
# sample in the same round. Best of three attempts: the compare passes if
# any attempt is clean and fails only when all three regress.
set -eu
cd "$(dirname "$0")/.."

base=HEAD^
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	base=HEAD
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
go build -o "$tmp/dcnbench" ./cmd/dcnbench
for side in base head; do
	dir=.
	[ "$side" = base ] && dir="$tmp/base"
	(cd "$dir" &&
		go test -c -o "$tmp/$side-medium.test" ./internal/medium &&
		go test -c -o "$tmp/$side-radio.test" ./internal/radio)
done
echo "bench compare: working tree vs $base ($(git rev-parse --short "$base"))"

# medium SIDE RUN and radio SIDE RUN write SIDE's samples for round RUN
# to SIDE-medium-RUN.txt and SIDE-radio-RUN.txt. A medium sample is
# 3,000 ops (1.5-8 ms); a city fan-out sample is 4,000 ops (~40 ms) on
# a city the test binary builds and warms up once.
medium() {
	"$tmp/$1-medium.test" -test.run '^$' -test.benchmem -test.count 30 \
		-test.bench 'SensedPowerDenseSweep|InterferenceDenseSweep|OnAirFanout$' \
		-test.benchtime 3000x >"$tmp/$1-medium-$2.txt"
}
radio() {
	"$tmp/$1-radio.test" -test.run '^$' -test.benchmem -test.count 10 \
		-test.bench 'OnAirFanoutCityRadios' \
		-test.benchtime 4000x >"$tmp/$1-radio-$2.txt"
}

rounds="1 2 3 4 5 6 7 8 9 10"

# runs SIDE GROUP lists SIDE's result files of GROUP for -compare, in
# round order, so that -compare pairs each round's base and head files.
runs() {
	for run in $rounds; do
		printf '%s' "$tmp/$1-$2-$run.txt,"
	done | sed 's/,$//'
}

for attempt in 1 2 3; do
	for run in $rounds; do
		first=base second=head
		if [ $(((attempt + run) % 2)) -eq 1 ]; then
			first=head second=base
		fi
		# Each group's two sides run back to back, so a slow spell of
		# the host tends to fall on both.
		medium $first "$run"
		medium $second "$run"
		radio $first "$run"
		radio $second "$run"
	done
	medium_ok=0
	radio_ok=0
	"$tmp/dcnbench" -compare "$(runs base medium)" "$(runs head medium)" && medium_ok=1
	"$tmp/dcnbench" -compare "$(runs base radio)" "$(runs head radio)" && radio_ok=1
	if [ "$medium_ok" -eq 1 ] && [ "$radio_ok" -eq 1 ]; then
		exit 0
	fi
	echo "bench compare attempt $attempt failed; retrying in case of host noise"
done
echo "bench compare failed on all 3 attempts" >&2
exit 1
