#!/bin/sh
# check.sh — the full local gate (`make check` runs it): gofmt, vet, the
# perfbench module, dcnlint, build, the phy BER exactness tests, the named
# -race subsets, the full test suite under the race detector, the
# benchmark smoke runs and the bench compare.
set -eu
cd "$(dirname "$0")"

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== perfbench module: vet + test"
# perfbench is its own module, so the root ./... patterns never compile it;
# an API it uses that goes away would otherwise break only the benchmark.
GOWORK=off go -C perfbench vet ./...
GOWORK=off go -C perfbench test ./...
echo "== dcnlint ./... (determinism, unit-safety, confinement + immutability analyzers)"
go run ./cmd/dcnlint ./...
if [ "${LINT_FULL:-0}" = "1" ]; then
	# Pinned third-party analyzers, fetched with `go run pkg@version`.
	# Opt-in because they need module-proxy network access.
	echo "== staticcheck + govulncheck (LINT_FULL=1)"
	go run honnef.co/go/tools/cmd/staticcheck@"${STATICCHECK_VERSION:-v0.4.7}" ./...
	go run golang.org/x/vuln/cmd/govulncheck@"${GOVULNCHECK_VERSION:-v1.1.3}" ./...
fi
echo "== go build ./..."
go build ./...

# require_tests PKG 'A|B|...' fails unless every -run alternative matches
# at least one test in PKG: `go test -run 'A|B'` passes silently when a
# name matches nothing, so a renamed or deleted test would drop out of a
# named subset unnoticed.
require_tests() {
	listed=$(go test -list '.*' "$1")
	for name in $(echo "$2" | tr '|' ' '); do
		if ! printf '%s\n' "$listed" | grep -q -- "$name"; then
			echo "check.sh: no test in $1 matches $name" >&2
			exit 1
		fi
	done
}

echo "== phy BER exactness"
# BitErrorRate stops its 15-term DSSS sum at the first term that
# underflows to 0. These tests are its portable guard (the golden
# manifest is recorded on amd64 only): bit-identity against the full
# reference sum over −30…80 dB, the math.Exp zero-floor premise the
# early exit rests on, the exact-zero BER from phy.ZeroBERSINR up that
# the radio's zero-error certificate rests on, the (0, 2⁻⁸⁰] BER of the
# radio's tiny-BER band, and pow10's bit identity with math.Pow (the
# dBm→mW conversion and the BER's linear SINR), checked on whatever
# GOARCH runs this gate.
phy_exact='TestBitErrorRateMatchesReference|TestExpZeroFloorIsMonotone|TestZeroBERSINRPremise|TestTinyBERBandPremise|TestPow10MatchesMathPow'
require_tests ./internal/phy "$phy_exact"
go test -count=1 -run "$phy_exact" ./internal/phy
echo "== medium sensing oracle tests under -race"
# The medium's correctness surface, run first and by name: the
# brute-force sensing oracle, the spatial-exact bit-identity replay, the
# folded-mode bounded-error oracle, the lock-on reachability decision
# table and the churned city cell's folded reads against fresh walks,
# then the kernel's own tests. A sensing, spatial-tier, lock-on or
# scheduler bug fails here in seconds instead of somewhere inside the
# full suite below.
medium_race='TestCachedSumsMatchBruteForce|TestSpatialExactChurnBitIdentical|TestFoldedChurnBoundedError|TestReachableDecisionTable|TestFoldedReadsServedFromList'
require_tests ./internal/medium "$medium_race"
go test -race -count=1 -run "$medium_race" ./internal/medium
go test -race -count=1 ./internal/sim
echo "== crash-safety surface under -race"
# Interrupt/resume bit-identity (the representative subset of the full
# 17-table suite), keep-going failure collection, the deterministic-vs-
# environmental retry classifier, store corruption recovery, and the
# budget/watchdog machinery — by name, so a crash-safety regression
# fails in seconds instead of somewhere inside the full suite below.
experiments_race='TestCrashResumeBitIdentitySubset|TestRunEngine'
cli_race='TestKeepGoingBudgetTripMarksTables|TestSignalCancelsWithResumeHint|TestExitCodeContract'
require_tests ./internal/experiments "$experiments_race"
require_tests ./internal/cli "$cli_race"
go test -race -count=1 -run "$experiments_race" ./internal/experiments
go test -race -count=1 -run "$cli_race" ./internal/cli
go test -race -count=1 ./internal/store ./internal/watchdog ./internal/parallel
echo "== go test -race ./..."
# Race instrumentation is 5-20x on a single core; give the experiment
# grids headroom beyond the 10m default before calling a hang.
go test -race -timeout 1800s ./...
echo "== bench smoke (1 iteration)"
go run ./cmd/dcnbench -bench 'KernelScheduleCancel|SensedPowerDenseSweep|InterferenceDenseSweep|OnAirFanout$' \
	-benchtime 1x -pkgs ./internal/sim,./internal/medium -out /dev/null
go run ./cmd/dcnbench -bench 'BitErrorRate|Milliwatts' \
	-benchtime 1x -pkgs ./internal/phy -out /dev/null
go run ./cmd/dcnbench -bench 'CellSetup' \
	-benchtime 1x -pkgs ./internal/testbed -out /dev/null
# City-scale smoke: one iteration proves the spatial-tier benchmarks still
# set up (near snapshot build, far-field fold, the 5,000-listener fan-out,
# the busy 1,000-node folded read, the churned folded reads a receiving
# radio makes, bound-first, the wake-filtered fan-out among 1,000 radios)
# without paying measurement time.
go run ./cmd/dcnbench -bench 'SensedPower5kNodes|OnAirFanout5kNodes|InterferenceFoldedBusy|InterferenceBoundChurn|OnAirFanoutCityRadios' \
	-benchtime 1x -pkgs ./internal/medium,./internal/radio -out /dev/null
# Lint-gate smoke: one iteration of the whole-module analyzer run keeps
# the interprocedural engine's cost visible in the bench artifacts.
go run ./cmd/dcnbench -bench 'LintModule' \
	-benchtime 1x -pkgs ./internal/lint -out /dev/null
echo "== bench compare (working tree vs its base commit, same host)"
# The medium's dense sums and fan-out and the city radios' fan-out, timed
# in an export of the base commit and in the working tree, best of three
# at +20% ns/op; scripts/benchcompare.sh says how the base is chosen. On
# a 2-vCPU VM it passed an unchanged tree in 8 of 8 runs, failed an
# injected 25% slowdown of Medium.SensedPower on all 3 attempts in 10 of
# 10 runs, and one of Radio.OnAir in 4 of 6 (EXPERIMENTS.md, "Resolving
# a 25% slowdown"); no other runner, CI's included, has been measured.
./scripts/benchcompare.sh
# Store smoke: 100 round trips through the cell cache, which sits on
# every -store sweep's path. Run, not compared.
go run ./cmd/dcnbench -bench 'CellStoreRoundTrip' \
	-benchtime 100x -pkgs ./internal/store -out /dev/null
echo "check: OK"
