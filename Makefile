GO ?= go
BENCH ?= .
# The default output is gitignored, so a local run leaves the tree clean.
BENCH_OUT ?= .bench_build/bench.json

# Pinned third-party analyzer versions for `make lint-full` (LINT_FULL=1).
# Both are fetched with `go run pkg@version`, so they need module-proxy
# network access and are kept out of the default offline gate.
STATICCHECK_VERSION ?= v0.4.7
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: check vet lint lint-full build test race fuzz bench bench-compare

## check: the full local gate, ./check.sh — gofmt, vet, the perfbench
## module, the dcnlint analyzers, build, the named -race subsets and the
## full suite under the race detector, the benchmark smoke runs and the
## bench compare. Set LINT_FULL=1 to also run the pinned staticcheck +
## govulncheck pass (needs network).
check:
	./check.sh

vet:
	$(GO) vet ./...

## lint: the project-specific go/analysis suite (detsource, maporder,
## dbmunits, confinedgo, seedtaint, snapfreeze) with the
## interprocedural call-graph engine.
## Offline: stdlib-only driver.
lint:
	$(GO) run ./cmd/dcnlint ./...

## lint-full: pinned staticcheck + govulncheck via `go run pkg@version`.
## Requires module-proxy network access; not part of the offline gate.
lint-full:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: a short fuzzing pass over every external-input decoder: the
## frame codec, scenario JSON and store cells.
fuzz:
	$(GO) test ./internal/frame -run '^$$' -fuzz '^FuzzFCS$$' -fuzztime 30s
	$(GO) test ./internal/frame -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 30s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 30s

## bench: run the microbenchmarks and write parsed JSON to $(BENCH_OUT).
bench:
	mkdir -p $(dir $(BENCH_OUT))
	$(GO) run ./cmd/dcnbench -bench '$(BENCH)' -out $(BENCH_OUT)

## bench-compare: check.sh's same-host compare — time the medium and city
## fan-out micro-benchmarks in an export of the base commit (HEAD when
## tracked files changed, else HEAD^) and in the working tree, and fail if
## any shared benchmark's ns/op regressed >20% on all 3 attempts. It
## checks one commit against its parent, not cumulative drift.
bench-compare:
	./scripts/benchcompare.sh
