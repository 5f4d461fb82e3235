# NRMI build and reproduction targets. Stdlib-only; Go >= 1.22.

GO ?= go

.PHONY: all build test race ci chaos soak cover bench tables verify-tables loc tracked-loc repo-loc examples fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test: soak
	$(GO) vet ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# The tests -race skips (raceflag.Enabled): allocation budgets, which the
# detector's sync.Pool drops make meaningless, and two timings the
# detector's slowdown of every measured call upsets: TestPaperVerdict's
# orderings and TestNilObserverUnderTwoPercent's cost of an unobserved call.
# `make ci` runs them without -race, five times, so a budget that depends on
# scheduling fails the gate rather than one run in eight.
ALLOC_TESTS := TestSyncCallAllocs|TestCallShapeAllocs|TestPaperVerdict|TestApplyAllocsSteadyState|TestStagingSlabBytes|TestDecodeAllocsSteadyState|TestEncodeAllocsSteadyState|TestShadowAllocsNothing|TestSteadyStateAllocFree|TestWalkAllocsSteadyState|TestEngineV3DecodesIntoArena|TestNilObserverUnderTwoPercent|TestMintedTypesCostLinear
ALLOC_PKGS := ./internal/rmi ./internal/core ./internal/wire ./internal/graph ./internal/bufpool ./internal/bench

# One-shot CI pipeline (what .github/workflows/ci.yml runs): build, vet,
# race tests (root TestNoFreshContextRoot among them, the one source rule)
# (every package that moves pooled buffers ends its run on the bufpool
# ledger and goroutine checks of internal/leakcheck), the -race-skipped
# tests above five times without -race, the two line ratchets, one pass of
# BenchmarkKernels, of internal/core's BenchmarkPipeline and of
# internal/rmi's BenchmarkCall (the per-layer numbers the docs quote; go test
# ./... only compiles them, so a b.Fatal in any would go unnoticed), the
# paper's tables held to results/tables.md (the run takes seconds: the
# testbed is computed, not slept), then benchmark/. benchmark/ is its own module, which ./... does not reach:
# it is built and smoke-tested here so that a core/wire signature change that
# breaks benchmark/layers.go is caught before a benchmark run is; it comes
# last because its TestGeneratorPinned is red until ROADMAP item 1, and a
# step behind a red one never runs. An unformatted file anywhere (gofmt walks
# into benchmark/ as well) fails the pipeline first.
ci: build
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) test -race ./...
	$(GO) test -count=5 -run '^($(ALLOC_TESTS))$$' $(ALLOC_PKGS)
	@$(MAKE) --no-print-directory tracked-loc
	@$(MAKE) --no-print-directory repo-loc
	$(GO) test -run '^$$' -bench Kernels -benchtime 1x ./internal/wire
	$(GO) test -run '^$$' -bench Pipeline -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkCall$$' -benchtime 1x ./internal/rmi
	$(GO) run ./cmd/nrmi-bench -verify -quiet -check results/tables.md > /dev/null
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Chaos suite: the five fixed fault-plan seeds, plus one fresh seed derived
# from the clock. The seed is printed so any failure replays exactly with
# CHAOS_SEED=<seed> make chaos.
chaos:
	@seed=$${CHAOS_SEED:-$$(date +%s%N)}; \
	echo "chaos seed: $$seed (replay: CHAOS_SEED=$$seed make chaos)"; \
	CHAOS_SEED=$$seed $(GO) test -race -run 'TestChaos|TestRetry|TestBackoff' -v ./internal/rmi/

# Graceful-degradation soak: concurrent clients hammer a draining,
# overloaded server under the race detector (docs/PROTOCOL.md section 8).
soak:
	$(GO) test -race -count=1 -run 'TestSoak|TestShutdown|TestOverload' -v ./internal/rmi/

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

# Micro-benchmarks: one Benchmark per paper table, plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's Tables 1-7 on the modeled testbed.
tables:
	$(GO) run ./cmd/nrmi-bench

# Same, with the restore invariant re-verified in every cell, go vet run
# first, and every bytes/messages cell of Tables 1-7 held to
# results/tables.md.
verify-tables:
	$(GO) vet ./...
	$(GO) run ./cmd/nrmi-bench -verify -check results/tables.md

# The usability lines-of-code report (paper Section 5.3.2).
loc:
	$(GO) run ./cmd/nrmi-bench -loc

# The ROADMAP's tracked number: non-test Go lines (comments and blanks
# included, as `wc -l` counts them) of the five runtime packages. It is a
# ratchet: the target (and `make ci`, which runs it) fails above
# TRACKED_LOC_MAX, and a PR that deletes lowers TRACKED_LOC_MAX to its total.
TRACKED_LOC_MAX := 7630

tracked-loc:
	@total=0; for p in wire core graph rmi transport; do \
		n=$$(find internal/$$p -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
		printf 'tracked-loc %-10s %6d\n' $$p $$n; total=$$((total + n)); \
	done; printf 'tracked-loc %-10s %6d (max $(TRACKED_LOC_MAX))\n' total $$total; \
	if [ $$total -gt $(TRACKED_LOC_MAX) ]; then \
		echo "tracked-loc: $$total lines exceed TRACKED_LOC_MAX=$(TRACKED_LOC_MAX)" >&2; exit 1; \
	fi

# The whole repository under the same kind of ratchet: every non-test Go
# line outside testdata/ (benchmark/ is counted; only a [benchmark] PR edits
# it). Test and fixture lines are printed for the record and not budgeted.
REPO_LOC_MAX := 15595

repo-loc:
	@count() { find . -name '*.go' -not -path './.git/*' "$$@" | xargs cat | wc -l; }; \
	total=$$(count -not -name '*_test.go' -not -path '*/testdata/*'); \
	printf 'repo-loc non-test %6d (max $(REPO_LOC_MAX))\n' $$total; \
	printf 'repo-loc test     %6d\n' $$(count -name '*_test.go' -not -path '*/testdata/*'); \
	printf 'repo-loc testdata %6d\n' $$(count -path '*/testdata/*'); \
	if [ $$total -gt $(REPO_LOC_MAX) ]; then \
		echo "repo-loc: $$total lines exceed REPO_LOC_MAX=$(REPO_LOC_MAX)" >&2; exit 1; \
	fi

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/translator
	$(GO) run ./examples/multiindex
	$(GO) run ./examples/treedemo
	$(GO) run ./examples/faults
	$(GO) run ./examples/callbacks

# FuzzReadFrame's interesting inputs are buffer-sized (FuzzDecode's depth and
# length seeds are tens of kilobytes), and the engine's byte-by-byte
# minimization of one would otherwise eat the 30 seconds.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s -fuzzminimizetime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzIdentTable -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s -fuzzminimizetime=5s ./internal/transport/
	$(GO) test -fuzz=FuzzHandleCall -fuzztime=30s ./internal/rmi/

clean:
	rm -f cover.out test_output.txt bench_output.txt
