# Standard local gate: `make check` is what CI runs and what every change
# should pass before review. Individual steps are available as targets.
#
#   make lint   runs zslint, the repo-specific static checks (docs/lint.md);
#               machine-readable output: $(GO) run ./cmd/zslint -json ./...

GO ?= go

.PHONY: check fmt vet build test race bench bench-record lint lint-baseline lint-self chaos chaos-tree chaos-multijob fuzz golden golden-update

check: fmt vet build race lint lint-self chaos chaos-tree chaos-multijob fuzz golden

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Without zerosum/bench: the known race in bench/yardstick.go would hide a new one elsewhere (`make test` still covers bench).
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^zerosum/bench$$')

# bench runs the root-package benchmark suite (the paper-evaluation harness
# in bench_test.go) and gates it against the committed baseline: a benchmark
# more than 20% slower in ns/op, or more than 0.1% over its allocs/op
# baseline (exact for the small deterministic hot-path counts), fails.
# The -zero-alloc pass additionally asserts the sampling and wire hot paths
# report exactly 0 allocs/op, independent of any recorded baseline.
# After an intentional performance change, refresh the baseline with
# `make bench-record` and commit it. docs/perf.md explains the budgets.
BENCH_BASELINE ?= BENCH_PR10.json
ZERO_ALLOC_BENCHES ?= BenchmarkMonitorTick,BenchmarkAdaptiveTick,BenchmarkWireEncodeDecode
bench:
	$(GO) test -run '^$$' -bench . -benchmem . | tee bench.out
	$(GO) run ./cmd/zsbench -zero-alloc $(ZERO_ALLOC_BENCHES) bench.out
	$(GO) run ./cmd/zsbench -baseline $(BENCH_BASELINE) bench.out

bench-record:
	$(GO) test -run '^$$' -bench . -benchmem . | tee bench.out
	$(GO) run ./cmd/zsbench -record $(BENCH_BASELINE) \
		-note "recorded by make bench-record; see docs/perf.md" bench.out

# zslint enforces the //zerosum:* conventions: hot-path purity, error
# handling in the sampling tiers, goroutine lifecycles, wire codec
# synchronization, injected clocks, and the dataflow concurrency checks
# (guardedby, lockorder, atomic, goroutinestop). See docs/lint.md.
# Findings are ratcheted against lint-baseline.json: only NEW findings
# fail; after fixing or deliberately accepting one, refresh with
# `make lint-baseline` and commit the file.
lint:
	$(GO) run ./cmd/zslint -time -diff lint-baseline.json ./...

lint-baseline:
	$(GO) run ./cmd/zslint -baseline lint-baseline.json ./...

# lint-self runs zslint's fixture self-test: every check replayed over its
# testdata package and compared against the golden diagnostics.
lint-self:
	$(GO) run ./cmd/zslint -self ./...

# chaos runs the multi-agent fault-injection soak (docs/chaos.md) across a
# range of seeds under the race detector. A failure prints the seed that
# reproduces it: go test ./internal/chaos -run TestChaosSoak -seed=<N>
CHAOS_SEEDS ?= 10
chaos:
	$(GO) test ./internal/chaos -race -run TestChaosSoak -seeds=$(CHAOS_SEEDS)

# chaos-tree runs the aggregation-tree soak (docs/aggregation.md): agents
# hashed over a leaf tier under one root, with leaf crashes, a root bounce,
# and tier-by-tier conservation audits. Replay a failure with its seed:
#   go test ./internal/chaos -run TestTreeSoak -seed=<N>
chaos-tree:
	$(GO) test ./internal/chaos -race -run TestTreeSoak -seeds=$(CHAOS_SEEDS)

# chaos-multijob runs the multi-job isolation soak (docs/scenarios.md): a
# scenario-generated fleet of 100+ jobs with colliding (node, rank, TID)
# tuples streamed concurrently through a 3-leaf tree under leaf crashes,
# with per-job conservation, summary byte-identity, and no-bleed audits.
# Replay a failure with its seed:
#   go test ./internal/chaos -run TestMultiJobSoak -seed=<N>
chaos-multijob:
	$(GO) test ./internal/chaos -race -run TestMultiJobSoak -seeds=$(CHAOS_SEEDS)

# fuzz smoke-runs each native fuzz target for FUZZTIME on top of its
# checked-in seed corpus (testdata/fuzz/). Longer exploratory runs:
#   make fuzz FUZZTIME=10m
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/aggd -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/aggd -run '^$$' -fuzz FuzzRollupFrameDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proc -run '^$$' -fuzz FuzzProcStatParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/export -run '^$$' -fuzz FuzzHeatmapParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzObsSpanDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsdb -run '^$$' -fuzz FuzzTSDBBlockDecode -fuzztime $(FUZZTIME)

# golden gates the end-of-run report layout (paper Listing 2, including the
# §3.3 stalled column) against internal/report/testdata/. After reviewing an
# intentional layout change, refresh with `make golden-update` and commit.
golden:
	$(GO) test ./internal/report -run TestGolden

golden-update:
	$(GO) test ./internal/report -run TestGolden -update
