# Standard local gate: `make check` is what every change should pass before
# review. CI runs the same gates, each in exactly one job
# (.github/workflows/ci.yml). Individual steps are available as targets.
#
#   make lint   runs zslint, the repo-specific static checks (docs/lint.md);
#               machine-readable output: $(GO) run ./cmd/zslint -json ./...

GO ?= go

.PHONY: check fmt vet build test race lint lint-baseline lint-self chaos fuzz corpus-update golden golden-update bench-correct

check: fmt vet build race lint lint-self chaos fuzz golden

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

# zslint enforces the //zerosum:* conventions: hot-path purity, error
# handling in the sampling tiers, goroutine lifecycles, wire codec
# synchronization, injected clocks, the dataflow concurrency checks
# (guardedby, lockorder, goroutinestop), and exported code nothing but tests
# uses (deadexport). See docs/lint.md.
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

# chaos runs the three soak plans over the one chaos engine (docs/chaos.md)
# under the race detector, CHAOS_SEEDS consecutive seeds each: the flat
# packet-fault plan (TestChaosSoak), the aggregation-tree plan with leaf
# crashes and a root bounce (TestTreeSoak), and the multi-job isolation plan,
# 100+ colliding jobs through the same tree (TestMultiJobSoak). A failure
# prints the line that replays it, plan and seed:
#   go test ./internal/chaos -run '^TestTreeSoak$' -seed=<N>
CHAOS_SEEDS ?= 10
chaos:
	$(GO) test ./internal/chaos -race -run '^Test(Chaos|Tree|MultiJob)Soak$$' -seeds=$(CHAOS_SEEDS)

# fuzz smoke-runs each native fuzz target for FUZZTIME on top of its
# checked-in seed corpus (testdata/fuzz/). Longer exploratory runs:
#   make fuzz FUZZTIME=10m
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/aggd -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/aggd -run '^$$' -fuzz FuzzRollupFrameDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/aggd -run '^$$' -fuzz FuzzGzipRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proc -run '^$$' -fuzz FuzzProcStatParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/export -run '^$$' -fuzz FuzzHeatmapParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzObsSpanDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsdb -run '^$$' -fuzz FuzzTSDBBlockDecode -fuzztime $(FUZZTIME)

# corpus-update regenerates the wire fuzz targets' checked-in seed corpora
# (internal/aggd/testdata/fuzz/ and internal/tsdb/testdata/fuzz/) from their
# generators, after a deliberate wire-format change; TestRollupFuzzSeedCorpus
# and the tsdb TestFuzzSeedCorpus fail until it is run.
corpus-update:
	$(GO) test ./internal/aggd -run SeedCorpus -update
	$(GO) test ./internal/tsdb -run '^TestFuzzSeedCorpus$$' -update

# bench-correct runs every benchmark workload once, briefly, and fails unless
# its result line (the last one printed) reports "correct":true with
# "failed":0. A run that completes with wrong books still exits 0, so this is
# the only gate on the benchmark's outputs. See bench/README.md.
bench-correct:
	@for w in sample_node ingest_flat ingest_tree dash_mixed; do \
		out="$$($(GO) run ./bench --workload $$w --seed 2 --seconds 6 --trace 0)" || exit 1; \
		line="$$(printf '%s\n' "$$out" | tail -n 1)"; \
		echo "$$w: $$line"; \
		case "$$line" in \
			*'"correct":true,'*'"failed":0,'*) ;; \
			*) printf '%s\n' "$$out"; echo "bench-correct: $$w is not correct"; exit 1 ;; \
		esac; \
	done

# golden gates the end-of-run report layout (paper Listing 2, including the
# §3.3 stalled column) against internal/report/testdata/, the bytes of
# zsrun -logdir's per-rank report and §3.6 CSVs (rendered from each rank's
# .zsbp frame log) against sha256 sums pinned in cmd/zsrun/main_test.go, and
# the tsdb store's accounting and ZSTB dump of a seeded append script against
# the values pinned in internal/tsdb/store_test.go, and the paper's numbers:
# the sha256 of each cmd/experiments output (L1, L2, T1-T3, F5-F8, ABL) at
# -scale 0.05 -runs 3 -ranks 64 -seed 1, pinned in cmd/experiments/main_test.go.
# After reviewing an intentional layout change, refresh the report goldens
# with `make golden-update`, paste the new CSV sums by hand, and commit.
# After an intentional change to a paper result, paste the new sum of
#   go run ./cmd/experiments -run <ID> -scale 0.05 -runs 3 -ranks 64 -seed 1 | sha256sum
# into TestPaperNumbersGolden by hand, and say in the commit which result moved.
golden:
	$(GO) test ./internal/report -run TestGolden
	$(GO) test ./cmd/zsrun -run '^TestLogdirGolden$$'
	$(GO) test ./internal/tsdb -run '^TestStoreLayoutGolden$$'
	$(GO) test ./cmd/experiments -run '^TestPaperNumbersGolden$$'

golden-update:
	$(GO) test ./internal/report -run TestGolden -update
