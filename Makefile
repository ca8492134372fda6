GO ?= go

.PHONY: build fmt-check lint test race bench bench-gate bench-baseline artifacts serve-bench fuzz-short perf-pairs

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite any
# tracked Go file.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Domain lint: icnvet machine-checks the pipeline's determinism,
# concurrency and error-handling contracts, including the cross-package
# dataflow analyzers (see DESIGN.md §13).
lint: build
	$(GO) run ./cmd/icnvet

test: lint
	$(GO) test ./...

# Full suite under the race detector — the shared worker pool and the
# staged scheduler must stay race-free.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# Benchmark-regression gate: rerun the pipeline at the committed baseline's
# shape (its seed, scale, k and trees) and fail when any stage (or the
# total) slows beyond the tolerance; then rerun and gate the serving leg
# against BENCH_serve.json. Env knobs (BENCH_GATE_TOLERANCE,
# BENCH_GATE_RUNS, ...) are documented in scripts/bench_gate.sh.
bench-gate:
	./scripts/bench_gate.sh

# Refresh the committed gate baseline from a best-of-3 measurement on this
# machine, at the baseline's own shape (the printed verdict against the old
# baseline is informational — a refresh after an intentional slowdown is
# allowed to "fail" the gate). Run after intentional performance changes,
# commit the result. To re-baseline at a new shape, first write a record at
# it, e.g. `go run ./cmd/icnbench -quiet -benchjson BENCH_baseline.json
# -scale X`, then run this target to replace it with a best-of-3.
bench-baseline:
	-$(GO) run ./cmd/icnbench -quiet -gateruns 3 -gate BENCH_baseline.json -benchjson BENCH_baseline.json

# Regenerate every table/figure. Machine-readable stage timings live in
# BENCH_baseline.json (make bench-baseline).
artifacts:
	$(GO) run ./cmd/icnbench

# Sustained concurrent classify load against an in-process icnserve, plus
# the forecast leg (training-time row and a /v1/forecast load with a
# mid-run swap and per-revision bit-parity audit).
serve-bench:
	$(GO) run ./cmd/icnbench -serve -scale 0.1 -trees 25 -servejson BENCH_serve.json

# Alternating A/B pairs of one perfbench workload: REF, checked out in a
# temporary git worktree, against the working tree, N pairs of 30 s runs
# (seed = pair number), with per-pair values, medians and win counts. Not
# run in CI. Example: make perf-pairs REF=HEAD~1 WORKLOAD=ingest_refresh N=10
REF ?= HEAD
WORKLOAD ?= ingest_refresh
N ?= 10
perf-pairs:
	./scripts/perf_pairs.sh $(REF) $(WORKLOAD) $(N)

# Every fuzz target for a short fixed slice each — the CI-sized sweep of
# the wire-format, CSV, and HTTP-body parsers, and of the forest's warm
# regrowth against a cold training.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzReaderNeverPanics -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run '^$$' -fuzz FuzzECGIDecode -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run '^$$' -fuzz FuzzWriterReaderRoundTrip -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run '^$$' -fuzz FuzzReadTraffic -fuzztime $(FUZZTIME) ./internal/dataio
	$(GO) test -run '^$$' -fuzz FuzzIngestBody -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzClassifyBody -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzForecastBody -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecodeClassify -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzClassifyFloat -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzRouterIngest -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzRouterPlan -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzRetrainMatchesTrain -fuzztime $(FUZZTIME) ./internal/forest
