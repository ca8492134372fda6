GO ?= go

.PHONY: build lint test race bench bench-gate bench-baseline artifacts serve-bench shard-bench fuzz-short

build:
	$(GO) build ./...

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
# shape and fail when any stage (or the total) slows beyond the tolerance.
# Env knobs (BENCH_GATE_TOLERANCE, BENCH_GATE_RUNS, ...) are documented in
# scripts/bench_gate.sh.
bench-gate:
	./scripts/bench_gate.sh

# Refresh the committed gate baseline from a best-of-3 measurement on this
# machine (the printed verdict against the old baseline is informational —
# a refresh after an intentional slowdown is allowed to "fail" the gate).
# Run after intentional performance changes, commit the result.
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

# Full nationwide-scale sharded benchmark: scale 1.0 (4,762 indoor +
# 22,000 outdoor antennas), 2M probe sessions through 4 shards and 2
# replicas with mid-run kills. Refreshes the committed BENCH_shard.json
# gate baseline; run after intentional performance changes and commit.
shard-bench:
	$(GO) run ./cmd/icnbench -shards 4 -replicas 2 -shardjson BENCH_shard.json

# Every fuzz target for a short fixed slice each — the CI-sized sweep of
# the wire-format, CSV, and HTTP-body parsers.
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
