#!/usr/bin/env bash
# bench_gate.sh — benchmark-regression gate.
#
# Reruns the pipeline at the committed baseline's shape and fails (exit 1,
# with a per-stage table) when any stage — or the total — slows beyond the
# tolerance. The shape (seed, scale, k, trees) is read from the baseline
# record itself, so the gate cannot measure one shape against a baseline
# of another. The candidate takes the per-stage best over BENCH_GATE_RUNS
# reruns, and stages under the floor are held to the floor's limit, so
# scheduler noise on shared runners doesn't trip the gate.
#
# A second leg reruns the serving benchmark (classify p50/p99, one warm
# refresh cycle, forecast training, and a /v1/forecast load with a mid-run
# swap and bit-parity audit) and gates its latency rows against the
# committed BENCH_serve.json through the same per-stage comparison
# (-gatecompare). The candidate's row set is schema-validated: exactly
# classify_p50, classify_p99, refresh_warm, forecast_train, forecast_p50,
# forecast_p99 — a leg that stops emitting a gated row, or grows a row
# nothing ratchets, fails here instead of drifting.
#
# Knobs (environment):
#   BENCH_GATE_TOLERANCE      allowed fractional slowdown (default 0.25 = +25%)
#   BENCH_GATE_FLOOR_MS       per-stage noise floor in ms (default 120)
#   BENCH_GATE_RUNS           reruns, best wall gated     (default 2)
#   BENCH_GATE_MAX            absolute per-stage ceilings as stage=ms pairs
#                             (default "temporal=300,selection=130,outdoor=40"
#                             — the rebuilt hot stages' budget at the
#                             committed scale-0.25 shape; outdoor, the
#                             offline caller of the batch predict kernel,
#                             sits under the 120 ms floor and has no other
#                             gate; set empty to disable, and override when
#                             gating a baseline of another shape)
#   BENCH_GATE_BASELINE       baseline JSON               (default BENCH_baseline.json)
#   BENCH_GATE_SERVE_BASELINE serving baseline JSON       (default BENCH_serve.json;
#                             set empty to skip the serving leg)
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${BENCH_GATE_TOLERANCE:-0.25}"
FLOOR_MS="${BENCH_GATE_FLOOR_MS:-120}"
RUNS="${BENCH_GATE_RUNS:-2}"
GATE_MAX="${BENCH_GATE_MAX-temporal=300,selection=130,outdoor=40}"
BASELINE="${BENCH_GATE_BASELINE:-BENCH_baseline.json}"
SERVE_BASELINE="${BENCH_GATE_SERVE_BASELINE-BENCH_serve.json}"

# Pinned gate-row schema for the serving record.
SERVE_ROWS="classify_p50,classify_p99,refresh_warm,forecast_train,forecast_p50,forecast_p99"

go run ./cmd/icnbench \
  -gate "$BASELINE" \
  -gatetolerance "$TOLERANCE" \
  -gatefloor "$FLOOR_MS" \
  -gateruns "$RUNS" \
  -gatemax "$GATE_MAX"

if [[ -n "$SERVE_BASELINE" && -f "$SERVE_BASELINE" ]]; then
  echo "bench gate: serving leg (baseline $SERVE_BASELINE)"
  serve_json="$(mktemp)"
  trap 'rm -f "$serve_json"' EXIT
  # The candidate must be measured at the committed baseline's shape.
  go run ./cmd/icnbench -serve -scale 0.1 -trees 25 -servejson "$serve_json"
  go run ./cmd/icnbench \
    -gate "$SERVE_BASELINE" -gatecompare "$serve_json" \
    -gatetolerance "$TOLERANCE" \
    -gatefloor "$FLOOR_MS" \
    -gateexpect "$SERVE_ROWS"
fi
