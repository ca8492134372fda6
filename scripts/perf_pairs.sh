#!/usr/bin/env bash
# perf_pairs.sh — alternating A/B pairs of one perfbench workload.
#
# Usage:
#   scripts/perf_pairs.sh REF WORKLOAD N
#   make perf-pairs REF=HEAD~1 WORKLOAD=ingest_refresh N=10
#
# Checks REF out into a temporary git worktree and runs N pairs of
#   bash perfbench/run.sh --workload WORKLOAD --seed k --seconds 30 --trace 0
# for k = 1..N: one run in that worktree ("ref") and one in the working
# tree ("work"). The side that runs first flips every pair, so a drift in
# the machine's load does not favour one side. It then prints each pair's
# end-to-end metrics (the `end_to_end` list of BENCHMARK.json), each
# side's medians, how many pairs each side won per metric, and every run
# whose result line is not `correct: true` with 0 failed. The worktree is
# removed on exit.
#
# The script only reads perfbench/ and BENCHMARK.json. Each side builds
# into its own tree's .bench_build/. CI does not run it: a pair takes
# about two minutes.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 REF WORKLOAD N" >&2
  exit 2
fi
ref="$1" workload="$2" pairs="$3"
seconds=30
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
  echo "perf_pairs: N must be a positive integer, got '$pairs'" >&2
  exit 2
fi

root="$(git rev-parse --show-toplevel)"
cd "$root"
sha="$(git rev-parse --verify "$ref^{commit}")"
tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/ref" >/dev/null 2>&1 || true
  git -C "$root" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/ref" "$sha"

# run SIDE SEED: one benchmark run; its result line (the last line of
# its stdout) goes to $tmp/SIDE-SEED.json. A failed run's stderr tail is
# echoed, since $tmp is removed on exit.
run() {
  local side="$1" seed="$2" tree="$root"
  [[ "$side" == ref ]] && tree="$tmp/ref"
  echo "perf_pairs: pair $seed, $side" >&2
  if ! (cd "$tree" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0) >"$tmp/$side-$seed.out" 2>"$tmp/$side-$seed.log"; then
    echo "perf_pairs: pair $seed, $side exited non-zero; its last stderr lines:" >&2
    tail -n 5 "$tmp/$side-$seed.log" >&2
  fi
  tail -n 1 "$tmp/$side-$seed.out" >"$tmp/$side-$seed.json"
}

for ((k = 1; k <= pairs; k++)); do
  if ((k % 2)); then
    run ref "$k"
    run work "$k"
  else
    run work "$k"
    run ref "$k"
  fi
done

echo "perf_pairs: $workload, ref $ref ($sha) against the working tree, $pairs pairs of ${seconds}s"
python3 - "$tmp" "$pairs" <<'EOF'
import json
import statistics
import sys

tmp, pairs = sys.argv[1], int(sys.argv[2])
with open("BENCHMARK.json") as f:
    metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]


def load(side, seed):
    try:
        with open(f"{tmp}/{side}-{seed}.json") as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None


runs = {(side, k): load(side, k) for side in ("ref", "work") for k in range(1, pairs + 1)}
value = {}
bad = []
for (side, k), res in runs.items():
    if res is None:
        bad.append(f"pair {k} {side}: no result line")
        continue
    if res.get("correct") is not True or res.get("failed", 0) != 0:
        bad.append(f"pair {k} {side}: correct {res.get('correct')}, failed {res.get('failed')}")
    for name, _ in metrics:
        m = res.get("metrics", {}).get(name)
        if m is not None:
            value[(side, k, name)] = m["value"]

head = f"{'pair':>4} {'first':>5}" + "".join(f" {name + ' ref/work':>26}" for name, _ in metrics)
print(head)
for k in range(1, pairs + 1):
    row = f"{k:>4} {'ref' if k % 2 else 'work':>5}"
    for name, _ in metrics:
        a, b = value.get(("ref", k, name)), value.get(("work", k, name))
        cell = f"{a:.3f}/{b:.3f}" if a is not None and b is not None else "n/a"
        row += f" {cell:>26}"
    print(row)

med = f"{'median':>10}"
won = f"{'work won':>10}"
for name, better in metrics:
    ks = [k for k in range(1, pairs + 1) if ("ref", k, name) in value and ("work", k, name) in value]
    if not ks:
        med += f" {'n/a':>26}"
        won += f" {'n/a':>26}"
        continue
    a = [value[("ref", k, name)] for k in ks]
    b = [value[("work", k, name)] for k in ks]
    sign = 1 if better == "lower" else -1
    work_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    ref_wins = sum(1 for x, y in zip(a, b) if sign * (x - y) < 0)
    change = (statistics.median(b) / statistics.median(a) - 1) * 100 if statistics.median(a) else float("nan")
    med += f" {f'{statistics.median(a):.3f}/{statistics.median(b):.3f} ({change:+.1f}%)':>26}"
    won += f" {f'{work_wins}/{len(ks)} (ref {ref_wins})':>26}"
print(med)
print(won)
for line in bad:
    print("NOT CORRECT:", line)
sys.exit(1 if bad else 0)
EOF
