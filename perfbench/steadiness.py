#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/steadiness.py --workload query_mix --seeds 1-10

For every metric of the result line it prints the ten values, their median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
steady for the benchmark when its spread stays below a third of its bound
in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def cpu_times():
    """The machine's aggregate CPU counters from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """The share of CPU time the hypervisor stole between two readings:
    co-tenants' load, which no run of the benchmark controls."""
    if not before or not after or len(after) < 8:
        return "n/a"
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return f"{delta[7] / total:.0%}" if total else "n/a"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        before = cpu_times()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        steal = steal_share(before, cpu_times())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"seed {seed} (steal {steal}): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            print(f"{name:<28} {med:>12.4g}")
            continue
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:<28} {med:>12.4g} {spread:>8.3f} {bound if bound is not None else '':>6}  {verdict}")


if __name__ == "__main__":
    main()
