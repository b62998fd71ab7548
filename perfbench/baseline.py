#!/usr/bin/env python3
"""Run the benchmark as its acceptance check does and summarise it. For
each of two sets, every workload runs once per run seed (a fresh process
each time); per workload and end-to-end metric the summary holds the
values, their median and the quartile spread as a share of the median,
next to the metric's bound, plus how far the second set's median moved
from the first's. One traced run per workload gives the per-layer
medians. Run from a checkout's root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_baseline.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from scenario import ROOT, WORKLOADS

SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    mark = time.perf_counter()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    wall = time.perf_counter() - mark
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """How far the second median is worse than the first, as a share of it."""
    return (second - first) / first if better == "lower" else (first - second) / first


def untraced_set(workload: str, seeds: list[int], seconds: int, bounds: dict) -> dict:
    values: dict[str, list[float]] = {}
    walls, correct, failed, attempted = [], True, 0, 0
    for seed in seeds:
        result, wall = one_run(workload, seed, seconds, 0)
        walls.append(wall)
        correct &= result["correct"]
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: {wall:.1f} s wall, "
              + ", ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    end_to_end = {}
    for name, vals in values.items():
        end_to_end[name] = dict(spread(vals), bound=bounds[name])
        ok = "ok" if name == "setup_s" or end_to_end[name]["spread"] < bounds[name] / 3 else "WIDE"
        print(f"  {name:14s} median {end_to_end[name]['median']:10.4g}"
              f"  spread {end_to_end[name]['spread']:6.3f}  bound {bounds[name]}  {ok}", flush=True)
    return {
        "correct": correct,
        "failed_ratio": failed / attempted,
        "attempted": attempted,
        "end_to_end": end_to_end,
        "wall_s": walls,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seed_sets = [list(range(1 + k * args.runs, 1 + (k + 1) * args.runs)) for k in range(SETS)]
    summary = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "run_seconds": seconds,
            "runs": args.runs,
            "seeds": seed_sets,
            "traffic": "loopback only (127.0.0.0/8 on one host); no network link was crossed",
        },
        "workloads": {},
    }
    for k, seeds in enumerate(seed_sets):
        for workload in WORKLOADS:
            entry = summary["workloads"].setdefault(workload, {"sets": []})
            entry["sets"].append(untraced_set(workload, seeds, seconds, bounds))
    for workload, entry in summary["workloads"].items():
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["median_worsening"] = {
            name: worsening(first[name]["median"], second[name]["median"], better[name]) for name in first
        }
        for name, share in entry["median_worsening"].items():
            ok = "ok" if share <= bounds[name] else "WORSE"
            print(f"{workload} {name:14s} second median worse by {share:+.3f}  bound {bounds[name]}  {ok}")
        result, wall = one_run(workload, 1, seconds, 1)
        entry["traced"] = {
            "correct": result["correct"],
            "per_layer": {n: m["value"] for n, m in result["metrics"].items()},
            "wall_s": wall,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
