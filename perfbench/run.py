#!/usr/bin/env python3
"""edisco benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload round_plan --seed 3 --seconds 40 --trace 0

Run from the root of a checkout. Workloads, metrics and their meaning are
described in perfbench/README.md. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. Spans
and an environment record are written under .perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from httpbench import CONNECTIONS
from scenario import (
    DEFAULT_SCENARIO_SEED,
    REFERENCE_FILE,
    ROOT,
    WORK,
    WORKLOADS,
    build_bundle,
    import_edisco,
    load_reference,
)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
ROUNDS_TIMEOUT_S = 170
RESOLVE_SECONDS = 0.5


def declared_units() -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


class Report:
    def __init__(self, args):
        self.args = args
        self.units = declared_units()
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.attempted = {"rounds": 0, "requests": 0}
        self.failed = {"rounds": 0, "requests": 0}
        self.problems: list[str] = []

    def metric(self, name: str, value: float, samples: int = 1):
        self.metrics[name] = value
        self.samples[name] = samples

    def check_rounds(self, rounds: list[dict], reference: dict | None) -> bool:
        """Every round against the stored reference, or against the run's
        first round when the scenario seed has no reference."""
        first = rounds[0]
        if reference is not None:
            expected = (reference["tree_digest"], reference["plan_sha256"])
        elif first["error"] is None:
            expected = (first["tree_digest"], first["plan_sha256"])
        else:
            expected = None
        bad = 0
        for r in rounds:
            if r["error"] is not None:
                self.problems.append(f"round {r['round_id']} raised {r['error']}")
                bad += 1
            elif (r["tree_digest"], r["plan_sha256"]) != expected:
                self.problems.append(f"round {r['round_id']}: outputs differ from the reference")
                bad += 1
        self.attempted["rounds"] += len(rounds)
        self.failed["rounds"] += bad
        return bad == 0

    def check_counts(self, rounds: list[dict], reference: dict | None):
        """Counting-proxy counts must repeat exactly: across the traced
        rounds of this run, and across runs at the same scenario seed."""
        args = self.args
        key = f"{args.workload}-{args.scenario_seed}-{size(args)}"
        counts = [r["counts"] for r in rounds if r["error"] is None]
        if not counts:
            return
        if any(c != counts[0] for c in counts):
            self.problems.append("counts differ between the traced rounds of one run")
        if reference is not None:
            stored = reference["counts"]
        else:
            path = WORK / "counts" / f"{key}.json"
            if not path.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(counts[0], sort_keys=True))
            stored = json.loads(path.read_text())
        if counts[0] != stored:
            self.problems.append(f"counts {counts[0]} differ from the stored {stored}")

    def http(self, stats: dict, plan_ok: bool):
        self.attempted["requests"] += stats["attempted"]
        failed = stats["failed"] if plan_ok else stats["attempted"]
        if failed:
            self.problems.append(f"{failed} of {stats['attempted']} requests failed"
                                 + ("" if plan_ok else " (served plan not verified)"))
        self.failed["requests"] += failed
        if self.args.trace:
            # samples: windows; the requests are counted in `attempted`
            for name in ("rps", "p50_ms", "p99_ms"):
                self.metric(f"redirect.http_{name}", stats[name], stats["windows"])
            self.metric("redirect.server_busy_ratio", stats["server_busy_ratio"])
            self.metric("bench.client_busy_ratio", stats["client_busy_ratio"])

    def traced(self, measured: dict, gen_s: list[float], reference: dict | None):
        self.check_counts(measured["rounds"], reference)
        traced = [r for r in measured["rounds"] if r["error"] is None]
        for name, value in measured.get("layers", {}).items():
            self.metric(name, value, len(traced))
        for r in traced:
            self.problems.extend(r["span_problems"])
        self.metric("simharness.gen_s", statistics.median(gen_s), len(gen_s))
        untraced = [r for r in measured["untraced"] if r["error"] is None]
        if traced and untraced:
            self.metric(
                "bench.trace_overhead_s",
                statistics.median(r["seconds"] for r in traced)
                - statistics.median(r["seconds"] for r in untraced),
                len(traced),
            )

    def environment(self) -> dict:
        args = self.args
        return {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "workload": args.workload,
            "seed": args.seed,
            "scenario_seed": args.scenario_seed,
            "tiny": args.tiny,
            "seconds": args.seconds,
            "trace": args.trace,
            "samples": self.samples,
            "traffic": "loopback only (127.0.0.0/8 on one host); no network link was crossed",
            "connections": CONNECTIONS,
        }

    def emit(self, spans: list | None) -> int:
        args = self.args
        attempted = sum(self.attempted.values())
        failed = sum(self.failed.values())
        correct = failed == 0 and not self.problems and attempted > 0
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "environment": self.environment(),
            "metrics": {n: {"value": v, "unit": self.units[n], "samples": self.samples[n]}
                        for n, v in self.metrics.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_ratio": failed / attempted if attempted else 1.0,
            "problems": self.problems,
        }
        (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
        if spans is not None:
            (results / f"{stem}-spans.json").write_text(json.dumps(spans))
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
        for name, value in sorted(self.metrics.items()):
            print(f"  {name:30s} {value:14.6g} {self.units[name]:6s} (n={self.samples[name]})")
        print(f"  {'failed_ratio':30s} {record['failed_ratio']:14.6g} ratio  "
              f"({failed} failed of {self.attempted['rounds']} rounds"
              f" + {self.attempted['requests']} requests)")
        for problem in self.problems[:20]:
            print(f"  problem: {problem}")
        print("env " + json.dumps(record["environment"], sort_keys=True))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": self.units[n]} for n, v in self.metrics.items()},
        }))
        return 0


def rule_count(plan_doc: dict) -> int:
    return len({(a["service_id"], p) for a in plan_doc["assignments"] for p in a["coverage"]})


def timed_setups(workload, args, work: Path):
    setup_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        mark = time.perf_counter()
        bundle, _, gen = build_bundle(workload, args.scenario_seed, args.seed, args.tiny, work / "bundle")
        setup_s.append(time.perf_counter() - mark)
        gen_s.append(gen)
    return bundle, setup_s, gen_s


def run_workload(workload, args, reference, work: Path, report: Report):
    """Set-ups, then the rounds, then the front end serving the plan the
    rounds made, each phase measured in turn."""
    from edisco.simharness import validate_bundle
    from httpbench import FrontEnd, build_mix, closed_loop, remap_plan, resolve_rate
    from roundbench import every_round

    bundle, setup_s, gen_s = timed_setups(workload, args, work)
    if reference is None:
        for v in validate_bundle(bundle):
            report.problems.append(f"invalid bundle: {v.location}: {v.message}")
    clients = list(bundle.clients)
    del bundle  # a lighter heap means shorter collector pauses in the load generator

    out = work / "rounds.json"
    subprocess.run(
        [sys.executable, str(HERE / "roundbench.py"), "--config", str(work / "bundle" / "config.json"),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
        cwd=ROOT, stdin=subprocess.DEVNULL, timeout=ROUNDS_TIMEOUT_S, check=True,
    )
    measured = json.loads(out.read_text())
    plan_ok = report.check_rounds(every_round(measured), reference)
    if args.trace:
        report.traced(measured, gen_s, reference)
    else:
        timed = measured["rounds"]
        report.metric("setup_s", statistics.median(setup_s), len(setup_s))
        report.metric("round_s", statistics.median(r["seconds"] for r in timed), len(timed))
        report.metric("peak_rss_mb", measured["peak_rss_mb"])
    if measured["warmup"]["error"] is not None:
        return measured.get("spans")

    served = remap_plan(measured["warmup"]["plan"])
    (work / "plan.json").write_text(json.dumps(served))
    front = FrontEnd(work / "plan.json", work / "frontend.log").start()
    try:
        if front.rules != rule_count(served):
            report.problems.append(f"front end serves {front.rules} rules, the plan has {rule_count(served)}")
        mix = build_mix(served, clients, random.Random(args.seed))
        report.http(closed_loop(front, mix), plan_ok)
        if args.trace:
            report.metric("redirect.server_rss_mb", front.peak_rss_mb())
    finally:
        front.stop()
    if args.trace:
        report.metric("redirect.resolve_per_s", resolve_rate(served, mix, RESOLVE_SECONDS))
    return measured.get("spans")


def size(args) -> str:
    return "tiny" if args.tiny else "full"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="edisco benchmark, one run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="run seed: input order and request mix")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=DEFAULT_SCENARIO_SEED,
                        help="ScenarioSpec seed; only the default has stored reference outputs")
    parser.add_argument("--tiny", action="store_true", help="about 50 clients per workload (smoke test)")
    parser.add_argument("--reference", type=Path, default=REFERENCE_FILE)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the round process and the front
    # end are stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not import_edisco():
        print(f"perfbench: no edisco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = None
    if args.scenario_seed == DEFAULT_SCENARIO_SEED:
        reference = load_reference(args.reference, workload.name, args.tiny)
        if reference is None:
            print(f"perfbench: {args.reference} has no {size(args)} entry for {workload.name}",
                  file=sys.stderr)
            return 2
    report = Report(args)
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spans = run_workload(workload, args, reference, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report.emit(spans)


if __name__ == "__main__":
    sys.exit(main())
