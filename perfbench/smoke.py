#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny scenarios (about 50
clients), in well under a minute. Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that every workload runs end to end in both modes, correct and
with exactly the metrics BENCHMARK.json declares; that a scenario seed
without stored outputs is checked too; that a deliberately wrong reference
drives failed_ratio to 1.0; and that without the program's sources the
benchmark exits non-zero and prints no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from scenario import REFERENCE_FILE, ROOT, WORK, WORKLOADS

RUN = [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "1", "--seed", "7"]


def run(extra: list[str], cwd=ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(RUN + extra, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and result is not None:
        raise AssertionError(f"{extra}: exit {proc.returncode} but printed a result")
    return proc.returncode, result


def expect(condition: bool, what: str):
    if not condition:
        raise AssertionError(what)
    print(f"ok  {what}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(["--workload", workload, "--trace", str(trace)])
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: correct, no failures")
            expect(set(result["metrics"]) == names[trace],
                   f"{workload} trace={trace}: metrics are exactly the declared ones")
            if trace == 0:
                expect(all(m["value"] != 0 for m in result["metrics"].values()),
                       f"{workload}: no end-to-end metric is 0")

    code, result = run(["--workload", "round_plan", "--scenario-seed", "5", "--trace", "1"])
    expect(code == 0 and result["correct"], "round_plan at an unreferenced scenario seed: correct")

    wrong = json.loads(REFERENCE_FILE.read_text())
    for entry in wrong.values():
        entry["tiny"]["tree_digest"] = "0" * 64
    WORK.mkdir(exist_ok=True)
    wrong_path = WORK / "wrong-reference.json"
    wrong_path.write_text(json.dumps(wrong))
    for workload in WORKLOADS:
        code, result = run(["--workload", workload, "--reference", str(wrong_path)])
        expect(code == 0 and not result["correct"] and result["failed"] == result["attempted"],
               f"{workload}: a wrong reference gives failed_ratio 1.0")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result = run(["--workload", "round_plan"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(code != 0 and result is None, "without the sources: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
