#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs and exact counts of one
traced round of every workload at the default scenario seed, full size and
tiny. Run from the root of a checkout whose outputs are known good:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import shutil
import sys

from scenario import DEFAULT_SCENARIO_SEED, REFERENCE_FILE, WORK, WORKLOADS, build_bundle, import_edisco


def main() -> int:
    if not import_edisco():
        print("make_reference: edisco sources not found", file=sys.stderr)
        return 2
    from roundbench import one_round
    from tracing import Tracer

    reference = {}
    for name, workload in WORKLOADS.items():
        for size in ("tiny", "full"):
            directory = WORK / f"reference-{name}-{size}"
            try:
                _, setup, _ = build_bundle(workload, DEFAULT_SCENARIO_SEED, 1, size == "tiny", directory)
                tracer = Tracer()
                tracer.install()
                try:
                    outcome = one_round(setup, 1, tracer)
                finally:
                    tracer.uninstall()
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if outcome["error"] is not None:
                raise RuntimeError(f"{name} {size}: {outcome['error']}")
            reference.setdefault(name, {})[size] = {
                "tree_digest": outcome["tree_digest"],
                "plan_sha256": outcome["plan_sha256"],
                "counts": outcome["counts"],
            }
            print(f"{name} {size}: {outcome['seconds']:.2f} s", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
