"""Timed rounds, run exactly as ``edisco run`` runs them.

run.py starts this as a fresh process after set-up, so that the process's
peak RSS covers loading the run config and the rounds and nothing else
(set-up alone peaks about as high as the rounds):

    python3 perfbench/roundbench.py --config BUNDLE/config.json \
        --seconds 40 --trace 0 --out rounds.json
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from scenario import import_edisco, plan_sha256
from tracing import Tracer, median_metrics, round_layer_metrics


def one_round(setup, round_id: int, tracer: Tracer | None = None) -> dict:
    """make_providers() plus run_round(), timed together: fixtures are
    re-read and re-parsed every round in production."""
    import edisco.rounds as rounds
    from edisco.redirect import RedirectService

    redirect = RedirectService()
    outcome = {"round_id": round_id, "error": None}
    mark = time.perf_counter()
    try:
        if tracer is None:
            record = rounds.run_round(
                setup.config, setup.services, setup.make_providers(),
                redirect=redirect, round_id=round_id,
            )
        else:
            tracer.start_round(round_id)
            with tracer.span("rounds.make_providers"):
                providers = setup.make_providers()
            tracer.wrap_providers(providers)
            tracer.wrap_redirect(redirect)
            with tracer.span("rounds.run_round"):
                record = rounds.run_round(
                    setup.config, setup.services, providers,
                    redirect=redirect, round_id=round_id,
                )
    except Exception as exc:  # a failed round is counted, not fatal
        outcome["seconds"] = time.perf_counter() - mark
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome["seconds"] = time.perf_counter() - mark
    outcome["tree_digest"] = record.tree_digest
    outcome["plan"] = record.plan.to_document()
    outcome["plan_sha256"] = plan_sha256(outcome["plan"])
    outcome["phase_durations"] = record.phase_durations
    outcome["rules"] = redirect.rule_count
    if tracer is not None:
        outcome["layers"], outcome["span_problems"] = round_layer_metrics(
            tracer, round_id, record.phase_durations
        )
        outcome["counts"] = dict(tracer.counts)
    return outcome


MIN_ROUNDS = 2  # the host's speed shifts between rounds; one sample is too few


def timed_rounds(seconds: float, step) -> list:
    """step(n) back to back: MIN_ROUNDS times, and again only while it is
    expected, at the last step's pace, to end within `seconds`."""
    results, last = [], 0.0
    start = time.perf_counter()
    while len(results) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        mark = time.perf_counter()
        results.append(step(len(results) + 1))
        last = time.perf_counter() - mark
    return results


def measure(setup, seconds: float, trace: bool) -> dict:
    """Untraced warm-up round, then the timed rounds. A traced measurement
    alternates traced and untraced rounds, so that the tracing overhead
    compares rounds taken at the same time on a host whose speed drifts."""
    out = {"warmup": one_round(setup, 0)}
    if not trace:
        out["rounds"] = timed_rounds(seconds, lambda n: one_round(setup, n))
    else:
        tracer = Tracer()

        def traced_then_untraced(n: int):
            tracer.install()
            try:
                traced = one_round(setup, 2 * n - 1, tracer)
            finally:
                tracer.uninstall()
            return traced, one_round(setup, 2 * n)

        pairs = timed_rounds(seconds, traced_then_untraced)
        out["rounds"] = [traced for traced, _ in pairs]
        out["untraced"] = [untraced for _, untraced in pairs]
        good = [r for r in out["rounds"] if r["error"] is None]
        if good:
            out["layers"] = median_metrics([r["layers"] for r in good])
        out["spans"] = tracer.spans
    for outcome in out["rounds"] + out.get("untraced", []):
        outcome.pop("plan", None)  # the warm-up's plan is the one served
    return out


def every_round(measured: dict) -> list[dict]:
    """Warm-up, timed and (traced runs) the untraced rounds between them."""
    return [measured["warmup"]] + measured["rounds"] + measured.get("untraced", [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="warm-up and timed rounds of one run config")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if not import_edisco():
        print("roundbench: edisco sources not found", file=sys.stderr)
        return 2
    from edisco.rounds import load_run_config

    measured = measure(load_run_config(args.config), args.seconds, bool(args.trace))
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(measured, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
