"""Workload definitions, bundle set-up and output digests.

Each workload is a fixed-size scenario generated from the *scenario seed*
(default 1). The run seed (``--seed``) only permutes the order of the
client list and of the recorded traces, and draws the HTTP request mix.
Round results must not depend on that order, so at the default scenario
seed every round of every run is compared against the stored reference.
Round time varies by about +-20 % between scenario seeds at these sizes,
which is why the run seed does not pick the scenario.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SCENARIO_SEED = 1
TINY_CLIENTS = 50


def import_edisco():
    """Put the checkout's sources on the path; False when they are absent."""
    if not (SRC / "edisco" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict

    def scenario_spec(self, scenario_seed: int, tiny: bool):
        from edisco.simharness import ScenarioSpec

        fields = dict(self.spec, seed=scenario_seed)
        if tiny:
            fields["clients"] = TINY_CLIENTS
        return ScenarioSpec(**fields)


WORKLOADS = {
    w.name: w
    for w in (
        # planner-bound: score_candidates is ~90 % of the round; its plan
        # gives the front end a full rule table. 3k, not 5k, clients keep
        # two rounds and the front-end load near half a minute
        Workload("round_plan", {"clients": 3000, "services": 10}),
        # discovery-bound mirror image: no services, half the router PTRs
        # missing (whois fallback), silent hops (splicing); its empty plan
        # makes every front-end request pass through. 10k, not 20k, clients
        # keep a run near half a minute
        Workload(
            "round_survey",
            {
                "clients": 10000,
                "services": 0,
                "ptr_missing_rate": 0.5,
                "unknown_hop_rate": 0.05,
            },
        ),
    )
}


def plan_sha256(plan_doc: dict) -> str:
    """Digest of the canonical plan document. round_id is left out: it is
    the round's sequence number, not a result."""
    canonical = {k: v for k, v in plan_doc.items() if k != "round_id"}
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: Path, workload: str, tiny: bool) -> dict | None:
    """Stored outputs for the default scenario seed: tree_digest,
    plan_sha256 and the exact per-round counts."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc.get(workload, {}).get("tiny" if tiny else "full")


def build_bundle(workload: Workload, scenario_seed: int, run_seed: int, tiny: bool, directory: Path):
    """One timed set-up: generate the scenario, permute its order by the
    run seed, write the bundle and load the run config, as ``edisco gen``
    followed by ``edisco run`` would. Returns (bundle, setup, gen_s)."""
    from edisco.rounds import load_run_config
    from edisco.simharness import generate_scenario

    mark = time.perf_counter()
    bundle = generate_scenario(workload.scenario_spec(scenario_seed, tiny), include_expected=False)
    gen_s = time.perf_counter() - mark
    rng = random.Random(run_seed)
    rng.shuffle(bundle.clients)
    rng.shuffle(bundle.traces)
    bundle.write(directory)
    setup = load_run_config(directory / "config.json")
    return bundle, setup, gen_s
