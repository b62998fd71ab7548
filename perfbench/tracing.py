"""Spans and counts recorded from outside the program.

The tracer replaces the public functions that ``run_round`` and
``RunSetup.make_providers`` look up in ``edisco.rounds`` (plus
``edisco.placement.score_candidates`` and ``AggregationTree.digest``) with
wrappers that record a span per call, and wraps the provider objects that
``make_providers()`` returns in counting proxies. Nothing under ``src/`` is
edited. Spans are recorded on the calling (main) thread only; the
providers are called from worker pools, so they get counts and busy time,
not spans.
"""
from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager

# (module attribute, span name) pairs patched in edisco.rounds
ROUNDS_FUNCTIONS = (
    ("probe_many", "probing.probe_many"),
    ("build_tree", "topology.build_tree"),
    ("compute_centrality", "topology.compute_centrality"),
    ("identify_addresses", "discovery.identify_addresses"),
    ("discover_local_edges", "discovery.discover_local_edges"),
    ("annotate_tree", "discovery.annotate_tree"),
    ("plan_round", "placement.plan_round"),
    ("parse_zone", "zonefile.parse_zone"),
    ("ingest_recorded_paths", "topology.ingest_recorded_paths"),
)

# run_round phase -> spans whose durations must add up to it
PHASE_SPANS = {
    "probe": ("probing.probe_many",),
    "tree": ("topology.build_tree", "topology.compute_centrality"),
    "identify": ("discovery.identify_addresses",),
    "srv": ("discovery.discover_local_edges", "discovery.annotate_tree", "topology.digest"),
    "plan": ("placement.plan_round",),
    "install": ("redirect.install_rules",),
}
# the phase also holds run_round's own glue (address collection, sorting)
PHASE_TOLERANCE_S = 0.02
PHASE_TOLERANCE_SHARE = 0.05

LAYERS = ("rounds", "zonefile", "topology", "probing", "discovery", "placement", "redirect")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.round_id = 0
        self.counts: Counter = Counter()  # exact counts of the current round
        self.busy: Counter = Counter()  # provider busy seconds, by call kind
        self._lock = threading.Lock()
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        record = {
            "index": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round_id,
        }
        self._stack.append(record["index"])
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, result, args)
            return result

        return traced

    def count(self, key: str, busy_s: float | None = None):
        with self._lock:
            self.counts[key] += 1
            if busy_s is not None:
                self.busy[key] += busy_s

    def install(self):
        """Patch the module-level names; uninstall() puts them back."""
        import edisco.placement as placement
        import edisco.rounds as rounds
        from edisco.topology import AggregationTree

        observers = {
            "probe_many": _observe_probe,
            "build_tree": _observe_tree,
            "parse_zone": _observe_zone,
        }
        for attr, name in ROUNDS_FUNCTIONS:
            self._patch(rounds, attr, self.wrap(name, getattr(rounds, attr), observers.get(attr)))
        self._patch(
            placement,
            "score_candidates",
            self.wrap("placement.score_candidates", placement.score_candidates),
        )
        self._patch(AggregationTree, "digest", self.wrap("topology.digest", AggregationTree.digest))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def wrap_providers(self, providers):
        providers.prober = CountingProber(providers.prober, self)
        providers.resolver = CountingResolver(providers.resolver, self)
        if providers.whois is not None:
            providers.whois = CountingWhois(providers.whois, self)
        if providers.capacity is not None:
            providers.capacity = CountingCapacity(providers.capacity, self)

    def wrap_redirect(self, redirect):
        redirect.install_rules = self.wrap(
            "redirect.install_rules", redirect.install_rules, _observe_rules
        )

    def start_round(self, round_id: int):
        self.round_id = round_id
        self.counts = Counter()
        self.busy = Counter()

    def round_spans(self, round_id: int) -> list[dict]:
        return [s for s in self.spans if s["round"] == round_id]


def _observe_probe(counts, paths, args):
    counts["probe_clients"] += len(args[0])
    counts["paths"] += len(paths)


def _observe_tree(counts, tree, args):
    counts["nodes"] += len(tree.nodes)
    counts["client_paths"] += len(tree.client_paths)


def _observe_zone(counts, zone, args):
    counts["zone_records"] += len(zone.srv_records) + len(zone.a_records) + len(zone.ptr_records)


def _observe_rules(counts, table, args):
    counts["rules"] += len(table)


class _Counting:
    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def _timed(self, key, fn, *args):
        mark = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.tracer.count(key, time.perf_counter() - mark)


class CountingResolver(_Counting):
    def lookup_ptr(self, address):
        record = self._timed("ptr_lookups", self.inner.lookup_ptr, address)
        if record is not None:
            self.tracer.count("ptr_answers")
        return record

    def lookup_a(self, name):
        return self._timed("a_lookups", self.inner.lookup_a, name)

    def lookup_srv(self, qname):
        return self._timed("srv_lookups", self.inner.lookup_srv, qname)


class CountingWhois(_Counting):
    def domains_for(self, address):
        return self._timed("whois_lookups", self.inner.domains_for, address)


class CountingProber(_Counting):
    def probe(self, client):
        return self._timed("probes", self.inner.probe, client)


class CountingCapacity(_Counting):
    def request(self, server, cpu, bandwidth):
        response = self._timed("capacity_requests", self.inner.request, server, cpu, bandwidth)
        if response.accepted:
            self.tracer.count("capacity_accepts")
        return response


def _duration(span) -> float:
    return span["end"] - span["start"]


def round_layer_metrics(tracer: Tracer, round_id: int, phase_durations: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced round, plus any disagreement between
    the spans and the round's own phase_durations."""
    spans = tracer.round_spans(round_id)
    total: Counter = Counter()
    for s in spans:
        total[s["name"]] += _duration(s)
    counts = tracer.counts
    busy = tracer.busy
    resolver_calls = counts["ptr_lookups"] + counts["a_lookups"] + counts["srv_lookups"]
    resolver_busy = busy["ptr_lookups"] + busy["a_lookups"] + busy["srv_lookups"]
    metrics = {
        "rounds.providers_s": total["rounds.make_providers"],
        "zonefile.parse_s": total["zonefile.parse_zone"],
        "zonefile.records": counts["zone_records"],
        "topology.ingest_s": total["topology.ingest_recorded_paths"],
        "probing.probe_s": total["probing.probe_many"],
        "probing.paths_ok_ratio": _ratio(counts["paths"], counts["probe_clients"]),
        "topology.tree_s": total["topology.build_tree"] + total["topology.compute_centrality"],
        "topology.digest_s": total["topology.digest"],
        "topology.nodes": counts["nodes"],
        "topology.client_paths": counts["client_paths"],
        "discovery.identify_s": total["discovery.identify_addresses"],
        "discovery.srv_s": total["discovery.discover_local_edges"] + total["discovery.annotate_tree"],
        "discovery.ptr_lookups": counts["ptr_lookups"],
        "discovery.a_lookups": counts["a_lookups"],
        "discovery.srv_lookups": counts["srv_lookups"],
        "discovery.whois_lookups": counts["whois_lookups"],
        "discovery.lookup_us": 1e6 * resolver_busy / resolver_calls if resolver_calls else 0.0,
        "discovery.ptr_hit_ratio": _ratio(counts["ptr_answers"], counts["ptr_lookups"]),
        "placement.plan_s": total["placement.plan_round"],
        "placement.score_s": total["placement.score_candidates"],
        "placement.capacity_requests": counts["capacity_requests"],
        "placement.accept_ratio": _ratio(counts["capacity_accepts"], counts["capacity_requests"]),
        "redirect.install_s": total["redirect.install_rules"],
        "redirect.rules": counts["rules"],
    }
    for layer, seconds in layer_self_times(spans).items():
        metrics[f"{layer}.self_s"] = seconds
    problems = []
    for phase, names in PHASE_SPANS.items():
        if phase not in phase_durations:
            continue
        spanned = sum(total[n] for n in names)
        phase_s = phase_durations[phase]
        slack = PHASE_TOLERANCE_S + PHASE_TOLERANCE_SHARE * phase_s
        if not (spanned <= phase_s and phase_s - spanned <= slack):
            problems.append(
                f"round {round_id}: spans give {spanned:.4f} s for phase {phase!r},"
                f" phase_durations give {phase_s:.4f} s"
            )
    return metrics, problems


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (the module part of a span name): each span's
    duration minus the durations of its direct children, summed by layer."""
    children: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _duration(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + _duration(s) - children[s["index"]]
    return totals


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def median_metrics(per_round: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
