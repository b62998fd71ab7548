"""Round orchestration.

A round is one pass of the whole protocol: probe every configured client,
fold the paths into an aggregation tree, identify and annotate the nodes,
then rank, score, negotiate, and install redirect rules. Rounds rebuild
everything from the fixtures they re-read, with one exception: the recorded
traces are re-parsed only when the trace file's bytes change. Besides that
parse, the only state that crosses a round boundary is the redirect table,
which the next install replaces atomically.

Every external dependency (prober, resolver, whois, capacity, clock) is an
injected provider with both live and fixture implementations, so a full
round runs offline from a scenario bundle. A round aborts only when
probing obtains zero paths; _Degrading is the one policy that decides
which failures of the prober, resolver and whois service a round survives.

`edisco run` repeats rounds with run_every, a coroutine on the same asyncio
loop that serves the redirects; each round runs on a worker thread so the
loop keeps serving.

A round defers the cyclic collector's young-generation trigger: while it
runs, a gen-0 collection waits for ROUND_GEN0_THRESHOLD net container
allocations instead of the caller's threshold (700 by default), and the
round ends with one collection of the two young generations. With the
default thresholds, a 10,000-client round triggers about 120 young
collections and one full one, which walks every live object, the parsed
traces above all. The collector is not switched off and not frozen: the
front end goes on serving while a round runs, and each connection it
serves leaves a reference cycle behind (7 objects on CPython 3.11), so at
most ROUND_GEN0_THRESHOLD such objects wait for a collection.
"""
from __future__ import annotations

import asyncio
import gc
import json
import logging
import math
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .discovery import (
    FixtureWhois,
    LiveWhois,
    Resolver,
    StubResolver,
    WhoisService,
    annotate_tree,
    discover_local_edges,
    identify_addresses,
)
from .errors import (
    EdiscoError,
    EmptyInputError,
    InvalidPeriodError,
    MalformedFixtureError,
    MalformedZoneError,
    RoundAbortedError,
)
from .placement import (
    CapacityService,
    FixtureCapacityService,
    PlacementPlan,
    ServiceProfile,
    load_service_profiles,
    plan_round,
)
from .probing import FixtureProber, ProbeConfig, TracerouteProber, probe_many
from .topology import (
    DEFAULT_PREFIX_LEN,
    AggregationTree,
    _refused,
    _typed,
    address_int,
    build_tree,
    compute_centrality,
    ingest_recorded_paths,
)
from .zonefile import parse_zone

logger = logging.getLogger(__name__)

ROUND_FORMAT = "edisco-round/1"
MIN_PERIOD_S = 60.0  # the shortest period `edisco run` serves rounds at
ROUND_GEN0_THRESHOLD = 100_000  # the collector's young-generation trigger during a round


@dataclass(frozen=True)
class RoundConfig:
    """A round's settings, checked here and nowhere else. A bad period
    raises InvalidPeriodError, no clients EmptyInputError, a bad prefix
    length or root ValueError; each message names its run-config key."""

    root_address: str
    clients: tuple[str, ...]
    period_s: float = 300.0
    prefix_len: int = DEFAULT_PREFIX_LEN

    def __post_init__(self):
        # type() rather than isinstance(): JSON true and false are no numbers
        if type(self.period_s) not in (int, float) or not 0 < self.period_s < math.inf:
            raise InvalidPeriodError(f"'period_s': {self.period_s!r} is not a positive number")
        if type(self.prefix_len) is not int or not 0 <= self.prefix_len <= 32:
            raise ValueError(f"'prefix_len': {self.prefix_len!r} is not an integer from 0 to 32")
        try:
            address_int(self.root_address)
        except ValueError as exc:
            raise ValueError(f"'root': {exc}") from None
        if not self.clients:
            raise EmptyInputError("'clients': no client addresses configured")


@dataclass
class RoundProviders:
    prober: object
    resolver: Resolver
    whois: WhoisService | None = None
    capacity: CapacityService | None = None
    clock: Callable[[], float] = time.time


@dataclass(frozen=True)
class RoundRecord:
    round_id: int
    started_at: float
    finished_at: float
    tree_digest: str
    plan: PlacementPlan
    phase_durations: dict[str, float] = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "format": ROUND_FORMAT,
            "round_id": self.round_id,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "tree_digest": self.tree_digest,
            "phase_durations": dict(self.phase_durations),
            "plan": self.plan.to_document(),
        }


class _Degrading:
    """The one place that decides which provider failures a round survives:
    around a prober, a resolver or a whois service, whichever methods of
    the five it has, it turns a failure into an empty answer.

    A client whose probe fails drops out; a node a dead resolver or registry
    cannot identify stays unknown and carries no edge servers. Any
    EdiscoError or OSError counts as a failure; anything else propagates.
    """

    def __init__(self, inner):
        self.inner = inner

    @staticmethod
    def _try(kind: str, lookup, key: str, empty):
        try:
            return lookup(key)
        except (EdiscoError, OSError) as exc:
            logger.warning("%s failed for %s: %s", kind, key, exc)
            return empty

    def probe(self, client: str):
        return self._try("probe", self.inner.probe, client, None)

    def lookup_ptr(self, address: str):
        return self._try("ptr lookup", self.inner.lookup_ptr, address, None)

    def lookup_a(self, name: str):
        return self._try("a lookup", self.inner.lookup_a, name, [])

    def lookup_srv(self, qname: str):
        return self._try("srv lookup", self.inner.lookup_srv, qname, [])

    def domains_for(self, address: str):
        return self._try("whois lookup", self.inner.domains_for, address, [])


class _YoungCollectionDeferral:
    """Raises the cyclic collector's gen-0 threshold to ROUND_GEN0_THRESHOLD
    while at least one round runs. When the last running round ends, by
    return or by raise, it puts back the thresholds it found and collects
    generations 0 and 1, which takes every cycle the rounds made unless the
    collector had moved it to the oldest generation before.

    The thresholds belong to the process, so one instance serves every
    round, and rounds that overlap on several threads share its count under
    a lock. A caller's threshold that is higher already, or 0, is kept;
    with automatic collection off (gc.disable() or a threshold of 0),
    nothing is collected. gc.isenabled() is never changed.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._rounds = 0
        self._found = gc.get_threshold()

    def __enter__(self):
        with self._lock:
            if not self._rounds:
                self._found = gc.get_threshold()
                if 0 < self._found[0] < ROUND_GEN0_THRESHOLD:
                    gc.set_threshold(ROUND_GEN0_THRESHOLD, *self._found[1:])
            self._rounds += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._rounds -= 1
            if not self._rounds:
                gc.set_threshold(*self._found)
                if gc.isenabled() and self._found[0]:
                    gc.collect(1)  # the young garbage the rounds left


_young_collection_deferred = _YoungCollectionDeferral()


@contextmanager
def _timed(durations: dict[str, float], phase: str):
    """Adds the block's wall time to durations[phase]."""
    mark = time.perf_counter()
    yield
    durations[phase] = durations.get(phase, 0.0) + time.perf_counter() - mark


def make_resolver(zone=None, nameservers: list[str] | None = None) -> Resolver:
    """The parsed zone fixture in file `zone`, which answers lookups
    itself; without one, the live DNS stub, which asks the recursive
    servers `nameservers` (default: those in /etc/resolv.conf)."""
    if zone is None:
        return StubResolver(nameservers)
    with open(zone, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedZoneError(f"{zone}: not UTF-8 text: {exc}") from None
    return parse_zone(text)


def discover_phase(
    tree: AggregationTree, resolver: Resolver, whois: WhoisService | None = None
) -> dict[str, float]:
    """Identify every node's member addresses (PTR, then whois), look up
    each domain's `_edge` servers and annotate the tree in place.

    Lookup failures degrade to empty answers. Returns the durations of the
    identify and srv phases.
    """
    resolver = _Degrading(resolver)
    whois = _Degrading(whois) if whois is not None else None
    durations: dict[str, float] = {}

    with _timed(durations, "identify"):
        addresses = set()
        for node in tree.nodes.values():
            addresses.update(node.member_addresses)
        identities = identify_addresses(addresses, resolver, whois)

    with _timed(durations, "srv"):
        domains = sorted({i.domain for i in identities.values() if i.domain})
        edges = {domain: discover_local_edges(domain, resolver) for domain in domains}
        annotate_tree(tree, identities, edges)
    return durations


def run_round(
    config: RoundConfig,
    services: list[ServiceProfile],
    providers: RoundProviders,
    redirect=None,
    round_id: int = 1,
) -> RoundRecord:
    """One full round: discovery phase, then deployment phase.

    Probe and lookup failures degrade (the affected client or node drops
    out, see _Degrading); only a round that obtains zero paths aborts. When
    a redirect service is passed, the new rules expire at start + period.
    """
    with _young_collection_deferred:  # collects once _run_round's frame, and its tree, is gone
        return _run_round(config, services, providers, redirect, round_id)


def _run_round(config, services, providers, redirect, round_id) -> RoundRecord:
    started_at = providers.clock()
    durations: dict[str, float] = {}

    with _timed(durations, "probe"):
        paths = probe_many(config.clients, _Degrading(providers.prober))
    if not paths:
        raise RoundAbortedError(f"round {round_id}: zero paths obtained")

    with _timed(durations, "tree"):
        tree = build_tree(paths, config.root_address, config.prefix_len)
        compute_centrality(tree)

    durations.update(discover_phase(tree, providers.resolver, providers.whois))
    with _timed(durations, "srv"):  # the digest of the annotated tree
        tree_digest = tree.digest()

    with _timed(durations, "plan"):
        plan = plan_round(tree, services, providers.capacity, round_id=round_id)

    if redirect is not None:
        with _timed(durations, "install"):
            redirect.install_rules(plan, round_deadline=started_at + config.period_s)

    finished_at = providers.clock()
    record = RoundRecord(
        round_id=round_id,
        started_at=started_at,
        finished_at=max(finished_at, started_at),
        tree_digest=tree_digest,
        plan=plan,
        phase_durations=durations,
    )
    logger.info(
        "round %d: %d paths, %d assignments, %d unplaced",
        round_id,
        len(paths),
        len(plan.assignments),
        len(plan.unplaced),
    )
    return record


def append_journal(path, record: RoundRecord):
    """One JSON line per round, append-only."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_document(), sort_keys=True) + "\n")


def load_json(path):
    """Parse one JSON file; MalformedFixtureError names the file."""
    return _parse_json(path, Path(path).read_bytes())


def _parse_json(path, data: bytes):
    """Parse the bytes of the JSON file `path` as strict UTF-8, so a BOM or
    UTF-16 is rejected; MalformedFixtureError names the file."""
    with _refused(f"{path}: not valid JSON"):  # also a UnicodeDecodeError
        return json.loads(data.decode("utf-8"))


def parse_listen(value) -> tuple[str, int]:
    """HOST:PORT text as (host, port); ValueError for anything else."""
    host, sep, port = value.rpartition(":") if isinstance(value, str) else ("", "", "")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 0xFFFF:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def read_client_addresses(path) -> list[str]:
    """Client list file: one IPv4 address per line, # comments, duplicates
    collapsed in first-seen order."""
    clients: dict[str, None] = {}  # a dict keeps first-seen order
    with open(path, encoding="utf-8") as fh, _refused(f"{path}: not UTF-8 text"):
        lines = fh.readlines()
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        with _refused(f"{path} line {line_no}"):
            address_int(line)
        clients[line] = None
    return list(clients)


async def run_every(period_s: float, runner: Callable[[], object], stopping: asyncio.Event):
    """Run runner() at once, then on each grid tick t0 + k * period_s,
    until `stopping` is set; return only between rounds.

    Each round runs on a worker thread, so the loop goes on serving. An
    overrunning round never overlaps the next: missed ticks are skipped and
    the runner resumes on the next grid point. A failed round is logged and
    the schedule keeps going.
    """
    loop = asyncio.get_running_loop()
    t0 = tick = loop.time()  # the first round starts at once
    while not stopping.is_set():
        now = loop.time()
        if now < tick:
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stopping.wait(), tick - now)
            continue
        try:
            await asyncio.to_thread(runner)
        except RoundAbortedError as exc:
            logger.warning("round aborted: %s", exc)
        except Exception:
            logger.exception("round failed")
        elapsed = loop.time() - t0
        tick = t0 + (math.floor(elapsed / period_s) + 1) * period_s


class RunSetup:
    """A run config plus everything loaded from it.

    The JSON config names the client list, the fixture files (or live
    flags), and the round parameters:

        {
          "root": "240.0.0.1",
          "clients": "clients.txt",
          "services": "services.json",
          "capacity": "capacity.json",
          "traces": "traces.json",      // or "live_probe": true
          "zone": "zone.txt",           // or "live_dns": true
          "whois": "whois.json",        // or "live_whois": true, or absent
          "period_s": 300,
          "prefix_len": 24,
          "listen": "127.0.0.1:8302"
        }

    Relative paths resolve against the config file's directory. Capacity is
    always fixture-backed. Every key is checked here, at load (the round's
    settings by RoundConfig), where each provider's source is worked out
    once: the fixture file a key names, or live. So a missing key, a key of
    the wrong type, a value out of range, an empty client list
    (MalformedFixtureError) or a fixture file that does not open (OSError)
    fails in load_run_config, and `edisco run` exits 1 before anything binds.
    make_providers() re-reads every fixture file per round and builds fresh
    providers from it, so capacity headroom lasts exactly one round, with one
    exception: the trace file is re-parsed only when its bytes differ from
    those of the last parse, and otherwise the round gets that parse's
    FixtureProber again. Sharing it is safe, because a FixtureProber and its
    Hops and ProbedPaths are read-only, and run_every never overlaps rounds,
    so one RunSetup is used by one thread at a time. The live flags are JSON
    booleans; "nameservers" lists the IPv4 addresses of the recursive servers
    the live stub asks, and "probe" holds ProbeConfig's fields.
    """

    def __init__(self, doc: dict, base_dir):
        for key in ("root", "clients", "services", "capacity"):
            if key not in doc:
                raise MalformedFixtureError(f"config is missing {key!r}")
        with _refused("config 'listen'"):
            self.listen = parse_listen(doc.get("listen", "127.0.0.1:0"))
        for key in ("live_probe", "live_dns", "live_whois"):
            if type(doc.get(key, False)) is not bool:
                raise MalformedFixtureError(f"config {key!r}: {doc[key]!r} is not true or false")
        self.nameservers = doc.get("nameservers")
        if self.nameservers is not None:
            with _refused("config 'nameservers'"):
                if type(self.nameservers) is not list or not self.nameservers:
                    raise ValueError(f"{self.nameservers!r} is not a non-empty list")
                for server in self.nameservers:
                    address_int(server)
        with _refused("config 'probe'"):
            self.probe = ProbeConfig(**doc.get("probe", {}))

        def fixture(key: str) -> Path:
            """The file `key` names, relative to the config's directory, if it opens."""
            name = _typed(doc, key, str, "config")
            if "\0" in name:  # open() would raise ValueError, which is no OSError
                raise MalformedFixtureError(f"config {key!r}: {name!r} holds a NUL byte")
            path = Path(base_dir) / name
            with open(path, "rb"):  # the rounds read it; it must open now
                pass
            return path

        self.traces = None if doc.get("live_probe") else fixture("traces")  # None: probe live
        self.zone = None if doc.get("live_dns") else fixture("zone")  # None: the live DNS stub
        self.live_whois = doc.get("live_whois", False)
        self.whois = fixture("whois") if "whois" in doc and not self.live_whois else None
        self.capacity = fixture("capacity")
        with _refused("config", InvalidPeriodError, EmptyInputError):
            self.config = RoundConfig(
                root_address=doc["root"],
                clients=tuple(read_client_addresses(fixture("clients"))),
                **{key: doc[key] for key in ("period_s", "prefix_len") if key in doc},
            )
        self.services = load_service_profiles(load_json(fixture("services")))
        self._traces: tuple[bytes, FixtureProber] | None = None  # the last parse

    def make_providers(self) -> RoundProviders:
        if self.traces is None:
            prober = TracerouteProber(self.probe)
        else:
            data = self.traces.read_bytes()
            if self._traces is None or self._traces[0] != data:
                paths = ingest_recorded_paths(_parse_json(self.traces, data))
                self._traces = (data, FixtureProber(paths))
            prober = self._traces[1]
        whois = None
        if self.live_whois:
            whois = LiveWhois()
        elif self.whois is not None:
            whois = FixtureWhois(load_json(self.whois))
        return RoundProviders(
            prober=prober,
            resolver=make_resolver(self.zone, self.nameservers),
            whois=whois,
            capacity=FixtureCapacityService(load_json(self.capacity)),
        )


def load_run_config(path) -> RunSetup:
    config_path = Path(path)
    doc = load_json(config_path)
    if not isinstance(doc, dict):
        raise MalformedFixtureError(f"{path}: config must be a JSON object")
    return RunSetup(doc, config_path.parent)
