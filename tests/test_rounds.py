import asyncio
import errno
import gc
import importlib.util
import json
import math
import re
import struct
import sys
import threading
import time
import weakref
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given

import edisco.rounds
from edisco import dnswire
from edisco.cli import main
from edisco.discovery import EdgeServer, FixtureWhois, StubResolver
from edisco.errors import (
    EdiscoError,
    EmptyInputError,
    InvalidPeriodError,
    MalformedFixtureError,
    MalformedZoneError,
    ProbePermissionError,
    ProbeTimeoutError,
    ResolverUnreachableError,
    RoundAbortedError,
    WhoisUnreachableError,
)
from edisco.placement import FixtureCapacityService, ServiceProfile
from edisco.probing import FixtureProber
from edisco.redirect import RedirectService
from edisco.rounds import (
    ROUND_GEN0_THRESHOLD,
    RoundConfig,
    RoundProviders,
    append_journal,
    load_run_config,
    read_client_addresses,
    run_every,
    run_round,
)
from edisco.simharness import ScenarioSpec, generate_scenario
from edisco.topology import build_tree, compute_centrality, paths_to_document
from edisco.zonefile import Transport, parse_zone

from conftest import REFERENCE_ZONE, make_path, mutated, small_bundle

ROOT = "10.0.0.1"
GATEWAY = "192.168.121.1"
CLIENTS = ("172.16.0.9", "172.16.1.9")

ZONE_WITH_PTR = REFERENCE_ZONE + (
    "1.121.168.192.in-addr.arpa. 86400 IN PTR gw.domainA.com.\n"
)


def world_paths():
    return [make_path(c, "10.5.0.1", GATEWAY) for c in CLIENTS]


def video_service():
    return ServiceProfile(
        service_id="svc-video",
        bandwidth_demand=10.0,
        cpu_demand=2.0,
        client_subnets=frozenset({"172.16.0.0/24", "172.16.1.0/24"}),
    )


def full_capacity():
    return FixtureCapacityService(
        {
            "192.168.121.30": {"cpu": 8, "bandwidth": 100},
            "192.168.121.31": {"cpu": 8, "bandwidth": 100},
        }
    )


def make_providers(zone_text=ZONE_WITH_PTR, paths=None, clock=time.time, whois=None):
    if paths is None:
        paths = world_paths()
    return RoundProviders(
        prober=FixtureProber(paths),
        resolver=parse_zone(zone_text),
        whois=whois,
        capacity=full_capacity(),
        clock=clock,
    )


def make_config(**overrides):
    kwargs = dict(root_address=ROOT, clients=CLIENTS, period_s=300.0)
    kwargs.update(overrides)
    return RoundConfig(**kwargs)


# -- record type -------------------------------------------------------------


def test_record_document_shape():
    providers = make_providers()
    record = run_round(make_config(), [video_service()], providers)
    doc = record.to_document()
    assert doc["format"] == "edisco-round/1"
    assert doc["round_id"] == 1
    assert doc["tree_digest"] == record.tree_digest
    assert doc["plan"]["format"] == "edisco-plan/1"
    assert set(doc["phase_durations"]) >= {"probe", "tree", "identify", "srv", "plan"}


# -- run_round ----------------------------------------------------------------


def test_happy_round_assigns_weighted_server():
    record = run_round(make_config(), [video_service()], make_providers())
    assert len(record.plan.assignments) == 1
    assignment = record.plan.assignments[0]
    assert assignment.node_subnet == "192.168.121.0/24"
    # equal priority, weight 30 beats weight 10 in candidate order
    assert assignment.server.address == "192.168.121.30"
    assert sorted(assignment.covered_prefixes) == ["172.16.0.0/24", "172.16.1.0/24"]
    assert record.finished_at >= record.started_at
    assert len(record.tree_digest) == 64
    int(record.tree_digest, 16)


def test_redirect_rules_expire_at_start_plus_period():
    now = {"t": 1000.0}
    clock = lambda: now["t"]
    redirect = RedirectService(clock=clock)
    providers = make_providers(clock=clock)
    record = run_round(
        make_config(period_s=300.0), [video_service()], providers, redirect=redirect
    )
    assert "install" in record.phase_durations
    assert redirect.rule_count == 2
    now["t"] = 1299.0
    url, _ = redirect.resolve("172.16.0.9", "svc-video")
    assert url == "http://192.168.121.30:5060"
    now["t"] = 1300.0
    assert redirect.resolve("172.16.0.9", "svc-video") is None


def test_front_end_follows_the_round_prefix_length():
    service = ServiceProfile(
        service_id="svc-video",
        bandwidth_demand=10.0,
        cpu_demand=2.0,
        client_subnets=frozenset({"172.16.0.0/23"}),
    )
    clock = lambda: 0.0
    redirect = RedirectService(clock=clock)
    record = run_round(
        make_config(prefix_len=23),
        [service],
        make_providers(clock=clock),
        redirect=redirect,
    )
    assert record.plan.assignments[0].covered_prefixes == ("172.16.0.0/23",)
    for client in CLIENTS:
        assert redirect.resolve(client, "svc-video") is not None


def test_zero_paths_aborts():
    providers = make_providers(paths=[])
    providers.prober = FixtureProber([])
    with pytest.raises(RoundAbortedError):
        run_round(make_config(), [video_service()], providers)


class DeniedProber:
    """Fails the probe of the clients in `denied` with error(), by default
    the refused raw socket the operating system gives without CAP_NET_RAW,
    and probes the others from fixtures."""

    def __init__(self, denied, error=lambda: ProbePermissionError("raw socket refused")):
        self.denied = set(denied)
        self.error = error
        self.inner = FixtureProber(world_paths())

    def probe(self, client):
        if client in self.denied:
            raise self.error()
        return self.inner.probe(client)


def test_permission_error_on_every_client_aborts_the_round():
    providers = make_providers()
    providers.prober = DeniedProber(CLIENTS)
    with pytest.raises(RoundAbortedError):
        run_round(make_config(), [video_service()], providers)


def test_permission_error_on_one_client_drops_only_that_client():
    providers = make_providers()
    providers.prober = DeniedProber(CLIENTS[1:])
    record = run_round(make_config(), [video_service()], providers)
    assert record.plan.assignments[0].covered_prefixes == ("172.16.0.0/24",)


def test_partial_probe_failure_degrades():
    providers = make_providers(paths=[world_paths()[0]])
    record = run_round(make_config(), [video_service()], providers)
    assert len(record.plan.assignments) == 1
    assert record.plan.assignments[0].covered_prefixes == ("172.16.0.0/24",)


def assert_one_warning_names_once(caplog, client):
    warnings = [r.getMessage() for r in caplog.records if client in r.getMessage()]
    assert len(warnings) == 1 and warnings[0].count(client) == 1, warnings


def test_a_client_whose_probe_times_out_drops_out_of_the_round(caplog):
    providers = make_providers(paths=[world_paths()[0]])  # CLIENTS[1] has no recorded path
    with caplog.at_level("WARNING", logger="edisco.rounds"):
        record = run_round(make_config(), [video_service()], providers)
    assert record.plan.assignments[0].covered_prefixes == ("172.16.0.0/24",)
    assert_one_warning_names_once(caplog, CLIENTS[1])


def test_a_client_whose_probe_raises_oserror_drops_out_of_the_round(caplog):
    providers = make_providers()
    unreachable = lambda: OSError(errno.ENETUNREACH, "Network is unreachable")  # as sendto's
    providers.prober = DeniedProber(CLIENTS[1:], unreachable)
    with caplog.at_level("WARNING", logger="edisco.rounds"):
        record = run_round(make_config(), [video_service()], providers)
    assert record.plan.assignments[0].covered_prefixes == ("172.16.0.0/24",)
    assert_one_warning_names_once(caplog, CLIENTS[1])
    assert "Network is unreachable" in caplog.text


def test_no_srv_records_round_completes_unplaced():
    bare_zone = (
        "serverA.domainA.com.  86400 IN A 192.168.121.30\n"
        "1.121.168.192.in-addr.arpa. 86400 IN PTR gw.domainA.com.\n"
    )
    redirect = RedirectService()
    record = run_round(
        make_config(),
        [video_service()],
        make_providers(zone_text=bare_zone),
        redirect=redirect,
    )
    assert record.plan.assignments == []
    assert record.plan.unplaced == ["svc-video"]
    assert redirect.rule_count == 0


def test_empty_client_list_rejected():
    with pytest.raises(EmptyInputError):  # by RoundConfig, so no round starts without clients
        make_config(clients=())


@pytest.mark.parametrize(
    "field, value, error",
    [
        *[("period_s", p, InvalidPeriodError) for p in (math.nan, math.inf, -math.inf, 0, -5, True)],
        *[("prefix_len", n, ValueError) for n in (33, -1, True)],
        ("root_address", "x", ValueError),
    ],
)
def test_round_config_refuses_a_bad_setting(field, value, error):
    with pytest.raises(error):
        make_config(**{field: value})


def test_round_config_takes_the_edges_of_each_range():
    assert make_config(period_s=0.5, prefix_len=0).prefix_len == 0
    assert make_config(period_s=300, prefix_len=32).period_s == 300


class DeadResolver:
    def lookup_ptr(self, address):
        raise ResolverUnreachableError("resolver down")

    def lookup_a(self, name):
        raise ResolverUnreachableError("resolver down")

    def lookup_srv(self, qname):
        raise ResolverUnreachableError("resolver down")


def test_dead_resolver_degrades_to_unplaced():
    providers = make_providers()
    providers.resolver = DeadResolver()
    record = run_round(make_config(), [video_service()], providers)
    assert record.plan.unplaced == ["svc-video"]
    assert record.plan.assignments == []


class PtrFails:
    """The reference zone with the gateway's PTR, except that every PTR
    lookup raises `error`."""

    def __init__(self, error: Exception):
        self.zone = parse_zone(ZONE_WITH_PTR)
        self.error = error

    def lookup_ptr(self, address):
        raise self.error

    def lookup_a(self, name):
        return self.zone.lookup_a(name)

    def lookup_srv(self, qname):
        return self.zone.lookup_srv(qname)


@pytest.mark.parametrize(
    "error",
    [MalformedZoneError("PTR answer unreadable"), ProbeTimeoutError("odd provider")],
    ids=lambda e: type(e).__name__,
)
def test_declared_lookup_error_leaves_the_node_anonymous(error):
    tree = compute_centrality(build_tree(world_paths(), ROOT))
    edisco.rounds.discover_phase(tree, PtrFails(error))
    gateway = tree.nodes["192.168.121.0/24"]
    assert (gateway.domains, gateway.edge_servers) == (set(), [])
    providers = make_providers()
    providers.resolver = PtrFails(error)
    record = run_round(make_config(), [video_service()], providers)
    assert record.plan.unplaced == ["svc-video"]


def test_undeclared_lookup_error_is_not_swallowed():
    providers = make_providers()
    providers.resolver = PtrFails(KeyError("a bug, not a failed lookup"))
    with pytest.raises(KeyError):
        run_round(make_config(), [video_service()], providers)


def wire_name(*labels: str) -> bytes:
    return b"".join(bytes([len(label)]) + label.encode() for label in labels) + b"\0"


def srv_rdata(port: int, *target: str) -> bytes:
    return struct.pack(">HHH", 10, 30, port) + wire_name(*target)


class WireServer:
    """Stands in for dnswire._query_udp: echoes the question and answers
    with the raw rdata listed under its (lower-case name, type)."""

    def __init__(self, records: dict):
        self.records = records

    def __call__(self, server, request, timeout):
        qname, end = dnswire.decode_name(request, 12)
        qtype = struct.unpack_from(">H", request, end)[0]
        rdatas = self.records.get((qname.lower(), qtype), [])
        header = request[:2] + struct.pack(">HHHHH", 0x8180, 1, len(rdatas), 0, 0)
        answers = b"".join(
            struct.pack(">HHHIH", 0xC00C, qtype, 1, 3600, len(rdata)) + rdata for rdata in rdatas
        )
        return header + request[12 : end + 4] + answers


@pytest.mark.parametrize("dotted", ["none", "srv-target", "ptr-target"])
def test_dotted_wire_label_drops_only_the_reply_that_holds_it(monkeypatch, dotted):
    """A label that holds '.' is legal on the wire but has no text form, so
    its reply counts as malformed: the round completes without what that
    reply named."""
    ptr = ("gw", "a..b") if dotted == "ptr-target" else ("gw", "domainA", "com")
    tcp = [srv_rdata(5060, "serverA", "domainA", "com")]
    if dotted == "srv-target":
        tcp.append(srv_rdata(5060, "a..b", "test"))
    records = {
        ("1.121.168.192.in-addr.arpa", dnswire.TYPE_PTR): [wire_name(*ptr)],
        ("_edge._tcp.domaina.com", dnswire.TYPE_SRV): tcp,
        ("_edge._udp.domaina.com", dnswire.TYPE_SRV): [srv_rdata(1720, "serverA", "domainA", "com")],
        ("servera.domaina.com", dnswire.TYPE_A): [bytes([192, 168, 121, 30])],
    }
    monkeypatch.setattr(dnswire, "_query_udp", WireServer(records))
    tree = compute_centrality(build_tree(world_paths(), ROOT))
    edisco.rounds.discover_phase(tree, StubResolver(["203.0.113.1"]))
    gateway = tree.nodes["192.168.121.0/24"]
    assert (gateway.domains, sorted(s.protocol.value for s in gateway.edge_servers)) == {
        "none": ({"domainA.com"}, ["tcp", "udp"]),
        "srv-target": ({"domainA.com"}, ["udp"]),
        "ptr-target": (set(), []),
    }[dotted]
    providers = make_providers()
    providers.resolver = StubResolver(["203.0.113.1"])
    record = run_round(make_config(), [video_service()], providers)
    assert record.plan.unplaced == ([] if dotted == "none" else ["svc-video"])


class DeadWhois:
    def domains_for(self, address):
        raise WhoisUnreachableError("registry down")


def test_dead_whois_degrades_to_unplaced():
    providers = make_providers(zone_text=REFERENCE_ZONE, whois=DeadWhois())
    record = run_round(make_config(), [video_service()], providers)
    assert record.plan.unplaced == ["svc-video"]


def test_whois_fallback_supplies_domain():
    zone_no_ptr = REFERENCE_ZONE  # SRV and A records, no PTR
    whois = FixtureWhois({"192.168.121.0/24": "domainA.com"})
    providers = make_providers(zone_text=zone_no_ptr, whois=whois)
    record = run_round(make_config(), [video_service()], providers)
    assert len(record.plan.assignments) == 1
    assert record.plan.assignments[0].server.zone == "domainA.com"


def test_round_is_deterministic_across_runs():
    first = run_round(make_config(), [video_service()], make_providers())
    second = run_round(make_config(), [video_service()], make_providers())
    assert first.tree_digest == second.tree_digest
    assert first.plan.to_document() == second.plan.to_document()


def test_next_round_replaces_rules():
    now = {"t": 0.0}
    clock = lambda: now["t"]
    redirect = RedirectService(clock=clock)
    run_round(
        make_config(), [video_service()], make_providers(clock=clock), redirect=redirect
    )
    assert redirect.resolve("172.16.0.9", "svc-video") is not None

    # round 2: all capacity refused, so the new table must be empty
    providers = make_providers(clock=clock)
    providers.capacity = FixtureCapacityService(
        {
            "192.168.121.30": {"cpu": 0, "bandwidth": 0},
            "192.168.121.31": {"cpu": 0, "bandwidth": 0},
        }
    )
    record = run_round(
        make_config(), [video_service()], providers, redirect=redirect, round_id=2
    )
    assert record.plan.unplaced == ["svc-video"]
    assert redirect.rule_count == 0
    assert redirect.resolve("172.16.0.9", "svc-video") is None


# -- journal -------------------------------------------------------------------


def test_journal_appends_one_line_per_round(tmp_path):
    journal = tmp_path / "rounds.jsonl"
    for round_id in (1, 2):
        record = run_round(
            make_config(), [video_service()], make_providers(), round_id=round_id
        )
        append_journal(journal, record)
    lines = journal.read_text().splitlines()
    assert len(lines) == 2
    docs = [json.loads(line) for line in lines]
    assert [d["round_id"] for d in docs] == [1, 2]


# -- client list ingestion ------------------------------------------------------


def test_read_client_addresses(tmp_path):
    listing = tmp_path / "clients.txt"
    listing.write_text(
        "# lab clients\n"
        "172.16.0.9\n"
        "172.16.1.9   # dup below\n"
        "\n"
        "172.16.1.9\n"
    )
    assert read_client_addresses(listing) == ["172.16.0.9", "172.16.1.9"]


def test_read_client_addresses_rejects_garbage(tmp_path):
    listing = tmp_path / "clients.txt"
    listing.write_text("172.16.0.9\nnot-an-address\n")
    with pytest.raises(MalformedFixtureError, match="line 2"):
        read_client_addresses(listing)


# -- the cyclic collector during a round -----------------------------------------


class WatchingProber:
    """Probes from fixtures and notes the collector's thresholds as each
    probe sees them; `then(client)`, if given, runs after each probe."""

    def __init__(self, paths=None, then=None):
        self.inner = FixtureProber(world_paths() if paths is None else paths)
        self.then = then
        self.thresholds = []

    def probe(self, client):
        self.thresholds.append(gc.get_threshold())
        path = self.inner.probe(client)
        if self.then is not None:
            self.then(client)
        return path


def failing_probe(client):
    raise RuntimeError("a prober bug")


@pytest.fixture(params=[(True, None), (False, (1234, 5, 6))], ids=["default", "disabled"])
def caller_collector(request):
    """The collector as the caller set it, enabled with the test's own
    thresholds, or disabled with others; put back at teardown."""
    enabled, thresholds = request.param
    saved = gc.isenabled(), gc.get_threshold()
    if thresholds is not None:
        gc.set_threshold(*thresholds)
    if not enabled:
        gc.disable()
    try:
        yield gc.isenabled(), gc.get_threshold()
    finally:
        gc.set_threshold(*saved[1])
        (gc.enable if saved[0] else gc.disable)()


@pytest.mark.parametrize(
    "paths, then, raised",
    [(None, None, None), ([], None, RoundAbortedError), (None, failing_probe, RuntimeError)],
    ids=["returns", "aborts", "raises"],
)
def test_a_round_defers_the_young_collection_and_puts_the_collector_back(
    caller_collector, paths, then, raised
):
    """While the round runs, gen-0 collections wait for ROUND_GEN0_THRESHOLD
    allocations; when it returns or raises, the thresholds and the switch
    are as the caller had them."""
    prober = WatchingProber(paths, then)
    providers = make_providers()
    providers.prober = prober
    with pytest.raises(raised) if raised else nullcontext():
        run_round(make_config(), [video_service()], providers)
    found = caller_collector[1]
    assert prober.thresholds == [(ROUND_GEN0_THRESHOLD, *found[1:])] * len(prober.thresholds)
    assert (gc.isenabled(), gc.get_threshold()) == caller_collector


def run_on_thread(fn) -> tuple[threading.Thread, list]:
    """fn() started on a thread of its own; the list gets what it raised."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as exc:  # handed to the test, which asserts on it
            raised.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, raised


def test_overlapping_rounds_leave_the_thresholds_as_found():
    """Round A starts and ends inside round B, on another thread: the
    threshold stays raised until B ends, then is the caller's again."""
    found = gc.get_threshold()
    both_in, b_may_end = threading.Barrier(2), threading.Event()
    one_client = make_config(clients=CLIENTS[:1])

    def round_with(then):
        providers = make_providers()
        providers.prober = WatchingProber(then=then)
        run_round(one_client, [video_service()], providers)

    b, b_raised = run_on_thread(lambda: round_with(lambda _: (both_in.wait(5), b_may_end.wait(5))))
    a, a_raised = run_on_thread(lambda: round_with(lambda _: both_in.wait(5)))
    a.join(10)
    assert not a.is_alive() and not a_raised
    assert gc.get_threshold() == (ROUND_GEN0_THRESHOLD, *found[1:])
    b_may_end.set()
    b.join(10)
    assert not b.is_alive() and not b_raised
    assert gc.get_threshold() == found


def test_many_rounds_on_more_threads_than_cores_keep_the_deferral_count():
    """Eight threads run rounds under fast switching: every probe sees the
    raised threshold, and the last round out puts the caller's back. A lost
    update of the shared count would let a probe see the caller's."""
    found = gc.get_threshold()
    probers = []

    def rounds():
        for _ in range(20):
            providers = make_providers()
            providers.prober = WatchingProber()
            probers.append(providers.prober)
            run_round(make_config(), [video_service()], providers)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [run_on_thread(rounds) for _ in range(8)]
        for thread, _ in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() or raised for thread, raised in threads)
    seen = {threshold for prober in probers for threshold in prober.thresholds}
    assert seen == {(ROUND_GEN0_THRESHOLD, *found[1:])}
    assert gc.get_threshold() == found


def test_a_cycle_a_provider_makes_is_collected_before_the_next_round_returns(tmp_path):
    """The round defers the young collection, it does not skip it: a
    reference cycle made during a round is gone when that round returns,
    and so before the next one does."""
    setup = load_run_config(write_bundle(tmp_path))
    collected = []

    class Cycle:
        def __init__(self, client):
            self.itself = self
            weakref.finalize(self, collected.append, client)

    providers = setup.make_providers()
    providers.prober = WatchingProber(then=Cycle)
    run_round(setup.config, setup.services, providers)
    assert sorted(collected) == sorted(CLIENTS)
    providers = setup.make_providers()
    providers.prober = WatchingProber(then=Cycle)
    run_round(setup.config, setup.services, providers, round_id=2)
    assert sorted(collected) == sorted(CLIENTS * 2)


# -- scheduler -------------------------------------------------------------------


def run_every_for(seconds: float, period_s: float, runner) -> float:
    """Drive run_every on a fresh loop that a call_later stops; return the
    loop's time (time.monotonic()) from just before run_every started."""

    async def serve():
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        loop.call_later(seconds, stopping.set)
        t_start = loop.time()
        await asyncio.wait_for(run_every(period_s, runner, stopping), seconds + 5)
        return t_start

    return asyncio.run(serve())


def test_scheduler_fires_on_the_period_grid():
    """Round k starts no earlier than its grid point, and no two rounds
    start in one period; a late round may be followed by an on-time one."""
    stamps, period_s = [], 0.05
    t_start = run_every_for(0.18, period_s, lambda: stamps.append(time.monotonic()))
    assert len(stamps) >= 3
    assert all(stamp >= t_start + k * period_s for k, stamp in enumerate(stamps))
    slots = [math.floor((stamp - t_start) / period_s) for stamp in stamps]
    assert all(a < b for a, b in zip(slots, slots[1:]))


def test_overrunning_round_skips_ticks():
    stamps = []

    def slow_round():
        stamps.append(time.monotonic())
        time.sleep(0.12)

    run_every_for(0.3, 0.05, slow_round)
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    # each 0.12 s round spans past two 0.05 s ticks; next start is on the
    # grid after the round ends, never overlapping
    assert all(gap >= 0.10 for gap in gaps)
    assert len(stamps) <= 4


def test_scheduler_survives_round_failures():
    calls = []

    def flaky():
        calls.append(1)
        raise RoundAbortedError("no paths")

    run_every_for(0.15, 0.04, flaky)
    assert len(calls) >= 2


# -- config loading ----------------------------------------------------------------


def write_bundle(tmp_path):
    (tmp_path / "traces.json").write_text(json.dumps(paths_to_document(world_paths())))
    (tmp_path / "zone.txt").write_text(ZONE_WITH_PTR)
    (tmp_path / "whois.json").write_text(json.dumps({"10.5.0.0/24": "transit.test"}))
    (tmp_path / "capacity.json").write_text(
        json.dumps(
            {
                "192.168.121.30": {"cpu": 8, "bandwidth": 100},
                "192.168.121.31": {"cpu": 8, "bandwidth": 100},
            }
        )
    )
    (tmp_path / "services.json").write_text(
        json.dumps(
            [
                {
                    "service_id": "svc-video",
                    "bandwidth_demand": 10.0,
                    "cpu_demand": 2.0,
                    "client_subnets": ["172.16.0.0/24", "172.16.1.0/24"],
                    "transport": "tcp",
                }
            ]
        )
    )
    (tmp_path / "clients.txt").write_text("\n".join(CLIENTS) + "\n")
    config = {
        "root": ROOT,
        "clients": "clients.txt",
        "services": "services.json",
        "capacity": "capacity.json",
        "traces": "traces.json",
        "zone": "zone.txt",
        "whois": "whois.json",
        "period_s": 300,
        "listen": "127.0.0.1:0",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path / "config.json"


def test_load_run_config_builds_working_providers(tmp_path):
    setup = load_run_config(write_bundle(tmp_path))
    assert setup.config.clients == CLIENTS
    assert setup.config.period_s == 300.0
    record = run_round(setup.config, setup.services, setup.make_providers())
    assert len(record.plan.assignments) == 1


def test_fresh_capacity_each_round(tmp_path):
    setup = load_run_config(write_bundle(tmp_path))
    for round_id in (1, 2):
        record = run_round(
            setup.config, setup.services, setup.make_providers(), round_id=round_id
        )
        assert len(record.plan.assignments) == 1


# -- trace reuse -------------------------------------------------------------------

GOLDEN_ROUND = Path(__file__).parent / "data" / "golden_round_seed42.json"


@pytest.fixture(params=["written", "seed42"])
def config_path(request, tmp_path):
    """The run config of write_bundle's bundle or of the seed-42 bundle."""
    if request.param == "written":
        return write_bundle(tmp_path)
    generate_scenario(ScenarioSpec(clients=100, seed=42)).write(tmp_path)
    return tmp_path / "config.json"


@pytest.fixture
def ingested(monkeypatch):
    """The trace documents edisco.rounds.ingest_recorded_paths gets."""
    documents = []
    ingest = edisco.rounds.ingest_recorded_paths

    def spy(document):
        documents.append(document)
        return ingest(document)

    monkeypatch.setattr(edisco.rounds, "ingest_recorded_paths", spy)
    return documents


def test_unchanged_traces_are_parsed_once(config_path, ingested):
    setup = load_run_config(config_path)
    first, second = setup.make_providers(), setup.make_providers()
    assert len(ingested) == 1
    assert second.prober is first.prober
    assert second.capacity is not first.capacity


def test_traces_rewritten_with_the_same_bytes_are_not_parsed_again(config_path, ingested):
    setup = load_run_config(config_path)
    prober = setup.make_providers().prober
    traces = config_path.parent / "traces.json"
    traces.write_bytes(traces.read_bytes())
    assert setup.make_providers().prober is prober
    assert len(ingested) == 1


def test_an_edited_trace_file_shows_in_the_next_round(config_path, ingested):
    setup = load_run_config(config_path)
    traces = config_path.parent / "traces.json"
    document = json.loads(traces.read_text())
    assert set(setup.make_providers().prober.by_client) == {e["client"] for e in document}
    dropped = document.pop()["client"]
    traces.write_text(json.dumps(document))
    prober = setup.make_providers().prober
    assert set(prober.by_client) == {e["client"] for e in document}
    with pytest.raises(ProbeTimeoutError):
        prober.probe(dropped)
    assert len(ingested) == 2


def test_a_malformed_trace_file_fails_every_round_until_it_is_fixed(config_path, ingested):
    setup = load_run_config(config_path)
    traces = config_path.parent / "traces.json"
    good = traces.read_bytes()
    prober = setup.make_providers().prober
    traces.write_bytes(good[: len(good) // 2])
    for _ in range(2):
        with pytest.raises(MalformedFixtureError, match="traces.json: not valid JSON"):
            setup.make_providers()
    traces.write_bytes(good)
    assert setup.make_providers().prober is prober
    traces.write_text("{}")
    for _ in range(2):
        with pytest.raises(MalformedFixtureError, match="top-level list"):
            setup.make_providers()
    assert len(ingested) == 3


@pytest.mark.parametrize("encode", [lambda text: b"\xef\xbb\xbf" + text.encode(), lambda text: text.encode("utf-16")])
def test_a_trace_file_that_is_not_plain_utf8_is_rejected(config_path, encode):
    traces = config_path.parent / "traces.json"
    traces.write_bytes(encode(traces.read_text()))
    setup = load_run_config(config_path)
    with pytest.raises(MalformedFixtureError, match="traces.json: not valid JSON"):
        setup.make_providers()


def test_two_rounds_from_one_setup_both_give_the_golden_round(tmp_path):
    generate_scenario(ScenarioSpec(clients=100, seed=42)).write(tmp_path)
    setup = load_run_config(tmp_path / "config.json")
    golden = json.loads(GOLDEN_ROUND.read_text())
    for _ in range(2):
        record = run_round(setup.config, setup.services, setup.make_providers())
        assert {"tree_digest": record.tree_digest, "plan": record.plan.to_document()} == golden


def test_an_indented_bundle_of_earlier_versions_gives_the_golden_round(tmp_path):
    """Earlier versions wrote each JSON file with indent=2; such bundles
    still load and run."""
    generate_scenario(ScenarioSpec(clients=100, seed=42)).write(tmp_path)
    for path in tmp_path.glob("*.json"):
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n")
    setup = load_run_config(tmp_path / "config.json")
    record = run_round(setup.config, setup.services, setup.make_providers())
    golden = json.loads(GOLDEN_ROUND.read_text())
    assert {"tree_digest": record.tree_digest, "plan": record.plan.to_document()} == golden


def test_round_and_cli_plan_share_one_discovery_phase(tmp_path, monkeypatch, capsys):
    calls = []
    identify = edisco.rounds.identify_addresses

    def counting(*args, **kwargs):
        calls.append(args)
        return identify(*args, **kwargs)

    monkeypatch.setattr(edisco.rounds, "identify_addresses", counting)
    run_round(make_config(), [video_service()], make_providers())
    assert len(calls) == 1

    write_bundle(tmp_path)
    args = ["plan", "--traces", "traces.json", "--root", ROOT, "--zone", "zone.txt"]
    args += ["--services", "services.json", "--capacity", "capacity.json"]
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
    assert len(calls) == 2
    assert json.loads(capsys.readouterr().out)["assignments"]


def perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_make_resolver_keeps_the_benchmark_hooks(tmp_path, monkeypatch):
    """perfbench/tracing.py patches names in edisco.rounds and reads the
    parsed zone's record sequences; a refactor must keep both working."""
    tracing = perfbench_tracing()
    for attr, _span in tracing.ROUNDS_FUNCTIONS:
        assert callable(getattr(edisco.rounds, attr)), attr

    texts = []
    parse = edisco.rounds.parse_zone

    def spy(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(edisco.rounds, "parse_zone", spy)
    zone_file = tmp_path / "zone.txt"
    zone_file.write_text(ZONE_WITH_PTR)
    zone = edisco.rounds.make_resolver(zone_file)
    assert texts == [ZONE_WITH_PTR]
    counts = Counter()
    tracing._observe_zone(counts, zone, (ZONE_WITH_PTR,))
    assert counts["zone_records"] == 7  # 4 SRV, 2 A and 1 PTR


def test_capacity_responses_keep_the_benchmark_hook():
    """perfbench/tracing.py's CountingCapacity reads each response's
    `accepted` to count the accepts of a round."""
    tracing = perfbench_tracing()
    tracer = tracing.Tracer()
    capacity = FixtureCapacityService({"10.2.0.30": {"cpu": 2, "bandwidth": 10}})
    counting = tracing.CountingCapacity(capacity, tracer)
    server = EdgeServer("edgeco.test", Transport.TCP, 10, 10, "10.2.0.30", 8080)
    assert counting.request(server, 2, 5).accepted
    assert not counting.request(server, 2, 5).accepted
    assert tracer.counts["capacity_requests"] == 2
    assert tracer.counts["capacity_accepts"] == 1


def test_config_missing_required_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"clients": "clients.txt"}))
    with pytest.raises(MalformedFixtureError, match="root"):
        load_run_config(path)


def test_live_dns_round_resolves_through_the_stub_alone(tmp_path):
    config_path = write_bundle(tmp_path)
    doc = json.loads(config_path.read_text())
    del doc["zone"]
    doc.update(live_dns=True, nameservers=["203.0.113.1"])
    config_path.write_text(json.dumps(doc))
    resolver = load_run_config(config_path).make_providers().resolver
    assert type(resolver) is StubResolver
    assert resolver.servers == ["203.0.113.1"]


def test_config_needs_traces_or_live_flag(tmp_path):
    config_path = write_bundle(tmp_path)
    doc = json.loads(config_path.read_text())
    del doc["traces"]
    config_path.write_text(json.dumps(doc))
    with pytest.raises(MalformedFixtureError, match="traces"):
        load_run_config(config_path)


@pytest.mark.parametrize(
    "key, value, words",
    [
        ("zone", None, "config: 'zone' is missing or not of type str"),
        ("whois", 7, "'whois' is missing or not of type str"),
        ("capacity", ["capacity.json"], "'capacity' is missing or not of type str"),
        ("clients", "clients\0.txt", "holds a NUL byte"),
    ],
)
def test_a_config_is_refused_at_load(tmp_path, key, value, words):
    """Each provider's source is worked out when the config loads, so a bad
    one fails there and not in every round; None deletes the key."""
    config_path = write_bundle(tmp_path)
    doc = json.loads(config_path.read_text())
    doc[key] = value
    if value is None:
        del doc[key]
    config_path.write_text(json.dumps(doc))
    with pytest.raises(MalformedFixtureError, match=re.escape(words)):
        load_run_config(config_path)


@pytest.mark.parametrize("key", ["traces", "zone", "whois", "capacity"])
def test_a_config_naming_a_fixture_file_that_does_not_open_is_refused_at_load(tmp_path, key):
    """The rounds re-read these files, but each must open when the config
    loads, so a missing one fails there and not in every round."""
    config_path = write_bundle(tmp_path)
    doc = json.loads(config_path.read_text())
    doc[key] = "nope.txt"
    config_path.write_text(json.dumps(doc))
    with pytest.raises(FileNotFoundError, match="nope.txt"):
        load_run_config(config_path)


def test_run_config_raises_only_declared_errors(tmp_path):
    """A config names files, so a mutated one may also name a file that is
    not there, which is an OSError; the CLI reports both kinds in one line."""
    small_bundle().write(tmp_path)
    config = tmp_path / "fuzzed.json"

    @given(mutated(small_bundle().config_document()))
    def check(document):
        config.write_text(json.dumps(document))
        try:
            load_run_config(config).make_providers()
        except (EdiscoError, OSError):
            pass

    check()
