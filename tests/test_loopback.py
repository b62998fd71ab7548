"""The live DNS stub and whois client against LoopbackResponder: real DNS
over UDP and TCP and real whois connections, all on 127.0.0.1, from
well-behaved peers and from slow and faulty ones."""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from edisco import discovery, dnswire, rounds
from edisco.discovery import FixtureWhois, LiveWhois, StubResolver
from edisco.errors import ResolverUnreachableError, WhoisUnreachableError
from edisco.placement import FixtureCapacityService, load_service_profiles
from edisco.probing import FixtureProber
from edisco.rounds import RoundConfig, RoundProviders, discover_phase, run_round
from edisco.simharness import ScenarioSpec, bundle_round_config, generate_scenario
from edisco.topology import (
    build_tree,
    compute_centrality,
    group_subnet,
    ingest_recorded_paths,
    map_in_threads,
)
from edisco.zonefile import parse_zone, reverse_pointer_name

from conftest import FORGED_ADDRESS, REFERENCE_ZONE, SLOW_S, LoopbackResponder, make_path

GOLDEN_ROUND = Path(__file__).parent / "data" / "golden_round_seed42.json"


@pytest.fixture
def serve(monkeypatch):
    """serve(zone_text, whois=None, whois_text=None) starts the responder
    that StubResolver(["127.0.0.1"]) and LiveWhois(server="127.0.0.1")
    reach, and closes it at teardown."""
    started = []

    def start(zone_text, whois=None, whois_text=None):
        responder = LoopbackResponder(parse_zone(zone_text), whois, whois_text)
        started.append(responder)
        monkeypatch.setattr(dnswire, "DNS_PORT", responder.dns_port)
        monkeypatch.setattr(discovery, "WHOIS_PORT", responder.whois_port)
        return responder

    yield start
    for responder in started:
        responder.close()


def live_providers(paths, capacity=None, whois_timeout=5.0) -> RoundProviders:
    return RoundProviders(
        prober=FixtureProber(paths),
        resolver=StubResolver(["127.0.0.1"]),
        whois=LiveWhois(server="127.0.0.1", timeout=whois_timeout),
        capacity=FixtureCapacityService(capacity or {}),
    )


def test_seed42_round_over_loopback_matches_the_golden_round(serve):
    bundle = generate_scenario(ScenarioSpec(clients=100, seed=42))
    responder = serve(bundle.zone_text, FixtureWhois(bundle.whois))
    record = run_round(
        bundle_round_config(bundle),
        load_service_profiles(bundle.services),
        live_providers(ingest_recorded_paths(bundle.traces), bundle.capacity),
    )
    assert {"tree_digest": record.tree_digest, "plan": record.plan.to_document()} == json.loads(
        GOLDEN_ROUND.read_text()
    )
    assert responder.counts["udp"] > 0 and responder.counts["whois"] > 0
    assert responder.counts["tcp"] == 0


def test_a_truncated_reply_is_asked_again_over_tcp(serve):
    responder = serve(REFERENCE_ZONE)
    responder.truncate_udp = True
    records = StubResolver(["127.0.0.1"]).lookup_a("serverA.domainA.com")
    assert [r.address for r in records] == ["192.168.121.30"]
    assert (responder.counts["udp"], responder.counts["tcp"]) == (1, 1)


def test_a_reply_from_another_port_is_never_delivered(serve):
    """The forged reply carries the right txid and question and arrives
    first; only the connected socket keeps it out (RFC 5452)."""
    responder = serve(REFERENCE_ZONE)
    responder.forge_from_other_port = True
    stub = StubResolver(["127.0.0.1"])
    assert [r.address for r in stub.lookup_a("serverA.domainA.com")] == ["192.168.121.30"]
    assert [r.address for r in stub.lookup_a("serverB.domainA.com")] == ["192.168.121.31"]
    assert responder.counts["forged"] == 2
    assert FORGED_ADDRESS not in REFERENCE_ZONE


def test_a_reply_with_another_txid_is_dropped_and_the_true_one_taken(serve):
    """The forged reply comes from the server's own address and port, ahead
    of the true one, but under another transaction id (RFC 5452 section
    9.1): the stub drops it and waits on within the same timeout."""
    responder = serve(REFERENCE_ZONE)
    responder.faults["serverA.domainA.com"] = "other_txid_first"
    stub = StubResolver(["127.0.0.1"])
    assert [r.address for r in stub.lookup_a("serverA.domainA.com")] == ["192.168.121.30"]
    assert [responder.counts[key] for key in ("forged", "udp", "tcp")] == [1, 1, 0]


def test_a_lost_datagram_is_sent_again_and_answered_well_within_the_timeout(serve):
    """The first query's datagram is lost; the stub sends the same request
    again after dnswire.RETRANSMIT_S, long before the query's 2.0 s."""
    responder = serve(REFERENCE_ZONE)
    responder.faults["serverA.domainA.com"] = "drop_first"
    mark = time.monotonic()
    records = StubResolver(["127.0.0.1"]).lookup_a("serverA.domainA.com")
    assert dnswire.RETRANSMIT_S <= time.monotonic() - mark < 1.0
    assert [r.address for r in records] == ["192.168.121.30"]
    assert [responder.counts[key] for key in ("dropped", "udp", "tcp")] == [1, 2, 0]


def test_a_reply_slower_than_the_resend_is_taken_whichever_request_it_answers(serve):
    """Each reply comes SLOW_S after its query, later than the first
    resend: the reply to the first request is read, well within 2.0 s."""
    responder = serve(REFERENCE_ZONE)
    responder.faults["serverA.domainA.com"] = "slow"
    mark = time.monotonic()
    records = StubResolver(["127.0.0.1"]).lookup_a("serverA.domainA.com")
    assert SLOW_S <= time.monotonic() - mark < SLOW_S + dnswire.RETRANSMIT_S
    assert [r.address for r in records] == ["192.168.121.30"]
    assert responder.counts["tcp"] == 0


def test_each_concurrent_lookup_gets_its_own_answer(serve):
    """Eight workers, more than the cores, share one stub under fast
    switching: every lookup gets its own name's answer."""
    serve("".join(f"host{i}.domainA.com. 60 IN A 10.0.0.{i}\n" for i in range(20)))
    stub = StubResolver(["127.0.0.1"])
    names = [f"host{i % 20}.domainA.com" for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = map_in_threads(stub.lookup_a, names, 8)
    finally:
        sys.setswitchinterval(interval)
    assert [[r.address for r in records] for records in results] == [
        [f"10.0.0.{i % 20}"] for i in range(200)
    ]


def test_whois_domains_the_stub_cannot_ask_for_leave_the_round_running(serve, caplog):
    """`noc@isp..test` names no domain, so its hop stays unknown. The stub
    cannot encode `exämple.com`, so the SRV lookups for that hop's domain
    fail and degrade: the hop keeps the domain and gets no edge servers."""
    whois_text = {
        "10.0.1.1": "OrgAbuseEmail: noc@isp..test\r\n",
        "10.0.2.1": "OrgAbuseEmail: noc@exämple.com\r\n",
    }
    serve(REFERENCE_ZONE + "1.0.0.10.in-addr.arpa. 60 IN PTR r1.domainA.com.\n", None, whois_text)
    paths = [make_path("172.16.0.9", "10.0.0.1", "10.0.1.1", "10.0.2.1")]
    run_round(RoundConfig("10.255.0.1", ("172.16.0.9",)), [], live_providers(paths))

    tree = compute_centrality(build_tree(paths, "10.255.0.1"))
    with caplog.at_level("WARNING", logger="edisco.rounds"):
        discover_phase(tree, StubResolver(["127.0.0.1"]), LiveWhois(server="127.0.0.1"))
    node = {address: n for n in tree.nodes.values() for address in n.member_addresses}
    assert node["10.0.0.1"].domains == {"domainA.com"}
    assert len(node["10.0.0.1"].edge_servers) == 4
    assert node["10.0.1.1"].domains == set()
    assert node["10.0.2.1"].domains == {"exämple.com"}
    assert node["10.0.2.1"].edge_servers == []
    assert any("bad label" in message for message in caplog.messages)


# -- slow and faulty peers ---------------------------------------------------------

PTR_NODE = "240.0.7.1"  # alone in its seed-42 node; its PTR names it, whois does not
WHOIS_NODE = "240.0.12.10"  # alone in its seed-42 node; no PTR, whois names it below
WHOIS_TEXT = {WHOIS_NODE: "domain: isp0.test\r\n"}


def test_a_dns_query_over_tcp_ends_at_its_timeout(serve):
    """The reply is dripped one byte at a time, each well within the
    timeout; the whole query must still end when the timeout runs out."""
    responder = serve(REFERENCE_ZONE)
    responder.faults["serverA.domainA.com"] = "drip"
    mark = time.monotonic()
    with pytest.raises(ResolverUnreachableError):
        dnswire.query("127.0.0.1", "serverA.domainA.com", dnswire.TYPE_A, timeout=0.5)
    assert time.monotonic() - mark < 0.5 + 0.3
    assert (responder.counts["udp"], responder.counts["tcp"]) == (1, 1)


def test_a_whois_query_ends_at_its_timeout(serve):
    responder = serve(REFERENCE_ZONE, None, WHOIS_TEXT)
    responder.faults[WHOIS_NODE] = "drip"
    mark = time.monotonic()
    with pytest.raises(WhoisUnreachableError):
        LiveWhois(server="127.0.0.1", timeout=0.5).domains_for(WHOIS_NODE)
    assert time.monotonic() - mark < 0.5 + 0.3


def seed42_round(monkeypatch, faults) -> dict:
    """A seed-42 round over loopback with `faults` switched on; every
    node's domains by subnet, from the tree the round built."""
    bundle = generate_scenario(ScenarioSpec(clients=100, seed=42))
    trees = []
    monkeypatch.setattr(rounds, "build_tree", lambda *args: trees.append(build_tree(*args)) or trees[-1])
    with LoopbackResponder(parse_zone(bundle.zone_text), FixtureWhois(bundle.whois), WHOIS_TEXT) as responder:
        monkeypatch.setattr(dnswire, "DNS_PORT", responder.dns_port)
        monkeypatch.setattr(discovery, "WHOIS_PORT", responder.whois_port)
        responder.faults.update(faults)
        run_round(
            bundle_round_config(bundle),
            load_service_profiles(bundle.services),
            live_providers(ingest_recorded_paths(bundle.traces), bundle.capacity, whois_timeout=0.5),
        )
    return {node.subnet: node.domains for node in trees[0].nodes.values()}


@pytest.fixture(scope="module")
def fault_free_domains():
    with pytest.MonkeyPatch.context() as monkeypatch:
        domains = seed42_round(monkeypatch, {})
    for address in (PTR_NODE, WHOIS_NODE):
        assert domains[group_subnet(address)], address  # known without a fault
    return domains


@pytest.mark.parametrize(
    "fault, address",
    [
        ("servfail", PTR_NODE),
        ("garbage", PTR_NODE),
        ("wrong_question", PTR_NODE),
        ("drop", PTR_NODE),  # waits out dnswire.query's 2.0 s default once
        ("drip", PTR_NODE),  # the same
        ("oversize", WHOIS_NODE),
        ("drip", WHOIS_NODE),
    ],
)
def test_a_faulty_peer_leaves_only_its_node_unknown(monkeypatch, fault_free_domains, fault, address):
    key = reverse_pointer_name(address) if address == PTR_NODE else address
    expected = dict(fault_free_domains)
    expected[group_subnet(address)] = set()
    assert seed42_round(monkeypatch, {key: fault}) == expected


def test_a_lost_ptr_reply_leaves_the_node_identified(monkeypatch, fault_free_domains):
    """With the first PTR datagram lost, the retransmission is answered, so
    the round names the node as it does without a fault."""
    assert seed42_round(monkeypatch, {reverse_pointer_name(PTR_NODE): "drop_first"}) == fault_free_domains
