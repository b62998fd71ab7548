from __future__ import annotations

import ipaddress
import logging
import random
import socket
import struct
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edisco import dnswire
from edisco.discovery import (
    LOOKUP_CONCURRENCY,
    WHOIS_MAX_BYTES,
    DomainIdentity,
    EdgeServer,
    FixtureWhois,
    LiveWhois,
    Provenance,
    StubResolver,
    annotate_tree,
    discover_local_edges,
    identify_addresses,
    registrable_domain,
    reverse_lookup,
    select_server,
)
from edisco.errors import (
    MalformedFixtureError,
    MalformedNameError,
    MalformedSrvError,
    NoServersError,
    WhoisUnreachableError,
)
from edisco.rounds import discover_phase
from edisco.topology import build_tree, compute_centrality, group_subnet
from edisco.zonefile import PtrRecord, Transport, parse_zone, reverse_pointer_name

from conftest import (
    LoopbackResponder,
    OverlapGauge,
    hand_name,
    make_path,
    mutated,
    record,
    response_packet,
    small_bundle,
)


@pytest.fixture
def resolver(reference_zone):
    return parse_zone(reference_zone)


def server(priority=10, weight=30, address="192.168.121.30", port=5060, proto=Transport.TCP):
    return EdgeServer(
        zone="domainA.com",
        protocol=proto,
        priority=priority,
        weight=weight,
        address=address,
        port=port,
    )


# --- registrable_domain ---


def test_registrable_domain_two_labels():
    assert registrable_domain("router1.domainA.com") == "domainA.com"
    assert registrable_domain("domainA.com.") == "domainA.com"


def test_registrable_domain_multi_label_suffix():
    assert registrable_domain("router1.isp.co.uk") == "isp.co.uk"


def test_registrable_domain_custom_suffixes():
    # only the listed suffixes keep a third label
    assert registrable_domain("a.b.internal.example") == "internal.example"
    assert registrable_domain("a.b.isp.com.au") == "isp.com.au"


# --- identity ---


def test_reverse_lookup_prefers_ptr(reference_zone):
    resolver = parse_zone(
        reference_zone + "30.121.168.192.in-addr.arpa. 86400 IN PTR serverA.domainA.com.\n"
    )
    whois = FixtureWhois({"192.168.121.0/24": "other.net"})
    identity = reverse_lookup("192.168.121.30", resolver, whois)
    assert identity.domain == "domainA.com"
    assert identity.provenance is Provenance.PTR


def test_reverse_lookup_falls_back_to_whois(resolver):
    whois = FixtureWhois({"198.51.100.0/24": "domainB.net"})
    identity = reverse_lookup("198.51.100.7", resolver, whois)
    assert identity.domain == "domainB.net"
    assert identity.provenance is Provenance.WHOIS


def test_reverse_lookup_unknown_when_nothing_matches(resolver):
    identity = reverse_lookup("203.0.113.9", resolver)
    assert identity.provenance is Provenance.UNKNOWN
    assert identity.domain is None


def test_whois_ambiguity_takes_smallest_with_warning(caplog):
    class Ambiguous:
        def domains_for(self, address):
            return ["a.com", "b.com"]

    with caplog.at_level(logging.WARNING):
        identity = reverse_lookup("203.0.113.9", parse_zone(""), Ambiguous())
    assert identity.domain == "a.com"
    assert any("ambiguous" in r.message for r in caplog.records)


def test_whois_empty_answer_is_unknown():
    class Silent:
        def domains_for(self, address):
            return []

    identity = reverse_lookup("203.0.113.9", parse_zone(""), Silent())
    assert identity.provenance is Provenance.UNKNOWN


def test_fixture_whois_table_round_trips():
    table = {f"198.51.{i}.0/24": f"org{i}.net" for i in range(10)}
    whois = FixtureWhois(table)
    for i in range(10):
        assert whois.domains_for(f"198.51.{i}.200") == [f"org{i}.net"]


def oracle_domains(table, address):
    """The scan the prefix table replaced: every network, tested in turn."""
    ip = ipaddress.ip_address(address)
    return sorted({d for cidr, d in table.items() if ip in ipaddress.ip_network(cidr)})


WHOIS_ADDRESSES = ["10.0.0.1", "10.0.0.200", "10.0.1.7", "10.1.0.1", "11.0.0.1"]
whois_prefix = st.builds(
    lambda address, length: str(ipaddress.IPv4Network((address, length), strict=False)),
    st.sampled_from(WHOIS_ADDRESSES),
    st.integers(8, 32),
)


@given(st.dictionaries(whois_prefix, st.sampled_from(["a.net", "b.net", "c.org"]), max_size=10))
def test_fixture_whois_matches_network_scan(table):
    whois = FixtureWhois(table)
    for address in WHOIS_ADDRESSES + ["12.0.0.1"]:
        assert whois.domains_for(address) == oracle_domains(table, address)


def text_keyed_domains(table, address):
    """The lookup the integer keys replaced: the address's enclosing prefix
    formatted as text once per prefix length in the table."""
    lengths = sorted({int(prefix.partition("/")[2]) for prefix in table})
    found = (table.get(group_subnet(address, n)) for n in lengths)
    return sorted({domain for domain in found if domain is not None})


def text_of(packed: int) -> str:
    return socket.inet_ntoa((packed % 2**32).to_bytes(4, "big"))


@st.composite
def whois_tables_and_probes(draw):
    """A table with prefixes of any length /0-/32, and the addresses on
    and just past each prefix's bounds plus a few anywhere."""
    table, probes = {}, []
    for packed, length in draw(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)), min_size=1, max_size=8)):
        prefix = group_subnet(text_of(packed), length)
        table[prefix] = draw(st.sampled_from(["a.net", "b.net", "c.org"]))
        first = int(ipaddress.IPv4Network(prefix).network_address)
        last = first + 2 ** (32 - length) - 1
        probes += [text_of(v) for v in (first - 1, first, packed, last, last + 1)]
    probes += [text_of(v) for v in draw(st.lists(st.integers(0, 2**32 - 1), max_size=3))]
    return table, probes


@given(whois_tables_and_probes())
def test_fixture_whois_matches_text_keyed_lookup(table_and_probes):
    table, probes = table_and_probes
    whois = FixtureWhois(table)
    for address in probes:
        assert whois.domains_for(address) == text_keyed_domains(table, address)


def test_empty_fixture_whois_knows_no_address():
    assert FixtureWhois({}).domains_for("10.0.0.1") == []


@pytest.mark.parametrize(
    "table",
    [
        ["10.0.0.0/8"],
        {"x": "a.net"},
        {"10.0.0.1/8": "a.net"},
        {"010.0.0.0/8": "a.net"},
        {"2001:db8::/32": "a.net"},
        {"10.0.0.0/8": None},
        # a domain DNS cannot carry, the zone's rule; "" would be no domain
        {"10.0.0.0/8": ""},
        {"10.0.0.0/8": "a..b"},
        {"10.0.0.0/8": "ex\u00e4mple.net"},
        {"10.0.0.0/8": "x" * 64 + ".net"},
    ],
)
def test_fixture_whois_rejects_malformed_table(table):
    with pytest.raises(MalformedFixtureError):
        FixtureWhois(table)


class FakeWhoisSocket:
    """A connected port-43 socket that sends `reply` in 4 KiB chunks and
    records the timeouts it is given."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.sent = b""
        self.timeouts = []

    def settimeout(self, timeout):
        self.timeouts.append(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def sendall(self, data):
        self.sent += data

    def recv(self, size):
        chunk, self.reply = self.reply[:size], self.reply[size:]
        return chunk


def test_live_whois_reads_mail_and_domain_attributes(monkeypatch):
    reply = b"OrgName: Example\r\n" + b"% padding\r\n" * 500
    reply += b"OrgAbuseEmail: abuse@noc.example.net\r\ndomain: Example.ORG\r\n"
    sock = FakeWhoisSocket(reply)
    monkeypatch.setattr(socket, "create_connection", lambda *a, **k: sock)
    assert LiveWhois(server="whois.example").domains_for("198.51.100.7") == [
        "Example.ORG",
        "example.net",
    ]
    assert sock.sent == b"198.51.100.7\r\n"
    # one timeout per recv, each what is left of the query's 5 s
    assert len(sock.timeouts) == len(reply) // 4096 + 2
    assert all(0 < b <= a <= 5.0 for a, b in zip([5.0] + sock.timeouts, sock.timeouts))


def test_live_whois_skips_a_mail_address_without_domain(monkeypatch):
    reply = "OrgAbuseEmail: noc@\nOrgNOCEmail: noc@isp..test\nOrgTechEmail: tech@isp.test\n"
    monkeypatch.setattr(LiveWhois, "_raw_query", lambda self, address: reply)
    whois = LiveWhois(server="whois.example")
    assert whois.domains_for("198.51.100.7") == ["isp.test"]
    assert reverse_lookup("198.51.100.7", parse_zone(""), whois) == DomainIdentity(
        address="198.51.100.7", domain="isp.test", provenance=Provenance.WHOIS
    )


WHOIS_KEYS = ["domain", "Domain ", "OrgAbuseEmail", "e-mail", "mailbox", "OrgName", "%"]
whois_line = st.builds(
    "{}:{}".format,
    st.sampled_from(WHOIS_KEYS) | st.text(max_size=6),
    st.text(alphabet="@.: \tab\u00e4\x00-", max_size=16) | st.text(max_size=16),
) | st.text(max_size=16)


@pytest.mark.fuzz
@given(st.lists(whois_line, max_size=8), st.sampled_from(["\r\n", "\n", "\r"]))
def test_live_whois_domains_for_never_raises(lines, newline):
    """Whatever text a registry sends, the answer is a sorted list of
    names, each with no empty label."""
    whois = LiveWhois(server="whois.example")
    whois._raw_query = lambda address: newline.join(lines)
    domains = whois.domains_for("198.51.100.7")
    assert type(domains) is list and domains == sorted(set(domains))
    assert all(type(d) is str and "" not in d.split(".") for d in domains)


def test_live_whois_rejects_an_oversized_reply(monkeypatch):
    reply = b"domain: example.net\r\n" * (WHOIS_MAX_BYTES // 10)
    monkeypatch.setattr(socket, "create_connection", lambda *a, **k: FakeWhoisSocket(reply))
    with pytest.raises(WhoisUnreachableError, match="whois.example"):
        LiveWhois(server="whois.example").domains_for("198.51.100.7")


def test_identify_addresses_covers_all_inputs(resolver):
    whois = FixtureWhois({"192.168.121.0/24": "domainA.com"})
    identities = identify_addresses(
        ["192.168.121.30", "192.168.121.31", "203.0.113.9"], resolver, whois
    )
    assert set(identities) == {"192.168.121.30", "192.168.121.31", "203.0.113.9"}
    assert identities["192.168.121.30"].domain == "domainA.com"
    assert identities["203.0.113.9"].provenance is Provenance.UNKNOWN


class GaugedResolver:
    """A slow PTR resolver that knows every address except those in `missing`."""

    def __init__(self, gauge, missing):
        self.gauge = gauge
        self.missing = set(missing)

    def lookup_ptr(self, address):
        with self.gauge.call():
            if address in self.missing:
                return None
            return PtrRecord(address=address, target=f"r.{address}.net")


@pytest.mark.parametrize("n", [19, 3])
def test_identify_addresses_fills_its_width_and_keeps_address_order(n):
    addresses = [f"10.0.{i}.{(37 * i) % 250 + 1}" for i in range(n)]
    ordered = sorted(addresses, key=lambda a: tuple(int(o) for o in a.split(".")))
    missing = ordered[1::3]
    random.Random(n).shuffle(addresses)
    gauge = OverlapGauge(min(LOOKUP_CONCURRENCY, n))
    identities = identify_addresses(addresses, GaugedResolver(gauge, missing))
    assert gauge.most_in_flight == min(LOOKUP_CONCURRENCY, n)
    assert list(identities) == ordered
    for address, identity in identities.items():
        assert identity.address == address
        if address in missing:
            assert identity.provenance is Provenance.UNKNOWN
        else:
            assert identity.domain == f"{address.split('.')[-1]}.net"


# --- SRV queries ---


def test_discover_local_edges_resolves_both_servers(resolver):
    servers = discover_local_edges("domainA.com", resolver)
    assert [(s.protocol, s.address, s.port) for s in servers] == [
        (Transport.TCP, "192.168.121.30", 5060),
        (Transport.UDP, "192.168.121.30", 1720),
        (Transport.TCP, "192.168.121.31", 5060),
        (Transport.UDP, "192.168.121.31", 1720),
    ]
    assert {s.weight for s in servers} == {30, 10}


def test_discover_local_edges_absent_domain_is_empty(resolver):
    assert discover_local_edges("other.org", resolver) == []


def test_discover_local_edges_drops_target_without_a(reference_zone, caplog):
    zone = parse_zone(
        reference_zone
        + "_edge._tcp.domainA.com. 86400 IN SRV 10 5 5060 ghost.domainA.com.\n"
    )
    with caplog.at_level(logging.WARNING):
        servers = discover_local_edges("domainA.com", zone)
    assert len(servers) == 4
    assert any("ghost.domainA.com" in r.message for r in caplog.records)


def test_discover_local_edges_asks_tcp_then_udp(resolver):
    """Each SRV answer's targets are resolved before the next transport is
    asked, the lookup order the benchmark's reference counts rest on."""
    asked = []

    class Recording:
        def lookup_srv(self, qname):
            asked.append(qname)
            return resolver.lookup_srv(qname)

        def lookup_a(self, name):
            asked.append(name)
            return resolver.lookup_a(name)

    discover_local_edges("domainA.com", Recording())
    assert asked == [
        "_edge._tcp.domainA.com", "serverA.domainA.com", "serverB.domainA.com",
        "_edge._udp.domainA.com", "serverA.domainA.com", "serverB.domainA.com",
    ]


def test_discover_local_edges_merges_transports(resolver):
    servers = discover_local_edges("domainA.com", resolver)
    assert len(servers) == 4
    assert {s.protocol for s in servers} == {Transport.TCP, Transport.UDP}
    priorities = [s.priority for s in servers]
    assert priorities == sorted(priorities)


def test_discover_local_edges_rejects_empty_domain(resolver):
    with pytest.raises(ValueError):
        discover_local_edges("", resolver)


def test_query_edge_srv_rejects_empty_domain(resolver):
    """An empty domain is refused before any `_edge` SRV query is asked, so
    no `_edge._tcp.` or `_edge._udp.` name goes to the resolver."""
    asked = []

    class Recording:
        def lookup_srv(self, qname):
            asked.append(qname)
            return resolver.lookup_srv(qname)

        def lookup_a(self, name):
            asked.append(name)
            return resolver.lookup_a(name)

    with pytest.raises(ValueError, match="domain must be non-empty"):
        discover_local_edges("", Recording())
    assert asked == []


# --- selection ---


def test_select_single_server():
    only = server()
    assert select_server([only], random.Random(1)) is only


def test_select_lowest_priority_always_wins():
    low = server(priority=10, weight=1)
    high = server(priority=20, weight=1000, address="192.168.121.31")
    rng = random.Random(7)
    for _ in range(500):
        assert select_server([low, high], rng) is low


def test_select_weight_proportions_over_10k_draws():
    heavy = server(weight=30)
    light = server(weight=10, address="192.168.121.31")
    rng = random.Random(2024)
    hits = Counter(
        select_server([heavy, light], rng).address for _ in range(10_000)
    )
    share = hits["192.168.121.30"] / 10_000
    assert 0.73 <= share <= 0.77


def test_select_frequency_chi_squared():
    servers = [
        server(weight=50),
        server(weight=30, address="192.168.121.31"),
        server(weight=20, address="192.168.121.32"),
    ]
    rng = random.Random(99)
    n = 10_000
    hits = Counter(select_server(servers, rng).address for _ in range(n))
    chi2 = sum(
        (hits[s.address] - n * s.weight / 100) ** 2 / (n * s.weight / 100)
        for s in servers
    )
    assert chi2 < 9.21  # df=2, p=0.01


def test_select_all_zero_weights_uniform():
    a = server(weight=0)
    b = server(weight=0, address="192.168.121.31")
    rng = random.Random(5)
    hits = Counter(select_server([a, b], rng).address for _ in range(2000))
    assert hits["192.168.121.30"] > 800
    assert hits["192.168.121.31"] > 800


def test_select_zero_weight_unreachable_in_mixed_group():
    weighted = server(weight=30)
    zero = server(weight=0, address="192.168.121.31")
    rng = random.Random(3)
    for _ in range(500):
        assert select_server([weighted, zero], rng) is weighted


def test_select_empty_rejected():
    with pytest.raises(NoServersError):
        select_server([], random.Random(0))


def test_select_deterministic_per_seed():
    servers = [server(weight=30), server(weight=10, address="192.168.121.31")]
    picks_a = [select_server(servers, random.Random(42)).address for _ in range(5)]
    picks_b = [select_server(servers, random.Random(42)).address for _ in range(5)]
    assert picks_a == picks_b


# --- the stub resolver ---


REFERENCE_WIRE = {
    ("_edge._tcp.domaina.com", dnswire.TYPE_SRV): [(10, 30, 5060, "serverA.domainA.com")],
    ("servera.domaina.com", dnswire.TYPE_A): ["192.168.121.30", "192.168.121.31"],
}


class FakeDns:
    """Stands in for dnswire.query: answer data, as parse_response decodes
    it, from a table keyed by (lower-case name, type); records the
    transaction ids."""

    def __init__(self, answers=REFERENCE_WIRE):
        self.answers = answers
        self.txids = []

    def __call__(self, server, qname, qtype, timeout=2.0, txid=0):
        dnswire.build_query(qname, qtype, txid)  # as the real query does first
        self.txids.append(txid)
        return self.answers.get((qname.lower(), qtype), [])


def fake_stub(monkeypatch, dns) -> StubResolver:
    monkeypatch.setattr(dnswire, "query", dns)
    return StubResolver(servers=["203.0.113.1"])


def test_stub_records_carry_the_asked_names_case(monkeypatch):
    stub = fake_stub(monkeypatch, FakeDns())
    records = stub.lookup_a("SERVERA.DOMAINA.COM")
    assert [r.address for r in records] == ["192.168.121.30", "192.168.121.31"]
    assert records[0].name == "SERVERA.DOMAINA.COM"


@pytest.mark.parametrize(
    "lookup, name", [("lookup_a", "t.test.."), ("lookup_srv", "_edge._tcp.a.test..")]
)
def test_stub_refuses_a_name_ending_in_two_dots_before_any_socket(monkeypatch, lookup, name):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(dnswire.socket, "socket", no_socket)
    monkeypatch.setattr(dnswire.socket, "create_connection", no_socket)
    with pytest.raises(MalformedNameError, match="bad label ''"):
        getattr(StubResolver(servers=["203.0.113.1"]), lookup)(name)


def test_stub_draws_random_transaction_ids(monkeypatch):
    dns = FakeDns()
    stub = fake_stub(monkeypatch, dns)
    for i in range(64):
        stub.lookup_a(f"host{i}.domainA.com")
    assert len(dns.txids) == 64
    assert all(0 <= txid <= 0xFFFF for txid in dns.txids)
    assert dns.txids != list(range(1, 65))


def test_srv_target_root_means_not_available(monkeypatch):
    """RFC 2782: target "." says the service is decidedly not available.
    The round completes and the node carries no edge servers."""
    answers = {
        (reverse_pointer_name("192.168.121.30").lower(), dnswire.TYPE_PTR): ["r1.domainA.com"],
        ("_edge._tcp.domaina.com", dnswire.TYPE_SRV): [(0, 0, 0, "")],
    }
    stub = fake_stub(monkeypatch, FakeDns(answers))
    tree = compute_centrality(build_tree([make_path("172.16.0.9", "192.168.121.30")], "10.0.0.1"))
    discover_phase(tree, stub)
    hop = next(n for n in tree.nodes.values() if "192.168.121.30" in n.member_addresses)
    assert hop.domains == {"domainA.com"}
    assert all(node.edge_servers == [] for node in tree.nodes.values())
    assert stub.lookup_srv("_edge._tcp.domainA.com") == []


def test_srv_answer_with_port_0_is_dropped(monkeypatch):
    """Port 0 is outside the SRV grammar, and a plan that names such a
    server cannot be read back: only the answer with a port is kept."""
    answers = dict(REFERENCE_WIRE)
    answers["_edge._tcp.domaina.com", dnswire.TYPE_SRV] = [
        (5, 50, 0, "serverA.domainA.com"),
        *REFERENCE_WIRE["_edge._tcp.domaina.com", dnswire.TYPE_SRV],
    ]
    stub = fake_stub(monkeypatch, FakeDns(answers))
    servers = discover_local_edges("domainA.com", stub)
    assert [(s.protocol, s.priority, s.port) for s in servers] == [(Transport.TCP, 10, 5060)]
    assert [EdgeServer.from_document(s.to_document()) for s in servers] == servers


@pytest.mark.parametrize(
    "qname, field",
    [
        ("edge._tcp.domainA.com", 1),
        ("_._tcp.domainA.com", 1),
        ("_edge.domainA.com", 2),
        ("_edge._sctp.domainA.com", 2),
        ("_edge._tcp", 2),
    ],
)
def test_stub_refuses_an_srv_qname_of_another_shape_before_it_sends(monkeypatch, qname, field):
    def no_query(*args, **kwargs):
        raise AssertionError("a query was sent")

    stub = fake_stub(monkeypatch, no_query)
    with pytest.raises(MalformedSrvError) as err:
        stub.lookup_srv(qname)
    assert err.value.field == field


# --- stub resolver adapter ---


def test_stub_resolver_maps_srv_answers(monkeypatch):
    answers = [(10, 30, 5060, "serverA.domainA.com")]
    monkeypatch.setattr(dnswire, "query", lambda *a, **k: answers)
    stub = StubResolver(servers=["203.0.113.1"])
    records = stub.lookup_srv("_edge._tcp.domainA.com")
    assert records[0].zone == "domainA.com"
    assert records[0].target == "serverA.domainA.com"
    assert records[0].protocol is Transport.TCP


def test_stub_resolver_maps_ptr_and_a(monkeypatch):
    def fake_query(server, qname, qtype, timeout=2.0, txid=0):
        if qtype == dnswire.TYPE_PTR:
            return ["r1.domainA.com"]
        return ["192.168.121.30"]

    monkeypatch.setattr(dnswire, "query", fake_query)
    stub = StubResolver(servers=["203.0.113.1"])
    assert stub.lookup_ptr("192.168.121.30").target == "r1.domainA.com"
    assert stub.lookup_a("serverA.domainA.com")[0].address == "192.168.121.30"


def test_stub_resolver_tries_next_server(monkeypatch):
    attempts = []

    def fake_query(server, qname, qtype, timeout=2.0, txid=0):
        attempts.append(server)
        if server == "203.0.113.1":
            raise OSError("refused")
        return []

    monkeypatch.setattr(dnswire, "query", fake_query)
    stub = StubResolver(servers=["203.0.113.1", "203.0.113.2"])
    assert stub.lookup_a("x.example") == []
    assert attempts == ["203.0.113.1", "203.0.113.2"]


CLASS_CH = 3
HOP = "192.168.121.30"


def wire_stub(monkeypatch, answers) -> StubResolver:
    """A StubResolver whose UDP exchange answers each question from
    `answers`, a map of (name, type) to the answers' `record` arguments."""

    def exchange(server, request, deadline):
        txid, qname, qtype = LoopbackResponder.question(request)
        found = [record(*answer) for answer in answers.get((qname, qtype), [])]
        return response_packet(txid, 0, found, qname=qname, qtype=qtype)

    monkeypatch.setattr(dnswire, "_query_udp", exchange)
    return StubResolver(servers=["203.0.113.1"])


def in_ptr(name):
    return [(dnswire.TYPE_PTR, hand_name(*name.split(".")))]


SRV_RDATA = struct.pack(">HHH", 10, 30, 5060) + hand_name("serverA", "domainA", "com")


def test_an_a_answer_of_another_class_leaves_the_round_complete_without_edge_servers(monkeypatch):
    """The only A answer for the SRV target is of class CH: no address, so
    the target is dropped, and discovery finishes with the hop's domain."""
    stub = wire_stub(
        monkeypatch,
        {
            (reverse_pointer_name(HOP), dnswire.TYPE_PTR): in_ptr("r1.domainA.com"),
            ("_edge._tcp.domainA.com", dnswire.TYPE_SRV): [(dnswire.TYPE_SRV, SRV_RDATA)],
            ("serverA.domainA.com", dnswire.TYPE_A): [
                (dnswire.TYPE_A, bytes([192, 0, 2, 1]), 60, CLASS_CH)
            ],
        },
    )
    assert stub.lookup_a("serverA.domainA.com") == []
    tree = compute_centrality(build_tree([make_path("172.16.0.9", HOP)], "10.0.0.1"))
    discover_phase(tree, stub)
    hop = next(n for n in tree.nodes.values() if HOP in n.member_addresses)
    assert hop.domains == {"domainA.com"}
    assert all(node.edge_servers == [] for node in tree.nodes.values())


def test_a_ptr_answer_of_another_class_gives_no_identity(monkeypatch):
    ptr = (reverse_pointer_name(HOP), dnswire.TYPE_PTR)
    ch_ptr = (dnswire.TYPE_PTR, hand_name("r1", "isp", "test"), 60, CLASS_CH)
    stub = wire_stub(monkeypatch, {ptr: [ch_ptr]})
    assert stub.lookup_ptr(HOP) is None
    assert reverse_lookup(HOP, stub) == DomainIdentity(address=HOP)
    stub = wire_stub(monkeypatch, {ptr: in_ptr("r1.isp.test")})
    assert reverse_lookup(HOP, stub).domain == "isp.test"


def test_a_ptr_answer_naming_the_root_is_skipped_so_whois_is_asked(monkeypatch):
    """A PTR answer whose name is the root names no domain: the stub skips
    it, takes a later answer if one names a host, and else has no record,
    so identification falls back to whois."""
    stub = StubResolver(servers=["203.0.113.1"])
    whois = FixtureWhois({"192.168.121.0/24": "domainA.com"})
    monkeypatch.setattr(stub, "_query", lambda qname, qtype: [""])
    assert stub.lookup_ptr(HOP) is None
    assert reverse_lookup(HOP, stub, whois) == DomainIdentity(
        address=HOP, domain="domainA.com", provenance=Provenance.WHOIS
    )
    monkeypatch.setattr(stub, "_query", lambda qname, qtype: ["", "r1.isp.test"])
    assert stub.lookup_ptr(HOP) == PtrRecord(address=HOP, target="r1.isp.test")


# --- annotation ---


def annotated_tree(resolver):
    tree = compute_centrality(
        build_tree(
            [
                make_path("172.16.0.9", "192.168.121.30"),
                make_path("172.16.1.9", "203.0.113.77"),
            ],
            "10.0.0.1",
        )
    )
    identities = {
        "192.168.121.30": DomainIdentity(
            address="192.168.121.30", domain="domainA.com", provenance=Provenance.PTR
        )
    }
    edges = {"domainA.com": discover_local_edges("domainA.com", resolver)}
    return annotate_tree(tree, identities, edges)


def test_annotate_attaches_servers(resolver):
    tree = annotated_tree(resolver)
    node = tree.nodes["192.168.121.0/24"]
    assert node.domains == {"domainA.com"}
    assert [s.address for s in node.edge_servers] == ["192.168.121.30"] * 2 + ["192.168.121.31"] * 2


def test_annotate_unknown_node_stays_bare(resolver):
    tree = annotated_tree(resolver)
    assert tree.nodes["203.0.113.0/24"].edge_servers == []
    assert tree.nodes["203.0.113.0/24"].domains == set()


def test_annotate_idempotent(resolver):
    tree = annotated_tree(resolver)
    before = tree.to_document()
    identities = {
        "192.168.121.30": DomainIdentity(
            address="192.168.121.30", domain="domainA.com", provenance=Provenance.PTR
        )
    }
    edges = {"domainA.com": discover_local_edges("domainA.com", resolver)}
    annotate_tree(tree, identities, edges)
    assert tree.to_document() == before


def test_annotate_preserves_structure_and_centrality(resolver):
    tree = annotated_tree(resolver)
    doc = tree.to_document()
    bare = compute_centrality(
        build_tree(
            [
                make_path("172.16.0.9", "192.168.121.30"),
                make_path("172.16.1.9", "203.0.113.77"),
            ],
            "10.0.0.1",
        )
    ).to_document()
    assert doc["edges"] == bare["edges"]
    assert [n["subnet"] for n in doc["nodes"]] == [n["subnet"] for n in bare["nodes"]]
    assert [n["centrality"] for n in doc["nodes"]] == [
        n["centrality"] for n in bare["nodes"]
    ]


# --- edge server documents ---


def test_edge_server_document_round_trip():
    s = server()
    assert EdgeServer.from_document(s.to_document()) == s


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("priority", True, "'priority' is missing or not of type int"),
        ("weight", False, "'weight' is missing or not of type int"),
        ("port", True, "'port' is missing or not of type int"),
        ("priority", -1, "'priority' out of range 0..65535"),
        ("priority", 65536, "'priority' out of range 0..65535"),
        ("weight", 70000, "'weight' out of range 0..65535"),
        ("port", 0, "'port' out of range 1..65535"),
        ("port", 65536, "'port' out of range 1..65535"),
        ("port", 99999, "'port' out of range 1..65535"),
    ],
)
def test_edge_server_document_refuses_what_no_srv_record_holds(key, value, message):
    """The zone grammar's SRV ranges, and JSON true and false are no numbers."""
    doc = {**server().to_document(), key: value}
    with pytest.raises(MalformedFixtureError, match=message):
        EdgeServer.from_document(doc)


@pytest.mark.fuzz
@given(mutated(small_bundle().whois))
def test_whois_fixture_raises_only_malformed_fixture_error(document):
    try:
        FixtureWhois(document)
    except MalformedFixtureError:
        pass
