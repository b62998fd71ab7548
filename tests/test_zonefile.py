from __future__ import annotations

from ipaddress import IPv4Address

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edisco.errors import MalformedSrvError, MalformedZoneError
from edisco.zonefile import (
    ARecord,
    PtrRecord,
    SrvRecord,
    Transport,
    parse_zone,
    render_a_line,
    render_ptr_line,
    render_srv_line,
    reverse_pointer_name,
)

TCP_LINE = "_edge._tcp.domainA.com. 86400 IN SRV 10 30 5060 serverA.domainA.com."
UDP_LINE = "_edge._udp.domainA.com. 86400 IN SRV 10 10 1720 serverB.domainA.com."


def squash(text: str) -> str:
    return " ".join(text.split())


def srv(line: str) -> SrvRecord:
    """The one record of a one-line zone."""
    (record,) = parse_zone(line).srv_records
    return record


def test_parse_tcp_line_fields():
    r = srv(TCP_LINE)
    assert r.service == "edge"
    assert r.protocol is Transport.TCP
    assert r.zone == "domainA.com"
    assert r.priority == 10
    assert r.weight == 30
    assert r.port == 5060
    assert r.target == "serverA.domainA.com"


def test_parse_udp_line_fields():
    r = srv(UDP_LINE)
    assert r.protocol is Transport.UDP
    assert r.weight == 10
    assert r.port == 1720
    assert r.target == "serverB.domainA.com"


def test_whitespace_runs_tolerated():
    padded = "_edge._tcp.domainA.com.    86400  IN SRV  10 30  5060   serverA.domainA.com."
    assert srv(padded) == srv(TCP_LINE)


def test_trailing_dots_normalized_away():
    r = srv(TCP_LINE)
    assert not r.zone.endswith(".")
    assert not r.target.endswith(".")


def srv_error_field(line: str) -> int | None:
    """The field parse_zone reports for one bad SRV line, put second in
    the zone, which it cites as line 2."""
    with pytest.raises(MalformedSrvError) as zoned:
        parse_zone(f"{TCP_LINE}\n{line}")
    assert str(zoned.value).startswith("line 2: ")
    return zoned.value.field


def test_missing_port_reports_field_8():
    # target present where the port should be
    assert srv_error_field("_edge._tcp.domainA.com. 86400 IN SRV 10 30 serverA.domainA.com.") == 8


def test_short_line_missing_port_and_target_reports_field_8():
    assert srv_error_field("_edge._tcp.domainA.com. 86400 IN SRV 10 30") == 8


def test_missing_target_reports_field_9():
    assert srv_error_field("_edge._tcp.domainA.com. 86400 IN SRV 10 30 5060") == 9


def test_non_integer_priority_reports_field_6():
    assert srv_error_field("_edge._tcp.domainA.com. 86400 IN SRV high 30 5060 s.domainA.com.") == 6


@pytest.mark.parametrize("number", ["+5", "1_0", "\u0663", "-0"])
@pytest.mark.parametrize("field", [6, 7, 8])
def test_srv_numbers_are_ascii_decimal_digits(number, field):
    """int() takes each of these; a zone's numbers are decimal digits only."""
    rdata = ["10", "30", "5060", "s.domainA.com."]
    rdata[field - 6] = number
    assert srv_error_field(f"_edge._tcp.domainA.com. 86400 IN SRV {' '.join(rdata)}") == field


@pytest.mark.parametrize("ttl", ["+86400", "86_400"])
def test_srv_line_ttl_is_ascii_decimal_digits_as_in_a_zone(ttl):
    line = f"_edge._tcp.domainA.com. {ttl} IN SRV 10 30 5060 s.domainA.com."
    with pytest.raises(MalformedZoneError, match="missing TTL"):
        parse_zone(line)


def test_port_zero_rejected():
    assert srv_error_field("_edge._tcp.domainA.com. 86400 IN SRV 10 30 0 s.domainA.com.") == 8


def test_weight_above_16_bits_rejected():
    assert srv_error_field("_edge._tcp.domainA.com. 86400 IN SRV 10 70000 5060 s.domainA.com.") == 7


def test_owner_without_underscore_rejected():
    assert srv_error_field("edge._tcp.domainA.com. 86400 IN SRV 10 30 5060 s.domainA.com.") == 1


def test_unknown_protocol_rejected():
    assert srv_error_field("_edge._sctp.domainA.com. 86400 IN SRV 10 30 5060 s.domainA.com.") == 2


@pytest.mark.parametrize(
    "owner, field",
    [("_._tcp.domainA.com.", 1), ("__._tcp.domainA.com.", 1), ("_edge._tcp.", 2), ("_edge._.d.", 2)],
)
def test_owner_without_service_protocol_or_zone_rejected(owner, field):
    assert srv_error_field(f"{owner} 86400 IN SRV 10 30 5060 s.domainA.com.") == field


def test_target_root_reports_field_9():
    assert srv_error_field("_edge._tcp.domainA.com. 86400 IN SRV 0 0 1 .") == 9


def test_trailing_junk_rejected():
    assert srv_error_field(TCP_LINE + " extra") is None


def test_render_reproduces_line():
    assert render_srv_line(srv(TCP_LINE)) == squash(TCP_LINE)
    assert render_srv_line(srv(UDP_LINE)) == squash(UDP_LINE)


label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))
name = st.builds(lambda parts: ".".join(parts), st.lists(label, min_size=2, max_size=4))


@given(
    service=label,
    protocol=st.sampled_from(list(Transport)),
    zone=name,
    priority=st.integers(min_value=0, max_value=65535),
    weight=st.integers(min_value=0, max_value=65535),
    port=st.integers(min_value=1, max_value=65535),
    target=name,
)
def test_parse_render_round_trip(service, protocol, zone, priority, weight, port, target):
    record = SrvRecord(
        service=service,
        protocol=protocol,
        zone=zone,
        priority=priority,
        weight=weight,
        port=port,
        target=target,
    )
    assert srv(render_srv_line(record)) == record


@given(
    service=label,
    protocol=st.sampled_from(list(Transport)),
    origin=name,
    zone_labels=st.none() | name,  # None: the record sits at the origin itself
    ttl=st.integers(min_value=0, max_value=2**31 - 1),
    rdata=st.tuples(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=1, max_value=65535),
    ),
    target_labels=st.none() | name,  # None: the target is written '@'
    class_first=st.booleans(),
)
def test_zone_srv_line_gives_the_record_of_its_canonical_line(
    service, protocol, origin, zone_labels, ttl, rdata, target_labels, class_first
):
    """parse_zone reads an SRV line written with names relative to $ORIGIN,
    or absolutely, as it reads the rendered line."""
    zone = origin if zone_labels is None else f"{zone_labels}.{origin}"
    target = origin if target_labels is None else f"{target_labels}.{origin}"
    record = SrvRecord(service, protocol, zone, *rdata, target)
    expected = srv(render_srv_line(record))
    numbers = " ".join(map(str, rdata))
    ttl_class = f"IN {ttl}" if class_first else f"{ttl} IN"
    owner = f"_{service}._{protocol.value}" + ("" if zone_labels is None else f".{zone_labels}")
    relative = f"{owner} {ttl_class} SRV {numbers} {target_labels or '@'}"
    absolute = f"_{service}._{protocol.value}.{zone}. {ttl_class} SRV {numbers} {target}."
    assert parse_zone(f"$ORIGIN {origin}.\n{relative}").srv_records == (expected,)
    assert parse_zone(absolute).srv_records == (expected,)


# --- zone parsing ---


def test_reference_zone_record_counts(reference_zone):
    zone = parse_zone(reference_zone)
    assert len(zone.srv_records) == 4
    assert len(zone.a_records) == 2
    assert len(zone.ptr_records) == 0


def test_reference_zone_round_trips_modulo_whitespace(reference_zone):
    zone = parse_zone(reference_zone)
    rendered = [render_srv_line(r) for r in zone.srv_records] + [
        render_a_line(r) for r in zone.a_records
    ]
    assert rendered == [squash(line) for line in reference_zone.splitlines()]


def test_srv_lookup_by_qname(reference_zone):
    zone = parse_zone(reference_zone)
    records = zone.lookup_srv("_edge._tcp.domainA.com")
    assert len(records) == 2
    assert {r.target for r in records} == {"serverA.domainA.com", "serverB.domainA.com"}
    assert zone.lookup_srv("_edge._tcp.other.org") == []


def test_a_lookup_case_insensitive(reference_zone):
    zone = parse_zone(reference_zone)
    assert zone.lookup_a("SERVERA.DOMAINA.COM")[0].address == "192.168.121.30"


# The linear scans the indexed lookups replaced, kept as oracles.
def _strip(name):
    return name[:-1] if name.endswith(".") else name


def oracle_srv(zone, qname):
    return [r for r in zone.srv_records if r.qname.lower() == _strip(qname).lower()]


def oracle_a(zone, name):
    return [r for r in zone.a_records if r.name.lower() == _strip(name).lower()]


def oracle_ptr(zone, address):
    return next((r for r in zone.ptr_records if r.address == address), None)


ZONE_NAMES = ["host.example", "HOST.Example", "edge1.isp0.test", "Edge1.ISP0.test", "host"]
ZONE_ADDRESSES = ["240.0.0.1", "240.0.0.2", "240.0.1.1"]
zone_name = st.builds(
    lambda name, dot: name + "." * dot, st.sampled_from(ZONE_NAMES), st.booleans()
)  # names without a dot are relative to the $ORIGIN
zone_line = st.one_of(
    st.builds(
        "{} 300 IN A {}".format, zone_name, st.sampled_from(ZONE_ADDRESSES)
    ),
    st.builds(
        "_edge._{}.{} 300 IN SRV {} 10 5060 {}".format,
        st.sampled_from(["tcp", "udp", "TCP"]),
        zone_name,
        st.integers(0, 3),
        zone_name,
    ),
    st.builds(
        lambda address, target: f"{reverse_pointer_name(address)}. 300 IN PTR {target}",
        st.sampled_from(ZONE_ADDRESSES),
        zone_name,
    ),
)
query_name = st.builds(
    lambda name, dot, swap: (name.swapcase() if swap else name) + "." * dot,
    st.sampled_from(ZONE_NAMES + ["host.example.example", "missing.example"]),
    st.booleans(),
    st.booleans(),
)


@given(st.lists(zone_line, max_size=12), st.lists(query_name, min_size=1, max_size=6))
def test_indexed_lookups_match_linear_scans(lines, queries):
    zone = parse_zone("$ORIGIN example.\n" + "\n".join(lines))
    for name in queries:
        for qname in (name, f"_edge._tcp.{name}", f"_EDGE._udp.{name}"):
            assert zone.lookup_srv(qname) == oracle_srv(zone, qname)
        answer = zone.lookup_a(name)
        assert type(answer) is list and answer == oracle_a(zone, name)
        answer.append(None)  # each call hands out a fresh list
        assert zone.lookup_a(name) == oracle_a(zone, name)
    for address in ZONE_ADDRESSES + ["240.9.9.9"]:
        assert zone.lookup_ptr(address) is oracle_ptr(zone, address)


FUZZ_TOKENS = [
    "$ORIGIN", "$TTL", "@", "IN", "in", "CH", "A", "PTR", "SRV", "MX", "300", "0", "65536",
    "-1", "+1", "1_0", "\u00b2", "\u0663", "_edge", "_edge._tcp.example.", "_tcp.example",
    "_x._sctp.e.", "host", "host.", ".", "..", "240.0.0.1", "999.1.1.1", "1.0.0.240.in-addr.arpa.",
    "x.in-addr.arpa.", ";",
]
fuzz_line = zone_line | st.lists(
    st.sampled_from(FUZZ_TOKENS) | st.text(max_size=6), max_size=10
).map(" ".join)


@pytest.mark.fuzz
@given(st.lists(fuzz_line, max_size=8))
@example(["x.test. \u00b2 IN A 10.0.0.1"])
def test_parse_zone_raises_only_malformed_zone_error(lines):
    try:
        parse_zone("\n".join(lines))
    except MalformedZoneError:
        pass


def test_comments_and_blank_lines_skipped(reference_zone):
    noisy = "; preamble\n\n" + reference_zone.replace(
        "serverA.domainA.com.  86400 IN A 192.168.121.30",
        "serverA.domainA.com.  86400 IN A 192.168.121.30 ; edge box A",
    )
    assert parse_zone(noisy).a_records == parse_zone(reference_zone).a_records


def test_origin_qualifies_relative_names():
    text = """\
$ORIGIN domainB.net.
_edge._tcp 3600 IN SRV 5 20 8080 serverC
serverC 3600 IN A 203.0.113.9
"""
    zone = parse_zone(text)
    assert zone.srv_records[0].zone == "domainB.net"
    assert zone.srv_records[0].target == "serverC.domainB.net"
    assert zone.a_records[0].name == "serverC.domainB.net"


def test_relative_name_without_origin_rejected():
    with pytest.raises(MalformedZoneError):
        parse_zone("serverC 3600 IN A 203.0.113.9")


def test_ttl_and_class_either_order():
    a = parse_zone("s.domainA.com. 3600 IN A 203.0.113.9").a_records[0]
    b = parse_zone("s.domainA.com. IN 3600 A 203.0.113.9").a_records[0]
    assert a == b


@pytest.mark.parametrize(
    "line, message",
    [
        ("s.domainA.com. 3600 A 203.0.113.9", "missing class"),
        ("s.domainA.com. 3600 IN in A 203.0.113.9", "duplicate class"),
        ("s.domainA.com. 3600 CH A 203.0.113.9", "missing class"),
        ("_edge._tcp.domainA.com. 3600 SRV 10 30 5060 s.domainA.com.", "missing class"),
    ],
)
def test_zone_lines_need_class_in(line, message):
    """The records carry no class, so the grammar takes only IN."""
    with pytest.raises(MalformedZoneError, match=message):
        parse_zone(line)


def test_ptr_owner_decodes_to_address():
    text = "30.121.168.192.in-addr.arpa. 86400 IN PTR serverA.domainA.com.\n"
    record = parse_zone(text).ptr_records[0]
    assert record.address == "192.168.121.30"
    assert record.target == "serverA.domainA.com"


def test_ptr_lookup_and_render_round_trip():
    record = PtrRecord(address="192.168.121.30", target="serverA.domainA.com")
    line = render_ptr_line(record)
    zone = parse_zone(line)
    assert zone.lookup_ptr("192.168.121.30") == record
    assert zone.lookup_ptr("192.168.121.99") is None


def test_reverse_pointer_name():
    assert reverse_pointer_name("192.168.121.30") == "30.121.168.192.in-addr.arpa"


@given(st.integers(0, 2**32 - 1))
def test_reverse_pointer_name_matches_ipaddress(packed):
    address = IPv4Address(packed)
    assert reverse_pointer_name(str(address)) == address.reverse_pointer


def test_ptr_with_forward_owner_rejected():
    with pytest.raises(MalformedZoneError):
        parse_zone("serverA.domainA.com. 86400 IN PTR 192.168.121.30.")


@pytest.mark.parametrize("owner", ["30.121.168.999", "30.121.168.0192", "x.121.168.192"])
def test_ptr_owner_that_is_no_address_rejected(owner):
    with pytest.raises(MalformedZoneError, match="line 1: PTR owner"):
        parse_zone(f"{owner}.in-addr.arpa. 86400 IN PTR serverA.domainA.com.")


def test_unsupported_record_type_cites_line():
    text = TCP_LINE + "\nmail.domainA.com. 3600 IN MX 10 mx.domainA.com.\n"
    with pytest.raises(MalformedZoneError) as err:
        parse_zone(text)
    assert "line 2" in str(err.value)


def test_bad_a_address_rejected():
    with pytest.raises(MalformedZoneError):
        parse_zone("s.domainA.com. 3600 IN A 999.0.0.1")


def test_srv_error_inside_zone_keeps_field():
    with pytest.raises(MalformedSrvError) as err:
        parse_zone("_edge._tcp.domainA.com. 86400 IN SRV 10 30 s.domainA.com.")
    assert err.value.field == 8
    with pytest.raises(MalformedSrvError, match="^line 2: port is not an integer") as err:
        parse_zone(TCP_LINE + "\n_edge._tcp.domainA.com. 86400 IN SRV 10 30 s.domainA.com.")
    assert err.value.field == 8


@pytest.mark.parametrize("rtype, rdata", [("A", "203.0.113.9"), ("PTR", "s.domainA.com."), ("SRV", "1 1 1 s.d.")])
def test_ttl_above_2_31_minus_1_is_rejected_for_every_record_type(rtype, rdata):
    owner = {"A": "s.domainA.com.", "PTR": "9.113.0.203.in-addr.arpa.", "SRV": "_edge._tcp.d."}[rtype]
    zone = parse_zone(f"{owner} {2**31 - 1} IN {rtype} {rdata}")
    assert len(zone.a_records + zone.ptr_records + zone.srv_records) == 1
    with pytest.raises(MalformedZoneError, match="^line 1: TTL out of range"):
        parse_zone(f"{owner} {2**31} IN {rtype} {rdata}")


@pytest.mark.parametrize(
    "line, name",
    [
        ("_edge._tcp.a..b. 60 IN SRV 1 1 1 t.x.", "_edge._tcp.a..b"),
        ("_edge._tcp.a.b. 60 IN SRV 1 1 1 t..x.", "t..x"),
        ("h..x. 60 IN A 10.0.0.1", "h..x"),
        ("1.0.0.10.in-addr.arpa. 60 IN PTR h..x.", "h..x"),
        ("$ORIGIN .c.", ".c"),
        ("$ORIGIN c.\nw..v 60 IN A 10.0.0.1", "w..v.c"),
        ("_edge._tcp.a.b.. 60 IN SRV 1 1 1 t.x.", "_edge._tcp.a.b."),
        ("_edge._tcp.a.b. 60 IN SRV 1 1 1 t.x..", "t.x."),
        ("h.x... 60 IN A 10.0.0.1", "h.x.."),
        ("$ORIGIN c..", "c."),
    ],
)
def test_a_name_with_an_empty_label_is_refused_with_its_line(line, name):
    """A name the DNS encoder refuses is one no live lookup could ask for;
    only one trailing dot is the root's, so a name ending in two has an
    empty last label."""
    with pytest.raises(MalformedZoneError) as err:
        parse_zone(TCP_LINE + "\n" + line)
    assert str(err.value) == f"line {line.count(chr(10)) + 2}: bad label '' in {name!r}"


def test_relative_name_error_cites_its_line_once():
    with pytest.raises(MalformedZoneError) as err:
        parse_zone(TCP_LINE + "\nserverC 3600 IN A 203.0.113.9")
    assert str(err.value) == "line 2: relative name 'serverC' with no $ORIGIN in effect"


def test_a_record_render():
    record = ARecord(name="serverA.domainA.com", address="192.168.121.30")
    assert render_a_line(record) == "serverA.domainA.com. 86400 IN A 192.168.121.30"
