from __future__ import annotations

import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edisco import dnswire
from edisco.errors import MalformedNameError

from conftest import hand_name, record, response_packet


def test_encode_name_layout():
    assert dnswire.encode_name("serverA.domainA.com.") == hand_name(
        "serverA", "domainA", "com"
    )


def test_encode_name_rejects_oversize_label():
    with pytest.raises(ValueError):
        dnswire.encode_name("a" * 64 + ".com")


BAD_NAMES = ["a" * 64 + ".com", "isp..test", ".test", "ex\u00e4mple.com"]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_query_refuses_a_name_it_cannot_encode_before_any_socket(monkeypatch, name):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(dnswire.socket, "socket", no_socket)
    monkeypatch.setattr(dnswire.socket, "create_connection", no_socket)
    with pytest.raises(MalformedNameError, match="bad label"):
        dnswire.query("203.0.113.1", f"_edge._tcp.{name}", dnswire.TYPE_SRV)


def test_decode_name_plain():
    packet = b"\x00" * 12 + hand_name("a", "b", "c")
    name, after = dnswire.decode_name(packet, 12)
    assert name == "a.b.c"
    assert after == 12 + len(hand_name("a", "b", "c"))


def test_decode_name_follows_compression_pointer():
    base = b"\x00" * 12 + hand_name("domainA", "com")
    pointer_at = len(base)
    packet = base + hand_name("serverA")[:-1] + struct.pack(">H", 0xC000 | 12)
    name, after = dnswire.decode_name(packet, pointer_at)
    assert name == "serverA.domainA.com"
    assert after == len(packet)


def test_decode_name_rejects_pointer_loop():
    packet = b"\x00" * 12 + struct.pack(">H", 0xC000 | 12)
    with pytest.raises(ValueError):
        dnswire.decode_name(packet, 12)


def test_build_query_header():
    packet = dnswire.build_query("domainA.com", dnswire.TYPE_SRV, txid=0xBEEF)
    txid, flags, qd, an, ns, ar = struct.unpack(">HHHHHH", packet[:12])
    assert (txid, qd, an, ns, ar) == (0xBEEF, 1, 0, 0, 0)
    assert flags & dnswire.FLAG_RD
    assert packet.endswith(struct.pack(">HH", dnswire.TYPE_SRV, dnswire.CLASS_IN))


def a_answer(address: bytes) -> bytes:
    # name is a pointer back to the question name at offset 12
    return (
        struct.pack(">H", 0xC000 | 12)
        + struct.pack(">HHIH", dnswire.TYPE_A, 1, 86400, 4)
        + address
    )


def test_parse_a_answer():
    packet = response_packet(7, 0, [a_answer(bytes([192, 168, 121, 30]))])
    txid, rcode, answers = dnswire.parse_response(packet)
    assert (txid, rcode) == (7, 0)
    assert answers[0].name == "domainA.com"
    assert answers[0].ttl == 86400
    assert answers[0].data == "192.168.121.30"


def test_parse_srv_answer_with_compressed_target():
    # rdata: priority 10, weight 30, port 5060, target = pointer to question name
    rdata = struct.pack(">HHH", 10, 30, 5060) + struct.pack(">H", 0xC000 | 12)
    answer = (
        struct.pack(">H", 0xC000 | 12)
        + struct.pack(">HHIH", dnswire.TYPE_SRV, 1, 3600, len(rdata))
        + rdata
    )
    _, _, answers = dnswire.parse_response(response_packet(1, 0, [answer]))
    assert answers[0].data == (10, 30, 5060, "domainA.com")


def test_parse_ptr_answer():
    rdata = hand_name("serverA", "domainA", "com")
    answer = (
        struct.pack(">H", 0xC000 | 12)
        + struct.pack(">HHIH", dnswire.TYPE_PTR, 1, 3600, len(rdata))
        + rdata
    )
    _, _, answers = dnswire.parse_response(response_packet(1, 0, [answer]))
    assert answers[0].data == "serverA.domainA.com"


def test_parse_rejects_short_packet():
    with pytest.raises(ValueError):
        dnswire.parse_response(b"\x00" * 4)


FUZZ_SEEDS = [
    response_packet(7, 0, [a_answer(bytes([192, 168, 121, 30]))]),
    response_packet(1, 0, [record(dnswire.TYPE_SRV, struct.pack(">HHH", 10, 30, 5060) + hand_name("s", "d"))]),
    response_packet(1, 0, [record(dnswire.TYPE_PTR, hand_name("serverA", "domainA", "com"))]),
]


def mutate(packet: bytes, edits: list[tuple[int, int]], cut: int) -> bytes:
    data = bytearray(packet)
    for position, value in edits:
        data[position % len(data)] = value
    return bytes(data[:cut])


@given(
    st.binary(max_size=96)
    | st.builds(
        mutate,
        st.sampled_from(FUZZ_SEEDS),
        st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=4),
        st.integers(0, 128),
    )
)
@example(FUZZ_SEEDS[0][: len(FUZZ_SEEDS[0]) - 12])  # cut after the answer's owner name
def test_parse_response_raises_only_what_query_wraps(packet):
    try:
        dnswire.parse_response(packet)
    except (ValueError, struct.error):
        pass


def test_truncation_flag():
    assert dnswire.is_truncated(response_packet(1, 0, [], tc=True))
    assert not dnswire.is_truncated(response_packet(1, 0, []))


def test_query_returns_empty_on_nxdomain(monkeypatch):
    packet = response_packet(0x1234, dnswire.RCODE_NXDOMAIN, [], qname="nope.example")
    monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: packet)
    assert dnswire.query("203.0.113.1", "nope.example", dnswire.TYPE_A) == []


def test_query_raises_on_servfail(monkeypatch):
    packet = response_packet(0x1234, 2, [], qname="broken.example")
    monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: packet)
    from edisco.errors import ResolverUnreachableError

    with pytest.raises(ResolverUnreachableError):
        dnswire.query("203.0.113.1", "broken.example", dnswire.TYPE_A)


def test_query_retries_over_tcp_when_truncated(monkeypatch):
    udp = response_packet(0x1234, 0, [], tc=True)
    tcp = response_packet(0x1234, 0, [a_answer(bytes([203, 0, 113, 9]))])
    monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: udp)
    monkeypatch.setattr(dnswire, "_query_tcp", lambda *a, **k: tcp)
    answers = dnswire.query("203.0.113.1", "domainA.com", dnswire.TYPE_A)
    assert answers[0].data == "203.0.113.9"


def test_query_rejects_txid_mismatch(monkeypatch):
    packet = response_packet(0x9999, 0, [])
    monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: packet)
    from edisco.errors import ResolverUnreachableError

    with pytest.raises(ResolverUnreachableError):
        dnswire.query("203.0.113.1", "domainA.com", dnswire.TYPE_A)


def test_query_turns_a_malformed_reply_into_unreachable(monkeypatch):
    """A reply cut right after its answer's owner name fails to decode; the
    stub then tries the next server, and a round degrades."""
    packet = response_packet(0x1234, 0, [a_answer(bytes([203, 0, 113, 9]))[:2]])
    with pytest.raises(struct.error):
        dnswire.parse_response(packet)
    monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: packet)
    from edisco.errors import ResolverUnreachableError

    with pytest.raises(ResolverUnreachableError, match="203.0.113.1"):
        dnswire.query("203.0.113.1", "domainA.com", dnswire.TYPE_A)


class FakeUdpSocket:
    """Records what _query_udp does with its socket and answers one reply."""

    def __init__(self, family, kind):
        self.calls = [("socket", family, kind)]
        FakeUdpSocket.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.calls.append(("close",))

    def settimeout(self, timeout):
        self.calls.append(("settimeout", timeout))

    def connect(self, address):
        self.calls.append(("connect", address))

    def send(self, data):
        self.calls.append(("send", data))
        return len(data)

    def recv(self, size):
        self.calls.append(("recv", size))
        return b"reply"


def test_udp_query_takes_replies_only_from_the_server(monkeypatch):
    FakeUdpSocket.made = []
    monkeypatch.setattr(dnswire.socket, "socket", FakeUdpSocket)
    assert dnswire._query_udp("203.0.113.1", b"request", 1.5) == b"reply"
    (sock,) = FakeUdpSocket.made
    assert sock.calls == [
        ("socket", dnswire.socket.AF_INET, dnswire.socket.SOCK_DGRAM),
        ("settimeout", 1.5),
        ("connect", ("203.0.113.1", 53)),
        ("send", b"request"),
        ("recv", dnswire.MAX_PACKET),
        ("close",),
    ]


@pytest.mark.parametrize(
    "question",
    [
        {"qname": "domainB.com"},
        {"qname": "sub.domainA.com"},
        {"qtype": dnswire.TYPE_SRV},
        {"qclass": 3},
    ],
    ids=["other-name", "longer-name", "other-type", "other-class"],
)
def test_query_rejects_a_reply_to_another_question(monkeypatch, question):
    from edisco.errors import ResolverUnreachableError

    packet = response_packet(0x1234, 0, [a_answer(bytes([203, 0, 113, 9]))], **question)
    monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: packet)
    with pytest.raises(ResolverUnreachableError, match="another question"):
        dnswire.query("203.0.113.1", "domainA.com", dnswire.TYPE_A)


def test_query_rejects_a_reply_without_exactly_one_question(monkeypatch):
    from edisco.errors import ResolverUnreachableError

    bare = struct.pack(">HHHHHH", 0x1234, 0x8000, 0, 0, 0, 0)
    packet = response_packet(0x1234, 0, [])
    doubled = struct.pack(">HHHHHH", 0x1234, 0x8000, 2, 0, 0, 0) + packet[12:] * 2
    for reply in (bare, doubled):
        monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: reply)
        with pytest.raises(ResolverUnreachableError, match="another question"):
            dnswire.query("203.0.113.1", "domainA.com", dnswire.TYPE_A)


def test_query_matches_the_echoed_name_without_case(monkeypatch):
    packet = response_packet(0x1234, 0, [a_answer(bytes([203, 0, 113, 9]))], qname="DOMAINa.cOm")
    monkeypatch.setattr(dnswire, "_query_udp", lambda *a, **k: packet)
    answers = dnswire.query("203.0.113.1", "domainA.com.", dnswire.TYPE_A)
    assert [a.data for a in answers] == ["203.0.113.9"]


def test_resolv_conf_parsing(tmp_path):
    conf = tmp_path / "resolv.conf"
    conf.write_text("# local\nnameserver 10.0.0.2\nsearch lan\nnameserver 10.0.0.3\n")
    assert dnswire.resolv_nameservers(str(conf)) == ["10.0.0.2", "10.0.0.3"]


def test_resolv_conf_missing_file_gets_default(tmp_path):
    assert dnswire.resolv_nameservers(str(tmp_path / "nope")) == ["127.0.0.53"]
