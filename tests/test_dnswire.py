from __future__ import annotations

import socket
import struct
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edisco import dnswire
from edisco.errors import MalformedNameError, ResolverUnreachableError

from conftest import hand_name, record, response_packet


def test_encode_name_layout():
    assert dnswire.encode_name("serverA.domainA.com.") == hand_name(
        "serverA", "domainA", "com"
    )


def test_encode_name_rejects_oversize_label():
    with pytest.raises(ValueError):
        dnswire.encode_name("a" * 64 + ".com")


BAD_NAMES = ["a" * 64 + ".com", "isp..test", ".test", "ex\u00e4mple.com", "test.."]


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
    txid, rcode, truncated, question, answers = dnswire.parse_response(packet)
    assert (txid, rcode, truncated) == (7, 0, False)
    assert question == ("domaina.com", dnswire.TYPE_A, dnswire.CLASS_IN)
    assert answers == ["192.168.121.30"]


def test_parse_srv_answer_with_compressed_target():
    # rdata: priority 10, weight 30, port 5060, target = pointer to question name
    rdata = struct.pack(">HHH", 10, 30, 5060) + struct.pack(">H", 0xC000 | 12)
    answer = (
        struct.pack(">H", 0xC000 | 12)
        + struct.pack(">HHIH", dnswire.TYPE_SRV, 1, 3600, len(rdata))
        + rdata
    )
    answers = dnswire.parse_response(response_packet(1, 0, [answer], qtype=dnswire.TYPE_SRV))[4]
    assert answers == [(10, 30, 5060, "domainA.com")]


def test_parse_ptr_answer():
    rdata = hand_name("serverA", "domainA", "com")
    answer = (
        struct.pack(">H", 0xC000 | 12)
        + struct.pack(">HHIH", dnswire.TYPE_PTR, 1, 3600, len(rdata))
        + rdata
    )
    answers = dnswire.parse_response(response_packet(1, 0, [answer], qtype=dnswire.TYPE_PTR))[4]
    assert answers == ["serverA.domainA.com"]


def test_parse_rejects_short_packet():
    with pytest.raises(ValueError):
        dnswire.parse_response(b"\x00" * 4)


CNAME = 5
CLASS_CH = 3
ADDRESS = bytes([203, 0, 113, 9])
OTHER_ANSWERS = [
    record(CNAME, hand_name("alias", "domainA", "com")),  # a chain's first link
    record(dnswire.TYPE_A, ADDRESS, rclass=CLASS_CH),
    record(dnswire.TYPE_PTR, hand_name("r1", "isp", "test")),
    record(dnswire.TYPE_A, b"\xff" * 7, rclass=CLASS_CH),  # never decoded, so never refused
]


def test_parse_response_returns_only_answers_of_the_question_type_and_class_in():
    packet = response_packet(1, 0, [*OTHER_ANSWERS, record(dnswire.TYPE_A, ADDRESS, ttl=60)])
    assert dnswire.parse_response(packet)[4] == ["203.0.113.9"]
    assert dnswire.parse_response(response_packet(1, 0, OTHER_ANSWERS))[4] == []


def test_parse_response_reads_no_answer_of_a_truncated_reply():
    """RFC 2181 section 9: a reply with TC set is asked again over TCP, so
    its answers, perhaps cut short, are not read."""
    cut = record(dnswire.TYPE_A, ADDRESS)[:-2]
    assert dnswire.parse_response(response_packet(1, 0, [cut], tc=True))[2:] == (
        True, ("domaina.com", dnswire.TYPE_A, dnswire.CLASS_IN), []
    )


FUZZ_SEEDS = [
    response_packet(7, 0, [a_answer(bytes([192, 168, 121, 30]))]),
    response_packet(
        1,
        0,
        [record(dnswire.TYPE_SRV, struct.pack(">HHH", 10, 30, 5060) + hand_name("s", "d"))],
        qtype=dnswire.TYPE_SRV,
    ),
    response_packet(
        1,
        0,
        [record(dnswire.TYPE_PTR, hand_name("serverA", "domainA", "com"))],
        qtype=dnswire.TYPE_PTR,
    ),
    response_packet(1, 0, [*OTHER_ANSWERS, a_answer(ADDRESS)]),
]

ANSWER_SHAPE = {dnswire.TYPE_A: str, dnswire.TYPE_PTR: str, dnswire.TYPE_SRV: tuple}


def mutate(packet: bytes, edits: list[tuple[int, int]], cut: int) -> bytes:
    data = bytearray(packet)
    for position, value in edits:
        data[position % len(data)] = value
    return bytes(data[:cut])


@pytest.mark.fuzz
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
    """Every answer it returns is of the question's type: an address for A,
    a name for PTR, the four SRV fields for SRV, and none for another type."""
    try:
        _, _, _, question, answers = dnswire.parse_response(packet)
    except (ValueError, struct.error):
        return
    if question is None:
        assert answers == []
        return
    for answer in answers:
        assert isinstance(answer, ANSWER_SHAPE[question[1]])
        if question[1] == dnswire.TYPE_A:
            assert socket.inet_ntoa(socket.inet_aton(answer)) == answer
        if question[1] == dnswire.TYPE_SRV:
            assert [type(value) for value in answer] == [int, int, int, str]


def test_truncation_flag():
    assert dnswire.parse_response(response_packet(1, 0, [], tc=True))[2]
    assert not dnswire.parse_response(response_packet(1, 0, []))[2]


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
    assert answers == ["203.0.113.9"]


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
    """Records what _query_udp does with its socket, on a clock that stands
    still but for a wait that times out. Each recv takes the next of
    `inbox`: a datagram to return or an exception to raise; a TimeoutError
    first moves the clock on by the timeout set. `sent` holds the clock
    time of each send."""

    def __init__(self, family, kind):
        self.calls = [("socket", family, kind)]
        self.timeout = None
        FakeUdpSocket.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.calls.append(("close",))

    def settimeout(self, timeout):
        self.timeout = timeout
        self.calls.append(("settimeout", round(timeout, 1)))

    def connect(self, address):
        self.calls.append(("connect", address))

    def send(self, data):
        self.calls.append(("send", data))
        FakeUdpSocket.sent.append(FakeUdpSocket.clock)
        return len(data)

    def recv(self, size):
        self.calls.append(("recv", size))
        outcome = FakeUdpSocket.inbox.pop(0)
        if isinstance(outcome, bytes):
            return outcome
        if isinstance(outcome, TimeoutError):
            FakeUdpSocket.clock += self.timeout
        raise outcome


def fake_udp(monkeypatch, inbox) -> None:
    FakeUdpSocket.made, FakeUdpSocket.inbox, FakeUdpSocket.sent, FakeUdpSocket.clock = [], list(inbox), [], 0.0
    monkeypatch.setattr(dnswire.socket, "socket", FakeUdpSocket)
    monkeypatch.setattr(dnswire, "time", SimpleNamespace(monotonic=lambda: FakeUdpSocket.clock))


def udp_exchange(monkeypatch, inbox) -> list:
    """What _query_udp does with its socket while it reads `inbox`, within
    1.5 s; the timeouts it sets are rounded to 0.1 s."""
    fake_udp(monkeypatch, inbox)
    assert dnswire._query_udp("203.0.113.1", b"\x12\x34request", 1.5) == inbox[-1]
    (sock,) = FakeUdpSocket.made
    return sock.calls


def test_udp_query_takes_replies_only_from_the_server(monkeypatch):
    assert udp_exchange(monkeypatch, [b"\x12\x34reply"]) == [
        ("socket", dnswire.socket.AF_INET, dnswire.socket.SOCK_DGRAM),
        ("connect", ("203.0.113.1", 53)),
        ("send", b"\x12\x34request"),
        ("settimeout", dnswire.RETRANSMIT_S),
        ("recv", dnswire.MAX_PACKET),
        ("close",),
    ]


def test_udp_query_drops_a_datagram_with_another_txid_and_waits_on(monkeypatch):
    """RFC 5452 section 9.1: a forged reply must not end the wait for the
    true one, which may still come within the same deadline."""
    calls = udp_exchange(monkeypatch, [b"\x12\x35forged", b"", b"\x12\x34reply"])
    assert calls[2:] == [("send", b"\x12\x34request")] + [
        ("settimeout", dnswire.RETRANSMIT_S),
        ("recv", dnswire.MAX_PACKET),
    ] * 3 + [("close",)]


def udp_query(monkeypatch, inbox: list) -> ResolverUnreachableError | None:
    """Runs dnswire.query, with a 2.0 s timeout, against FakeUdpSocket
    reading `inbox`; returns the ResolverUnreachableError it raised."""
    fake_udp(monkeypatch, inbox)
    try:
        dnswire.query("203.0.113.1", "domainA.com", dnswire.TYPE_A, timeout=2.0)
    except ResolverUnreachableError as exc:
        return exc
    return None


def test_a_udp_request_without_reply_is_sent_again_with_backoff(monkeypatch):
    """RFC 1035 section 4.2.1, RFC 1123 section 6.1.3.3: the same request
    goes again after 0.5 s, then after 1 s more, and the last wait ends at
    the query's timeout."""
    error = udp_query(monkeypatch, [TimeoutError("timed out") for _ in range(3)])
    assert "timed out" in str(error)
    assert FakeUdpSocket.sent == [0.0, 0.5, 1.5]
    (sock,) = FakeUdpSocket.made
    request = dnswire.build_query("domainA.com", dnswire.TYPE_A, 0x1234)
    assert {call[1] for call in sock.calls if call[0] == "send"} == {request}
    assert [call[1] for call in sock.calls if call[0] == "settimeout"] == [0.5, 1.0, 0.5]


def test_the_reply_to_a_retransmission_is_taken(monkeypatch):
    reply = response_packet(0x1234, 0, [record(dnswire.TYPE_A, socket.inet_aton("192.0.2.1"))])
    assert udp_query(monkeypatch, [TimeoutError("timed out"), reply]) is None
    assert FakeUdpSocket.sent == [0.0, 0.5]


def test_every_transmission_goes_from_one_socket(monkeypatch):
    """A reply to an early transmission that comes after a later one has
    gone is read as well, so a server slower than RETRANSMIT_S is heard
    whichever request it answers."""
    reply = response_packet(0x1234, 0, [record(dnswire.TYPE_A, socket.inet_aton("192.0.2.1"))])
    assert udp_query(monkeypatch, [TimeoutError("timed out")] * 2 + [reply]) is None
    assert len(FakeUdpSocket.made) == 1
    assert len(FakeUdpSocket.sent) == 3


def test_a_refused_udp_request_is_not_sent_again(monkeypatch):
    """Only silence is worth another transmission; an error is not."""
    error = udp_query(monkeypatch, [ConnectionRefusedError("refused"), b"never read"])
    assert "refused" in str(error)
    assert FakeUdpSocket.sent == [0.0]


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
    assert answers == ["203.0.113.9"]


def test_resolv_conf_parsing(tmp_path):
    conf = tmp_path / "resolv.conf"
    conf.write_text("# local\nnameserver 10.0.0.2\nsearch lan\nnameserver 10.0.0.3\n")
    assert dnswire.resolv_nameservers(str(conf)) == ["10.0.0.2", "10.0.0.3"]


def test_resolv_conf_missing_file_gets_default(tmp_path):
    assert dnswire.resolv_nameservers(str(tmp_path / "nope")) == ["127.0.0.53"]
