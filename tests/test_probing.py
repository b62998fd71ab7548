import select
import socket
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import edisco.probing
from edisco.errors import ProbePermissionError, ProbeTimeoutError
from edisco.probing import (
    BASE_PORT,
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    FixtureProber,
    ProbeConfig,
    TracerouteProber,
    build_echo_request,
    checksum,
    probe_many,
    reply_type,
)
from conftest import OverlapGauge, make_path


def scripted_prober(script, **config_kwargs):
    """Prober whose _single_probe replays (responder, rtt, reached) tuples
    keyed by (ttl, attempt)."""
    prober = TracerouteProber(ProbeConfig(**config_kwargs))
    attempts = {}

    def fake_single_probe(client, ttl):
        attempt = attempts.get(ttl, 0)
        attempts[ttl] = attempt + 1
        return script(ttl, attempt)

    prober._single_probe = fake_single_probe
    return prober


# -- checksum / packet helpers --------------------------------------------


def test_checksum_matches_hand_sum():
    # RFC 1071 one's complement sum, folded. Hand value for a tiny message.
    data = struct.pack(">BBHHH", 8, 0, 0, 0x1234, 1)
    total = 0x0800 + 0x0000 + 0x1234 + 0x0001
    expected = ~((total >> 16) + (total & 0xFFFF)) & 0xFFFF
    assert checksum(data) == expected


def test_checksum_odd_length_pads():
    assert checksum(b"\x01") == checksum(b"\x01\x00")


def test_echo_request_layout():
    packet = build_echo_request(0xBEEF, 7)
    icmp_type, code, check, ident, seq = struct.unpack(">BBHHH", packet[:8])
    assert icmp_type == ICMP_ECHO_REQUEST
    assert code == 0
    assert ident == 0xBEEF
    assert seq == 7
    assert check != 0
    # checksum over the whole message with the field zeroed must equal it
    zeroed = packet[:2] + b"\x00\x00" + packet[4:]
    assert checksum(zeroed) == check


def test_reply_type_skips_ip_header():
    """A 24-byte IP header (IHL 6) puts the echo reply's ident and seq at
    bytes 28 to 31."""
    header = bytes([0x46]) + bytes(23)
    icmp = struct.pack(">BBHHH", ICMP_ECHO_REPLY, 0, 0, 0xBEEF, 7)
    ids = struct.pack(">HH", 0xBEEF, 7)
    assert reply_type(header + icmp, "172.16.0.9", socket.IPPROTO_ICMP, ids) == ICMP_ECHO_REPLY
    misread = bytes([0x45]) + header[1:]  # IHL 5: the reply read 4 bytes early
    assert reply_type(misread + icmp, "172.16.0.9", socket.IPPROTO_ICMP, ids) is None


@pytest.mark.parametrize(
    "packet",
    [b"", b"\x45" + bytes(10), b"\x45" + bytes(20), b"\x4f" + bytes(30)],
    ids=["empty", "ihl5-10", "ihl5-20", "ihl15-30"],
)
def test_reply_type_ignores_a_packet_too_short_for_an_icmp_header(packet):
    """Less than an ICMP header follows the IP header whose length (IHL 5:
    20 bytes, IHL 15: 60) the first byte gives."""
    assert reply_type(packet, "172.16.0.9", socket.IPPROTO_UDP, bytes(4)) is None


@pytest.mark.fuzz
@given(
    st.binary(max_size=80),
    st.sampled_from([socket.IPPROTO_UDP, socket.IPPROTO_ICMP]),
    st.binary(min_size=4, max_size=4),
)
@example(b"\x45" + bytes(20), socket.IPPROTO_UDP, bytes(4))
@example(b"\x4f" + bytes(30), socket.IPPROTO_ICMP, bytes(4))
def test_reply_type_never_raises(packet, proto, ids):
    assert reply_type(packet, "0.0.0.0", proto, ids) in (
        None, ICMP_ECHO_REPLY, ICMP_DEST_UNREACHABLE, ICMP_TIME_EXCEEDED
    )


# -- config validation ------------------------------------------------------


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError):
        ProbeConfig(method="tcp")


def test_config_rejects_zero_ttl():
    with pytest.raises(ValueError):
        ProbeConfig(max_ttl=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("probes_per_hop", 0),
        ("probes_per_hop", 1.0),
        ("timeout_s", 0),
        ("timeout_s", -1.0),
        ("timeout_s", float("nan")),
        ("timeout_s", float("inf")),
        ("timeout_s", True),
        ("max_ttl", 256),
        ("max_ttl", "3"),
    ],
)
def test_config_rejects_a_field_of_the_wrong_type_or_range(field, value):
    with pytest.raises(ValueError, match=field):
        ProbeConfig(**{field: value})


def test_config_takes_the_edges_of_each_range():
    config = ProbeConfig(timeout_s=0.001, max_ttl=255, probes_per_hop=1)
    assert BASE_PORT + config.max_ttl - 1 <= 65535  # the last probe port
    assert ProbeConfig(timeout_s=2).timeout_s == 2


# -- probe loop over a scripted transport -----------------------------------


def test_probe_reaches_client_at_ttl_three():
    routers = {1: "10.0.0.1", 2: "10.1.0.1"}

    def script(ttl, attempt):
        if ttl in routers:
            return routers[ttl], 1.5 * ttl, False
        return "172.16.0.9", 4.5, True

    path = scripted_prober(script).probe("172.16.0.9")
    assert [h.address for h in path.hops] == ["10.0.0.1", "10.1.0.1", "172.16.0.9"]
    assert not path.truncated


def test_silent_hop_recorded_as_unknown():
    def script(ttl, attempt):
        if ttl == 1:
            return "10.0.0.1", 1.0, False
        if ttl == 2:
            return None, None, False
        return "172.16.0.9", 3.0, True

    path = scripted_prober(script, probes_per_hop=2).probe("172.16.0.9")
    assert [h.address for h in path.hops] == ["10.0.0.1", None, "172.16.0.9"]
    assert not path.hops[1].known
    assert not path.truncated


def test_max_ttl_exhaustion_marks_truncated():
    def script(ttl, attempt):
        return f"10.{ttl}.0.1", 1.0, False

    path = scripted_prober(script, max_ttl=4).probe("172.16.0.9")
    assert len(path.hops) == 4
    assert path.truncated


def test_retry_within_hop_uses_later_attempt():
    def script(ttl, attempt):
        if ttl == 1 and attempt < 2:
            return None, None, False
        if ttl == 1:
            return "10.0.0.1", 9.0, False
        return "172.16.0.9", 12.0, True

    path = scripted_prober(script, probes_per_hop=3).probe("172.16.0.9")
    assert path.hops[0].address == "10.0.0.1"


def test_all_silent_raises_timeout():
    def script(ttl, attempt):
        return None, None, False

    with pytest.raises(ProbeTimeoutError):
        scripted_prober(script, max_ttl=3, probes_per_hop=1).probe("172.16.0.9")


def test_raw_socket_refusal_maps_to_permission_error(monkeypatch):
    def deny(*args, **kwargs):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(socket, "socket", deny)
    with pytest.raises(ProbePermissionError):
        TracerouteProber()._single_probe("172.16.0.9", 1)


# -- icmp type handling ------------------------------------------------------


def ip_header(source: str, destination: str, proto: int) -> bytes:
    return struct.pack(">BBHHHBBH", 0x45, 0, 0, 0, 0, 64, proto, 0) + socket.inet_aton(
        source
    ) + socket.inet_aton(destination)


def icmp_error(icmp_type: int, responder: str, quoted: bytes) -> bytes:
    """What the raw socket reads: an IP header from `responder`, then an
    ICMP error quoting `quoted` (the probe's IP header and 8 bytes)."""
    return ip_header(responder, "10.9.9.9", socket.IPPROTO_ICMP) + struct.pack(
        ">BBHI", icmp_type, 0, 0, 0
    ) + quoted


class FakeProbeSocket:
    """Both sockets of one probe: the raw receiver reads `inbox` in order,
    the sender binds to port 40000 and records what it sends."""

    inbox: list = []
    sent: list = []

    def __init__(self, family, kind, proto=0):
        self.kind = kind

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def setsockopt(self, *args):
        pass

    def bind(self, address):
        pass

    def getsockname(self):
        return ("0.0.0.0", 40000)

    def sendto(self, payload, address):
        FakeProbeSocket.sent.append((payload, address))

    def recvfrom(self, size):
        packet, responder = FakeProbeSocket.inbox.pop(0)
        return packet, (responder, 0)


def fake_probe_sockets(monkeypatch, inbox):
    FakeProbeSocket.inbox, FakeProbeSocket.sent = list(inbox), []
    monkeypatch.setattr(socket, "socket", FakeProbeSocket)
    monkeypatch.setattr(select, "select", lambda r, w, x, timeout: (r, [], []))


def udp_probe(destination: str, source_port: int, port: int) -> bytes:
    return ip_header("10.9.9.9", destination, socket.IPPROTO_UDP) + struct.pack(
        ">HHHH", source_port, port, 20, 0
    )


@pytest.mark.parametrize(
    "other",
    [
        udp_probe("172.16.5.5", 40000, 33436),  # another client's probe
        udp_probe("172.16.0.9", 40001, 33436),  # another sender's probe
        udp_probe("172.16.0.9", 40000, 33435),  # this sender's earlier probe
    ],
    ids=["other-client", "other-source-port", "other-ttl"],
)
def test_udp_probe_takes_only_the_icmp_error_that_quotes_it(monkeypatch, other):
    """Every raw ICMP socket sees all of the host's ICMP: an error quoting
    another probe is skipped, and the one quoting this probe counts."""
    fake_probe_sockets(
        monkeypatch,
        [
            (icmp_error(ICMP_DEST_UNREACHABLE, "172.16.5.5", other), "172.16.5.5"),
            (icmp_error(ICMP_TIME_EXCEEDED, "10.1.1.1", other), "10.1.1.1"),
            (icmp_error(ICMP_TIME_EXCEEDED, "10.0.0.1", udp_probe("172.16.0.9", 40000, 33436)), "10.0.0.1"),
        ],
    )
    responder, rtt_ms, reached = TracerouteProber()._single_probe("172.16.0.9", 3)
    assert (responder, reached) == ("10.0.0.1", False)
    assert FakeProbeSocket.sent == [(b"edisco-probe", ("172.16.0.9", 33436))]


def test_icmp_probe_takes_only_its_own_ident_and_seq(monkeypatch):
    prober = TracerouteProber(ProbeConfig(method="icmp"))
    ident, seq = prober._ident, 1  # the first probe's seq

    def echo(icmp_type, seq):
        return struct.pack(">BBHHH", icmp_type, 0, 0, ident, seq)

    def quoting(seq):
        return ip_header("10.9.9.9", "172.16.0.9", socket.IPPROTO_ICMP) + echo(ICMP_ECHO_REQUEST, seq)

    reply = ip_header("172.16.0.9", "10.9.9.9", socket.IPPROTO_ICMP)
    fake_probe_sockets(
        monkeypatch,
        [
            (icmp_error(ICMP_TIME_EXCEEDED, "10.1.1.1", quoting(seq + 1)), "10.1.1.1"),
            (reply + echo(ICMP_ECHO_REPLY, seq + 1), "172.16.0.9"),
            (reply + echo(ICMP_ECHO_REPLY, seq), "172.16.0.9"),
        ],
    )
    assert prober._single_probe("172.16.0.9", 3)[::2] == ("172.16.0.9", True)
    (payload, _), = FakeProbeSocket.sent
    assert struct.unpack_from(">HH", payload, 4) == (ident, seq)

    fake_probe_sockets(
        monkeypatch,
        [
            (reply + echo(ICMP_ECHO_REPLY, seq), "172.16.0.9"),
            (icmp_error(ICMP_TIME_EXCEEDED, "10.0.0.1", quoting(seq + 1)), "10.0.0.1"),
        ],
    )
    assert prober._single_probe("172.16.0.9", 3)[::2] == ("10.0.0.1", False)


def test_icmp_constants_are_standard():
    assert ICMP_ECHO_REPLY == 0
    assert ICMP_DEST_UNREACHABLE == 3
    assert ICMP_ECHO_REQUEST == 8
    assert ICMP_TIME_EXCEEDED == 11


# -- fixture prober ----------------------------------------------------------


def test_fixture_prober_returns_recorded_path():
    recorded = make_path("172.16.0.9", "10.0.0.1", "10.1.0.1")
    prober = FixtureProber([recorded])
    assert prober.probe("172.16.0.9") is recorded


def test_fixture_prober_times_out_unknown_client():
    prober = FixtureProber([make_path("172.16.0.9", "10.0.0.1")])
    with pytest.raises(ProbeTimeoutError):
        prober.probe("172.16.5.5")


# -- fan-out -----------------------------------------------------------------


def test_probe_many_empty_clients():
    assert probe_many([], FixtureProber([])) == []


def test_probe_many_raises_a_failed_probe():
    """probe_many does not degrade; a round's prober does (rounds._Degrading)."""
    with pytest.raises(ProbeTimeoutError):
        probe_many(["172.16.5.5"], FixtureProber([]))


def test_probe_many_preserves_order_of_successes():
    paths = [make_path(f"172.16.{i}.9", "10.0.0.1") for i in range(6)]
    prober = FixtureProber(paths)
    clients = [p.client for p in paths]
    results = probe_many(clients, prober)
    assert [p.client for p in results] == clients


class GaugedProber:
    """A slow prober; clients in `failing` get None, the answer a round's
    prober gives for a failed probe."""

    def __init__(self, gauge, failing=()):
        self.gauge = gauge
        self.failing = set(failing)

    def probe(self, client):
        with self.gauge.call():
            return None if client in self.failing else make_path(client, "10.0.0.1")


@pytest.mark.parametrize("width, n", [(4, 10), (8, 19), (8, 3)])
def test_probe_many_fills_its_width_and_keeps_input_order(monkeypatch, width, n):
    monkeypatch.setattr(edisco.probing, "PROBE_CONCURRENCY", width)
    clients = [f"172.16.{i}.9" for i in reversed(range(n))]
    failing = set(clients[1::3])
    gauge = OverlapGauge(min(width, n))
    results = probe_many(clients, GaugedProber(gauge, failing))
    assert gauge.most_in_flight == min(width, n)
    assert [p.client for p in results] == [c for c in clients if c not in failing]
