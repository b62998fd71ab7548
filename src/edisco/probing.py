"""TTL-limited path probing: classic UDP traceroute with an ICMP echo
fallback, plus a fixture prober for recorded traces.

Live probing needs a raw ICMP receive socket, so root (or CAP_NET_RAW) is
required; the fixture prober carries every offline flow.
"""
from __future__ import annotations

import math
import os
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass

from .errors import ProbePermissionError, ProbeTimeoutError
from .topology import Hop, ProbedPath, map_in_threads

BASE_PORT = 33434  # a UDP probe at TTL t goes to port BASE_PORT + t - 1, as traceroute's do
PROBE_CONCURRENCY = 8  # probes in flight at once in probe_many

ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACHABLE = 3
ICMP_ECHO_REQUEST = 8
ICMP_TIME_EXCEEDED = 11


@dataclass(frozen=True)
class ProbeConfig:
    method: str = "udp"  # "udp" | "icmp"
    probes_per_hop: int = 3
    timeout_s: float = 1.0
    max_ttl: int = 30

    def __post_init__(self):
        # type() rather than isinstance(): JSON true and false are no numbers
        if self.method not in ("udp", "icmp"):
            raise ValueError(f"unknown probe method {self.method!r}")
        if type(self.probes_per_hop) is not int or self.probes_per_hop < 1:
            raise ValueError(f"probes_per_hop {self.probes_per_hop!r} is not an integer >= 1")
        if type(self.timeout_s) not in (int, float) or not 0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout_s {self.timeout_s!r} is not a positive number")
        if type(self.max_ttl) is not int or not 1 <= self.max_ttl <= 255:
            raise ValueError(f"max_ttl {self.max_ttl!r} is not an integer from 1 to 255")


def checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    total = (total >> 16) + (total & 0xFFFF)
    total += total >> 16
    return ~total & 0xFFFF


def build_echo_request(ident: int, seq: int) -> bytes:
    header = struct.pack(">BBHHH", ICMP_ECHO_REQUEST, 0, 0, ident, seq)
    payload = struct.pack(">d", time.time())
    packed = struct.pack(
        ">BBHHH", ICMP_ECHO_REQUEST, 0, checksum(header + payload), ident, seq
    )
    return packed + payload


def reply_type(packet: bytes, client: str, proto: int, ids: bytes) -> int | None:
    """The ICMP type of `packet` when it answers the probe sent to `client`
    whose `proto` header holds the 4 bytes `ids`, else None.

    `ids` are the source and destination port of a UDP probe, or the ident
    and seq of an echo request. A Time Exceeded or Destination Unreachable
    counts when the datagram it quotes is the probe, and an echo reply when
    it carries the probe's ident and seq. Every raw ICMP socket sees all of
    the host's ICMP, so anything else, another probe's answer or a message
    too short to hold an ICMP header included, gives None."""
    icmp = packet[(packet[0] & 0x0F) * 4 :] if packet else b""  # past the IP header
    if len(icmp) < 8:
        return None
    icmp_type = icmp[0]
    if icmp_type == ICMP_ECHO_REPLY:
        return icmp_type if proto == socket.IPPROTO_ICMP and icmp[4:8] == ids else None
    if icmp_type not in (ICMP_TIME_EXCEEDED, ICMP_DEST_UNREACHABLE) or len(icmp) < 28:
        return None
    quoted = icmp[8:]  # the probe's IP header, then at least 8 bytes of its payload
    header = quoted[(quoted[0] & 0x0F) * 4 :]
    at = 0 if proto == socket.IPPROTO_UDP else 4  # ports open a UDP header
    ours = quoted[9] == proto and quoted[16:20] == socket.inet_aton(client)
    return icmp_type if ours and header[at : at + 4] == ids else None


class TracerouteProber:
    """Live prober. One UDP or ICMP probe per TTL step, first answer wins."""

    def __init__(self, config: ProbeConfig | None = None):
        self.config = config or ProbeConfig()
        self._ident = os.getpid() & 0xFFFF
        self._seq_lock = threading.Lock()
        self._seq = 0

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq = (self._seq + 1) & 0xFFFF
            return self._seq

    def _open_receiver(self) -> socket.socket:
        try:
            return socket.socket(
                socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP
            )
        except PermissionError as exc:
            raise ProbePermissionError(
                "raw ICMP socket refused; probing needs root or CAP_NET_RAW"
            ) from exc

    def _single_probe(
        self, client: str, ttl: int
    ) -> tuple[str | None, float | None, bool]:
        """One probe at one TTL. Returns (responder, rtt_ms, reached)."""
        config = self.config
        udp = config.method == "udp"
        kind = (socket.SOCK_DGRAM, 0) if udp else (socket.SOCK_RAW, socket.IPPROTO_ICMP)
        with self._open_receiver() as receiver, socket.socket(socket.AF_INET, *kind) as sender:
            sender.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
            if udp:
                sender.bind(("", 0))
                payload = b"edisco-probe"
                port = BASE_PORT + ttl - 1
                proto, ids = socket.IPPROTO_UDP, struct.pack(">HH", sender.getsockname()[1], port)
            else:
                seq = self._next_seq()
                payload = build_echo_request(self._ident, seq)
                port = 0
                proto, ids = socket.IPPROTO_ICMP, struct.pack(">HH", self._ident, seq)
            sent_at = time.time()
            sender.sendto(payload, (client, port))
            deadline = sent_at + config.timeout_s
            while (remaining := deadline - time.time()) > 0:
                ready, _, _ = select.select([receiver], [], [], remaining)
                if not ready:
                    break
                packet, (responder, _) = receiver.recvfrom(2048)
                icmp_type = reply_type(packet, client, proto, ids)
                rtt_ms = (time.time() - sent_at) * 1000.0
                if icmp_type == ICMP_TIME_EXCEEDED:
                    return responder, rtt_ms, False
                if icmp_type == (ICMP_DEST_UNREACHABLE if udp else ICMP_ECHO_REPLY):
                    return responder, rtt_ms, True
                # another probe's answer or unrelated ICMP; keep listening
            return None, None, False

    def probe(self, client: str) -> ProbedPath:
        """TTL walk toward one client."""
        config = self.config
        hops: list[Hop] = []
        answered_any = False
        reached = False
        for ttl in range(1, config.max_ttl + 1):
            responder = None
            rtt_ms = None
            for _attempt in range(config.probes_per_hop):
                responder, rtt_ms, reached = self._single_probe(client, ttl)
                if responder is not None:
                    break
            hops.append(Hop(address=responder, rtt_ms=rtt_ms))  # the hop at position ttl
            if responder is not None:
                answered_any = True
            if reached:
                break
        if not answered_any:
            raise ProbeTimeoutError("no hop answered any probe")
        return ProbedPath(client=client, hops=tuple(hops))


class FixtureProber:
    """Prober backed by recorded paths; clients without one time out."""

    def __init__(self, paths: list[ProbedPath]):
        self.by_client = {p.client: p for p in paths}

    def probe(self, client: str) -> ProbedPath:
        path = self.by_client.get(client)
        if path is None:
            raise ProbeTimeoutError("no recorded path")
        return path


def probe_many(clients, prober) -> list[ProbedPath]:
    """The clients' paths, in client order, probed on PROBE_CONCURRENCY
    threads. It does not degrade: a probe's exception is raised here, and a
    client whose probe gives None is left out, as rounds._Degrading answers
    for a failed probe."""
    results = map_in_threads(prober.probe, list(clients), PROBE_CONCURRENCY)
    return [path for path in results if path is not None]
