"""TTL-limited path probing: classic UDP traceroute with an ICMP echo
fallback, plus a fixture prober for recorded traces.

Live probing needs a raw ICMP receive socket, so root (or CAP_NET_RAW) is
required; the fixture prober carries every offline flow.
"""
from __future__ import annotations

import logging
import os
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass

from .errors import EdiscoError, ProbePermissionError, ProbeTimeoutError
from .topology import Hop, ProbedPath, map_in_threads

logger = logging.getLogger(__name__)

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
    base_port: int = 33434

    def __post_init__(self):
        if self.method not in ("udp", "icmp"):
            raise ValueError(f"unknown probe method {self.method!r}")
        if self.max_ttl < 1 or self.probes_per_hop < 1:
            raise ValueError("max_ttl and probes_per_hop must be >= 1")


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


def parse_icmp(packet: bytes) -> tuple[int, int]:
    """(type, code) of an ICMP message carried in a raw IP packet."""
    if len(packet) < 21:
        raise ValueError("short ICMP packet")
    ihl = (packet[0] & 0x0F) * 4
    return packet[ihl], packet[ihl + 1]


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
        receiver = self._open_receiver()
        try:
            receiver.settimeout(config.timeout_s)
            if config.method == "udp":
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
                payload = b"edisco-probe"
                port = config.base_port + ttl - 1
            else:
                sender = socket.socket(
                    socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP
                )
                sender.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
                payload = build_echo_request(self._ident, self._next_seq())
                port = 0
            try:
                sent_at = time.time()
                sender.sendto(payload, (client, port))
                deadline = sent_at + config.timeout_s
                while True:
                    remaining = deadline - time.time()
                    if remaining <= 0:
                        return None, None, False
                    ready, _, _ = select.select([receiver], [], [], remaining)
                    if not ready:
                        return None, None, False
                    packet, (responder, _) = receiver.recvfrom(2048)
                    try:
                        icmp_type, _code = parse_icmp(packet)
                    except ValueError:
                        continue
                    rtt_ms = (time.time() - sent_at) * 1000.0
                    if icmp_type == ICMP_TIME_EXCEEDED:
                        return responder, rtt_ms, False
                    if icmp_type == ICMP_DEST_UNREACHABLE and config.method == "udp":
                        return responder, rtt_ms, True
                    if icmp_type == ICMP_ECHO_REPLY and config.method == "icmp":
                        if responder == client:
                            return responder, rtt_ms, True
                    # unrelated ICMP traffic; keep listening until deadline
            finally:
                sender.close()
        finally:
            receiver.close()

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
            hops.append(Hop(index=ttl, address=responder, rtt_ms=rtt_ms))
            if responder is not None:
                answered_any = True
            if reached:
                break
        if not answered_any:
            raise ProbeTimeoutError(f"{client}: no hop answered any probe")
        return ProbedPath(client=client, hops=tuple(hops))


class FixtureProber:
    """Prober backed by recorded paths; clients without one time out."""

    def __init__(self, paths: list[ProbedPath]):
        self.by_client = {p.client: p for p in paths}

    def probe(self, client: str) -> ProbedPath:
        path = self.by_client.get(client)
        if path is None:
            raise ProbeTimeoutError(f"{client}: no recorded path")
        return path


def probe_many(clients, prober, concurrency: int = 8) -> list[ProbedPath]:
    """Fan probes out over a bounded pool. Clients whose probe fails with
    an EdiscoError (a timeout, a refused raw socket) or at the socket (an
    OSError such as ENETUNREACH from sendto) are logged and skipped; the
    round decides what zero paths means."""

    def one(client: str) -> ProbedPath | None:
        try:
            return prober.probe(client)
        except (EdiscoError, OSError) as exc:
            logger.warning("probe failed: %s", exc)
            return None

    results = map_in_threads(one, list(clients), concurrency)
    return [path for path in results if path is not None]
