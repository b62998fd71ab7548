"""Minimal DNS wire-format codec for the stub resolver.

Covers exactly what edge discovery needs: build one-question queries and
decode A, PTR, and SRV answers, with name-compression support on the read
side. Queries go over UDP with a TCP retry when the server sets TC.
"""
from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass

from .errors import MalformedNameError, ResolverUnreachableError

DNS_PORT = 53
TYPE_A = 1
TYPE_PTR = 12
TYPE_SRV = 33
CLASS_IN = 1

FLAG_RD = 0x0100
FLAG_TC = 0x0200

RCODE_NOERROR = 0
RCODE_NXDOMAIN = 3

MAX_PACKET = 4096


def name_labels(name: str) -> list[str]:
    """The labels of a name DNS can carry, trailing dots ignored; ValueError
    for an empty, over-long or non-ASCII label."""
    labels = name.rstrip(".").split(".")
    for label in labels:
        if not (0 < len(label) < 64 and label.isascii()):
            raise ValueError(f"bad label {label!r} in {name!r}")
    return labels


def encode_name(name: str) -> bytes:
    """ValueError for an empty, over-long or non-ASCII label."""
    out = bytearray()
    for label in name_labels(name):
        out.append(len(label))
        out += label.encode("ascii")
    out.append(0)
    return bytes(out)


def decode_name(packet: bytes, offset: int) -> tuple[str, int]:
    """Read a possibly-compressed name. Returns (name, offset-after-field).
    A label holding a '.' raises ValueError, so each name but the root
    encodes again."""
    labels = []
    jumped = False
    after = offset
    seen = set()
    while True:
        if offset >= len(packet):
            raise ValueError("name runs off packet end")
        length = packet[offset]
        if length & 0xC0 == 0xC0:
            # compression pointer: 14-bit offset into the packet
            if offset + 1 >= len(packet):
                raise ValueError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | packet[offset + 1]
            if not jumped:
                after = offset + 2
                jumped = True
            if target in seen:
                raise ValueError("compression pointer loop")
            seen.add(target)
            offset = target
            continue
        if length & 0xC0:
            raise ValueError(f"unsupported label type 0x{length:02x}")
        offset += 1
        if length == 0:
            break
        label = packet[offset : offset + length].decode("ascii")
        if "." in label:  # legal on the wire, but the text form cannot hold it
            raise ValueError(f"label {label!r} contains '.'")
        labels.append(label)
        offset += length
    if not jumped:
        after = offset
    return ".".join(labels), after


def build_query(qname: str, qtype: int, txid: int) -> bytes:
    header = struct.pack(">HHHHHH", txid, FLAG_RD, 1, 0, 0, 0)
    return header + encode_name(qname) + struct.pack(">HH", qtype, CLASS_IN)


@dataclass(frozen=True)
class WireAnswer:
    name: str
    rtype: int
    ttl: int
    data: object  # str for A/PTR, (priority, weight, port, target) for SRV


def parse_response(packet: bytes) -> tuple[int, int, list[WireAnswer]]:
    """Decode header + answer section. Returns (txid, rcode, answers)."""
    if len(packet) < 12:
        raise ValueError("short DNS packet")
    txid, flags, qdcount, ancount, _, _ = struct.unpack(">HHHHHH", packet[:12])
    rcode = flags & 0x000F
    offset = 12
    for _ in range(qdcount):
        _, offset = decode_name(packet, offset)
        offset += 4  # qtype + qclass
    answers = []
    for _ in range(ancount):
        name, offset = decode_name(packet, offset)
        rtype, rclass, ttl, rdlength = struct.unpack_from(">HHIH", packet, offset)
        offset += 10
        rdata = packet[offset : offset + rdlength]
        if len(rdata) != rdlength:
            raise ValueError("truncated rdata")
        data: object
        if rtype == TYPE_A and rclass == CLASS_IN:
            if rdlength != 4:
                raise ValueError("A rdata must be 4 bytes")
            data = socket.inet_ntoa(rdata)
        elif rtype == TYPE_PTR:
            data, _ = decode_name(packet, offset)
        elif rtype == TYPE_SRV:
            priority, weight, port = struct.unpack_from(">HHH", packet, offset)
            target, _ = decode_name(packet, offset + 6)
            data = (priority, weight, port, target)
        else:
            data = rdata
        offset += rdlength
        answers.append(WireAnswer(name=name, rtype=rtype, ttl=ttl, data=data))
    return txid, rcode, answers


def _echoed_question(packet: bytes) -> tuple[str, int, int] | None:
    """(lower-case qname, qtype, qclass) of a reply's only question, else None."""
    if struct.unpack_from(">H", packet, 4)[0] != 1:
        return None
    name, offset = decode_name(packet, 12)
    qtype, qclass = struct.unpack_from(">HH", packet, offset)
    return name.lower(), qtype, qclass


def is_truncated(packet: bytes) -> bool:
    if len(packet) < 4:
        return False
    flags = struct.unpack(">H", packet[2:4])[0]
    return bool(flags & FLAG_TC)


def _query_udp(server: str, request: bytes, timeout: float) -> bytes:
    """Connected, so the kernel drops replies from any other address or port."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.connect((server, DNS_PORT))
        sock.send(request)
        return sock.recv(MAX_PACKET)


def _query_tcp(server: str, request: bytes, deadline: float) -> bytes:
    with socket.create_connection((server, DNS_PORT), timeout=time_left(deadline)) as sock:
        sock.sendall(struct.pack(">H", len(request)) + request)
        raw_len = _read_exact(sock, 2, deadline)
        return _read_exact(sock, struct.unpack(">H", raw_len)[0], deadline)


def time_left(deadline: float) -> float:
    """Seconds until the time.monotonic() `deadline`, as the timeout of the
    next socket call, so a peer that sends slowly cannot stretch the whole
    exchange past it; TimeoutError once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _read_exact(sock: socket.socket, n: int, deadline: float) -> bytes:
    chunks = b""
    while len(chunks) < n:
        sock.settimeout(time_left(deadline))
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise ConnectionError("connection closed mid-message")
        chunks += chunk
    return chunks


def query(
    server: str, qname: str, qtype: int, timeout: float = 2.0, txid: int = 0x1234
) -> list[WireAnswer]:
    """One question against one server. NXDOMAIN and empty answers both come
    back as []; transport failures, undecodable replies, replies to another
    transaction id or question, server failures and a reply not complete
    within `timeout` seconds, over UDP and TCP together, raise
    ResolverUnreachableError. Names compare without case (RFC 5452). A name
    that cannot be encoded raises MalformedNameError before any socket opens."""
    try:
        request = build_query(qname, qtype, txid)
    except ValueError as exc:
        raise MalformedNameError(str(exc)) from None
    deadline = time.monotonic() + timeout
    try:
        packet = _query_udp(server, request, timeout)
        if is_truncated(packet):
            packet = _query_tcp(server, request, deadline)
    except OSError as exc:
        raise ResolverUnreachableError(f"{server}: {exc}") from None
    try:
        got_txid, rcode, answers = parse_response(packet)
        question = _echoed_question(packet)
    except (ValueError, struct.error) as exc:
        raise ResolverUnreachableError(f"{server}: malformed reply: {exc}") from None
    if got_txid != txid:
        raise ResolverUnreachableError(f"{server}: transaction id mismatch")
    if question != (qname.rstrip(".").lower(), qtype, CLASS_IN):
        raise ResolverUnreachableError(f"{server}: reply is for another question")
    if rcode == RCODE_NXDOMAIN:
        return []
    if rcode != RCODE_NOERROR:
        raise ResolverUnreachableError(f"{server}: rcode {rcode}")
    return answers


def resolv_nameservers(path: str = "/etc/resolv.conf") -> list[str]:
    servers = []
    try:
        with open(path) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 2 and parts[0] == "nameserver":
                    servers.append(parts[1])
    except OSError:
        pass
    return servers or ["127.0.0.53"]
