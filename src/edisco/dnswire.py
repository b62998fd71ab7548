"""Minimal DNS wire-format codec for the stub resolver.

Covers exactly what edge discovery needs: build one-question queries and
decode A, PTR, and SRV answers, with name-compression support on the read
side. Queries go over UDP, sent again with backoff while no reply comes,
with a TCP retry when the server sets TC.
"""
from __future__ import annotations

import socket
import struct
import time

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
RETRANSMIT_S = 0.5  # the first wait for a UDP reply before it is asked again; later waits double


def name_labels(name: str) -> list[str]:
    """The labels of a name DNS can carry, one trailing dot ignored;
    ValueError for an empty, over-long or non-ASCII label, so also for a
    name that ends in two dots."""
    bare = name.removesuffix(".")
    labels = bare.split(".")
    for label in labels:
        if not (0 < len(label) < 64 and label.isascii()):
            raise ValueError(f"bad label {label!r} in {bare!r}")
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


def parse_response(
    packet: bytes,
) -> tuple[int, int, bool, tuple[str, int, int] | None, list]:
    """Decode a reply in one pass: (txid, rcode, truncated, question, answers).

    `question` is the (lower-case name, type, class) of the reply's only
    question, else None. `answers` holds the data of the answers of the
    question's type and class IN, in order: the address or name, a str, of
    an A or PTR answer, the (priority, weight, port, target) of an SRV
    answer. Their TTLs are not read. Any other answer (a CNAME of a
    chain, another class) is skipped undecoded, and so is the whole answer
    section of a reply without exactly one question or with TC set (RFC 2181
    section 9). ValueError or struct.error for anything undecodable."""
    if len(packet) < 12:
        raise ValueError("short DNS packet")
    txid, flags, qdcount, ancount, _, _ = struct.unpack(">HHHHHH", packet[:12])
    rcode, truncated = flags & 0x000F, bool(flags & FLAG_TC)
    if qdcount != 1:
        return txid, rcode, truncated, None, []
    qname, offset = decode_name(packet, 12)
    qtype, qclass = struct.unpack_from(">HH", packet, offset)
    offset += 4
    answers = []
    for _ in range(0 if truncated else ancount):
        _, offset = decode_name(packet, offset)
        rtype, rclass, _, rdlength = struct.unpack_from(">HHIH", packet, offset)
        at, offset = offset + 10, offset + 10 + rdlength
        rdata = packet[at:offset]
        if len(rdata) != rdlength:
            raise ValueError("truncated rdata")
        if (rtype, rclass) != (qtype, CLASS_IN):
            continue
        data: str | tuple[int, int, int, str]
        if rtype == TYPE_A:
            if rdlength != 4:
                raise ValueError("A rdata must be 4 bytes")
            data = socket.inet_ntoa(rdata)
        elif rtype == TYPE_PTR:
            data, _ = decode_name(packet, at)
        elif rtype == TYPE_SRV:
            priority, weight, port = struct.unpack_from(">HHH", packet, at)
            target, _ = decode_name(packet, at + 6)
            data = (priority, weight, port, target)
        else:  # a type the stub never asks for
            continue
        answers.append(data)
    return txid, rcode, truncated, (qname.lower(), qtype, qclass), answers


def _query_udp(server: str, request: bytes, deadline: float) -> bytes:
    """The first datagram that carries the request's transaction id. The
    request goes out, unchanged, again each time a wait of RETRANSMIT_S,
    then twice that, and so on, passes without its reply (RFC 1035 section
    4.2.1, RFC 1123 section 6.1.3.3). All go from one socket, so a late
    reply to any of them is taken until the time.monotonic() `deadline`.
    The socket is connected, so the kernel drops replies from any other
    address or port; a datagram with another id is dropped here, and the
    wait goes on (RFC 5452 section 9.1)."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.connect((server, DNS_PORT))
        resend_at, wait = time.monotonic(), RETRANSMIT_S
        while True:
            now, left = time.monotonic(), time_left(deadline)
            if now >= resend_at:
                sock.send(request)
                resend_at, wait = now + wait, wait * 2
            sock.settimeout(min(resend_at - now, left))
            try:
                packet = sock.recv(MAX_PACKET)
            except TimeoutError:
                continue
            if packet[:2] == request[:2]:
                return packet


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
) -> list:
    """The data of the answers to one question against one server, as
    parse_response gives them. NXDOMAIN and empty answers both come
    back as []; transport failures, undecodable replies, replies to another
    transaction id or question, server failures and a reply not complete
    within `timeout` seconds, over UDP and TCP together, raise
    ResolverUnreachableError, except that a UDP datagram with another
    transaction id is dropped while the wait goes on, and a UDP request
    without a reply is sent again within the timeout. Names compare without
    case (RFC 5452). A name that cannot be encoded raises MalformedNameError
    before any socket opens."""
    try:
        request = build_query(qname, qtype, txid)
    except ValueError as exc:
        raise MalformedNameError(str(exc)) from None
    deadline = time.monotonic() + timeout
    try:
        reply = parse_response(_query_udp(server, request, deadline))
        if reply[2]:  # truncated: TCP carries the whole reply
            reply = parse_response(_query_tcp(server, request, deadline))
    except OSError as exc:
        raise ResolverUnreachableError(f"{server}: {exc}") from None
    except (ValueError, struct.error) as exc:
        raise ResolverUnreachableError(f"{server}: malformed reply: {exc}") from None
    got_txid, rcode, _, question, answers = reply
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
