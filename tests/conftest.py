"""Shared test helpers: path builders, the reference zone fixture, a
gauge for slow fake providers, the redirect front end on a thread, DNS
packet builders and a DNS and whois responder on loopback, and mutated
documents for the parser fuzzers."""
from __future__ import annotations

import asyncio
import copy
import functools
import random
import selectors
import socket
import struct
import threading
import time
from collections import Counter
from contextlib import contextmanager, suppress

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from edisco import discovery, dnswire
from edisco.redirect import FrontEnd
from edisco.simharness import ScenarioBundle, ScenarioSpec, generate_scenario
from edisco.topology import Hop, ProbedPath

# CI's fuzz job runs the totality tests with --hypothesis-profile=ci; tier-1
# keeps hypothesis' defaults.
settings.register_profile("ci", max_examples=1000, deadline=None)

# Reference zone: two edge servers in one /24, advertised for both
# transports. A-line spacing is intentionally uneven; parsers must not care.
REFERENCE_ZONE = """\
_edge._tcp.domainA.com. 86400 IN SRV 10 30 5060 serverA.domainA.com.
_edge._tcp.domainA.com. 86400 IN SRV 10 10 5060 serverB.domainA.com.
_edge._udp.domainA.com. 86400 IN SRV 10 30 1720 serverA.domainA.com.
_edge._udp.domainA.com. 86400 IN SRV 10 10 1720 serverB.domainA.com.
serverA.domainA.com.  86400 IN A 192.168.121.30
serverB.domainA.com.  86400 IN A 192.168.121.31
"""


@pytest.fixture
def reference_zone() -> str:
    return REFERENCE_ZONE


def make_path(
    client: str, *hop_addresses: str | None, complete: bool = True
) -> ProbedPath:
    """Path through the given intermediate hops; the client itself is
    appended as the final hop unless complete=False."""
    addresses = list(hop_addresses)
    if complete:
        addresses.append(client)
    hops = tuple(
        Hop(address=a, rtt_ms=None if a is None else float(i))
        for i, a in enumerate(addresses, start=1)
    )
    return ProbedPath(client=client, hops=hops)


def random_paths(seed: int, n_clients: int = 20) -> list[ProbedPath]:
    """Seeded random topology: shared router pool, occasional unknown hops,
    occasional truncated probes. Clients and routers never collide."""
    rng = random.Random(seed)
    routers = [
        f"10.{i + 1}.{rng.randint(0, 3)}.{rng.randint(1, 254)}"
        for i in range(rng.randint(3, 12))
    ]
    paths = []
    for c in range(n_clients):
        client = f"172.16.{c}.{rng.randint(1, 254)}"
        chain: list[str | None] = [
            rng.choice(routers) if rng.random() > 0.15 else None
            for _ in range(rng.randint(1, 5))
        ]
        paths.append(make_path(client, *chain, complete=rng.random() > 0.1))
    return paths


class OverlapGauge:
    """Stands in for the wait of a slow live provider.

    The first `parties` calls wait on a barrier until all of them are in
    flight at once, so a pool narrower than `parties` breaks the barrier
    (after five seconds) instead of passing. Every call then holds on
    briefly, and the gauge records the most calls ever in flight together.
    """

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=5)
        self._lock = threading.Lock()
        self._calls = 0
        self._in_flight = 0
        self.most_in_flight = 0

    @contextmanager
    def call(self):
        with self._lock:
            self._calls += 1
            first_wave = self._calls <= self.barrier.parties
            self._in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self._in_flight)
        try:
            if first_wave:
                self.barrier.wait()
            time.sleep(0.002)
            yield
        finally:
            with self._lock:
                self._in_flight -= 1


class FrontEndThread:
    """The redirect front end on 127.0.0.1 and a free port, served by
    FrontEnd on an asyncio loop in a thread of its own (the serving
    commands run that loop on the main thread). server_address is
    (host, port); close() stops it, also as a context manager."""

    def __init__(self, service):
        sock = socket.create_server(("127.0.0.1", 0))
        self.server_address = sock.getsockname()
        started = threading.Event()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._serve(service, sock, started),), daemon=True
        )
        self._thread.start()
        assert started.wait(5), "front end did not start"

    async def _serve(self, service, sock, started):
        self._loop, self._stop = asyncio.get_running_loop(), asyncio.Event()
        front = await FrontEnd(service).start(sock)
        started.set()
        try:
            await self._stop.wait()
        finally:
            await front.close()

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=5)
        assert not self._thread.is_alive(), "front end did not stop"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def hand_name(*labels: str) -> bytes:
    # independent encoder so the module's own one is not the oracle
    out = b""
    for label in labels:
        out += bytes([len(label)]) + label.encode()
    return out + b"\x00"


def response_packet(
    txid: int, rcode: int, answers: list[bytes], tc: bool = False,
    qname: str = "domainA.com", qtype: int = dnswire.TYPE_A, qclass: int = 1,
) -> bytes:
    flags = 0x8000 | rcode | (dnswire.FLAG_TC if tc else 0)
    header = struct.pack(">HHHHHH", txid, flags, 1, len(answers), 0, 0)
    question = hand_name(*qname.split(".")) + struct.pack(">HH", qtype, qclass)
    return header + question + b"".join(answers)


def record(rtype: int, rdata: bytes, ttl: int = 3600, rclass: int = 1) -> bytes:
    """One answer, of class IN unless `rclass` says otherwise, whose owner
    name points back to the question's."""
    header = struct.pack(">HHIH", rtype, rclass, ttl, len(rdata))
    return struct.pack(">H", 0xC000 | 12) + header + rdata


FORGED_ADDRESS = "192.0.2.66"
SERVFAIL = 2
DRIP_S = 0.1  # a dripping peer sends one byte this often
SLOW_S = 1.2  # a slow DNS peer sends each UDP reply this long after its query


class LoopbackResponder:
    """DNS over UDP and TCP on one port number, and whois over TCP, on
    127.0.0.1, served one request at a time by one thread.

    DNS answers A, PTR and SRV questions from a parsed ZoneData, with
    NXDOMAIN when it holds no record. A whois query for an address gets
    `whois_text[address]` when present, else one `domain:` line for each
    of `whois.domains_for(address)`. Faults, off unless set:
    `truncate_udp` sends every UDP reply with TC set and no answers, so
    only TCP answers; `forge_from_other_port` first sends each UDP reply's
    txid and question with the A answer FORGED_ADDRESS from another port.
    `faults` maps one DNS question name or whois address to one fault:
    - DNS "servfail", "garbage" (a reply's txid and flags, then 5 bytes of
      junk), "wrong_question" (the right answers under another question),
      "drop" (no reply), "drop_first" (no reply to the first UDP query,
      then the fault is off), "slow" (each UDP reply SLOW_S after its
      query, from a thread of its own) and "other_txid_first" (first, from
      the right port, the question with the A answer FORGED_ADDRESS under
      another txid, then the reply);
    - "drip": DNS sets TC over UDP and, like whois, sends its TCP reply
      one byte every DRIP_S from a thread of its own, until the client
      hangs up;
    - whois "oversize": the reply, then WHOIS_MAX_BYTES of comment lines.
    `counts` tallies udp, tcp, forged, dropped and whois. A test points
    dnswire.DNS_PORT at `dns_port` and discovery.WHOIS_PORT at
    `whois_port`. close() stops the threads and raises what a handler
    raised; it also runs as a context manager."""

    def __init__(self, zone, whois=None, whois_text=None):
        self.zone, self.whois, self.whois_text = zone, whois, whois_text or {}
        self.truncate_udp = self.forge_from_other_port = False
        self.faults: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.errors: list[Exception] = []
        self._senders: list[threading.Thread] = []
        self.udp, self.tcp = self._dns_sockets()
        self.whois_listener = socket.create_server(("127.0.0.1", 0))
        self.dns_port = self.udp.getsockname()[1]
        self.whois_port = self.whois_listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @staticmethod
    def _dns_sockets():
        for _ in range(20):  # another process may hold the TCP side of the port
            udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            udp.bind(("127.0.0.1", 0))
            try:
                return udp, socket.create_server(udp.getsockname())
            except OSError:
                udp.close()
        raise RuntimeError("no loopback port free for both UDP and TCP")

    def _serve(self):
        handlers = {self.udp: self._udp, self.tcp: self._tcp, self.whois_listener: self._whois}
        with selectors.DefaultSelector() as selector:
            for sock in handlers:
                selector.register(sock, selectors.EVENT_READ)
            while not self._stop.is_set():
                for key, _ in selector.select(timeout=0.05):
                    try:
                        handlers[key.fileobj]()
                    except Exception as exc:  # handed to close(), which raises it
                        self.errors.append(exc)

    @staticmethod
    def question(query: bytes) -> tuple[int, str, int]:
        """(txid, qname, qtype) of a query; its name is never compressed."""
        labels, at = [], 12
        while query[at]:
            labels.append(query[at + 1 : at + 1 + query[at]].decode())
            at += 1 + query[at]
        return struct.unpack_from(">H", query)[0], ".".join(labels), struct.unpack_from(">H", query, at + 1)[0]

    def answer(self, query: bytes, tc: bool = False, echo: str | None = None) -> bytes:
        """The reply to a query, echoing the question name `echo` if given."""
        txid, qname, qtype = self.question(query)
        if qtype == dnswire.TYPE_A:
            found = [socket.inet_aton(r.address) for r in self.zone.lookup_a(qname)]
        elif qtype == dnswire.TYPE_SRV:
            found = [
                struct.pack(">HHH", r.priority, r.weight, r.port) + hand_name(*r.target.split("."))
                for r in self.zone.lookup_srv(qname)
            ]
        else:
            ptr = self.zone.lookup_ptr(".".join(reversed(qname.split(".")[:4])))
            found = [] if ptr is None else [hand_name(*ptr.target.split("."))]
        answers = [] if tc else [record(qtype, rdata) for rdata in found]
        rcode = dnswire.RCODE_NOERROR if found else dnswire.RCODE_NXDOMAIN
        return response_packet(txid, rcode, answers, tc=tc, qname=echo or qname, qtype=qtype)

    def _udp(self):
        query, client = self.udp.recvfrom(dnswire.MAX_PACKET)
        self.counts["udp"] += 1
        txid, qname, qtype = self.question(query)
        fault = self.faults.get(qname)
        if fault in ("drop", "drop_first"):
            self.counts["dropped"] += 1
            if fault == "drop_first":
                del self.faults[qname]  # the retransmission is answered
            return
        if fault == "servfail":
            reply = response_packet(txid, SERVFAIL, [], qname=qname, qtype=qtype)
        elif fault == "garbage":
            reply = struct.pack(">HH", txid, 0x8000) + b"\xff" * 5
        elif fault == "wrong_question":
            reply = self.answer(query, echo="elsewhere." + qname)
        else:
            reply = self.answer(query, tc=self.truncate_udp or fault == "drip")
        forged = [record(dnswire.TYPE_A, socket.inet_aton(FORGED_ADDRESS))]
        if self.forge_from_other_port:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as forger:
                forger.bind(("127.0.0.1", 0))
                forger.sendto(response_packet(txid, 0, forged, qname=qname, qtype=qtype), client)
            self.counts["forged"] += 1
        if fault == "other_txid_first":
            other = response_packet(txid ^ 0xFFFF, 0, forged, qname=qname, qtype=qtype)
            self.udp.sendto(other, client)
            self.counts["forged"] += 1
        if fault == "slow":
            thread = threading.Thread(target=self._send_late, args=(reply, client), daemon=True)
            self._senders.append(thread)
            thread.start()
            return
        self.udp.sendto(reply, client)

    def _send_late(self, reply: bytes, client):
        if not self._stop.wait(SLOW_S):
            self.udp.sendto(reply, client)

    def _tcp(self):
        conn, _ = self.tcp.accept()
        conn.settimeout(2)
        with conn, conn.makefile("rb") as stream:
            query = stream.read(struct.unpack(">H", stream.read(2))[0])
            self.counts["tcp"] += 1
            reply = self.answer(query)
            self._reply(conn, struct.pack(">H", len(reply)) + reply, self.faults.get(self.question(query)[1]))

    def _whois(self):
        conn, _ = self.whois_listener.accept()
        conn.settimeout(2)
        with conn, conn.makefile("rb") as stream:
            address = stream.readline().decode().strip()
            self.counts["whois"] += 1
            text = self.whois_text.get(address)
            if text is None:
                domains = self.whois.domains_for(address) if self.whois else []
                text = "".join(f"domain: {domain}\r\n" for domain in domains)
            fault = self.faults.get(address)
            if fault == "oversize":
                text += "%\r\n" * (discovery.WHOIS_MAX_BYTES // 3)
            self._reply(conn, text.encode(), fault)

    def _reply(self, conn, data: bytes, fault: str | None):
        """Send data on conn, which the caller closes; a drip goes out from
        a thread of its own on a duplicate of conn. A client that hangs up
        early (over its size cap or past its deadline) is no fault of the
        responder's."""
        if fault == "drip":
            thread = threading.Thread(target=self._drip, args=(conn.dup(), data), daemon=True)
            self._senders.append(thread)
            thread.start()
            return
        with suppress(ConnectionError):
            conn.sendall(data)

    def _drip(self, conn, data: bytes):
        with conn:
            for at in range(len(data)):
                if self._stop.wait(DRIP_S):
                    return
                try:
                    conn.send(data[at : at + 1])
                except OSError:  # the client gave up
                    return

    def close(self):
        self._stop.set()
        for thread in [self._thread, *self._senders]:
            thread.join(timeout=5)
            assert not thread.is_alive(), "responder did not stop"
        for sock in (self.udp, self.tcp, self.whois_listener):
            sock.close()
        if self.errors:
            raise self.errors[0]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@functools.lru_cache(maxsize=None)
def small_bundle() -> ScenarioBundle:
    """One small seeded bundle whose documents the fuzzers start from;
    read it, never change it."""
    return generate_scenario(ScenarioSpec(clients=4, seed=3, services=2))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, document, edits: int = 3):
    """A copy of a JSON document in which up to `edits` values, at any
    depth and the whole document included, are replaced by random JSON or
    deleted from their object or list."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, edits))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc
