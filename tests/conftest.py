"""Shared test helpers: path builders, the reference zone fixture, a
gauge for slow fake providers, the redirect front end on a thread and
mutated documents for the parser fuzzers."""
from __future__ import annotations

import asyncio
import copy
import functools
import random
import socket
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from edisco.redirect import FrontEnd
from edisco.simharness import ScenarioBundle, ScenarioSpec, generate_scenario
from edisco.topology import Hop, ProbedPath

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
        Hop(index=i, address=a, rtt_ms=None if a is None else float(i))
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
