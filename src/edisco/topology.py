"""Cloud-to-client path aggregation.

Takes traceroute-style paths probed from one orchestrator host, groups every
observed address into fixed-length prefixes (/24 by default), and builds the
rooted aggregation structure used for placement decisions: nodes keyed by
subnet, parent->child edges from hop succession, and per-client node
sequences. Centrality of a node is the number of client paths that pass
through it, counting only paths that originate at the root.

Address text is checked by `address_int` where it enters the program:
Hop/ProbedPath construction, tree and plan documents, zone, whois and
capacity fixtures, the client list, the run config's root and
nameservers, the clients of `edisco probe` and the client of a redirect
request.
Downstream code trusts it and reads it with `subnet_sort_key`, built on
`socket.inet_aton`, which alone would also take 1.2.3 or 010.0.0.1.
"""
from __future__ import annotations

import hashlib
import json
import queue
import re
import socket
from collections import Counter
from contextlib import suppress
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING, Iterable

from .errors import EmptyFixtureError, EmptyInputError, MalformedFixtureError

if TYPE_CHECKING:
    from .discovery import EdgeServer

TREE_FORMAT = "edisco-tree/1"
DEFAULT_PREFIX_LEN = 24  # the prefix length hops are grouped by, unless a round sets one


_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"  # no leading zeros
_ADDRESS = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")
_PREFIX = re.compile(rf"({_ADDRESS.pattern})/(3[0-2]|[12]?[0-9])")


def address_int(text) -> int:
    """The 32-bit value of dotted-quad IPv4 text.

    Accepts exactly the strings IPv4Address accepts: four decimal ASCII
    octets, no leading zeros, nothing around them. Raises ValueError for
    anything else, including a value that is not a str. The regular
    expression is the check; inet_aton alone would take 1.2.3 or 010.0.0.1.
    """
    if not isinstance(text, str) or _ADDRESS.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not an IPv4 address")
    return int.from_bytes(socket.inet_aton(text), "big")


def subnet_sort_key(text: str) -> int:
    """The 32-bit value of an address, or of a prefix's network, whose text
    was checked on entry: the trusted reader, which checks nothing."""
    return int.from_bytes(socket.inet_aton(text.partition("/")[0]), "big")


def parse_subnets(value) -> frozenset[str]:
    """A list of IPv4 prefixes, each written exactly as IPv4Network writes it
    (checked without IPv4Network, which costs four times as much)."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of IPv4 prefixes, got {value!r}")
    for text in value:
        match = _PREFIX.fullmatch(text) if isinstance(text, str) else None
        if match is None or address_int(match[1]) & ((1 << (32 - int(match[2]))) - 1):
            raise ValueError(f"{text!r} is not a canonical IPv4 prefix")
    return frozenset(value)


def group_subnet(address: str, prefix_len: int = DEFAULT_PREFIX_LEN) -> str:
    """Map an IPv4 address to its enclosing prefix, low bits zeroed.

    With the default /24, 192.168.121.30 and 192.168.121.31 land in the same
    group, 192.168.121.0/24.
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    return _prefix_text(address_int(address) & (-1 << (32 - prefix_len)), prefix_len)


def _prefix_text(network: int, prefix_len: int) -> str:
    return f"{socket.inet_ntoa(network.to_bytes(4, 'big'))}/{prefix_len}"


@dataclass(frozen=True, slots=True)
class Hop:
    """One TTL step on a probed path; its TTL is its 1-based position in
    the path's hops, so it stores none. A trace document's hop "index" must
    run 1..n in order, and paths_to_document (so also `edisco probe --json`)
    writes it from the position.

    A hop that never answered is recorded as unknown: no address and no rtt.
    """

    address: str | None = None
    rtt_ms: float | None = None

    def __post_init__(self):
        if self.address is None and self.rtt_ms is not None:
            raise ValueError("rtt without address")
        if self.address is not None:
            address_int(self.address)

    @property
    def known(self) -> bool:
        return self.address is not None


@dataclass(frozen=True, slots=True)
class ProbedPath:
    """Ordered hops from the orchestrator toward one client.

    `truncated` is derived at construction: the probe completed only if the
    final known hop is the client itself.
    """

    client: str
    hops: tuple[Hop, ...]
    truncated: bool = field(init=False)

    def __post_init__(self):
        address_int(self.client)
        if not self.hops:
            raise ValueError("path has no hops")
        last_known = next((h.address for h in reversed(self.hops) if h.known), None)
        object.__setattr__(self, "truncated", last_known != self.client)

    @property
    def known_addresses(self) -> list[str]:
        return [h.address for h in self.hops if h.address is not None]


def _typed(doc, key: str, kind: type, where: str):
    """doc[key], or MalformedFixtureError if it is missing or not a `kind`.
    JSON true and false are no numbers: a bool passes only as a bool."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise MalformedFixtureError(f"{where}: {key!r} is missing or not of type {kind.__name__}")
    return value


class _refused:
    """Refuses bad input read in the block: a KeyError, TypeError or
    ValueError, or one of `also`, leaves it as MalformedFixtureError
    "{where}: {exc}". A MalformedFixtureError not named in `also` passes
    unchanged, so a nested reader's location is not cited twice. A class,
    not a @contextmanager generator, which costs three times as much per use."""

    def __init__(self, where: str, *also: type[Exception]):
        self.where = where
        self.also = also

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if kind is not None and issubclass(kind, (KeyError, TypeError, ValueError, *self.also)):
            raise MalformedFixtureError(f"{self.where}: {exc}") from None


def map_in_threads(fn, items: list, width: int) -> list:
    """[fn(item) for item in items] on min(width, len(items)) threads, one
    task per thread. Each thread takes the next unclaimed item, so a slow
    item holds up only its own thread. Results keep input order. A thread
    stops at the first exception it meets while the others go on; once all
    have finished, that exception is raised here. A KeyboardInterrupt here
    leaves the unclaimed items untaken: each thread ends after its current
    item."""
    threads = min(width, len(items))
    if not threads:
        return []
    results = [None] * len(items)
    # SimpleQueue is thread-safe without a Python-level lock; with a Lock
    # around next(), a thread preempted inside it stalls all the others.
    unclaimed = queue.SimpleQueue()
    for claim in enumerate(items):
        unclaimed.put(claim)

    def run() -> None:
        while True:
            try:
                index, item = unclaimed.get_nowait()
            except queue.Empty:
                return
            results[index] = fn(item)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            for task in [pool.submit(run) for _ in range(threads)]:
                task.result()
        except KeyboardInterrupt:
            with suppress(queue.Empty):
                while True:
                    unclaimed.get_nowait()
            raise
    return results


def ingest_recorded_paths(document) -> list[ProbedPath]:
    """Parse a recorded-trace document into ProbedPaths.

    The document is the already-loaded JSON value: a list of
    ``{"client": str, "hops": [{"index", "address", "rtt_ms"}, ...]}``.
    A hop's "index" must equal its 1-based position, so they run 1..n in
    order (1.0 and true pass as 1); it is checked here, first, since a Hop
    stores none. Then every Hop and ProbedPath is built by its constructor,
    so an entry fails exactly when building them directly would fail, with
    the same message and its location cited. An entry for a client named
    before must have the same known addresses as the first.
    """
    if not isinstance(document, list):
        raise MalformedFixtureError("trace fixture must be a top-level list")
    if not document:
        raise EmptyFixtureError("trace fixture contains no entries")
    paths = []
    first_entry: dict[str, int] = {}  # client -> index of its first entry
    for i, entry in enumerate(document):
        where = f"entry {i}"
        client = _typed(entry, "client", str, where)
        hops = []
        for position, raw in enumerate(_typed(entry, "hops", list, where)):
            if not isinstance(raw, dict):
                raise MalformedFixtureError(f"{where}, hop {position}: not an object")
            if (index := raw.get("index")) != position + 1:
                raise MalformedFixtureError(
                    f"{where}, hop {position}: 'index' must be {position + 1}, got {index!r}"
                )
            with _refused(f"{where}, hop {position}"):
                hops.append(Hop(raw.get("address"), raw.get("rtt_ms")))
        with _refused(where):
            paths.append(ProbedPath(client=client, hops=tuple(hops)))
        first = first_entry.setdefault(client, i)
        if first != i and paths[first].known_addresses != paths[i].known_addresses:
            raise MalformedFixtureError(
                f"{where}: conflicting duplicate path for client {client}, first in entry {first}"
            )
    return paths


def paths_to_document(paths: Iterable[ProbedPath]) -> list[dict]:
    """Serialize paths back to the recorded-trace fixture shape; each hop's
    "index" is its 1-based position."""
    return [
        {
            "client": p.client,
            "hops": [
                {"index": index, "address": h.address, "rtt_ms": h.rtt_ms}
                for index, h in enumerate(p.hops, start=1)
            ],
        }
        for p in paths
    ]


@dataclass
class SubnetNode:
    """One /24 group in the aggregation tree."""

    subnet: str
    member_addresses: set[str] = field(default_factory=set)
    domains: set[str] = field(default_factory=set)
    centrality: int = 0
    is_client: bool = False
    edge_servers: list["EdgeServer"] = field(default_factory=list)


@dataclass
class AggregationTree:
    """All probed paths grouped into subnets and rooted at the orchestrator.

    Traceroute merge/diverge patterns can make the edge set a DAG; every
    operation here is defined on the per-client node sequences, so the
    distinction does not affect results.
    """

    root_address: str
    root_subnet: str
    prefix_len: int
    nodes: dict[str, SubnetNode]
    edges: set[tuple[str, str]]
    client_paths: dict[str, tuple[str, ...]]

    @property
    def root(self) -> SubnetNode:
        return self.nodes[self.root_subnet]

    def sorted_subnets(self) -> list[str]:
        return sorted(self.nodes, key=subnet_sort_key)

    def to_document(self) -> dict:
        nodes = []
        for subnet in self.sorted_subnets():
            node = self.nodes[subnet]
            nodes.append(
                {
                    "subnet": node.subnet,
                    "members": sorted(node.member_addresses, key=socket.inet_aton),
                    "domains": sorted(node.domains),
                    "centrality": node.centrality,
                    "is_client": node.is_client,
                    "edge_servers": [s.to_document() for s in node.edge_servers],
                }
            )
        return {
            "format": TREE_FORMAT,
            "root_address": self.root_address,
            "root_subnet": self.root_subnet,
            "prefix_len": self.prefix_len,
            "nodes": nodes,
            "edges": sorted(list(e) for e in self.edges),
            "client_paths": {
                client: list(path) for client, path in sorted(self.client_paths.items())
            },
        }

    @classmethod
    def from_document(cls, doc: dict) -> "AggregationTree":
        """Load a tree document. Every node subnet must be a canonical IPv4
        prefix and every member an IPv4 address. Every client path must start
        at the root, name only subnets in `nodes`, and end at its client's
        own subnet."""
        from .discovery import EdgeServer

        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != TREE_FORMAT:
            raise MalformedFixtureError(f"not a tree document (format={fmt!r})")
        with _refused("tree document"):
            root_subnet = _typed(doc, "root_subnet", str, "tree")
            prefix_len = _typed(doc, "prefix_len", int, "tree")
            nodes = {}
            for i, raw in enumerate(_typed(doc, "nodes", list, "tree")):
                where = f"tree node {i}"
                subnet = _typed(raw, "subnet", str, where)
                members = _typed(raw, "members", list, where)
                with _refused(where):
                    parse_subnets([subnet])
                    for member in members:
                        address_int(member)
                nodes[subnet] = SubnetNode(
                    subnet=subnet,
                    member_addresses=set(members),
                    domains=set(_typed(raw, "domains", list, where)),
                    centrality=_typed(raw, "centrality", int, where),
                    is_client=_typed(raw, "is_client", bool, where),
                    edge_servers=[
                        EdgeServer.from_document(s)
                        for s in _typed(raw, "edge_servers", list, where)
                    ],
                )
            client_paths = {}
            for client, path in _typed(doc, "client_paths", dict, "tree").items():
                where = f"client path of {client}"
                if not isinstance(path, list) or not path or path[0] != root_subnet:
                    raise MalformedFixtureError(f"{where}: does not start at {root_subnet}")
                unknown = [subnet for subnet in path if subnet not in nodes]
                if unknown:
                    raise MalformedFixtureError(f"{where}: {unknown[0]} is not a node")
                if path[-1] != group_subnet(client, prefix_len):
                    raise MalformedFixtureError(f"{where}: does not end at the client's subnet")
                client_paths[client] = tuple(path)
            return cls(
                root_address=_typed(doc, "root_address", str, "tree"),
                root_subnet=root_subnet,
                prefix_len=prefix_len,
                nodes=nodes,
                edges={(a, b) for a, b in _typed(doc, "edges", list, "tree")},
                client_paths=client_paths,
            )

    def digest(self) -> str:
        """SHA-256 hex of the canonical JSON text of to_document(): sorted
        keys, no spaces, ASCII with \\u escapes, as json.dumps(doc,
        sort_keys=True, separators=(",", ":")) writes it. The text is written
        straight from the tree, without building the document, but for the
        edge servers, few to a node, which EdgeServer.to_document() writes."""

        def strings(items) -> str:
            return "[" + ",".join(map(_json_string, items)) + "]"

        nodes = []
        for subnet in self.sorted_subnets():
            node = self.nodes[subnet]
            servers = ",".join(
                json.dumps(s.to_document(), sort_keys=True, separators=(",", ":"))
                for s in node.edge_servers
            )
            nodes.append(
                f'{{"centrality":{node.centrality},"domains":{strings(sorted(node.domains))},'
                f'"edge_servers":[{servers}],"is_client":{"true" if node.is_client else "false"},'
                f'"members":{strings(sorted(node.member_addresses, key=socket.inet_aton))},'
                f'"subnet":{_json_string(node.subnet)}}}'
            )
        edges = ",".join(f"[{_json_string(a)},{_json_string(b)}]" for a, b in sorted(self.edges))
        paths = ",".join(
            f"{_json_string(client)}:{strings(self.client_paths[client])}"
            for client in sorted(self.client_paths)
        )
        canonical = (
            f'{{"client_paths":{{{paths}}},"edges":[{edges}],'
            f'"format":{_json_string(TREE_FORMAT)},"nodes":[{",".join(nodes)}],'
            f'"prefix_len":{self.prefix_len},"root_address":{_json_string(self.root_address)},'
            f'"root_subnet":{_json_string(self.root_subnet)}}}'
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def build_tree(
    paths: Iterable[ProbedPath], root_address: str, prefix_len: int = DEFAULT_PREFIX_LEN
) -> AggregationTree:
    """Group all probed paths into subnets under one root.

    Unknown hops are skipped, splicing their neighbors together. Consecutive
    hops in the same subnet collapse to a single occurrence. Clients whose
    probe never completed contribute their observed hops but get no client
    node and no client_paths entry. The result is independent of the input
    path order.
    """
    paths = list(paths)
    if not paths:
        raise EmptyInputError("build_tree needs at least one path")
    root_subnet = group_subnet(root_address, prefix_len)  # checks both arguments
    mask = -1 << (32 - prefix_len)
    nodes: dict[str, SubnetNode] = {
        root_subnet: SubnetNode(subnet=root_subnet, member_addresses={root_address})
    }
    edges: set[tuple[str, str]] = set()
    client_paths: dict[str, tuple[str, ...]] = {}
    first_path: dict[str, ProbedPath] = {}
    subnet_of: dict[str, str] = {}  # each distinct address is grouped once
    subnet_at = {subnet_sort_key(root_subnet): root_subnet}  # one text per network

    def join(address: str) -> str:
        """The subnet of an address seen for the first time, whose node it joins."""
        network = int.from_bytes(socket.inet_aton(address), "big") & mask
        subnet = subnet_at.get(network)
        if subnet is None:
            subnet = subnet_at[network] = _prefix_text(network, prefix_len)
            nodes[subnet] = SubnetNode(subnet=subnet)
        subnet_of[address] = subnet
        nodes[subnet].member_addresses.add(address)
        return subnet

    for path in paths:
        first = first_path.setdefault(path.client, path)
        if first is not path:
            if first.known_addresses != path.known_addresses:
                raise ValueError(
                    f"conflicting duplicate paths for client {path.client}"
                )
            continue
        sequence = [root_subnet]
        for hop in path.hops:
            if hop.address is not None:
                subnet = subnet_of.get(hop.address) or join(hop.address)
                if subnet != sequence[-1]:
                    sequence.append(subnet)
        edges.update(zip(sequence, sequence[1:]))
        if not path.truncated:  # the last known hop is the client: its subnet ends the sequence
            nodes[sequence[-1]].is_client = True
            client_paths[path.client] = tuple(sequence)
    return AggregationTree(
        root_address=root_address,
        root_subnet=root_subnet,
        prefix_len=prefix_len,
        nodes=nodes,
        edges=edges,
        client_paths=client_paths,
    )


def compute_centrality(tree: AggregationTree) -> AggregationTree:
    """Fill every node's centrality: the number of client paths containing it.

    A client node counts its own path, so client nodes have centrality >= 1
    and the root carries the count of reachable clients. Idempotent.
    """
    counts = Counter(chain.from_iterable(map(set, tree.client_paths.values())))
    for node in tree.nodes.values():
        node.centrality = counts.get(node.subnet, 0)
    return tree


def export_dot(tree: AggregationTree) -> str:
    """Render the tree as DOT text, deterministically.

    Node width scales with centrality; clients are boxes, edge-equipped
    subnets are filled, the root carries a distinct fill.
    """
    lines = ["digraph aggregation_tree {", "  rankdir=LR;"]
    for subnet in tree.sorted_subnets():
        node = tree.nodes[subnet]
        attrs = [
            f'label="{node.subnet}\\nc={node.centrality}"',
            f"width={0.5 + 0.15 * node.centrality:.2f}",
        ]
        attrs.append("shape=box" if node.is_client else "shape=ellipse")
        if subnet == tree.root_subnet:
            attrs.append("style=filled")
            attrs.append("fillcolor=gold")
        elif node.edge_servers:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        lines.append(f'  "{node.subnet}" [{", ".join(attrs)}];')
    for parent, child in sorted(tree.edges, key=lambda e: (subnet_sort_key(e[0]), subnet_sort_key(e[1]))):
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
