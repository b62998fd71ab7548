"""Cloud-to-client path aggregation.

Takes traceroute-style paths probed from one orchestrator host, groups every
observed address into fixed-length prefixes (/24 by default), and builds the
rooted aggregation structure used for placement decisions: nodes keyed by
subnet, parent->child edges from hop succession, and per-client node
sequences. Centrality of a node is the number of client paths that pass
through it, counting only paths that originate at the root.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from ipaddress import IPv4Address, IPv4Network
from typing import TYPE_CHECKING, Iterable

from .errors import EmptyFixtureError, EmptyInputError, MalformedFixtureError

if TYPE_CHECKING:
    from .discovery import EdgeServer

TREE_FORMAT = "edisco-tree/1"


def _parse_ipv4(text: str) -> IPv4Address:
    return IPv4Address(text)


def subnet_sort_key(subnet: str) -> int:
    return int(IPv4Network(subnet).network_address)


def group_subnet(address: str, prefix_len: int = 24) -> str:
    """Map an IPv4 address to its enclosing prefix, low bits zeroed.

    With the default /24, 192.168.121.30 and 192.168.121.31 land in the same
    group, 192.168.121.0/24.
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    addr = _parse_ipv4(address)
    return str(IPv4Network((addr, prefix_len), strict=False))


@dataclass(frozen=True)
class Hop:
    """One TTL step on a probed path.

    A hop that never answered is recorded as unknown: no address and no rtt.
    """

    index: int
    address: str | None = None
    rtt_ms: float | None = None
    domain: str | None = None

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"hop index must be >= 1, got {self.index}")
        if self.address is None and self.rtt_ms is not None:
            raise ValueError(f"hop {self.index}: rtt without address")
        if self.address is not None:
            _parse_ipv4(self.address)

    @property
    def known(self) -> bool:
        return self.address is not None


@dataclass(frozen=True)
class ProbedPath:
    """Ordered hops from the orchestrator toward one client.

    `truncated` is derived at construction: the probe completed only if the
    final known hop is the client itself.
    """

    client: str
    hops: tuple[Hop, ...]
    truncated: bool = field(init=False)

    def __post_init__(self):
        _parse_ipv4(self.client)
        if not self.hops:
            raise ValueError("path has no hops")
        for position, hop in enumerate(self.hops, start=1):
            if hop.index != position:
                raise ValueError(
                    f"hop indices must be 1..n without gaps; "
                    f"position {position} has index {hop.index}"
                )
        last_known = next((h for h in reversed(self.hops) if h.known), None)
        truncated = last_known is None or last_known.address != self.client
        object.__setattr__(self, "truncated", truncated)

    @property
    def known_addresses(self) -> list[str]:
        return [h.address for h in self.hops if h.address is not None]


def ingest_recorded_paths(document) -> list[ProbedPath]:
    """Parse a recorded-trace document into ProbedPaths.

    The document is the already-loaded JSON value: a list of
    ``{"client": str, "hops": [{"index", "address", "rtt_ms"}, ...]}``.
    Parsing is strict; the first malformed entry fails the whole ingest with
    its location cited.
    """
    if not isinstance(document, list):
        raise MalformedFixtureError("trace fixture must be a top-level list")
    if not document:
        raise EmptyFixtureError("trace fixture contains no entries")
    paths = []
    for i, entry in enumerate(document):
        where = f"entry {i}"
        if not isinstance(entry, dict):
            raise MalformedFixtureError(f"{where}: not an object")
        try:
            client = entry["client"]
            raw_hops = entry["hops"]
        except KeyError as exc:
            raise MalformedFixtureError(f"{where}: missing field {exc}") from None
        if not isinstance(raw_hops, list):
            raise MalformedFixtureError(f"{where}: hops must be a list")
        hops = []
        for j, raw in enumerate(raw_hops):
            if not isinstance(raw, dict):
                raise MalformedFixtureError(f"{where}, hop {j}: not an object")
            try:
                hops.append(
                    Hop(
                        index=raw["index"],
                        address=raw.get("address"),
                        rtt_ms=raw.get("rtt_ms"),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise MalformedFixtureError(f"{where}, hop {j}: {exc}") from None
        try:
            paths.append(ProbedPath(client=client, hops=tuple(hops)))
        except (ValueError, TypeError) as exc:
            raise MalformedFixtureError(f"{where}: {exc}") from None
    return paths


def paths_to_document(paths: Iterable[ProbedPath]) -> list[dict]:
    """Serialize paths back to the recorded-trace fixture shape."""
    return [
        {
            "client": p.client,
            "hops": [
                {"index": h.index, "address": h.address, "rtt_ms": h.rtt_ms}
                for h in p.hops
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

    @property
    def clients(self) -> list[str]:
        return sorted(self.client_paths, key=_parse_ipv4)

    def sorted_subnets(self) -> list[str]:
        return sorted(self.nodes, key=subnet_sort_key)

    def to_document(self) -> dict:
        nodes = []
        for subnet in self.sorted_subnets():
            node = self.nodes[subnet]
            nodes.append(
                {
                    "subnet": node.subnet,
                    "members": sorted(node.member_addresses, key=_parse_ipv4),
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
        if doc.get("format") != TREE_FORMAT:
            raise MalformedFixtureError(
                f"not a tree document (format={doc.get('format')!r})"
            )
        nodes = {}
        for raw in doc["nodes"]:
            servers = []
            if raw["edge_servers"]:
                from .discovery import EdgeServer

                servers = [EdgeServer.from_document(s) for s in raw["edge_servers"]]
            nodes[raw["subnet"]] = SubnetNode(
                subnet=raw["subnet"],
                member_addresses=set(raw["members"]),
                domains=set(raw["domains"]),
                centrality=raw["centrality"],
                is_client=raw["is_client"],
                edge_servers=servers,
            )
        return cls(
            root_address=doc["root_address"],
            root_subnet=doc["root_subnet"],
            prefix_len=doc["prefix_len"],
            nodes=nodes,
            edges={(a, b) for a, b in doc["edges"]},
            client_paths={c: tuple(p) for c, p in doc["client_paths"].items()},
        )

    def digest(self) -> str:
        canonical = json.dumps(
            self.to_document(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def build_tree(
    paths: Iterable[ProbedPath], root_address: str, prefix_len: int = 24
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
    root_subnet = group_subnet(root_address, prefix_len)
    nodes: dict[str, SubnetNode] = {
        root_subnet: SubnetNode(subnet=root_subnet, member_addresses={root_address})
    }
    edges: set[tuple[str, str]] = set()
    client_paths: dict[str, tuple[str, ...]] = {}
    seen_hop_sets: dict[str, tuple[str, ...]] = {}

    def node_for(subnet: str) -> SubnetNode:
        if subnet not in nodes:
            nodes[subnet] = SubnetNode(subnet=subnet)
        return nodes[subnet]

    for path in paths:
        addresses = tuple(path.known_addresses)
        if path.client in seen_hop_sets:
            if seen_hop_sets[path.client] != addresses:
                raise ValueError(
                    f"conflicting duplicate paths for client {path.client}"
                )
            continue
        seen_hop_sets[path.client] = addresses
        sequence = [root_subnet]
        for address in addresses:
            subnet = group_subnet(address, prefix_len)
            node_for(subnet).member_addresses.add(address)
            if subnet != sequence[-1]:
                sequence.append(subnet)
        for parent, child in zip(sequence, sequence[1:]):
            edges.add((parent, child))
        if not path.truncated:
            client_node = node_for(group_subnet(path.client, prefix_len))
            client_node.is_client = True
            client_node.member_addresses.add(path.client)
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
    counts: Counter[str] = Counter()
    for path in tree.client_paths.values():
        for subnet in set(path):
            counts[subnet] += 1
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
