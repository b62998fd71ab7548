"""Service ranking, candidate scoring, and capacity negotiation.

The deployment half of a round: decide which services to onload, walk each
service's candidate list (high centrality first, then closest to its
clients), and ask servers for capacity until one accepts.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import groupby
from numbers import Real
from typing import Iterable, Iterator, Protocol

from .discovery import EdgeServer
from .errors import MalformedFixtureError
from .topology import (
    AggregationTree,
    SubnetNode,
    _refused,
    _typed,
    address_int,
    parse_subnets,
    subnet_sort_key,
)
from .zonefile import Transport

PLAN_FORMAT = "edisco-plan/1"


@dataclass(frozen=True)
class ServiceProfile:
    """One cloud service considered for onloading."""

    service_id: str
    bandwidth_demand: float
    cpu_demand: float
    client_subnets: frozenset[str]
    transport: Transport = Transport.TCP

    def __post_init__(self):
        if not (0 <= self.bandwidth_demand < math.inf and 0 <= self.cpu_demand < math.inf):
            raise ValueError(f"{self.service_id}: demands must be finite and non-negative")

    def to_document(self) -> dict:
        return {
            "service_id": self.service_id,
            "bandwidth_demand": self.bandwidth_demand,
            "cpu_demand": self.cpu_demand,
            "client_subnets": sorted(self.client_subnets, key=subnet_sort_key),
            "transport": self.transport.value,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ServiceProfile":
        return cls(
            service_id=_typed(doc, "service_id", str, "service profile"),
            bandwidth_demand=_typed(doc, "bandwidth_demand", Real, "service profile"),
            cpu_demand=_typed(doc, "cpu_demand", Real, "service profile"),
            client_subnets=parse_subnets(doc["client_subnets"]),
            transport=Transport(doc.get("transport", "tcp")),
        )


def load_service_profiles(document) -> list[ServiceProfile]:
    if not isinstance(document, list):
        raise MalformedFixtureError("services fixture must be a top-level list")
    profiles = []
    first_entry: dict[str, int] = {}
    for i, entry in enumerate(document):
        with _refused(f"service entry {i}", MalformedFixtureError):
            profile = ServiceProfile.from_document(entry)
        first = first_entry.setdefault(profile.service_id, i)
        if first != i:
            raise MalformedFixtureError(
                f"service entry {i}: service_id {profile.service_id!r} repeats entry {first}"
            )
        profiles.append(profile)
    return profiles


@dataclass(frozen=True)
class PlacementCandidate:
    node: SubnetNode
    server: EdgeServer
    centrality: int  # restricted to the service's own clients
    client_distance: float
    covered_prefixes: tuple[str, ...]  # the service's prefixes routed through node


@dataclass(frozen=True)
class Assignment:
    service_id: str
    server: EdgeServer
    node_subnet: str
    covered_prefixes: tuple[str, ...]


@dataclass(frozen=True)
class Rejection:
    service_id: str
    server: EdgeServer
    reason: str


@dataclass
class PlacementPlan:
    round_id: int
    assignments: list[Assignment] = field(default_factory=list)
    rejected: list[Rejection] = field(default_factory=list)
    unplaced: list[str] = field(default_factory=list)

    def __post_init__(self):
        placed = {a.service_id for a in self.assignments}
        overlap = placed & set(self.unplaced)
        if overlap:
            raise ValueError(f"services both placed and unplaced: {sorted(overlap)}")

    def to_document(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "round_id": self.round_id,
            "assignments": [
                {
                    "service_id": a.service_id,
                    "node": a.node_subnet,
                    "server": a.server.to_document(),
                    "coverage": list(a.covered_prefixes),
                }
                for a in self.assignments
            ],
            "rejected": [
                {
                    "service_id": r.service_id,
                    "server": r.server.to_document(),
                    "reason": r.reason,
                }
                for r in self.rejected
            ],
            "unplaced": list(self.unplaced),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "PlacementPlan":
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != PLAN_FORMAT:
            raise MalformedFixtureError(f"not a plan document (format={fmt!r})")
        with _refused("plan document"):
            assignments = []
            for i, a in enumerate(_typed(doc, "assignments", list, "plan")):
                where = f"plan assignment {i}"
                coverage = _typed(a, "coverage", list, where)
                parse_subnets(coverage)
                assignments.append(
                    Assignment(
                        service_id=_typed(a, "service_id", str, where),
                        server=EdgeServer.from_document(_typed(a, "server", dict, where)),
                        node_subnet=_typed(a, "node", str, where),
                        covered_prefixes=tuple(coverage),
                    )
                )
            rejected = []
            for i, r in enumerate(_typed(doc, "rejected", list, "plan")):
                where = f"plan rejection {i}"
                rejected.append(
                    Rejection(
                        service_id=_typed(r, "service_id", str, where),
                        server=EdgeServer.from_document(_typed(r, "server", dict, where)),
                        reason=_typed(r, "reason", str, where),
                    )
                )
            return cls(
                round_id=_typed(doc, "round_id", int, "plan"),
                assignments=assignments,
                rejected=rejected,
                unplaced=list(_typed(doc, "unplaced", list, "plan")),
            )


@dataclass(frozen=True)
class CapacityResponse:
    accepted: bool
    reason: str | None = None


class CapacityService(Protocol):
    """A server that does not answer is a rejection with reason
    ``unreachable: <address>: not answering``, not an exception."""

    def request(
        self, server: EdgeServer, cpu: float, bandwidth: float
    ) -> CapacityResponse: ...


class FixtureCapacityService:
    """Capacity fixture: per-address headroom, decremented on each accept.

    Keys are IPv4 addresses, checked at load. A server the fixture does not
    list answers ``unreachable: <address>: not answering``. State lasts one
    round; build a fresh instance per round.
    """

    def __init__(self, capacities: dict[str, dict]):
        if not isinstance(capacities, dict):
            raise MalformedFixtureError("capacity fixture must be a JSON object")
        self.available = {}
        for address, spec in capacities.items():
            where = f"capacity of {address}"
            with _refused(where):
                address_int(address)
            slot = {key: _typed(spec, key, Real, where) for key in ("cpu", "bandwidth")}
            # json.loads also yields NaN, Infinity and integers beyond any float
            if not all(0 <= value <= sys.float_info.max for value in slot.values()):
                raise MalformedFixtureError(f"{where}: headroom must be a finite number >= 0")
            self.available[address] = {key: float(value) for key, value in slot.items()}

    def request(
        self, server: EdgeServer, cpu: float, bandwidth: float
    ) -> CapacityResponse:
        slot = self.available.get(server.address)
        if slot is None:
            reason = f"unreachable: {server.address}: not answering"
            return CapacityResponse(accepted=False, reason=reason)
        if slot["cpu"] >= cpu and slot["bandwidth"] >= bandwidth:
            slot["cpu"] -= cpu
            slot["bandwidth"] -= bandwidth
            return CapacityResponse(accepted=True)
        return CapacityResponse(accepted=False, reason="insufficient-capacity")


def rank_services(profiles: Iterable[ServiceProfile]) -> list[ServiceProfile]:
    """Order services by onload benefit (bandwidth demand times client
    subnets), highest first. Ties break on service_id so the ranking is
    total."""
    return sorted(
        profiles,
        key=lambda p: (-p.bandwidth_demand * len(p.client_subnets), p.service_id),
    )


@dataclass(frozen=True)
class PathFold:
    """One round's client paths, folded once for every service's scoring.

    `reach[prefix][subnet]` is ``[paths, distance_sum]`` over the paths of
    the clients in `prefix` that pass an edge-equipped `subnet`, where a
    subnet's distance on a path counts from its last occurrence to the
    path's end. `order[subnet]` is the integer sort key of every subnet in
    `reach`, as prefix or as equipped node. Built from the tree as it
    stands; rebuild it once the tree's edge servers change."""

    tree: AggregationTree
    reach: dict[str, dict[str, list[int]]]
    order: dict[str, int]


def fold_client_paths(tree: AggregationTree) -> PathFold:
    """Fold every client path into its client prefix's reach: one pass over
    the paths, whatever the number of services."""
    equipped = {subnet for subnet, node in tree.nodes.items() if node.edge_servers}
    reach: dict[str, dict[str, list[int]]] = {}
    for path in tree.client_paths.values():
        end = len(path) - 1
        last = {subnet: end - i for i, subnet in enumerate(path) if subnet in equipped}
        prefix_reach = reach.setdefault(path[-1], {})  # ends at its client's subnet
        for subnet, distance in last.items():
            entry = prefix_reach.get(subnet)
            if entry is None:
                prefix_reach[subnet] = [1, distance]
            else:
                entry[0] += 1
                entry[1] += distance
    order = {subnet: subnet_sort_key(subnet) for subnet in (*reach, *equipped)}
    return PathFold(tree=tree, reach=reach, order=order)


def score_candidates(fold: PathFold, service: ServiceProfile) -> Iterator[PlacementCandidate]:
    """The deployable (node, server) pairs for one service, best first.

    Summing the round's fold over the service's own client prefixes gives
    each node its restricted centrality, its mean distance to those clients
    and the prefixes it covers, all from exact integer sums. The order is
    centrality descending, mean distance ascending, then subnet, then
    server identity. The sum and the ranking of the nodes happen here; a
    node's candidates are built only when the iterator reaches it, so a
    caller that stops early builds no more. Yields nothing when no equipped
    node on the service's paths has a server of its transport."""
    reach: dict[str, list] = {}  # subnet -> [count, distance_sum, prefixes]
    for prefix in service.client_subnets:
        for subnet, (count, distance_sum) in fold.reach.get(prefix, {}).items():
            entry = reach.get(subnet)
            if entry is None:
                reach[subnet] = [count, distance_sum, [prefix]]
            else:
                entry[0] += count
                entry[1] += distance_sum
                entry[2].append(prefix)
    order = fold.order
    nodes = fold.tree.nodes

    def rank(subnet: str) -> tuple:
        count, distance_sum, _ = reach[subnet]
        return -count, distance_sum / count, order[subnet]

    ranked = sorted(reach, key=rank)

    def walk() -> Iterator[PlacementCandidate]:
        # Nodes share a rank only when their networks coincide, in a loaded
        # tree that mixes prefix lengths; their servers then interleave.
        for (negative_count, distance, _), run in groupby(ranked, key=rank):
            offers = []
            for subnet in run:
                node = nodes[subnet]
                servers = [s for s in node.edge_servers if s.protocol is service.transport]
                if servers:
                    covered = tuple(sorted(reach[subnet][2], key=order.__getitem__))
                    offers.extend((server, node, covered) for server in servers)
            offers.sort(key=lambda offer: offer[0].sort_key)
            for server, node, covered in offers:
                yield PlacementCandidate(
                    node=node,
                    server=server,
                    centrality=-negative_count,
                    client_distance=distance,
                    covered_prefixes=covered,
                )

    return walk()


def plan_round(
    tree: AggregationTree,
    profiles: Iterable[ServiceProfile],
    capacity: CapacityService,
    round_id: int = 0,
) -> PlacementPlan:
    """Greedy deployment: per ranked service, walk candidates until a server
    accepts. Rejections and unplaceable services are recorded, never raised:
    a service with no candidate is unplaced with no rejection.

    The client paths are folded once per call (`fold_client_paths`), and
    every service is scored from that fold. The walk stops at the first
    accept, so the candidates past it are never built.
    """
    plan = PlacementPlan(round_id=round_id)
    ranked = rank_services(list(profiles))
    fold = fold_client_paths(tree) if ranked else None
    for service in ranked:
        for candidate in score_candidates(fold, service):
            response = capacity.request(
                candidate.server, service.cpu_demand, service.bandwidth_demand
            )
            if response.accepted:
                plan.assignments.append(
                    Assignment(
                        service_id=service.service_id,
                        server=candidate.server,
                        node_subnet=candidate.node.subnet,
                        covered_prefixes=candidate.covered_prefixes,
                    )
                )
                break
            plan.rejected.append(
                Rejection(
                    service_id=service.service_id,
                    server=candidate.server,
                    reason=response.reason or "rejected",
                )
            )
        else:
            plan.unplaced.append(service.service_id)
    return plan
