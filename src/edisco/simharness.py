"""Deterministic scenario generation.

A scenario bundle is a complete offline world: recorded traces, a zone
fixture with SRV, A, and PTR records, a whois table, per-server capacity,
service profiles, a client list, a ready-to-run config, and (optionally)
the expected round outputs. Same spec and seed, byte-identical bundle.

Addresses come from 240.0.0.0/4 and domains from .test, so an accidental
live run of a generated bundle can never touch a real network.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .discovery import FixtureWhois, registrable_domain
from .errors import EdiscoError, InvalidScenarioError
from .placement import FixtureCapacityService, load_service_profiles
from .probing import FixtureProber
from .rounds import RoundConfig, RoundProviders, run_round
from .topology import group_subnet, ingest_recorded_paths
from .zonefile import (
    ARecord,
    PtrRecord,
    SrvRecord,
    Transport,
    parse_zone,
    render_a_line,
    render_ptr_line,
    render_srv_line,
)


@dataclass(frozen=True)
class ScenarioSpec:
    clients: int
    seed: int = 0
    depth_min: int = 2
    depth_max: int = 5
    branching: int = 3
    edge_density: float = 0.5
    services: int = 3
    unknown_hop_rate: float = 0.0
    ptr_missing_rate: float = 0.0

    def __post_init__(self):
        if self.clients < 1:
            raise InvalidScenarioError("clients must be >= 1")
        if self.depth_min < 1 or self.depth_max < self.depth_min:
            raise InvalidScenarioError("need 1 <= depth_min <= depth_max")
        if self.branching < 1:
            raise InvalidScenarioError("branching must be >= 1")
        if not 0.0 <= self.edge_density <= 1.0:
            raise InvalidScenarioError("edge_density must be within [0, 1]")
        if self.services < 0:
            raise InvalidScenarioError("services must be >= 0")
        for name in ("unknown_hop_rate", "ptr_missing_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise InvalidScenarioError(f"{name} must be within [0, 1]")


@dataclass
class ScenarioBundle:
    root_address: str
    clients: list[str]
    traces: list[dict]
    zone_text: str
    whois: dict[str, str]
    capacity: dict[str, dict]
    services: list[dict]
    expected: dict | None = None

    def config_document(self) -> dict:
        return {
            "root": self.root_address,
            "clients": "clients.txt",
            "services": "services.json",
            "capacity": "capacity.json",
            "traces": "traces.json",
            "zone": "zone.txt",
            "whois": "whois.json",
            "period_s": RoundConfig.period_s,
            "prefix_len": RoundConfig.prefix_len,
            "listen": "127.0.0.1:0",
        }

    def write(self, directory) -> list[Path]:
        """Write the bundle's files into `directory` and return their paths,
        sorted. Each JSON file is compact, key-sorted text, which the C
        encoder writes; every reader takes any JSON layout. A bundle without
        expected outputs removes an `expected.json` left by an earlier one."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)

        def dump(name, value):
            path = out / name
            path.write_text(json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n")
            return path

        written = [
            dump("traces.json", self.traces),
            dump("whois.json", self.whois),
            dump("capacity.json", self.capacity),
            dump("services.json", self.services),
            dump("config.json", self.config_document()),
        ]
        zone_path = out / "zone.txt"
        zone_path.write_text(self.zone_text)
        written.append(zone_path)
        clients_path = out / "clients.txt"
        clients_path.write_text("\n".join(self.clients) + "\n")
        written.append(clients_path)
        if self.expected is not None:
            written.append(dump("expected.json", self.expected))
        else:
            (out / "expected.json").unlink(missing_ok=True)
        return sorted(written)


@dataclass(frozen=True)
class Violation:
    location: str
    message: str


@dataclass
class _Router:
    router_id: int
    octets: tuple[int, int, int]
    org: str
    addresses: list[str]
    children: list = field(default_factory=list)
    client_groups: list = field(default_factory=list)

    @property
    def subnet(self) -> str:
        a, b, c = self.octets
        return f"{a}.{b}.{c}.0/24"


def bundle_providers(bundle: ScenarioBundle) -> RoundProviders:
    """Fresh fixture providers for one round over an in-memory bundle."""
    return RoundProviders(
        prober=FixtureProber(ingest_recorded_paths(bundle.traces)),
        resolver=parse_zone(bundle.zone_text),
        whois=FixtureWhois(bundle.whois),
        capacity=FixtureCapacityService(bundle.capacity),
    )


def bundle_round_config(bundle: ScenarioBundle) -> RoundConfig:
    return RoundConfig(bundle.root_address, tuple(bundle.clients))


def compute_expected(bundle: ScenarioBundle) -> dict:
    """Golden outputs for a bundle: run one round in process."""
    services = load_service_profiles(bundle.services)
    record = run_round(
        bundle_round_config(bundle), services, bundle_providers(bundle)
    )
    return {"tree_digest": record.tree_digest, "plan": record.plan.to_document()}


def generate_scenario(
    spec: ScenarioSpec, include_expected: bool = True
) -> ScenarioBundle:
    """Grow a random router trie, hang clients off its leaves, then derive
    every fixture from the same structure so the bundle is consistent by
    construction. All randomness flows from one seeded generator."""
    rng = random.Random(spec.seed)
    counter = itertools.count()

    def next_octets() -> tuple[int, int, int]:
        k = next(counter)
        return (240 + k // 65536, (k // 256) % 256, k % 256)

    ra, rb, rc = next_octets()
    root_address = f"{ra}.{rb}.{rc}.1"

    orgs: list[str] = []
    org_first_router: dict[str, _Router] = {}
    routers: list[_Router] = []
    top: list[_Router] = []

    def new_router(parent_org: str | None) -> _Router:
        if parent_org is not None and rng.random() < 0.55:
            org = parent_org
        else:
            org = f"isp{len(orgs)}.test"
            orgs.append(org)
        a, b, c = octets = next_octets()
        addresses = [f"{a}.{b}.{c}.1"]
        if rng.random() < 0.25:  # dual-interface pair, exercises collapse
            addresses.append(f"{a}.{b}.{c}.2")
        router = _Router(len(routers), octets, org, addresses)
        routers.append(router)
        org_first_router.setdefault(org, router)
        return router

    # client walks share trie prefixes, which is what makes some routers
    # far more central than others
    client_routes: list[tuple[str, list[_Router]]] = []
    clients: list[str] = []
    group_order: list[tuple[dict, _Router]] = []
    for _ in range(spec.clients):
        depth = rng.randint(spec.depth_min, spec.depth_max)
        level = top
        parent_org = None
        route: list[_Router] = []
        for _hop in range(depth):
            fresh = not level or (
                len(level) < spec.branching and rng.random() < 0.45
            )
            router = new_router(parent_org) if fresh else level[rng.randrange(len(level))]
            if fresh:
                level.append(router)
            route.append(router)
            level = router.children
            parent_org = router.org
        leaf = route[-1]
        if not leaf.client_groups or (
            len(leaf.client_groups[-1]["members"])
            >= leaf.client_groups[-1]["limit"]
        ):
            group = {
                "octets": next_octets(),
                "limit": rng.randint(2, 4),
                "members": [],
            }
            leaf.client_groups.append(group)
            group_order.append((group, leaf))
        group = leaf.client_groups[-1]
        a, b, c = group["octets"]
        address = f"{a}.{b}.{c}.{10 + len(group['members'])}"
        group["members"].append(address)
        clients.append(address)
        client_routes.append((address, route))

    # equipment: per org, maybe edge servers behind _edge SRV records
    srv_records: list[SrvRecord] = []
    a_records: list[ARecord] = []
    server_addresses: list[str] = []
    equipped: list[str] = []
    for org in orgs:
        if rng.random() >= spec.edge_density:
            continue
        equipped.append(org)
        home = org_first_router[org].octets
        port = rng.choice([5060, 8080, 8443])
        count = rng.randint(1, 2)
        advertise_udp = rng.random() < 0.5
        for n in range(1, count + 1):
            host = f"edge{n}.{org}"
            ha, hb, hc = home
            address = f"{ha}.{hb}.{hc}.{29 + n}"
            priority = 10 if n == 1 else rng.choice([10, 10, 20])
            weight = rng.choice([10, 20, 30])
            server_addresses.append(address)
            a_records.append(ARecord(name=host, address=address))
            for transport in (Transport.TCP, Transport.UDP):
                if transport is Transport.UDP and not advertise_udp:
                    continue
                srv_records.append(
                    SrvRecord(
                        service="edge",
                        protocol=transport,
                        zone=org,
                        priority=priority,
                        weight=weight,
                        port=port,
                        target=host,
                    )
                )

    # reverse records for router interfaces, minus the configured loss
    ptr_records: list[PtrRecord] = []
    ptr_domains: set[str] = set()
    for router in routers:
        for iface, address in enumerate(router.addresses):
            if rng.random() < spec.ptr_missing_rate:
                continue
            suffix = "" if iface == 0 else "-b"
            target = f"r{router.router_id}{suffix}.{router.org}"
            ptr_records.append(PtrRecord(address=address, target=target))
            ptr_domains.add(router.org)
    for group, leaf in group_order:
        if rng.random() < 0.5:
            continue
        for n, address in enumerate(group["members"]):
            ptr_records.append(PtrRecord(address=address, target=f"h{n}.{leaf.org}"))
            ptr_domains.add(leaf.org)

    whois: dict[str, str] = {}
    for router in routers:
        if rng.random() < 0.5:
            whois[router.subnet] = router.org
    # an equipped org must stay identifiable or its SRV records are dead
    # weight; backfill whois for any that lost every reference
    for org in equipped:
        if org not in ptr_domains and org not in whois.values():
            whois[org_first_router[org].subnet] = org

    zone_lines = (
        [render_srv_line(r) for r in srv_records]
        + [render_a_line(r) for r in a_records]
        + [render_ptr_line(r) for r in ptr_records]
    )
    zone_text = "\n".join(zone_lines) + ("\n" if zone_lines else "")

    capacity: dict[str, dict] = {}
    for address in server_addresses:
        if rng.random() < 0.15:  # a few starved servers force fallbacks
            capacity[address] = {"cpu": 1.0, "bandwidth": 10.0}
        else:
            capacity[address] = {
                "cpu": float(rng.randint(4, 32)),
                "bandwidth": float(rng.choice(range(50, 525, 25))),
            }

    client_subnets = []
    for group, _leaf in group_order:
        a, b, c = group["octets"]
        client_subnets.append(f"{a}.{b}.{c}.0/24")
    services: list[dict] = []
    for i in range(spec.services):
        fraction = rng.uniform(0.3, 0.9)
        k = max(1, round(fraction * len(client_subnets)))
        subnets = sorted(rng.sample(client_subnets, k))
        services.append(
            {
                "service_id": f"svc-{i:02d}",
                "bandwidth_demand": float(rng.choice(range(5, 45, 5))),
                "cpu_demand": float(rng.randint(1, 8)),
                "client_subnets": subnets,
                "transport": "tcp" if rng.random() < 0.8 else "udp",
            }
        )

    traces: list[dict] = []
    for address, route in client_routes:
        hop_addresses: list[str] = []
        for router in route:
            hop_addresses.extend(router.addresses)
        hop_addresses.append(address)
        rtt = 0.0
        hops = []
        last = len(hop_addresses) - 1
        for position, hop_address in enumerate(hop_addresses):
            rtt = round(rtt + rng.uniform(0.5, 9.0), 3)
            # only intermediate hops go silent; the final hop is the client
            # answering, so corrupting it would unregister the client
            if position < last and rng.random() < spec.unknown_hop_rate:
                hops.append({"index": position + 1, "address": None, "rtt_ms": None})
            else:
                hops.append(
                    {"index": position + 1, "address": hop_address, "rtt_ms": rtt}
                )
        traces.append({"client": address, "hops": hops})

    bundle = ScenarioBundle(
        root_address=root_address,
        clients=clients,
        traces=traces,
        zone_text=zone_text,
        whois=whois,
        capacity=capacity,
        services=services,
    )
    if include_expected:
        bundle.expected = compute_expected(bundle)
    return bundle


def validate_bundle(bundle: ScenarioBundle) -> list[Violation]:
    """Cross-check every fixture against the others. An empty list means
    the bundle is internally consistent."""
    violations: list[Violation] = []

    try:
        paths = ingest_recorded_paths(bundle.traces)
    except EdiscoError as exc:
        violations.append(Violation("traces", str(exc)))
        paths = []

    try:
        zone = parse_zone(bundle.zone_text)
    except EdiscoError as exc:
        violations.append(Violation("zone", str(exc)))
        zone = None

    if zone is not None:
        address_of: dict[str, str] = {}  # SRV target -> its first A address
        for record in zone.srv_records:
            answer = zone.lookup_a(record.target)
            if answer:
                address_of[record.target.lower()] = answer[0].address
            else:
                violations.append(
                    Violation(
                        f"zone:{record.qname}",
                        f"SRV target {record.target} has no A record",
                    )
                )

        # every advertised zone must be reachable through identification,
        # else its SRV records can never attach to a node
        ptr_domains = {
            registrable_domain(r.target).lower() for r in zone.ptr_records
        }
        whois_domains = {d.lower() for d in bundle.whois.values()}
        for zone_name in sorted({r.zone.lower() for r in zone.srv_records}):
            if zone_name not in ptr_domains and zone_name not in whois_domains:
                violations.append(
                    Violation(
                        f"zone:{zone_name}",
                        "no PTR target or whois entry references this zone",
                    )
                )

        for target, address in sorted(address_of.items()):
            if address not in bundle.capacity:
                violations.append(
                    Violation(
                        f"capacity:{address}",
                        f"edge server {target} has no capacity entry",
                    )
                )

    complete = {p.client for p in paths if not p.truncated}
    for client in bundle.clients:
        if client not in complete:
            violations.append(
                Violation(f"clients:{client}", "no complete trace for this client")
            )
    listed = set(bundle.clients)
    for path in paths:
        if path.client not in listed:
            violations.append(
                Violation(f"traces:{path.client}", "trace client not in client list")
            )

    known_subnets = {group_subnet(c) for c in bundle.clients}
    try:
        profiles = load_service_profiles(bundle.services)
    except EdiscoError as exc:
        violations.append(Violation("services", str(exc)))
        profiles = []
    for profile in profiles:
        for subnet in sorted(profile.client_subnets):
            if subnet not in known_subnets:
                violations.append(
                    Violation(
                        f"services:{profile.service_id}",
                        f"references unknown client subnet {subnet}",
                    )
                )

    return violations
