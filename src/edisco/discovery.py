"""Map path hops to domains and retrieve `_edge` SRV records per domain.

Each step is one function: `reverse_lookup` identifies one address (PTR
first, whois as the fallback) and `discover_local_edges` asks one domain
for its servers over TCP, then UDP. All DNS goes
through a pluggable resolver so the whole flow runs against a parsed zone
fixture (`ZoneData`) offline, or against a real recursive server via the
wire-format stub.
"""
from __future__ import annotations

import logging
import secrets
import socket
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Protocol

from . import dnswire
from .errors import (
    EdiscoError,
    MalformedFixtureError,
    MalformedSrvError,
    NoServersError,
    WhoisUnreachableError,
)
from .topology import (
    AggregationTree,
    _refused,
    _typed,
    address_int,
    map_in_threads,
    parse_subnets,
    subnet_sort_key,
)
from .zonefile import (
    SRV_RANGES,
    ARecord,
    PtrRecord,
    SrvRecord,
    Transport,
    parse_srv_owner,
    parse_srv_rdata,
    reverse_pointer_name,
)

logger = logging.getLogger(__name__)

# Multi-label public suffixes the two-label default would mangle. Small on
# purpose.
MULTI_LABEL_SUFFIXES = frozenset(
    {"co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "co.jp", "com.br"}
)
EDGE_SERVICE = "edge"  # the SRV service label: _edge._tcp.<domain>
LOOKUP_CONCURRENCY = 8
WHOIS_PORT = 43
WHOIS_MAX_BYTES = 256 * 1024  # a longer registry reply is a failed lookup


class Provenance(str, Enum):
    PTR = "ptr"
    WHOIS = "whois"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class DomainIdentity:
    """What we learned about one address. No domain means unknown, always:
    reverse_lookup, the one producer, gives a domain exactly with PTR or
    WHOIS provenance."""

    address: str
    domain: str | None = None
    provenance: Provenance = Provenance.UNKNOWN


@dataclass(frozen=True, slots=True)
class EdgeServer:
    """One advertised edge server, address already resolved."""

    zone: str
    protocol: Transport
    priority: int
    weight: int
    address: str
    port: int

    @property
    def sort_key(self):
        # priority ascending, heavier weight first, then stable identity
        return (
            self.priority,
            -self.weight,
            self.zone,
            self.protocol.value,
            subnet_sort_key(self.address),
            self.port,
        )

    def to_document(self) -> dict:
        return {
            "zone": self.zone,
            "protocol": self.protocol.value,
            "priority": self.priority,
            "weight": self.weight,
            "address": self.address,
            "port": self.port,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "EdgeServer":
        """Raises MalformedFixtureError for a missing, mistyped or out-of-range
        key, an unknown protocol or an address that is not IPv4."""
        where = "edge server"
        with _refused(where):
            server = cls(
                zone=_typed(doc, "zone", str, where),
                protocol=Transport(_typed(doc, "protocol", str, where)),
                priority=_typed(doc, "priority", int, where),
                weight=_typed(doc, "weight", int, where),
                address=_typed(doc, "address", str, where),
                port=_typed(doc, "port", int, where),
            )
            for key, (low, high) in SRV_RANGES.items():
                if not low <= getattr(server, key) <= high:
                    raise ValueError(f"{key!r} out of range {low}..{high}")
            address_int(server.address)
        return server


class Resolver(Protocol):
    def lookup_ptr(self, address: str) -> PtrRecord | None: ...

    def lookup_a(self, name: str) -> list[ARecord]: ...

    def lookup_srv(self, qname: str) -> list[SrvRecord]: ...


class StubResolver:
    """Wire-format stub that asks its recursive servers in order, with
    random transaction ids (RFC 5452). It keeps no answers: the recursive
    server caches them by TTL. Thread-safe."""

    def __init__(self, servers: list[str] | None = None):
        self.servers = servers or dnswire.resolv_nameservers()

    def _query(self, qname: str, qtype: int) -> list:
        """The first answer data a server gives; the last error when none does."""
        error: Exception | None = None
        for server in self.servers:
            try:
                return dnswire.query(server, qname, qtype, txid=secrets.randbelow(0x10000))
            except (EdiscoError, OSError) as exc:  # try the next server
                error = exc
        raise error  # type: ignore[misc]  # servers is never empty

    def lookup_ptr(self, address: str) -> PtrRecord | None:
        """The first answer that names a host; an answer naming the root
        names no domain and is skipped."""
        for target in self._query(reverse_pointer_name(address), dnswire.TYPE_PTR):
            if target:
                return PtrRecord(address=address, target=target)
        return None

    def lookup_a(self, name: str) -> list[ARecord]:
        return [ARecord(name=name, address=a) for a in self._query(name, dnswire.TYPE_A)]

    def lookup_srv(self, qname: str) -> list[SrvRecord]:
        """Raises MalformedSrvError for a qname that is not _service._proto.zone
        before any packet is sent; drops each answer parse_srv_rdata refuses."""
        service, protocol, zone = parse_srv_owner(qname)
        records = []
        for rdata in self._query(qname, dnswire.TYPE_SRV):
            try:
                records.append(SrvRecord(service, protocol, zone, *parse_srv_rdata(rdata)))
            except MalformedSrvError:  # target "." or port 0
                continue
        return records


def registrable_domain(name: str) -> str:
    """Last two labels of a host name, three when the tail is a known
    multi-label public suffix (router1.isp.co.uk -> isp.co.uk).

    Case is preserved; suffix matching is case-insensitive.
    """
    labels = name.rstrip(".").split(".")
    if len(labels) <= 2:
        return ".".join(labels)
    if ".".join(labels[-2:]).lower() in MULTI_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


class WhoisService(Protocol):
    def domains_for(self, address: str) -> list[str]: ...


class FixtureWhois:
    """Registry fixture: JSON map of IPv4 prefix to registrant domain.

    Each domain is checked at load to be a name DNS can carry, the zone's
    rule, so no domain is empty. Keyed by (prefix length, network value); a
    lookup masks the address's value once per prefix length present in the
    table."""

    def __init__(self, prefixes: dict[str, str]):
        if not isinstance(prefixes, dict):
            raise MalformedFixtureError("whois fixture must be a JSON object")
        with _refused("whois fixture"):
            parse_subnets(list(prefixes))
        self.networks: dict[tuple[int, int], str] = {}
        for prefix, domain in prefixes.items():
            if not isinstance(domain, str):
                raise MalformedFixtureError(f"whois fixture: {prefix!r}: domain is not a string")
            with _refused(f"whois fixture: {prefix!r}"):
                dnswire.name_labels(domain)
            self.networks[int(prefix.partition("/")[2]), subnet_sort_key(prefix)] = domain
        self.masks = [(n, -1 << (32 - n)) for n in {n for n, _ in self.networks}]

    def domains_for(self, address: str) -> list[str]:
        value = subnet_sort_key(address)
        found = (self.networks.get((n, value & mask)) for n, mask in self.masks)
        return sorted({domain for domain in found if domain is not None})


class LiveWhois:
    """Plain port-43 whois client.

    Registry answers are free text; the best portable signal for a
    registrant domain is the mail domain of the technical/abuse contacts,
    plus explicit `domain:` attributes where present.
    """

    def __init__(self, server: str = "whois.arin.net", timeout: float = 5.0):
        self.server = server
        self.timeout = timeout

    def _raw_query(self, address: str) -> str:
        """The reply text; raises WhoisUnreachableError when the server
        cannot be reached, sends more than WHOIS_MAX_BYTES or has not
        finished within `timeout` seconds."""
        chunks = []
        size = 0
        deadline = time.monotonic() + self.timeout
        try:
            with socket.create_connection((self.server, WHOIS_PORT), timeout=self.timeout) as sock:
                sock.sendall(address.encode() + b"\r\n")
                while True:
                    sock.settimeout(dnswire.time_left(deadline))
                    if not (chunk := sock.recv(4096)):
                        break
                    size += len(chunk)
                    if size > WHOIS_MAX_BYTES:
                        raise WhoisUnreachableError(f"{self.server}: reply too long")
                    chunks.append(chunk)
        except OSError as exc:
            raise WhoisUnreachableError(f"{self.server}: {exc}") from None
        return b"".join(chunks).decode(errors="replace")

    def domains_for(self, address: str) -> list[str]:
        domains = set()
        for line in self._raw_query(address).splitlines():
            key, _, value = line.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if not value:
                continue
            if "@" in value and ("email" in key or "mailbox" in key or key == "e-mail"):
                domains.add(registrable_domain(value.rsplit("@", 1)[1]))
            elif key == "domain":
                domains.add(registrable_domain(value))
        # `noc@` and `noc@isp..test` name no domain: one of its labels is empty
        return sorted(d for d in domains if "" not in d.split("."))


def reverse_lookup(
    address: str, resolver: Resolver, whois: WhoisService | None = None
) -> DomainIdentity:
    """PTR first; the registry when the resolver has nothing. An ambiguous
    registry answer resolves to the lexicographically smallest domain, with
    a warning."""
    record = resolver.lookup_ptr(address)
    if record is not None:
        return DomainIdentity(
            address=address,
            domain=registrable_domain(record.target),
            provenance=Provenance.PTR,
        )
    domains = whois.domains_for(address) if whois is not None else []
    if not domains:
        return DomainIdentity(address=address)
    if len(domains) > 1:
        logger.warning(
            "whois for %s is ambiguous (%s); using %s",
            address,
            ", ".join(domains),
            domains[0],
        )
    return DomainIdentity(
        address=address, domain=domains[0], provenance=Provenance.WHOIS
    )


def identify_addresses(
    addresses: Iterable[str],
    resolver: Resolver,
    whois: WhoisService | None = None,
) -> dict[str, DomainIdentity]:
    """Concurrent reverse_lookup over many addresses, keyed in address order."""
    unique = sorted(set(addresses), key=socket.inet_aton)
    identities = map_in_threads(
        lambda address: reverse_lookup(address, resolver, whois), unique, LOOKUP_CONCURRENCY
    )
    return {identity.address: identity for identity in identities}


def discover_local_edges(own_domain: str, resolver: Resolver) -> list[EdgeServer]:
    """The `_edge` servers one domain advertises over TCP, then UDP, each
    target resolved to an address, in sort_key order. Targets without an A
    record are dropped loudly. An empty result is a normal outcome."""
    if not own_domain:
        raise ValueError("domain must be non-empty")
    servers = []
    for protocol in Transport:
        for record in resolver.lookup_srv(f"_{EDGE_SERVICE}._{protocol.value}.{own_domain}"):
            a_records = resolver.lookup_a(record.target)
            if not a_records:
                logger.warning(
                    "SRV target %s (zone %s) has no A record; dropped",
                    record.target,
                    record.zone,
                )
                continue
            servers.append(
                EdgeServer(
                    zone=record.zone,
                    protocol=record.protocol,
                    priority=record.priority,
                    weight=record.weight,
                    address=min(a.address for a in a_records),
                    port=record.port,
                )
            )
    return sorted(servers, key=lambda s: s.sort_key)


def select_server(servers: list[EdgeServer], rng) -> EdgeServer:
    """Pick one server: lowest priority class, weight-proportional within it.

    Zero-weight servers are only eligible when the whole class has weight 0
    (then the pick is uniform). Deterministic for a seeded rng.
    """
    if not servers:
        raise NoServersError("no servers to select from")
    best = min(s.priority for s in servers)
    group = [s for s in servers if s.priority == best]
    total = sum(s.weight for s in group)
    if total == 0:
        return group[rng.randrange(len(group))]
    point = rng.randrange(total)
    acc = 0
    for server in group:
        acc += server.weight
        if point < acc:
            return server
    return group[-1]  # unreachable; randrange is < total


def annotate_tree(
    tree: AggregationTree,
    identities: dict[str, DomainIdentity],
    edges: dict[str, list[EdgeServer]],
) -> AggregationTree:
    """Attach domains and edge servers to every node.

    Rebuilt from scratch on each call, so re-annotating with the same maps
    changes nothing. Structure and centrality are never touched.
    """
    for node in tree.nodes.values():
        domains = set()
        for member in node.member_addresses:
            identity = identities.get(member)
            if identity is not None and identity.domain:
                domains.add(identity.domain)
        node.domains = domains
        merged: set[EdgeServer] = set()
        for domain in domains:
            merged.update(edges.get(domain, []))
        node.edge_servers = sorted(merged, key=lambda s: s.sort_key)
    return tree
