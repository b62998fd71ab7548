"""DNS record types and the zone-fixture text format.

Handles the three record types the discovery flow needs: SRV lines in the
``_edge._tcp.zone. TTL IN SRV priority weight port target`` layout, A lines,
and PTR lines under in-addr.arpa. Zone text is line oriented; ``;`` starts a
comment and ``$ORIGIN`` qualifies relative names. IN is the only class the
grammar takes, so no record stores its class. Each line's TTL is checked
(ASCII digits, at most MAX_TTL, exactly one) but not kept: caching is the
recursive server's business, and no round reads a TTL. Rendered, and so
generated, lines carry RENDERED_TTL, 86400. A parsed zone (`ZoneData`) is also the resolver that
offline rounds query.

Every SRV record, from a zone line or a live DNS answer, is read by
`parse_srv_owner` and `parse_srv_rdata`. So the live stub drops an answer
with target ``.`` (RFC 2782: not available) or port 0, and refuses a qname
that is not ``_service._proto.zone`` before it sends a packet.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dnswire import name_labels
from .errors import MalformedSrvError, MalformedZoneError
from .topology import address_int

# SRV field positions in ``_service._proto.zone. TTL IN SRV priority weight
# port target``, used in malformed-srv diagnostics. The TTL, class and type
# (3 to 5) are read for every record type, and their errors cite no field.
FIELD_SERVICE = 1
FIELD_PROTOCOL_NAME = 2
FIELD_PRIORITY = 6
FIELD_WEIGHT = 7
FIELD_PORT = 8
FIELD_TARGET = 9

MAX_TTL = 2**31 - 1  # RFC 2181 section 8
RENDERED_TTL = 86400  # the TTL of every line render_*_line writes
# (low, high) of each SRV number (RFC 2782), for every reader of SRV data
SRV_RANGES = {"priority": (0, 65535), "weight": (0, 65535), "port": (1, 65535)}


class Transport(str, Enum):
    TCP = "tcp"
    UDP = "udp"


@dataclass(frozen=True, slots=True)
class SrvRecord:
    """One SRV line. Service and protocol are stored bare; the leading
    underscores exist only in text form."""

    service: str
    protocol: Transport
    zone: str
    priority: int
    weight: int
    port: int
    target: str

    @property
    def qname(self) -> str:
        return f"_{self.service}._{self.protocol.value}.{self.zone}"


@dataclass(frozen=True, slots=True)
class ARecord:
    name: str
    address: str


@dataclass(frozen=True, slots=True)
class PtrRecord:
    address: str
    target: str


def _take(tokens: list | tuple, idx: int, field: int, what: str):
    if idx >= len(tokens):
        raise MalformedSrvError(f"missing {what}", field)
    return tokens[idx]


def _is_decimal(token: str) -> bool:
    """ASCII digits only: int() also takes '+1', '1_0' and '\u0663', and
    str.isdigit alone takes '\u00b2'."""
    return token.isascii() and token.isdigit()


def _take_int(tokens: list | tuple, idx: int, field: int, what: str, low: int, high: int) -> int:
    token = _take(tokens, idx, field, what)
    if not _is_decimal(str(token)):  # str(): a decoded DNS answer holds ints
        raise MalformedSrvError(f"{what} is not an integer: {token!r}", field)
    value = int(token)
    if not low <= value <= high:
        raise MalformedSrvError(f"{what} out of range {low}..{high}: {value}", field)
    return value


def parse_srv_owner(owner: str) -> tuple[str, Transport, str]:
    """(service, transport, zone) of an ``_service._proto.zone`` name, bare
    and without the trailing dot. Raises MalformedSrvError for field 1 or 2."""
    name = owner.removesuffix(".")
    if not name.startswith("_"):
        raise MalformedSrvError(
            f"service label must start with '_': {name!r}", FIELD_SERVICE
        )
    service, _, proto_zone = name.partition("._")
    service = service.lstrip("_")
    if not service:
        raise MalformedSrvError("empty service label", FIELD_SERVICE)
    proto_label, _, zone = proto_zone.partition(".")
    try:
        protocol = Transport(proto_label.lower())
    except ValueError:
        raise MalformedSrvError(
            f"protocol must be _tcp or _udp: {name!r}", FIELD_PROTOCOL_NAME
        ) from None
    zone = zone.removesuffix(".")
    if not zone:
        raise MalformedSrvError("missing zone name", FIELD_PROTOCOL_NAME)
    return service, protocol, zone


def parse_srv_rdata(values: list[str] | tuple[int, int, int, str]) -> tuple[int, int, int, str]:
    """(priority, weight, port, target) of the tokens of a zone line's rdata,
    or of the numbers and name a DNS answer decoded. The target loses its
    trailing dot. Raises MalformedSrvError for fields 6 to 9, or without a
    field for trailing junk. Values are taken in order, so a line missing
    its port fails at field 8 whether its target is there or not."""
    priority = _take_int(values, 0, FIELD_PRIORITY, "priority", *SRV_RANGES["priority"])
    weight = _take_int(values, 1, FIELD_WEIGHT, "weight", *SRV_RANGES["weight"])
    port = _take_int(values, 2, FIELD_PORT, "port", *SRV_RANGES["port"])
    target = _take(values, 3, FIELD_TARGET, "target").removesuffix(".")
    if not target:
        raise MalformedSrvError("empty target", FIELD_TARGET)
    if len(values) > 4:
        raise MalformedSrvError(f"trailing junk: {list(values[4:])}", None)
    return priority, weight, port, target


def render_srv_line(record: SrvRecord) -> str:
    return (
        f"{record.qname}. {RENDERED_TTL} IN SRV "
        f"{record.priority} {record.weight} {record.port} {record.target}."
    )


def render_a_line(record: ARecord) -> str:
    return f"{record.name}. {RENDERED_TTL} IN A {record.address}"


def render_ptr_line(record: PtrRecord) -> str:
    return f"{reverse_pointer_name(record.address)}. {RENDERED_TTL} IN PTR {record.target}."


def reverse_pointer_name(address: str) -> str:
    """d.c.b.a.in-addr.arpa for a.b.c.d; ValueError if it is no address."""
    address_int(address)
    return ".".join(reversed(address.split("."))) + ".in-addr.arpa"


def _address_from_reverse_name(owner: str) -> str:
    labels = owner.removesuffix(".").lower().split(".")
    if len(labels) == 6 and labels[-2:] == ["in-addr", "arpa"]:
        address = ".".join(reversed(labels[:4]))
        try:
            address_int(address)
            return address
        except ValueError:
            pass
    raise MalformedZoneError(f"PTR owner is not a /32 in-addr.arpa name: {owner!r}")


@dataclass
class ZoneData:
    """Parsed zone fixture, and the Resolver that answers from it.

    Each lookup is one dict access. Names match without their trailing dot
    and without case; the first PTR record for an address wins; A and SRV
    answers keep file order, in a fresh list per call.
    """

    srv_records: tuple[SrvRecord, ...]
    a_records: tuple[ARecord, ...]
    ptr_records: tuple[PtrRecord, ...]

    def __post_init__(self):
        self._srv: dict[str, list[SrvRecord]] = {}
        for r in self.srv_records:
            self._srv.setdefault(r.qname.lower(), []).append(r)
        self._a: dict[str, list[ARecord]] = {}
        for r in self.a_records:
            self._a.setdefault(r.name.lower(), []).append(r)
        self._ptr: dict[str, PtrRecord] = {}
        for r in self.ptr_records:
            self._ptr.setdefault(r.address, r)

    def lookup_ptr(self, address: str) -> PtrRecord | None:
        return self._ptr.get(address)

    def lookup_a(self, name: str) -> list[ARecord]:
        return list(self._a.get(name.removesuffix(".").lower(), ()))

    def lookup_srv(self, qname: str) -> list[SrvRecord]:
        return list(self._srv.get(qname.removesuffix(".").lower(), ()))


def _checked(name: str) -> str:
    """`name` without its trailing dot, or MalformedZoneError when DNS
    cannot carry it, so a zone holds no name a live lookup could not ask for."""
    try:
        name_labels(name)
    except ValueError as exc:
        raise MalformedZoneError(str(exc)) from None
    return name.removesuffix(".")


def _qualify(name: str, origin: str | None) -> str:
    if name.endswith("."):
        return _checked(name)
    if name == "@":
        if origin is None:
            raise MalformedZoneError("'@' with no $ORIGIN in effect")
        return origin
    if origin is None:
        raise MalformedZoneError(f"relative name {name!r} with no $ORIGIN in effect")
    return _checked(f"{name}.{origin}")


def parse_zone(text: str) -> ZoneData:
    """Parse zone-fixture text into records.

    Supports SRV, A, and PTR lines, comments, and $ORIGIN. Anything else is
    a malformed-zone error citing the line number.
    """
    srv: list[SrvRecord] = []
    a: list[ARecord] = []
    ptr: list[PtrRecord] = []
    origin: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0].upper() == "$ORIGIN":
                if len(tokens) != 2:
                    raise MalformedZoneError("$ORIGIN takes one name")
                origin = _checked(tokens[1])
                continue
            if tokens[0].startswith("$"):
                raise MalformedZoneError(f"unsupported directive {tokens[0]}")
            record = _parse_record_line(tokens, origin)
        except MalformedZoneError as exc:  # a MalformedSrvError keeps its type and field
            exc.args = (f"line {line_no}: {exc}",)
            raise
        if isinstance(record, SrvRecord):
            srv.append(record)
        elif isinstance(record, ARecord):
            a.append(record)
        else:
            ptr.append(record)
    return ZoneData(srv_records=tuple(srv), a_records=tuple(a), ptr_records=tuple(ptr))


def _parse_record_line(tokens: list[str], origin: str | None):
    if len(tokens) < 4:
        raise MalformedZoneError(f"too few fields: {' '.join(tokens)!r}")
    owner = tokens[0]
    rest = tokens[1:]
    # TTL and class may appear in either order. The TTL is checked, not kept.
    ttl: int | None = None
    has_class = False  # IN, the only class taken
    while rest and (_is_decimal(rest[0]) or rest[0].upper() == "IN"):
        token = rest.pop(0)
        if _is_decimal(token):
            if ttl is not None:
                raise MalformedZoneError("duplicate TTL")
            ttl = int(token)
        else:
            if has_class:
                raise MalformedZoneError("duplicate class")
            has_class = True
    if ttl is None:
        raise MalformedZoneError("missing TTL")
    if ttl > MAX_TTL:
        raise MalformedZoneError(f"TTL out of range 0..{MAX_TTL}: {ttl}")
    if not has_class:
        raise MalformedZoneError("missing class")
    if not rest:
        raise MalformedZoneError("missing record type")
    rtype = rest.pop(0).upper()
    if rtype == "SRV":
        service, protocol, zone = parse_srv_owner(_qualify(owner, origin))
        priority, weight, port, _ = parse_srv_rdata(rest)  # target "." fails here, at field 9
        target = _qualify(rest[3], origin)
        return SrvRecord(service, protocol, zone, priority, weight, port, target)
    if rtype == "A":
        if len(rest) != 1:
            raise MalformedZoneError(f"A rdata must be one address, got {rest}")
        address = rest[0]
        try:
            address_int(address)
        except ValueError:
            raise MalformedZoneError(f"bad A address {address!r}") from None
        return ARecord(name=_qualify(owner, origin), address=address)
    if rtype == "PTR":
        if len(rest) != 1:
            raise MalformedZoneError(f"PTR rdata must be one name, got {rest}")
        address = _address_from_reverse_name(owner)
        return PtrRecord(address=address, target=_qualify(rest[0], origin))
    raise MalformedZoneError(f"unsupported record type {rtype!r}")
