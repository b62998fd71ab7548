"""The per-item records: frozen, slotted, compared and hashed by field."""
from __future__ import annotations

import dataclasses

import pytest

from edisco.discovery import DomainIdentity, EdgeServer, Provenance
from edisco.topology import Hop, ProbedPath
from edisco.zonefile import ARecord, PtrRecord, SrvRecord, Transport

RECORDS = [
    lambda: Hop(address="10.1.0.1", rtt_ms=1.5),
    lambda: ProbedPath(client="10.1.0.1", hops=(Hop(address="10.1.0.1", rtt_ms=1.5),)),
    lambda: DomainIdentity(address="10.1.0.1", domain="domainA.com", provenance=Provenance.PTR),
    lambda: EdgeServer("domainA.com", Transport.TCP, 10, 30, "192.168.121.30", 5060),
    lambda: SrvRecord("edge", Transport.TCP, "domainA.com", 10, 30, 5060, "serverA.domainA.com"),
    lambda: ARecord("serverA.domainA.com", "192.168.121.30"),
    lambda: PtrRecord("192.168.121.30", "serverA.domainA.com"),
]


@pytest.mark.parametrize("make", RECORDS, ids=lambda make: type(make()).__name__)
def test_record_is_frozen_slotted_and_compared_by_field(make):
    record = make()
    assert not hasattr(record, "__dict__")
    fields = dataclasses.fields(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, fields[0].name, None)
    twin = make()
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)
    values = {f.name: getattr(record, f.name) for f in fields if f.init}
    first = next(f.name for f in fields if f.init and f.name != "hops")
    changed = dataclasses.replace(record, **{**values, first: _other(values[first])})
    assert changed != record
    assert hash(changed) != hash(record)


def _other(value):
    """A value of the same kind that differs from `value`."""
    if isinstance(value, str):
        # still an IPv4 address where the field holds one
        return "10.1.0.2" if value.startswith(("10.", "192.")) else value + "x"
    return value + 1
