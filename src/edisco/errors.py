"""Exception types shared across the package.

Operational failures raise an :class:`EdiscoError` subclass; the CLI maps
these to exit code 1. Programming errors (bad arguments to library calls)
stay plain ValueError/TypeError.
"""


class EdiscoError(Exception):
    """Base class for operational errors."""


class EmptyInputError(EdiscoError):
    """An operation that requires at least one input item received none."""


class EmptyFixtureError(EdiscoError):
    """A fixture document was syntactically valid but contained no entries."""


class MalformedFixtureError(EdiscoError):
    """A fixture document violates its schema; message cites the location."""


class MalformedZoneError(EdiscoError):
    """A zone-file line could not be parsed; message cites the line."""


class MalformedSrvError(MalformedZoneError):
    """An SRV line is invalid. `field` is the 1-based position of the bad
    field in ``_service._proto.zone. TTL IN SRV priority weight port target``
    when identifiable: 1 (service), 2 (protocol or zone), 6 (priority),
    7 (weight), 8 (port) or 9 (target)."""

    def __init__(self, message: str, field: int | None = None):
        super().__init__(message)
        self.field = field


class ResolverUnreachableError(EdiscoError):
    """The name-resolution service could not be reached (distinct from
    NXDOMAIN, which is a normal empty result)."""


class MalformedNameError(EdiscoError):
    """A name cannot be asked for on the wire: it has an empty, over-long or
    non-ASCII label."""


class WhoisUnreachableError(EdiscoError):
    """The whois registry service could not be reached."""


class ProbePermissionError(EdiscoError):
    """Raw-socket probing was refused by the operating system."""


class ProbeTimeoutError(EdiscoError):
    """No hop on the path answered any probe at all."""


class NoServersError(EdiscoError):
    """Server selection was asked to choose from an empty list."""


class RoundAbortedError(EdiscoError):
    """A protocol round obtained zero usable paths and was abandoned."""


class InvalidPeriodError(EdiscoError):
    """The scheduling period is below the configured minimum."""


class InvalidScenarioError(EdiscoError):
    """A scenario generator spec is out of range or unsatisfiable."""
