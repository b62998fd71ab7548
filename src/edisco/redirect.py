"""HTTP redirection front end for the current round's placements.

Requests for an onloaded service get a 302 pointing at the assigned edge
server, with the remaining round time carried as Cache-Control max-age.
Anything else passes through to the origin (here: a placeholder response).
`RedirectService.resolve` returns the redirect as a plain
``(target_url, ttl_seconds)`` tuple, or None for a pass-through.
"""
from __future__ import annotations

import logging
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import MalformedFixtureError
from .placement import PlacementPlan
from .topology import address_int

logger = logging.getLogger(__name__)


class RedirectService:
    """The round's rules, {(service_id, integer network): target URL}, and
    resolution: one address_int and one mask per request. Every rule expires
    at the round deadline. Reads are lock-free against the immutable
    (table, mask, deadline) tuple, which an install swaps in whole."""

    def __init__(self, clock=time.time):
        self.clock = clock
        self._rules: tuple[dict[tuple[str, int], str], int, float] = ({}, -1 << 8, 0.0)

    def install_rules(
        self, plan: PlacementPlan, round_deadline: float = 0.0
    ) -> dict[tuple[str, int], str]:
        """Build round N's table, one entry per (service, prefix), from the
        plan's coverage, swap it in and return it. All prefixes share the
        length the round's tree picked; an empty table may use any."""
        table = {}
        lengths = set()
        for assignment in plan.assignments:
            url = f"http://{assignment.server.address}:{assignment.server.port}"
            for prefix in assignment.covered_prefixes:
                address, _, length = prefix.partition("/")
                try:
                    lengths.add(int(length))
                except ValueError:
                    raise MalformedFixtureError("coverage prefix without a length") from None
                try:
                    table[(assignment.service_id, address_int(address))] = url
                except ValueError:
                    raise MalformedFixtureError(f"coverage prefix {prefix!r} is not IPv4") from None
        if len(lengths) > 1:
            raise MalformedFixtureError(f"coverage mixes prefix lengths {sorted(lengths)}")
        self._rules = (table, -1 << (32 - (lengths.pop() if lengths else 24)), round_deadline)
        return table

    @property
    def rule_count(self) -> int:
        return len(self._rules[0])

    def resolve(
        self, client: str, service_id: str, now: float | None = None
    ) -> tuple[str, int] | None:
        """Covered and unexpired -> (target URL, remaining TTL rounded up to
        whole seconds), otherwise None: pass through. At now = expires_at
        exactly the rule is already dead."""
        table, mask, expires_at = self._rules  # one read; never mutated in place
        url = table.get((service_id, address_int(client) & mask))
        if url is None:
            return None
        if now is None:
            now = self.clock()
        remaining = expires_at - now
        if remaining <= 0:
            return None
        return url, math.ceil(remaining)


def rules_from_plan_document(
    doc: dict, round_deadline: float, clock=time.time
) -> RedirectService:
    """Stand up a RedirectService from a serialized plan alone."""
    service = RedirectService(clock=clock)
    service.install_rules(PlacementPlan.from_document(doc), round_deadline=round_deadline)
    return service


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 - http.server API
        parts = self.path.split("/", 3)
        if len(parts) < 3 or parts[1] != "svc" or not parts[2]:
            self.send_error(404, "unknown path; expected /svc/<service_id>/...")
            return
        service_id = parts[2]
        suffix = parts[3] if len(parts) > 3 else ""
        redirect = self.server.redirect_service.resolve(self.client_address[0], service_id)
        if redirect is not None:
            url, ttl_seconds = redirect
            self.send_response(302)
            self.send_header("Location", f"{url}/{suffix}")
            self.send_header("Cache-Control", f"max-age={ttl_seconds}")
            self.end_headers()
        else:
            body = b"origin placeholder\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    def log_message(self, fmt, *args):
        logger.debug("http: " + fmt, *args)


def make_http_server(
    service: RedirectService, listen: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bound but not yet serving: call serve_forever(), then server_close()."""
    server = ThreadingHTTPServer((listen, port), _Handler)
    server.redirect_service = service
    return server
