"""HTTP redirection front end for the current round's placements.

Requests for an onloaded service get a 302 pointing at the assigned edge
server, with the remaining round time carried as Cache-Control max-age.
Anything else passes through to the origin (here: a placeholder response).
`RedirectService.resolve` returns the redirect as a plain
``(target_url, ttl_seconds)`` tuple, or None for a pass-through.

`FrontEnd` serves it from one asyncio loop, so an open connection costs
no thread: per connection it reads one request head, writes the reply
`respond` builds for it and closes. A malformed request line or a head
over HEAD_LIMIT gets a 400, a path outside /svc/ a 404, a method other
than GET a 501; a head not complete within READ_TIMEOUT_S is closed
unanswered. No keep-alive.
"""
from __future__ import annotations

import asyncio
import math
import socket
import time

from .errors import MalformedFixtureError
from .placement import PlacementPlan
from .topology import address_int, subnet_sort_key


class RedirectService:
    """The round's rules, {(service_id, integer network): target URL}, and
    resolution: one address_int and one mask per request. Every rule expires
    at the round deadline. Reads are lock-free against the immutable
    (table, mask, deadline) tuple, which an install swaps in whole."""

    def __init__(self, clock=time.time):
        self.clock = clock
        self._rules: tuple[dict[tuple[str, int], str], int, float] = ({}, 0, 0.0)

    def install_rules(
        self, plan: PlacementPlan, round_deadline: float = 0.0
    ) -> dict[tuple[str, int], str]:
        """Build round N's table, one entry per (service, prefix), from the
        plan's coverage, swap it in and return it. All prefixes share the
        length the round's tree picked; an empty table matches nothing, under any mask."""
        table = {}
        lengths = set()
        for assignment in plan.assignments:
            url = f"http://{assignment.server.address}:{assignment.server.port}"
            for prefix in assignment.covered_prefixes:  # checked where the plan was made or read
                lengths.add(int(prefix.partition("/")[2]))
                table[(assignment.service_id, subnet_sort_key(prefix))] = url
        if len(lengths) > 1:
            raise MalformedFixtureError(f"coverage mixes prefix lengths {sorted(lengths)}")
        self._rules = (table, -1 << (32 - lengths.pop()) if lengths else 0, round_deadline)
        return table

    @property
    def rule_count(self) -> int:
        return len(self._rules[0])

    def resolve(self, client: str, service_id: str) -> tuple[str, int] | None:
        """Covered and unexpired -> (target URL, remaining TTL rounded up to
        whole seconds), otherwise None: pass through. When the clock reads
        expires_at exactly the rule is already dead."""
        table, mask, expires_at = self._rules  # one read; never mutated in place
        url = table.get((service_id, address_int(client) & mask))
        if url is None:
            return None
        remaining = expires_at - self.clock()
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


HEAD_LIMIT = 8192  # bytes; a longer request head is answered with a 400
READ_TIMEOUT_S = 10.0  # a head not complete by then is closed without a reply


def _reply(status: str, body: bytes = b"", headers: str = "") -> bytes:
    return (
        f"HTTP/1.0 {status}\r\n{headers}Content-Type: text/plain\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1") + body


_ORIGIN = _reply("200 OK", b"origin placeholder\n")
_BAD_REQUEST = _reply("400 Bad Request", b"malformed or oversized request head\n")
_NOT_FOUND = _reply("404 Not Found", b"unknown path; expected /svc/<service_id>/...\n")
_NOT_IMPLEMENTED = _reply("501 Not Implemented", b"only GET is served\n")


def respond(service: RedirectService, head: bytes, client: str) -> bytes:
    """The whole reply to one request head from `client`: a 302 to the edge
    server a live rule assigns, else the origin's 200; a 404 for any path
    but /svc/<service_id>/..., a 501 for any method but GET and a 400 for a
    request line that is not METHOD TARGET HTTP/x."""
    words = head[: head.find(b"\r\n")].split()
    if len(words) != 3 or not words[2].startswith(b"HTTP/"):
        return _BAD_REQUEST
    if words[0] != b"GET":
        return _NOT_IMPLEMENTED
    path = words[1].decode("latin-1")
    service_id, _, suffix = path[5:].partition("/")
    if not path.startswith("/svc/") or not service_id:
        return _NOT_FOUND
    redirect = service.resolve(client, service_id)
    if redirect is None:
        return _ORIGIN
    url, ttl_seconds = redirect
    return _reply(
        "302 Found", headers=f"Location: {url}/{suffix}\r\nCache-Control: max-age={ttl_seconds}\r\n"
    )


class FrontEnd:
    """Serves one RedirectService on the running asyncio loop; a connection
    holds a task only until it is answered."""

    def __init__(self, service: RedirectService):
        self.service = service
        self._open = set()

    async def start(self, sock: socket.socket) -> "FrontEnd":
        """Serve connections to the bound socket."""
        self._server = await asyncio.start_server(self.handle_connection, sock=sock, limit=HEAD_LIMIT)
        return self

    async def handle_connection(self, reader, writer):
        """Read one CRLF-terminated request head, write the whole reply, close."""
        self._open.add(writer)
        timer = asyncio.get_running_loop().call_later(READ_TIMEOUT_S, writer.close)
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            writer.write(respond(self.service, head, writer.get_extra_info("peername")[0]))
        except asyncio.LimitOverrunError:
            writer.write(_BAD_REQUEST)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the peer left, or the timer or close() closed the connection
        finally:
            timer.cancel()
            writer.close()
            self._open.discard(writer)

    async def close(self):
        """Stop listening, close every open connection and wait for its
        callback to return, so that the loop's shutdown has none to cancel."""
        self._server.close()
        while self._open:
            for writer in self._open:
                writer.close()
            await asyncio.sleep(0)
