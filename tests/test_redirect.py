from __future__ import annotations

import http.client
import math
import socket
import threading
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edisco.discovery import EdgeServer
from edisco.errors import MalformedFixtureError
from edisco.placement import Assignment, PlacementPlan
import edisco.redirect
from edisco.redirect import HEAD_LIMIT, RedirectService, rules_from_plan_document
from edisco.topology import address_int, group_subnet
from edisco.zonefile import Transport

from conftest import FrontEndThread, mutated, small_bundle


def edge(address="10.2.0.30", port=8080):
    return EdgeServer(
        zone="edgeco.test",
        protocol=Transport.TCP,
        priority=10,
        weight=10,
        address=address,
        port=port,
    )


class Clock:
    """A settable clock: it reads `now` until a test sets another time."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def plan_with(*assignments) -> PlacementPlan:
    return PlacementPlan(round_id=1, assignments=list(assignments))


def assignment(service_id="svc-video", prefixes=("172.16.0.0/24", "172.16.1.0/24")):
    return Assignment(
        service_id=service_id,
        server=edge(),
        node_subnet="10.2.0.0/24",
        covered_prefixes=tuple(prefixes),
    )


def test_one_rule_per_assignment_prefix_pair():
    service = RedirectService(clock=lambda: 0.0)
    table = service.install_rules(plan_with(assignment()), round_deadline=300.0)
    assert len(table) == 2
    assert {k[1] for k in table} == {address_int("172.16.0.0"), address_int("172.16.1.0")}
    assert set(table.values()) == {"http://10.2.0.30:8080"}


def test_empty_plan_all_pass_through():
    service = RedirectService(clock=lambda: 0.0)
    service.install_rules(plan_with(), round_deadline=300.0)
    assert service.resolve("172.16.0.9", "svc-video") is None


def test_pass_through_is_one_shared_decision():
    clock = Clock()
    service = RedirectService(clock=clock)
    service.install_rules(plan_with(assignment()), round_deadline=300.0)
    assert service.resolve("172.16.9.9", "svc-video") is None
    clock.now = 300.0
    assert service.resolve("172.16.0.9", "svc-video") is None


def test_reinstall_same_plan_identical_table():
    service = RedirectService(clock=lambda: 0.0)
    a = service.install_rules(plan_with(assignment()), round_deadline=300.0)
    b = service.install_rules(plan_with(assignment()), round_deadline=300.0)
    assert a == b


def test_covered_client_gets_redirect_with_remaining_ttl():
    service = RedirectService(clock=Clock(120.0))
    service.install_rules(plan_with(assignment()), round_deadline=300.0)
    redirect = service.resolve("172.16.0.9", "svc-video")
    assert redirect is not None
    url, ttl_seconds = redirect
    assert url == "http://10.2.0.30:8080"
    assert ttl_seconds == 180


def test_uncovered_subnet_passes_through():
    service = RedirectService(clock=Clock())
    service.install_rules(plan_with(assignment()), round_deadline=300.0)
    assert service.resolve("172.16.9.9", "svc-video") is None


def test_unknown_service_passes_through():
    service = RedirectService(clock=Clock())
    service.install_rules(plan_with(assignment()), round_deadline=300.0)
    assert service.resolve("172.16.0.9", "svc-other") is None


def test_expiry_boundary_is_pass_through():
    clock = Clock(300.0)
    service = RedirectService(clock=clock)
    service.install_rules(plan_with(assignment()), round_deadline=300.0)
    assert service.resolve("172.16.0.9", "svc-video") is None
    clock.now = 301.0
    assert service.resolve("172.16.0.9", "svc-video") is None


def test_ttl_never_nonpositive():
    service = RedirectService(clock=Clock(299.6))
    service.install_rules(plan_with(assignment()), round_deadline=300.0)
    # just inside the deadline: ceil keeps the ttl at 1, never 0
    _, ttl_seconds = service.resolve("172.16.0.9", "svc-video")
    assert ttl_seconds == 1


def test_new_table_replaces_old_completely():
    service = RedirectService(clock=Clock())
    service.install_rules(plan_with(assignment("svc-a")), round_deadline=300.0)
    service.install_rules(
        plan_with(assignment("svc-b", prefixes=("172.16.5.0/24",))), round_deadline=600.0
    )
    assert service.resolve("172.16.0.9", "svc-a") is None
    assert service.resolve("172.16.5.9", "svc-b") is not None


def test_concurrent_resolves_see_whole_tables_only():
    service = RedirectService(clock=Clock())
    plan_a = plan_with(
        Assignment("svc-x", edge("10.1.0.1", 81), "10.1.0.0/24", ("172.16.0.0/24",))
    )
    plan_b = plan_with(
        Assignment("svc-x", edge("10.2.0.2", 82), "10.2.0.0/24", ("172.16.0.0/24",))
    )
    legal = {"http://10.1.0.1:81", "http://10.2.0.2:82"}
    seen = set()
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            redirect = service.resolve("172.16.0.5", "svc-x")
            if redirect is not None:
                seen.add(redirect[0])

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for _ in range(300):
        service.install_rules(plan_a, round_deadline=100.0)
        service.install_rules(plan_b, round_deadline=100.0)
    deadline = time.time() + 2.0
    while not seen and time.time() < deadline:
        time.sleep(0.01)
    stop.set()
    for t in threads:
        t.join()
    assert seen <= legal
    assert seen  # readers actually observed installed tables


def test_rules_from_plan_document_round_trip():
    plan = plan_with(assignment())
    service = rules_from_plan_document(plan.to_document(), round_deadline=300.0, clock=Clock(10.0))
    assert service.resolve("172.16.1.7", "svc-video") is not None


@pytest.mark.parametrize("prefixes", [("172.16.0.0/24", "172.16.2.0/23")])
def test_coverage_must_share_one_prefix_length(prefixes):
    service = RedirectService(clock=lambda: 0.0)
    service.install_rules(plan_with(assignment()), round_deadline=300.0)
    with pytest.raises(MalformedFixtureError):
        service.install_rules(plan_with(assignment(prefixes=prefixes)), round_deadline=300.0)
    assert service.rule_count == 2  # the old table stays


@pytest.mark.parametrize(
    "coverage",
    [["172.16.0.0/24", "172.17.0.0/16"], ["172.16.0.0"], ["x/24"], ["172.16.0.1/24"]],
    ids=["mixed-lengths", "without-length", "not-ipv4", "host-bits-set"],
)
def test_plan_document_coverage_is_refused_where_it_is_read(coverage):
    """A plan document's coverage is checked as it is read; only the shared
    prefix length is left for install_rules."""
    document = plan_with(assignment()).to_document()
    document["assignments"][0]["coverage"] = coverage
    with pytest.raises(MalformedFixtureError):
        rules_from_plan_document(document, round_deadline=300.0)


def string_keyed_resolve(plan, deadline, client, service_id, now):
    """RedirectService.resolve as it was with (service_id, prefix text)
    keys, over a table built from the plan itself."""
    table = {
        (a.service_id, prefix): f"http://{a.server.address}:{a.server.port}"
        for a in plan.assignments
        for prefix in a.covered_prefixes
    }
    lengths = {int(prefix.partition("/")[2]) for _, prefix in table}
    url = table.get((service_id, group_subnet(client, lengths.pop() if lengths else 24)))
    if url is None:
        return None
    remaining = deadline - now
    if remaining <= 0:
        return None
    return url, math.ceil(remaining)


def int_to_address(packed: int) -> str:
    return socket.inet_ntoa(packed.to_bytes(4, "big"))


SERVICE_IDS = st.sampled_from(["svc-a", "svc-b", "svc-c"])


@given(
    length=st.sampled_from([23, 24]) | st.integers(0, 32),
    covered=st.lists(st.tuples(SERVICE_IDS, st.integers(0, 2**32 - 1)), max_size=6),
    requests=st.lists(
        st.tuples(SERVICE_IDS, st.integers(0, 5), st.integers(0, 2**32 - 1), st.integers(0, 1023)),
        min_size=1,
        max_size=10,
    ),
    deadline=st.floats(0, 1e6),
    left=st.sampled_from([300.0, 1.0, 0.4, 0.0, -1.0]) | st.floats(-1e3, 1e3),
)
@example(length=23, covered=[("svc-a", 0xAC100100)], requests=[("svc-a", 0, 0, 0x1FF)], deadline=300.0, left=0.0)
def test_integer_keys_resolve_like_prefix_text_keys(length, covered, requests, deadline, left):
    """Requests come from random addresses and from near the covered ones
    (low bits flipped), `left` seconds before the rules expire: before, at
    and after expiry."""
    by_service = {}
    for service_id, packed in covered:
        by_service.setdefault(service_id, []).append(group_subnet(int_to_address(packed), length))
    plan = plan_with(*(assignment(sid, prefixes) for sid, prefixes in sorted(by_service.items())))
    now = deadline - left
    service = RedirectService(clock=Clock(now))
    service.install_rules(plan, round_deadline=deadline)
    for service_id, pick, packed, flip in requests:
        if covered and pick < 4:  # near a covered address
            packed = covered[pick % len(covered)][1] ^ flip
        client = int_to_address(packed)
        expected = string_keyed_resolve(plan, deadline, client, service_id, now)
        assert service.resolve(client, service_id) == expected


# --- live HTTP round trip ---


def http_get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response, body
    finally:
        conn.close()


def test_http_redirect_round_trip():
    now = [1000.0]
    service = RedirectService(clock=lambda: now[0])
    service.install_rules(
        plan_with(assignment(prefixes=("127.0.0.0/24",))), round_deadline=1300.0
    )
    server = FrontEndThread(service)
    port = server.server_address[1]
    try:
        response, _ = http_get(port, "/svc/svc-video/stream/7")
        assert response.status == 302
        assert response.getheader("Location") == "http://10.2.0.30:8080/stream/7"
        assert response.getheader("Cache-Control") == "max-age=300"

        # after the round deadline the same request passes through
        now[0] = 1300.0
        response, body = http_get(port, "/svc/svc-video/stream/7")
        assert response.status == 200
        assert b"origin" in body

        response, _ = http_get(port, "/other/path")
        assert response.status == 404
    finally:
        server.close()


def test_http_pass_through_for_unknown_service():
    service = RedirectService(clock=lambda: 0.0)
    service.install_rules(plan_with(), round_deadline=10.0)
    server = FrontEndThread(service)
    port = server.server_address[1]
    try:
        response, body = http_get(port, "/svc/nothing/x")
        assert response.status == 200
        assert body == b"origin placeholder\n"
    finally:
        server.close()


# --- the front end's request contract, through the production callback ---


def exchange(port: int, raw: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(raw)
        return b"".join(iter(lambda: sock.recv(65536), b""))


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def pass_through_service():
    service = RedirectService(clock=lambda: 0.0)
    service.install_rules(plan_with(), round_deadline=10.0)
    return service


@pytest.mark.parametrize(
    "raw",
    [
        b"BOGUS\r\n\r\n",
        b"GET /svc/svc-video/x\r\n\r\n",
        b"GET /svc/svc-video/x HTTP/1.0 extra\r\n\r\n",
        b"GET /svc/svc-video/x FTP/1.0\r\n\r\n",
        b"\r\n\r\n",
        b"GET /svc/svc-video/" + b"x" * HEAD_LIMIT + b" HTTP/1.0\r\n\r\n",
        b"GET /svc/svc-video/x HTTP/1.0\r\nX-Pad: " + b"x" * HEAD_LIMIT,
    ],
    ids=["one-word", "no-version", "four-words", "not-http", "empty", "long-line", "long-head"],
)
def test_http_malformed_or_oversized_head_gets_400(raw):
    with FrontEndThread(pass_through_service()) as server:
        assert status_of(exchange(server.server_address[1], raw)) == 400


@pytest.mark.parametrize("method", [b"POST", b"HEAD", b"PUT", b"get"])
def test_http_methods_other_than_get_get_501(method):
    with FrontEndThread(pass_through_service()) as server:
        reply = exchange(server.server_address[1], method + b" /svc/nothing/x HTTP/1.0\r\n\r\n")
    assert status_of(reply) == 501


def test_http_head_not_complete_within_the_timeout_is_closed(monkeypatch):
    monkeypatch.setattr(edisco.redirect, "READ_TIMEOUT_S", 0.2)
    with FrontEndThread(pass_through_service()) as server:
        started = time.monotonic()
        assert exchange(server.server_address[1], b"GET /svc/nothing/x HTTP/1.0\r\n") == b""
        assert exchange(server.server_address[1], b"") == b""
    assert time.monotonic() - started < 4


def test_http_idle_connections_cost_no_thread():
    service = RedirectService(clock=lambda: 1000.0)
    service.install_rules(
        plan_with(assignment(prefixes=("127.0.0.0/24",))), round_deadline=1300.0
    )
    with FrontEndThread(service) as server:
        threads = threading.active_count()
        idle = [socket.create_connection(server.server_address, timeout=5) for _ in range(40)]
        try:
            time.sleep(0.2)  # let the loop accept them all
            assert threading.active_count() == threads
            response, _ = http_get(server.server_address[1], "/svc/svc-video/stream/7")
            assert response.status == 302
            assert response.getheader("Location") == "http://10.2.0.30:8080/stream/7"
        finally:
            for sock in idle:
                sock.close()


@pytest.mark.fuzz
@given(mutated(small_bundle().expected["plan"]))
def test_plan_document_raises_only_malformed_fixture_error(document):
    """rules_from_plan_document parses with PlacementPlan.from_document and
    then installs, so this covers both."""
    try:
        rules_from_plan_document(document, round_deadline=1300.0, clock=lambda: 1000.0)
    except MalformedFixtureError:
        pass
