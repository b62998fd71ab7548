"""The HTTP 302 front end, driven over loopback.

``edisco serve-redirect`` runs in its own process. Plan coverage is
remapped from 240.a.b.0/24 to 127.a.b.0/24 and every client socket is bound
to a source address inside the prefix it stands for; Linux answers all of
127/8 on the loopback device, so no device set-up is needed and no traffic
leaves the host. The load is a closed loop: CONNECTIONS threads of this
process, each sending its next request when the previous one is complete,
one HTTP/1.0 connection per request (the server closes after each reply).
"""
from __future__ import annotations

import math
import os
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from scenario import ROOT, SRC

PERIOD_S = 300.0
CONNECTIONS = 2  # = nproc of the 2-CPU machine the baseline was taken on
MIX_SIZE = 4096
COVERED_SHARE = 0.80
UNCOVERED_SHARE = 0.15  # the remaining 5 % ask for a path the server 404s
BAD_PATHS = ("/", "/favicon.ico", "/svc/", "/static/app.js")
ORIGIN_BODY = b"origin placeholder\n"
TIMEOUT_S = 5.0
WINDOW_S = 1.0
# The load's length is fixed, not --seconds: its figures are per-layer ones
# (too noisy on a small shared host to gate a change), while --seconds
# buys round samples for round_s
LOAD_S = 5.0
START_TIMEOUT_S = 60.0
SERVING = re.compile(r"serving (\d+) rules on http://([\d.]+):(\d+)")


def loopback(address: str) -> str:
    """240.a.b.c -> 127.a.b.c; the generator only makes 240/8 addresses at
    the benchmark's sizes."""
    first, rest = address.split(".", 1)
    if first != "240":
        raise ValueError(f"{address}: outside 240.0.0.0/8, cannot remap")
    return f"127.{rest}"


def remap_plan(plan_doc: dict) -> dict:
    doc = dict(plan_doc)
    doc["assignments"] = [
        dict(a, coverage=[loopback(p) for p in a["coverage"]]) for a in plan_doc["assignments"]
    ]
    return doc


def _prefix(address: str) -> str:
    return address.rsplit(".", 1)[0] + ".0/24"


@dataclass(frozen=True)
class Request:
    source: str
    raw: bytes
    status: int
    service_id: str | None = None  # None: a path the server 404s
    location: str | None = None


def build_mix(plan_doc: dict, clients: list[str], rng) -> list[Request]:
    """80 % covered (302), 15 % uncovered (200 pass-through), 5 % bad path
    (404), drawn from the served plan and the scenario's clients. With no
    assignments, covered requests cannot exist and become uncovered ones."""
    by_prefix: dict[str, list[str]] = {}
    for client in sorted(clients):
        address = loopback(client)
        by_prefix.setdefault(_prefix(address), []).append(address)
    prefixes = sorted(by_prefix)
    # service -> (target, covered prefixes, uncovered prefixes)
    rules = {}
    for a in plan_doc["assignments"]:
        server = a["server"]
        covered = set(a["coverage"])
        rules[a["service_id"]] = (
            f"http://{server['address']}:{server['port']}",
            sorted(covered),
            [p for p in prefixes if p not in covered],
        )
    if not rules or any(not uncovered for _, _, uncovered in rules.values()):
        rules.setdefault("svc-none", (None, [], prefixes))  # no service, no rule
    covering = sorted(s for s, (target, _, _) in rules.items() if target is not None)
    uncovering = sorted(s for s, (_, _, uncovered) in rules.items() if uncovered)
    mix = []
    for n in range(MIX_SIZE):
        draw = rng.random()
        suffix = f"seg/{n}.ts"
        if draw < COVERED_SHARE and covering:
            service_id = rng.choice(covering)
            target, covered, _ = rules[service_id]
            source = rng.choice(by_prefix[rng.choice(covered)])
            mix.append(_request(source, service_id, suffix, 302, f"{target}/{suffix}"))
        elif draw < COVERED_SHARE + UNCOVERED_SHARE:
            service_id = rng.choice(uncovering)
            source = rng.choice(by_prefix[rng.choice(rules[service_id][2])])
            mix.append(_request(source, service_id, suffix, 200))
        else:
            source = rng.choice(by_prefix[rng.choice(prefixes)])
            raw = f"GET {rng.choice(BAD_PATHS)} HTTP/1.0\r\n\r\n".encode()
            mix.append(Request(source, raw, 404))
    return mix


def _request(source, service_id, suffix, status, location=None) -> Request:
    raw = f"GET /svc/{service_id}/{suffix} HTTP/1.0\r\n\r\n".encode()
    return Request(source, raw, status, service_id, location)


class FrontEnd:
    """``edisco serve-redirect`` in a child process."""

    def __init__(self, plan_path: Path, log_path: Path):
        self.plan_path = plan_path
        self.log_path = log_path
        self.proc = None

    def start(self) -> "FrontEnd":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(self.log_path, "wb")
        self.spawned_at = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "edisco", "serve-redirect", "--plan", str(self.plan_path),
             "--listen", "127.0.0.1:0", "--period-s", str(PERIOD_S)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.log,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            match = SERVING.search(self.log_path.read_text(errors="replace"))
            if match:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"front end did not start: {self.log_path.read_text(errors='replace')}")
            time.sleep(0.005)
        self.ready_at = time.time()
        self.rules = int(match.group(1))
        self.address = (match.group(2), int(match.group(3)))
        return self

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            # not SIGINT: a shell starting this in the background ignores it
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        self.proc = None


def _exchange(address, request: Request) -> bytes:
    with socket.create_connection(address, timeout=TIMEOUT_S, source_address=(request.source, 0)) as sock:
        sock.sendall(request.raw)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def check_response(response: bytes, request: Request, front: FrontEnd, sent_at: float, done_at: float) -> bool:
    """Status, Location (rule target + path suffix) and max-age. The server
    fixed its deadline between spawn and its ready line, and answered
    between sent_at and done_at, which bounds the max-age it may send."""
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) < 2 or parts[1] != str(request.status):
        return False
    if request.status == 404:
        return True
    if request.status == 200:
        return body == ORIGIN_BODY
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("location") != request.location:
        return False
    cache = headers.get("cache-control", "")
    if not cache.startswith("max-age=") or not cache[8:].isdigit():
        return False
    low = math.ceil(front.spawned_at + PERIOD_S - done_at)
    high = math.ceil(front.ready_at + PERIOD_S - sent_at)
    return low <= int(cache[8:]) <= high


def closed_loop(front: FrontEnd, mix: list[Request], seconds: float = LOAD_S) -> dict:
    """CONNECTIONS threads send requests back to back for `seconds`; every
    response is checked. Rate and latency percentiles are taken per
    WINDOW_S window and the median window is reported, so a stall of the
    shared host that hits one or two windows does not move the result."""
    results: list[list] = [[] for _ in range(CONNECTIONS)]
    wall0 = time.perf_counter()
    stop_at = wall0 + seconds

    def worker(k: int):
        out = results[k]
        i = k
        while time.perf_counter() < stop_at:
            request = mix[i % len(mix)]
            sent_wall = time.time()
            mark = time.perf_counter()
            try:
                response = _exchange(front.address, request)
                ok = check_response(response, request, front, sent_wall, time.time())
            except OSError:
                ok = False
            done = time.perf_counter()
            out.append((done - wall0, ok, (done - mark) * 1000.0))
            i += CONNECTIONS

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(CONNECTIONS)]
    cpu0, server0 = time.process_time(), front.cpu_seconds()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall0
    samples = [s for r in results for s in r]
    windows: dict[int, list] = {}
    for done, ok, ms in samples:
        windows.setdefault(int(done // WINDOW_S), []).append((ok, ms))
    full = [w for k, w in windows.items() if (k + 1) * WINDOW_S <= wall] or [
        [(ok, ms) for _, ok, ms in samples]
    ]
    per_window = []
    for window in full:
        latencies = sorted(ms for _, ms in window)
        per_window.append((
            sum(ok for ok, _ in window) / WINDOW_S,
            percentile(latencies, 50),
            percentile(latencies, 99),
        ))
    good = sum(ok for _, ok, _ in samples)
    return {
        "attempted": len(samples),
        "failed": len(samples) - good,
        "windows": len(full),
        "rps": statistics.median(w[0] for w in per_window),
        "p50_ms": statistics.median(w[1] for w in per_window),
        "p99_ms": statistics.median(w[2] for w in per_window),
        "client_busy_ratio": (time.process_time() - cpu0) / wall,
        "server_busy_ratio": (front.cpu_seconds() - server0) / wall,
    }


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def resolve_rate(plan_doc: dict, mix: list[Request], seconds: float) -> float:
    """Single-thread in-process RedirectService.resolve calls per second
    over the mix's /svc/ requests (the 404s never reach resolve)."""
    from edisco.redirect import rules_from_plan_document

    service = rules_from_plan_document(plan_doc, time.time() + PERIOD_S)
    calls = [(r.source, r.service_id) for r in mix if r.service_id is not None]
    done = 0
    resolve = service.resolve
    start = time.perf_counter()
    while True:
        for client, service_id in calls:
            resolve(client, service_id)
        done += len(calls)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return done / elapsed
