"""Acceptance gate: ten release criteria, one pass/fail line each.

Run with -v (or -s to see the PASS lines as they print). Every criterion
carries its tolerance inline; everything else in the suite backs these up
at finer grain.
"""
import collections
import http.client
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

from edisco.discovery import (
    EdgeServer,
    FixtureWhois,
    annotate_tree,
    discover_local_edges,
    identify_addresses,
    select_server,
)
from edisco.placement import (
    FixtureCapacityService,
    ServiceProfile,
    fold_client_paths,
    load_service_profiles,
    plan_round,
    score_candidates,
)
from edisco.probing import FixtureProber
from edisco.redirect import RedirectService
from edisco.rounds import RoundConfig, RoundProviders, run_round
from edisco.simharness import (
    ScenarioSpec,
    bundle_providers,
    bundle_round_config,
    generate_scenario,
)
from edisco.topology import (
    Hop,
    ProbedPath,
    build_tree,
    compute_centrality,
    group_subnet,
    ingest_recorded_paths,
)
from edisco.zonefile import Transport, parse_zone, render_a_line, render_srv_line

from conftest import REFERENCE_ZONE, FrontEndThread, make_path

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_ROUND = DATA_DIR / "golden_round_seed42.json"


def _passed(n: int, summary: str):
    print(f"PASS criterion {n:02d}: {summary}")


# -- 1: reference zone conformance ----------------------------------------------


def test_criterion_01_reference_zone_parses_and_round_trips():
    lines = [line for line in REFERENCE_ZONE.splitlines() if line.strip()]
    assert len(lines) == 6

    first = parse_zone(lines[0]).srv_records[0]
    assert (first.priority, first.weight, first.port) == (10, 30, 5060)
    assert first.target == "serverA.domainA.com"
    assert first.protocol is Transport.TCP

    zone = parse_zone(REFERENCE_ZONE)
    assert len(zone.srv_records) == 4
    assert len(zone.a_records) == 2
    by_weight = {(r.protocol.value, r.weight): r for r in zone.srv_records}
    assert by_weight[("tcp", 30)].target == "serverA.domainA.com"
    assert by_weight[("tcp", 10)].target == "serverB.domainA.com"
    assert by_weight[("udp", 30)].port == 1720
    assert {a.address for a in zone.a_records} == {
        "192.168.121.30",
        "192.168.121.31",
    }

    # byte-identical modulo normalized whitespace: exact tolerance
    rendered = [render_srv_line(r) for r in zone.srv_records] + [
        render_a_line(r) for r in zone.a_records
    ]
    normalized = [" ".join(line.split()) for line in lines]
    assert rendered == normalized
    _passed(1, "6 reference records parse to pinned fields and round-trip")


# -- 2: weighted selection distribution -------------------------------------------


def _server(priority, weight, address):
    return EdgeServer(
        zone="domainA.com",
        protocol=Transport.TCP,
        priority=priority,
        weight=weight,
        address=address,
        port=5060,
    )


def test_criterion_02_selection_distribution_and_priority_dominance():
    heavy = _server(10, 30, "192.168.121.30")
    light = _server(10, 10, "192.168.121.31")
    rng = random.Random(424242)
    draws = 10_000
    wins = sum(
        1 for _ in range(draws) if select_server([heavy, light], rng) is heavy
    )
    share = wins / draws
    assert 0.73 <= share <= 0.77, f"weight-30 share {share:.4f} outside 75% +/- 2%"

    # exhaustive over generated priority sets: the lowest priority present
    # must win every single draw
    priorities = [5, 10, 20, 30]
    checked = 0
    for size in (2, 3, 4):
        for combo in itertools.combinations(priorities, size):
            servers = [
                _server(p, 10 + 10 * i, f"192.168.{p}.{i + 1}")
                for i, p in enumerate(combo)
            ]
            rng = random.Random(size * 1000 + combo[0])
            for _ in range(200):
                assert select_server(servers, rng).priority == min(combo)
            checked += 1
    assert checked == 11
    _passed(2, f"weight-30 share {share:.2%} in [73%, 77%]; priority dominance over 11 sets")


# -- 3: centrality oracle equivalence ----------------------------------------------


def _oracle_counts(paths, root_address, prefix_len=24):
    """Independent recount: linear scan per path, no tree structures."""
    counts = collections.Counter()
    for path in paths:
        if path.truncated:
            continue
        sequence = [group_subnet(root_address, prefix_len)]
        for hop in path.hops:
            if hop.address is None:
                continue
            subnet = group_subnet(hop.address, prefix_len)
            if subnet != sequence[-1]:
                sequence.append(subnet)
        for subnet in set(sequence):
            counts[subnet] += 1
    return counts


def test_criterion_03_centrality_matches_brute_force_on_50_scenarios():
    for seed in range(50):
        clients = 20 + (seed % 5) * 20  # 20 to 100
        bundle = generate_scenario(
            ScenarioSpec(clients=clients, seed=seed), include_expected=False
        )
        paths = ingest_recorded_paths(bundle.traces)
        tree = compute_centrality(build_tree(paths, bundle.root_address))
        oracle = _oracle_counts(paths, bundle.root_address)
        for subnet, node in tree.nodes.items():
            assert node.centrality == oracle.get(subnet, 0), (
                f"seed {seed}, node {subnet}: "
                f"{node.centrality} != {oracle.get(subnet, 0)}"
            )
        assert tree.root.centrality == len(bundle.clients)
    _passed(3, "centrality equals brute-force recount on seeds 0-49, every node")


# -- 4: /24 grouping ------------------------------------------------------------------


def test_criterion_04_grouping_and_collapse():
    # the two reference servers share a subnet: one node, both members
    path = make_path("172.16.0.9", "192.168.121.30", "192.168.121.31")
    tree = compute_centrality(build_tree([path], "10.0.0.1"))
    assert "192.168.121.0/24" in tree.nodes
    node = tree.nodes["192.168.121.0/24"]
    assert node.member_addresses == {"192.168.121.30", "192.168.121.31"}
    assert len(tree.nodes) == 3  # root, shared subnet, client

    # grouping is idempotent
    rng = random.Random(4)
    for _ in range(500):
        address = f"{rng.randint(1, 254)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
        subnet = group_subnet(address)
        assert group_subnet(subnet.split("/")[0]) == subnet

    # consecutive-duplicate collapse preserves centralities: doubling every
    # known hop inside its own subnet changes nothing
    for seed in (0, 1, 2, 3, 4):
        bundle = generate_scenario(
            ScenarioSpec(clients=30, seed=seed), include_expected=False
        )
        paths = ingest_recorded_paths(bundle.traces)
        doubled = []
        for p in paths:
            addresses = []
            final = len(p.hops) - 1
            for position, hop in enumerate(p.hops):
                addresses.append(hop.address)
                # the final hop is the client itself; doubling it would
                # leave the sibling as the path's end and unregister it
                if hop.address is not None and position < final:
                    prefix, last = hop.address.rsplit(".", 1)
                    sibling = f"{prefix}.{(int(last) % 250) + 2}"
                    addresses.append(sibling)
            doubled.append(
                ProbedPath(
                    client=p.client,
                    hops=tuple(Hop(address=a) for a in addresses),
                )
            )
        base = compute_centrality(build_tree(paths, bundle.root_address))
        again = compute_centrality(build_tree(doubled, bundle.root_address))
        assert {s: n.centrality for s, n in base.nodes.items()} == {
            s: n.centrality for s, n in again.nodes.items()
        }
    _passed(4, "/24 grouping exact; idempotent; collapse preserves centralities")


# -- 5: tie-break geometry ----------------------------------------------------------


def _equip(tree, subnet, address):
    node = tree.nodes[subnet]
    server = EdgeServer(
        zone="example.test",
        protocol=Transport.TCP,
        priority=10,
        weight=10,
        address=address,
        port=8080,
    )
    node.edge_servers = [server]
    return server


def test_criterion_05_distance_tie_break_prefers_downstream_nodes():
    # two chains: C -> D and E -> F, two clients each; C/D see the same
    # client set (equal centrality) but D sits one hop closer, same for E/F
    paths = [
        make_path("172.16.0.9", "10.1.0.1", "10.2.0.1"),
        make_path("172.16.1.9", "10.1.0.1", "10.2.0.1"),
        make_path("172.16.2.9", "10.3.0.1", "10.4.0.1"),
        make_path("172.16.3.9", "10.3.0.1", "10.4.0.1"),
    ]
    tree = compute_centrality(build_tree(paths, "10.0.0.1"))
    _equip(tree, "10.1.0.0/24", "10.1.0.30")  # C
    _equip(tree, "10.2.0.0/24", "10.2.0.30")  # D, downstream of C
    _equip(tree, "10.3.0.0/24", "10.3.0.30")  # E
    _equip(tree, "10.4.0.0/24", "10.4.0.30")  # F, downstream of E

    west = ServiceProfile(
        service_id="svc-west",
        bandwidth_demand=10.0,
        cpu_demand=1.0,
        client_subnets=frozenset({"172.16.0.0/24", "172.16.1.0/24"}),
    )
    east = ServiceProfile(
        service_id="svc-east",
        bandwidth_demand=10.0,
        cpu_demand=1.0,
        client_subnets=frozenset({"172.16.2.0/24", "172.16.3.0/24"}),
    )
    west_order = [c.node.subnet for c in score_candidates(fold_client_paths(tree), west)][:2]
    east_order = [c.node.subnet for c in score_candidates(fold_client_paths(tree), east)][:2]
    assert west_order == ["10.2.0.0/24", "10.1.0.0/24"]  # D above C
    assert east_order == ["10.4.0.0/24", "10.3.0.0/24"]  # F above E
    _passed(5, "equal centrality resolves by client distance: D over C, F over E")


# -- 6: negotiation fallback ----------------------------------------------------------


def test_criterion_06_rejected_top_candidate_falls_back():
    paths = [
        make_path("172.16.0.9", "10.1.0.1", "10.2.0.1"),
        make_path("172.16.1.9", "10.1.0.1", "10.2.0.1"),
    ]
    tree = compute_centrality(build_tree(paths, "10.0.0.1"))
    _equip(tree, "10.2.0.0/24", "10.2.0.30")  # preferred: closer
    _equip(tree, "10.1.0.0/24", "10.1.0.30")  # fallback
    service = ServiceProfile(
        service_id="svc-a",
        bandwidth_demand=10.0,
        cpu_demand=2.0,
        client_subnets=frozenset({"172.16.0.0/24", "172.16.1.0/24"}),
    )
    capacity = FixtureCapacityService(
        {
            "10.2.0.30": {"cpu": 0, "bandwidth": 0},  # top candidate refuses
            "10.1.0.30": {"cpu": 8, "bandwidth": 100},
        }
    )
    plan = plan_round(tree, [service], capacity, round_id=1)
    assert len(plan.assignments) == 1
    assert plan.assignments[0].server.address == "10.1.0.30"
    assert len(plan.rejected) == 1
    assert plan.rejected[0].server.address == "10.2.0.30"
    assert plan.unplaced == []
    _passed(6, "capacity refusal on the top candidate lands on the runner-up")


# -- 7: redirect contract ---------------------------------------------------------------


ZONE_WITH_PTR = REFERENCE_ZONE + (
    "1.121.168.192.in-addr.arpa. 86400 IN PTR gw.domainA.com.\n"
)


def test_criterion_07_redirect_contract_over_live_http():
    clock_now = {"t": 1000.0}
    clock = lambda: clock_now["t"]
    redirect = RedirectService(clock=clock)

    providers = RoundProviders(
        prober=FixtureProber(
            [make_path(c, "10.5.0.1", "192.168.121.1") for c in ("127.0.0.1",)]
        ),
        resolver=parse_zone(ZONE_WITH_PTR),
        capacity=FixtureCapacityService(
            {
                "192.168.121.30": {"cpu": 8, "bandwidth": 100},
                "192.168.121.31": {"cpu": 8, "bandwidth": 100},
            }
        ),
        clock=clock,
    )
    config = RoundConfig(
        root_address="10.0.0.1", clients=("127.0.0.1",), period_s=300.0
    )
    service = ServiceProfile(
        service_id="svc-video",
        bandwidth_demand=10.0,
        cpu_demand=2.0,
        client_subnets=frozenset({"127.0.0.0/24"}),
    )
    record = run_round(config, [service], providers, redirect=redirect)
    assert len(record.plan.assignments) == 1
    assigned = record.plan.assignments[0].server

    httpd = FrontEndThread(redirect)
    try:
        host, port = httpd.server_address
        clock_now["t"] = 1100.0  # 200 s of the round remain
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", "/svc/svc-video/stream/hd")
        response = conn.getresponse()
        response.read()
        assert response.status == 302
        location = response.getheader("Location")
        assert location == f"http://{assigned.address}:{assigned.port}/stream/hd"
        max_age = int(response.getheader("Cache-Control").split("=")[1])
        remaining = (1000.0 + 300.0) - clock_now["t"]
        assert abs(max_age - remaining) <= 1.0, f"max-age {max_age} vs {remaining}"
        conn.close()

        clock_now["t"] = 1300.0  # expiry reached: pass through to origin
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", "/svc/svc-video/stream/hd")
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200
        assert body == b"origin placeholder\n"
        conn.close()
    finally:
        httpd.close()
    _passed(7, "302 with assigned address:port and max-age within 1 s; pass-through after expiry")


# -- 8: end-to-end determinism -------------------------------------------------------------


def test_criterion_08_run_once_is_byte_identical_and_matches_golden(tmp_path):
    bundle = generate_scenario(ScenarioSpec(clients=100, seed=42))
    bundle.write(tmp_path)
    outputs = []
    for _ in range(3):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "edisco",
                "run",
                "--config",
                str(tmp_path / "config.json"),
                "--once",
            ],
            capture_output=True,
            text=True,
            timeout=50,
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout)
        outputs.append(
            json.dumps(
                {"tree_digest": record["tree_digest"], "plan": record["plan"]},
                sort_keys=True,
            )
        )
    assert outputs[0] == outputs[1] == outputs[2]
    golden = json.dumps(json.loads(GOLDEN_ROUND.read_text()), sort_keys=True)
    assert outputs[0] == golden
    _passed(8, "seed-42 100-client run: 3 identical runs, golden file matched")


# -- 9: permutation invariance ----------------------------------------------------------------


def test_criterion_09_trace_order_never_changes_the_tree():
    for seed in range(100, 120):
        bundle = generate_scenario(
            ScenarioSpec(clients=40, seed=seed), include_expected=False
        )
        paths = ingest_recorded_paths(bundle.traces)
        base = compute_centrality(build_tree(paths, bundle.root_address))
        shuffled = list(paths)
        random.Random(seed).shuffle(shuffled)
        other = compute_centrality(build_tree(shuffled, bundle.root_address))
        assert base.digest() == other.digest(), f"seed {seed}"
        assert base.to_document() == other.to_document()
    _passed(9, "20 scenarios: shuffled traces build identical trees")


# -- 10: degraded input robustness ---------------------------------------------------------------


def test_criterion_10_degraded_fixtures_complete_a_round():
    for seed in range(200, 205):
        spec = ScenarioSpec(
            clients=60,
            seed=seed,
            unknown_hop_rate=0.2,
            ptr_missing_rate=0.2,
            services=3,
        )
        bundle = generate_scenario(spec, include_expected=False)
        services = load_service_profiles(bundle.services)
        record = run_round(
            bundle_round_config(bundle), services, bundle_providers(bundle)
        )

        # rebuild the annotated tree to inspect node provenance
        paths = ingest_recorded_paths(bundle.traces)
        tree = compute_centrality(build_tree(paths, bundle.root_address))
        resolver = parse_zone(bundle.zone_text)
        whois = FixtureWhois(bundle.whois)
        addresses = set()
        for node in tree.nodes.values():
            addresses.update(node.member_addresses)
        identities = identify_addresses(addresses, resolver, whois)
        domains = sorted({i.domain for i in identities.values() if i.domain})
        annotate_tree(
            tree,
            identities,
            {d: discover_local_edges(d, resolver) for d in domains},
        )
        assert tree.digest() == record.tree_digest

        # every client still registered despite 20% unknown hops
        assert len(tree.client_paths) == 60
        # unknown-provenance nodes never carry edge servers
        for node in tree.nodes.values():
            if not node.domains:
                assert node.edge_servers == []
        placed = {a.service_id for a in record.plan.assignments}
        assert placed.isdisjoint(record.plan.unplaced)
        for assignment in record.plan.assignments:
            assert assignment.server.address in bundle.capacity
    _passed(10, "20% unknown hops + 20% missing PTR: rounds complete, invariants hold")
