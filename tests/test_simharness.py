import json

import pytest

from edisco.errors import InvalidScenarioError
from edisco.placement import load_service_profiles
from edisco.rounds import load_run_config, run_round
from edisco.simharness import (
    ScenarioSpec,
    Violation,
    bundle_providers,
    bundle_round_config,
    compute_expected,
    generate_scenario,
    validate_bundle,
)
from edisco.topology import group_subnet, ingest_recorded_paths
from edisco.zonefile import parse_zone


def small_spec(**overrides):
    kwargs = dict(clients=12, seed=7, services=3)
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


# -- spec validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"clients": 0},
        {"clients": 5, "depth_min": 0},
        {"clients": 5, "depth_min": 4, "depth_max": 2},
        {"clients": 5, "branching": 0},
        {"clients": 5, "edge_density": 1.5},
        {"clients": 5, "edge_density": -0.1},
        {"clients": 5, "services": -1},
        {"clients": 5, "unknown_hop_rate": 1.01},
        {"clients": 5, "ptr_missing_rate": -0.5},
    ],
)
def test_bad_specs_rejected(kwargs):
    with pytest.raises(InvalidScenarioError):
        ScenarioSpec(**kwargs)


# -- generation ----------------------------------------------------------------


def test_minimal_scenario():
    spec = ScenarioSpec(clients=1, seed=0, depth_min=1, depth_max=1, services=1)
    bundle = generate_scenario(spec)
    assert len(bundle.clients) == 1
    assert validate_bundle(bundle) == []
    record = run_round(
        bundle_round_config(bundle),
        load_service_profiles(bundle.services),
        bundle_providers(bundle),
    )
    assert record.tree_digest == bundle.expected["tree_digest"]


def test_generation_is_deterministic():
    first = generate_scenario(small_spec())
    second = generate_scenario(small_spec())
    assert first == second


def test_written_bundles_are_byte_identical(tmp_path):
    bundle = generate_scenario(small_spec())
    files_a = bundle.write(tmp_path / "a")
    files_b = generate_scenario(small_spec()).write(tmp_path / "b")
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for a, b in zip(files_a, files_b):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_different_seeds_differ():
    assert generate_scenario(small_spec(seed=7)) != generate_scenario(
        small_spec(seed=8)
    )


def test_every_client_has_a_complete_trace():
    bundle = generate_scenario(small_spec(clients=40))
    paths = ingest_recorded_paths(bundle.traces)
    assert sorted(p.client for p in paths) == sorted(bundle.clients)
    assert not any(p.truncated for p in paths)


def test_reserved_address_space_and_test_tld():
    bundle = generate_scenario(small_spec(clients=30, seed=3))
    for client in bundle.clients:
        assert client.startswith("240."), client
    zone = parse_zone(bundle.zone_text)
    for record in zone.srv_records:
        assert record.zone.endswith(".test")
    for cidr, domain in bundle.whois.items():
        assert cidr.startswith("240.")
        assert domain.endswith(".test")


def test_generated_bundle_validates_across_seeds():
    for seed in range(8):
        spec = ScenarioSpec(clients=25, seed=seed, services=4)
        assert validate_bundle(generate_scenario(spec)) == []


def test_degraded_bundles_still_validate():
    spec = small_spec(clients=30, unknown_hop_rate=0.2, ptr_missing_rate=0.2)
    bundle = generate_scenario(spec)
    assert validate_bundle(bundle) == []


def test_unknown_hops_never_hit_the_client_hop():
    spec = small_spec(clients=20, unknown_hop_rate=1.0)
    bundle = generate_scenario(spec)
    for trace in bundle.traces:
        hops = trace["hops"]
        assert all(h["address"] is None for h in hops[:-1])
        assert hops[-1]["address"] == trace["client"]


def test_dual_interface_routers_appear():
    # consecutive same-subnet hop pairs must show up somewhere in a big
    # scenario, or the collapse rule never gets exercised
    bundle = generate_scenario(small_spec(clients=60, seed=5))
    pairs = 0
    for trace in bundle.traces:
        addresses = [h["address"] for h in trace["hops"]]
        for a, b in zip(addresses, addresses[1:]):
            if a and b and a != b and group_subnet(a) == group_subnet(b):
                pairs += 1
    assert pairs > 0


def test_expected_matches_recompute():
    bundle = generate_scenario(small_spec())
    assert bundle.expected == compute_expected(bundle)


def test_end_to_end_invariants_hold_at_scale():
    bundle = generate_scenario(ScenarioSpec(clients=100, seed=42, services=4))
    assert validate_bundle(bundle) == []
    services = load_service_profiles(bundle.services)
    record = run_round(
        bundle_round_config(bundle), services, bundle_providers(bundle)
    )
    assert record.tree_digest == bundle.expected["tree_digest"]
    assert record.plan.to_document() == bundle.expected["plan"]
    by_id = {s.service_id: s for s in services}
    for assignment in record.plan.assignments:
        assert assignment.server.address in bundle.capacity
        service = by_id[assignment.service_id]
        assert set(assignment.covered_prefixes) <= service.client_subnets
    placed = {a.service_id for a in record.plan.assignments}
    assert placed.isdisjoint(record.plan.unplaced)


def test_missing_ptr_leaves_nodes_without_servers():
    from edisco.topology import build_tree, compute_centrality
    from edisco.discovery import FixtureWhois, annotate_tree, discover_local_edges
    from edisco.discovery import identify_addresses

    spec = small_spec(clients=30, seed=11, ptr_missing_rate=1.0)
    bundle = generate_scenario(spec)
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
        tree, identities, {d: discover_local_edges(d, resolver) for d in domains}
    )
    anonymous = [n for n in tree.nodes.values() if not n.domains]
    assert anonymous, "expected some unidentifiable nodes with all PTRs gone"
    for node in anonymous:
        assert node.edge_servers == []


def test_bundle_runs_through_config_loader(tmp_path):
    bundle = generate_scenario(small_spec())
    bundle.write(tmp_path)
    setup = load_run_config(tmp_path / "config.json")
    record = run_round(setup.config, setup.services, setup.make_providers())
    assert record.tree_digest == bundle.expected["tree_digest"]
    assert record.plan.to_document() == bundle.expected["plan"]


def test_expected_json_written(tmp_path):
    bundle = generate_scenario(small_spec())
    bundle.write(tmp_path)
    expected = json.loads((tmp_path / "expected.json").read_text())
    assert expected == bundle.expected


# -- seeded faults -------------------------------------------------------------


def test_dangling_srv_target_is_one_violation():
    bundle = generate_scenario(small_spec(clients=20, seed=2, edge_density=1.0))
    zone = parse_zone(bundle.zone_text)
    target = zone.srv_records[0].target
    kept = [
        line
        for line in bundle.zone_text.splitlines()
        if not (" IN A " in line and line.startswith(target))
    ]
    bundle.zone_text = "\n".join(kept) + "\n"
    report = validate_bundle(bundle)
    srv_violations = [v for v in report if target in v.message]
    assert len(srv_violations) >= 1
    assert all(isinstance(v, Violation) for v in report)


def test_hand_edited_bundle_violations_match_hand_count():
    bundle = generate_scenario(small_spec(clients=20, seed=4, edge_density=1.0))
    assert validate_bundle(bundle) == []

    bundle.clients.append("9.9.9.9")  # 1: listed client without a trace
    victim = next(iter(bundle.capacity))
    del bundle.capacity[victim]  # 2: server lost its capacity entry
    bundle.services[0]["client_subnets"] = ["203.0.113.0/24"]  # 3: ghost subnet

    report = validate_bundle(bundle)
    assert len(report) == 3
    locations = sorted(v.location for v in report)
    assert locations == [
        f"capacity:{victim}",
        "clients:9.9.9.9",
        "services:svc-00",
    ]


def test_unreferenced_srv_zone_detected():
    bundle = generate_scenario(small_spec(clients=15, seed=6, edge_density=1.0))
    zone = parse_zone(bundle.zone_text)
    victim = zone.srv_records[0].zone
    kept = [
        line
        for line in bundle.zone_text.splitlines()
        if not (" IN PTR " in line and line.rstrip(".").endswith(victim))
    ]
    bundle.zone_text = "\n".join(kept) + "\n"
    bundle.whois = {
        cidr: domain for cidr, domain in bundle.whois.items() if domain != victim
    }
    report = validate_bundle(bundle)
    assert any(
        v.location == f"zone:{victim}" and "references" in v.message for v in report
    )
