from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import edisco.placement as placement
from edisco.discovery import EdgeServer
from edisco.errors import MalformedFixtureError
from edisco.placement import (
    Assignment,
    CapacityResponse,
    FixtureCapacityService,
    PlacementPlan,
    ServiceProfile,
    fold_client_paths,
    load_service_profiles,
    plan_round,
    rank_services,
    score_candidates,
)
from edisco.topology import (
    AggregationTree,
    build_tree,
    compute_centrality,
    group_subnet,
    subnet_sort_key,
)
from edisco.zonefile import Transport

from conftest import make_path, mutated, random_paths, small_bundle

ROOT = "10.0.0.1"


def edge(address, priority=10, weight=10, port=8080, proto=Transport.TCP, zone="edgeco.test"):
    return EdgeServer(
        zone=zone, protocol=proto, priority=priority, weight=weight, address=address, port=port
    )


def service(service_id="svc-video", subnets=(), bw=10.0, cpu=1.0, proto=Transport.TCP):
    return ServiceProfile(
        service_id=service_id,
        bandwidth_demand=bw,
        cpu_demand=cpu,
        client_subnets=frozenset(subnets),
        transport=proto,
    )


def equip(tree, subnet, *servers):
    tree.nodes[subnet].edge_servers = sorted(servers, key=lambda s: s.sort_key)


def two_branch_tree():
    """Two branches of equal centrality; the deeper node on each branch sits
    one hop from its clients, the shallower two hops."""
    paths = [
        make_path("172.16.0.9", "10.1.0.1", "10.2.0.1"),
        make_path("172.16.1.9", "10.1.0.1", "10.2.0.1"),
        make_path("172.16.2.9", "10.3.0.1", "10.4.0.1"),
        make_path("172.16.3.9", "10.3.0.1", "10.4.0.1"),
    ]
    tree = compute_centrality(build_tree(paths, ROOT))
    equip(tree, "10.1.0.0/24", edge("10.1.0.30"))
    equip(tree, "10.2.0.0/24", edge("10.2.0.30"))
    equip(tree, "10.3.0.0/24", edge("10.3.0.30"))
    equip(tree, "10.4.0.0/24", edge("10.4.0.30"))
    return tree


ALL_FOUR = (
    "172.16.0.0/24",
    "172.16.1.0/24",
    "172.16.2.0/24",
    "172.16.3.0/24",
)


# --- rank_services ---


def test_rank_prefers_more_clients_at_equal_bandwidth():
    x = service("svc-x", subnets=[f"172.16.{i}.0/24" for i in range(5)], bw=10)
    y = service("svc-y", subnets=[f"172.16.{i}.0/24" for i in range(2)], bw=10)
    assert [s.service_id for s in rank_services([y, x])] == ["svc-x", "svc-y"]


def test_rank_ties_break_lexicographically():
    a = service("svc-a", subnets=["172.16.0.0/24"], bw=10)
    b = service("svc-b", subnets=["172.16.0.0/24"], bw=10)
    assert [s.service_id for s in rank_services([b, a])] == ["svc-a", "svc-b"]


def test_rank_empty_is_empty():
    assert rank_services([]) == []


def test_negative_demand_rejected():
    with pytest.raises(ValueError):
        service(bw=-1)


# --- score_candidates ---


def test_deeper_node_beats_equal_centrality():
    tree = two_branch_tree()
    ranked = list(score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR)))
    assert [c.node.subnet for c in ranked] == [
        "10.2.0.0/24",  # deep, branch one
        "10.4.0.0/24",  # deep, branch two
        "10.1.0.0/24",
        "10.3.0.0/24",
    ]
    assert ranked[0].centrality == 2
    assert ranked[0].client_distance == 1.0
    assert ranked[2].client_distance == 2.0


def test_single_equipped_node_is_singleton():
    tree = two_branch_tree()
    for subnet in ("10.1.0.0/24", "10.3.0.0/24", "10.4.0.0/24"):
        tree.nodes[subnet].edge_servers = []
    ranked = list(score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR)))
    assert len(ranked) == 1
    assert ranked[0].node.subnet == "10.2.0.0/24"


def test_no_reachable_server_is_no_candidate():
    tree = two_branch_tree()
    svc = service(subnets=ALL_FOUR, proto=Transport.UDP)
    assert list(score_candidates(fold_client_paths(tree), svc)) == []


def test_transport_filter():
    tree = two_branch_tree()
    equip(tree, "10.2.0.0/24", edge("10.2.0.31", proto=Transport.UDP))
    ranked = score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR, proto=Transport.UDP))
    assert [c.server.address for c in ranked] == ["10.2.0.31"]


def oracle_key(tree, svc, candidate):
    # independent re-derivation of the stated sort key
    clients = [
        c for c in sorted(tree.client_paths) if group_subnet(c) in svc.client_subnets
    ]
    covered = [c for c in clients if candidate.node.subnet in tree.client_paths[c]]
    distances = []
    for c in covered:
        path = tree.client_paths[c]
        last = max(i for i, s in enumerate(path) if s == candidate.node.subnet)
        distances.append(len(path) - 1 - last)
    return (
        -len(covered),
        sum(distances) / len(distances),
        subnet_sort_key(candidate.node.subnet),
        candidate.server.sort_key,
    )


def randomly_equipped_tree(seed):
    rng = random.Random(seed)
    tree = compute_centrality(build_tree(random_paths(seed), ROOT))
    for i, subnet in enumerate(tree.sorted_subnets()):
        if rng.random() < 0.4:
            base = subnet.split("/")[0].rsplit(".", 1)[0]
            servers = [
                edge(f"{base}.{30 + k}", priority=rng.choice([10, 20]), weight=rng.choice([0, 10, 30]))
                for k in range(rng.randint(1, 2))
            ]
            equip(tree, subnet, *servers)
    return tree


def oracle_coverage(tree, svc, candidate):
    return sorted(
        {
            group_subnet(c)
            for c in tree.client_paths
            if group_subnet(c) in svc.client_subnets
            and candidate.node.subnet in tree.client_paths[c]
        },
        key=subnet_sort_key,
    )


def test_ordering_matches_comparator_oracle():
    checked = 0
    for seed in range(12):
        tree = randomly_equipped_tree(seed)
        # a service owns a random non-empty share of the client subnets
        rng = random.Random(seed)
        subnets = sorted({group_subnet(c) for c in tree.client_paths})
        svc = service(subnets=rng.sample(subnets, rng.randint(1, len(subnets))))
        ranked = list(score_candidates(fold_client_paths(tree), svc))
        if not ranked:
            continue
        keys = [oracle_key(tree, svc, c) for c in ranked]
        assert keys == sorted(keys)
        # reported fields match the oracle's derivation too
        for candidate, key in zip(ranked, keys):
            assert candidate.centrality == -key[0]
            assert candidate.client_distance == key[1]
            assert list(candidate.covered_prefixes) == oracle_coverage(tree, svc, candidate)
        checked += 1
    assert checked >= 6  # enough non-degenerate scenarios exercised


@pytest.mark.fuzz
def test_restricting_clients_never_raises_centrality():
    tree = two_branch_tree()
    full = score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR))
    half = score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR[:2]))
    full_by_node = {c.node.subnet: c.centrality for c in full}
    for candidate in half:
        assert candidate.centrality <= full_by_node[candidate.node.subnet]


def per_service_fold_oracle(tree, svc):
    """score_candidates as it was before the per-round fold: one pass over
    the paths of the service's own clients, for each service."""
    reach = {}
    for path in tree.client_paths.values():
        prefix = path[-1]
        if prefix not in svc.client_subnets:
            continue
        last = {subnet: len(path) - 1 - i for i, subnet in enumerate(path)}
        for subnet, distance in last.items():
            entry = reach.setdefault(subnet, [0, 0, set()])
            entry[0] += 1
            entry[1] += distance
            entry[2].add(prefix)
    candidates = [
        (subnet, server, count, distance_sum / count, tuple(sorted(prefixes, key=subnet_sort_key)))
        for subnet, (count, distance_sum, prefixes) in reach.items()
        for server in tree.nodes[subnet].edge_servers
        if server.protocol is svc.transport
    ]
    candidates.sort(key=lambda c: (-c[2], c[3], subnet_sort_key(c[0]), c[1].sort_key))
    return candidates


@st.composite
def equipped_trees(draw):
    """A random tree: several clients per prefix, paths that revisit a
    subnet or pass through another client's prefix, and about half of the
    nodes equipped with one or two servers of either transport."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    routers = [f"10.{i}.{rng.randint(0, 1)}.{rng.randint(1, 254)}" for i in range(1, rng.randint(2, 9))]
    routers += [f"172.16.{rng.randint(0, 5)}.200" for _ in range(rng.randint(0, 2))]
    paths = []
    for k in range(rng.randint(1, 24)):
        chain = [rng.choice(routers) if rng.random() > 0.15 else None for _ in range(rng.randint(1, 6))]
        paths.append(make_path(f"172.16.{rng.randint(0, 5)}.{k + 1}", *chain, complete=rng.random() > 0.1))
    tree = compute_centrality(build_tree(paths, ROOT))
    for subnet in tree.sorted_subnets():
        if rng.random() < 0.5:
            base = subnet.split("/")[0].rsplit(".", 1)[0]
            equip(tree, subnet, *(
                edge(
                    f"{base}.{30 + k}",
                    priority=rng.choice([10, 20]),
                    weight=rng.choice([0, 10, 30]),
                    proto=rng.choice(list(Transport)),
                )
                for k in range(rng.randint(1, 2))
            ))
    return tree


@pytest.mark.fuzz
@given(equipped_trees(), st.data())
def test_per_round_fold_scores_like_the_per_service_fold(tree, data):
    prefixes = sorted({path[-1] for path in tree.client_paths.values()}) + ["172.16.9.0/24"]
    fold = fold_client_paths(tree)
    for _ in range(3):  # several services scored from one fold
        svc = service(
            subnets=data.draw(st.sets(st.sampled_from(prefixes), min_size=1)),
            proto=data.draw(st.sampled_from(list(Transport))),
        )
        assert [
            (c.node.subnet, c.server, c.centrality, c.client_distance, c.covered_prefixes)
            for c in score_candidates(fold, svc)
        ] == per_service_fold_oracle(tree, svc)


def test_tied_nodes_of_a_loaded_tree_interleave_their_servers():
    """10.0.0.0/16 and 10.0.0.0/24 share a network; on these two paths they
    also share centrality and mean distance, so their servers interleave by
    sort_key, as one sort over all candidates orders them."""
    wide, narrow = "10.0.0.0/16", "10.0.0.0/24"
    servers = {
        wide: [edge("10.0.0.30", priority=10), edge("10.0.0.32", priority=30)],
        narrow: [edge("10.0.0.31", priority=20), edge("10.0.0.33", priority=40)],
    }
    nodes = ["192.0.2.0/24", wide, narrow, "172.16.0.0/24", "172.16.1.0/24"]
    tree = AggregationTree.from_document(
        {
            "format": "edisco-tree/1",
            "root_address": "192.0.2.1",
            "root_subnet": "192.0.2.0/24",
            "prefix_len": 24,
            "nodes": [
                {
                    "subnet": subnet,
                    "members": [],
                    "domains": [],
                    "centrality": 0,
                    "is_client": subnet.startswith("172."),
                    "edge_servers": [s.to_document() for s in servers.get(subnet, [])],
                }
                for subnet in nodes
            ],
            "edges": [],
            "client_paths": {
                "172.16.0.9": ["192.0.2.0/24", wide, narrow, "172.16.0.0/24"],
                "172.16.1.9": ["192.0.2.0/24", narrow, wide, "172.16.1.0/24"],
            },
        }
    )
    svc = service(subnets=["172.16.0.0/24", "172.16.1.0/24"])
    ranked = list(score_candidates(fold_client_paths(tree), svc))
    assert [c.server.address for c in ranked] == ["10.0.0.30", "10.0.0.31", "10.0.0.32", "10.0.0.33"]
    assert [
        (c.node.subnet, c.server, c.centrality, c.client_distance, c.covered_prefixes)
        for c in ranked
    ] == per_service_fold_oracle(tree, svc)


# --- capacity negotiation / capacity fixture ---


def test_negotiate_accepts_when_capacity_dominates():
    capacity = FixtureCapacityService({"10.2.0.30": {"cpu": 4, "bandwidth": 10}})
    tree = two_branch_tree()
    candidate = next(score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR)))
    response = capacity.request(candidate.server, cpu=2.0, bandwidth=5.0)
    assert response == CapacityResponse(accepted=True)


def test_negotiate_rejects_on_insufficient_cpu():
    capacity = FixtureCapacityService({"10.2.0.30": {"cpu": 4, "bandwidth": 10}})
    tree = two_branch_tree()
    candidate = next(score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR)))
    response = capacity.request(candidate.server, cpu=6.0, bandwidth=5.0)
    assert response == CapacityResponse(accepted=False, reason="insufficient-capacity")


def test_negotiate_turns_unreachable_into_reject():
    capacity = FixtureCapacityService({})
    tree = two_branch_tree()
    candidate = next(score_candidates(fold_client_paths(tree), service(subnets=ALL_FOUR)))
    response = capacity.request(candidate.server, cpu=1.0, bandwidth=10.0)
    assert not response.accepted
    assert response.reason.startswith("unreachable")


def test_capacity_decrements_until_exhausted():
    capacity = FixtureCapacityService({"10.2.0.30": {"cpu": 2, "bandwidth": 10}})
    server = edge("10.2.0.30")
    first = capacity.request(server, cpu=2, bandwidth=5)
    second = capacity.request(server, cpu=2, bandwidth=5)
    assert first.accepted
    assert second == CapacityResponse(accepted=False, reason="insufficient-capacity")
    assert capacity.request(server, cpu=0, bandwidth=5).accepted  # cpu 0 and bandwidth 5 left


def test_unknown_server_is_unreachable():
    response = FixtureCapacityService({}).request(edge("10.9.9.9"), 1, 1)
    assert response == CapacityResponse(
        accepted=False, reason="unreachable: 10.9.9.9: not answering"
    )


@pytest.mark.parametrize("key", ["010.0.0.1", "edge1"])
def test_capacity_key_that_is_no_address_is_malformed(key):
    spec = {"cpu": 1, "bandwidth": 1}
    with pytest.raises(MalformedFixtureError, match=f"^capacity of {key}: "):
        FixtureCapacityService({"10.0.0.1": spec, key: spec})


# --- plan_round ---


def test_fallback_to_second_candidate():
    tree = two_branch_tree()
    # top-ranked server refuses, the runner-up accepts
    capacity = FixtureCapacityService(
        {
            "10.2.0.30": {"cpu": 0, "bandwidth": 0},
            "10.4.0.30": {"cpu": 8, "bandwidth": 100},
        }
    )
    plan = plan_round(tree, [service(subnets=ALL_FOUR)], capacity)
    assert len(plan.assignments) == 1
    assert plan.assignments[0].server.address == "10.4.0.30"
    assert len(plan.rejected) == 1
    assert plan.unplaced == []


def test_no_edge_servers_leaves_all_unplaced():
    paths = [make_path("172.16.0.9", "10.1.0.1")]
    tree = compute_centrality(build_tree(paths, ROOT))
    plan = plan_round(
        tree,
        [service("svc-a", subnets=["172.16.0.0/24"]), service("svc-b", subnets=["172.16.0.0/24"])],
        FixtureCapacityService({}),
    )
    assert plan.assignments == []
    assert plan.rejected == []  # no candidate: unplaced, and nothing was asked
    assert plan.unplaced == ["svc-a", "svc-b"]


def test_three_services_two_single_slot_servers():
    # hand-simulated greedy walk: servers hold one cpu unit each, every
    # service needs one. Third service finds everything full.
    paths = [make_path("172.16.0.9", "10.1.0.1")]
    tree = compute_centrality(build_tree(paths, ROOT))
    equip(tree, "10.1.0.0/24", edge("10.1.0.30", weight=20), edge("10.1.0.31", weight=10))
    capacity = FixtureCapacityService(
        {
            "10.1.0.30": {"cpu": 1, "bandwidth": 100},
            "10.1.0.31": {"cpu": 1, "bandwidth": 100},
        }
    )
    services = [
        service("svc-a", subnets=["172.16.0.0/24"], cpu=1.0),
        service("svc-b", subnets=["172.16.0.0/24"], cpu=1.0),
        service("svc-c", subnets=["172.16.0.0/24"], cpu=1.0),
    ]
    plan = plan_round(tree, services, capacity)
    assert [a.service_id for a in plan.assignments] == ["svc-a", "svc-b"]
    assert [a.server.address for a in plan.assignments] == ["10.1.0.30", "10.1.0.31"]
    assert plan.unplaced == ["svc-c"]
    assert [(r.service_id, r.server.address) for r in plan.rejected] == [
        ("svc-b", "10.1.0.30"),
        ("svc-c", "10.1.0.30"),
        ("svc-c", "10.1.0.31"),
    ]


def test_plan_never_assigns_a_rejecting_server():
    for seed in range(8):
        tree = randomly_equipped_tree(seed)
        svc = service(subnets=[group_subnet(c) for c in tree.client_paths], cpu=1.0)
        addresses = {
            s.address for n in tree.nodes.values() for s in n.edge_servers
        }
        rng = random.Random(seed)
        capacity = FixtureCapacityService(
            {a: {"cpu": rng.choice([0, 1]), "bandwidth": 100} for a in addresses}
        )
        plan = plan_round(tree, [svc], capacity)
        refused = {(r.service_id, r.server) for r in plan.rejected}
        for a in plan.assignments:
            assert (a.service_id, a.server) not in refused


class ScriptedCapacity:
    """Refuses the first `refusals` requests, then accepts each; records
    every server asked."""

    def __init__(self, refusals: int):
        self.refusals = refusals
        self.asked = []

    def request(self, server, cpu, bandwidth):
        self.asked.append(server)
        if len(self.asked) <= self.refusals:
            return CapacityResponse(accepted=False, reason="insufficient-capacity")
        return CapacityResponse(accepted=True)


def test_plan_asks_in_candidate_order_and_stops_at_the_accept():
    walked = 0
    for seed in range(12):
        tree = randomly_equipped_tree(seed)
        svc = service(subnets=[group_subnet(c) for c in tree.client_paths])
        candidates = list(score_candidates(fold_client_paths(tree), svc))
        refusals = random.Random(seed).randint(0, len(candidates))
        capacity = ScriptedCapacity(refusals)
        plan = plan_round(tree, [svc], capacity)
        assert capacity.asked == [c.server for c in candidates[: refusals + 1]]
        assert [r.server for r in plan.rejected] == [c.server for c in candidates[:refusals]]
        if refusals < len(candidates):
            accepted = candidates[refusals]
            assert plan.assignments == [
                Assignment(svc.service_id, accepted.server, accepted.node.subnet, accepted.covered_prefixes)
            ]
            walked += refusals > 0
        else:
            assert plan.unplaced == [svc.service_id]
    assert walked >= 4  # enough plans accepted past a rejection


def test_plan_builds_one_candidate_per_service_when_the_first_accepts(monkeypatch):
    built = []

    class Counted(placement.PlacementCandidate):
        def __init__(self, **fields):
            built.append(fields["server"])
            super().__init__(**fields)

    monkeypatch.setattr(placement, "PlacementCandidate", Counted)
    tree = randomly_equipped_tree(3)
    prefixes = sorted({group_subnet(c) for c in tree.client_paths})
    services = [service(f"svc-{i}", subnets=prefixes[i::3]) for i in range(3)]
    fold = fold_client_paths(tree)
    available = sum(len(list(score_candidates(fold, svc))) for svc in services)
    built.clear()
    plan = plan_round(tree, services, ScriptedCapacity(0))
    assert len(plan.assignments) == len(services) < available
    assert built == [a.server for a in plan.assignments]


def test_plan_deterministic():
    tree_a = two_branch_tree()
    tree_b = two_branch_tree()
    services = [service("svc-a", subnets=ALL_FOUR), service("svc-b", subnets=ALL_FOUR[:2])]
    make_capacity = lambda: FixtureCapacityService(
        {f"10.{i}.0.30": {"cpu": 4, "bandwidth": 100} for i in range(1, 5)}
    )
    doc_a = plan_round(tree_a, services, make_capacity()).to_document()
    doc_b = plan_round(tree_b, list(reversed(services)), make_capacity()).to_document()
    assert doc_a == doc_b


def test_assignment_coverage_lists_routed_prefixes():
    tree = two_branch_tree()
    capacity = FixtureCapacityService({"10.2.0.30": {"cpu": 4, "bandwidth": 100}})
    plan = plan_round(tree, [service(subnets=ALL_FOUR)], capacity)
    placed = plan.assignments[0]
    assert placed.node_subnet == "10.2.0.0/24"
    # only the branch-one clients route through 10.2
    assert placed.covered_prefixes == ("172.16.0.0/24", "172.16.1.0/24")


def test_plan_document_round_trip():
    tree = two_branch_tree()
    capacity = FixtureCapacityService(
        {f"10.{i}.0.30": {"cpu": 4, "bandwidth": 100} for i in range(1, 5)}
    )
    plan = plan_round(tree, [service(subnets=ALL_FOUR)], capacity, round_id=3)
    again = PlacementPlan.from_document(plan.to_document())
    assert again.to_document() == plan.to_document()
    assert again.round_id == 3


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda doc: doc.update(round_id=True), "'round_id' is missing or not of type int"),
        (lambda doc: doc["assignments"][0]["server"].update(port=99999), "'port' out of range"),
        (lambda doc: doc["assignments"][0]["server"].update(weight=True), "'weight' is missing"),
    ],
    ids=["round_id-true", "port-99999", "weight-true"],
)
def test_plan_document_refuses_booleans_and_srv_values_out_of_range(damage, message):
    capacity = FixtureCapacityService({"10.2.0.30": {"cpu": 4, "bandwidth": 100}})
    plan = plan_round(two_branch_tree(), [service(subnets=ALL_FOUR)], capacity, round_id=3)
    doc = plan.to_document()
    damage(doc)
    with pytest.raises(MalformedFixtureError, match=message):
        PlacementPlan.from_document(doc)


def test_plan_rejects_contradictory_lists():
    with pytest.raises(ValueError):
        PlacementPlan(
            round_id=0,
            assignments=[
                Assignment(
                    service_id="svc-a",
                    server=edge("10.1.0.30"),
                    node_subnet="10.1.0.0/24",
                    covered_prefixes=(),
                )
            ],
            unplaced=["svc-a"],
        )


def test_load_service_profiles_rejects_bad_entries():
    with pytest.raises(MalformedFixtureError):
        load_service_profiles([{"service_id": "svc-a"}])
    with pytest.raises(MalformedFixtureError):
        load_service_profiles({"service_id": "svc-a"})
    # client_subnets that could never match a tree prefix
    for subnets in ("240.0.1.0/24", ["240.0.1.5/24"], ["nonsense"], [240]):
        doc = service("svc-a", subnets=["240.0.1.0/24"]).to_document()
        doc["client_subnets"] = subnets
        with pytest.raises(MalformedFixtureError, match="entry 0"):
            load_service_profiles([doc])


@pytest.mark.parametrize("key", ["bandwidth_demand", "cpu_demand"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "true"])
def test_service_demands_are_finite_numbers_at_least_zero(key, value):
    doc = service("svc-a", subnets=["172.16.0.0/24"]).to_document()
    text = json.dumps({**doc, key: "@"}).replace('"@"', value)
    with pytest.raises(MalformedFixtureError, match="service entry 0"):
        load_service_profiles([json.loads(text)])


@pytest.mark.parametrize("key", ["cpu", "bandwidth"])
@pytest.mark.parametrize(
    "value",
    ["NaN", "Infinity", "-Infinity", "-1", pytest.param("1" + "0" * 400, id="10**400"), "true", "false"],
)
def test_capacity_headroom_is_a_finite_number_at_least_zero(key, value):
    spec = json.loads(json.dumps({"cpu": 4, "bandwidth": 10, key: "@"}).replace('"@"', value))
    with pytest.raises(MalformedFixtureError, match="capacity of 10.2.0.30"):
        FixtureCapacityService({"10.2.0.30": spec})


def test_load_service_profiles_round_trip():
    docs = [service("svc-a", subnets=["172.16.0.0/24"]).to_document()]
    assert load_service_profiles(docs)[0].service_id == "svc-a"


def test_load_service_profiles_refuses_a_repeated_service_id():
    docs = [
        service(service_id, subnets=["172.16.0.0/24"]).to_document()
        for service_id in ("svc-a", "svc-b", "svc-a")
    ]
    with pytest.raises(MalformedFixtureError) as caught:
        load_service_profiles(docs)
    assert str(caught.value) == "service entry 2: service_id 'svc-a' repeats entry 0"


# --- fuzzed fixture documents ---


@given(mutated(small_bundle().services))
def test_service_profiles_raise_only_malformed_fixture_error(document):
    try:
        load_service_profiles(document)
    except MalformedFixtureError:
        pass


@pytest.mark.fuzz
@given(mutated(small_bundle().capacity))
def test_capacity_fixture_raises_only_malformed_fixture_error(document):
    try:
        FixtureCapacityService(document)
    except MalformedFixtureError:
        pass
