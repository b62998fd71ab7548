from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import replace
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import edisco.topology as topology
from edisco.discovery import EdgeServer, FixtureWhois
from edisco.errors import EmptyFixtureError, EmptyInputError, MalformedFixtureError
from edisco.rounds import _parse_json, discover_phase
from edisco.simharness import ScenarioSpec, generate_scenario
from edisco.topology import (
    AggregationTree,
    Hop,
    ProbedPath,
    SubnetNode,
    address_int,
    build_tree,
    compute_centrality,
    export_dot,
    group_subnet,
    ingest_recorded_paths,
    map_in_threads,
    parse_subnets,
    paths_to_document,
    subnet_sort_key,
)
from edisco.zonefile import Transport, parse_zone

from conftest import make_path, mutated, random_paths, small_bundle

ROOT = "10.0.0.1"


def scan_count(tree: AggregationTree, subnet: str) -> int:
    # Independent oracle: walk every client path and count membership the
    # slow way.
    hits = 0
    for sequence in tree.client_paths.values():
        found = False
        for s in sequence:
            if s == subnet:
                found = True
        if found:
            hits += 1
    return hits


# --- group_subnet ---


def test_group_subnet_masks_low_octet():
    assert group_subnet("192.168.121.30") == "192.168.121.0/24"


def test_group_subnet_merges_neighbors():
    assert group_subnet("192.168.121.30") == group_subnet("192.168.121.31")


def test_group_subnet_network_address():
    assert group_subnet("10.0.0.0") == "10.0.0.0/24"


def test_group_subnet_other_prefix():
    assert group_subnet("192.168.121.30", prefix_len=16) == "192.168.0.0/16"


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_group_subnet_idempotent(packed):
    import ipaddress

    address = str(ipaddress.IPv4Address(packed))
    subnet = group_subnet(address)
    network_address = subnet.split("/")[0]
    assert group_subnet(network_address) == subnet


# --- Hop / ProbedPath ---


def test_hop_rtt_without_address_rejected():
    with pytest.raises(ValueError):
        Hop(address=None, rtt_ms=3.0)


def test_unknown_hop_is_not_known():
    assert not Hop().known
    assert Hop(address="10.0.0.1").known


def test_path_complete_when_last_hop_is_client():
    p = make_path("172.16.0.9", "10.1.0.1")
    assert not p.truncated
    assert p.known_addresses == ["10.1.0.1", "172.16.0.9"]


def test_path_truncated_when_client_never_reached():
    p = make_path("172.16.0.9", "10.1.0.1", "10.2.0.1", complete=False)
    assert p.truncated


def test_path_truncated_when_all_hops_unknown():
    p = make_path("172.16.0.9", None, None, complete=False)
    assert p.truncated
    assert p.known_addresses == []


# --- ingest / serialize ---


def test_ingest_two_entries():
    doc = paths_to_document(
        [make_path("172.16.0.1", "10.1.0.1"), make_path("172.16.1.1", "10.1.0.1")]
    )
    assert len(ingest_recorded_paths(doc)) == 2


@pytest.mark.parametrize(
    "indices, hop",
    [([0, 2], 0), ([1, -1], 1), ([1, 3], 1), (["1", 2], 0), ([None, 2], 0), ([1, 2.5], 1), ([1, ...], 1)],
    ids=["zero", "negative", "gap", "string", "null", "fraction", "missing"],
)
def test_ingest_refuses_a_hop_index_that_is_not_its_position(indices, hop):
    """A hop's TTL is its position, so a trace's "index" must run 1..n in
    order; the refusal names the entry and the hop, counted from 0. `...`
    leaves the key out."""
    hops = [{"address": "10.1.0.1", "rtt_ms": 1.0}, {"address": "172.16.0.9", "rtt_ms": 2.0}]
    for raw, index in zip(hops, indices):
        if index is not ...:
            raw["index"] = index
    with pytest.raises(MalformedFixtureError, match=f"^entry 0, hop {hop}: 'index' must be {hop + 1}, got "):
        ingest_recorded_paths([{"client": "172.16.0.9", "hops": hops}])


def test_ingest_rejects_out_of_order_indices():
    doc = [
        {
            "client": "172.16.0.1",
            "hops": [
                {"index": 2, "address": "10.1.0.1", "rtt_ms": 1.0},
                {"index": 1, "address": "172.16.0.1", "rtt_ms": 2.0},
            ],
        }
    ]
    with pytest.raises(MalformedFixtureError):
        ingest_recorded_paths(doc)


def test_ingest_refuses_a_conflicting_duplicate_and_keeps_an_identical_one():
    first = make_path("172.16.0.9", "10.1.0.1")
    other = make_path("172.16.1.1", "10.1.0.1")
    doc = paths_to_document([first, other, first])
    assert ingest_recorded_paths(doc) == [first, other, first]
    doc += paths_to_document([make_path("172.16.0.9", "10.2.0.1")])
    with pytest.raises(MalformedFixtureError) as err:
        ingest_recorded_paths(doc)
    assert str(err.value) == "entry 3: conflicting duplicate path for client 172.16.0.9, first in entry 0"


def test_ingest_rejects_empty_fixture():
    with pytest.raises(EmptyFixtureError):
        ingest_recorded_paths([])


def test_ingest_rejects_non_list():
    with pytest.raises(MalformedFixtureError):
        ingest_recorded_paths({"client": "x"})


def test_ingest_error_cites_location():
    doc = [
        {"client": "172.16.0.1", "hops": [{"index": 1, "address": "10.1.0.1"}]},
        {"client": "172.16.0.2", "hops": [{"index": 1, "address": "not-an-ip"}]},
    ]
    with pytest.raises(MalformedFixtureError) as err:
        ingest_recorded_paths(doc)
    assert "entry 1" in str(err.value)
    # entries whose fields are missing or of the wrong type
    for entry in ("x", {"hops": []}, {**doc[0], "client": 5}, {**doc[0], "hops": {}}):
        with pytest.raises(MalformedFixtureError, match="entry 1"):
            ingest_recorded_paths([doc[0], entry])


TRACE_TEXT = st.sampled_from(["10.1.0.1", "172.16.0.9"] * 4 + ["010.1.0.1", "x", None, 7, ["10.1.0.1"]])


@st.composite
def trace_documents(draw):
    """Trace entries whose hops are mostly well formed. Addresses come from
    a pool of one to three values, so the same text recurs within and
    across entries."""
    pool = draw(st.lists(TRACE_TEXT, min_size=1, max_size=3)) + [None]
    document = []
    for _ in range(draw(st.integers(1, 4))):
        hops = []
        for position in range(1, draw(st.sampled_from([1, 2, 3, 4] * 4 + [0])) + 1):
            address = draw(st.sampled_from(pool))
            hop = {
                "index": draw(st.sampled_from([position] * 12 + [0, -1, position + 1, float(position), str(position), True])),
                "address": address,
                "rtt_ms": draw(st.sampled_from([None] * 9 + [1.5])) if address is None else 1.5,
            }
            if draw(st.integers(0, 19)) == 0:
                del hop["index"]
            hops.append(hop)
        document.append({"client": draw(st.sampled_from(["172.16.0.9", "10.1.0.1", "x"])), "hops": hops})
    return document


def build_directly(document):
    """Each entry's hops checked and built one by one: the paths, or the
    message ingest must give for the first failure. A hop's index passes
    only as a number equal to its 1-based position, checked before the
    Hop is built; a path can also fail as a client's path whose known
    addresses differ from its first path's."""
    paths = []
    for i, entry in enumerate(document):
        hops = []
        for j, raw in enumerate(entry["hops"]):
            index = raw.get("index")
            if not (isinstance(index, (int, float)) and index == j + 1):
                return f"entry {i}, hop {j}: 'index' must be {j + 1}, got {index!r}"
            try:
                hops.append(Hop(address=raw.get("address"), rtt_ms=raw.get("rtt_ms")))
            except (ValueError, TypeError) as exc:
                return f"entry {i}, hop {j}: {exc}"
        try:
            path = ProbedPath(client=entry["client"], hops=tuple(hops))
        except (ValueError, TypeError) as exc:
            return f"entry {i}: {exc}"
        first = next((k for k, p in enumerate(paths) if p.client == path.client), i)
        if first != i and paths[first].known_addresses != path.known_addresses:
            return f"entry {i}: conflicting duplicate path for client {path.client}, first in entry {first}"
        paths.append(path)
    return paths


@pytest.mark.fuzz
@given(trace_documents())
@example([{"client": "172.16.0.9", "hops": [
    {"index": 1, "address": "10.1.0.1", "rtt_ms": None},
    {"index": 0, "address": "10.1.0.1", "rtt_ms": 1.5},
]}])
@example([{"client": "172.16.0.9", "hops": [
    {"index": True, "address": "10.1.0.1", "rtt_ms": 1.5},
    {"index": 2.0, "address": "172.16.0.9", "rtt_ms": 2.5},
]}])  # numbers equal to the position pass, as they always have
def test_ingest_fails_exactly_when_direct_construction_fails(document):
    expected = build_directly(document)
    if isinstance(expected, str):
        with pytest.raises(MalformedFixtureError) as err:
            ingest_recorded_paths(document)
        assert str(err.value) == expected
    else:
        assert ingest_recorded_paths(document) == expected


JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=2)


def ingest_text(text: str):
    """The paths a trace file's text reads to, or the message it is refused with."""
    try:
        return ingest_recorded_paths(_parse_json("traces.json", text.encode()))
    except MalformedFixtureError as exc:
        return str(exc)


@pytest.mark.fuzz
@given(
    trace_documents(),
    st.sampled_from([None, 0, 2, "\t"]),
    st.tuples(JSON_SPACE, JSON_SPACE, JSON_SPACE, JSON_SPACE),
)
def test_any_json_layout_ingests_like_the_compact_text(document, indent, space):
    """Bundles are written compact; files of any other JSON layout, such as
    the indented ones earlier versions wrote, read to the same paths."""
    compact = json.dumps(document, sort_keys=True, separators=(",", ":"))
    separators = (space[0] + "," + space[1], space[2] + ":" + space[3])
    laid_out = json.dumps(document, indent=indent, separators=separators)
    assert ingest_text(laid_out) == ingest_text(compact)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12,
)
JSON_OR_ADDRESS = JSON_VALUES | st.sampled_from(["10.1.0.1", "172.16.0.9"])
JSON_HOP = st.fixed_dictionaries(
    {"index": JSON_VALUES | st.integers(1, 3), "address": JSON_OR_ADDRESS, "rtt_ms": JSON_VALUES}
)
JSON_ENTRY = JSON_VALUES | st.fixed_dictionaries(
    {"client": JSON_OR_ADDRESS, "hops": st.lists(JSON_HOP | JSON_VALUES, max_size=4) | JSON_VALUES}
)


@pytest.mark.fuzz
@given(JSON_VALUES | st.lists(JSON_ENTRY, max_size=4))
def test_ingest_raises_only_declared_errors(document):
    try:
        ingest_recorded_paths(document)
    except (MalformedFixtureError, EmptyFixtureError):
        pass


def test_paths_round_trip_through_document():
    paths = random_paths(seed=7)
    again = ingest_recorded_paths(paths_to_document(paths))
    assert again == paths


# --- build_tree ---


def test_tree_and_digest_trust_the_checked_addresses(monkeypatch):
    """Hop and ProbedPath checked every address they carry, so grouping,
    centrality and the digest read them without address_int. The root is
    the one address build_tree takes unchecked from its caller."""
    bundle = generate_scenario(ScenarioSpec(clients=100, seed=42))
    paths = ingest_recorded_paths(bundle.traces)
    expected = compute_centrality(build_tree(paths, bundle.root_address)).digest()
    calls = []

    def counted(text):
        calls.append(text)
        return real(text)

    real = topology.address_int
    monkeypatch.setattr(topology, "address_int", counted)
    tree = compute_centrality(build_tree(paths, bundle.root_address))
    assert tree.digest() == expected
    assert calls == [bundle.root_address]


def test_minimal_tree():
    tree = build_tree([make_path("172.16.0.9", "10.1.0.1")], ROOT)
    assert len(tree.nodes) == 3
    assert len(tree.edges) == 2
    assert list(tree.client_paths) == ["172.16.0.9"]
    assert tree.client_paths["172.16.0.9"] == (
        "10.0.0.0/24",
        "10.1.0.0/24",
        "172.16.0.0/24",
    )


def test_shared_hop_has_two_children():
    tree = build_tree(
        [
            make_path("172.16.0.9", "10.1.0.1"),
            make_path("172.16.1.9", "10.1.0.1"),
        ],
        ROOT,
    )
    shared = "10.1.0.0/24"
    children = {child for parent, child in tree.edges if parent == shared}
    assert children == {"172.16.0.0/24", "172.16.1.0/24"}
    # the shared hop appears once
    assert sum(1 for s in tree.nodes if s == shared) == 1


def test_consecutive_same_subnet_hops_collapse():
    tree = build_tree(
        [make_path("172.16.0.9", "192.168.121.30", "192.168.121.31")], ROOT
    )
    node = tree.nodes["192.168.121.0/24"]
    assert node.member_addresses == {"192.168.121.30", "192.168.121.31"}
    assert ("192.168.121.0/24", "192.168.121.0/24") not in tree.edges


def test_unknown_hops_splice_neighbors():
    tree = build_tree([make_path("172.16.0.9", "10.1.0.1", None, "10.3.0.1")], ROOT)
    assert ("10.1.0.0/24", "10.3.0.0/24") in tree.edges
    assert len(tree.nodes) == 4


def test_truncated_path_contributes_hops_but_no_client():
    tree = build_tree(
        [
            make_path("172.16.0.9", "10.1.0.1"),
            make_path("172.16.9.9", "10.1.0.1", "10.2.0.1", complete=False),
        ],
        ROOT,
    )
    assert "172.16.9.9" not in tree.client_paths
    assert "10.2.0.0/24" in tree.nodes
    assert not tree.nodes["10.2.0.0/24"].is_client


def test_duplicate_identical_client_paths_collapse():
    p = make_path("172.16.0.9", "10.1.0.1")
    tree = build_tree([p, p], ROOT)
    assert len(tree.client_paths) == 1


def test_duplicate_conflicting_client_paths_rejected():
    with pytest.raises(ValueError):
        build_tree(
            [
                make_path("172.16.0.9", "10.1.0.1"),
                make_path("172.16.0.9", "10.2.0.1"),
            ],
            ROOT,
        )


def test_client_inside_root_subnet_is_legal():
    tree = build_tree([make_path("10.0.0.77")], ROOT)
    assert tree.root.is_client
    assert tree.client_paths["10.0.0.77"] == ("10.0.0.0/24",)


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        build_tree([], ROOT)


def test_build_tree_permutation_invariant():
    paths = random_paths(seed=3)
    reference = compute_centrality(build_tree(paths, ROOT)).to_document()
    for seed in range(5):
        shuffled = list(paths)
        random.Random(seed).shuffle(shuffled)
        assert compute_centrality(build_tree(shuffled, ROOT)).to_document() == reference


def reference_tree(paths, root: str, prefix_len: int) -> dict:
    """build_tree and compute_centrality the plain way, with IPv4Network:
    every node's members, the edges, the client paths, the client nodes and
    every node's centrality."""

    def subnet(address):
        return str(IPv4Network(f"{address}/{prefix_len}", strict=False))

    members = {subnet(root): {root}}
    edges, client_paths, clients = set(), {}, set()
    for path in paths:  # a repeated entry for a client adds nothing new
        sequence = [subnet(root)]
        for hop in path.hops:
            if hop.address is not None:
                members.setdefault(subnet(hop.address), set()).add(hop.address)
                if subnet(hop.address) != sequence[-1]:
                    sequence.append(subnet(hop.address))
        for i in range(len(sequence) - 1):
            edges.add((sequence[i], sequence[i + 1]))
        if not path.truncated:
            clients.add(subnet(path.client))
            client_paths[path.client] = tuple(sequence)
    centrality = {s: sum(s in p for p in client_paths.values()) for s in members}
    return {
        "members": members,
        "edges": edges,
        "client_paths": client_paths,
        "clients": clients,
        "centrality": centrality,
    }


@st.composite
def path_sets(draw):
    """(paths, root, prefix_len): a few clients whose hops come from a small
    pool of addresses near the root and near two other networks, so subnets
    repeat along a path with others in between, and a client may sit in the
    root's subnet. Hops may be unknown, probes may stop short, and a client
    may be probed twice with the same result."""
    prefix_len = draw(st.integers(0, 32))
    bases = draw(st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3))
    near = st.builds(
        lambda base, low: str(IPv4Address(base ^ low)), st.sampled_from(bases), st.integers(0, 0x1FF)
    )
    root = str(IPv4Address(bases[0]))
    pool = draw(st.lists(near, min_size=1, max_size=6, unique=True))
    hops = st.lists(st.none() | st.sampled_from(pool), min_size=1, max_size=6)
    clients = draw(st.lists(near, min_size=1, max_size=6, unique=True))
    paths = [make_path(c, *draw(hops), complete=draw(st.booleans())) for c in clients]
    paths += draw(st.lists(st.sampled_from(paths), max_size=2))
    return paths, root, prefix_len


@given(path_sets())
@example(
    (
        [
            # the 10.1.0.0/24 subnet twice, with 10.2.0.0/24 and an unknown hop between
            make_path("172.16.0.9", "10.1.0.1", None, "10.2.0.1", "10.1.0.2"),
            make_path("10.0.0.7", "10.1.0.1"),  # a client in the root's subnet
            make_path("172.16.1.9", "10.2.0.1", None, complete=False),
        ],
        ROOT,
        24,
    )
)
def test_build_tree_and_centrality_match_a_plain_reference(case):
    paths, root, prefix_len = case
    tree = compute_centrality(build_tree(paths, root, prefix_len))
    assert reference_tree(paths, root, prefix_len) == {
        "members": {s: n.member_addresses for s, n in tree.nodes.items()},
        "edges": tree.edges,
        "client_paths": tree.client_paths,
        "clients": {s for s, n in tree.nodes.items() if n.is_client},
        "centrality": {s: n.centrality for s, n in tree.nodes.items()},
    }


# --- centrality ---


def test_centrality_star():
    tree = build_tree(
        [make_path(f"172.16.{i}.1") for i in range(3)],
        ROOT,
    )
    compute_centrality(tree)
    assert tree.root.centrality == 3
    for i in range(3):
        assert tree.nodes[f"172.16.{i}.0/24"].centrality == 1


def test_centrality_shared_trunk():
    tree = build_tree(
        [
            make_path("172.16.0.9", "10.1.0.1"),
            make_path("172.16.1.9", "10.1.0.1"),
        ],
        ROOT,
    )
    compute_centrality(tree)
    assert tree.nodes["10.1.0.0/24"].centrality == 2


def test_centrality_matches_independent_path_scan():
    for seed in range(10):
        tree = compute_centrality(build_tree(random_paths(seed), ROOT))
        for subnet, node in tree.nodes.items():
            assert node.centrality == scan_count(tree, subnet), subnet


def test_centrality_idempotent():
    tree = compute_centrality(build_tree(random_paths(seed=11), ROOT))
    before = tree.to_document()
    compute_centrality(tree)
    assert tree.to_document() == before


def test_root_centrality_counts_reachable_clients():
    tree = compute_centrality(build_tree(random_paths(seed=5), ROOT))
    assert tree.root.centrality == len(tree.client_paths)
    assert sum(1 for n in tree.nodes.values() if n.is_client) == len(
        {group_subnet(c) for c in tree.client_paths}
    )


def test_collapse_preserves_centrality():
    # Same topology written twice: once with both member addresses of the
    # shared subnet on the path, once with just one. Centralities must agree.
    doubled = [
        make_path("172.16.0.9", "192.168.121.30", "192.168.121.31"),
        make_path("172.16.1.9", "192.168.121.30", "192.168.121.31"),
    ]
    single = [
        make_path("172.16.0.9", "192.168.121.30"),
        make_path("172.16.1.9", "192.168.121.30"),
    ]
    a = compute_centrality(build_tree(doubled, ROOT))
    b = compute_centrality(build_tree(single, ROOT))
    assert {s: n.centrality for s, n in a.nodes.items()} == {
        s: n.centrality for s, n in b.nodes.items()
    }


# --- document round-trip / digest ---


def test_tree_document_round_trip():
    tree = compute_centrality(build_tree(random_paths(seed=2), ROOT))
    again = AggregationTree.from_document(tree.to_document())
    assert again.to_document() == tree.to_document()
    assert again.digest() == tree.digest()


# text that JSON must escape or that is not ASCII: quotes, backslashes,
# control characters, non-ASCII letters, astral characters, lone surrogates
awkward_text = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800\udfff'),
    max_size=12,
)
addresses = st.integers(0, 2**32 - 1).map(lambda n: str(IPv4Address(n)))
edge_servers = st.builds(
    EdgeServer,
    zone=awkward_text,
    protocol=st.sampled_from(Transport),
    priority=st.integers(0, 0xFFFF),
    weight=st.integers(0, 0xFFFF),
    address=addresses,
    port=st.integers(1, 0xFFFF),
)


SHARED_SERVER = EdgeServer(
    zone="edgeco.test", protocol=Transport.TCP, priority=10, weight=5, address="10.0.0.30", port=8080
)


@st.composite
def trees(draw):
    """An AggregationTree built field by field: node domains and edge server
    zones hold awkward text, as whois fixture values reach the digest
    unchecked; there may be no node but the root."""
    prefix_len = draw(st.integers(0, 32))
    subnets = draw(
        st.lists(addresses.map(lambda a: f"{a}/{prefix_len}"), min_size=1, max_size=6, unique=True)
    )
    nodes = {
        subnet: SubnetNode(
            subnet=subnet,
            member_addresses=draw(st.sets(addresses, max_size=4)),
            domains=draw(st.sets(awkward_text, max_size=3)),
            centrality=draw(st.integers(0, 10**6)),
            is_client=draw(st.booleans()),
            edge_servers=draw(st.lists(edge_servers, max_size=3)),
        )
        for subnet in subnets
    }
    return AggregationTree(
        root_address=draw(addresses),
        root_subnet=subnets[0],
        prefix_len=prefix_len,
        nodes=nodes,
        edges=draw(st.sets(st.tuples(st.sampled_from(subnets), st.sampled_from(subnets)), max_size=6)),
        client_paths=draw(
            st.dictionaries(addresses, st.lists(st.sampled_from(subnets), min_size=1).map(tuple), max_size=4)
        ),
    )


@pytest.mark.fuzz
@given(trees())
@example(
    AggregationTree(
        root_address=ROOT,
        root_subnet="10.0.0.0/24",
        prefix_len=24,
        nodes={"10.0.0.0/24": SubnetNode(subnet="10.0.0.0/24", member_addresses={ROOT})},
        edges=set(),
        client_paths={},
    )
)
@example(  # a node with no members
    AggregationTree(
        root_address=ROOT,
        root_subnet="10.0.0.0/24",
        prefix_len=24,
        nodes={
            "10.0.0.0/24": SubnetNode(subnet="10.0.0.0/24", member_addresses={ROOT}),
            "10.1.0.0/24": SubnetNode(subnet="10.1.0.0/24"),
        },
        edges={("10.0.0.0/24", "10.1.0.0/24")},
        client_paths={},
    )
)
@example(  # one server on two nodes, and an equal second instance on the first
    AggregationTree(
        root_address=ROOT,
        root_subnet="10.0.0.0/24",
        prefix_len=24,
        nodes={
            "10.0.0.0/24": SubnetNode(
                subnet="10.0.0.0/24",
                member_addresses={ROOT},
                edge_servers=[SHARED_SERVER, replace(SHARED_SERVER)],
            ),
            "10.1.0.0/24": SubnetNode(subnet="10.1.0.0/24", edge_servers=[SHARED_SERVER]),
        },
        edges=set(),
        client_paths={"10.1.0.9": ("10.0.0.0/24", "10.1.0.0/24")},
    )
)
@example(  # edges are not checked on load: an endpoint may need escaping
    AggregationTree.from_document(
        {
            "format": "edisco-tree/1",
            "root_address": ROOT,
            "root_subnet": "10.0.0.0/24",
            "prefix_len": 24,
            "nodes": [
                {
                    "subnet": "10.0.0.0/24",
                    "members": [ROOT],
                    "domains": [],
                    "centrality": 0,
                    "is_client": False,
                    "edge_servers": [],
                }
            ],
            "edges": [["10.0.0.0/24", 'say "h\u00e9"']],
            "client_paths": {},
        }
    )
)
def test_digest_hashes_the_canonical_document_text(tree):
    """digest() writes the text itself; it must be the bytes json.dumps
    writes for to_document(), the tree's export."""
    canonical = json.dumps(tree.to_document(), sort_keys=True, separators=(",", ":"))
    assert tree.digest() == hashlib.sha256(canonical.encode()).hexdigest()


def test_from_document_rejects_unknown_format():
    with pytest.raises(MalformedFixtureError):
        AggregationTree.from_document({"format": "something-else"})


def _keep_only_format(doc):
    for key in list(doc):
        if key != "format":
            del doc[key]


def _break_nodes_type(doc):
    doc["nodes"] = {"10.1.0.0/24": {}}


def _drop_nodes(doc):
    del doc["nodes"]


def _break_node_field(doc):
    doc["nodes"][0]["centrality"] = "3"


def _path_off_root(doc):
    doc["client_paths"]["172.16.0.9"] = doc["client_paths"]["172.16.0.9"][1:]


def _path_through_unknown_subnet(doc):
    doc["client_paths"]["172.16.0.9"].insert(1, "10.9.9.0/24")


def _path_ends_elsewhere(doc):
    doc["client_paths"]["172.16.0.9"].append("10.1.0.0/24")


def _member_is_no_address(doc):
    doc["nodes"][0]["members"].append("10.0.0.256")


def _subnet_is_no_prefix(doc):
    doc["nodes"][1]["subnet"] = "10.1.0.1/24"


def _edge_server_is_no_address(doc):
    doc["nodes"][1]["edge_servers"] = [
        {"zone": "edgeco.test", "protocol": "tcp", "priority": 10, "weight": 10,
         "address": "x", "port": 8080}
    ]


def _centrality_is_true(doc):
    doc["nodes"][0]["centrality"] = True  # JSON true is no number


def _prefix_len_is_true(doc):
    doc["prefix_len"] = True


MALFORMED_TREES = [
    (_keep_only_format, "is missing"),
    (_drop_nodes, "'nodes' is missing"),
    (_break_nodes_type, "'nodes' is missing or not of type list"),
    (_break_node_field, "'centrality' is missing or not of type int"),
    (_centrality_is_true, "'centrality' is missing or not of type int"),
    (_prefix_len_is_true, "'prefix_len' is missing or not of type int"),
    (_path_off_root, "does not start at 10.0.0.0/24"),
    (_path_through_unknown_subnet, "10.9.9.0/24 is not a node"),
    (_path_ends_elsewhere, "does not end at the client's subnet"),
    (_member_is_no_address, "tree node 0: '10.0.0.256' is not an IPv4 address"),
    (_subnet_is_no_prefix, "tree node 1: '10.1.0.1/24' is not a canonical IPv4 prefix"),
    (_edge_server_is_no_address, "edge server: 'x' is not an IPv4 address"),
]


@pytest.mark.parametrize(
    "damage, message",
    [pytest.param(d, m, id=d.__name__.lstrip("_")) for d, m in MALFORMED_TREES],
)
def test_from_document_rejects_malformed_tree(damage, message):
    tree = build_tree(
        [make_path("172.16.0.9", "10.1.0.1"), make_path("172.16.1.9", "10.1.0.1")], ROOT
    )
    doc = tree.to_document()
    damage(doc)
    with pytest.raises(MalformedFixtureError, match=message):
        AggregationTree.from_document(doc)


OCTET_TEXT = st.one_of(
    st.just("0"), st.integers(0, 255).map(str), st.from_regex(r"[0-9]{1,4}", fullmatch=True)
)
LENGTH_TEXT = st.one_of(
    st.integers(0, 32).map(str), st.from_regex(r"[0-9]{1,3}", fullmatch=True)
)


@given(st.lists(OCTET_TEXT, min_size=3, max_size=5), LENGTH_TEXT)
@example(["240", "0", "1", "0"], "24")
@example(["240", "0", "1", "5"], "24")
@example(["240", "0", "01", "0"], "24")
def test_parse_subnets_accepts_exactly_ipv4network_text(octets, length):
    text = ".".join(octets) + "/" + length
    try:
        canonical = str(IPv4Network(text)) == text
    except ValueError:
        canonical = False
    try:
        accepted = parse_subnets([text]) == {text}
    except ValueError:
        accepted = False
    assert accepted == canonical


# --- address and prefix arithmetic, with ipaddress as the oracle ---

ADDRESS_TEXT = st.integers(0, 2**32 - 1).map(lambda packed: str(IPv4Address(packed)))
NEAR_MISS_ADDRESS = st.builds(
    lambda octets, around: around[0] + ".".join(octets) + around[1],
    st.lists(
        OCTET_TEXT | st.sampled_from(["256", "00", "010", "\uff11", "\uff12\uff15\uff15"]),
        min_size=3,
        max_size=5,
    ),
    st.sampled_from([("", ""), (" ", ""), ("", " "), ("", "\n"), ("\t", "")]),
)


@given(st.one_of(st.text(), ADDRESS_TEXT, NEAR_MISS_ADDRESS))
@example("1.2.3")
@example("010.0.0.1")
@example("1.2.3.4\n")
@example(" 1.2.3.4")
@example("1.2.3.\uff14")
@example("255.255.255.255")
def test_address_int_accepts_exactly_what_ipv4address_accepts(text):
    try:
        expected = int(IPv4Address(text))
    except ValueError:
        with pytest.raises(ValueError):
            address_int(text)
    else:
        assert address_int(text) == expected


@given(st.one_of(st.integers(), st.binary(), st.none(), st.floats(), st.lists(st.integers())))
@example(3232266526)
@example(b"\xc0\xa8y\x1e")
def test_address_int_rejects_what_is_not_a_str(value):
    with pytest.raises(ValueError):
        address_int(value)


@given(ADDRESS_TEXT)
@example("0.0.0.0")
@example("255.255.255.255")
def test_group_subnet_matches_ipv4network_at_every_length(address):
    for length in range(33):
        expected = str(IPv4Network((address, length), strict=False))
        assert group_subnet(address, length) == expected
    for length in (-1, 33):
        with pytest.raises(ValueError):
            group_subnet(address, length)


@given(ADDRESS_TEXT, st.integers(0, 32))
def test_subnet_sort_key_matches_ipv4network(address, length):
    subnet = str(IPv4Network((address, length), strict=False))
    assert subnet_sort_key(subnet) == int(IPv4Network(subnet).network_address)


# --- map_in_threads ---


@pytest.mark.parametrize("width", [2, 4, 8])
def test_map_in_threads_hands_out_items_as_threads_free_up(width):
    # Items 0 and `width` are slow. A fixed share per thread (items[i::width])
    # would run both on thread 0, back to back; here an idle thread takes
    # item `width` while item 0 is still running.
    slow_s = 0.4

    def fn(item):
        time.sleep(slow_s if item in (0, width) else 0.001)
        return item * item

    items = list(range(3 * width))
    started = time.perf_counter()
    results = map_in_threads(fn, items, width)
    elapsed = time.perf_counter() - started
    assert results == [item * item for item in items]
    assert slow_s <= elapsed < 1.5 * slow_s


def test_map_in_threads_raises_after_the_other_threads_finish():
    called = []

    def fn(item):
        called.append(item)
        if item == 3:
            raise RuntimeError("boom")
        return item

    with pytest.raises(RuntimeError, match="boom"):
        map_in_threads(fn, list(range(10)), 2)
    assert sorted(called) == list(range(10))


def test_map_in_threads_runs_each_item_once_under_fast_switching():
    items = list(range(20_000))
    seen = []

    def fn(item):
        seen.append(item)
        return 3 * item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = map_in_threads(fn, items, 8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == items
    assert results == [3 * item for item in items]


@pytest.mark.parametrize("items, width", [([], 4), ([7], 4), ([1, 2, 3], 1)])
def test_map_in_threads_small_inputs(items, width):
    assert map_in_threads(lambda item: -item, items, width) == [-item for item in items]


# --- export_dot ---


def test_dot_statement_counts():
    tree = compute_centrality(build_tree([make_path("172.16.0.9", "10.1.0.1")], ROOT))
    dot = export_dot(tree)
    assert dot.count("[") == 3  # one attribute block per node
    assert dot.count("->") == 2


def test_dot_deterministic():
    paths = random_paths(seed=4)
    a = export_dot(compute_centrality(build_tree(paths, ROOT)))
    b = export_dot(compute_centrality(build_tree(list(reversed(paths)), ROOT)))
    assert a == b


def test_dot_marks_clients_and_root():
    tree = compute_centrality(build_tree([make_path("172.16.0.9", "10.1.0.1")], ROOT))
    dot = export_dot(tree)
    assert "shape=box" in dot
    assert "fillcolor=gold" in dot


# --- the 100-client reference topology ---


def hundred_client_paths() -> list[ProbedPath]:
    # 10 trunk routers, 10 clients behind each; every count below is
    # checkable by hand: 1 root + 10 trunks + 100 client subnets,
    # edges 10 + 100.
    paths = []
    for trunk in range(10):
        for leaf in range(10):
            client = f"172.16.{trunk * 10 + leaf}.5"
            paths.append(make_path(client, f"10.{trunk + 1}.0.1"))
    return paths


def test_hundred_client_topology_counts():
    doc = paths_to_document(hundred_client_paths())
    paths = ingest_recorded_paths(doc)
    assert len(paths) == 100
    tree = compute_centrality(build_tree(paths, ROOT))
    assert len(tree.nodes) == 111
    assert len(tree.edges) == 110
    assert tree.root.centrality == 100
    for trunk in range(10):
        assert tree.nodes[f"10.{trunk + 1}.0.0/24"].centrality == 10
    assert all(
        tree.nodes[group_subnet(c)].centrality == 1 for c in tree.client_paths
    )


def annotated_tree_document() -> dict:
    """The small bundle's tree after discovery, so that its nodes carry
    domains and edge servers."""
    bundle = small_bundle()
    tree = compute_centrality(build_tree(ingest_recorded_paths(bundle.traces), bundle.root_address))
    discover_phase(tree, parse_zone(bundle.zone_text), FixtureWhois(bundle.whois))
    return tree.to_document()


@pytest.mark.fuzz
@given(mutated(annotated_tree_document()))
def test_tree_document_raises_only_malformed_fixture_error(document):
    try:
        AggregationTree.from_document(document)
    except MalformedFixtureError:
        pass
