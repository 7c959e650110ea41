import itertools
from fractions import Fraction as F
from random import Random

import networkx as nx
import pytest

from matchcore.analysis import worth
from matchcore.bundled import load_instance
from matchcore.games import (
    VARIANTS,
    CapExceeded,
    connected_coalitions,
    induce_subgame,
    make_game,
    validate_game,
)

from gamegen import random_assignment, random_b_game, random_general


def test_path5_is_valid():
    assert validate_game(load_instance("path5")) == []


def test_zero_weight_rejected():
    g = make_game("assignment", ["u"], ["v"], [("u", "v", F(0))])
    assert any("non-positive weight" in v for v in validate_game(g))


def test_edge_bound_order_rejected():
    g = make_game(
        "b-general",
        ["u"],
        ["v"],
        [("u", "v", F(1))],
        edge_lower={("u", "v"): 2},
        edge_upper={("u", "v"): 1},
    )
    assert any("edge bound order" in v for v in validate_game(g))


def test_structural_violations():
    g = make_game("assignment", ["u"], ["v"], [("u", "u", F(1))])
    assert any("self-loop" in v for v in validate_game(g))
    g = make_game(
        "assignment", ["u"], ["v"], [("u", "v", F(1)), ("u", "v", F(2))]
    )
    assert any("parallel edge" in v for v in validate_game(g))
    g = make_game("assignment", ["u"], ["u"], [])
    assert any("duplicate vertex" in v for v in validate_game(g))
    g = make_game("assignment", ["u"], ["v"], [("v", "u", F(1))])
    assert any("left to right" in v for v in validate_game(g))


def test_induce_top_coalition():
    g = load_instance("tiers8")
    sub = induce_subgame(g, frozenset({"u1", "u2", "v1", "v2"}))
    assert sub.vertices == ("u1", "u2", "v1", "v2")
    assert sorted(w for _, _, w in sub.edges) == [F(100), F(100)]
    assert validate_game(sub) == []


def test_induce_identity_and_singleton():
    g = load_instance("path5")
    assert induce_subgame(g, frozenset(g.vertices)) == g
    single = induce_subgame(g, frozenset({"u1"}))
    assert single.edges == ()
    assert single.vertices == ("u1",)
    with pytest.raises(ValueError):
        induce_subgame(g, frozenset({"nope"}))


def test_connected_coalitions_capped_path():
    # Independent oracle: brute force over all nonempty subsets with a
    # connectivity check gives exactly 10 coalitions for this graph.
    g = load_instance("bpath4-uncon")
    got = [tuple(sorted(s)) for s in connected_coalitions(g)]
    assert got == [
        ("u1",),
        ("u1", "u2", "v1", "v2"),
        ("u1", "u2", "v2"),
        ("u1", "v1"),
        ("u1", "v1", "v2"),
        ("u1", "v2"),
        ("u2",),
        ("u2", "v2"),
        ("v1",),
        ("v2",),
    ]
    assert len(got) == 10


def test_connected_coalitions_trivia():
    two = make_game("general-matching", [], ["a", "b"], [("a", "b", F(1))])
    assert [tuple(sorted(s)) for s in connected_coalitions(two)] == [
        ("a",),
        ("a", "b"),
        ("b",),
    ]
    edgeless = make_game("general-matching", [], ["a", "b", "c"], [])
    assert [tuple(sorted(s)) for s in connected_coalitions(edgeless)] == [
        ("a",),
        ("b",),
        ("c",),
    ]


def test_connected_coalitions_match_networkx():
    # Independent oracle: networkx connectivity of the induced subgraph of
    # every nonempty vertex subset, in the order of the sorted member ids.
    rng = Random(13)
    games = [make_game("general-matching", [], ["solo"], [])]
    for variant in VARIANTS:
        for _ in range(6):
            if variant == "assignment":
                g = random_assignment(rng, max_side=4, density=0.35)
            elif variant == "general-matching":
                g = random_general(rng, max_n=8, density=0.3)
            else:
                g = random_b_game(rng, variant)
            games.append(g)
    isolated = 0
    for g in games:
        graph = nx.Graph()
        graph.add_nodes_from(g.vertices)
        graph.add_edges_from(g.edge_keys)
        ids = sorted(g.vertices)
        subsets = [c for r in range(1, len(ids) + 1) for c in itertools.combinations(ids, r)]
        want = sorted([c for c in subsets if nx.is_connected(graph.subgraph(c))])
        assert connected_coalitions(g) == [frozenset(c) for c in want]
        isolated += sum(1 for q in ids if graph.degree(q) == 0)
    assert {g.variant for g in games} == set(VARIANTS) and isolated >= 5


def test_connected_coalitions_cap():
    g = load_instance("path5")
    with pytest.raises(CapExceeded):
        connected_coalitions(g, cap=4)


def test_induced_subgames_stay_valid():
    rng = Random(7)
    for _ in range(25):
        g = random_b_game(rng, "b-general", with_floors=True)
        assert validate_game(g) == []
        verts = sorted(g.vertices)
        members = frozenset(q for q in verts if rng.random() < 0.5) or frozenset(
            verts[:1]
        )
        assert validate_game(induce_subgame(g, members)) == []


def test_worth_adds_over_components():
    # The inequality of any disconnected coalition is the sum of its
    # components' inequalities, which justifies enumerating connected
    # coalitions only.
    rng = Random(11)
    for _ in range(30):
        g = random_assignment(rng)
        verts = sorted(g.vertices)
        members = frozenset(q for q in verts if rng.random() < 0.6)
        if not members:
            continue
        sub = induce_subgame(g, members)
        total = worth(g, members)
        graph = nx.Graph()
        graph.add_nodes_from(sub.vertices)
        graph.add_edges_from([(i, j) for i, j, _ in sub.edges])
        parts = [worth(g, frozenset(comp)) for comp in nx.connected_components(graph)]
        assert total == sum(parts, start=F(0))
