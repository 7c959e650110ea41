import itertools
from fractions import Fraction as F
from random import Random

import networkx as nx
import pytest

from matchcore import analysis, games
from matchcore.analysis import GameAnalysis, worth
from matchcore.bundled import load_instance
from matchcore.games import (
    VARIANTS,
    CapExceeded,
    _connected_masks,
    connected_coalitions,
    induce_subgame,
    make_game,
    validate_game,
)

from flood_fill import as_mask, flood_fill_coalitions
from gamegen import random_assignment, random_b_game, random_general


def test_path5_is_valid():
    assert validate_game(load_instance("path5")) == []


def test_negative_weight_rejected():
    g = make_game("assignment", ["u"], ["v"], [("u", "v", F(-1))])
    assert "negative weight on edge u~v" in validate_game(g)
    g = make_game("assignment", ["u"], ["v"], [("u", "v", F(0))])
    assert validate_game(g) == []


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


def structure_game(rng, variant, n, density):
    """A valid ``variant`` game on n vertices, each edge drawn with
    probability ``density``.  The ids sort differently as strings and as
    numbers (v10 < v2), and each side is listed in shuffled order, so the
    masks must follow the sorted ids, not the declared order."""
    if variant == "general-matching":
        left, right = [], [f"v{i}" for i in range(1, n + 1)]
        pairs = [(a, b) for i, a in enumerate(right) for b in right[i + 1:]]
    else:
        k = rng.randint(1, n - 1)
        left = [f"u{i}" for i in range(1, k + 1)]
        right = [f"v{i}" for i in range(1, n - k + 1)]
        pairs = [(a, b) for a in left for b in right]
    rng.shuffle(left)
    rng.shuffle(right)
    edges = [(a, b, 1) for a, b in pairs if rng.random() < density]
    return make_game(variant, left, right, edges)


TRIANGLES = [(a, b, 1) for t in ("abc", "xyz") for a, b in zip(t, t[1:] + t[0])]
STARS = [("u1", "v1", 1), ("u1", "v2", 1), ("u2", "v3", 1)]
# A single vertex, and disconnected games whose components are not blocks
# of consecutive ids.
FIXED = {
    "general-matching": [
        make_game("general-matching", [], ["solo"], []),
        make_game("general-matching", [], ["c", "x", "a", "b", "z", "y", "q"], TRIANGLES),
    ],
    "b-constrained": [
        make_game("b-constrained", ["u2", "u1"], ["v3", "v1", "v2"], STARS, vertex_upper=2),
    ],
}


def enumerator_games(variant):
    rng = Random(f"masks:{variant}")
    cases = [
        structure_game(rng, variant, n, density)
        for density in (0.2, 0.4, 0.6, 0.8, 1.0)
        for n in (2, rng.randint(3, 10), 14)
    ]
    return cases + [structure_game(rng, variant, 7, 0.0)] + FIXED.get(variant, [])


@pytest.mark.parametrize("variant", VARIANTS)
def test_connected_masks_match_the_flood_fill(variant):
    # Independent oracle: the 2^n flood fill of tests/flood_fill.py, in
    # content and in order, on 2 to 14 vertices at densities 0.2 to 1.0,
    # on an edgeless game, on disconnected games and on a single vertex.
    cases = enumerator_games(variant)
    components = set()
    for g in cases:
        assert validate_game(g) == []
        want = flood_fill_coalitions(g)
        assert _connected_masks(g) == [as_mask(g, t) for t in want]
        assert connected_coalitions(g) == [frozenset(t) for t in want]
        graph = nx.Graph()
        graph.add_nodes_from(g.vertices)
        graph.add_edges_from(g.edge_keys)
        components.add(min(nx.number_connected_components(graph), 2))
    assert {len(g.vertices) for g in cases} >= {2, 14} and components == {1, 2}
    assert variant != "general-matching" or 1 in {len(g.vertices) for g in cases}


def long_path(n):
    ids = [f"p{i:02d}" for i in range(n)]
    return ids, make_game("general-matching", [], ids, [(a, b, 1) for a, b in zip(ids, ids[1:])])


def test_a_long_path_is_enumerated_in_its_output():
    # A path's connected sets are its 40·41/2 = 820 intervals, among 2^40
    # subsets: only an enumerator whose work follows its output finishes.
    ids, g = long_path(40)
    got = connected_coalitions(g, cap=40)
    want = sorted([tuple(ids[i:j]) for i in range(40) for j in range(i + 1, 41)])
    assert len(got) == 820
    assert got == [frozenset(t) for t in want]


def test_the_cap_is_checked_before_any_set_is_produced(monkeypatch):
    # Over the cap, neither connected_coalitions nor a session's scan
    # starts the enumerator.
    _, g = long_path(40)
    produced = []
    for module in (games, analysis):
        monkeypatch.setattr(module, "_connected_masks", lambda g: produced.append(g) or [])
    with pytest.raises(CapExceeded):
        connected_coalitions(g, cap=39)
    a = GameAnalysis(g, budget_cap=40)
    with pytest.raises(CapExceeded):
        a.system
    with pytest.raises(CapExceeded):
        a.membership(dict.fromkeys(g.vertices, F(1, 2)))
    assert produced == []


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
