"""Coalition worths of a session against independent oracles.

``GameAnalysis.coalition_worths`` reads every worth from the session's
one table, the residual-capacity ``matchings.ResidualTable``, on all
six variants; on single-use games its states are vertex subsets.
Oracles:

* ``analysis.worth(g, s)``: the full enumeration of the induced subgame;
* ``worth_oracles.searched_worth``: the listing search of each
  coalition's own subgame, None answers included;
* networkx ``max_weight_matching`` on general games of 12-16 vertices and
  scipy ``linear_sum_assignment`` on assignment games (weights scaled to
  integers), against the table itself;
* the b-uniform identity v_b(S) = b v(S), where v is the assignment game
  on the same graph, against the table of b >= 2.  Certificate: x -> b x
  maps the bipartite matching polytope onto
  {x >= 0, x(delta(q)) <= b, x_e <= b}; the first is
  integral (Birkhoff-von Neumann), so the LP optimum of the second is
  b v(S) and is reached at an integer point.
"""

from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from matchcore import analysis
from matchcore.analysis import GameAnalysis
from matchcore.games import (
    InfeasibleGameError,
    _connected_masks,
    _members,
    induce_subgame,
    make_game,
)
from matchcore.matchings import ResidualTable, integer_game

from gamegen import (
    rand_weight,
    random_assignment,
    random_b_game,
    random_general,
    with_vertex_floors,
)
from worth_oracles import networkx_worth, scipy_worth, searched_worth

VARIANTS = (
    "assignment",
    "general-matching",
    "b-uniform",
    "b-unconstrained",
    "b-constrained",
    "b-general",
)


def seeded_games():
    rng = Random(29)
    games = []
    for r in range(60):
        games.append(random_assignment(rng, max_side=4, density=0.6))
        games.append(random_general(rng, max_n=7, density=0.5))
        for variant in VARIANTS[2:]:
            g = random_b_game(rng, variant, with_floors=r % 2 == 1)
            if variant == "b-general" and r % 2:
                g = with_vertex_floors(rng, g)
            games.append(g)
    return games


SEEDED = seeded_games()


def test_seeded_games_cover_every_variant():
    assert len(SEEDED) >= 300
    assert {g.variant for g in SEEDED} == set(VARIANTS)


def test_every_coalition_worth_equals_the_enumerator():
    skipping = 0
    for g in SEEDED:
        a = GameAnalysis(g)
        if analysis.worth(g) is None:
            # The scan starts from the grand worth.
            with pytest.raises(InfeasibleGameError):
                list(a.coalition_worths())
            continue
        got = list(a.coalition_worths())
        assert got == [(s, analysis.worth(g, s)) for s, _ in got]
        skipping += any(w is None for _, w in got)
    assert skipping >= 5


def masks(g):
    """Each connected coalition of ``g`` and the grand coalition, as bitmasks."""
    pos = {q: p for p, q in enumerate(g.vertices)}
    ids = sorted(g.vertices, reverse=True)
    coalitions = [_members(ids, m) for m in _connected_masks(g)] + [frozenset(g.vertices)]
    return [sum([1 << pos[q] for q in s]) for s in coalitions]


def table_worth(table, mask):
    """The table's worth of the vertices set in ``mask``."""
    return table.worth(sum([x for p, x in enumerate(table.start) if mask >> p & 1]))


def test_every_coalition_worth_equals_the_listing_search():
    # All six variants, with vertex and edge floors: the session's table
    # reads against a search of each coalition's own subgame.
    skipping = 0
    for g in SEEDED:
        ig = integer_game(g)
        if searched_worth(ig, (1 << len(g.vertices)) - 1) is None:
            continue
        for s, got in GameAnalysis(g).coalition_worths():
            mask = sum([1 << p for p, q in enumerate(g.vertices) if q in s])
            want = searched_worth(ig, mask)
            assert got == (None if want is None else Fraction(want, ig.scale)), (g, s)
            skipping += want is None
    assert skipping >= 5


def test_residual_table_equals_the_listing_search():
    # Every bipartite variant, the grand coalition included, whichever
    # side the table processes; an infeasible coalition reads None.
    infeasible = 0
    for g in SEEDED:
        if g.variant == "general-matching":
            continue
        ig = integer_game(g)
        table = ResidualTable(ig, len(g.left))
        for mask in masks(g):
            want = searched_worth(ig, mask)
            assert table_worth(table, mask) == want, (g, mask)
            infeasible += want is None
    assert infeasible >= 20


def single_use(g):
    """Is every vertex and edge of ``g`` used at most once, with no floor?"""
    ig = integer_game(g)
    return set(ig.caps + ig.upper) <= {1} and not any(ig.floors + ig.lower)


def test_single_use_games_table_equals_the_listing_search():
    # Every single-use seeded game, general games and b-games with every
    # cap 1 among them, the grand coalition included: the table's states
    # are vertex subsets here.
    games = [g for g in SEEDED if single_use(g)]
    for g in games:
        ig = integer_game(g)
        table = ResidualTable(ig, len(g.left))
        for mask in masks(g):
            assert table_worth(table, mask) == searched_worth(ig, mask), (g, mask)
    assert {g.variant for g in games} >= {"assignment", "general-matching", "b-uniform"}


@pytest.mark.parametrize("mirrored", [False, True])
def test_residual_table_processes_the_side_with_fewer_states(mirrored):
    # Four vertices of cap 3 against eight of cap 1.  Processing the four
    # bounds the states by 2^4 * 2^8 = 4,096; processing the eight would
    # reach 14,084 of its bound 2^8 * 4^4.
    rng = Random(41)
    few = [f"a{i + 1}" for i in range(4)]
    many = [f"b{i + 1}" for i in range(8)]
    left, right = (many, few) if mirrored else (few, many)
    edges = [(u, v, rand_weight(rng)) for u in left for v in right]
    caps = {**{q: 3 for q in few}, **{q: 1 for q in many}}
    g = make_game("b-constrained", left, right, edges, vertex_upper=caps)
    ig = integer_game(g)
    table = ResidualTable(ig, len(g.left))
    for mask in masks(g):
        assert table_worth(table, mask) == searched_worth(ig, mask)
    assert table.states <= 4096


def table_against(g, oracle, rng, samples):
    """The table entry of the whole game and of random subsets against ``oracle``."""
    ig = integer_game(g)
    table = ResidualTable(ig, len(g.left))
    full = (1 << len(g.vertices)) - 1
    for mask in [full] + [rng.randrange(1, full) for _ in range(samples)]:
        s = frozenset(q for p, q in enumerate(g.vertices) if mask >> p & 1)
        got = Fraction(table_worth(table, mask), ig.scale)
        assert got == oracle(induce_subgame(g, s))


def large_general(rng, n):
    vs = tuple(f"v{i + 1}" for i in range(n))
    density = rng.choice((0.2, 0.4, 0.7))
    edges = [(vs[i], vs[j], rand_weight(rng))
             for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return make_game("general-matching", [], vs, edges)


@pytest.mark.parametrize("n", range(12, 17))
def test_residual_table_matches_networkx_on_general_games(n):
    rng = Random(n)
    for _ in range(3):
        table_against(large_general(rng, n), networkx_worth, rng, 40)


def test_residual_table_matches_scipy_on_assignment_games():
    rng = Random(31)
    for _ in range(30):
        g = random_assignment(rng, max_side=7, density=0.6)
        table_against(g, scipy_worth, rng, 20)


def test_b_uniform_worth_is_b_times_the_assignment_worth():
    rng = Random(37)
    checked = 0
    while checked < 40:
        g = random_b_game(rng, "b-uniform", max_b=3)
        if not g.edges:
            continue
        b = g.vertex_upper[g.vertices[0]]
        single = replace(
            g,
            variant="assignment",
            vertex_upper={q: 1 for q in g.vertices},
            edge_upper={k: 1 for k in g.edge_keys},
        )
        for s, got in GameAnalysis(g).coalition_worths():
            assert got == analysis.worth(g, s) == b * analysis.worth(single, s)
        checked += 1
