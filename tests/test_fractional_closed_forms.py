"""The fractional optimum without an LP, against independent oracles.

A session that does not hold the dual reads the fractional optimum from
the polytope's vertex structure.  A bipartite variant's polytope is
integral (a totally unimodular matrix with integral bounds), so its
fractional optimum is the worth.  A general game's is half the best
weight of its bipartite double cover, found by the Hungarian method
(``matchings.double_cover_optimum``) and certified in the game's own
terms.  Both are compared here with the cold primal LP
(``fractional_optimum``, a fresh phase 1 on ``build_primal_lp``), the
double cover also with scipy's HiGHS (floats, test-only) and closed
forms.  Tampered potentials and assignments, each breaking one check of
the certificate, must be refused.
"""

from fractions import Fraction as F
from random import Random

import pytest

from matchcore import matchings
from matchcore.analysis import GameAnalysis
from matchcore.bundled import load_instance
from matchcore.games import InfeasibleGameError, make_game
from matchcore.matchings import (
    SolverInvariantError,
    double_cover_optimum,
    fractional_optimum,
    integer_game,
)

from gamegen import random_assignment, random_b_game, random_general, with_vertex_floors

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")

GENERAL = [random_general(Random(s), max_n=9, density=0.6) for s in range(600)]


def unit_complete(n):
    vs = [f"v{i + 1}" for i in range(n)]
    edges = [(vs[i], vs[j], 1) for i in range(n) for j in range(i + 1, n)]
    return make_game("general-matching", [], vs, edges, name=f"K{n}")


def cover(g):
    return double_cover_optimum(integer_game(g))


def scipy_fractional(g):
    """The fractional matching LP's optimum by HiGHS: one degree row per
    vertex, every edge in [0, 1]."""
    from scipy.optimize import linprog

    rows = [[float(q in (i, j)) for i, j, _ in g.edges] for q in g.vertices]
    ref = linprog(
        [-float(w) for *_, w in g.edges],
        A_ub=rows,
        b_ub=[1.0] * len(rows),
        bounds=[(0, 1)] * len(g.edges),
        method="highs",
    )
    assert ref.status == 0
    return -ref.fun


def test_double_cover_equals_the_cold_primal_solve():
    for g in GENERAL:
        got = cover(g)
        assert got == fractional_optimum(g).weight
        assert GameAnalysis(g).fractional == got


def test_double_cover_equals_scipy():
    for g in GENERAL[::5]:
        if g.edges:
            assert abs(float(cover(g)) - scipy_fractional(g)) < 1e-7


@pytest.mark.parametrize("n", range(1, 17))
def test_unit_complete_graph_is_half_its_order(n):
    # x = 1/(n-1) on every edge loads each vertex fully, and no fractional
    # matching weighs more than half the vertices.
    g = unit_complete(n)
    want = F(n, 2) if n > 1 else F(0)
    assert cover(g) == GameAnalysis(g).fractional == want
    assert fractional_optimum(g).weight == want
    if n > 1:
        assert abs(scipy_fractional(g) - n / 2) < 1e-7


@pytest.mark.parametrize(
    "name, value", [("k3", F(3, 2)), ("ring7", F(4)), ("tritail4", F(2))]
)
def test_bundled_general_instances(name, value):
    g = load_instance(name)
    assert cover(g) == fractional_optimum(g).weight == value
    assert abs(scipy_fractional(g) - float(value)) < 1e-7


def bipartite_games(seeds):
    for s in seeds:
        yield random_assignment(Random(s), max_side=5, density=0.7)
        for v in B_VARIANTS:
            yield random_b_game(Random(s), v)
        rng = Random(s)
        floored = random_b_game(rng, "b-general", with_floors=True)
        yield floored
        yield with_vertex_floors(rng, floored)


def test_bipartite_closed_form_equals_the_cold_primal_solve():
    seen, infeasible = set(), 0
    for g in bipartite_games(range(80)):
        seen.add(g.variant)
        try:
            cold = fractional_optimum(g).weight
        except InfeasibleGameError:
            with pytest.raises(InfeasibleGameError):
                GameAnalysis(g).fractional
            infeasible += 1
            continue
        assert GameAnalysis(g).fractional == cold
    assert seen == {"assignment", *B_VARIANTS}
    assert infeasible > 0  # floors that admit no matching were met


# The path v1 - v2 - v3 (weights 2 and 1) and the isolated v4.  Doubled,
# its fractional optimum is 4: y1 + y2 = 4, y3 = y4 = 0, and y2 >= 2.
PATH = make_game(
    "general-matching", [], ["v1", "v2", "v3", "v4"], [("v1", "v2", 2), ("v2", "v3", 1)]
)


def negative_price(a, b, sigma):
    a[3] -= 1  # y4 = -1
    a[0] += 1
    return a, b, sigma


def uncovered_edge(a, b, sigma):
    a[1] -= 1  # y1 + y2 = 3 < 2·2
    a[3] += 1
    return a, b, sigma


def overloaded_vertex(a, b, sigma):
    a[3] += 1  # the potentials sum to w·x = 5
    return a, b, [1, 0, 1, 3]  # v1 and v3 both go to v2: v2's load is 3


def short_matching(a, b, sigma):
    return a, b, [0, 1, 2, 3]  # nothing matched: w·x = 0 < Σy = 4


def test_genuine_certificate_passes():
    a, b, sigma = matchings._hungarian(
        [[0, 2, 0, 0], [2, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    )
    assert all([type(v) is int for v in a + b])
    assert sorted(sigma) == [0, 1, 2, 3]
    assert cover(PATH) == 2


@pytest.mark.parametrize(
    "tamper", [negative_price, uncovered_edge, overloaded_vertex, short_matching]
)
def test_tampered_certificate_is_refused(monkeypatch, tamper):
    hungarian = matchings._hungarian

    def tampered(w):
        a, b, sigma = hungarian(w)
        return tamper(list(a), list(b), list(sigma))

    monkeypatch.setattr(matchings, "_hungarian", tampered)
    with pytest.raises(SolverInvariantError):
        cover(PATH)
