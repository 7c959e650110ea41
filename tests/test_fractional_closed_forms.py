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

The double cover's assignment also rounds, where its once-used edges hold
no odd cycle, to a matching of the same weight, which is then the worth.
That matching is compared with the residual table's count and with
networkx's blossom matching, and tampered roundings, each breaking one
check of its certificate, must be refused.
"""

from fractions import Fraction as F
from random import Random

import pytest

from matchcore import matchings
from matchcore.analysis import GameAnalysis
from matchcore.bundled import load_instance
from matchcore.games import InfeasibleGameError, make_game
from matchcore.matchings import (
    ResidualTable,
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
    return double_cover_optimum(integer_game(g)).value


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


ASSIGNMENT = [random_assignment(Random(s), max_side=6, density=0.6) for s in range(200)]


def blossom_worth(ig):
    """The best scaled weight of a matching, by networkx's blossom method."""
    import networkx as nx

    graph = nx.Graph()
    for (i, j), w in zip(ig.ends, ig.weights):
        graph.add_edge(i, j, weight=w)
    return sum([graph[i][j]["weight"] for i, j in nx.max_weight_matching(graph)])


def test_rounded_matching_is_an_optimum():
    rounded, refused = {"assignment": 0, "general-matching": 0}, 0
    for g in GENERAL + ASSIGNMENT:
        ig = integer_game(g)
        got = double_cover_optimum(ig)
        best, _ = ResidualTable(ig, len(g.left)).count()
        assert best == blossom_worth(ig)
        if got.matching is None:
            # Only a general game's odd cycle of once-used edges refuses.
            assert g.variant == "general-matching"
            refused += 1
            continue
        rounded[g.variant] += 1
        ends = [q for t in got.matching for q in ig.ends[t]]
        assert len(set(ends)) == len(ends)
        assert sum([ig.weights[t] for t in got.matching]) == best
        assert got.value == F(best, ig.scale) == GameAnalysis(g).worth
    # Every bipartite game rounds; general games part both ways.
    assert rounded["assignment"] == len(ASSIGNMENT)
    assert rounded["general-matching"] > 300 and refused > 50


def test_no_non_concurrent_game_rounds():
    empty = 0
    for g in GENERAL:
        a = GameAnalysis(g)
        a.labels  # the worth from the table's count
        if a.worth != a.fractional:
            empty += 1
            assert double_cover_optimum(integer_game(g)).matching is None
    assert empty > 50


@pytest.mark.parametrize("n, rounded", [(3, None), (4, 2)])
def test_unit_k3_rounds_to_nothing_and_k4_to_two(n, rounded):
    ig = integer_game(unit_complete(n))
    got = double_cover_optimum(ig)
    if rounded is None:
        assert got.matching is None
    else:
        assert sum([ig.weights[t] for t in got.matching]) == rounded == got.value


def forced_through(ends, sigma):
    # Every other step of each cycle of sigma, an odd cycle included.
    edge = {**{(i, j): t for t, (i, j) in enumerate(ends)},
            **{(j, i): t for t, (i, j) in enumerate(ends)}}
    taken, seen = [], set()
    for s in range(len(sigma)):
        q, at = s, 0
        while q not in seen:
            seen.add(q)
            if at % 2 == 0 and (q, sigma[q]) in edge:
                taken.append(edge[q, sigma[q]])
            q, at = sigma[q], at + 1
    return tuple(sorted(set(taken)))


def overloading(ends, sigma):
    return (0, 1)  # v1-v2 and v2-v3 weigh the optimum 2, but share v2


def short(ends, sigma):
    return (0,)  # a matching of weight 1 < 2


UNIT_PATH = make_game(
    "general-matching", [], ["v1", "v2", "v3", "v4"],
    [("v1", "v2", 1), ("v2", "v3", 1), ("v3", "v4", 1)],
)


@pytest.mark.parametrize(
    "tamper, g",
    [(forced_through, unit_complete(3)), (overloading, UNIT_PATH), (short, UNIT_PATH)],
)
def test_tampered_rounding_is_refused(monkeypatch, tamper, g):
    double_cover_optimum(integer_game(g))  # the genuine rounding passes
    monkeypatch.setattr(matchings, "_rounded", tamper)
    with pytest.raises(SolverInvariantError):
        double_cover_optimum(integer_game(g))


def test_a_count_that_disagrees_with_the_rounded_matching_raises(monkeypatch):
    g = load_instance("ring7")
    count = ResidualTable.count

    def off_by_one(self):
        best, optima = count(self)
        return best + 1, optima

    monkeypatch.setattr(ResidualTable, "count", off_by_one)
    a = GameAnalysis(g)
    assert a.worth == 4
    with pytest.raises(SolverInvariantError):
        a.labels
    # Counted first, the table gives the worth and nothing is compared.
    b = GameAnalysis(g)
    b.labels
    assert b.worth == 5


def test_an_assignment_game_runs_the_hungarian_on_its_own_matrix(monkeypatch):
    # n_l × n_r padded square, not the (n_l + n_r)² double cover, and the
    # same optimum with a matching of its weight: the table's count.
    sizes = []
    hungarian = matchings._hungarian
    monkeypatch.setattr(matchings, "_hungarian", lambda w: sizes.append(len(w)) or hungarian(w))
    for g in ASSIGNMENT:
        ig = integer_game(g)
        got = double_cover_optimum(ig, len(g.left))
        assert sizes.pop() == max(len(g.left), len(g.right))
        best, _ = ResidualTable(ig, len(g.left)).count()
        ends = [q for t in got.matching for q in ig.ends[t]]
        assert len(set(ends)) == len(ends)
        assert sum([ig.weights[t] for t in got.matching]) == best
        assert got.value == F(best, ig.scale) == double_cover_optimum(ig).value
        assert GameAnalysis(g).fractional == got.value


# u1 and u2 against v1 and v2, every pair an edge: the optimum 3 is
# u1-v1 with u2-v2.
SQUARE = make_game(
    "assignment", ["u1", "u2"], ["v1", "v2"],
    [("u1", "v1", 2), ("u1", "v2", 1), ("u2", "v1", 1), ("u2", "v2", 1)],
)


def lowered_row(a, b, sigma):
    a[0] -= 1  # the potentials sum to 2 < w(M) = 3
    return a, b, sigma


def uncovered_column(a, b, sigma):
    a[0] += 5  # the sum is kept, but y_u2 + y_v2 falls below w = 1
    b[1] -= 5
    return a, b, sigma


def crossed(a, b, sigma):
    return a, b, [1, 0]  # u1-v2 and u2-v1 weigh 2 < 3


def shared_column(a, b, sigma):
    return a, b, [0, 0]  # u1-v1 and u2-v1 weigh 3, but share v1


@pytest.mark.parametrize("tamper", [lowered_row, uncovered_column, crossed, shared_column])
def test_tampered_assignment_certificate_is_refused(monkeypatch, tamper):
    ig = integer_game(SQUARE)
    assert double_cover_optimum(ig, 2) == (3, (0, 3))  # the genuine answer passes
    hungarian = matchings._hungarian

    def tampered(w):
        a, b, sigma = hungarian(w)
        return tamper(list(a), list(b), list(sigma))

    monkeypatch.setattr(matchings, "_hungarian", tampered)
    with pytest.raises(SolverInvariantError):
        double_cover_optimum(ig, 2)
