"""The fractional optimum from one source, and the dual certified against it.

A session reads the fractional optimum with no LP: a bipartite variant's
is the worth, its polytope being integral, and a general game's is half
the best weight of its bipartite double cover.  Whichever of the dual
and the fractional optimum a session reads second checks the dual's
prices against that value: they must cover every edge and pay it out
exactly, which makes them optimal by weak duality.  Here the session's
value, in both read orders, is compared with the dual's objective, with
the cold primal solve ``fractional_optimum`` (a fresh phase 1 on
``build_primal_lp``, both in ``tests/lp_oracles.py``) and with scipy's
HiGHS (floats, test-only).  Duals that are feasible but not optimal, or
of the right objective but leaving an edge uncovered, must be refused in
both read orders.
"""

from fractions import Fraction as F
from random import Random

import pytest

from matchcore import analysis
from matchcore.analysis import GameAnalysis
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamefile import parse_game
from matchcore.gamelp import build_dual_lp, solve_dual
from matchcore.games import InfeasibleGameError, make_game
from matchcore.matchings import SolverInvariantError
from matchcore.reports import full_report

from gamegen import random_assignment, random_b_game, random_general, with_vertex_floors
from lp_oracles import build_primal_lp, fractional_optimum

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")


def seeded_games(seeds):
    games = [load_instance(n) for n in INSTANCE_NAMES]
    for s in seeds:
        games.append(random_assignment(Random(s), max_side=5, density=0.7))
        games.append(random_general(Random(s), max_n=8, density=0.6))
        games += [random_b_game(Random(s), v) for v in B_VARIANTS]
        rng = Random(s)
        floored = random_b_game(rng, "b-general", with_floors=True)
        games += [floored, with_vertex_floors(rng, floored)]
    return games


def rows_hold(lp, x) -> bool:
    """Every row of ``lp`` and nonnegativity at ``x``, in Fraction arithmetic."""
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((a * v for a, v in zip(coeffs, x)), F(0))
        if (lhs > rhs and rel == "<=") or (lhs < rhs and rel == ">="):
            return False
    return all(v >= 0 for v in x)


def weight(g, x):
    return sum((w * v for (_, _, w), v in zip(g.edges, x)), F(0))


GAMES = seeded_games(range(40))


def test_a_session_reads_one_value_in_either_order():
    # The dual first on even indices, the fractional optimum first on odd:
    # the one read second certifies the dual against the value.
    read = 0
    for n, g in enumerate(GAMES):
        a = GameAnalysis(g)
        order = ("dual", "fractional") if n % 2 == 0 else ("fractional", "dual")
        try:
            for fact in order:
                getattr(a, fact)
        except InfeasibleGameError:
            with pytest.raises(InfeasibleGameError):
                fractional_optimum(g)
            continue
        sol, _ = a.dual
        assert a.fractional == sol.objective_value == fractional_optimum(g).weight
        read += 1
    assert read > 300


def test_the_session_value_equals_scipy():
    from scipy.optimize import linprog

    for g in GAMES[::3]:
        if not g.edges:
            continue
        try:
            got = GameAnalysis(g).fractional
        except InfeasibleGameError:
            continue
        lp = build_primal_lp(g)
        a_ub, b_ub = [], []
        for coeffs, rel, rhs in lp.constraints:
            sign = 1 if rel == "<=" else -1
            a_ub.append([sign * float(a) for a in coeffs])
            b_ub.append(sign * float(rhs))
        ref = linprog(
            [-float(w) for w in lp.objective],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * len(lp.variables),
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(got) + ref.fun) < 1e-7


@pytest.mark.parametrize("dual_first", [True, False])
@pytest.mark.parametrize("variant", ["assignment", "general-matching", *B_VARIANTS])
def test_a_game_without_edges_reads_zero(variant, dual_first):
    g = make_game(variant, ["u1"], ["v1", "v2"], [])
    a = GameAnalysis(g)
    if dual_first:
        a.dual
    assert a.fractional == 0 == a.dual[0].objective_value == fractional_optimum(g).weight


def zero_game_with_a_floor():
    """Every weight 0, and u1's floor 1: the point 0 misses that floor."""
    return parse_game(
        "variant: b-general\nleft: u1 u2\nright: v1\n"
        "edge: u1 v1 0\nedge: u2 v1 0\nb: v1 2\na: u1 1\n"
    )


def test_a_zero_optimum_under_a_floor_gives_a_full_report():
    g = zero_game_with_a_floor()
    a = GameAnalysis(g)
    sol, _ = a.dual
    assert sol.objective_value == 0
    assert a.fractional == 0 == fractional_optimum(g).weight
    text = full_report(g, 12, 24).to_text()
    assert "fractional-optimum = 0\n" in text


def test_the_traced_matching_meets_every_row_of_a_b_game():
    # The core's bounds trace an optimal matching through the session's
    # table.  Each edge index is repeated once per use, so the matching is
    # a point of the primal LP, floors included, of the worth's weight.
    traced = 0
    for g in GAMES:
        if g.variant not in B_VARIANTS:
            continue
        a = GameAnalysis(g)
        matching = a._table.matching()
        if matching is None:
            with pytest.raises(InfeasibleGameError):
                a.worth
            continue
        x = [F(matching.count(t)) for t in range(len(g.edges))]
        assert rows_hold(build_primal_lp(g), x) and weight(g, x) == a.worth
        traced += any(n > 1 for n in x)
    assert traced > 0


def objective(lp, y):
    return sum((c * y[v] for c, v in zip(lp.objective, lp.variables)), F(0))


def raised(g, y):
    """A feasible dual above the optimum: one capped vertex's price up by 1."""
    q = next(q for q in g.vertices if g.vertex_upper[q])
    return {**y, f"y[{q}]": y[f"y[{q}]"] + 1}


def shifted(g, y):
    """A dual of the optimum's objective that leaves an edge uncovered: one
    positive vertex price moved whole onto a vertex of the same cap."""
    lp = build_dual_lp(g)
    for i in g.vertices:
        for k in g.vertices:
            if k == i or not y[f"y[{i}]"] or g.vertex_upper[i] != g.vertex_upper[k]:
                continue
            moved = {**y, f"y[{i}]": F(0), f"y[{k}]": y[f"y[{k}]"] + y[f"y[{i}]"]}
            if not rows_hold(lp, [moved[v] for v in lp.variables]):
                return moved
    raise AssertionError("no price moves off a tight edge")


@pytest.mark.parametrize("dual_first", [True, False])
@pytest.mark.parametrize("tamper", [raised, shifted])
@pytest.mark.parametrize("name", ["tiers8", "k3", "ring7", "path5-b2", "bpath4-gen-cap"])
def test_a_dual_not_optimal_at_the_fractional_optimum_raises(
    monkeypatch, name, tamper, dual_first
):
    g = load_instance(name)
    sol, y = solve_dual(g)
    bad = tamper(g, y)
    lp = build_dual_lp(g)
    feasible = rows_hold(lp, [bad[v] for v in lp.variables])
    assert feasible == (tamper is raised)
    assert (objective(lp, bad) == sol.objective_value) == (tamper is shifted)
    monkeypatch.setattr(analysis, "solve_dual", lambda g: (sol, bad))
    a = GameAnalysis(g)
    first, second = ("dual", "fractional") if dual_first else ("fractional", "dual")
    getattr(a, first)
    with pytest.raises(SolverInvariantError):
        getattr(a, second)
