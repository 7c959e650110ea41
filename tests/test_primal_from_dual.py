"""The fractional optimum read from the dual's final tableau.

A session that holds the dual reads the fractional optimum x off the
dual's final cost row (complementary slackness) and certifies it in
integers: x meets every primal row, w·x equals the dual optimum, and x has
the vertex structure of the variant's polytope.  Here the point and its
value are compared with two independent solves of the primal LP: the cold
``fractional_optimum`` (a fresh phase 1 on ``build_primal_lp``) and scipy's
HiGHS (floats, test-only).  An optimum need not be unique, so the point is
compared by its feasibility and its weight, not entry by entry.  A
tampered cost row, and points of the right weight that break one check
each, must be refused.  The generic ``Tableau.row_duals`` is checked
against the LP duality conditions in ``Fraction`` arithmetic on seeded
programs of every row shape.
"""

from dataclasses import replace
from fractions import Fraction as F
from random import Random
from types import SimpleNamespace

import pytest

from matchcore.analysis import GameAnalysis
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamefile import parse_game
from matchcore.gamelp import build_primal_lp, dual_columns, primal_numerators, solve_dual
from matchcore.games import InfeasibleGameError, make_game
from matchcore.matchings import SolverInvariantError, fractional_from_dual, fractional_optimum
from matchcore.reports import full_report
from matchcore.simplex import LinearProgram, Tableau, solve_lp

from gamegen import random_assignment, random_b_game, random_general, with_vertex_floors

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


def read_out(g):
    """The certified point as fractions per edge, with the dual's answer;
    None where floors admit no matching."""
    try:
        sol, _ = solve_dual(g)
    except InfeasibleGameError:
        return None
    read = primal_numerators(g, dual_columns(g), sol)
    assert read is not None
    nums, den = read
    assert fractional_from_dual(g, dual_columns(g), sol) == sol.objective_value
    return [F(n, den) for n in nums], sol


def primal_rows_hold(g, x) -> bool:
    """Every row of ``build_primal_lp(g)``, in Fraction arithmetic."""
    lp = build_primal_lp(g)
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((a * v for a, v in zip(coeffs, x)), F(0))
        if (lhs > rhs and rel == "<=") or (lhs < rhs and rel == ">="):
            return False
    return all(v >= 0 for v in x)


def weight(g, x):
    return sum((w * v for (_, _, w), v in zip(g.edges, x)), F(0))


GAMES = seeded_games(range(40))


def test_read_out_equals_the_cold_primal_solve():
    read = 0
    for g in GAMES:
        got = read_out(g)
        if got is None:
            with pytest.raises(InfeasibleGameError):
                fractional_optimum(g)
            continue
        x, sol = got
        cold = fractional_optimum(g)
        assert sol.objective_value == cold.weight == weight(g, x)
        assert primal_rows_hold(g, x)
        read += 1
    assert read > 300


def test_read_out_equals_scipy():
    from scipy.optimize import linprog

    for g in GAMES[::3]:
        got = read_out(g)
        if got is None or not g.edges:
            continue
        x, sol = got
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
        assert abs(float(sol.objective_value) + ref.fun) < 1e-7
        assert abs(float(weight(g, x)) + ref.fun) < 1e-7


def test_a_session_with_the_dual_reads_the_certified_value():
    for g in GAMES[::7]:
        a = GameAnalysis(g)
        try:
            sol, _ = a.dual
        except InfeasibleGameError:
            continue
        assert a.fractional == sol.objective_value == fractional_optimum(g).weight


def tampered(sol, column, delta):
    """``sol`` with ``delta`` added to one entry of a copy of its final cost row."""
    rows, basis, cols, width, checks, (value, cost) = sol.tableau._given
    cost = list(cost)
    cost[column] += delta
    final = Tableau(sol.tableau.lp, rows, basis, cols, width, checks, (value, cost))
    return replace(sol, tableau=final)


@pytest.mark.parametrize("name", ["tiers8", "k3", "ring7", "path5-b2", "bpath4-gen-cap"])
@pytest.mark.parametrize("delta", [1, -1])
def test_a_tampered_surplus_entry_raises(name, delta):
    # The surplus column of the first edge's cover row follows the
    # structural columns.  Moving it moves that edge's multiplicity, and
    # so w·x off the dual optimum (or x below 0).
    g = load_instance(name)
    sol, _ = solve_dual(g)
    cols = dual_columns(g)
    with pytest.raises(SolverInvariantError):
        fractional_from_dual(g, cols, tampered(sol, len(cols), delta))


def two_edges(variant, ends, **bounds):
    return make_game(variant, ["u1", "u2"], ["v1", "v2"], [(*e, F(1)) for e in ends], **bounds)


# Points of the right weight that the certificate must refuse, one per
# check: a cap, a floor, nonnegativity, integrality on a bipartite game
# and half-integrality (odd cycles) on a general one.
REFUSED = [
    (two_edges("assignment", [("u1", "v1"), ("u2", "v2")]), [2, 0], 1, "no primal optimum"),
    (
        two_edges(
            "b-general",
            [("u1", "v1"), ("u1", "v2")],
            edge_upper={("u1", "v1"): 1, ("u1", "v2"): 1},
            edge_lower={("u1", "v1"): 1, ("u1", "v2"): 0},
        ),
        [0, 1],
        1,
        "no primal optimum",
    ),
    (
        two_edges(
            "b-unconstrained",
            [("u1", "v1"), ("u1", "v2")],
            vertex_upper={"u1": 1, "u2": 1, "v1": 2, "v2": 1},
        ),
        [2, -1],
        1,
        "no primal optimum",
    ),
    (two_edges("assignment", [("u1", "v1"), ("u1", "v2")]), [1, 1], 2, "not integral"),
    (
        make_game("general-matching", [], ["a", "b", "c"], [("a", "b", F(1)), ("a", "c", F(1))]),
        [1, 1],
        2,
        "not half-integral",
    ),
]


@pytest.mark.parametrize("g,nums,den,message", REFUSED)
def test_the_certificate_refuses_a_point_that_is_not_an_optimal_vertex(g, nums, den, message):
    sol, _ = solve_dual(g)
    assert sum(w * n for (_, _, w), n in zip(g.edges, nums)) == sol.objective_value * den
    fake = replace(sol, tableau=SimpleNamespace(row_duals=lambda: (nums, den)))
    with pytest.raises(SolverInvariantError, match=message):
        fractional_from_dual(g, dual_columns(g), fake)


@pytest.mark.parametrize("variant", ["assignment", "general-matching", *B_VARIANTS])
def test_a_game_without_edges_reads_zero(variant):
    g = make_game(variant, ["u1"], ["v1", "v2"], [])
    a = GameAnalysis(g)
    sol, _ = a.dual
    assert sol.objective_value == 0
    assert primal_numerators(g, a.dual_columns, sol) == ([], 1)
    assert a.fractional == 0 == fractional_optimum(g).weight
    with pytest.raises(ValueError, match="zero optimum"):
        sol.tableau.row_duals()


def zero_game_with_a_floor():
    """Every weight 0, and u1's floor 1: the point 0 misses that floor."""
    return parse_game(
        "variant: b-general\nleft: u1 u2\nright: v1\n"
        "edge: u1 v1 0\nedge: u2 v1 0\nb: v1 2\na: u1 1\n"
    )


def test_a_zero_optimum_under_a_floor_reads_the_traced_matching():
    # A zero optimum fixes no multiple of the dual's cost row; the session
    # certifies the optimal matching traced through its table, which meets
    # the floor, instead of the point 0, which does not.
    g = zero_game_with_a_floor()
    a = GameAnalysis(g)
    sol, _ = a.dual
    assert sol.objective_value == 0
    assert a.fractional == 0 == fractional_optimum(g).weight
    matching = a._table.matching()
    assert primal_numerators(g, a.dual_columns, sol, matching) == ([1, 0], 1)
    # The point 0 still fails the row check, and is still refused.
    assert primal_numerators(g, a.dual_columns, sol) is None
    with pytest.raises(SolverInvariantError, match="no primal optimum"):
        fractional_from_dual(g, a.dual_columns, sol)
    text = full_report(g, 12, 24).to_text()
    assert "fractional-optimum = 0\n" in text


def test_the_traced_matching_meets_every_row_of_a_b_game():
    # Each edge index is repeated once per use, so the matching is a point
    # of the primal LP, floors included, of the worth's weight.
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
        assert primal_rows_hold(g, x) and weight(g, x) == a.worth
        traced += any(n > 1 for n in x)
    assert traced > 0


def random_program(rng: Random) -> LinearProgram:
    """A small bounded program: box rows keep it bounded, and every row
    shape occurs, ``<=`` and ``>=`` with either sign of right-hand side."""
    n = rng.randint(1, 4)
    small = lambda: F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))  # noqa: E731
    rows = [
        (tuple(small() for _ in range(n)), rng.choice(("<=", ">=")), small())
        for _ in range(rng.randint(1, 4))
    ]
    rows += [(tuple(F(int(t == j)) for t in range(n)), "<=", F(6)) for j in range(n)]
    return LinearProgram(
        variables=tuple(f"x{t}" for t in range(n)),
        objective=tuple(small() for _ in range(n)),
        maximize=rng.random() < 0.5,
        constraints=tuple(rows),
    )


def test_row_duals_meet_the_duality_conditions():
    checked = 0
    for s in range(400):
        lp = random_program(Random(s))
        sol = solve_lp(lp)
        if sol.status != "optimal" or sol.objective_value == 0:
            continue
        nums, den = sol.tableau.row_duals()
        assert den > 0
        pi = [F(n, den) for n in nums]
        # Strong duality, the sign of each dual, and the reduced costs.
        assert sum((p * rhs for p, (_, _, rhs) in zip(pi, lp.constraints)), F(0)) == (
            sol.objective_value
        )
        sense = -1 if lp.maximize else 1
        for p, (_, rel, _) in zip(pi, lp.constraints):
            assert sense * p * (1 if rel == ">=" else -1) >= 0
        for j, c in enumerate(lp.objective):
            used = sum((p * coeffs[j] for p, (coeffs, _, _) in zip(pi, lp.constraints)), F(0))
            reduced = c - used
            assert sense * reduced >= 0
        checked += 1
    assert checked > 100


def test_row_duals_refuse_a_basis_that_is_no_answer():
    # A feasible basis without the final cost row of an optimal answer.
    sol, _ = solve_dual(load_instance("tiers8"))
    *basis, _ = sol.tableau._given
    with pytest.raises(ValueError, match="optimal answer"):
        Tableau(sol.tableau.lp, *basis).row_duals()
