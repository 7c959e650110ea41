"""The read-out contract of every LP answer.

The solver reads each basic solution in integers over one denominator
and builds fractions only for the answer.  Whatever it does inside, an
optimal ``LPSolution`` must hold a ``Fraction`` in lowest terms for each
variable, and an objective value equal to the objective recomputed from
those values in ``Fraction`` arithmetic.  Answers over the dual's
optimal face (``solve_over_optimal_face``), the oracle of the payment
answers, are read out the same way.
"""

from fractions import Fraction as F
from math import gcd
from random import Random

from matchcore.analysis import GameAnalysis
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamelp import build_dual_lp
from matchcore.simplex import solve_lp, solve_over_optimal_face

from gamegen import payment_games, random_assignment, random_b_game, random_general
from lp_oracles import build_primal_lp

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")


def lowest_terms(x) -> bool:
    return type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def check_read_out(variables, objective, sol) -> None:
    assert sol.status == "optimal"
    assert list(sol.values) == list(variables)
    assert all(lowest_terms(x) for x in sol.values.values())
    assert lowest_terms(sol.objective_value)
    total = sum((c * sol.values[v] for c, v in zip(objective, variables)), F(0))
    assert sol.objective_value == total


def check_lp(program) -> None:
    sol = solve_lp(program)
    if sol.status == "optimal":
        check_read_out(program.variables, program.objective, sol)


def test_bundled_primal_and_dual_read_outs():
    for name in INSTANCE_NAMES:
        g = load_instance(name)
        for program in (build_primal_lp(g), build_dual_lp(g)):
            check_lp(program)


def test_gamegen_primal_and_dual_read_outs():
    rng = Random(4)
    games = [random_assignment(rng) for _ in range(25)]
    games += [random_general(rng) for _ in range(25)]
    for variant in B_VARIANTS:
        games += [random_b_game(rng, variant) for _ in range(10)]
    games += [random_b_game(rng, "b-general", with_floors=True) for _ in range(15)]
    for g in games:
        for program in (build_primal_lp(g), build_dual_lp(g)):
            check_lp(program)


def test_every_vertex_and_edge_face_query_reads_out():
    queries = 0
    for g in payment_games():
        a = GameAnalysis(g)
        if a.payments is None:
            continue
        lp = build_dual_lp(g)

        def query(goal, maximize=True):
            coeffs = tuple([goal.get(v, F(0)) for v in lp.variables])
            sol = solve_over_optimal_face(lp, a.worth, coeffs, maximize)
            check_read_out(lp.variables, coeffs, sol)
            return sol

        for q in g.vertices:
            y = f"y[{q}]"
            top = query({y: F(1)})
            low = query({y: F(1)}, False)
            assert a.payments.vertices[q] == top.values[y]
            assert a.profit_bounds(q) == (low.values[y], top.values[y])
            queries += 2
        for i, j, w in g.edges:
            yi, yj = f"y[{i}]", f"y[{j}]"
            top = query({yi: F(1), yj: F(1)})
            slack = top.values[yi] + top.values[yj] - w
            assert a.payments.edges[i, j] == slack
            queries += 1
    assert queries >= 500
