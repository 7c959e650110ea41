"""The integer-row simplex against the `Fraction` tableau it replaced.

Both kernels run Bland's rule on positively scaled copies of the same
tableau, so they must return identical `LPSolution`s, not merely equal
optima: same status, same vertex, same objective value.
"""

from fractions import Fraction as F
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_simplex
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamelp import build_dual_lp
from matchcore.simplex import LinearProgram, solve_lp

from gamegen import random_assignment, random_b_game, random_general
from lp_oracles import build_primal_lp

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")


def same_answer(program: LinearProgram):
    got = solve_lp(program)
    assert got == fraction_simplex.solve_lp(program)
    return got


def _number(rng: Random, lo: int, hi: int) -> F:
    # Zeros are frequent so that rows tie and vertices degenerate.
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def random_program(rng: Random) -> LinearProgram:
    """Small LP with free variables, all three relations and any-sign rhs."""
    n = rng.randint(1, 4)
    m = rng.randint(0, 5)
    return LinearProgram(
        variables=tuple([f"x{t}" for t in range(n)]),
        objective=tuple([_number(rng, -4, 4) for _ in range(n)]),
        maximize=rng.random() < 0.5,
        constraints=tuple(
            [
                (
                    tuple([_number(rng, -4, 4) for _ in range(n)]),
                    rng.choice(("<=", ">=", "==")),
                    _number(rng, -6, 6),
                )
                for _ in range(m)
            ]
        ),
        nonnegative=tuple([rng.random() < 0.7 for _ in range(n)]),
    )


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_programs_agree(rng):
    same_answer(random_program(rng))


def test_random_sweep_covers_every_outcome():
    statuses = {}
    for seed in range(400):
        program = random_program(Random(seed))
        status = same_answer(program).status
        statuses[status] = statuses.get(status, 0) + 1
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert min(statuses.values()) >= 20


def test_degenerate_and_redundant_rows_agree():
    # Repeated and tight rows leave artificials in a degenerate basis and
    # make phase one drop a redundant equality.
    program = LinearProgram(
        variables=("x", "y", "z"),
        objective=(F(1), F(1), F(-1)),
        maximize=True,
        constraints=(
            ((F(1), F(1), F(0)), "==", F(1)),
            ((F(2), F(2), F(0)), "==", F(2)),
            ((F(1), F(0), F(1)), ">=", F(0)),
            ((F(-1), F(0), F(-1)), "<=", F(0)),
            ((F(1, 2), F(1, 3), F(0)), "<=", F(1, 2)),
        ),
        nonnegative=(True, True, False),
    )
    sol = same_answer(program)
    assert sol.values == {"x": F(1), "y": F(0), "z": F(-1)}
    assert sol.objective_value == 2


def test_bundled_primal_and_dual_lps_agree():
    for name in INSTANCE_NAMES:
        g = load_instance(name)
        for program in (build_primal_lp(g), build_dual_lp(g)):
            assert same_answer(program).status == "optimal"


def test_gamegen_primal_and_dual_lps_agree():
    rng = Random(4)
    games = [random_assignment(rng) for _ in range(25)]
    games += [random_general(rng) for _ in range(25)]
    for variant in B_VARIANTS:
        games += [random_b_game(rng, variant) for _ in range(10)]
    games += [random_b_game(rng, "b-general", with_floors=True) for _ in range(15)]
    statuses = set()
    for g in games:
        for program in (build_primal_lp(g), build_dual_lp(g)):
            statuses.add(same_answer(program).status)
    assert "optimal" in statuses
