"""The one map from duals to profits against its per-family reference.

``imputation_from_dual`` reads every price through
``gamelp.dual_columns`` and takes a split as one share;
``dual_map_reference.reference_imputation`` writes each price family out
by hand and takes a split as four dicts of split parts.  On the bundled
games and on seeded games of all six variants, vertex and edge floors
included, both must pay the same profits under the left, right and half
splits, raise the same ``ProfitSignError``, and reject the same duals.
The duals are the solver's optimum, the optimal duals that maximize one
price each, that optimum with one price raised or lowered by 1, and that
optimum asked against a wrong total.  Where no edge floor is positive,
every profit vector a b-game's map pays is in its dual image.
"""

from collections import Counter
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

from matchcore.analysis import GameAnalysis, worth
from matchcore.bmatching import (
    B_VARIANTS,
    ProfitSignError,
    imputation_from_dual,
    in_dual_image,
)
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamelp import build_dual_lp
from matchcore.games import make_game
from matchcore.simplex import solve_over_optimal_face

from dual_map_reference import SPLITS, SplitScheme, read_prices, reference_imputation
from gamegen import (
    named_dual,
    random_assignment,
    random_b_game,
    random_general,
    with_vertex_floors,
)

KINDS = {
    "assignment": lambda rng: random_assignment(rng, max_side=4, density=0.7),
    "general-matching": lambda rng: random_general(rng, max_n=6, density=0.5),
    "b-uniform": lambda rng: random_b_game(rng, "b-uniform"),
    "b-unconstrained": lambda rng: random_b_game(rng, "b-unconstrained"),
    "b-constrained": lambda rng: random_b_game(rng, "b-constrained"),
    "b-general": lambda rng: random_b_game(rng, "b-general"),
    "b-general-edge-floors": lambda rng: random_b_game(
        rng, "b-general", with_floors=True
    ),
    "b-general-all-floors": lambda rng: with_vertex_floors(
        rng, random_b_game(rng, "b-general", with_floors=True)
    ),
}


def seeded_games(kind, count=8):
    rng = Random(sorted(KINDS).index(kind) + 307)
    games = []
    while len(games) < count:
        g = KINDS[kind](rng)
        if g.edges and worth(g) is not None:
            games.append(g)
    return games


def outcome(fn, *args):
    """What a map makes of a dual: its profits, or the error it raises."""
    try:
        return fn(*args)
    except ProfitSignError as exc:
        return ("ProfitSignError", str(exc))
    except ValueError:
        return "ValueError"


def kind_of(got):
    if isinstance(got, dict):
        return "profits"
    return got if isinstance(got, str) else got[0]


def nudged(y, name, step):
    """``y`` with the price of the column ``name`` moved by ``step``."""
    return {**y, name: y[name] + step}


def duals_to_compare(a):
    """The solver's optimal dual, the optimal duals that maximize each
    price in turn, and the solver's dual with one price raised or lowered
    by 1."""
    g = a.g
    lp = build_dual_lp(g)
    sol, y = a.dual
    out = [y]
    for t in range(len(lp.variables)):
        goal = tuple([Fraction(s == t) for s in range(len(lp.variables))])
        top = solve_over_optimal_face(lp, sol.objective_value, goal, True)
        if top.status == "optimal":
            out.append(top.values)
    for name in y:
        out += [nudged(y, name, 1), nudged(y, name, -1)]
    return out


def check_against_reference(a):
    """Compare the two maps on ``a``; count the outcomes by kind."""
    g = a.g
    no_edge_floor = not any(g.edge_lower.values())
    seen = Counter()
    for y in duals_to_compare(a):
        for share, split in SPLITS:
            got = outcome(imputation_from_dual, a, y, share)
            assert got == outcome(reference_imputation, a, y, split(read_prices(g, y)))
            seen[kind_of(got)] += 1
            if isinstance(got, dict) and g.variant in B_VARIANTS and no_edge_floor:
                assert in_dual_image(a, got)
        got = outcome(imputation_from_dual, a, y, None)
        assert got == outcome(reference_imputation, a, y, SplitScheme())
    # The optimal dual asked against a total other than the worth.
    wrong = SimpleNamespace(g=g, worth=a.worth + 1, dual_columns=a.dual_columns)
    _, y = a.dual
    for share, split in SPLITS:
        assert outcome(imputation_from_dual, wrong, y, share) == "ValueError"
        assert outcome(reference_imputation, wrong, y, split(read_prices(g, y))) == "ValueError"
    return seen


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_bundled_games_agree_with_the_reference(name):
    seen = check_against_reference(GameAnalysis(load_instance(name)))
    assert seen["ValueError"] > 0


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seeded_games_agree_with_the_reference(kind):
    seen = sum(
        (check_against_reference(GameAnalysis(g)) for g in seeded_games(kind)),
        Counter(),
    )
    assert seen["profits"] > 0 and seen["ValueError"] > 0


def test_edge_floors_raise_the_same_profit_sign_error():
    seen = sum(
        (
            check_against_reference(GameAnalysis(g))
            for g in seeded_games("b-general-edge-floors", count=24)
        ),
        Counter(),
    )
    assert seen["ProfitSignError"] > 0


def test_a_vertex_floor_raises_the_same_profit_sign_error():
    # An optimal dual that pays u through its floor credit: u's profit is
    # 1 * 0 - 1 * 1 < 0.
    g = make_game("b-general", ["u"], ["v"], [("u", "v", Fraction(1))],
                  vertex_lower={"u": 1})
    a = GameAnalysis(g)
    y = named_dual(
        y={"u": 0, "v": 2},
        y_lo={"u": 1, "v": 0},
        z={("u", "v"): 0},
        z_lo={("u", "v"): 0},
    )
    for share, split in SPLITS:
        got = outcome(imputation_from_dual, a, y, share)
        assert got == ("ProfitSignError", "dual-derived profits are negative at u")
        assert got == outcome(reference_imputation, a, y, split(read_prices(g, y)))
