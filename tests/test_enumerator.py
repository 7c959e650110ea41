"""The integer search against independent oracles.

* ``plain_enumerator.plain_optima`` (the plain ``Fraction`` search) for the
  optimum and the full list of optimal vectors, order included, from
  ``brute_force_optima``, and for a session's worth, count of optima and
  labels, which it reads without listing them;
* networkx ``max_weight_matching`` and scipy ``linear_sum_assignment``
  (weights scaled to integers) for worths.
"""

from random import Random

import pytest

from matchcore.analysis import GameAnalysis
from matchcore.games import make_game
from matchcore.matchings import brute_force_optima

from gamegen import random_assignment, random_b_game, random_general, with_vertex_floors
from plain_enumerator import plain_labels, plain_optima
from worth_oracles import networkx_worth, scipy_worth

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")


def seeded_games():
    rng = Random(11)
    games = []
    for r in range(40):
        games.append(random_assignment(rng, max_side=4, density=0.7))
        games.append(random_general(rng, max_n=7, density=0.55))
        for variant in B_VARIANTS:
            games.append(random_b_game(rng, variant))
        floored = random_b_game(rng, "b-general", with_floors=True)
        games.append(floored)
        games.append(with_vertex_floors(rng, floored))
    return games


SEEDED = seeded_games()


def test_seeded_games_cover_every_variant_and_infeasible_floors():
    variants = {g.variant for g in SEEDED}
    assert variants == {"assignment", "general-matching", *B_VARIANTS}
    infeasible = [g for g in SEEDED if plain_optima(g)[0] is None]
    assert len(infeasible) >= 5


@pytest.mark.parametrize("index", range(0, len(SEEDED), 8))
def test_search_lists_the_plain_optima_in_order(index):
    for g in SEEDED[index:index + 8]:
        assert brute_force_optima(g) == plain_optima(g)


def tie_general(rng, n, density):
    vs = [f"v{i + 1}" for i in range(n)]
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    edges = [(i, j, rng.choice((1, 2, 3))) for i, j in pairs if rng.random() < density]
    return make_game("general-matching", [], vs, edges)


def tie_assignment(rng, nl, nr):
    left = [f"u{i + 1}" for i in range(nl)]
    right = [f"v{j + 1}" for j in range(nr)]
    edges = [(i, j, rng.choice((1, 2, 3))) for i in left for j in right if rng.random() < 0.8]
    return make_game("assignment", left, right, edges)


def test_search_lists_the_plain_optima_on_tie_games():
    # Weights 1..3 on small dense graphs: many optima, many equal bounds.
    rng = Random(12)
    for _ in range(6):
        for g in (tie_general(rng, 7, 0.6), tie_assignment(rng, 4, 4)):
            best, optima = brute_force_optima(g)
            assert (best, optima) == plain_optima(g)
            assert len(optima) >= 1


def tie_games():
    """Games shaped like the enum-ties benchmark workload."""
    rng = Random(13)
    games = []
    for _ in range(4):
        games += [tie_general(rng, 10, 0.6), tie_general(rng, 11, 0.6),
                  tie_general(rng, 12, 0.55)]
        games += [tie_assignment(rng, 5, 6), tie_assignment(rng, 6, 6),
                  tie_assignment(rng, 6, 7)]
    return games


TIE_GAMES = tie_games()


def test_tie_games_include_non_concurrent_general_games():
    concurrent = [GameAnalysis(g).concurrent
                  for g in TIE_GAMES if g.variant == "general-matching"]
    assert True in concurrent and False in concurrent


@pytest.mark.parametrize("g", TIE_GAMES, ids=lambda g: f"{g.variant}-{len(g.vertices)}")
def test_session_lists_the_plain_optima_on_tie_games(g):
    # The session counts what the plain search lists.
    best, optima = plain_optima(g)
    a = GameAnalysis(g)
    assert (a.worth, a.optima_count, a.labels) == (best, len(optima), plain_labels(g, optima))


def test_worths_match_networkx_and_scipy():
    rng = Random(14)
    games = list(TIE_GAMES)
    for _ in range(30):
        games.append(random_general(rng, max_n=8, density=0.5))
        games.append(random_assignment(rng, max_side=5, density=0.6))
    for g in games:
        if not g.edges:
            continue
        want = networkx_worth(g)
        if g.variant == "assignment":
            assert scipy_worth(g) == want
        assert brute_force_optima(g)[0] == want
        assert GameAnalysis(g).worth == want
