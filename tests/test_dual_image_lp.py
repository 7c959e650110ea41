"""The dual-image LP built from ``build_dual_lp`` against the hand-built one.

``in_dual_image`` copies each dual column once per owner and reads its
cover rows and profit coefficients from ``build_dual_lp``;
``dual_image_reference.reference_in_dual_image`` writes the same question
out by hand, with an explicit "objective == worth" row.  On every seeded
(game, imputation) pair the two verdicts must agree, and the rebuilt LP
must take no more pivots in total.  Where no edge is priced (b-uniform
and b-unconstrained), the profit rows fix every vertex price, and
``in_dual_image`` answers with no LP at all.
"""

from random import Random

import pytest

from matchcore import bmatching, simplex
from matchcore.analysis import GameAnalysis, worth
from matchcore.bmatching import in_dual_image

from dual_image_reference import reference_in_dual_image
from gamegen import probes, random_b_game, with_vertex_floors

KINDS = {
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
GAMES_PER_KIND = 8


def seeded_games(kind):
    rng = Random(sorted(KINDS).index(kind) + 301)
    games = []
    while len(games) < GAMES_PER_KIND:
        g = KINDS[kind](rng)
        if g.edges and worth(g) is not None:
            games.append(g)
    return games


def with_wrong_total(imps):
    """``imps`` and, after them, the first one paying one vertex 1 more."""
    if not imps:
        return imps
    wrong = dict(imps[0])
    wrong[min(wrong)] += 1
    return imps + [wrong]


def test_rebuilt_lp_agrees_with_the_hand_built_one(monkeypatch):
    taken = [0]
    pivot = simplex._pivot

    def counted(*args):
        taken[0] += 1
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    pairs = new_pivots = old_pivots = 0
    for kind in sorted(KINDS):
        verdicts = []
        for g in seeded_games(kind):
            a = GameAnalysis(g)
            for imp in with_wrong_total(probes(a)):
                start = taken[0]
                got = in_dual_image(a, imp)
                mid = taken[0]
                assert got == reference_in_dual_image(a, imp), (kind, g, imp)
                new_pivots += mid - start
                old_pivots += taken[0] - mid
                verdicts.append(got)
                pairs += 1
        # Both answers are exercised on every kind.
        assert True in verdicts and False in verdicts, kind
    assert pairs >= 240
    assert new_pivots <= old_pivots, (new_pivots, old_pivots)


@pytest.mark.parametrize("kind", ["b-uniform", "b-unconstrained"])
def test_unpriced_edges_solve_no_lp(monkeypatch, kind):
    # y_q = imp_q / b_q: nonnegative, covering every edge, the total the
    # worth.  The reference LP agrees above; here no LP is solved.
    pairs = []
    for g in seeded_games(kind):
        a = GameAnalysis(g)
        pairs += [(a, imp) for imp in with_wrong_total(probes(a))]
    solves = []
    solve = simplex.solve_lp
    monkeypatch.setattr(bmatching, "solve_lp", lambda lp: solves.append(lp) or solve(lp))
    verdicts = {in_dual_image(a, imp) for a, imp in pairs}
    assert verdicts == {True, False}
    assert solves == []
