"""The reduced dual-image LP against the hand-built one.

``in_dual_image`` eliminates each vertex cap price through its vertex's
profit row and keeps one LP over the other prices' copies, with one row
per vertex and one per edge, each written so that the zero point (the
scaled imputation ``imp_q / b_q``) meets it when its right-hand side is
nonnegative; ``dual_image_reference.reference_in_dual_image`` writes the
question out by hand, with every copy, an explicit "objective == worth"
row and one profit row per vertex.  On every seeded (game, imputation)
pair the two verdicts must agree, and the reduced LP must take no more
pivots in total.  Where the zero point meets every row no LP is solved:
always where no edge is priced (b-uniform and b-unconstrained), and on
priced games wherever the imputation is nonnegative and its scaled cover
holds.
"""

from random import Random

import pytest

from matchcore import bmatching, simplex
from matchcore.analysis import GameAnalysis, scaled_cover, worth
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
# Enough games per kind for the agreement test's 2,000 pairs.
PROPERTY_GAMES_PER_KIND = 24


def seeded_games(kind, count=GAMES_PER_KIND):
    rng = Random(sorted(KINDS).index(kind) + 301)
    games = []
    while len(games) < count:
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
        for g in seeded_games(kind, PROPERTY_GAMES_PER_KIND):
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
    assert pairs >= 2000
    assert new_pivots <= old_pivots, (new_pivots, old_pivots)


@pytest.mark.parametrize(
    "kind", ["b-constrained", "b-general", "b-general-edge-floors", "b-general-all-floors"]
)
def test_priced_edges_solve_one_lp_only_where_the_zero_point_fails(monkeypatch, kind):
    # Edges are priced, so the LP has columns; but where imp >= 0 and
    # imp_q / b_q covers every edge, the zero point meets every row and
    # the answer is yes with no solve.  Elsewhere at most one LP is solved.
    solves = []
    solve = simplex.solve_lp
    monkeypatch.setattr(bmatching, "solve_lp", lambda lp: solves.append(lp) or solve(lp))
    covered = solved = 0
    for g in seeded_games(kind):
        a = GameAnalysis(g)
        for imp in with_wrong_total(probes(a)):
            zero_point = min(imp.values()) >= 0 and scaled_cover(g, imp)
            solves.clear()
            got = in_dual_image(a, imp)
            if zero_point and sum(imp.values()) == a.worth:
                assert got and solves == [], (g, imp)
                covered += 1
            else:
                assert len(solves) <= 1
                solved += len(solves)
    assert covered > 0 and solved > 0


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
