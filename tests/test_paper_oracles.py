"""Closed forms from the assignment-game literature as oracles, and the
concurrent general game where they fail.

For assignment games the largest core profit of a vertex is its marginal
worth v(N) - v(N - q) (Demange 1982; Leonard 1983).  For concurrent
general games the core maximum can lie strictly below the marginal worth;
``test_concurrent_general_gap`` pins the smallest known case with its
certificate.
"""

from fractions import Fraction as F
from random import Random

from matchcore.analysis import GameAnalysis, worth
from matchcore.games import make_game

from gamegen import random_assignment


def test_assignment_max_profit_is_the_marginal_worth():
    rng = Random(5)
    checked = 0
    for _ in range(60):
        g = random_assignment(rng, max_side=4, density=0.6)
        a = GameAnalysis(g)
        grand = frozenset(g.vertices)
        for q in g.vertices:
            marginal = a.worth - worth(g, grand - {q})
            assert a.payments.vertices[q] == marginal
            checked += 1
    assert checked > 200


def test_concurrent_general_gap():
    # Triangle v1 v2 v4 with a pendant v3 on v4.
    g = make_game(
        "general-matching",
        [],
        ["v1", "v2", "v3", "v4"],
        [("v1", "v2", 4), ("v1", "v4", F(3, 2)), ("v2", "v4", 3), ("v3", "v4", 8)],
    )
    a = GameAnalysis(g)
    assert a.concurrent and a.worth == 12  # the core is nonempty
    marginal = a.worth - worth(g, frozenset({"v1", "v2", "v4"}))
    assert marginal == 8
    top = a.payments.vertices["v3"]
    assert top == F(31, 4) < marginal
    # Certificate, lower bound: a core point that pays v3 exactly 31/4.
    point = {"v1": F(5, 4), "v2": F(11, 4), "v3": F(31, 4), "v4": F(1, 4)}
    assert a.membership(point).in_core
    # Certificate, upper bound: half the sum of the three triangle rows
    # gives y1 + y2 + y4 >= (4 + 3/2 + 3) / 2 = 17/4 at every core point,
    # so y3 = 12 - (y1 + y2 + y4) <= 31/4.
    rows = [frozenset(s) for s in ({"v1", "v2"}, {"v1", "v4"}, {"v2", "v4"})]
    rhs = sum((worth(g, s) for s in rows), start=F(0)) / 2
    assert rhs == F(17, 4) and a.worth - rhs == top
    for s in rows:
        assert s in dict(a.system.inequalities)
