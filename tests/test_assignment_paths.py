"""An assignment game's payment answers from the core's shortest paths.

Fix an optimal matching M.  Every core point is tight on M and pays an
unmatched vertex 0, so each core row is a difference constraint on the
left side's profits, and the most x_a - x_b over the core is a
shortest-path distance (``matchings.core_paths``).  The session reads
every payment answer, the profit bounds and both antipodal points from
that one table.  Each is compared here with the dual's optimal face,
asked two ways: cold (``simplex.solve_over_optimal_face``, a fresh solve
of the dual LP per question) and warm (a phase 2 on the session's own
face).  Tampered tables must be refused, and the work test pins that an
assignment report asks the face nothing.
"""

from fractions import Fraction as F
from random import Random

import pytest

import matchcore.cli  # noqa: F401  (loads every module)
from matchcore import analysis, cli, matchings, simplex
from matchcore.analysis import GameAnalysis
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamefile import render_game
from matchcore.gamelp import build_dual_lp
from matchcore.games import DEFAULT_BUDGET_CAP, DEFAULT_COALITION_CAP, make_game
from matchcore.matchings import DoubleCover, SolverInvariantError
from matchcore.reports import full_report
from matchcore.simplex import solve_over_optimal_face

from test_reports import count_calls, count_face_queries, face_questions

Z, O = F(0), F(1)

# Zeros and ties, and fractions over several denominators.
WHOLE = (0, 0, 1, 2, 3)
FRACTIONAL = (0, F(1, 2), 1, F(5, 2), F(7, 3), 4, F(9, 5), 9)


def random_game(seed: int):
    """An assignment game with sides of 1 to 5 vertices, often unbalanced,
    sparse to complete, its weights whole (zero-heavy) or fractional."""
    rng = Random(seed)
    nl, nr = rng.randint(1, 5), rng.randint(1, 5)
    density = rng.choice((0.3, 0.6, 1.0))
    pool = rng.choice((WHOLE, FRACTIONAL))
    left = [f"u{i + 1}" for i in range(nl)]
    right = [f"v{j + 1}" for j in range(nr)]
    edges = [(i, j, rng.choice(pool)) for i in left for j in right if rng.random() < density]
    return make_game("assignment", left, right, edges)


BUNDLED = [load_instance(n) for n in INSTANCE_NAMES if load_instance(n).variant == "assignment"]
CHUNKS = 8
GAMES = BUNDLED + [random_game(s) for s in range(2000)]


def test_the_games_cover_the_cases():
    # Zero and fractional weights, unbalanced sides, unmatched vertices in
    # some optimum, sparse and complete graphs, and games with no edge.
    assert len(GAMES) >= 2000 + len(BUNDLED) and len(BUNDLED) == 4
    weights = {w for g in GAMES for *_, w in g.edges}
    assert 0 in weights and any(w.denominator > 1 for w in weights)
    assert any(len(g.left) != len(g.right) for g in GAMES)
    assert any(len(g.edges) == len(g.left) * len(g.right) > 4 for g in GAMES)
    assert any(0 < len(g.edges) < len(g.left) * len(g.right) // 2 for g in GAMES)
    assert any(not g.edges for g in GAMES)
    unmatched = 0
    for g in GAMES[:200]:
        a = GameAnalysis(g)
        vlabels, _ = a.labels
        unmatched += any([label != "essential" for label in vlabels.values()])
    assert unmatched > 50


def cold_max(g, optimum, goal, maximize=True):
    """The optimum of ``goal`` over the dual's optimal face, from a fresh
    solve of the dual LP."""
    lp = build_dual_lp(g)
    coeffs = tuple([goal.get(v, Z) for v in lp.variables])
    sol = solve_over_optimal_face(lp, optimum, coeffs, maximize)
    assert sol.status == "optimal"
    return sol


def warm_max(a, goal, maximize=True):
    """The same optimum by a phase 2 on the session's face."""
    return a._face_extreme(goal, maximize)


def side(g, vertices):
    return {f"y[{q}]": O for q in vertices}


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_payments_and_antipodal_points_equal_the_face_lp(chunk):
    for g in GAMES[chunk::CHUNKS]:
        a = GameAnalysis(g)
        rep = a.payments
        left_best, right_best = a.antipodal
        face = GameAnalysis(g)
        optimum = face.worth
        for q in g.vertices:
            goal = {f"y[{q}]": O}
            assert rep.vertices[q] == a.vertex_payment(q)
            assert rep.vertices[q] == cold_max(g, optimum, goal).objective_value
            assert rep.vertices[q] == warm_max(face, goal).objective_value
        for k in g.edge_keys:
            goal = side(g, k)
            over = rep.edges[k]
            assert over == a.edge_payment(k)
            assert over == cold_max(g, optimum, goal).objective_value - g.weight(k)
            assert over == warm_max(face, goal).objective_value - g.weight(k)
        # Each side's best point is the unique maximizer of its side's total.
        for best, vertices in ((left_best, g.left), (right_best, g.right)):
            for sol in (cold_max(g, optimum, side(g, vertices)), warm_max(face, side(g, vertices))):
                assert best == {q: sol.values[f"y[{q}]"] for q in g.vertices}


def test_profit_bounds_equal_a_cold_min_and_max():
    for g in GAMES[::7]:
        a = GameAnalysis(g)
        for q in g.vertices:
            goal = {f"y[{q}]": O}
            lo = cold_max(g, a.worth, goal, False).objective_value
            hi = cold_max(g, a.worth, goal).objective_value
            assert a.profit_bounds(q) == (lo, hi)


def test_the_table_is_read_from_one_certified_matching(monkeypatch):
    # One Hungarian per session, on the game's own matrix, and one table.
    covered = count_calls(monkeypatch, matchings.double_cover_optimum)
    paths = count_calls(monkeypatch, matchings.core_paths)
    g = load_instance("tiers8")
    a = GameAnalysis(g)
    a.payments
    a.antipodal
    [a.profit_bounds(q) for q in g.vertices]
    [a.edge_payment(k) for k in g.edge_keys]
    assert [args[1] for args in covered] == [len(g.left)]
    assert len(paths) == 1


def negative_cycle(real):
    def tampered(n, arcs):
        # An arc z -> 0 one shorter than minus the path 0 -> z closes a
        # cycle of length -1.
        z = n - 1
        dist = real(n, arcs)
        return real(n, arcs + [(z, 0, -dist[0][z] - 1)])

    return tampered


def raised_entry(real):
    def tampered(n, arcs):
        # d(z, 0) one more than the shortest path: the last arc of that
        # path is broken in row z.
        dist = real(n, arcs)
        dist[n - 1][0] += 1
        return dist

    return tampered


@pytest.mark.parametrize("tamper", [negative_cycle, raised_entry])
@pytest.mark.parametrize("name", ["tiers8", "web5", "fork3", "path5"])
def test_tampered_table_is_refused(monkeypatch, tamper, name):
    g = load_instance(name)
    GameAnalysis(g).payments  # the genuine table passes
    monkeypatch.setattr(matchings, "_shortest_paths", tamper(matchings._shortest_paths))
    with pytest.raises(SolverInvariantError, match="shortest paths"):
        GameAnalysis(g).payments


def test_no_matching_is_refused(monkeypatch):
    # An assignment game's Hungarian always gives a matching; a cover
    # without one cannot anchor the table.
    monkeypatch.setattr(analysis, "double_cover_optimum", lambda ig, nleft: DoubleCover(Z, None))
    with pytest.raises(SolverInvariantError):
        GameAnalysis(load_instance("tiers8")).antipodal


def test_the_budget_cap_is_checked_first(capsys, tmp_path):
    path = tmp_path / "game.txt"
    path.write_text(render_game(load_instance("tiers8")))
    assert cli.main(["payments", "--game", str(path), "--budget", "2"]) == 3
    assert "exceeds cap 2" in capsys.readouterr().err


WORK_GAMES = BUNDLED + [
    load_instance(n) for n in INSTANCE_NAMES if load_instance(n).variant == "general-matching"
] + [g for g in GAMES[4:40] if g.edges]


@pytest.mark.parametrize("g", WORK_GAMES, ids=lambda g: g.name or g.variant)
def test_an_assignment_report_asks_the_face_nothing(monkeypatch, g):
    # One phase 2 on a tableau, the dual's own, for the [dual] section, and
    # no face query on an assignment game; a general report still asks its
    # face one question per essential vertex and subpar edge.
    vertices, edges = face_questions(GameAnalysis(g))
    optimize, original = [], simplex.Tableau.optimize
    monkeypatch.setattr(
        simplex.Tableau, "optimize", lambda self, *args: optimize.append(args) or original(self, *args)
    )
    queries = count_face_queries(monkeypatch)
    solves = count_calls(monkeypatch, simplex.solve_lp)
    full_report(g, DEFAULT_COALITION_CAP, DEFAULT_BUDGET_CAP)
    assert len(solves) == 1
    assert len(queries) == len(vertices) + len(edges)
    if g.variant == "assignment":
        assert queries == [] and len(optimize) == 1


# A game file's weights are positive.
CLI_GAMES = BUNDLED + [g for g in GAMES[4:40] if g.edges and min([w for *_, w in g.edges]) > 0]


@pytest.mark.parametrize("command", ["payments", "degeneracy", "antipodal"])
@pytest.mark.parametrize("g", CLI_GAMES, ids=lambda g: g.name or "gen")
def test_assignment_payment_commands_solve_no_lp(monkeypatch, tmp_path, g, command):
    # The CLI's payment commands on an assignment game solve no LP, the
    # dual's included.
    solves = count_calls(monkeypatch, simplex.solve_lp)
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    assert cli.main([command, "--game", str(path)]) == 0
    assert solves == []
