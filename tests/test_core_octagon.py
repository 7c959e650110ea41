"""Payment answers from the core's octagon, against the cold face LP.

Fix an optimal matching M of a concurrent single-use game.  Every core
point is tight on M and pays a vertex that M leaves unmatched 0, so one
variable per edge of M fixes it, and every core row bounds at most two of
them with coefficients ±1: the core is an octagon, and the most of each
±x_p ± x_q over it is an entry of its strong closure
(``matchings.core_octagon``).  The session reads every payment answer, the
profit bounds and an assignment game's antipodal points from that one
matrix.  Each is compared here with the dual's optimal face, solved cold
(``simplex.solve_over_optimal_face``: the dual LP's rows plus "objective
== optimum", from a fresh phase 1).  A tampered matrix, matching or
witness must be refused, and the work tests pin that no payment answer
solves an LP or asks a face anything.
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
from matchcore.matchings import (
    DoubleCover,
    ResidualTable,
    SolverInvariantError,
    core_octagon,
    double_cover_optimum,
    integer_game,
)
from matchcore.reports import full_report
from matchcore.simplex import solve_over_optimal_face

from gamegen import payment_games, random_assignment, random_general, tied_payment_games
from test_reports import ONE, Work, count_calls, count_work, rounds

Z, O = F(0), F(1)
CHUNKS = 8


def general_game(seed):
    return random_general(Random(seed), max_n=8, density=(0.3, 0.6, 0.9)[seed % 3])


def assignment_game(seed):
    return random_assignment(Random(seed), max_side=6, density=(0.3, 0.6, 1.0)[seed % 3])


# About 90% of the general games are concurrent: 2,300 seeds give 2,068
# nonempty cores (see test_the_games_cover_the_cases).
GENERAL_SEEDS = range(2300)
ASSIGNMENT_SEEDS = range(800)
NAMED = payment_games() + tied_payment_games()


class ColdFace:
    """The dual's optimal face of one game, as ``solve_over_optimal_face``
    builds it: the dual LP's rows plus "objective == optimum".

    The first question is solved cold by ``solve_over_optimal_face``, which
    also checks that the optimum supplied is the dual's.  Every later one
    runs phase 2 of the same explicit face LP from the feasible basis of
    that first answer (``Tableau.optimize``), so each answer is checked
    against every row of the face LP too.
    """

    def __init__(self, g, optimum):
        self.lp = build_dual_lp(g)
        self.optimum = optimum
        self.basis = None

    def best(self, goal, maximize=True):
        coeffs = tuple([goal.get(v, Z) for v in self.lp.variables])
        if self.basis is None:
            sol = solve_over_optimal_face(self.lp, self.optimum, coeffs, maximize)
            self.basis = sol.tableau
        else:
            sol = self.basis.optimize(coeffs, maximize)
        assert sol.status == "optimal"
        return sol


def prices(*vertices):
    return {f"y[{q}]": O for q in vertices}


def check_against_the_face(g):
    """Every answer of ``g``'s session against the cold face LP; False where
    the core is empty."""
    a = GameAnalysis(g)
    rep = a.payments
    if rep is None:
        assert not a.concurrent and a.profit_bounds(g.vertices[0]) is None
        return False
    face = ColdFace(g, a.worth)
    weight = {(i, j): w for i, j, w in g.edges}
    for q in g.vertices:
        lo = face.best(prices(q), False).objective_value
        hi = face.best(prices(q)).objective_value
        assert a.profit_bounds(q) == (lo, hi)
        assert rep.vertices[q] == hi
    for k in g.edge_keys:
        over = face.best(prices(*k)).objective_value - weight[k]
        assert rep.edges[k] == over
    if g.variant == "assignment":
        # Each side's best point is the unique maximizer of its side's total.
        for best, side in zip(a.antipodal, (g.left, g.right)):
            sol = face.best(prices(*side))
            assert best == {q: sol.values[f"y[{q}]"] for q in g.vertices}
    return True


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_general_payments_equal_the_cold_face_lp(chunk):
    for s in GENERAL_SEEDS[chunk::CHUNKS]:
        check_against_the_face(general_game(s))


@pytest.mark.parametrize("chunk", range(CHUNKS // 2))
def test_assignment_payments_and_antipodal_points_equal_the_cold_face_lp(chunk):
    for s in ASSIGNMENT_SEEDS[chunk :: CHUNKS // 2]:
        assert check_against_the_face(assignment_game(s))


def test_named_and_tied_payments_equal_the_cold_face_lp():
    # payment_games() holds every bundled payment game, tritail4 and ring7
    # among them; tied_payment_games() redraws every weight from 0 to 3.
    names = {g.name for g in NAMED}
    assert {"tritail4", "ring7"} <= names
    assert sum([check_against_the_face(g) for g in NAMED]) > 100


def test_later_questions_equal_cold_solves():
    # A phase 2 from the first answer's basis reaches the optimum that a
    # cold solve of the face LP does.
    for g in payment_games()[:12]:
        a = GameAnalysis(g)
        if not a.concurrent:
            continue
        face = ColdFace(g, a.worth)
        face.best(prices(g.vertices[0]))
        for goal in [prices(q) for q in g.vertices] + [prices(*k) for k in g.edge_keys]:
            for maximize in (True, False):
                coeffs = tuple([goal.get(v, Z) for v in face.lp.variables])
                cold = solve_over_optimal_face(face.lp, a.worth, coeffs, maximize)
                assert face.best(goal, maximize).objective_value == cold.objective_value


def test_the_games_cover_the_cases(monkeypatch):
    # More than 2,000 nonempty general cores; cores where a sum row joins
    # two matched vertices' first or second ends, answers that no row of
    # the closure attains (an imposed witness), matchings traced through
    # the table where the double cover does not round, weights of 0, and
    # every case of an assignment game.
    traced, trace = [], ResidualTable.matching
    monkeypatch.setattr(ResidualTable, "matching", lambda self: traced.append(1) or trace(self))
    imposed = count_calls(monkeypatch, matchings._imposed)
    sums = count_calls(monkeypatch, matchings._strong_closure)
    concurrent = sum([GameAnalysis(general_game(s)).payments is not None for s in GENERAL_SEEDS])
    assert concurrent >= 2000
    assert len(traced) >= 10 and len(imposed) >= 50
    assert any([args[2] for args in sums]) and not all([args[2] for args in sums])
    weights = {w for g in NAMED for *_, w in g.edges}
    assert 0 in weights and any(w.denominator > 1 for w in weights)
    games = [assignment_game(s) for s in ASSIGNMENT_SEEDS]
    assert any(len(g.left) != len(g.right) for g in games)
    assert any(len(g.edges) == len(g.left) * len(g.right) > 4 for g in games)
    assert any(not g.edges for g in games)
    unmatched = 0
    for g in games[:200]:
        vlabels, _ = GameAnalysis(g).labels
        unmatched += any([label != "essential" for label in vlabels.values()])
    assert unmatched > 50


# -- the certificate ---------------------------------------------------------

TAMPER_GAMES = ["tiers8", "web5", "fork3", "path5", "ring7", "tritail4"]
SUM_ROWS = [general_game(s) for s in (2, 5, 9, 10)]  # sum rows and imposed witnesses


def raised_entry(real):
    def tampered(bar, arcs, sums):
        # The most profit of the first end of M's first edge, one above the
        # strong closure's.
        dist = real(bar, arcs, sums)
        dist[0][1] += 1
        return dist

    return tampered


def shifted(real):
    def tampered(*args):
        # Every witness moved by one on every node, z included: each still
        # attains what it did, but pays every vertex one more.
        got = real(*args)
        for v in got if isinstance(got[0], list) else [got]:
            v[:] = [x + 4 for x in v]
        return got

    return tampered


@pytest.mark.parametrize("g", [load_instance(n) for n in TAMPER_GAMES] + SUM_ROWS,
                         ids=lambda g: g.name or "general")
def test_a_raised_closure_entry_is_refused(monkeypatch, g):
    assert GameAnalysis(g).payments is not None  # the genuine matrix passes
    monkeypatch.setattr(matchings, "_strong_closure", raised_entry(matchings._strong_closure))
    with pytest.raises(SolverInvariantError, match="octagon"):
        GameAnalysis(g).payments


@pytest.mark.parametrize("g", [load_instance(n) for n in TAMPER_GAMES] + SUM_ROWS,
                         ids=lambda g: g.name or "general")
def test_a_tampered_witness_is_refused(monkeypatch, g):
    monkeypatch.setattr(matchings, "_witnesses", shifted(matchings._witnesses))
    monkeypatch.setattr(matchings, "_imposed", shifted(matchings._imposed))
    with pytest.raises(SolverInvariantError, match="witness of the core's octagon"):
        GameAnalysis(g).payments


def test_the_sum_row_games_need_imposed_witnesses(monkeypatch):
    imposed = count_calls(monkeypatch, matchings._imposed)
    for g in SUM_ROWS:
        GameAnalysis(g).payments
    assert imposed


@pytest.mark.parametrize("name", TAMPER_GAMES)
def test_a_matching_that_is_not_optimal_is_refused(name):
    # Dropping a positive edge of an optimal matching leaves no core point
    # tight on the rest: the octagon is empty.  Two edges at one vertex are
    # no matching.
    g = load_instance(name)
    ig = integer_game(g)
    matching = GameAnalysis(g)._cover.matching or GameAnalysis(g)._table.matching()
    core_octagon(ig, matching)
    heavy = max(matching, key=lambda t: ig.weights[t])
    with pytest.raises(SolverInvariantError, match="octagon is empty"):
        core_octagon(ig, tuple([t for t in matching if t != heavy]))
    i, _ = ig.ends[heavy]
    other = next(t for t, ends in enumerate(ig.ends) if i in ends and t != heavy)
    with pytest.raises(SolverInvariantError, match="needs a matching"):
        core_octagon(ig, tuple(sorted({*matching, other})))


def test_the_session_refuses_a_cover_that_rounds_to_a_worse_matching(monkeypatch):
    g = load_instance("tiers8")
    real = double_cover_optimum(integer_game(g), len(g.left))
    monkeypatch.setattr(
        analysis, "double_cover_optimum", lambda ig, nleft: DoubleCover(real.value, real.matching[1:])
    )
    with pytest.raises(SolverInvariantError, match="octagon is empty"):
        GameAnalysis(g).antipodal


def test_the_traced_matching_is_optimal():
    # On single-use games, cover or not: a matching of the table's best weight.
    games = NAMED + [general_game(s) for s in range(300)]
    for g in games:
        ig = integer_game(g)
        table = ResidualTable(ig, len(g.left))
        matching = table.matching()
        ends = [q for t in matching for q in ig.ends[t]]
        assert len(set(ends)) == len(ends)
        assert sum([ig.weights[t] for t in matching]) == table.count()[0]


def test_the_budget_cap_is_checked_first(capsys, tmp_path):
    path = tmp_path / "game.txt"
    path.write_text(render_game(load_instance("tiers8")))
    assert cli.main(["payments", "--game", str(path), "--budget", "2"]) == 3
    assert "exceeds cap 2" in capsys.readouterr().err


# -- the work ------------------------------------------------------------------

BUNDLED = [
    load_instance(n)
    for n in INSTANCE_NAMES
    if load_instance(n).variant in ("assignment", "general-matching")
]
WORK_GAMES = BUNDLED + [assignment_game(s) for s in range(4, 24)]
WORK_GAMES += [general_game(s) for s in range(4, 24)]


@pytest.mark.parametrize("g", WORK_GAMES, ids=lambda g: g.name or g.variant)
def test_a_report_asks_no_face_and_solves_one_lp(monkeypatch, g):
    # One LP, the dual's, for the [dual] section; its one phase 2; and no
    # face query, on either payment variant.
    optimize, original = [], simplex.Tableau.optimize
    monkeypatch.setattr(
        simplex.Tableau, "optimize", lambda self, *args: optimize.append(args) or original(self, *args)
    )
    solves = count_calls(monkeypatch, simplex.solve_lp)
    faces = count_calls(monkeypatch, simplex.solve_over_optimal_face)
    octagons = count_calls(monkeypatch, matchings.core_octagon)
    full_report(g, DEFAULT_COALITION_CAP, DEFAULT_BUDGET_CAP)
    assert (len(solves), len(optimize), faces) == (1, 1, [])
    assert len(octagons) == (1 if GameAnalysis(g).concurrent else 0)


COMMANDS = [(g, c) for g in WORK_GAMES for c in ("payments", "degeneracy")]
COMMANDS += [(g, "antipodal") for g in WORK_GAMES if g.variant == "assignment"]


@pytest.mark.parametrize("g, command", COMMANDS, ids=lambda x: getattr(x, "name", x) or "gen")
def test_payment_commands_solve_no_lp(monkeypatch, tmp_path, g, command):
    # The CLI's payment commands solve no LP on either payment variant, the
    # dual's included: concurrency comes from the double cover.
    solves = count_calls(monkeypatch, simplex.solve_lp)
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    assert cli.main([command, "--game", str(path)]) == 0
    assert solves == []


@pytest.mark.parametrize("g", WORK_GAMES, ids=lambda g: g.name or g.variant)
def test_payments_build_a_table_only_where_the_cover_does_not_round(monkeypatch, tmp_path, g):
    # One Hungarian per session gives the worth, concurrency and the
    # matching that anchors the octagon wherever its assignment rounds;
    # otherwise the table counts the worth and a matching is traced there.
    covered = count_calls(monkeypatch, double_cover_optimum)
    work = count_work(monkeypatch, g)
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    assert cli.main(["payments", "--game", str(path)]) == 0
    assert len(covered) == 1
    assert work() == (Work([], [], [], []) if rounds(g) else Work(ONE, ONE, [], []))


def test_zero_weights_reach_the_payments(capsys, tmp_path):
    # A file may give an edge weight 0: such an edge is always fairly paid
    # by a core where nobody is paid.
    g = make_game("general-matching", [], ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)])
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    assert cli.main(["payments", "--game", str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["a~b", "yes", "0"] in rows and ["b~c", "yes", "0"] in rows
