"""Work done by a full report, a core check and meet/join: each fact of
the game is computed once, and a "no" stops at its witness.

Each session builds at most one table, the residual-capacity
``matchings.ResidualTable``, on every variant.  The count of the grand
coalition's optima comes from one ``count()`` of it, and each coalition
worth from one lookup in it; no integer search runs, and no command
lists the optimal matchings.  The grand coalition's worth comes with the
count, except on a single-use game whose double cover rounds to a
matching (see ``rounds``) and that has not counted its optima: there
the matching gives the worth, and a session that needs no coalition
worth and no count builds no table.  The payment answers and an
assignment game's antipodal points come from the core's octagon over
that matching, or over one traced through the table, with no LP.

Calls are counted by rebinding a function under every name the package's
modules hold it by (``from .x import y`` makes copies), so no call path
escapes the count.
"""

import re
import sys
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from random import Random

import pytest

import matchcore.cli  # noqa: F401  (loads every module)
from matchcore import analysis, cli, games, matchings, simplex
from matchcore.analysis import PAYMENT_VARIANTS, GameAnalysis
from matchcore.bmatching import sample_core_imputations
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamefile import render_game
from matchcore.games import (
    DEFAULT_BUDGET_CAP,
    DEFAULT_COALITION_CAP,
    connected_coalitions,
    make_game,
)
from matchcore.matchings import (
    ResidualTable,
    brute_force_optima,
    double_cover_optimum,
    fractional_optimum,
    integer_game,
    integer_search,
)
from matchcore.rationals import format_rational
from matchcore.reports import degeneracy_section, full_report, system_section

from gamegen import (
    dual_imputation,
    random_assignment,
    random_b_game,
    random_general,
    shifted_imputation,
    with_vertex_floors,
)

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")


def count_calls(monkeypatch, original):
    """Rebind ``original`` everywhere in the package; return the call log."""
    log = []

    def counted(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "matchcore" or name.startswith("matchcore."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return log


def count_recursions(monkeypatch):
    """Start counting the recursions that give a game's worth and the work
    done in its table.  Calling the result reads, in order: each recursion
    ("search" for an integer search, "table" for a table's count), each
    table built ("table"), and the mask of the vertices of each ``worth``
    lookup."""
    searched = count_calls(monkeypatch, integer_search)
    counted, built, looked_up = [], [], []
    init, count, lookup = ResidualTable.__init__, ResidualTable.count, ResidualTable.worth

    def logged_init(self, *args):
        built.append("table")
        init(self, *args)

    def logged_count(self):
        counted.append("table")
        return count(self)

    def logged_worth(self, state):
        start = self.start
        looked_up.append(sum([1 << p for p, x in enumerate(start) if state & x == x]))
        return lookup(self, state)

    monkeypatch.setattr(ResidualTable, "__init__", logged_init)
    monkeypatch.setattr(ResidualTable, "count", logged_count)
    monkeypatch.setattr(ResidualTable, "worth", logged_worth)
    return lambda: (["search"] * len(searched) + counted, list(built), list(looked_up))


# The recursions that gave the worth (see count_recursions), the tables
# built, the coalitions looked up in a table, in order, and vertex sets
# whose optima were listed.
Work = namedtuple("Work", "grand tables looked_up listed")
ONE = ["table"]


def rounds(g):
    """Is ``g`` single-use with a double cover that rounds to a matching?
    Its session then reads the worth from that matching, with no table,
    until it counts its optima."""
    if g.variant not in PAYMENT_VARIANTS:
        return False
    return double_cover_optimum(integer_game(g), len(g.left)).matching is not None


def count_work(monkeypatch, g):
    """Start counting the work done on ``g``; read it by calling the result."""
    listed = count_calls(monkeypatch, brute_force_optima)
    recursions = count_recursions(monkeypatch)

    def members(mask):
        return frozenset(q for p, q in enumerate(g.vertices) if mask >> p & 1)

    def work():
        grand, built, looked_up = recursions()
        return Work(
            grand,
            built,
            [members(mask) for mask in looked_up],
            [frozenset(args[0].vertices) for args in listed],
        )

    return work


def count_start_sums(monkeypatch, g):
    """Start logging the coalitions whose table state, the sum of their
    members' ``start`` entries, a session of ``g`` computes; read the log,
    in order, by calling the result."""
    ids = sorted(g.vertices, reverse=True)
    log = []
    build = analysis.GameAnalysis._start_sum.func

    def logged(self):
        state = build(self)
        return lambda m: log.append(games._members(ids, m)) or state(m)

    prop = cached_property(logged)
    prop.__set_name__(GameAnalysis, "_start_sum")
    monkeypatch.setattr(GameAnalysis, "_start_sum", prop)
    return lambda: list(log)


def generated_games(kinds, count):
    rng = Random(5)
    games = []
    while len(games) < count:
        kind = kinds[len(games) % len(kinds)]
        if kind == "assignment":
            g = random_assignment(rng, max_side=4, density=0.7)
        elif kind == "general-matching":
            g = random_general(rng, max_n=7, density=0.5)
        else:
            g = random_b_game(rng, kind)
        if g.edges:
            games.append(g)
    return games


PAYMENT_GAMES = [
    load_instance(n)
    for n in INSTANCE_NAMES
    if load_instance(n).variant in ("assignment", "general-matching")
] + generated_games(("assignment", "general-matching"), 20)


def _report(g):
    return full_report(g, DEFAULT_COALITION_CAP, DEFAULT_BUDGET_CAP)


B_INSTANCES = [
    load_instance(n) for n in INSTANCE_NAMES if load_instance(n).variant in B_VARIANTS
]


@pytest.mark.parametrize(
    "g", PAYMENT_GAMES + B_INSTANCES, ids=lambda g: g.name or g.variant
)
def test_full_report_enumerates_once_and_solves_one_lp(monkeypatch, g):
    # One count of the session's table gives the labels, the optima
    # count and the worth: the game is neither searched nor listed.
    work = count_work(monkeypatch, g)
    solves = count_calls(monkeypatch, simplex.solve_lp)
    primal = count_calls(monkeypatch, fractional_optimum)
    hungarian = count_calls(monkeypatch, matchings._hungarian)
    runs = []
    run = simplex._run
    monkeypatch.setattr(simplex, "_run", lambda *a: runs.append(1) or run(*a))
    _report(g)
    # The fractional optimum is a b-variant's worth, with no Hungarian run.
    # A single-use game's comes from one Hungarian run, on its double cover
    # or an assignment game's own matrix, which also gives the matching
    # that anchors the core's octagon.
    assert len(hungarian) == (g.variant in PAYMENT_VARIANTS)
    assert primal == []
    if g.variant not in PAYMENT_VARIANTS:
        # The core system looks up every coalition, and the dual-image
        # test may solve its own LP after the dual's.
        assert work()[:2] == (ONE, ONE) and work().listed == []
        assert [args[0].variables[0][:2] for args in solves][:1] == ["y["]
        return
    # No coalition worth is looked up, and the one LP solved is the
    # dual's: the payments come from the core's octagon.
    assert work() == Work(ONE, ONE, [], [])
    assert [args[0].variables[0][:2] for args in solves] == ["y["]
    # Phase 1 and phase 2 of that one solve, and no other phase 2.
    assert 1 <= len(runs) <= 2


@pytest.mark.parametrize(
    "g", PAYMENT_GAMES[::3] + B_INSTANCES, ids=lambda g: g.name or g.variant
)
def test_fractional_before_the_dual_solves_no_lp(monkeypatch, tmp_path, g):
    # Without the dual, the fractional optimum is a bipartite game's worth
    # or a general game's double cover: no LP, so none for the concurrency
    # command either.
    solves = count_calls(monkeypatch, simplex.solve_lp)
    GameAnalysis(g).fractional
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    assert cli.main(["concurrency", "--game", str(path)]) == 0
    assert solves == []


def test_general_concurrency_over_the_budget_does_no_matching_work(
    monkeypatch, capsys, tmp_path
):
    # The worth's cap check comes first: the double cover is not reached.
    covered = count_calls(monkeypatch, double_cover_optimum)
    work = count_work(monkeypatch, load_instance("ring7"))
    path = tmp_path / "game.txt"
    path.write_text(render_game(load_instance("ring7")))
    assert cli.main(["concurrency", "--game", str(path), "--budget", "6"]) == 3
    assert "budget 7 exceeds cap 6" in capsys.readouterr().err
    assert covered == []
    assert work() == Work([], [], [], [])


@pytest.mark.parametrize("command", ["worth", "concurrency"])
@pytest.mark.parametrize("g", PAYMENT_GAMES, ids=lambda g: g.name or g.variant)
def test_worth_and_concurrency_build_a_table_only_where_the_cover_does_not_round(
    monkeypatch, tmp_path, g, command
):
    # One Hungarian per session gives the fractional optimum and, where its
    # assignment rounds to a matching, the worth: then no table is built.
    # Otherwise (an odd cycle of once-used edges, as on every
    # non-concurrent game) the worth is counted in the table.
    covered = count_calls(monkeypatch, double_cover_optimum)
    work = count_work(monkeypatch, g)
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    assert cli.main([command, "--game", str(path)]) == 0
    assert len(covered) == 1
    assert work() == (Work([], [], [], []) if rounds(g) else Work(ONE, ONE, [], []))


def test_payment_games_part_on_the_rounding():
    # Both branches above are taken: k3 and a generated general game are not
    # concurrent, and tritail4 is concurrent but its assignment holds an
    # odd cycle.
    apart = {g.name or g.variant: GameAnalysis(g).concurrent
             for g in PAYMENT_GAMES if not rounds(g)}
    assert apart == {"k3": False, "tritail4": True, "general-matching": False}
    assert all([rounds(g) for g in PAYMENT_GAMES if g.variant == "assignment"])


@pytest.mark.parametrize("name", ["ring7", "tiers8"])
@pytest.mark.parametrize("command", ["payments", "degeneracy"])
def test_payment_commands_solve_no_lp(monkeypatch, tmp_path, command, name):
    # Concurrency comes from the double cover and the answers from the
    # core's octagon, so no LP runs, the dual's included, on a general game
    # or on an assignment game.
    solves = count_calls(monkeypatch, simplex.solve_lp)
    path = tmp_path / "game.txt"
    path.write_text(render_game(load_instance(name)))
    assert cli.main([command, "--game", str(path)]) == 0
    assert solves == []


@pytest.mark.parametrize("name", ["ring7", "tritail4", "tiers8", "path5", "web5", "k3"])
def test_degeneracy_report_reuses_the_payment_report(monkeypatch, name):
    # One octagon per session, however the two facts are asked for, and
    # none where the core is empty.  One count gives the labels, the optima
    # count and the worth: the game is neither searched nor listed.
    octagons = count_calls(monkeypatch, matchings.core_octagon)
    g = load_instance(name)
    work = count_work(monkeypatch, g)
    a = GameAnalysis(g)
    degeneracy_section(a)
    a.payments
    degeneracy_section(a)
    [a.vertex_payment(q) for q in g.vertices]
    [a.edge_payment(k) for k in g.edge_keys]
    assert len(octagons) == (1 if a.concurrent else 0)
    assert work() == Work(ONE, ONE, [], [])


@pytest.mark.parametrize("g", PAYMENT_GAMES[:8], ids=lambda g: g.name or g.variant)
def test_labels_and_coalition_worths_build_one_table(monkeypatch, g):
    # The coalition worths are read from the table the count filled, one
    # lookup per coalition.
    work = count_work(monkeypatch, g)
    a = GameAnalysis(g)
    a.labels
    a.system
    a.labels
    done = work()
    assert (done.grand, done.tables) == (ONE, ONE)
    assert done.looked_up == [s for s, _ in a.system.inequalities]


@pytest.mark.parametrize(
    "g",
    [load_instance(n) for n in INSTANCE_NAMES if load_instance(n).variant in B_VARIANTS]
    + generated_games(B_VARIANTS, 8),
    ids=lambda g: g.name or g.variant,
)
def test_b_variant_report_enumerates_the_grand_coalition_once(monkeypatch, g):
    # One count gives the labels, the optima count and the worth; the
    # coalition worths of the system section are looked up in the same
    # table.  Nothing searches the game or lists its optima.
    work = count_work(monkeypatch, g)
    _report(g)
    done = work()
    assert (done.grand, done.tables, done.listed) == (ONE, ONE, [])


def capped_path(variant, b):
    """A weighted path u1-v1-u2-v2-u3 with every vertex cap ``b``."""
    edges = [("u1", "v1", 3), ("u2", "v1", 2), ("u2", "v2", 4), ("u3", "v2", 1)]
    return make_game(variant, ("u1", "u2", "u3"), ("v1", "v2"), edges, vertex_upper=b)


# Every variant, and bounds the variant does not decide: b-uniform with
# b = 2, and b-constrained and b-general games with every cap 1, which are
# single-use.
ONE_TABLE_GAMES = generated_games(("assignment", "general-matching", *B_VARIANTS), 6) + [
    capped_path("b-uniform", 2),
    capped_path("b-constrained", 1),
    capped_path("b-general", 1),
]


@pytest.mark.parametrize("ask", ["labels", "system", "membership", "degeneracy"])
@pytest.mark.parametrize(
    "g", ONE_TABLE_GAMES, ids=lambda g: f"{g.variant}-{max(g.vertex_upper.values())}"
)
def test_every_session_builds_one_table_and_counts_once(monkeypatch, g, ask):
    # One table for every game; the count, the labels and every coalition
    # worth are read from it, whatever is asked, and so is the worth, but
    # where membership reads it from the double cover's matching: the
    # outside point's scan builds the table and counts nothing.
    inside = dual_imputation(g)
    outside = shifted_imputation(g, inside)
    work = count_work(monkeypatch, g)
    a = GameAnalysis(g)
    if ask == "membership":
        a.membership(inside)
        a.membership(outside)
    elif ask == "degeneracy":
        degeneracy_section(a)
    else:
        getattr(a, ask)
        a.labels
        a.worth
    done = work()
    grand = [] if ask == "membership" and rounds(g) else ONE
    assert (done.grand, done.tables, done.listed) == (grand, ONE, [])
    assert len(set(done.looked_up)) == len(done.looked_up)


def test_one_table_games_part_where_the_variant_does_not_decide():
    caps = {(g.variant, max(g.vertex_upper.values())) for g in ONE_TABLE_GAMES}
    assert {("b-uniform", 2), ("b-constrained", 1), ("b-general", 1)} <= caps
    assert {g.variant for g in ONE_TABLE_GAMES} == {"assignment", "general-matching", *B_VARIANTS}


@pytest.mark.parametrize(
    "command,line", [("worth", "grand-coalition = 8"), ("classify", "optimal-matchings = 2027025")]
)
def test_unit_k16_is_counted_inside_the_default_caps(
    monkeypatch, capsys, tmp_path, command, line
):
    # 16 vertices and a budget of 16 are within the default caps.  The
    # game has 2,027,025 optimal matchings: none is listed.
    vs = [f"v{i + 1}" for i in range(16)]
    edges = [(a, b, 1) for i, a in enumerate(vs) for b in vs[i + 1:]]
    g = make_game("general-matching", [], vs, edges)
    listed = count_calls(monkeypatch, brute_force_optima)
    path = tmp_path / "k16.game"
    path.write_text(render_game(g))
    assert cli.main([command, "--game", str(path)]) == 0
    assert line in capsys.readouterr().out.splitlines() and listed == []


VARIANTS = ("assignment", "general-matching", *B_VARIANTS)
# Two edges or more, so that some proper coalition has a positive worth
# and an imputation can be shifted out of the core below it.
CHECK_GAMES = [g for g in generated_games(VARIANTS, 24) if len(g.edges) >= 2]


def cli_check(monkeypatch, capsys, tmp_path, g, imp):
    """``matchcore check`` on ``g``: exit code, witness, work done."""
    work = count_work(monkeypatch, g)
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    text = ",".join(format_rational(imp[q]) for q in g.vertices)
    code = cli.main(["check", "--game", str(path), f"--imputation={text}"])
    found = re.search(r"witness = \{(.*)\}", capsys.readouterr().out)
    witness = frozenset(found.group(1).split(",")) if found else None
    return code, witness, work()


@pytest.mark.parametrize("g", CHECK_GAMES, ids=lambda g: g.variant)
def test_check_enumerates_the_grand_coalition_once(monkeypatch, capsys, tmp_path, g):
    # At most once: not at all where the double cover's matching gives the worth.
    code, _, work = cli_check(monkeypatch, capsys, tmp_path, g, dual_imputation(g))
    assert code in (0, 1)
    assert (work.grand, work.listed) == ([] if rounds(g) else ONE, [])


@pytest.mark.parametrize("g", CHECK_GAMES, ids=lambda g: g.variant)
def test_certified_yes_computes_no_coalition_worth(monkeypatch, capsys, tmp_path, g):
    # No edge floors here, so the core points read off an optimal dual are
    # certified by it: "yes" looks up no coalition and runs no search; the
    # one table is built for the worth, and none where the double cover's
    # matching gives it.  Only a general game with an empty core answers
    # "no" (a wrong total).
    code, _, work = cli_check(monkeypatch, capsys, tmp_path, g, dual_imputation(g))
    assert code == (0 if GameAnalysis(g).concurrent else 1)
    assert work == (Work([], [], [], []) if rounds(g) else Work(ONE, ONE, [], []))


@pytest.mark.parametrize("how", ["shifted", "negative", "total"])
@pytest.mark.parametrize("g", CHECK_GAMES, ids=lambda g: g.variant)
def test_no_answer_enumerates_nothing_after_its_witness(
    monkeypatch, capsys, tmp_path, g, how
):
    imp = dual_imputation(g)
    if how == "shifted":
        imp = shifted_imputation(g, imp)
    elif how == "negative":
        imp[g.vertices[0]] = Fraction(-1)
    else:
        imp[g.vertices[0]] += 1
    start_sums = count_start_sums(monkeypatch, g)
    code, witness, work = cli_check(monkeypatch, capsys, tmp_path, g, imp)
    assert code == 1
    grand = frozenset(g.vertices)
    proper = [s for s in connected_coalitions(g) if s != grand]
    # A negative entry is answered before the grand worth, a wrong total
    # before any coalition.  Where the double cover's matching gives the
    # worth, nothing is counted, and a wrong total builds no table.
    prefix = proper[: proper.index(witness) + 1] if how == "shifted" else []
    counted = how != "negative" and not rounds(g)
    assert work.grand == (ONE if counted else [])
    assert work.listed == []
    # At most one table per session, on every variant, looked up once per
    # coalition, in order, up to the witness and no further.
    tables = ONE if counted or how == "shifted" else []
    assert (work.tables, work.looked_up) == (tables, prefix)
    # A coalition's table state is computed when the scan reaches it, so
    # only for the coalitions looked up.
    assert start_sums() == prefix


def floored_games(count):
    """b-general games with vertex and edge floors and a feasible grand
    coalition; in some of them the floors leave a coalition infeasible."""
    rng = Random(61)
    out = []
    while len(out) < count:
        g = with_vertex_floors(rng, random_b_game(rng, "b-general", with_floors=True))
        try:
            GameAnalysis(g).worth
        except matchings.InfeasibleGameError:
            continue
        if g.edges:
            out.append(g)
    return out


SYSTEM_GAMES = B_INSTANCES + generated_games(VARIANTS, 12) + floored_games(16)


@pytest.mark.parametrize("g", SYSTEM_GAMES, ids=lambda g: g.name or g.variant)
def test_system_section_builds_coalitions_only_where_skipped(monkeypatch, g):
    # The rows are text built from masks: only a skipped coalition, listed
    # by its sorted names, becomes a frozenset.
    skipped = GameAnalysis(g).system.skipped
    built = count_calls(monkeypatch, games._members)
    lines = system_section(GameAnalysis(g))
    assert len(built) == len(skipped)
    assert lines[-1].startswith("skipped-infeasible = ") == bool(skipped)


def test_system_games_skip_somewhere_and_nowhere():
    skipped = [bool(GameAnalysis(g).system.skipped) for g in SYSTEM_GAMES]
    assert any(skipped) and not all(skipped)


def meet_join_inputs():
    cases = [(load_instance(n), *GameAnalysis(load_instance(n)).antipodal)
             for n in ("web5", "tiers8")]
    rng = Random(83)
    while len(cases) < 8:
        g = random_b_game(rng, "b-uniform", max_side=2, max_b=2)
        if g.edges:
            samples = sample_core_imputations(GameAnalysis(g).system, seed=3, count=2)
            cases.append((g, samples[0], samples[-1]))
    return cases


MEET_JOIN_INPUTS = meet_join_inputs()


@pytest.mark.parametrize(
    "g,p,q", MEET_JOIN_INPUTS, ids=[g.name or g.variant for g, _, _ in MEET_JOIN_INPUTS]
)
def test_meet_join_enumerates_each_coalition_at_most_once(monkeypatch, g, p, q):
    # The four core points of an assignment game are certified "yes" with
    # the worth from the double cover's matching: no table at all.
    work = count_work(monkeypatch, g)
    analysis.meet_join(GameAnalysis(g), p, q)
    done = work()
    tables = [] if rounds(g) else ONE
    assert (done.grand, done.tables, done.listed) == (tables, tables, [])
    assert len(set(done.looked_up)) == len(done.looked_up)


@pytest.mark.parametrize("g", CHECK_GAMES, ids=lambda g: g.variant)
def test_membership_after_system_enumerates_nothing(monkeypatch, g):
    a = GameAnalysis(g)
    rows = a.system.inequalities
    inside = dual_imputation(g)
    outside = shifted_imputation(g, inside)
    work = count_work(monkeypatch, g)
    a.membership(inside)
    verdict = a.membership(outside)
    assert work() == Work([], [], [], [])
    assert not verdict.in_core and verdict.witness in [s for s, _ in rows]
