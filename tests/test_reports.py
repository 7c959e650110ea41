"""Work done by one full report: each fact of the game is computed once.

Calls are counted by rebinding a function under every name the package's
modules hold it by (``from .x import y`` makes copies), so no call path
escapes the count.
"""

import sys
from random import Random

import pytest

import matchcore.cli  # noqa: F401  (loads every module)
from matchcore import analysis, simplex
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.games import DEFAULT_BUDGET_CAP, DEFAULT_COALITION_CAP
from matchcore.matchings import brute_force_optima
from matchcore.reports import full_report

from gamegen import random_assignment, random_b_game, random_general

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


@pytest.mark.parametrize("g", PAYMENT_GAMES, ids=lambda g: g.name or g.variant)
def test_full_report_enumerates_once_and_solves_two_lps(monkeypatch, g):
    enums = count_calls(monkeypatch, brute_force_optima)
    solves = count_calls(monkeypatch, simplex.solve_lp)
    pays = count_calls(monkeypatch, analysis.payment_report)
    runs = []
    run = simplex._run
    monkeypatch.setattr(simplex, "_run", lambda *a: runs.append(1) or run(*a))
    queries = []
    optimize = simplex.OptimalTableau.optimize
    monkeypatch.setattr(
        simplex.OptimalTableau,
        "optimize",
        lambda self, *a: queries.append(1) or optimize(self, *a),
    )
    _report(g)
    assert [args[0] is g for args in enums] == [True]
    names = sorted(args[0].variables[0][:2] for args in solves)
    assert names == ["x[", "y["]  # one primal and one dual solve
    # Phase 1 and phase 2 once per solve at most; one phase 2 per query.
    assert len(runs) <= 2 * len(solves) + len(queries)
    assert len(runs) >= len(solves) + len(queries)
    assert pays == []


@pytest.mark.parametrize("name", ["ring7", "tiers8", "path5", "k3"])
def test_degeneracy_report_reuses_the_payment_report(monkeypatch, name):
    pays = count_calls(monkeypatch, analysis.payment_report)
    enums = count_calls(monkeypatch, brute_force_optima)
    analysis.degeneracy_report(load_instance(name))
    assert pays == [] and len(enums) == 1


@pytest.mark.parametrize(
    "g",
    [load_instance(n) for n in INSTANCE_NAMES if load_instance(n).variant in B_VARIANTS]
    + generated_games(B_VARIANTS, 8),
    ids=lambda g: g.name or g.variant,
)
def test_b_variant_report_enumerates_the_grand_coalition_once(monkeypatch, g):
    enums = count_calls(monkeypatch, brute_force_optima)
    _report(g)
    # The others are the coalition worths of the system section.
    assert sum(1 for args in enums if args[0] is g) == 1
