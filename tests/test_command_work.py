"""Which commands count the optimal matchings, and what an early "no" builds.

The count of optima (``ResidualTable.count()``) is needed only for the
essential / viable / subpar labels and the number of optima, so only
``classify``, ``degeneracy`` and the full report run it, once each.  Every
other command reads at most the worth, which is the double cover's
rounded matching or one lookup of the whole game's state in the table.

A ``check`` whose imputation has a negative entry answers "no" from the
signs alone and scales no weight; one with a wrong total reads only the
worth, which scales the weights once.
"""

from __future__ import annotations

import pytest

from matchcore import analysis
from matchcore.analysis import PAYMENT_VARIANTS, GameAnalysis
from matchcore.bmatching import B_VARIANTS
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.cli import main
from matchcore.gamefile import render_game
from matchcore.games import DEFAULT_BUDGET_CAP, DEFAULT_COALITION_CAP
from matchcore.matchings import ResidualTable
from matchcore.rationals import format_rational
from matchcore.reports import full_report

from gamegen import dual_imputation, shifted_imputation
from test_cli_digests import GAMES, imputation, make

BUNDLED = [load_instance(n) for n in INSTANCE_NAMES]
# Games on which a command applies: the payment commands on the two
# single-use variants, antipodal on assignment games, the dual image on
# the b-variants.
APPLIES = {
    "payments": PAYMENT_VARIANTS,
    "degeneracy": PAYMENT_VARIANTS,
    "antipodal": ("assignment",),
    "dual-image": B_VARIANTS,
}
COUNTED = {"classify", "degeneracy", "full_report"}
COMMANDS = (
    "worth", "concurrency", "dual", "imputation", "system", "payments", "antipodal",
    "check:yes", "check:no", "dual-image", "classify", "degeneracy", "full_report",
)
CASES = [
    (command, g)
    for command in COMMANDS
    for g in BUNDLED
    if g.variant in APPLIES.get(command, (g.variant,))
    and (command != "check:yes" or GameAnalysis(g).concurrent)
]


def count_counts(monkeypatch):
    """Start logging each ``ResidualTable.count()``; read the log's length."""
    log = []
    count = ResidualTable.count
    monkeypatch.setattr(ResidualTable, "count", lambda self: log.append(1) or count(self))
    return lambda: len(log)


def run(tmp_path, g, command, *extra):
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    return main([command, "--game", str(path), *extra])


def profits(g, imp):
    return "--imputation=" + ",".join(format_rational(imp[q]) for q in g.vertices)


@pytest.mark.parametrize(
    "command,g", CASES, ids=[f"{c}-{g.name}" for c, g in CASES]
)
def test_only_the_labels_count_the_optima(monkeypatch, capsys, tmp_path, command, g):
    imp = dual_imputation(g)
    counts = count_counts(monkeypatch)
    if command == "full_report":
        full_report(g, DEFAULT_COALITION_CAP, DEFAULT_BUDGET_CAP)
    elif command.startswith("check"):
        if command == "check:no":
            imp = shifted_imputation(g, imp)
        assert run(tmp_path, g, "check", profits(g, imp)) == (command == "check:no")
    elif command == "dual-image":
        assert run(tmp_path, g, command, profits(g, imp)) in (0, 1)
    else:
        assert run(tmp_path, g, command) == 0
    capsys.readouterr()
    assert counts() == (command in COUNTED)


def test_every_command_runs_on_some_game():
    assert {c for c, _ in CASES} == set(COMMANDS)
    assert {g.variant for c, g in CASES if c == "check:yes"} >= {"assignment", "b-general"}


@pytest.mark.parametrize("how", ["negative", "total"])
@pytest.mark.parametrize("kind,seed", GAMES, ids=[f"{k}-{s}" for k, s in GAMES])
def test_an_early_no_scales_only_what_the_worth_needs(
    monkeypatch, capsys, tmp_path, kind, seed, how
):
    # A negative entry is answered before the worth: no IntegerGame.  A
    # wrong total reads the worth, which scales the weights once, and the
    # membership test adds no second scaling.
    g = make(kind, seed)
    imp = imputation(g, how)
    built = []
    scale = analysis.integer_game
    monkeypatch.setattr(analysis, "integer_game", lambda g: built.append(g) or scale(g))
    assert run(tmp_path, g, "check", profits(g, imp)) == 1
    assert "in-core = no" in capsys.readouterr().out
    assert len(built) == (how == "total")
