"""Every input error names its fault.

Each instance invariant of ``games.validate_game``, each shape check of
``simplex.LinearProgram`` and ``Tableau.optimize``, each game-file
error, and the command line's option errors, asserted by message.  A
game whose fault ``make_game`` cannot produce (a bound map that misses a
vertex or an edge, say) is built with ``dataclasses.replace`` on a
well-formed instance.  The file and command-line errors exit with code
2 and print the message on stderr, never a traceback; a broken invariant
of the solver is not an input error, and raises.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from matchcore import gamelp
from matchcore.bundled import load_instance
from matchcore.cli import main
from matchcore.gamefile import GameFileError, parse_game, render_game
from matchcore.games import GameInstance, SolverInvariantError, make_game, validate_game
from matchcore.simplex import LinearProgram, LPSolution, solve_lp

# u1 - v1 - u2 - v2, every bound free to move: caps 2 at u1 and v1.
BASE = make_game(
    "b-general",
    ("u1", "u2"),
    ("v1", "v2"),
    [("u1", "v1", 3), ("u2", "v1", 2), ("u2", "v2", 4)],
    vertex_upper={"u1": 2, "u2": 1, "v1": 2, "v2": 1},
)
EDGE = ("u1", "v1")
SINGLE = make_game("assignment", ("u1",), ("v1",), [("u1", "v1", 1)])
GENERAL = make_game("general-matching", (), ("v1", "v2"), [("v1", "v2", 1)])
UNIFORM = make_game("b-uniform", ("u1",), ("v1",), [("u1", "v1", 1)], vertex_upper=2)


def _set(g: GameInstance, field: str, key, value) -> GameInstance:
    """``g`` with ``key`` of the bound map ``field`` set to ``value``."""
    return replace(g, **{field: {**getattr(g, field), key: value}})


def _without(g: GameInstance, field: str, key) -> GameInstance:
    return replace(g, **{field: {k: v for k, v in getattr(g, field).items() if k != key}})


INVALID_GAMES = {
    "unknown variant 'b-odd'": replace(BASE, variant="b-odd"),
    **{
        f"invalid vertex id {q!r}": make_game("assignment", (q,), ("v1",), [(q, "v1", 1)])
        for q in ("u 1", "", "*", "u~1")
    },
    "duplicate vertex id 'v1'": replace(
        SINGLE, left=("v1",), edges=(), vertex_upper={"v1": 1}, vertex_lower={"v1": 0},
        edge_upper={}, edge_lower={},
    ),
    "general-matching games keep all vertices on one side": _set(
        _set(replace(GENERAL, left=("v3",)), "vertex_upper", "v3", 1), "vertex_lower", "v3", 0
    ),
    "self-loop at 'u1'": replace(
        BASE, edges=(*BASE.edges, ("u1", "u1", Fraction(1))),
        edge_upper={**BASE.edge_upper, ("u1", "u1"): 1},
        edge_lower={**BASE.edge_lower, ("u1", "u1"): 0},
    ),
    "edge v1~v3 uses unknown vertex": replace(
        GENERAL, edges=(("v1", "v3", Fraction(1)),),
        edge_upper={("v1", "v3"): 1}, edge_lower={("v1", "v3"): 0},
    ),
    "edge v1~u1 does not go left to right": replace(
        SINGLE, edges=(("v1", "u1", Fraction(1)),),
        edge_upper={("v1", "u1"): 1}, edge_lower={("v1", "u1"): 0},
    ),
    "parallel edge u1~v1": replace(SINGLE, edges=SINGLE.edges * 2),
    "negative weight on edge u1~v1": replace(SINGLE, edges=(("u1", "v1", Fraction(-1)),)),
    "vertex cap map does not cover exactly the vertices": _without(BASE, "vertex_upper", "v2"),
    "vertex floor map does not cover exactly the vertices": _without(BASE, "vertex_lower", "v2"),
    "edge cap map does not cover exactly the edges": _without(BASE, "edge_upper", EDGE),
    "edge floor map does not cover exactly the edges": _without(BASE, "edge_lower", EDGE),
    "negative edge floor on u1~v1": _set(BASE, "edge_lower", EDGE, -1),
    "edge cap below one on u1~v1": _set(BASE, "edge_upper", EDGE, 0),
    "edge bound order violated on u1~v1": _set(BASE, "edge_lower", EDGE, 2),
    "vertex cap below one at 'v2'": _set(BASE, "vertex_upper", "v2", 0),
    "negative vertex floor at 'v2'": _set(BASE, "vertex_lower", "v2", -1),
    "vertex bound order violated at 'v2'": _set(BASE, "vertex_lower", "v2", 2),
    "single-use variant requires vertex caps of one": _set(SINGLE, "vertex_upper", "u1", 2),
    "uniform variant requires one common vertex cap": replace(
        _set(UNIFORM, "vertex_upper", "u1", 3), edge_upper={("u1", "v1"): 2}
    ),
    "vertex floors are only allowed in the b-general variant": _set(
        UNIFORM, "vertex_lower", "u1", 1
    ),
    "edge floors are only allowed in the b-general variant": _set(
        UNIFORM, "edge_lower", ("u1", "v1"), 1
    ),
    "single-use edges require edge caps of one": _set(SINGLE, "edge_upper", ("u1", "v1"), 2),
    "repeatable edge u1~v1 must carry cap min(b_i, b_j)": _set(
        UNIFORM, "edge_upper", ("u1", "v1"), 1
    ),
}


def test_the_base_games_are_well_formed():
    assert [validate_game(g) for g in (BASE, SINGLE, GENERAL, UNIFORM)] == [[]] * 4


@pytest.mark.parametrize("message", sorted(INVALID_GAMES))
def test_each_invariant_names_its_fault(message):
    assert validate_game(INVALID_GAMES[message]) == [message]


LP = LinearProgram(
    ("x", "y"), (Fraction(1), Fraction(1)), True, (((Fraction(1), Fraction(1)), "<=", Fraction(1)),)
)
BAD_LPS = {
    "duplicate variable names": replace(LP, variables=("x", "x")),
    "objective length does not match variables": replace(LP, objective=(Fraction(1),)),
    "nonnegative flags do not match variables": replace(LP, nonnegative=(True,)),
    "constraint width does not match variables": replace(
        LP, constraints=(((Fraction(1),), "<=", Fraction(1)),)
    ),
    "unknown relation '<'": replace(
        LP, constraints=(((Fraction(1), Fraction(1)), "<", Fraction(1)),)
    ),
    "row labels do not match constraints": replace(LP, row_labels=("a", "b")),
}


@pytest.mark.parametrize("message", sorted(BAD_LPS))
def test_each_lp_shape_error_names_its_fault(message):
    with pytest.raises(ValueError) as err:
        solve_lp(BAD_LPS[message])
    assert str(err.value) == message


def test_a_tableau_checks_the_objective_length():
    tableau = solve_lp(LP).tableau
    with pytest.raises(ValueError) as err:
        tableau.optimize((Fraction(1),), True)
    assert str(err.value) == "objective length does not match variables"


GOOD_FILE = render_game(load_instance("bpath4-gen-cap"))
BAD_FILES = {
    "line 2: expected 3 fields, got 2": "variant: assignment\nedge: u1 v1\n",
    "bound for unknown edge u1 v2": (
        "variant: b-general\nleft: u1\nright: v1 v2\nedge: u1 v1 1\ncap: u1 v2 2\n"
    ),
    "line 4: expected an integer, got '1.5'": (
        "variant: b-general\nleft: u1\nright: v1\nb: u1 1.5\n"
    ),
    "line 5: expected an integer, got '1/2'": (
        "variant: b-general\nleft: u1\nright: v1\nedge: u1 v1 1\nfloor: u1 v1 1/2\n"
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_good_file_parses():
    assert parse_game(GOOD_FILE) == load_instance("bpath4-gen-cap")


@pytest.mark.parametrize("message", sorted(BAD_FILES))
def test_each_file_error_names_its_fault_and_exits_2(capsys, tmp_path, message):
    text = BAD_FILES[message]
    with pytest.raises(GameFileError) as err:
        parse_game(text)
    assert str(err.value) == message
    path = tmp_path / "bad.game"
    path.write_text(text)
    assert run(capsys, "worth", "--game", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "cap,message",
    [("x", "invalid int value: 'x'"), ("1.5", "invalid int value: '1.5'"),
     ("-1", "must not be negative: -1")],
)
@pytest.mark.parametrize("option", ["--cap", "--budget"])
def test_a_bad_cap_exits_2(capsys, tmp_path, option, cap, message):
    path = tmp_path / "game.txt"
    path.write_text(GOOD_FILE)
    with pytest.raises(SystemExit) as exit_:
        main(["worth", "--game", str(path), f"{option}={cap}"])
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"argument {option}: {message}" in out.err


@pytest.mark.parametrize(
    "entry,message",
    [("1e3", "not a rational literal: '1e3'"), ("x", "not a rational literal: 'x'"),
     ("1/0", "zero denominator in rational literal '1/0'"), ("", "not a rational literal: ''")],
)
@pytest.mark.parametrize("command", ["check", "dual-image"])
def test_a_bad_rational_in_the_imputation_exits_2(capsys, tmp_path, command, entry, message):
    path = tmp_path / "game.txt"
    path.write_text(GOOD_FILE)
    got = run(capsys, command, "--game", str(path), f"--imputation=1,0,0,{entry}")
    assert got == (2, "", f"error: {message}\n")


def test_a_dual_that_is_not_an_optimum_is_no_input_error(monkeypatch, capsys, tmp_path):
    # The dual LP is always feasible, and an unbounded one means the floors
    # admit no matching: any other answer breaks the solver's contract.
    # That raises SolverInvariantError instead of exiting 2 as bad input.
    monkeypatch.setattr(gamelp, "solve_lp", lambda lp: LPSolution("infeasible", {}, None))
    path = tmp_path / "game.txt"
    path.write_text(GOOD_FILE)
    with pytest.raises(SolverInvariantError, match="dual LP did not produce an optimum"):
        main(["dual", "--game", str(path)])
    assert capsys.readouterr().err == ""
