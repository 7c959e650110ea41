import gc
import json
import subprocess
import sys

import pytest

from matchcore.bundled import INSTANCE_NAMES
from matchcore.cli import main
from matchcore.gamefile import render_game
from matchcore.bundled import load_instance
from matchcore.games import make_game
from matchcore.rationals import format_rational

from gamegen import dual_imputation, shifted_imputation
from test_gamefile import BAD_VERTEX_IDS


@pytest.fixture
def game_path(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.game"
        path.write_text(render_game(load_instance(name)))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_worth_command(capsys, game_path):
    code, out, _ = run(capsys, "worth", "--game", game_path("path5"))
    assert code == 0
    assert "grand-coalition = 21/10" in out


def test_concurrency_reports_empty_core(capsys, game_path):
    code, out, _ = run(capsys, "concurrency", "--game", game_path("k3"))
    assert code == 0
    assert "integral-optimum = 1" in out
    assert "fractional-optimum = 3/2" in out
    assert "core = empty" in out


def test_check_accepts_and_rejects(capsys, game_path):
    path = game_path("bpath4-con")
    code, out, _ = run(capsys, "check", "--game", path, "--imputation", "1,0,0,3")
    assert code == 0 and "in-core = yes" in out
    path = game_path("bpath4-uncon")
    code, out, _ = run(capsys, "check", "--game", path, "--imputation", "1,0,0,3")
    assert code == 1
    assert "in-core = no" in out and "witness = {u1,v1}" in out


def test_dual_image_command(capsys, game_path):
    path = game_path("bpath4-uncon")
    code, out, _ = run(capsys, "dual-image", "--game", path, "--imputation", "2,0,0,2")
    assert code == 0 and "in-dual-image = yes" in out
    code, out, _ = run(capsys, "dual-image", "--game", path, "--imputation", "3,0,0,1")
    assert code == 1 and "in-dual-image = no" in out


def test_imputation_vector_length_checked(capsys, game_path):
    code, _, err = run(
        capsys, "check", "--game", game_path("path5"), "--imputation", "1,2"
    )
    assert code == 2
    assert "entries" in err


def test_bad_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("variant: assignment\nleft: u\nright: v\nedge: u v -1\n")
    code, _, err = run(capsys, "worth", "--game", str(bad))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "worth", "--game", str(tmp_path / "missing.game"))
    assert code == 2


@pytest.mark.parametrize("case, command", [("star", "worth"), ("tilde", "dual")])
def test_reserved_vertex_id_is_input_error(capsys, tmp_path, case, command):
    # Before they were rejected, "worth" read the "*" game with every cap
    # 3, and "dual" answered on the "~" game whose edge names collide.
    path = tmp_path / f"{case}.game"
    path.write_text(BAD_VERTEX_IDS[case])
    code, out, err = run(capsys, command, "--game", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid game: invalid vertex id")


def test_negative_dual_profit_is_input_error(capsys, tmp_path):
    # An edge floor can make the dual-derived profit of u3 negative; the
    # command reports that as an input error instead of a traceback.
    path = tmp_path / "floor.game"
    path.write_text(
        "variant: b-general\n"
        "left: u1 u2 u3\n"
        "right: v1\n"
        "edge: u1 v1 5\n"
        "edge: u2 v1 8/5\n"
        "edge: u3 v1 1/2\n"
        "b: u1 2\n"
        "b: u3 3\n"
        "b: v1 2\n"
        "cap: u3 v1 2\n"
        "floor: u3 v1 1\n"
    )
    code, out, err = run(capsys, "imputation", "--game", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: dual-derived profits are negative at u3\n"


def _diagonal_game(tmp_path, variant):
    # 13 disjoint edges: multiplicity budget 26, above the default cap 24.
    left = [f"u{i}" for i in range(1, 14)]
    right = [f"v{i}" for i in range(1, 14)]
    edges = [(u, v, i) for i, (u, v) in enumerate(zip(left, right), start=1)]
    path = tmp_path / "diag13.game"
    path.write_text(render_game(make_game(variant, left, right, edges)))
    return str(path)


@pytest.mark.parametrize("command", ["worth", "payments", "imputation", "antipodal"])
def test_budget_flag_reaches_every_section(capsys, tmp_path, command):
    path = _diagonal_game(tmp_path, "assignment")
    code, _, err = run(capsys, command, "--game", path)
    assert code == 3 and "budget 26 exceeds cap 24" in err
    code, out, err = run(capsys, command, "--game", path, "--budget", "30")
    assert code == 0, err
    if command == "imputation":
        assert out.endswith("total  91\n")
    if command == "antipodal":
        # Left-optimal: each left vertex keeps its own edge's weight.
        left = out.split("left-optimal:\n")[1].split("right-optimal:")[0]
        assert "  u13    13\n" in left and "  v13    0\n" in left
        assert left.endswith("  total  91\n")


def test_budget_flag_reaches_dual_image(capsys, tmp_path):
    path = _diagonal_game(tmp_path, "b-uniform")
    imp = ",".join([str(i) for i in range(1, 14)] + ["0"] * 13)
    code, out, err = run(
        capsys, "dual-image", "--game", path, "--budget", "30", "--imputation", imp
    )
    assert code == 0, err
    assert "in-dual-image = yes" in out


@pytest.mark.parametrize("command", ["worth", "imputation", "examples"])
def test_seed_option_is_rejected(capsys, game_path, command):
    # --seed was accepted by every command and read by none.
    args = [] if command == "examples" else ["--game", game_path("path5")]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option", [["--cap", "2"], ["--budget", "1"], ["--out", "x.json"]], ids=lambda o: o[0]
)
def test_examples_rejects_the_options_it_does_not_read(capsys, tmp_path, monkeypatch, option):
    # examples runs the battery at the default caps and writes no file, so
    # --cap, --budget and --out would be accepted and ignored.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["examples", *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--cap", "--budget"])
def test_negative_cap_is_input_error(capsys, game_path, option):
    # A negative cap bounds nothing: it is a bad input (exit 2), not a cap
    # that every game exceeds (exit 3).
    with pytest.raises(SystemExit) as exc:
        main(["system", "--game", game_path("path5"), option, "-1"])
    assert exc.value.code == 2
    assert f"argument {option}: must not be negative: -1" in capsys.readouterr().err


def test_cap_exceeded_exit_code(capsys, game_path):
    code, _, err = run(
        capsys, "system", "--game", game_path("path5"), "--cap", "2"
    )
    assert code == 3
    assert "cap exceeded" in err


# ``check`` answers "yes" from a dual certificate without enumerating the
# coalitions, but the coalition cap is checked before the certificate:
# beyond the cap a core point still exits 3, while a negative entry or a
# wrong total, which are answered before the cap, still exit 1.
CORE_POINTS = [
    ("path5", "1,1,0,1/10,0"),
    ("path5-b2", "2,2,0,1/5,0"),
    ("bpath4-con", "1,0,0,3"),
    ("bpath4-uncon", "2,0,0,2"),
]


@pytest.mark.parametrize("name,imputation", CORE_POINTS)
def test_certified_yes_beyond_the_cap_exits_3(capsys, game_path, name, imputation):
    path = game_path(name)
    n = len(load_instance(name).vertices)
    code, out, _ = run(capsys, "check", "--game", path, "--imputation", imputation)
    assert code == 0 and "in-core = yes" in out
    got = run(capsys, "check", "--game", path, "--cap", "3", "--imputation", imputation)
    message = f"cap exceeded: {n} vertices exceed coalition enumeration cap 3\n"
    assert got == (3, "", message)


@pytest.mark.parametrize("name,imputation", CORE_POINTS)
def test_negative_entry_or_wrong_total_beyond_the_cap_exits_1(
    capsys, game_path, name, imputation
):
    path = game_path(name)
    first, *rest = imputation.split(",")
    g = load_instance(name)
    for bad, witness in [
        (["-1", *rest], [g.vertices[0]]),
        ([str(int(first) + 1), *rest], sorted(g.vertices)),
    ]:
        code, out, err = run(
            capsys, "check", "--game", path, "--cap", "3", "--imputation", ",".join(bad)
        )
        assert (code, err) == (1, "")
        assert out.endswith("in-core = no\nwitness = {" + ",".join(witness) + "}\n")


def test_budget_is_checked_before_the_coalition_cap(capsys, tmp_path):
    # 26 vertices and a multiplicity budget of 26: both caps are exceeded.
    path = _diagonal_game(tmp_path, "assignment")
    imp = ",".join([str(i) for i in range(1, 14)] + ["0"] * 13)
    got = run(capsys, "check", "--game", path, "--imputation", imp)
    budget = "cap exceeded: total multiplicity budget 26 exceeds cap 24\n"
    assert got == (3, "", budget)
    got = run(capsys, "check", "--game", path, "--budget", "30", "--imputation", imp)
    cap = "cap exceeded: 26 vertices exceed coalition enumeration cap 16\n"
    assert got == (3, "", cap)


def test_out_writes_json(capsys, game_path, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "payments",
        "--game",
        game_path("ring7"),
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["header"]["game"] == "ring7"
    assert doc["sections"][0]["title"] == "payments"


def test_examples_gate_passes(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in INSTANCE_NAMES:
        assert f"ok       {name}" in out


def test_examples_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "examples")
    _, second, _ = run(capsys, "examples")
    assert first == second


def test_console_entry_point(game_path):
    proc = subprocess.run(
        [sys.executable, "-m", "matchcore.cli", "worth", "--game", game_path("fork3")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "grand-coalition = 11/10" in proc.stdout


def test_splits_change_constrained_imputation(capsys, game_path):
    path = game_path("bpath4-con")
    outs = {}
    for split in ("left", "right", "half"):
        code, out, _ = run(
            capsys, "imputation", "--game", path, "--split", split
        )
        assert code == 0
        outs[split] = out
    assert len(set(outs.values())) == 3


@pytest.mark.parametrize("command", ["check", "dual-image"])
def test_negative_first_imputation_entry(capsys, game_path, command):
    # argparse reads "-1,..." after a separate --imputation as an option;
    # the CLI joins the pair, so both spellings print the same bytes.
    g = load_instance("bpath4-uncon")
    imp = ",".join(["-1"] + ["1"] * (len(g.vertices) - 1))
    path = game_path("bpath4-uncon")
    spaced = run(capsys, command, "--game", path, "--imputation", imp)
    joined = run(capsys, command, "--game", path, f"--imputation={imp}")
    assert spaced == joined
    assert spaced[0] == 1
    if command == "check":
        assert "witness = {" + g.vertices[0] + "}" in spaced[1]


INFEASIBLE_FLOOR_GAME = (
    "variant: b-general\nleft: u\nright: v w\nedge: u v 1\na: w 1\n"
)


@pytest.mark.parametrize(
    "command,message",
    [
        ("worth", "the grand coalition admits no feasible matching"),
        ("concurrency", "the grand coalition admits no feasible matching"),
        ("system", "the grand coalition admits no feasible matching"),
        ("classify", "no feasible matching to classify against"),
        ("degeneracy", "no feasible matching to classify against"),
        ("check", "the grand coalition admits no feasible matching"),
        ("dual-image", "the grand coalition admits no feasible matching"),
        ("dual", "the grand coalition admits no feasible matching"),
        ("imputation", "the grand coalition admits no feasible matching"),
    ],
)
def test_floor_infeasible_game_is_input_error(capsys, tmp_path, command, message):
    # Vertex w must be matched, but has no edge: no matching satisfies the
    # floors, and each command that needs the optima says so on stderr.
    path = tmp_path / "infeasible.game"
    path.write_text(INFEASIBLE_FLOOR_GAME)
    extra = ["--imputation", "0,0,0"] if command in ("check", "dual-image") else []
    code, out, err = run(capsys, command, "--game", str(path), *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text",
    ["variant: assignment\nleft:\nright:\n", "variant: general-matching\nvertices:\n"],
    ids=["assignment", "general-matching"],
)
def test_payments_on_a_game_without_vertices(capsys, tmp_path, text):
    # The empty game's core is {()}, so payments prints its two header rows.
    path = tmp_path / "empty.game"
    path.write_text(text)
    code, out, err = run(capsys, "payments", "--game", str(path))
    assert (code, err) == (0, "")
    assert out.split("[payments]\n")[1] == (
        "vertex  paid-sometimes  max-profit\nedge    always-fair     max-overpay\n"
    )


@pytest.mark.parametrize(
    "variant, command, code, line",
    [
        ("assignment", "check", 0, "in-core = yes"),
        ("b-unconstrained", "check", 0, "in-core = yes"),
        ("b-unconstrained", "dual-image", 0, "in-dual-image = yes"),
        ("assignment", "dual-image", 2, None),
    ],
)
def test_empty_imputation_on_a_game_without_vertices(
    capsys, tmp_path, variant, command, code, line
):
    # An empty --imputation lists no profits, which is the one imputation
    # of a game with no vertices; dual-image stays a b-variant question.
    path = tmp_path / "empty.game"
    path.write_text(f"variant: {variant}\nleft:\nright:\n")
    got, out, err = run(capsys, command, "--game", str(path), "--imputation=")
    assert got == code
    if line is None:
        assert out == "" and "defined for b-variants" in err
    else:
        assert err == "" and out.endswith(f"{line}\n")


def shifted(name):
    """A dual-derived imputation of a bundled game, shifted out of its core."""
    g = load_instance(name)
    imp = shifted_imputation(g, dual_imputation(g))
    return ",".join(format_rational(imp[q]) for q in g.vertices)


# Each command runs on a game whose coalition worths come from the
# residual table (bpath4-uncon) and on one whose worths come from the
# subset table (web5); system also on the other b-games whose worths come
# from the residual table, one of them b-general.  check runs on in-core
# imputations, which scan every coalition, and on out-of-core ones, which
# stop at the witness and leave the coalition scan unfinished; the exit
# code tells which ran.
GARBAGE_RUNS = {
    "check": [
        ("bpath4-uncon", ["--imputation", "2,0,0,2"], 0),
        ("bpath4-uncon", ["--imputation", "1,0,0,3"], 1),
        ("bpath4-con", ["--imputation", shifted("bpath4-con")], 1),
        ("web5", ["--imputation", "1/10,0,0,1,9/10"], 0),
        ("web5", ["--imputation", "0,0,0,0,2"], 1),
    ],
    "system": [
        ("bpath4-uncon", [], 0),
        ("bpath4-con", [], 0),
        ("bpath4-gen-d1", [], 0),
        ("web5", [], 0),
    ],
}


@pytest.mark.parametrize("command", ["worth", "classify", "system", "check"])
def test_commands_leave_no_cyclic_garbage(capsys, game_path, command):
    # A process that serves many commands keeps whatever reference cycles
    # each call leaves until a full collection, so its memory grows with
    # the number of calls.
    runs = GARBAGE_RUNS.get(command, [("bpath4-uncon", [], 0), ("web5", [], 0)])
    for name, extra, code in runs:
        path = game_path(name)
        assert run(capsys, command, "--game", path, *extra)[0] == code, extra
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                run(capsys, command, "--game", path, *extra)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0, (name, extra)
