from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore import simplex
from matchcore.gamelp import build_dual_lp
from matchcore.simplex import (
    LinearProgram,
    solve_lp,
    solve_over_optimal_face,
)

from fraction_simplex import assert_feasible
from lp_oracles import build_primal_lp

Z, O = F(0), F(1)


def lp(variables, objective, maximize, constraints, nonnegative=None):
    n = len(variables)
    return LinearProgram(
        variables=tuple(variables),
        objective=tuple(F(c) for c in objective),
        maximize=maximize,
        constraints=tuple(
            (tuple(F(c) for c in coeffs), rel, F(rhs))
            for coeffs, rel, rhs in constraints
        ),
        nonnegative=tuple(nonnegative) if nonnegative else (True,) * n,
    )


def test_single_variable_box():
    sol = solve_lp(lp(["x"], [1], True, [([1], "<=", 3)]))
    assert sol.status == "optimal"
    assert sol.values["x"] == 3
    assert sol.objective_value == 3


def test_infeasible_box():
    sol = solve_lp(lp(["x"], [1], True, [([1], "<=", 1), ([1], ">=", 2)]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp(lp(["x"], [1], True, [([1], ">=", 2)]))
    assert sol.status == "unbounded"


def test_equality_row():
    sol = solve_lp(
        lp(["x", "y"], [1, 2], True, [([1, 1], "==", 4), ([1, 0], "<=", 1)])
    )
    assert sol.status == "optimal"
    assert sol.values == {"x": Z, "y": F(4)}
    assert sol.objective_value == 8


def test_free_variable():
    sol = solve_lp(
        lp(["x"], [1], False, [([1], ">=", -3)], nonnegative=[False])
    )
    assert sol.status == "optimal"
    assert sol.values["x"] == F(-3)


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2.
    sol = solve_lp(lp(["x"], [1], False, [([-1], "<=", -2)]))
    assert sol.status == "optimal"
    assert sol.values["x"] == 2


def test_degenerate_lp_terminates():
    # Many redundant rows through the same vertex; Bland's rule must not cycle.
    rows = [([1, 1], "<=", 1)] + [([k, 1], "<=", 1) for k in range(2, 6)]
    sol = solve_lp(lp(["x", "y"], [1, 1], True, rows))
    assert sol.status == "optimal"
    assert sol.objective_value == 1


def test_path5_primal_objective():
    sol = solve_lp(build_primal_lp(load_instance("path5")))
    assert sol.status == "optimal"
    assert sol.objective_value == F(21, 10)


def test_k3_fractional_vertex():
    sol = solve_lp(build_primal_lp(load_instance("k3")))
    assert sol.objective_value == F(3, 2)
    assert sorted(sol.values.values()) == [F(1, 2)] * 3


def test_determinism():
    program = build_dual_lp(load_instance("ring7"))
    a, b = solve_lp(program), solve_lp(program)
    assert a == b


def test_no_variables():
    sol = solve_lp(lp([], [], True, []))
    assert sol.status == "optimal" and sol.objective_value == 0


def test_face_optimization_ring7():
    g = load_instance("ring7")
    program = build_dual_lp(g)
    base = solve_lp(program)
    assert base.objective_value == 4
    coeffs = tuple(O if v == "y[v1]" else Z for v in program.variables)
    hi = solve_over_optimal_face(program, base.objective_value, coeffs, True)
    assert hi.values["y[v1]"] == 0  # v1 is never paid
    coeffs = tuple(O if v == "y[v2]" else Z for v in program.variables)
    hi = solve_over_optimal_face(program, base.objective_value, coeffs, True)
    assert hi.values["y[v2]"] == 1


def test_face_with_wrong_optimum_raises():
    g = load_instance("path5")
    program = build_dual_lp(g)
    with pytest.raises(ValueError):
        solve_over_optimal_face(program, F(1), (O,) * len(program.variables), True)


def test_face_max_edge_price_constrained():
    # Over the optimal dual face of the capped single-use path, the price
    # of the heavy edge can be pushed to 2: prices (0,0,0,1) with edge
    # prices (1,2,0) are optimal (objective 4).  Exhaustive reasoning over
    # the tight rows gives the same bound.
    g = load_instance("bpath4-con")
    program = build_dual_lp(g)
    base = solve_lp(program)
    coeffs = tuple(O if v == "z[u1~v2]" else Z for v in program.variables)
    hi = solve_over_optimal_face(program, base.objective_value, coeffs, True)
    assert hi.values["z[u1~v2]"] == 2


def _feasible(program, values):
    # Plain Fraction evaluation, independent of the solver's integer check.
    nn = program.nonnegative or (True,) * len(program.variables)
    if any(f and values[v] < 0 for f, v in zip(nn, program.variables)):
        return False, "sign"
    for coeffs, rel, rhs in program.constraints:
        lhs = sum(c * values[v] for c, v in zip(coeffs, program.variables))
        if not {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[rel]:
            return False, "row"
    return True, None


def test_self_check_rejects_a_point_moved_by_one_over_n():
    # Every coordinate of every optimal point of the bundled primal and
    # dual LPs, moved by +1/N and by -1/N: the integer check must raise
    # exactly when the moved point leaves the polytope.
    n_big = 10**12 + 39
    rejected = {"sign": 0, "row": 0}
    accepted = 0
    for name in INSTANCE_NAMES:
        g = load_instance(name)
        for program in (build_primal_lp(g), build_dual_lp(g)):
            sol = solve_lp(program)
            assert_feasible(program, sol.values)
            for v in program.variables:
                for step in (F(1, n_big), F(-1, n_big)):
                    moved = dict(sol.values)
                    moved[v] += step
                    ok, why = _feasible(program, moved)
                    if ok:
                        assert_feasible(program, moved)
                        accepted += 1
                    else:
                        with pytest.raises(AssertionError):
                            assert_feasible(program, moved)
                        rejected[why] += 1
    assert rejected["row"] >= 50 and rejected["sign"] >= 50 and accepted >= 50


def test_self_check_rejects_each_relation():
    program = lp(
        ["x", "y"],
        [0, 0],
        True,
        [([1, 1], "<=", 1), ([1, -1], "==", 0), ([3, 0], ">=", 1)],
    )
    point = {"x": F(1, 2), "y": F(1, 2)}
    assert_feasible(program, point)
    tiny = F(1, 10**15)
    for moved in (
        {"x": F(1, 2) + tiny, "y": F(1, 2)},  # breaks <= and ==
        {"x": F(1, 2), "y": F(1, 2) - tiny},  # breaks == only
        {"x": F(1, 3) - tiny, "y": F(1, 3) - tiny},  # breaks >= only
    ):
        with pytest.raises(AssertionError):
            assert_feasible(program, moved)


def _first_basic_structural(rows, basis, cols):
    return next(i for i, b in enumerate(basis) if b < len(cols))


def _corrupt_read_out(monkeypatch, change):
    """Make every read-out see one basic structural row's rhs changed."""
    real = simplex._read_out

    def read_out(lp, c, scale, checks, cols, rows, basis):
        rows = [list(r) for r in rows]
        i = _first_basic_structural(rows, basis, cols)
        rows[i][-1] = change(rows[i][-1])
        return real(lp, c, scale, checks, cols, rows, basis)

    monkeypatch.setattr(simplex, "_read_out", read_out)


# x + y == 4 with x <= 1: the optimum (0, 4) has y basic, on the equality.
EQUALITY = lp(["x", "y"], [1, 2], True, [([1, 1], "==", 4), ([1, 0], "<=", 1)])


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda rhs: rhs + 1, "solver produced an infeasible point"),
        (lambda rhs: -1, "solver produced negative y"),
    ],
    ids=["rhs-plus-one", "rhs-minus-one"],
)
def test_self_check_fires_on_a_corrupted_solve(monkeypatch, change, message):
    assert solve_lp(EQUALITY).values == {"x": Z, "y": F(4)}
    _corrupt_read_out(monkeypatch, change)
    with pytest.raises(AssertionError, match=message):
        solve_lp(EQUALITY)


small = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_against_scipy(data):
    # Independent floating-point oracle on random bounded-feasible programs.
    from scipy.optimize import linprog

    n = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=1, max_value=4))
    c = [data.draw(small) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [data.draw(small) for _ in range(n)]
        rhs = data.draw(st.integers(min_value=0, max_value=9))
        rows.append((coeffs, "<=", rhs))
    for j in range(n):
        unit = [1 if t == j else 0 for t in range(n)]
        rows.append((unit, "<=", 9))
    program = lp([f"x{t}" for t in range(n)], c, True, rows)
    mine = solve_lp(program)
    assert mine.status == "optimal"  # x = 0 feasible, box-bounded
    ref = linprog(
        [-float(x) for x in c],
        A_ub=[[float(x) for x in coeffs] for coeffs, _, _ in rows],
        b_ub=[float(r) for _, _, r in rows],
        bounds=[(0, None)] * n,
        method="highs",
    )
    assert ref.status == 0
    assert abs(float(mine.objective_value) - (-ref.fun)) < 1e-7
