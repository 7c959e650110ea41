"""Reference simplex over a dense `Fraction` tableau.

This is the solver `matchcore.simplex` used before its integer-row
kernel: the same two-phase method with Bland's rule, but every tableau
row is normalized so that its basic entry is 1.  It is kept only as a
test oracle; `test_simplex_kernels.py` requires both kernels to return
identical `LPSolution`s.  :func:`assert_feasible` checks a given point
of an LP with the kernel's own integer self-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from matchcore.simplex import LinearProgram, LPSolution, _check_point, _integer_row, _sparse

ZERO = Fraction(0)
ONE = Fraction(1)


def assert_feasible(lp: LinearProgram, values: dict[str, Fraction]) -> None:
    """Raise ``AssertionError`` unless ``values`` is feasible for ``lp``."""
    ratios = [values[v].as_integer_ratio() for v in lp.variables]
    den = lcm(*[d for _, d in ratios])
    nums = [n * (den // d) for n, d in ratios]
    checks = []
    for coeffs, rel, rhs in lp.constraints:
        a, _ = _integer_row((*coeffs, rhs))
        checks.append((_sparse(a), rel, a[-1]))
    _check_point(lp, checks, nums, den)


def _pivot(tableau, cost, basis, row, col) -> None:
    prow = tableau[row]
    piv = prow[col]
    inv = ONE / piv
    tableau[row] = [x * inv for x in prow]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i == row:
            continue
        f = r[col]
        if f:
            tableau[i] = [a - f * b for a, b in zip(r, prow)]
    f = cost[col]
    if f:
        for j, b in enumerate(prow):
            if b:
                cost[j] -= f * b
    basis[row] = col


def _run(tableau, cost, basis, ncols) -> str:
    """Minimize until reduced costs are nonnegative (Bland's rule)."""
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        best_key = None
        best_row = -1
        for i, r in enumerate(tableau):
            a = r[enter]
            if a > 0:
                key = (r[-1] / a, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = i
        if best_row < 0:
            return "unbounded"
        _pivot(tableau, cost, basis, best_row, enter)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimum of ``lp`` as a basic solution (Fraction tableau)."""
    lp.check()
    n = len(lp.variables)
    nn = lp.nonnegative or (True,) * n
    if n == 0:
        for coeffs, rel, rhs in lp.constraints:
            ok = (rel == "<=" and rhs >= 0) or (rel == ">=" and rhs <= 0) or (
                rel == "==" and rhs == 0
            )
            if not ok:
                return LPSolution("infeasible", {}, None)
        return LPSolution("optimal", {}, ZERO, True)

    # Free variables enter as a difference of two nonnegative columns.
    cols: list[tuple[int, int]] = []
    for idx in range(n):
        cols.append((idx, 1))
        if not nn[idx]:
            cols.append((idx, -1))
    nstruct = len(cols)

    cost_struct = [Fraction(s) * lp.objective[idx] for idx, s in cols]
    if lp.maximize:
        cost_struct = [-x for x in cost_struct]

    rows = []
    for coeffs, rel, rhs in lp.constraints:
        a = [Fraction(s) * coeffs[idx] for idx, s in cols]
        if rhs < 0:
            a = [-x for x in a]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append((a, rel, rhs))

    m = len(rows)
    nslack = sum(1 for _, rel, _ in rows if rel in ("<=", ">="))
    nart = sum(1 for _, rel, _ in rows if rel in (">=", "=="))
    width = nstruct + nslack + nart
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    s_at = nstruct
    a_at = nstruct + nslack
    for a, rel, rhs in rows:
        row = a + [ZERO] * (nslack + nart) + [rhs]
        if rel == "<=":
            row[s_at] = ONE
            basis.append(s_at)
            s_at += 1
        elif rel == ">=":
            row[s_at] = -ONE
            s_at += 1
            row[a_at] = ONE
            basis.append(a_at)
            art_cols.append(a_at)
            a_at += 1
        else:
            row[a_at] = ONE
            basis.append(a_at)
            art_cols.append(a_at)
            a_at += 1
        tableau.append(row)

    if art_cols:
        cost = [ZERO] * (width + 1)
        for j in art_cols:
            cost[j] = ONE
        for i, b in enumerate(basis):
            if cost[b]:
                f = cost[b]
                cost = [c - f * t for c, t in zip(cost, tableau[i])]
        status = _run(tableau, cost, basis, width)
        assert status == "optimal"  # phase one is always bounded below by 0
        if -cost[-1] != 0:
            return LPSolution("infeasible", {}, None)
        # Drive lingering artificials out of the (degenerate) basis.
        art_set = set(art_cols)
        drop: list[int] = []
        for i in range(m):
            if basis[i] in art_set:
                piv = next(
                    (j for j in range(nstruct + nslack) if tableau[i][j] != 0), -1
                )
                if piv < 0:
                    drop.append(i)  # redundant constraint
                else:
                    _pivot(tableau, cost, basis, i, piv)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        m = len(tableau)
        keep = [j for j in range(width) if j not in art_set]
        remap = {j: k for k, j in enumerate(keep)}
        tableau = [[r[j] for j in keep] + [r[-1]] for r in tableau]
        basis = [remap[b] for b in basis]
        width = len(keep)

    cost = [ZERO] * (width + 1)
    for j in range(nstruct):
        cost[j] = cost_struct[j]
    for i, b in enumerate(basis):
        if cost[b]:
            f = cost[b]
            cost = [c - f * t for c, t in zip(cost, tableau[i])]
    status = _run(tableau, cost, basis, width)
    if status == "unbounded":
        return LPSolution("unbounded", {}, None)

    expanded = [ZERO] * nstruct
    for i, b in enumerate(basis):
        if b < nstruct:
            expanded[b] = tableau[i][-1]
    values = {name: ZERO for name in lp.variables}
    for (idx, s), x in zip(cols, expanded):
        values[lp.variables[idx]] += Fraction(s) * x
    objective = sum(
        (c * values[v] for c, v in zip(lp.objective, lp.variables)), start=ZERO
    )
    assert_feasible(lp, values)
    return LPSolution("optimal", values, objective, all(nn))
