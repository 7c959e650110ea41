"""Exact rational simplex solver.

Dense two-phase tableau method with Bland's anti-cycling rule for both
the entering and the leaving choice.  The games in this package produce
heavily degenerate programs, so cycling protection is not optional, and
determinism matters because reports are compared byte for byte.

The tableau holds Python integers, not fractions (integer-preserving
pivoting in the sense of Edmonds 1967 and Bareiss 1968):

* Each row is a primitive integer vector whose entry in its basic column
  is positive; row ``i`` stands for the rational row
  ``rows[i] / rows[i][basis[i]]``.  A constraint row is scaled by the lcm
  of its denominators and its slack and artificial cells hold plus or
  minus that multiplier, so every row starts out meaning exactly its
  constraint and no column is rescaled.
* A pivot on entry ``piv`` replaces each row whose entering entry ``f``
  is nonzero by ``piv*row - f*prow`` divided by its gcd; rows with
  ``f == 0`` are left alone.  The cost row is a positive multiple of the
  reduced costs and is updated the same way.
* The ratio test compares ``rhs/a`` between rows by cross-multiplying,
  and a basic value is read out as ``Fraction(row[-1], row[basis[i]])``.

Every scaling is by a positive integer, so each reduced cost keeps its
sign and the ratios keep their order: Bland's rule takes the same
pivots, and returns the same vertex, as on a tableau of fractions with
unit basic entries.  Only the final read-out builds fractions.

The solver is meant for desk-scale programs (tens of variables).  Every
``optimal`` answer is an exact basic solution: downstream code relies on
equalities such as "dual objective == worth" holding exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)

RELATIONS = ("<=", ">=", "==")


@dataclass(frozen=True)
class LinearProgram:
    variables: tuple[str, ...]
    objective: tuple[Fraction, ...]
    maximize: bool
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    nonnegative: tuple[bool, ...] = ()
    row_labels: tuple[str, ...] = ()

    def check(self) -> None:
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise ValueError("duplicate variable names")
        if len(self.objective) != n:
            raise ValueError("objective length does not match variables")
        nn = self.nonnegative or (True,) * n
        if len(nn) != n:
            raise ValueError("nonnegative flags do not match variables")
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != n:
                raise ValueError("constraint width does not match variables")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        if self.row_labels and len(self.row_labels) != len(self.constraints):
            raise ValueError("row labels do not match constraints")


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: dict[str, Fraction]
    objective_value: Fraction | None
    is_vertex: bool = False


def _eliminate(row: list[int], piv: int, f: int, prow: list[int]) -> list[int]:
    """``piv*row - f*prow`` divided by the gcd of its entries."""
    new = [piv * a - f * b for a, b in zip(row, prow)]
    g = gcd(*new)
    if g > 1:
        new = [x // g for x in new]
    return new


def _pivot(rows, cost, basis, row, col) -> None:
    prow = rows[row]
    piv = prow[col]
    if piv < 0:  # only while driving artificials out of the basis
        prow = rows[row] = [-x for x in prow]
        piv = -piv
    for i, r in enumerate(rows):
        f = r[col]
        if f and i != row:
            rows[i] = _eliminate(r, piv, f, prow)
    if cost is not None and cost[col]:
        cost[:] = _eliminate(cost, piv, cost[col], prow)
    basis[row] = col


def _run(rows, cost, basis, ncols) -> str:
    """Minimize until reduced costs are nonnegative (Bland's rule)."""
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        # Smallest ratio rhs/a over the rows with a > 0, ties to the
        # smallest basic index.
        best_row = -1
        for i, r in enumerate(rows):
            a = r[enter]
            if a > 0:
                if best_row >= 0:
                    lhs, rhs = r[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[best_row]):
                        continue
                best_row, num, den = i, r[-1], a
        if best_row < 0:
            return "unbounded"
        _pivot(rows, cost, basis, best_row, enter)


def _integer_row(coeffs) -> tuple[list[int], int]:
    """``coeffs`` times the lcm of their denominators, and that lcm."""
    dens = [c.denominator for c in coeffs]
    scale = lcm(*dens)
    return [c.numerator * (scale // d) for c, d in zip(coeffs, dens)], scale


def _reduced(cost: list[int], rows, basis) -> list[int]:
    """``cost`` with every basic column eliminated (a positive multiple)."""
    for r, b in zip(rows, basis):
        if cost[b]:
            cost = _eliminate(cost, r[b], cost[b], r)
    return cost


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimum of ``lp`` as a basic solution.

    Returns status ``infeasible`` or ``unbounded`` when no optimum
    exists.  The output is a pure function of the input: Bland's rule
    with first-index tie-breaking leaves no room for tie ambiguity.
    """
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

    sense = -1 if lp.maximize else 1
    c, _ = _integer_row(lp.objective)
    cost_struct = [sense * s * c[idx] for idx, s in cols]

    rows = []
    for coeffs, rel, rhs in lp.constraints:
        sign = 1
        if rhs < 0:
            sign = -1
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        a, scale = _integer_row((*coeffs, rhs))
        struct = [sign * s * a[idx] for idx, s in cols]
        rows.append((struct, rel, sign * a[-1], scale))

    m = len(rows)
    nslack = sum(1 for _, rel, _, _ in rows if rel in ("<=", ">="))
    nart = sum(1 for _, rel, _, _ in rows if rel in (">=", "=="))
    width = nstruct + nslack + nart
    tableau: list[list[int]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    s_at = nstruct
    a_at = nstruct + nslack
    for struct, rel, rhs, scale in rows:
        row = struct + [0] * (nslack + nart) + [rhs]
        if rel == "<=":
            row[s_at] = scale
            basis.append(s_at)
            s_at += 1
        elif rel == ">=":
            row[s_at] = -scale
            s_at += 1
            row[a_at] = scale
            basis.append(a_at)
            art_cols.append(a_at)
            a_at += 1
        else:
            row[a_at] = scale
            basis.append(a_at)
            art_cols.append(a_at)
            a_at += 1
        tableau.append(row)

    if art_cols:
        cost = [0] * (width + 1)
        for j in art_cols:
            cost[j] = 1
        cost = _reduced(cost, tableau, basis)
        status = _run(tableau, cost, basis, width)
        assert status == "optimal"  # phase one is always bounded below by 0
        if cost[-1] != 0:
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
                    _pivot(tableau, None, basis, i, piv)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        keep = [j for j in range(width) if j not in art_set]
        remap = {j: k for k, j in enumerate(keep)}
        tableau = [[r[j] for j in keep] + [r[-1]] for r in tableau]
        basis = [remap[b] for b in basis]
        width = len(keep)

    cost = cost_struct + [0] * (width + 1 - nstruct)
    cost = _reduced(cost, tableau, basis)
    status = _run(tableau, cost, basis, width)
    if status == "unbounded":
        return LPSolution("unbounded", {}, None)

    expanded = [ZERO] * nstruct
    for r, b in zip(tableau, basis):
        if b < nstruct:
            expanded[b] = Fraction(r[-1], r[b])
    values = {name: ZERO for name in lp.variables}
    for (idx, s), x in zip(cols, expanded):
        values[lp.variables[idx]] += Fraction(s) * x
    objective = sum(
        (c * values[v] for c, v in zip(lp.objective, lp.variables)), start=ZERO
    )
    _assert_feasible(lp, values)
    return LPSolution("optimal", values, objective, all(nn))


def _assert_feasible(lp: LinearProgram, values: dict[str, Fraction]) -> None:
    # Cheap exact self-check; a failure here is a solver bug.
    nn = lp.nonnegative or (True,) * len(lp.variables)
    for flag, name in zip(nn, lp.variables):
        if flag and values[name] < 0:
            raise AssertionError(f"solver produced negative {name}")
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(
            (c * values[v] for c, v in zip(coeffs, lp.variables)), start=ZERO
        )
        ok = (rel == "<=" and lhs <= rhs) or (rel == ">=" and lhs >= rhs) or (
            rel == "==" and lhs == rhs
        )
        if not ok:
            raise AssertionError("solver produced an infeasible point")


def solve_over_optimal_face(
    lp: LinearProgram,
    optimal_value: Fraction,
    secondary_objective: tuple[Fraction, ...],
    maximize: bool,
) -> LPSolution:
    """Optimize a second objective over the optimal face of ``lp``.

    The face is the feasible set of ``lp`` intersected with the equality
    "original objective == optimal_value".  The caller supplies the true
    optimum (from :func:`solve_lp`); an infeasible face means it was
    wrong and raises.  An unbounded secondary objective is reported as
    such, never clamped: on the faces this package builds it signals a
    modeling bug loudly.
    """
    face = LinearProgram(
        variables=lp.variables,
        objective=tuple(secondary_objective),
        maximize=maximize,
        constraints=lp.constraints + ((lp.objective, "==", optimal_value),),
        nonnegative=lp.nonnegative,
        row_labels=(lp.row_labels + ("optimum",)) if lp.row_labels else (),
    )
    sol = solve_lp(face)
    if sol.status == "infeasible":
        raise ValueError(
            "optimal face is empty; the supplied optimal_value is not the optimum"
        )
    return sol
