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
* The ratio test compares ``rhs/a`` between rows by cross-multiplying.
  The read-out puts each value over D, the lcm of the structural basic
  rows' ``row[basis[i]]``, as the integer ``row[-1] * (D // row[basis[i]])``.

Every scaling is by a positive integer, so each reduced cost keeps its
sign and the ratios keep their order: Bland's rule takes the same
pivots, and returns the same vertex, as on a tableau of fractions with
unit basic entries.  The self-check and the objective run on those
integers too; only the answer's values and objective are fractions.

Phase 2 and the read-out run in one place, :class:`Tableau`, a feasible
basis.  Every optimal answer carries the tableau of its final basis,
from which :meth:`Tableau.optimize` runs phase 2 for another objective
over the same LP.

The solver is meant for desk-scale programs (tens of variables).  Every
``optimal`` answer is an exact basic solution: downstream code relies on
equalities such as "dual objective == worth" holding exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    # The tableau of an optimal answer's final basis; not part of the
    # answer, so equality ignores it.
    tableau: Tableau | None = field(default=None, compare=False, repr=False)


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
    Phase 1 finds a feasible basis, and its :class:`Tableau` runs phase 2.
    """
    lp.check()
    n = len(lp.variables)
    nn = lp.nonnegative or (True,) * n

    # Free variables enter as a difference of two nonnegative columns.
    cols = [(idx, s) for idx in range(n) for s in ((1,) if nn[idx] else (1, -1))]
    nstruct = len(cols)

    rows = []
    checks = []
    for coeffs, rel, rhs in lp.constraints:
        a, scale = _integer_row((*coeffs, rhs))
        checks.append((_sparse(a), rel, a[-1]))
        sign = 1
        if rhs < 0:
            sign = -1
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        struct = [sign * s * a[idx] for idx, s in cols]
        rows.append((struct, rel, sign * a[-1], scale))

    m = len(rows)
    nslack = sum(1 for _, rel, _, _ in rows if rel in ("<=", ">="))
    nart = sum(1 for _, rel, _, _ in rows if rel in (">=", "=="))
    width = nstruct + nslack  # the artificial columns come after these
    tableau: list[list[int]] = []
    basis: list[int] = []
    s_at = nstruct
    a_at = width
    for struct, rel, rhs, scale in rows:
        row = struct + [0] * (nslack + nart) + [rhs]
        if rel != "==":
            row[s_at] = scale if rel == "<=" else -scale
            s_at += 1
        if rel == "<=":
            basis.append(s_at - 1)
        else:  # ">=" and "==" rows start on an artificial
            row[a_at] = scale
            basis.append(a_at)
            a_at += 1
        tableau.append(row)

    if nart:
        cost = _reduced([0] * width + [1] * nart + [0], tableau, basis)
        status = _run(tableau, cost, basis, width + nart)
        assert status == "optimal"  # phase one is always bounded below by 0
        if cost[-1] != 0:
            return LPSolution("infeasible", {}, None)
        # Drive lingering artificials out of the (degenerate) basis.  A row
        # that keeps one is a redundant constraint and goes; every row is
        # cut off at the first artificial column.
        for i in range(m):
            if basis[i] >= width:
                piv = next((j for j in range(width) if tableau[i][j]), -1)
                if piv >= 0:
                    _pivot(tableau, None, basis, i, piv)
        tableau = [r[:width] + r[-1:] for r, b in zip(tableau, basis) if b < width]
        basis = [b for b in basis if b < width]

    return Tableau(lp, tableau, basis, cols, width, checks).optimize(lp.objective, lp.maximize)


def _read_out(lp, c, scale, checks, cols, rows, basis):
    """Values and objective of the basic solution, checked against ``checks``.

    ``cols`` maps the leading (structural) tableau columns to variables;
    ``c, scale`` is the objective from :func:`_integer_row`.  Each value
    is an integer over D, the lcm of the basic structural rows' pivot
    entries, until the fractions of the answer are built.
    """
    basic = [(cols[b], r[-1], r[b]) for r, b in zip(rows, basis) if b < len(cols)]
    den = lcm(*[p for _, _, p in basic])
    nums = [0] * len(lp.variables)
    for (idx, s), rhs, p in basic:
        nums[idx] += s * rhs * (den // p)
    _check_point(lp, checks, nums, den)
    total = sum([a * x for a, x in zip(c, nums)])
    values = {v: Fraction(x, den) if x else ZERO for v, x in zip(lp.variables, nums)}
    return values, Fraction(total, scale * den)


def _sparse(a: list[int]) -> list[tuple[int, int]]:
    """The nonzero coefficients of an integer row (its last entry excluded)."""
    return [(t, x) for t, x in enumerate(a[:-1]) if x]


def _check_point(lp: LinearProgram, checks, nums: list[int], den: int) -> None:
    """Exact feasibility of the point ``nums / den``; a failure is a solver bug.

    ``checks`` holds every row as sparse integer coefficients, relation and
    integer right-hand side (the row times the lcm of its denominators).
    With ``den > 0`` each row is compared as ``sum(a_t * nums[t])``
    against ``den * rhs`` in integers.
    """
    nn = lp.nonnegative or (True,) * len(lp.variables)
    for flag, name, x in zip(nn, lp.variables, nums):
        if flag and x < 0:
            raise AssertionError(f"solver produced negative {name}")
    for coeffs, rel, rhs in checks:
        lhs = sum([a * nums[t] for t, a in coeffs])
        rhs *= den
        # Below the rhs breaks ">=" and "==", above it "<=" and "==".
        if (lhs < rhs and rel != "<=") or (lhs > rhs and rel != ">="):
            raise AssertionError("solver produced an infeasible point")


def _check_rows(constraints) -> list[tuple[list[tuple[int, int]], str, int]]:
    rows = []
    for coeffs, rel, rhs in constraints:
        a, _ = _integer_row((*coeffs, rhs))
        rows.append((_sparse(a), rel, a[-1]))
    return rows


def _assert_feasible(lp: LinearProgram, values: dict[str, Fraction]) -> None:
    """Raise ``AssertionError`` unless ``values`` is feasible for ``lp``."""
    ratios = [values[v].as_integer_ratio() for v in lp.variables]
    den = lcm(*[d for _, d in ratios])
    nums = [n * (den // d) for n, d in ratios]
    _check_point(lp, _check_rows(lp.constraints), nums, den)


class Tableau:
    """A feasible basis of an LP: the kernel's one phase 2 and read-out.

    ``rows`` and ``basis`` hold the basis in the integer form above, over
    ``width`` columns (the structural ``cols`` first); every answer is
    checked exactly against ``checks``.  An optimal answer carries the
    tableau of its final basis.
    """

    def __init__(self, lp: LinearProgram, rows, basis, cols, width, checks):
        self.lp = lp
        self._given = (rows, basis, cols, width, checks)

    def optimize(self, objective: tuple[Fraction, ...], maximize: bool) -> LPSolution:
        """Optimum of ``objective`` over this tableau's LP, from its basis.

        An unbounded objective is reported as such, never clamped.
        """
        lp = self.lp
        if len(objective) != len(lp.variables):
            raise ValueError("objective length does not match variables")
        rows, basis, cols, width, checks = self._given
        rows, basis = list(rows), list(basis)  # pivots replace rows, never edit them
        sense = -1 if maximize else 1
        c, scale = _integer_row(objective)
        cost = [sense * s * c[idx] for idx, s in cols] + [0] * (width + 1 - len(cols))
        cost = _reduced(cost, rows, basis)
        if _run(rows, cost, basis, width) == "unbounded":
            return LPSolution("unbounded", {}, None)
        values, value = _read_out(lp, c, scale, checks, cols, rows, basis)
        final = Tableau(lp, rows, basis, cols, width, checks)
        return LPSolution("optimal", values, value, final)


def solve_over_optimal_face(
    lp: LinearProgram,
    optimal_value: Fraction,
    secondary_objective: tuple[Fraction, ...],
    maximize: bool,
) -> LPSolution:
    """Optimize a second objective over the optimal face of ``lp``.

    The face is the feasible set of ``lp`` intersected with the equality
    "original objective == optimal_value".  The caller supplies the true
    optimum; ``lp`` is solved once and a different optimum (or none)
    raises.  The explicit face LP is then solved cold, from its own phase 1.
    """
    base = solve_lp(lp)
    if base.status != "optimal" or base.objective_value != optimal_value:
        raise ValueError(
            "optimal face is empty; the supplied optimal_value is not the optimum"
        )
    face = replace(
        lp,
        objective=tuple(secondary_objective),
        maximize=maximize,
        constraints=(*lp.constraints, (lp.objective, "==", optimal_value)),
        row_labels=(),
    )
    return solve_lp(face)
