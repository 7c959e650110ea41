"""Primal/dual linear programs of the matching-game variants.

The primal maximizes total matched weight subject to the variant's
multiplicity bounds; the dual prices vertices (and, where edges carry
their own caps or floors, edges).  Every variant is a b-general game
with particular bounds: :func:`priced` declares which bound families a
variant's LPs carry.  :func:`dual_columns` lists the dual's columns
once, each with the vertices it credits; :func:`build_primal_lp` (one
row per column), :func:`build_dual_lp`, the optimality test
(:func:`dual_numerators`, which certifies a session's dual against its
fractional optimum), the dual-image LP of :mod:`matchcore.bmatching` and
its map from duals to profits are all built from that list.  A dual is
what the solver returns for the dual LP: a dict from column name to
price, a column it leaves out priced 0.
Builders emit rows in a fixed order (left vertices, right vertices, edge
rows) so solver output and reports are deterministic.

Variable naming: ``x[i~j]`` primal multiplicities, ``y[q]`` vertex cap
prices, ``y_lo[q]`` vertex floor credits, ``z[i~j]`` edge cap prices,
``z_lo[i~j]`` edge floor credits.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .games import VARIANTS, Edge, GameInstance, InfeasibleGameError
from .simplex import LinearProgram, LPSolution, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


def edge_name(key: Edge) -> str:
    return f"{key[0]}~{key[1]}"


def priced(g: GameInstance) -> tuple[bool, bool]:
    """The bound families the LPs of ``g`` carry besides the vertex caps.

    Returns ``(floors, edge_caps)``.  Every variant is a b-general game
    with particular bounds: only b-general has floors (vertex and edge),
    and only b-constrained and b-general cap the edges below what the
    vertex caps already allow.  Every LP, imputation map and dual-image
    test is emitted from this one declaration.
    """
    if g.variant not in VARIANTS:
        raise ValueError(f"unknown variant {g.variant!r}")
    return g.variant == "b-general", g.variant in ("b-constrained", "b-general")


def build_primal_lp(g: GameInstance) -> LinearProgram:
    """Maximum-weight (fractional) matching LP for the variant of ``g``.

    One row per column of :func:`dual_columns`, the primal's matrix being
    the dual's transposed: a cap gives a ``<=`` row, a floor a ``>=`` row
    suffixed ``:lo``.  The vertices' rows come first, then the edges';
    each owner's floor row precedes its cap row, and a cap row carries
    the suffix ``:hi`` where the game has floors.
    """
    floors, _ = priced(g)
    keys = g.edge_keys
    at = [((i,), (j,), (i, j)) for i, j, _ in g.edges]
    order = {o: p for p, o in enumerate([*[(q,) for q in g.vertices], *keys])}
    rows = []
    for c in sorted(dual_columns(g), key=lambda c: (order[c.owners], c.sign)):
        coeffs = tuple([ONE if c.owners in ends else ZERO for ends in at])
        owner = c.owners[0] if len(c.owners) == 1 else edge_name(c.owners)
        suffix = ":lo" if c.sign < 0 else ":hi" if floors else ""
        rel = ">=" if c.sign < 0 else "<="
        rows.append((coeffs, rel, Fraction(c.bound), owner + suffix))
    return LinearProgram(
        variables=tuple([f"x[{edge_name(k)}]" for k in keys]),
        objective=tuple([w for _, _, w in g.edges]),
        maximize=True,
        constraints=tuple([(c, r, b) for c, r, b, _ in rows]),
        nonnegative=(True,) * len(keys),
        row_labels=tuple([lbl for _, _, _, lbl in rows]),
    )


class DualColumn(NamedTuple):
    """A column of :func:`build_dual_lp`.

    Its objective coefficient is ``sign * bound``.  Its owners are the
    vertices whose profit that term pays: a vertex column's own vertex,
    or both ends of an edge column, between which a split divides it.
    A dual prices it at its ``name``.
    """

    name: str
    sign: int
    bound: int
    owners: tuple[str, ...]


def dual_columns(g: GameInstance) -> list[DualColumn]:
    """The columns of :func:`build_dual_lp`, in order.

    Every variant prices the vertex caps (``y``); where :func:`priced` says
    so, the vertex floor credits (``y_lo``), edge cap prices (``z``) and
    edge floor credits (``z_lo``) follow, in that order.  This is the one
    place that knows the price families: the dual LP, the optimality test
    and the map from duals to profits all go through it.
    """
    floors, edge_caps = priced(g)
    vs, keys = g.vertices, g.edge_keys
    b, a, d, c = g.vertex_upper, g.vertex_lower, g.edge_upper, g.edge_lower
    cols = [DualColumn(f"y[{q}]", 1, b[q], (q,)) for q in vs]
    if floors:
        cols += [DualColumn(f"y_lo[{q}]", -1, a[q], (q,)) for q in vs]
    if edge_caps:
        cols += [DualColumn(f"z[{edge_name(k)}]", 1, d[k], k) for k in keys]
    if floors:
        cols += [DualColumn(f"z_lo[{edge_name(k)}]", -1, c[k], k) for k in keys]
    return cols


def build_dual_lp(g: GameInstance) -> LinearProgram:
    """Dual of :func:`build_primal_lp`: minimum-cost covering prices.

    The columns are :func:`dual_columns`.  The row of edge e = ij reads
    ``y_i + y_j - y_lo_i - y_lo_j + z_e - z_lo_e >= w_e`` over the columns
    the variant has: each column owned by i, by j or by e enters with its
    sign.
    """
    cols = dual_columns(g)
    rows = []
    for i, j, w in g.edges:
        at = ((i,), (j,), (i, j))
        coeffs = [Fraction(c.sign) if c.owners in at else ZERO for c in cols]
        rows.append((tuple(coeffs), ">=", w))
    return LinearProgram(
        variables=tuple([c.name for c in cols]),
        objective=tuple([Fraction(c.sign * c.bound) for c in cols]),
        maximize=False,
        constraints=tuple(rows),
        nonnegative=(True,) * len(cols),
        row_labels=tuple([edge_name(k) for k in g.edge_keys]),
    )


def solve_dual(g: GameInstance) -> tuple[LPSolution, dict[str, Fraction]]:
    """The dual optimum and its prices, by column name.

    Raising the vertex prices covers every edge, so the dual is always
    feasible: an unbounded dual means that no matching meets the floors.
    """
    sol = solve_lp(build_dual_lp(g))
    if sol.status == "unbounded":
        raise InfeasibleGameError("the grand coalition admits no feasible matching")
    if sol.status != "optimal":
        raise ValueError(f"dual LP did not produce an optimum: {sol.status}")
    return sol, sol.values


def dual_numerators(
    g: GameInstance,
    cols: list[DualColumn],
    y: dict[str, Fraction],
    optimum: Fraction,
) -> tuple[list[tuple[DualColumn, int]], int] | None:
    """The prices of ``y`` as integers over one denominator, if ``y`` is optimal.

    Returns each column of :func:`dual_columns` with a nonzero price, with
    that price times the denominator, and the denominator; or None unless
    ``y`` is a feasible point of :func:`build_dual_lp` whose objective is
    ``optimum``.  A key of ``y`` that names no column fails too.  The rows
    are checked sparsely and in integers: the cover row of edge ij sums the
    signed prices of the columns owned by i, by j and by ij.  ``cols`` are
    the columns of ``g``.
    """
    if y.keys() - {c.name for c in cols}:
        return None
    ratios = [y.get(c.name, ZERO).as_integer_ratio() for c in cols]
    den = lcm(*[d for _, d in ratios])
    nonzero = []
    objective = 0
    cover: dict[tuple[str, ...], int] = {}
    for c, (n, d) in zip(cols, ratios):
        if n < 0:
            return None
        if n:
            n *= den // d
            nonzero.append((c, n))
            objective += c.sign * c.bound * n
            cover[c.owners] = cover.get(c.owners, 0) + c.sign * n
    top, bottom = optimum.as_integer_ratio()
    if objective * bottom != top * den:
        return None
    for i, j, w in g.edges:
        row = cover.get((i,), 0) + cover.get((j,), 0) + cover.get((i, j), 0)
        wn, wd = w.as_integer_ratio()
        if row * wd < wn * den:
            return None
    return nonzero, den


def dual_is_optimal(
    g: GameInstance, y: dict[str, Fraction], optimum: Fraction
) -> bool:
    """Is ``y`` an optimal point of :func:`build_dual_lp` with value ``optimum``?"""
    return dual_numerators(g, dual_columns(g), y, optimum) is not None
