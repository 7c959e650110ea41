"""Core constructions for the bipartite b-matching variants.

For repeatable or capped edges the dual no longer reads off as profits
directly: vertex prices are scaled by the vertex caps, and edge prices
must be split between the two endpoints.  Without edge floors, every
optimal dual with every admissible split yields a core imputation; the
image of that map, the dual image, can be a strict subset of the core.
With edge floors the map can fail either way: a profit can come out
negative (raised as :class:`ProfitSignError`), or a nonnegative result
can lie outside the core while still in the dual image (see
``test_bmatching.py::test_edge_floor_image_point_outside_the_core``).
:func:`in_dual_image` decides image membership exactly, and
:meth:`~matchcore.analysis.GameAnalysis.membership` core membership.
Without edge floors the image lies inside the core, so where edges are
priced ``membership`` takes an image point as its certificate of "yes"
and scans the coalitions only for "no"; with a positive edge floor only
its scaled cover test, ``imp_q / b_q`` covering every edge, may answer.
One map (:func:`imputation_from_dual`) serves all six variants and one
test (:func:`in_dual_image`) all four b-variants.  Both read the dual
through :func:`~matchcore.gamelp.dual_columns`: the map pays each
column's objective term to the vertices it credits, and the test is the
dual LP with each column copied once per vertex it credits and each
vertex cap price eliminated through its vertex's profit row.  What is
left is one LP over the other prices, with one row per vertex and one
per edge; the point where they are all 0 is the scaled imputation
``imp_q / b_q``.  Where that point meets every row the answer is yes
with no LP; where no edge is priced there are no columns, so that test
is the whole answer.  This module writes no price family of its own.
Every function here that needs a fact of the game (its worth, its
caps) takes the game's :class:`~matchcore.analysis.GameAnalysis`
session, so the worth is enumerated once per session.

Naming note: a split is one share, the part of every edge price paid
to the edge's left end (the rest goes to its right end); the amounts it
credits are called split parts throughout, never c/d, because c and d
already name the edge floor and cap bounds of the general variant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from random import Random

from .analysis import CoalitionSystem, GameAnalysis, Imputation
from .games import check_coalition_cap
from .gamelp import DualColumn, dual_numerators, edge_name
from .analysis import worth as coalition_worth
from .simplex import LinearProgram, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")


# The --split choices: the share of each edge price paid to the left end.
SPLIT_SHARES = {"left": ONE, "right": ZERO, "half": HALF}


class ProfitSignError(Exception):
    """A dual-derived profit came out negative (possible under floors)."""


def imputation_from_dual(
    a: GameAnalysis, y: dict[str, Fraction], split: Fraction | None = None
) -> Imputation:
    """Profits of an optimal dual of ``a.g``, its edge prices split by a share.

    Each column of :func:`~matchcore.gamelp.dual_columns` pays its
    objective term, ``sign * bound * price``, to its owners: a vertex
    column to its vertex, an edge column the share ``split`` to its left
    end and the rest to its right end.  On single-use games the result
    is the vertex prices.  A split is needed only where an edge has a
    positive price.  With floors nothing forces the result nonnegative;
    a negative entry is raised as a finding rather than clamped.  ``y``
    prices each column at its name, and must be optimal for the session's
    worth.  The sums run in integers over the common denominator of the
    prices and the share.
    """
    g = a.g
    left, whole = (split or 0).as_integer_ratio()
    if not 0 <= left <= whole:
        raise ValueError(f"split share {split} is outside [0, 1]")
    scaled = dual_numerators(g, a.dual_columns, y, a.worth)
    if scaled is None:
        raise ValueError("dual solution is not optimal for this game")
    prices, den = scaled
    imp = dict.fromkeys(g.vertices, 0)
    for c, n in prices:
        pay = c.sign * c.bound * n
        if len(c.owners) == 1:
            imp[c.owners[0]] += pay * whole
        elif split is None:
            raise ValueError(f"edge {edge_name(c.owners)} is priced: give a split")
        else:
            imp[c.owners[0]] += pay * left
            imp[c.owners[1]] += pay * (whole - left)
    negative = sorted(q for q, v in imp.items() if v < 0)
    if negative:
        raise ProfitSignError(
            f"dual-derived profits are negative at {', '.join(negative)}"
        )
    return {q: Fraction(v, den * whole) for q, v in imp.items()}


def in_dual_image(a: GameAnalysis, imp: Imputation) -> bool:
    """Does any optimal dual of ``a.g`` plus an admissible split reproduce ``imp``?

    The split quantifier is linear, so the whole question is one LP
    feasibility problem; no search.  Its columns are those of
    :func:`~matchcore.gamelp.dual_columns` but the vertex cap prices,
    one copy per owner: a vertex floor credit once, an edge column once
    for each end, whose copy is the part split to that end.  Vertex q's
    profit row, ``b_q y_q + T_q = imp_q`` with ``T_q`` the objective
    terms of the other copies q owns, fixes ``y_q = (imp_q - T_q) / b_q``
    (every cap ``b_q`` is at least 1).  What is left is one row per
    vertex, ``T_q <= imp_q`` (that is, ``y_q >= 0``), and one per edge:
    the dual's cover row with ``y_i`` and ``y_j`` substituted, whose
    right-hand side is ``imp_i / b_i + imp_j / b_j - w_ij``, the scaled
    imputation's cover surplus.  The profit rows add up to the dual
    objective, so once the total is checked against the worth, a
    feasible point is an optimal dual with its split.

    Every row is written ``a x <= r``, so the zero point meets it exactly
    when ``r >= 0``: such a row keeps its slack basic, and only the others
    start phase 1 on an artificial.  If the zero point meets every row
    (``imp >= 0`` and ``imp_q / b_q`` covers every edge) the answer is yes
    with no LP; where no edge is priced there are no columns, and that
    test is the whole answer.
    """
    g = a.g
    if g.variant not in B_VARIANTS:
        raise ValueError(f"dual image is defined for b-variants, not {g.variant}")
    if set(imp) != set(g.vertices):
        raise ValueError("imputation keys do not match the game's vertices")
    if sum(imp.values(), start=ZERO) != a.worth:
        return False
    b: dict[str, int] = {}
    copies: list[tuple[DualColumn, str]] = []
    for c in a.dual_columns:
        if c.sign > 0 and len(c.owners) == 1:
            b[c.owners[0]] = c.bound
        else:
            copies += [(c, q) for q in c.owners]
    # Dense rows: T_q's coefficients by owner, and each copy's sign in the
    # cover rows of the edges its column is owned by.  Edge ij's row is
    # scaled by lcm(b_i, b_j), so every coefficient is an integer.
    zero = [0] * len(copies)
    owned = {q: list(zero) for q in g.vertices}
    signs: dict[tuple[str, ...], list[int]] = {}
    for k, (c, q) in enumerate(copies):
        owned[q][k] = c.sign * c.bound
        signs.setdefault(c.owners, list(zero))[k] = c.sign
    rows = [(owned[q], imp[q]) for q in g.vertices]
    for i, j, w in g.edges:
        unit = lcm(b[i], b[j])
        si, sj = unit // b[i], unit // b[j]
        at = [signs.get(owners, zero) for owners in ((i,), (j,), (i, j))]
        row = [
            si * x + sj * y - unit * (ci + cj + ce)
            for x, y, ci, cj, ce in zip(owned[i], owned[j], *at)
        ]
        rows.append((row, imp[i] * si + imp[j] * sj - w * unit))
    if all([rhs >= 0 for _, rhs in rows]):
        return True  # the zero point meets every row
    if not copies:
        return False  # and there is no other point
    lp = LinearProgram(
        variables=tuple([f"{c.name}@{q}" for c, q in copies]),
        objective=(ZERO,) * len(copies),
        maximize=False,
        constraints=tuple([(tuple(row), "<=", rhs) for row, rhs in rows]),
        nonnegative=(True,) * len(copies),
    )
    return solve_lp(lp).status == "optimal"


def all_coalition_system(a: GameAnalysis) -> CoalitionSystem:
    """The core system over every proper coalition; the redundant cross-check.

    Each coalition's worth comes from its own enumeration
    (:func:`~matchcore.analysis.worth`), not from the session's pass.
    """
    g = a.g
    check_coalition_cap(g, a.cap)
    n = len(g.vertices)
    ids = sorted(g.vertices)
    every = (
        (s, coalition_worth(g, s, a.budget_cap))
        for r in range(1, n)
        for s in map(frozenset, itertools.combinations(ids, r))
    )
    return CoalitionSystem.of(g, every, a.worth)


def system_lp(sys: CoalitionSystem, objective: dict[str, Fraction]) -> LinearProgram:
    """The system as an LP with the given profit objective (maximized)."""
    names = tuple(sys.vertices)
    rows = [
        (tuple([ONE if q in s else ZERO for q in names]), ">=", rhs)
        for s, rhs in sys.inequalities
    ]
    rows.append(((ONE,) * len(names), "==", sys.grand_worth))
    return LinearProgram(
        variables=names,
        objective=tuple([objective.get(q, ZERO) for q in names]),
        maximize=True,
        constraints=tuple(rows),
        nonnegative=(True,) * len(names),
    )


def sample_core_imputations(
    sys: CoalitionSystem, seed: int, count: int
) -> list[Imputation]:
    """Distinct core vertices found by optimizing random integer profiles.

    The seed is explicit so reports built from samples stay
    reproducible; sampling explores the whole core, including any part
    outside the dual image.
    """
    rng = Random(seed)
    out: list[Imputation] = []
    for _ in range(count):
        objective = {q: Fraction(rng.randint(1, 9)) for q in sys.vertices}
        sol = solve_lp(system_lp(sys, objective))
        if sol.status != "optimal":
            raise RuntimeError(f"core polytope came back {sol.status}")
        imp = {q: sol.values[q] for q in sys.vertices}
        if imp not in out:
            out.append(imp)
    return out
