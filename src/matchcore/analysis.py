"""Core analysis: worths, membership, payments, antipodal imputations.

The central device is the optimal face of the dual LP.  For assignment
games and for concurrent general-graph games the core is exactly that
face, so universally or existentially quantified payment questions
("is q ever paid", "is the pair u,v overpaid anywhere") reduce to
maximizing a secondary linear objective over the face.  One exact LP
answers each question; no sampling of imputations is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import (
    DEFAULT_BUDGET_CAP,
    DEFAULT_COALITION_CAP,
    Coalition,
    Edge,
    GameInstance,
    connected_coalitions,
    induce_subgame,
)
from .gamelp import (
    DualSolution,
    build_dual_lp,
    dual_solution_from_lp,
    edge_name,
)
from .matchings import (
    ESSENTIAL,
    InfeasibleGameError,
    brute_force_optima,
    classification_table,
    fractional_optimum,
)
from .simplex import LinearProgram, solve_lp, solve_over_optimal_face

ZERO = Fraction(0)
ONE = Fraction(1)

Imputation = dict[str, Fraction]

PAYMENT_VARIANTS = ("assignment", "general-matching")


@dataclass(frozen=True)
class WorthReport:
    """Integral vs fractional optimum; the core is nonempty iff they agree."""

    integral: Fraction
    fractional: Fraction
    concurrent: bool


@dataclass(frozen=True)
class VertexPayment:
    core_empty: bool
    paid_sometimes: bool | None
    max_profit: Fraction | None


@dataclass(frozen=True)
class EdgePayment:
    core_empty: bool
    always_fair: bool | None
    max_slack: Fraction | None


@dataclass(frozen=True)
class PaymentReport:
    vertices: dict[str, VertexPayment]
    edges: dict[Edge, EdgePayment]


@dataclass(frozen=True)
class CoreMembership:
    in_core: bool
    witness: Coalition | None
    skipped: tuple[Coalition, ...] = ()


@dataclass(frozen=True)
class DegeneracyReport:
    degenerate: bool
    optima_count: int
    viable_vertices: tuple[str, ...]
    viable_edges: tuple[Edge, ...]
    never_paid_vertices: tuple[str, ...] | None
    always_fair_edges: tuple[Edge, ...] | None


def worth(
    g: GameInstance,
    s: Coalition | None = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Fraction | None:
    """Maximum weight obtainable inside coalition ``s`` (whole game if None).

    ``None`` marks a coalition whose inherited floors admit no feasible
    matching at all; such coalitions are skipped by core checks.
    """
    sub = g if s is None else induce_subgame(g, s)
    if s is not None and not s:
        return ZERO
    best, _ = brute_force_optima(sub, budget_cap)
    return best


def game_worth(g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP) -> Fraction:
    w = worth(g, None, budget_cap)
    if w is None:
        raise InfeasibleGameError("the grand coalition admits no feasible matching")
    return w


def check_concurrency(
    g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> WorthReport:
    """Exact comparison of the integral and fractional optima."""
    qi = game_worth(g, budget_cap)
    qf = fractional_optimum(g).weight
    return WorthReport(integral=qi, fractional=qf, concurrent=(qi == qf))


def core_is_empty(g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP) -> bool:
    if g.variant != "general-matching":
        return False
    return not check_concurrency(g, budget_cap).concurrent


def core_imputation_from_dual(g: GameInstance, y: DualSolution) -> Imputation:
    """Read an optimal dual of an assignment or concurrent game as profits.

    The map is the identity on the vertex prices; it is an imputation
    exactly when the dual objective equals the worth of the game, which
    is verified here.
    """
    if g.variant not in PAYMENT_VARIANTS:
        raise ValueError("direct dual imputations exist only for single-use games")
    profits = {q: y.vertex_upper[q] for q in g.vertices}
    total = sum(profits.values(), start=ZERO)
    if total != game_worth(g):
        raise ValueError(
            "dual is not optimal for the integral worth; profits do not sum up"
        )
    return profits


def is_core_imputation(
    g: GameInstance,
    imp: Imputation,
    cap: int = DEFAULT_COALITION_CAP,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> CoreMembership:
    """Exact membership, checked over connected coalitions only.

    A disconnected coalition's worth is the sum of its components'
    worths, so its inequality is implied by the connected ones.  The
    witness is the first violated coalition in lexicographic order;
    floor-infeasible coalitions are skipped and reported.
    """
    if set(imp) != set(g.vertices):
        raise ValueError("imputation keys do not match the game's vertices")
    for q in sorted(g.vertices):
        if imp[q] < 0:
            return CoreMembership(False, frozenset((q,)))
    total = sum(imp.values(), start=ZERO)
    if total != game_worth(g, budget_cap):
        return CoreMembership(False, frozenset(g.vertices))
    skipped: list[Coalition] = []
    for s in connected_coalitions(g, cap):
        ws = worth(g, s, budget_cap)
        if ws is None:
            skipped.append(s)
            continue
        if sum((imp[q] for q in s), start=ZERO) < ws:
            return CoreMembership(False, s, tuple(skipped))
    return CoreMembership(True, None, tuple(skipped))


def _dual_face(g: GameInstance, budget_cap: int):
    """Dual LP of ``g`` plus its optimum, with concurrency enforced.

    Returns ``(lp, optimum)`` or ``None`` when the core is empty (only
    possible for non-concurrent general-matching games).
    """
    report = check_concurrency(g, budget_cap)
    if g.variant == "general-matching" and not report.concurrent:
        return None
    lp = build_dual_lp(g)
    return lp, report.fractional


def _face_extreme(lp: LinearProgram, optimum, names: dict[str, Fraction], maximize: bool):
    coeffs = tuple([names.get(v, ZERO) for v in lp.variables])
    sol = solve_over_optimal_face(lp, optimum, coeffs, maximize)
    if sol.status != "optimal":
        raise RuntimeError(f"face optimization came back {sol.status}")
    return sol


def paid_sometimes(
    g: GameInstance, q: str, budget_cap: int = DEFAULT_BUDGET_CAP
) -> VertexPayment:
    """Does any core imputation pay ``q``?  Decided by face maximization."""
    _require_payment_variant(g)
    if q not in g.vertices:
        raise ValueError(f"unknown vertex {q!r}")
    face = _dual_face(g, budget_cap)
    if face is None:
        return VertexPayment(True, None, None)
    lp, opt = face
    sol = _face_extreme(lp, opt, {f"y[{q}]": ONE}, maximize=True)
    top = sol.values[f"y[{q}]"]
    return VertexPayment(False, top > 0, top)


def profit_bounds(
    g: GameInstance, q: str, budget_cap: int = DEFAULT_BUDGET_CAP
) -> tuple[Fraction, Fraction] | None:
    """Exact min and max profit of ``q`` over the whole core."""
    _require_payment_variant(g)
    face = _dual_face(g, budget_cap)
    if face is None:
        return None
    lp, opt = face
    hi = _face_extreme(lp, opt, {f"y[{q}]": ONE}, True).values[f"y[{q}]"]
    lo = _face_extreme(lp, opt, {f"y[{q}]": ONE}, False).values[f"y[{q}]"]
    return lo, hi


def always_fairly_paid(
    g: GameInstance, key: Edge, budget_cap: int = DEFAULT_BUDGET_CAP
) -> EdgePayment:
    """Is the pair's profit sum ever strictly above its own weight?

    The maximum of ``y_u + y_v - w_e`` over the core is zero exactly
    when the pair is fairly paid in every imputation.
    """
    _require_payment_variant(g)
    if key not in g.edge_keys:
        raise ValueError(f"unknown edge {edge_name(key)}")
    face = _dual_face(g, budget_cap)
    if face is None:
        return EdgePayment(True, None, None)
    lp, opt = face
    i, j = key
    sol = _face_extreme(lp, opt, {f"y[{i}]": ONE, f"y[{j}]": ONE}, True)
    slack = sol.values[f"y[{i}]"] + sol.values[f"y[{j}]"] - g.weight(key)
    return EdgePayment(False, slack == 0, slack)


def payment_report(
    g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> PaymentReport:
    _require_payment_variant(g)
    face = _dual_face(g, budget_cap)
    if face is None:
        verts = {q: VertexPayment(True, None, None) for q in g.vertices}
        edges = {k: EdgePayment(True, None, None) for k in g.edge_keys}
        return PaymentReport(verts, edges)
    lp, opt = face
    verts = {}
    for q in g.vertices:
        top = _face_extreme(lp, opt, {f"y[{q}]": ONE}, True).values[f"y[{q}]"]
        verts[q] = VertexPayment(False, top > 0, top)
    edges = {}
    for k in g.edge_keys:
        i, j = k
        sol = _face_extreme(lp, opt, {f"y[{i}]": ONE, f"y[{j}]": ONE}, True)
        slack = sol.values[f"y[{i}]"] + sol.values[f"y[{j}]"] - g.weight(k)
        edges[k] = EdgePayment(False, slack == 0, slack)
    return PaymentReport(verts, edges)


def _require_payment_variant(g: GameInstance) -> None:
    if g.variant not in PAYMENT_VARIANTS:
        raise ValueError(
            "payment characterizations apply to assignment and general matching games"
        )


def antipodal_imputations(
    g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> tuple[Imputation, Imputation]:
    """The two core points that maximally favor one side each.

    The left-optimal imputation maximizes the total profit of the left
    side over the core (equivalently, minimizes the right side's), and
    vice versa.  Both are exact vertices of the core.
    """
    if g.variant != "assignment":
        raise ValueError("antipodal imputations are defined for assignment games")
    face = _dual_face(g, budget_cap)
    assert face is not None
    lp, opt = face
    left_goal = {f"y[{q}]": ONE for q in g.left}
    right_goal = {f"y[{q}]": ONE for q in g.right}
    left_sol = _face_extreme(lp, opt, left_goal, True)
    right_sol = _face_extreme(lp, opt, right_goal, True)
    left_best = core_imputation_from_dual(g, dual_solution_from_lp(g, left_sol))
    right_best = core_imputation_from_dual(g, dual_solution_from_lp(g, right_sol))
    return left_best, right_best


def meet_join(
    g: GameInstance,
    p: Imputation,
    q: Imputation,
    cap: int = DEFAULT_COALITION_CAP,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> tuple[Imputation, Imputation]:
    """Side-wise min/max combination of two core imputations.

    meet takes the left side's minima with the right side's maxima,
    join the other way around.  Both are verified to lie in the core;
    the lattice property backing that holds for the single-use and the
    uniform bipartite variants.
    """
    if g.variant == "general-matching":
        raise ValueError("meet/join needs the two-sided structure")
    for imp in (p, q):
        got = is_core_imputation(g, imp, cap, budget_cap)
        if not got.in_core:
            raise ValueError("meet/join input is not a core imputation")
    meet = {v: min(p[v], q[v]) for v in g.left}
    meet.update({v: max(p[v], q[v]) for v in g.right})
    join = {v: max(p[v], q[v]) for v in g.left}
    join.update({v: min(p[v], q[v]) for v in g.right})
    for out in (meet, join):
        got = is_core_imputation(g, out, cap, budget_cap)
        if not got.in_core:
            raise ValueError("combined imputation left the core")
    return meet, join


def degeneracy_report(
    g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> DegeneracyReport:
    """Degeneracy (non-unique optimum) and how the core treats it.

    Cross-tabulates the viable vertices and edges with the payment
    flags; payment columns are available for assignment and concurrent
    general games only.
    """
    vlabels, elabels, _, optima = classification_table(g, budget_cap)
    viable_vertices = tuple([q for q in g.vertices if vlabels[q] == "viable"])
    viable_edges = tuple([k for k in g.edge_keys if elabels[k] == "viable"])
    never_paid = None
    always_fair = None
    if g.variant in PAYMENT_VARIANTS and not core_is_empty(g, budget_cap):
        pay = payment_report(g, budget_cap)
        never_paid = tuple(
            [q for q in g.vertices if pay.vertices[q].max_profit == 0]
        )
        always_fair = tuple([k for k in g.edge_keys if pay.edges[k].always_fair])
    return DegeneracyReport(
        degenerate=len(optima) > 1,
        optima_count=len(optima),
        viable_vertices=viable_vertices,
        viable_edges=viable_edges,
        never_paid_vertices=never_paid,
        always_fair_edges=always_fair,
    )
