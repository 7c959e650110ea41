"""Core analysis: worths, membership, payments, antipodal imputations.

Universally or existentially quantified payment questions ("is q ever
paid", "is the pair u,v overpaid anywhere") are maxima of a linear
objective over the core, answered exactly; no sampling of imputations is
involved.  On both payment variants, assignment and general matching,
one optimal matching turns every core row of a concurrent game into a
bound on at most two profits with coefficients ±1, so the core is an
octagon: every payment answer, the profit bounds and an assignment
game's antipodal points are read from its certified strong closure,
with no LP (see :func:`~matchcore.matchings.core_octagon`): each
vertex's most profit and each edge's most overpay in
:attr:`GameAnalysis.payments`, a vertex's least and most profit in
:meth:`GameAnalysis.profit_bounds`.

A :class:`GameAnalysis` session computes each fact of one game at most
once, and reads the combinatorial ones from one residual-capacity
table, the same on every variant: the grand coalition's worth, one
lookup of the whole game's state; the count of its optimal matchings,
for the labels only (it lists none, and no integer search runs); and
one worth per connected coalition, in masks, from one scan (see
:meth:`GameAnalysis.scan`), computed where a scan first reaches its
coalition.  The scan gives the core system, the ``system`` report's rows
and the "no" answers of the one core-membership test; its "yes" answers
come from a dual certificate (see :meth:`GameAnalysis.membership`).
Only the API's answers (:attr:`GameAnalysis.system`,
:meth:`GameAnalysis.coalition_worths`) and a witness turn masks into
frozensets and worths into Fractions.  Beside the table it runs at most
one LP solve, the dual's.  The fractional optimum takes no LP: a
bipartite variant's is the worth, its polytope being integral, and a
general game's is half the best weight of its bipartite double cover,
certified in integers; a session that holds both it and the dual
certifies the dual against it (see :attr:`GameAnalysis.fractional`).  One
Hungarian run on that double cover, or on an assignment game's own
matrix, also gives a single-use game's worth before the session holds a
table, where its assignment rounds to a matching of the same weight:
then a session that needs no count and no coalition worth builds no
table (see :attr:`GameAnalysis.worth`).  That matching, where there is
one, also anchors the core's octagon.
:func:`worth` lists the optima of one induced subgame instead, and is
kept as the independent oracle of these worths; it is the one caller of
:func:`~matchcore.matchings.brute_force_optima` in the package.

The session is the one way to ask a game's facts: build
``GameAnalysis(g, budget_cap, cap)`` and read its attributes.  The
functions that need a fact of the game (:func:`meet_join` here,
``imputation_from_dual``, ``in_dual_image`` and ``all_coalition_system``
in :mod:`~matchcore.bmatching`) take the session, not the game.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .games import (
    DEFAULT_BUDGET_CAP,
    DEFAULT_COALITION_CAP,
    Coalition,
    Edge,
    GameInstance,
    InfeasibleGameError,
    SolverInvariantError,
    _connected_masks,
    _members,
    check_budget_cap,
    check_coalition_cap,
    induce_subgame,
)
from .gamelp import DualColumn, dual_columns, dual_numerators, priced, solve_dual
from .matchings import (
    DoubleCover,
    IntegerGame,
    OptimaCount,
    ResidualTable,
    brute_force_optima,
    core_octagon,
    double_cover_optimum,
    integer_game,
)
# solve_lp and solve_over_optimal_face are not used here: bench/selftest.py
# checks that this module binds them.
from .simplex import LPSolution, solve_lp, solve_over_optimal_face

ZERO = Fraction(0)

Imputation = dict[str, Fraction]

PAYMENT_VARIANTS = ("assignment", "general-matching")


@dataclass(frozen=True)
class PaymentReport:
    """The most the core pays each vertex and overpays each edge.

    A vertex is ever paid exactly when its value is above 0, and an edge
    is always fairly paid exactly when its value is 0.
    """

    vertices: dict[str, Fraction]
    edges: dict[Edge, Fraction]


@dataclass(frozen=True)
class CoreMembership:
    in_core: bool
    witness: Coalition | None


@dataclass(frozen=True)
class CoalitionSystem:
    """Linear description of the core over connected coalitions.

    One >= inequality per connected proper coalition (worth on the
    right), one equality for the grand coalition, nonnegativity on every
    profit.  Floor-infeasible coalitions are listed in ``skipped``.
    """

    vertices: tuple[str, ...]
    inequalities: tuple[tuple[Coalition, Fraction], ...]
    grand_worth: Fraction
    skipped: tuple[Coalition, ...] = ()

    @classmethod
    def of(cls, g: GameInstance, worths: Iterable, grand_worth: Fraction):
        """Rows from (coalition, worth) pairs; a worth of None is skipped."""
        pairs = list(worths)
        rows = tuple([(s, w) for s, w in pairs if w is not None])
        skipped = tuple([s for s, w in pairs if w is None])
        return cls(tuple(g.vertices), rows, grand_worth, skipped)


def _membership(
    imp: Imputation, ids: list[str], grand_worth: Callable, rows: Iterable, scale: Callable
) -> CoreMembership:
    """The one core-membership test: signs, the total, then the rows in order.

    A row is a mask, bit p standing for ``ids[p]``, and its worth over
    ``scale()``, read when the first row arrives, or None, which imposes
    nothing.  The witness is the first violated row; ``rows`` is iterated
    only once the total holds.  Each row's profit sum is an integer over
    the profits' common denominator, compared with its worth by
    cross-multiplication.
    """
    if set(imp) != set(ids):
        raise ValueError("imputation keys do not match the game's vertices")
    for q in sorted(ids):
        if imp[q] < 0:
            return CoreMembership(False, frozenset((q,)))
    if sum(imp.values(), start=ZERO) != grand_worth():
        return CoreMembership(False, frozenset(ids))
    unit = lcm(*[v.denominator for v in imp.values()])
    paid = None  # the profits' byte tables, built when the first row arrives
    for m, w in rows:
        if w is None:
            continue
        if paid is None:
            paid = _mask_sum([imp[q].numerator * unit // imp[q].denominator for q in ids])
            times = scale()
        if paid(m) * times < w * unit:
            return CoreMembership(False, _members(ids, m))
    return CoreMembership(True, None)


def scaled_cover(g: GameInstance, imp: Imputation) -> bool:
    """Do the prices ``y_q = imp_q / b_q`` cover every edge, y_i + y_j >= w_ij?"""
    y = {q: Fraction(imp[q], g.vertex_upper[q]) for q in g.vertices}
    return all([y[i] + y[j] >= w for i, j, w in g.edges])


def _mask_sum(values: list[int]) -> Callable[[int], int]:
    """The sum of ``values`` over a mask's set bits, bit p weighing
    ``values[p]``, read from one table of the 256 subset sums of each 8 bits."""
    tables = [(c, [0]) for c in range(0, len(values), 8)]
    for p, v in enumerate(values):
        t = tables[p >> 3][1]
        t += [x + v for x in t]
    return lambda m: sum([t[m >> c & 255] for c, t in tables])


def worth(
    g: GameInstance,
    s: Coalition | None = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Fraction | None:
    """Maximum weight obtainable inside coalition ``s`` (whole game if None).

    ``None`` marks a coalition whose inherited floors admit no feasible
    matching at all; such coalitions are skipped by core checks.  Each
    call lists the optima of the induced subgame; a session reads its
    worths from :attr:`GameAnalysis.worth` and
    :meth:`GameAnalysis.coalition_worths` instead.
    """
    sub = g if s is None else induce_subgame(g, s)
    if s is not None and not s:
        return ZERO
    best, _ = brute_force_optima(sub, budget_cap)
    return best


class GameAnalysis:
    """Every fact of one game under one pair of caps, each computed once.

    Facts are computed on first use and kept for the session's lifetime:
    the worth, the count of optimal matchings and the labels, the
    fractional optimum, concurrency, the base dual solve, the core's
    octagon with the payment report, and the table state and worth of
    every connected coalition a scan reaches (at most ``cap`` vertices in
    the game).  The worth and every coalition worth are lookups in one
    table (see :attr:`_table`), unless the double cover's matching gives
    the worth before there is a table (see :attr:`worth`); the table's
    count of optima runs only for the labels and is checked against the
    worth (see :attr:`_count`).  The fractional optimum is the worth or
    comes from the double cover.  A report builds one session and hands
    it to every section; no cache outlives the session.
    """

    def __init__(
        self,
        g: GameInstance,
        budget_cap: int = DEFAULT_BUDGET_CAP,
        cap: int = DEFAULT_COALITION_CAP,
    ):
        self.g = g
        self.budget_cap = budget_cap
        self.cap = cap
        self._worths: list[int | None] = []
        self.ids = sorted(g.vertices, reverse=True)  # bit p of a mask is ids[p]

    @cached_property
    def _table(self) -> ResidualTable:
        """The session's one table, over residual capacities: it gives the
        worth, every coalition worth and the count of optima."""
        return ResidualTable(self._integer_game, len(self.g.left))

    @cached_property
    def _cover(self) -> DoubleCover:
        """The double cover's certified optimum and the matching it rounds to
        (see :func:`~matchcore.matchings.double_cover_optimum`; an assignment
        game's own matrix), run once per session for :attr:`worth`,
        :attr:`fractional` and :attr:`_core_bounds`."""
        return double_cover_optimum(self._integer_game, len(self.g.left))

    @cached_property
    def worth(self) -> Fraction:
        """The grand coalition's worth, after the ``budget_cap`` check.

        On a single-use game whose session holds no table yet, it is the
        weight of the matching that the double cover's assignment rounds
        to, if it rounds to one (see :attr:`_cover`): that matching weighs
        the fractional optimum, so it is optimal, and no table is built.
        Otherwise it is one lookup of the whole game's state in the
        session's table, as a coalition's worth is.
        """
        check_budget_cap(self.g, self.budget_cap)
        if "_table" not in self.__dict__ and self.g.variant in PAYMENT_VARIANTS:
            if self._cover.matching is not None:
                return self._cover.value
        best = self._table.worth(sum(self._table.start))
        if best is None:
            raise InfeasibleGameError("the grand coalition admits no feasible matching")
        return Fraction(best, self.scale)

    @cached_property
    def _count(self) -> OptimaCount:
        """The count of the grand coalition's optima, from the session's
        table, for :attr:`labels` and :attr:`optima_count` only; its best
        weight must be the worth."""
        check_budget_cap(self.g, self.budget_cap)
        got = self._table.count()
        if got is None and "worth" not in self.__dict__:
            raise InfeasibleGameError("no feasible matching to classify against")
        if got is None or Fraction(got[0], self.scale) != self.worth:
            raise SolverInvariantError("the table's optimum differs from the worth")
        return got[1]

    @property
    def optima_count(self) -> int:
        """How many optimal integral matchings the game has."""
        return self._count.total

    @cached_property
    def _coalitions(self) -> list[int]:
        """Each connected proper coalition's mask, lexicographically."""
        check_coalition_cap(self.g, self.cap)
        full = (1 << len(self.ids)) - 1
        return [m for m in _connected_masks(self.g) if m != full]

    @cached_property
    def _start_sum(self) -> Callable[[int], int]:
        """A coalition's table state from its mask: the sum of its members'
        ``start`` entries in the table."""
        start = dict(zip(self.g.vertices, self._table.start))
        return _mask_sum([start[q] for q in self.ids])

    @cached_property
    def _integer_game(self) -> IntegerGame:
        return integer_game(self.g)

    def coalition_worths(self) -> Iterator[tuple[Coalition, Fraction | None]]:
        """Each connected proper coalition with its worth, as :meth:`scan` gives them."""
        scale = self.scale
        for m, w in self.scan():
            yield _members(self.ids, m), None if w is None else Fraction(w, scale)

    @property
    def scale(self) -> int:
        """What :meth:`scan` scales every worth by: the lcm of the weights'
        denominators."""
        return self._integer_game.scale

    def scan(self) -> Iterator[tuple[int, int | None]]:
        """Each connected proper coalition's mask and scaled worth, in order.

        A mask's bit p stands for ``ids[p]``, the ids in descending order,
        and a worth is over :attr:`scale`; a worth of None marks a
        coalition whose floors admit no matching.  Lazy and memoized: a
        coalition's table state, the sum of its members' ``start``
        entries, and its worth are computed when a scan first reaches it,
        at most once per session.  The grand worth comes first: no
        coalition's multiplicity budget exceeds the game's, so its
        ``budget_cap`` check covers them all.  Each coalition is looked up
        once in the session's table (see :attr:`_table`), which fills the
        states the coalitions reach and share: at most 2^n on a single-use
        game, so ``cap`` bounds it, and 2^|P|·Π_{q in Q}(b_q + 1) for the
        cheaper side P of a bipartite b-game, so ``cap`` and
        ``budget_cap`` bound it.
        """
        self.worth
        worths = self._worths
        for i, m in enumerate(self._coalitions):
            if i == len(worths):
                worths.append(self._coalition_worth(m))
            yield m, worths[i]

    def _coalition_worth(self, m: int) -> int | None:
        return self._table.worth(self._start_sum(m))

    @cached_property
    def system(self) -> CoalitionSystem:
        """The core system: every connected proper coalition's row."""
        return CoalitionSystem.of(self.g, self.coalition_worths(), self.worth)

    def membership(self, imp: Imputation) -> CoreMembership:
        """Exact core membership: a dual certificate says "yes", a scan "no".

        The order is: the keys, the signs, the total, the coalition cap,
        the certificate, then the scan of the connected proper coalitions
        in lexicographic order.  The scan runs only when the certificate
        fails, so every "no" and its witness, the first violated
        coalition, are the scan's; it enumerates no coalition after the
        witness.  A disconnected coalition's worth is the sum of its
        components' worths, so its inequality is implied by the connected
        ones.

        The certificate is sound by weak duality on each coalition's own
        LP, whose optimum bounds the coalition's worth v(S) from above:

        (a) ``y_q = imp_q / b_q`` covers every edge, ``y_i + y_j >= w_ij``.
            With every other price family at 0, ``y`` restricted to S is
            a feasible dual of S's LP of value sum(imp_q, q in S), so that
            sum is at least v(S).  On single-use games this test is the
            core itself; where edges are not priced, the dual image.
        (b) Where edges are priced and no edge floor is positive,
            :func:`~matchcore.bmatching.in_dual_image`: an optimal dual
            with an admissible split pays S its own dual objective, plus
            nonnegative split parts of the edges that leave S.  Its
            profit rows fix each vertex cap price, so it is one LP over the
            edge prices, whose zero point is (a); (a) has failed here, so
            that LP is solved.  With a positive edge floor the split parts
            can be negative, and an image point can lie outside the core
            (``test_bmatching.py::test_edge_floor_image_point_outside_the_core``),
            so there only (a) answers.  Before the LP, each edge's pair
            row ``imp_i + imp_j >= w_ij c_ij`` is tested, ``c_ij`` the
            edge's cap in the :class:`~matchcore.matchings.IntegerGame`;
            if one fails, the scan runs at once.
        """

        def rows() -> Iterator[tuple[int, int | None]]:
            check_coalition_cap(self.g, self.cap)
            if not self._certified(imp):
                yield from self.scan()

        return _membership(imp, self.ids, lambda: self.worth, rows(), lambda: self.scale)

    def _certified(self, imp: Imputation) -> bool:
        """Does a dual certificate put ``imp`` in the core?  See :meth:`membership`.

        ``imp`` is nonnegative and pays out the worth.
        """
        g = self.g
        if scaled_cover(g, imp):
            return True
        _, edge_caps = priced(g)
        if not edge_caps or any(g.edge_lower.values()):
            return False
        # An imputation that pays some pair less than its edge at the edge's
        # cap is outside the core wherever that pair row holds: leave it to
        # the scan, which finds the witness, without the LP.
        caps = self._integer_game.caps
        if any([imp[i] + imp[j] < w * c for (i, j, w), c in zip(g.edges, caps)]):
            return False
        from .bmatching import in_dual_image  # bmatching imports this module

        return in_dual_image(self, imp)

    @cached_property
    def fractional(self) -> Fraction:
        """The fractional optimum, with no LP.

        A bipartite variant's polytope is integral: its matrix is totally
        unimodular and its bounds are integers, so the fractional optimum
        is the worth.  A general game's is half the best weight of its
        bipartite double cover, certified in integers (see :attr:`_cover`,
        which the worth shares).  A session that already holds the dual
        certifies it against this value (see :attr:`dual`).
        """
        value = self.worth if self.g.variant != "general-matching" else self._cover.value
        if "dual" in self.__dict__:
            _, y = self.dual
            if dual_numerators(self.g, self.dual_columns, y, value) is None:
                raise SolverInvariantError("the dual is not optimal at the fractional optimum")
        return value

    @property
    def concurrent(self) -> bool:
        """Do the integral and fractional optima agree exactly?  On a general
        game the core is nonempty exactly when they do."""
        return self.worth == self.fractional

    @cached_property
    def labels(self) -> tuple[dict[str, str], dict[Edge, str]]:
        """essential / viable / subpar for every vertex and edge."""
        return self._count.labels(self.g)

    @cached_property
    def dual_columns(self) -> list[DualColumn]:
        """The columns of the game's dual LP, built once per session."""
        return dual_columns(self.g)

    @cached_property
    def dual(self) -> tuple[LPSolution, dict[str, Fraction]]:
        """The dual optimum and its prices, by column name.

        Whichever of the dual and :attr:`fractional` a session reads second
        checks the prices against the fractional optimum (see
        :func:`~matchcore.gamelp.dual_numerators`): they must be feasible
        and their objective must equal it, which makes them optimal by weak
        duality; otherwise :class:`SolverInvariantError` is raised.  Read
        alone, the dual needs no worth.
        """
        sol, y = solve_dual(self.g)
        if "fractional" in self.__dict__:
            if dual_numerators(self.g, self.dual_columns, y, self.fractional) is None:
                raise SolverInvariantError("the dual is not optimal at the fractional optimum")
        return sol, y

    @cached_property
    def _core_bounds(
        self,
    ) -> tuple[dict[str, tuple[Fraction, Fraction]], dict[Edge, Fraction]] | None:
        """Each vertex's least and most profit and each edge's most overpay
        over the core, from its certified octagon over one optimal matching
        (see :func:`~matchcore.matchings.core_octagon`); None where the core
        is empty.  Concurrency, and so the ``budget_cap`` check, comes first.
        The matching is the one the double cover rounds to (see
        :attr:`_cover`), as an assignment game's always does, and otherwise
        one traced through the session's table."""
        _require_payment_variant(self.g)
        if not self.concurrent:
            return None
        matching = self._cover.matching
        if matching is None:
            matching = self._table.matching()
        profits, overpay = core_octagon(self._integer_game, matching)
        unit = 2 * self._integer_game.scale
        return (
            {
                q: (Fraction(lo, unit), Fraction(hi, unit))
                for q, (lo, hi) in zip(self.g.vertices, profits)
            },
            {k: Fraction(x, unit) for k, x in zip(self.g.edge_keys, overpay)},
        )

    def profit_bounds(self, q: str) -> tuple[Fraction, Fraction] | None:
        """Exact min and max profit of ``q`` over the whole core; None if the
        core is empty."""
        _require_payment_variant(self.g)
        if q not in self.g.vertices:
            raise ValueError(f"unknown vertex {q!r}")
        core = self._core_bounds
        return None if core is None else core[0][q]

    @cached_property
    def payments(self) -> PaymentReport | None:
        """Every payment answer, read from the core's octagon (see
        :attr:`_core_bounds`) on both payment variants; None where a general
        game's core is empty.  An assignment game's core is never empty."""
        core = self._core_bounds
        if core is None:
            return None
        return PaymentReport({q: hi for q, (_, hi) in core[0].items()}, core[1])

    @cached_property
    def antipodal(self) -> tuple[Imputation, Imputation]:
        """The two core vertices that favor one side each.

        The left-optimal imputation maximizes the left side's total
        profit over the core, the right-optimal one the right side's.  By
        Shapley and Shubik the core is a lattice: the left-optimal point
        pays every left vertex its most and every right vertex its least
        at once, and the right-optimal point the other way around, so both
        are read off the least and most profits (see :attr:`_core_bounds`).
        """
        g = self.g
        if g.variant != "assignment":
            raise ValueError("antipodal imputations are defined for assignment games")
        side = set(g.left)
        bounds = self._core_bounds[0].items()
        return (
            {q: hi if q in side else lo for q, (lo, hi) in bounds},
            {q: lo if q in side else hi for q, (lo, hi) in bounds},
        )


def core_membership_via_system(sys: CoalitionSystem, imp: Imputation) -> CoreMembership:
    """The membership test of :meth:`GameAnalysis.membership` over a built system."""
    bit = {q: 1 << p for p, q in enumerate(sorted(sys.vertices, reverse=True))}
    scale = lcm(*[w.denominator for _, w in sys.inequalities])
    rows = [(sum([bit[q] for q in s]), int(w * scale)) for s, w in sys.inequalities]
    return _membership(imp, list(bit), lambda: sys.grand_worth, rows, lambda: scale)


def _require_payment_variant(g: GameInstance) -> None:
    if g.variant not in PAYMENT_VARIANTS:
        raise ValueError(
            "payment characterizations apply to assignment and general matching games"
        )


def meet_join(
    a: GameAnalysis, p: Imputation, q: Imputation
) -> tuple[Imputation, Imputation]:
    """Side-wise min/max combination of two core imputations of ``a.g``.

    meet takes the left side's minima with the right side's maxima,
    join the other way around.  All four are checked for core
    membership on the one session; the lattice property backing that
    holds for the single-use and the uniform bipartite variants.
    """
    g = a.g
    if g.variant == "general-matching":
        raise ValueError("meet/join needs the two-sided structure")
    for imp in (p, q):
        if not a.membership(imp).in_core:
            raise ValueError("meet/join input is not a core imputation")
    meet = {v: min(p[v], q[v]) for v in g.left}
    meet.update({v: max(p[v], q[v]) for v in g.right})
    join = {v: max(p[v], q[v]) for v in g.left}
    join.update({v: min(p[v], q[v]) for v in g.right})
    for out in (meet, join):
        if not a.membership(out).in_core:
            raise ValueError("combined imputation left the core")
    return meet, join
