"""Integral matching oracles and fractional matching structure.

The exhaustive enumerator here is deliberately independent of the LP
path: :func:`brute_force_optima` lists every optimal integral matching
by the plain search :func:`integer_search`, and is kept as the ground
truth that the table below is checked against; the session does not
run it.  A game's worth, the count of its optimal matchings, with how
many of them use each vertex and edge (all the essential/viable/subpar
classification needs), every coalition worth, and the covering
matchings of :func:`birkhoff_decompose` come from one
:class:`ResidualTable` on all six variants, each a b-general game with
particular bounds.  It fills on demand and answers ``count()`` and
``worth(state)``.  A single-use game's worth can come before any table,
from the matching that :func:`double_cover_optimum` rounds its
fractional optimum to, where it rounds to one.  On a concurrent
single-use game one optimal matching, that one or one traced through the
table (:meth:`ResidualTable.matching`), fixes the core as an octagon,
and :func:`core_octagon` answers every payment question from its
certified strong closure, with no LP.  The same double cover gives a
general game's fractional optimum; no LP is solved here.  The tests'
oracle of that optimum solves the primal LP (``tests/lp_oracles.py``)
and asserts the vertex structure of its answer with
:func:`check_half_integral`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .games import (
    DEFAULT_BUDGET_CAP,
    Edge,
    GameInstance,
    SolverInvariantError,
    check_budget_cap,
)
# solve_lp is not used here: bench/selftest.py checks that this module binds it.
from .simplex import solve_lp
from .gamelp import edge_name

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

ESSENTIAL = "essential"
VIABLE = "viable"
SUBPAR = "subpar"


@dataclass(frozen=True)
class MatchingVector:
    """Edge multiplicities with their cached total weight.

    Zero entries are dropped, so equal vectors compare equal and the
    support is exactly ``multiplicities.keys()``.
    """

    multiplicities: tuple[tuple[Edge, Fraction], ...]
    weight: Fraction

    def as_dict(self) -> dict[Edge, Fraction]:
        return dict(self.multiplicities)

    def load(self, q: str) -> Fraction:
        return sum(
            (m for (i, j), m in self.multiplicities if q in (i, j)), start=ZERO
        )


def make_matching_vector(g: GameInstance, mult: dict[Edge, Fraction]) -> MatchingVector:
    keys = set(g.edge_keys)
    for k in mult:
        if k not in keys:
            raise ValueError(f"unknown edge {k!r}")
    items = []
    weight = ZERO
    for k, (*_, w) in zip(g.edge_keys, g.edges):
        m = Fraction(mult.get(k, ZERO))
        if m < 0:
            raise ValueError(f"negative multiplicity on {edge_name(k)}")
        if m:
            items.append((k, m))
            weight += w * m
    return MatchingVector(tuple(items), weight)


def brute_force_optima(
    g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> tuple[Fraction | None, list[MatchingVector]]:
    """Exhaustive maximum-weight integral matchings, all of them.

    Enumerates every integral multiplicity vector within the variant's
    bounds and returns the optimum plus the complete list of optimal
    vectors, in depth-first order (edges in declared order, each
    multiplicity ascending).  Returns ``(None, [])`` when vertex or edge
    floors make the instance infeasible.  Raises :class:`CapExceeded`
    when the total multiplicity budget (sum of vertex caps) exceeds
    ``budget_cap``.  The search is :func:`integer_search`.
    """
    check_budget_cap(g, budget_cap)
    ig = integer_game(g)
    optima: list[tuple[int, ...]] = []
    best = integer_search(ig, optima)
    if best is None:
        return None, []
    keys = g.edge_keys
    total = Fraction(best, ig.scale)
    vectors = [
        MatchingVector(
            tuple([(keys[t], Fraction(m)) for t, m in enumerate(opt) if m]), total
        )
        for opt in optima
    ]
    return total, vectors


class IntegerGame(NamedTuple):
    """A game's bounds and weights as integer arrays, for the searches below.

    Vertex ``p`` is ``g.vertices[p]`` and edge ``t`` is ``g.edges[t]``;
    weights are scaled by ``scale``, the lcm of their denominators, and
    an edge's cap is the least of its own cap and its two vertex caps.
    """

    ends: list[tuple[int, int]]
    weights: list[int]
    caps: list[int]
    floors: list[int]
    upper: list[int]
    lower: list[int]
    scale: int


def integer_game(g: GameInstance) -> IntegerGame:
    pos = {q: p for p, q in enumerate(g.vertices)}
    keys = g.edge_keys
    scale = lcm(*[w.denominator for _, _, w in g.edges])
    return IntegerGame(
        [(pos[i], pos[j]) for i, j in keys],
        [w.numerator * (scale // w.denominator) for _, _, w in g.edges],
        [
            min(g.edge_upper[k], g.vertex_upper[k[0]], g.vertex_upper[k[1]])
            for k in keys
        ],
        [g.edge_lower[k] for k in keys],
        [g.vertex_upper[q] for q in g.vertices],
        [g.vertex_lower[q] for q in g.vertices],
        scale,
    )


@dataclass(frozen=True)
class OptimaCount:
    """How many optima there are, and how many of them use each edge and vertex.

    ``edges[t]`` counts the optima with a positive multiplicity on edge
    ``t`` of the :class:`IntegerGame`, ``vertices[p]`` those that match
    vertex ``p``.
    """

    total: int
    edges: list[int]
    vertices: list[int]

    def labels(self, g: GameInstance) -> tuple[dict[str, str], dict[Edge, str]]:
        """essential / viable / subpar for every vertex and edge of ``g``."""
        total = self.total
        return (
            {q: _label(u, total) for q, u in zip(g.vertices, self.vertices)},
            {k: _label(u, total) for k, u in zip(g.edge_keys, self.edges)},
        )


def integer_search(ig: IntegerGame, ties: list[tuple[int, ...]]) -> int | None:
    """Every optimal integral b-matching of ``ig``, depth-first over its edges.

    Returns the best scaled weight, or None when floors admit no
    matching.  A node is pruned when the suffix bound, every later edge
    at its cap, falls strictly below the best weight found so far, so
    every optimum is reached, in depth-first order (each multiplicity
    ascending), and appended to ``ties`` as its multiplicities over
    ``ig``'s edges; a better weight clears the list.  A vertex below its
    floor is rejected once its last edge is decided.
    """
    ends, weights, caps, floors, upper, lower, _ = ig
    n, nv = len(ends), len(upper)
    last = [-1] * nv
    for t, (i, j) in enumerate(ends):
        last[i] = last[j] = t
    if any(floors[t] > caps[t] for t in range(n)) or any(
        lower[p] > 0 and last[p] < 0 for p in range(nv)
    ):
        return None
    # Vertices whose floor is decided once edge t is.
    closes = [[] for _ in range(n)]
    for p, t in enumerate(last):
        if t >= 0 and lower[p] > 0:
            closes[t].append(p)

    # Largest additional weight obtainable from edges t.. onward.
    suffix = [0] * (n + 1)
    for t in range(n - 1, -1, -1):
        suffix[t] = suffix[t + 1] + weights[t] * caps[t]

    best: int | None = None
    rem = list(upper)
    # A vertex meets its floor while its remaining capacity is at most this.
    spare = [upper[p] - lower[p] for p in range(nv)]
    current = [0] * n

    # CPython 3.11 never reuses a freed tuple of exactly 20 items, so visit
    # must not close over 20 names: each call would leave its closure
    # tuple behind (tests/test_matchings.py checks the memory).
    def visit(t: int, weight: int) -> None:
        nonlocal best
        if best is not None and weight + suffix[t] < best:
            return
        if t == n:
            # The bound lets through only a leaf that ties or beats the best.
            if best is None or weight > best:
                best = weight
                ties.clear()
            ties.append(tuple(current))
            return
        i, j = ends[t]
        top = min(caps[t], rem[i], rem[j])
        if floors[t] > top:
            return
        w = weights[t]
        shut = closes[t]
        for m in range(floors[t], top + 1):
            rem[i] -= m
            rem[j] -= m
            if not shut or all(rem[p] <= spare[p] for p in shut):
                current[t] = m
                visit(t + 1, weight + w * m)
            rem[i] += m
            rem[j] += m
        current[t] = 0

    try:
        visit(0, 0)
    finally:
        del visit  # it refers to itself through its cell: break the cycle
    return best


_UNSEEN = object()


class ResidualTable:
    """Scaled worth of every coalition, filled on demand, and the count of
    the whole game's optima.

    The vertices are processed in one order, each keeping its residual
    capacity r_v.  The lowest vertex u with capacity left and an edge to
    a later vertex chooses all its uses x of those edges at once, each
    within the edge's floor and cap, their total within r_u and what u's
    floor still asks, and leaves: F(r) = max over x of w.x + F(r'), where
    r' takes x off the later ends and r_u off u.  A vertex with no later
    neighbour is checked only at the leaf, where every vertex must meet
    its floor, r_v <= b_v - lo_v; an infeasible state is None.  Each
    state keeps F and the number C of its optimal completions.
    Coalition S starts at r = b on S and 0 elsewhere, so coalitions share
    their subproblems, and every state reached is kept.

    A bipartite game puts first the side P that minimizes
    2^|P| · Π_{q in Q} (b_q + 1), which bounds the number of states (by
    2^|Q| more where an edge floor is positive): P's vertices receive no
    use before their turn, so each holds b_u or 0 then, and every edge
    floor is applied at its P end's turn.  A general game keeps its
    declared order, as the same rule gives (its left side is empty).  Its
    caps are all 1, so a state is the set of vertices still unmatched:
    the lowest vertex of S is left alone or matched to a neighbour in S,
    v(S) = max(v(S - v), max over u of w_uv + v(S - v - u)).

    A state is one int: a field per vertex, in processing order, holding
    r_v under a guard bit, then the members of S among the later ends of
    edges with a positive floor (an edge to a non-member is not in S, so
    its floor does not bind).  A choice is subtracted in one step, and it
    fits exactly when every guard bit is still set.  A vertex's choices
    are cached under its own field and those member bits, all of the
    state they depend on.  The recursion is a method, not a closure that
    calls itself, so a table leaves no reference cycle behind.
    """

    def __init__(self, ig: IntegerGame, nleft: int):
        ends, weights, caps, floors, upper, lower, _ = ig
        n = len(upper)
        width = max(upper, default=0).bit_length() + 1
        field = (1 << width - 1) - 1
        top = n * width
        # Where each vertex's field starts: the left side first, unless the
        # right side's bound 2^|P|·Π_Q (b_q + 1) on the states is smaller.
        order, at = [*range(n)], [*range(0, top, width)]
        left = prod([b + 1 for b in upper[:nleft]])
        right = prod([b + 1 for b in upper[nleft:]])
        if left << n - nleft < right << nleft:
            order = order[nleft:] + order[:nleft]
            split = (n - nleft) * width
            at = [*range(split, top, width), *range(0, split, width)]
        # Per rank: its edges to later vertices, as (edge, the later end's
        # field offset, floor, cap, weight, member bit if floored), and the
        # key its choices are cached under: its own field and the member
        # bits of those edges.
        later: list[list[tuple[int, int, int, int, int, int]]] = [[] for _ in at]
        keys = [field << x for x in range(0, top, width)]
        member: dict[int, int] = {}
        for t, ((i, j), f, c, w) in enumerate(zip(ends, floors, caps, weights)):
            if at[i] > at[j]:
                i, j = j, i
            k = at[i] // width
            bit = 0
            if f:
                bit = member.setdefault(j, 1 << top + len(member))
                keys[k] |= bit
            later[k].append((t, at[j], f, c, w, bit))
        self._order, self._upper, self._lower = order, upper, lower
        self._later, self._keys = later, keys
        self._width, self._field = width, field
        # The top bit of every field: the sum of 2^(k·width + width - 1).
        self._guards = guards = ((1 << top) - 1) // ((1 << width) - 1) << width - 1
        # Every guard stays set in this less a leaf state when each
        # r_v <= b_v - lo_v (the member bits above the fields borrow no guard).
        self._slack = 2 * guards + sum([b - lo << x for b, lo, x in zip(upper, lower, at)])
        self._active = sum([field << x for x, out in zip(range(0, top, width), later) if out])
        # What each vertex adds to the state a coalition holding it starts at.
        self.start = [b << x | member.get(v, 0) for v, (b, x) in enumerate(zip(upper, at))]
        self._choices: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        self._memo: dict[int, tuple[int, int] | None] = {}

    @property
    def states(self) -> int:
        """How many states the table holds."""
        return len(self._memo)

    def worth(self, state: int) -> int | None:
        """The best scaled weight of the coalition whose members' ``start``
        entries sum to ``state``, or None if their floors admit no matching."""
        got = self._best(self._guards + state)
        return None if got is None else got[0]

    def count(self) -> tuple[int, OptimaCount] | None:
        """The whole game's best scaled weight and the count of its optima (None
        if floors admit no matching), by one downward pass in descending state
        order, which is topological: each choice takes a positive step off the
        state.  P[s] counts the tight paths from the whole game to s.  A tight
        choice x of u from s to s' lies on P[s]·C[s'] optima, which use each
        edge with x_e > 0, and leave u unused if it held b_u and Σx = 0; the
        P[s] optima ending at leaf s leave unused each vertex with no later
        neighbour that still holds its cap."""
        full = self._guards + sum(self.start)
        if self._best(full) is None:
            return None
        memo, guards, field, width = self._memo, self._guards, self._field, self._width
        order, upper, later = self._order, self._upper, self._later
        idle = [(u, k * width) for k, (u, out) in enumerate(zip(order, later)) if not out]
        edges = [0] * sum(map(len, later))
        unused = [0] * len(upper)
        paths = {full: 1}
        for s in sorted(memo, reverse=True):
            here = paths.get(s)
            if not here:
                continue
            todo = s & self._active
            if not todo:
                for v, at in idle:
                    if s >> at & field == upper[v]:
                        unused[v] += here
                continue
            k = ((todo & -todo).bit_length() - 1) // width
            u = order[k]
            whole = s >> k * width & field == upper[u]
            best = memo[s][0]
            key = s & self._keys[k]
            for step, w, used in self._choices[key]:
                nxt = s - step
                sub = memo[nxt] if nxt & guards == guards else None
                if sub is not None and w + sub[0] == best:
                    paths[nxt] = paths.get(nxt, 0) + here
                    through = here * sub[1]
                    if not used and whole:
                        unused[u] += through
                    for t in used:
                        edges[t] += through
        best, total = memo[full]
        return best, OptimaCount(total, edges, [total - n for n in unused])

    def matching(self) -> tuple[int, ...] | None:
        """One optimal matching, by edge index, each index repeated as often
        as the matching uses its edge (None if floors admit none): from the
        whole game, the first tight choice of each state, in the order
        ``count()`` walks them.  A choice's step holds each use x_e in the
        field of the edge's later end."""
        s = self._guards + sum(self.start)
        if self._best(s) is None:
            return None
        memo, guards, field, used = self._memo, self._guards, self._field, []
        while s & self._active:
            todo = s & self._active
            k = ((todo & -todo).bit_length() - 1) // self._width
            for step, w, _ in self._choices[s & self._keys[k]]:
                nxt = s - step
                if nxt & guards == guards and memo[nxt] and w + memo[nxt][0] == memo[s][0]:
                    break
            used += [t for t, to, *_ in self._later[k] for _ in range(step >> to & field)]
            s = nxt
        return tuple(sorted(used))

    def _best(self, state: int) -> tuple[int, int] | None:
        memo = self._memo
        got = memo.get(state, _UNSEEN)
        if got is not _UNSEEN:
            return got
        guards = self._guards
        todo = state & self._active
        if not todo:
            feasible = (self._slack - state) & guards == guards
            got = (0, 1) if feasible else None
        else:
            k = ((todo & -todo).bit_length() - 1) // self._width
            key = state & self._keys[k]
            choices = self._choices.get(key)
            if choices is None:
                choices = self._choose(k, key)
            best, count = -1, 0
            for step, w, _ in choices:
                nxt = state - step
                if nxt & guards == guards:
                    sub = memo.get(nxt, _UNSEEN)
                    if sub is _UNSEEN:
                        sub = self._best(nxt)
                    if sub is not None:
                        w += sub[0]
                        if w > best:
                            best, count = w, sub[1]
                        elif w == best:
                            count += sub[1]
            got = None if best < 0 else (best, count)
        memo[state] = got
        return got

    def _choose(self, k: int, key: int) -> list[tuple[int, int, tuple[int, ...]]]:
        """Every use of its edges to later vertices by the vertex of rank
        ``k``, within the bounds, given its own field and the member bits in
        ``key``: the step it takes off a state, its weight and the edges it
        uses."""
        at = k * self._width
        r = key >> at & self._field
        u = self._order[k]
        least = r - self._upper[u] + self._lower[u]
        ways = [(r << at, 0, 0, ())]  # (step, weight, total use, edges used)
        for t, to, floor, cap, w, bit in self._later[k]:
            if bit and not key & bit:
                continue
            edge = (t,)
            more = [
                (step + (m << to), weight + m * w, n + m, used + edge)
                for step, weight, n, used in ways
                if n < r
                for m in range(floor or 1, min(cap, r - n) + 1)
            ]
            if floor:
                ways = more
            else:
                ways += more
        got = self._choices[key] = [(s, w, used) for s, w, n, used in ways if n >= least]
        return got


class DoubleCover(NamedTuple):
    """A single-use game's fractional optimum and, where the double cover's
    assignment rounds to one, a matching of the same weight, by the indices
    of its edges in the :class:`IntegerGame`; otherwise None."""

    value: Fraction
    matching: tuple[int, ...] | None


def double_cover_optimum(ig: IntegerGame, nleft: int = 0) -> DoubleCover:
    """The fractional optimum of a single-use game, with no LP: half the best
    weight of its bipartite double cover, certified in the game's own terms,
    and the matching it rounds to, if any.  An assignment game, whose
    ``nleft`` left vertices come first, runs the Hungarian method on its own
    matrix instead (see :func:`_assignment_optimum`); a general game passes 0.

    The double cover D(G) joins a left copy of each vertex i to a right copy
    of each neighbour j, so ν_f(G) = ν(D(G))/2: a fractional matching x of G
    gives D(G) the fractional matching x_ij on i–j' and j–i', and D(G)'s
    polytope is integral.  Its best matching is the best assignment of the
    n×n matrix W, W[i][j] = W[j][i] = the scaled weight of edge ij and 0 off
    the edges, the diagonal included, by the Hungarian method (see
    :func:`_hungarian`).

    Its potentials a, b and assignment σ certify the answer in integers:
    y_q = a_q + b_q and x_ij = [σ(i) = j] + [σ(j) = i] must satisfy y >= 0,
    y_i + y_j >= 2·w_ij on every edge, x(δ(q)) <= 2 and w·x = Σy.  Then x/2
    is a fractional matching of G and y/2 a dual of equal value, both
    optimal by weak duality.

    A matching M rounded from x (see :func:`_rounded`) must have every load
    at most 1 and 2·w(M) = Σy.  Then w(M) = ν_f >= ν >= w(M): M is an
    optimal matching and the game is concurrent.  A failed check of either
    raises :class:`SolverInvariantError`.
    """
    if nleft:
        return _assignment_optimum(ig, nleft)
    n = len(ig.upper)
    w = [[0] * n for _ in range(n)]
    for (i, j), wij in zip(ig.ends, ig.weights):
        w[i][j] = w[j][i] = wij
    a, b, sigma = _hungarian(w)
    y = [aq + bq for aq, bq in zip(a, b)]
    x = [(sigma[i] == j) + (sigma[j] == i) for i, j in ig.ends]
    load = [0] * n
    for (i, j), xe in zip(ig.ends, x):
        load[i] += xe
        load[j] += xe
    if (
        min(y, default=0) < 0
        or any([y[i] + y[j] < 2 * wij for (i, j), wij in zip(ig.ends, ig.weights)])
        or max(load, default=0) > 2
        or sum([wij * xe for wij, xe in zip(ig.weights, x)]) != sum(y)
    ):
        raise SolverInvariantError("the double cover's assignment is not certified")
    matching = _rounded(ig.ends, sigma)
    if matching is not None:
        ends = [q for t in matching for q in ig.ends[t]]
        if len(set(ends)) < len(ends) or 2 * sum([ig.weights[t] for t in matching]) != sum(y):
            raise SolverInvariantError("the double cover's matching is not certified")
    return DoubleCover(Fraction(sum(y), 2 * ig.scale), matching)


def _assignment_optimum(ig: IntegerGame, nleft: int) -> DoubleCover:
    """An assignment game's optimum and an optimal matching M, certified.

    The Hungarian method runs on the n_l × n_r matrix of scaled weights,
    padded square with zeros; M is the assigned pairs that are edges.  The
    padded zeros give a_i + b_j >= 0 everywhere, so min a + min b >= 0, and
    the potentials shifted by min a, y_i = a_i - min a on the left and
    y_j = b_j + min a on the right, must satisfy y >= 0, y_i + y_j >= w_ij
    on every edge and w(M) = Σy, with M a matching.  Then w(M) <= ν <= ν_f
    <= Σy = w(M) by weak duality; a failed check raises
    :class:`SolverInvariantError`.
    """
    nright = len(ig.upper) - nleft
    size = max(nleft, nright)
    w = [[0] * size for _ in range(size)]
    edge = {}
    for t, ((i, j), wij) in enumerate(zip(ig.ends, ig.weights)):
        w[i][j - nleft] = wij
        edge[i, j - nleft] = t
    a, b, sigma = _hungarian(w)
    least = min(a)
    y = [aq - least for aq in a[:nleft]] + [bq + least for bq in b[:nright]]
    matching = tuple(sorted([edge[p] for p in enumerate(sigma[:nleft]) if p in edge]))
    ends = [q for t in matching for q in ig.ends[t]]
    if (
        min(y) < 0
        or any([y[i] + y[j] < wij for (i, j), wij in zip(ig.ends, ig.weights)])
        or len(set(ends)) < len(ends)
        or sum([ig.weights[t] for t in matching]) != sum(y)
    ):
        raise SolverInvariantError("the assignment is not certified")
    return DoubleCover(Fraction(sum(y), ig.scale), matching)


class CoreOctagon(NamedTuple):
    """A concurrent single-use game's payment answers over its core, as
    integers over twice the :class:`IntegerGame`'s scale: each vertex's
    least and most profit, and each edge's most overpay."""

    profits: list[tuple[int, int]]
    overpay: list[int]


def core_octagon(ig: IntegerGame, matching: tuple[int, ...]) -> CoreOctagon:
    """The payment answers of a concurrent single-use game, read from its
    core as a strongly closed octagon and certified in integers.

    ``matching`` is an optimal matching M, by edge index.  By complementary
    slackness every core point is tight on M and pays 0 where M leaves a
    vertex unmatched, so one variable x_p per edge p of M fixes it: the
    profit of p's first end (the left end on an assignment game), whose
    second end gets w_p - x_p.  Every core row then bounds at most two
    variables with coefficients ±1: the core is an octagon (Miné, "The
    octagon abstract domain", HOSC 2006).  Node 0 is a zero node z, and
    the p-th edge of M, counting from 1, has the nodes p for x_p and
    p + |M| for -x_p, which the bar swaps.  A row V_b - V_a <= c, its length doubled so that the
    strengthening halves in integers, is an arc a -> b with its mirror
    b̄ -> ā: y_q >= 0 for each matched q, and y_a + y_b >= w_ab for every
    edge.  The strong closure d (see :func:`_strong_closure`) gives the most
    V_b - V_a over the core as d(a, b), a path's length or half of two.  So
    with q' the node of vertex q, q's most profit is d(z, q') and its least
    -d(q', z), and edge ab's most overpay is d(b̄', a') - w_ab, each plus
    the constants of the ends (w_p at a second end).

    The certificate: no diagonal entry is negative, and every entry
    answered is attained by a witness (see :func:`_witnesses` and
    :func:`_imposed`) that meets every core row, y >= 0, y_a + y_b >= w_ab
    and Σy = w(M); by weak duality w(M) <= ν <= ν_f <= Σy, so that point
    also proves M optimal.  A failed check raises :class:`SolverInvariantError`.
    """
    ends, weights = ig.ends, ig.weights
    hit = [q for t in matching for q in ends[t]]
    if len(set(hit)) < len(hit):
        raise SolverInvariantError("the core's octagon needs a matching")
    k = len(matching)
    bar = [0, *range(k + 1, 2 * k + 1), *range(1, k + 1)]
    node, base = [0] * len(ig.upper), [0] * len(ig.upper)
    for p, t in enumerate(matching, 1):
        i, j = ends[t]
        node[i], node[j], base[j] = p, p + k, weights[t]
    arcs = [(node[q], 0, 2 * base[q]) for q in hit]
    arcs += [
        (node[i], bar[node[j]], 2 * (base[i] + base[j] - w)) for (i, j), w in zip(ends, weights)
    ]
    # A sum row joins the two halves other than through z.
    sums = any([a and b and (a <= k) != (b <= k) for a, b, _ in arcs])
    dist = _strong_closure(bar, arcs, sums)
    if any([row[v] < 0 for v, row in enumerate(dist)]):
        raise SolverInvariantError("the core's octagon is empty")
    # A witness is a point V over 4 times the scale; it attains d(a, b) when
    # V_b - V_a = 2 d(a, b), and pays q V at q' plus 4 times q's constant.
    pool = _witnesses(dist, bar, sums)
    total, checked = 4 * sum([weights[t] for t in matching]), set()
    entries = [(v, 0) for v in node] + [(0, v) for v in node]
    for a, b in dict.fromkeys(entries + [(bar[node[j]], node[i]) for i, j in ends]):
        want = 2 * dist[a][b]
        # Try a's own row first; without a sum row, that of b̄ for a negative a.
        n = a if a < len(pool) else bar[b]
        if pool[n][b] - pool[n][a] != want:
            n = next((n for n, v in enumerate(pool) if v[b] - v[a] == want), len(pool))
        if n == len(pool):
            pool.append(_imposed(dist, bar, a, b))
            if pool[n][b] - pool[n][a] != want:
                raise SolverInvariantError("no core point attains a bound of the core's octagon")
        if n not in checked:
            y = [pool[n][v] + 4 * c for v, c in zip(node, base)]
            if (
                min(y, default=0) < 0
                or sum(y) != total
                or any([y[i] + y[j] < 4 * w for (i, j), w in zip(ends, weights)])
            ):
                raise SolverInvariantError("a witness of the core's octagon is not a core point")
            checked.add(n)
    return CoreOctagon(
        [(2 * c - dist[v][0], 2 * c + dist[0][v]) for v, c in zip(node, base)],
        [
            dist[bar[node[j]]][node[i]] + 2 * (base[i] + base[j] - w)
            for (i, j), w in zip(ends, weights)
        ],
    )


def _strong_closure(
    bar: list[int], arcs: list[tuple[int, int, int]], sums: bool
) -> list[list[int]]:
    """The strong closure over the nodes of ``bar`` of these arcs and their
    mirrors: shortest paths (see :func:`_closure`), then one strengthening
    pass d(a, b) <- min(d(a, b), (d(a, ā) + d(b̄, b))/2), which suffices
    after the closure (Bagnara, Hill and Zaffanella 2009).  Without a sum
    row, the positive half with z is closed alone and mirrored (see
    :func:`_mirrored`)."""
    k = len(bar) // 2
    if not sums:
        # Each arc, or its mirror, lies in the positive half.
        arcs = [(a, b, c) if a <= k and b <= k else (bar[b], bar[a], c) for a, b, c in arcs]
        return _mirrored(_closure(k + 1, arcs))
    dist = _closure(len(bar), arcs + [(bar[b], bar[a], c) for a, b, c in arcs])
    half = [row[v] for row, v in zip(dist, bar)]  # d(v, v̄)
    across = [half[v] for v in bar]  # d(v̄, v)
    return [[min(x, (h + c) // 2) for x, c in zip(row, across)] for row, h in zip(dist, half)]


def _mirrored(pos: list[list[int]]) -> list[list[int]]:
    """The strong closure of an octagon with no sum row, from the closure
    ``pos`` of its positive half, z first: d(ā, b̄) = d(b, a), and a path
    between the halves runs through z, so d(a, b̄) = d(a, z) + d(b, z) and
    d(ā, b) = d(z, a) + d(z, b).  Strengthening would change nothing."""
    up = pos[0][1:]  # d(z, a)
    down = [row[0] for row in pos[1:]]  # d(a, z)
    cols = [list(col) for col in zip(*pos[1:])][1:]  # d(·, a) over the variables
    return (
        [[pos[0][0], *up, *down]]
        + [[x, *row[1:], *[x + y for y in down]] for row, x in zip(pos[1:], down)]
        + [[x, *[x + y for y in up], *col] for col, x in zip(cols, up)]
    )


def _closure(n: int, arcs: list[tuple[int, int, int]]) -> list[list[int]]:
    """All-pairs shortest path lengths over nodes 0..n-1 and the arcs
    (tail, head, length), ``dist[a][b]`` from a to b, by Floyd–Warshall
    through node 0 first: in :func:`core_octagon` that is z, which every
    node has arcs to and from, so from then on every entry is a path's
    length."""
    far = 1 + sum([abs(c) for *_, c in arcs])
    dist = [[0 if a == b else far for b in range(n)] for a in range(n)]
    for a, b, c in arcs:
        if c < dist[a][b]:
            dist[a][b] = c
    for m in range(n):
        through = dist[m]
        for a, row in enumerate(dist):
            am = row[m]
            dist[a] = [x if x <= am + y else am + y for x, y in zip(row, through)]
    return dist


def _witnesses(dist: list[list[int]], bar: list[int], sums: bool) -> list[list[int]]:
    """A point V per row s of the strong closure ``dist``, over 4 times the
    scale.  Without a sum row, each row of the positive half gives the
    potential V = d(s, ·) - d(s, z), which attains every d(s, ·).  Otherwise
    V_v = (d(s, v) - d(s, v̄))/2: an arc a -> b of length c and its mirror
    give d(s, b) <= d(s, a) + c and d(s, ā) <= d(s, b̄) + c, which add up to
    V_b - V_a <= c."""
    if sums:
        return [[row[v] - row[b] for v, b in enumerate(bar)] for row in dist]
    k = len(bar) // 2
    points = [[2 * (x - row[0]) for x in row[1 : k + 1]] for row in dist[: k + 1]]
    return [[0, *up, *[-x for x in up]] for up in points]


def _imposed(dist: list[list[int]], bar: list[int], a: int, b: int) -> list[int]:
    """A point where V_b - V_a reaches d(a, b): z's row point (see
    :func:`_witnesses`) once V_a - V_b <= -d(a, b), an arc b -> a with its
    mirror, is imposed and closed through their ends.  Those pivots read
    only the rows of z and of the ends, so only those are kept."""
    rows = {v: list(dist[v]) for v in (0, a, b, bar[a], bar[b])}
    rows[b][a] = min(rows[b][a], -dist[a][b])
    rows[bar[a]][bar[b]] = min(rows[bar[a]][bar[b]], -dist[a][b])
    for m in (a, b, bar[a], bar[b]):
        through = rows[m]
        for v, row in rows.items():
            vm = row[m]
            rows[v] = [x if x <= vm + y else vm + y for x, y in zip(row, through)]
    row = rows[0]
    return [row[v] - row[w] for v, w in enumerate(bar)]


def _rounded(ends: list[tuple[int, int]], sigma: list[int]) -> tuple[int, ...] | None:
    """A matching read off the assignment ``sigma``, or None.

    The edges of x (see :func:`double_cover_optimum`) are the pairs
    q–σ(q) that are edges, used twice where σ(σ(q)) = q and once otherwise.
    Each cycle of σ walks along them, cut where q–σ(q) is no edge; every
    other edge of each piece is taken, from its start.  So a 2-cycle on an
    edge gives that edge, and each path or even cycle of once-used edges
    every other one of its edges.  An uncut cycle of odd length is an odd
    cycle of once-used edges, which rounds to no matching: None.  Returns
    the edges' indices in ``ends``, ascending.
    """
    edge = {}
    for t, (i, j) in enumerate(ends):
        edge[i, j] = edge[j, i] = t
    seen = [False] * len(sigma)
    matching = []
    for s in range(len(sigma)):
        steps, q = [], s
        while not seen[q]:
            seen[q] = True
            steps.append(edge.get((q, sigma[q])))
            q = sigma[q]
        if None in steps:
            cut = steps.index(None)
            steps = steps[cut:] + steps[:cut]
        elif len(steps) % 2:
            return None
        take = True
        for t in steps:
            if t is not None and take:
                matching.append(t)
            take = t is None or not take
    return tuple(sorted(matching))


def _hungarian(w: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """A maximum-weight assignment of the square integer matrix ``w`` and its
    potentials: ``(a, b, sigma)`` with a_i + b_j >= w[i][j] everywhere and
    equality where j = sigma[i].

    The O(n³) shortest-augmenting-path Hungarian method on the costs
    c = top - w, all in [0, top], adding one row per phase.  A phase moves
    each potential by at most the distance to the free column it reaches,
    at most top, a free column's direct reduced cost; so every potential
    stays within n·top of 0 and every reduced cost below ``big``, the
    method's "no column yet" bound.
    """
    n = len(w)
    top = max([max(row) for row in w], default=0)
    big = (2 * n + 1) * top + 1
    # Rows and columns are 1-based; column 0 holds the row being added.
    u, v, match, way = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        match[0], j0 = i, 0
        least, done = [big] * (n + 1), [False] * (n + 1)
        while match[j0]:
            done[j0] = True
            i0 = match[j0]
            row, ui = w[i0 - 1], u[i0]
            delta, j1 = big, 0
            for j in range(1, n + 1):
                if not done[j]:
                    cur = top - row[j - 1] - ui - v[j]
                    if cur < least[j]:
                        least[j], way[j] = cur, j0
                    if least[j] < delta:
                        delta, j1 = least[j], j
            for j in range(n + 1):
                if done[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    least[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    sigma = [0] * n
    for j in range(1, n + 1):
        sigma[match[j] - 1] = j - 1
    return [top - ui for ui in u[1:]], [-vj for vj in v[1:]], sigma


@dataclass(frozen=True)
class HalfIntegralReport:
    is_half_integral: bool
    ones: tuple[Edge, ...]
    halves: tuple[Edge, ...]
    half_components: tuple[tuple[str, ...], ...]


def check_half_integral(x: MatchingVector) -> HalfIntegralReport:
    """Verify the half-integral vertex structure of a fractional matching.

    Every multiplicity must be 0, 1/2 or 1; the 1-edges must form a
    matching; the 1/2-edges must decompose into odd cycles, disjoint
    from each other and from the 1-edges.  Each cycle is walked from its
    least vertex toward that vertex's lesser neighbour.  Failures are
    report content, not exceptions.
    """
    ones = tuple([k for k, m in x.multiplicities if m == ONE])
    halves = tuple([k for k, m in x.multiplicities if m == HALF])
    matched = [q for k in ones for q in k]
    adj: dict[str, list[str]] = {}
    for i, j in halves:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    cycles: list[tuple[str, ...]] = []
    if (
        len(ones) + len(halves) == len(x.multiplicities)
        and len(set(matched)) == len(matched)
        and adj.keys().isdisjoint(matched)
        and all(len(nb) == 2 and nb[0] != nb[1] for nb in adj.values())
    ):
        seen: set[str] = set()
        for start in sorted(adj):
            if start in seen:
                continue
            cycle, prev, here = [start], start, min(adj[start])
            while here != start:
                cycle.append(here)
                a, b = adj[here]
                prev, here = here, b if a == prev else a
            seen.update(cycle)
            cycles.append(tuple(cycle))
        if all(len(c) % 2 for c in cycles):
            return HalfIntegralReport(True, ones, halves, tuple(cycles))
    return HalfIntegralReport(False, (), (), ())


class DecompositionError(Exception):
    """The vector is not a feasible fractional matching of the game."""


def _max_matching_covering(
    support: list[Edge], tight: frozenset[str]
) -> list[Edge] | None:
    """Largest matching inside ``support`` covering all of ``tight``.

    Ties break toward the lexicographically earliest edge-index set.  One
    :class:`ResidualTable` over the support, every cap 1: with m support
    edges, edge t weighs 2^m·(1 + (m+1)·|e ∩ tight|) + 2^(m−1−t).  Above
    2^m, a matching covers ``tight`` exactly when its weight reaches
    (m+1)·|tight|, and the heaviest of those are the largest.  Below it,
    each index set weighs its own binary number, the greatest for the
    earliest of the sets tied above (no one of which holds another), so
    the optimum is unique and the count uses exactly its edges.  First
    ends come first, so on a bipartite support the table's states are
    the sets of second ends still free.
    """
    m = len(support)
    pos = {q: p for p, q in enumerate(dict.fromkeys([k[e] for e in (0, 1) for k in support]))}
    ends = [(pos[i], pos[j]) for i, j in support]
    weights = [
        ((1 + (m + 1) * ((i in tight) + (j in tight))) << m) + (1 << m - 1 - t)
        for t, (i, j) in enumerate(support)
    ]
    n = len(pos)
    ig = IntegerGame(ends, weights, [1] * m, [0] * m, [1] * n, [0] * n, 1)
    best, count = ResidualTable(ig, 0).count()
    if best >> m < (m + 1) * len(tight):
        return None
    return [k for k, used in zip(support, count.edges) if used]


def birkhoff_decompose(
    g: GameInstance, x: MatchingVector
) -> list[tuple[Fraction, MatchingVector]]:
    """Write a bipartite fractional matching as a combination of matchings.

    Returns pairs ``(coefficient, integral matching)`` with positive
    coefficients summing to at most one whose weighted sum reproduces
    ``x`` exactly, component-wise.  Repeatedly extracts a maximum
    matching of the current support that covers every saturated vertex
    and subtracts the largest feasible amount of it.
    """
    if g.variant == "general-matching":
        raise ValueError("decomposition into matchings needs a bipartite game")
    mult = x.as_dict()
    unknown = sorted(map(edge_name, mult.keys() - set(g.edge_keys)))
    if unknown:
        raise DecompositionError(f"not an edge of the game: {', '.join(unknown)}")
    if any(m < 0 for m in mult.values()):
        raise DecompositionError("negative multiplicity")
    load = {q: x.load(q) for q in g.vertices}
    if any(v > 1 for v in load.values()):
        raise DecompositionError("vertex load exceeds one")

    remaining = Fraction(1)
    # Repeated matchings are merged, in first-seen order.
    terms: dict[tuple[Edge, ...], Fraction] = {}
    while any(mult.values()):
        support = [k for k in g.edge_keys if mult.get(k, ZERO) > 0]
        tight = frozenset(q for q in g.vertices if load[q] == remaining)
        matching = _max_matching_covering(support, tight)
        if matching is None:
            raise DecompositionError("no matching covers the saturated vertices")
        step = min(mult[k] for k in matching)
        covered = {q for k in matching for q in k}
        for q in g.vertices:
            if q not in covered and load[q] > 0:
                step = min(step, remaining - load[q])
        if step <= 0:
            raise DecompositionError("decomposition stalled")
        for k in matching:
            mult[k] -= step
            if mult[k] == 0:
                del mult[k]
        for q in covered:
            load[q] -= step
        remaining -= step
        key = tuple(matching)
        terms[key] = terms.get(key, ZERO) + step
    return [
        (c, make_matching_vector(g, dict.fromkeys(m, ONE))) for m, c in terms.items()
    ]


def _label(times_used: int, total: int) -> str:
    if times_used == total:
        return ESSENTIAL
    if times_used == 0:
        return SUBPAR
    return VIABLE
