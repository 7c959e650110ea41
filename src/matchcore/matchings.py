"""Integral matching oracles and fractional matching structure.

The exhaustive enumerator here is deliberately independent of the LP
path: :func:`brute_force_optima` lists every optimal integral matching,
and is kept, with the worth-only :func:`integer_search`, as the ground
truth that the tables below are checked against; the session runs
neither.  A game's worth, the count of its optimal matchings, with how
many of them use each vertex and edge (all the essential/viable/subpar
classification needs), and every coalition worth come from one table
chosen by the game's bounds: a :class:`SubsetTable` on single-use
games, a :class:`ResidualTable` on the others, which are all bipartite
b-games.  Both fill on demand and answer ``count()`` and
``worth(mask)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .games import (
    DEFAULT_BUDGET_CAP,
    Edge,
    GameInstance,
    InfeasibleGameError,
    check_budget_cap,
)
from .simplex import solve_lp
from .gamelp import build_primal_lp, edge_name

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

ESSENTIAL = "essential"
VIABLE = "viable"
SUBPAR = "subpar"


class SolverInvariantError(Exception):
    """A solver output violated a structural guarantee of its polytope."""


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

    def multiplicity(self, key: Edge) -> Fraction:
        return self.as_dict().get(key, ZERO)


def make_matching_vector(g: GameInstance, mult: dict[Edge, Fraction]) -> MatchingVector:
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
    ``budget_cap``.  The search is :func:`integer_search` with every
    tie listed.
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
        [int(w * scale) for _, _, w in g.edges],
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


def integer_search(
    ig: IntegerGame, ties: list[tuple[int, ...]] | None = None
) -> int | None:
    """Maximum-weight integral b-matching of ``ig``, depth-first over its edges.

    Returns the best scaled weight, or None when floors admit no
    matching.

    A node is pruned when even the smaller of two upper bounds on the
    weight still to come cannot reach the best found so far: the suffix
    bound (every later edge at its cap), and the residual dual bound, in
    which each vertex is priced at half the largest weight of a later
    edge to a vertex with capacity left.  With ``ties`` both prune only
    on strict ``<``, so every optimum is reached, in depth-first order
    (each multiplicity ascending), and appended to ``ties`` as its
    multiplicities over ``ig``'s edges; a better weight clears the list.
    Without, they prune on ``<=`` too, so only strictly better matchings
    are reached: the worth-only search.  A vertex below its floor is
    rejected once its last edge is decided.
    """
    ends, weights, caps, floors, upper, lower, _ = ig
    n = len(ends)
    nv = len(upper)
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
    # Per vertex, its edges heaviest first as (weight, other end, index);
    # a node at edge t reads only the entries with index t or later.
    heavy: list[list[tuple[int, int, int]]] = [[] for _ in range(nv)]
    for s, (i, j) in enumerate(ends):
        heavy[i].append((weights[s], j, s))
        heavy[j].append((weights[s], i, s))
    for entries in heavy:
        entries.sort(key=lambda e: -e[0])
    # Vertices with an edge, latest last edge first: those with an edge
    # at t or later are a prefix.
    by_last = sorted([p for p in range(nv) if last[p] >= 0], key=lambda p: -last[p])

    # best holds the best weight found plus slack: a bound below it cannot
    # tie (slack 0) or beat (slack 1) that weight.  Weights are integers,
    # so the same holds for a doubled bound below 2 best.
    slack = 1 if ties is None else 0
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
        if best is not None:
            if weight + suffix[t] < best:
                return
            twice = 2 * weight
            for p in by_last:
                if last[p] < t:
                    break
                r = rem[p]
                if r:
                    for w, o, s in heavy[p]:
                        if s >= t and rem[o]:
                            twice += r * w
                            break
            if twice < 2 * best:
                return
        if t == n:
            # The bounds above let through only a leaf that ties (with
            # ties) or beats (without) the best weight found so far.
            if best is None or weight + slack > best:
                best = weight + slack
                if ties is not None:
                    ties.clear()
            if ties is not None:
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
    return None if best is None else best - slack


class SubsetTable:
    """Scaled single-use worth of every vertex subset, filled on demand,
    and the count of the whole game's optima.

    Each vertex is matched at most once and each edge used at most once,
    whatever ``ig``'s caps say.  The lowest vertex v of a subset S is
    either unmatched or matched to one neighbour u in S:
    v(S) = max(v(S - v), max over u of w_uv + v(S - v - u)), exact on
    any simple graph, bipartite or not.  One dict keeps, for each subset
    filled, its worth T[S] and the number C[S] of its optimal matchings.
    :meth:`count` fills only the subsets reached down from the whole
    vertex set N: removing the lowest vertex, alone or with a neighbour,
    reaches few of the 2^n subsets (2,583 of 65,536 on K_16, fewer on
    sparser graphs).  The first :meth:`worth` fills the rest, upward
    over the bitmasks, so a coalition cap on the game's vertices bounds
    it.  The interface is :class:`ResidualTable`'s.
    """

    def __init__(self, ig: IntegerGame):
        self._adj: list[list[tuple[int, int, int]]] = [[] for _ in ig.upper]
        for t, ((i, j), w) in enumerate(zip(ig.ends, ig.weights)):
            self._adj[i].append((1 << j, w, t))
            self._adj[j].append((1 << i, w, t))
        self._edges = len(ig.ends)
        self._memo: dict[int, tuple[int, int]] = {0: (0, 1)}
        self._complete = False

    @property
    def states(self) -> int:
        """How many subsets the table holds."""
        return len(self._memo)

    def worth(self, mask: int) -> int:
        """The best scaled single-use weight inside the vertices set in
        ``mask`` (positions of the :class:`IntegerGame`)."""
        if not self._complete:
            self._fill(range(1, 1 << len(self._adj)))
            self._complete = True
        return self._memo[mask][0]

    def count(self) -> tuple[int, OptimaCount]:
        """The whole game's best scaled weight and the count of its optima.

        Every optimum of N is one path of tight steps from N down to the
        empty set, so, downward, P[S] counts the tight paths from N to S,
        and a tight step from S that removes v alone, or v with u, lies
        on P[S]·C[rest] optima, which leave v unmatched, or use edge uv.
        The work depends on the graph, not on how many optima there are.
        """
        adj = self._adj
        full = (1 << len(adj)) - 1
        reached = {0}
        todo = [full]
        while todo:
            s = todo.pop()
            if s not in reached:
                reached.add(s)
                low = s & -s
                rest = s ^ low
                todo.append(rest)
                for bit, _, _ in adj[low.bit_length() - 1]:
                    if rest & bit:
                        todo.append(rest ^ bit)
        order = sorted(reached)
        self._fill(order)
        memo = self._memo
        edges = [0] * self._edges
        paths = dict.fromkeys(order, 0)
        paths[full] = 1
        unmatched = [0] * len(adj)
        for s in reversed(order[1:]):
            here = paths[s]
            if not here:
                continue
            low = s & -s
            rest = s ^ low
            v = low.bit_length() - 1
            best = memo[s][0]
            worth, count = memo[rest]
            if worth == best:
                paths[rest] += here
                unmatched[v] += here * count
            for bit, w, t in adj[v]:
                if rest & bit:
                    other = rest ^ bit
                    worth, count = memo[other]
                    if w + worth == best:
                        paths[other] += here
                        edges[t] += here * count
        best, total = memo[full]
        return best, OptimaCount(total, edges, [total - u for u in unmatched])

    def _fill(self, order: Iterable[int]) -> None:
        """Fill each subset of ``order`` not yet held; a subset's smaller
        subsets come before it."""
        memo, adj = self._memo, self._adj
        for s in order:
            if s in memo:
                continue
            low = s & -s
            rest = s ^ low
            best, count = memo[rest]
            for bit, w, _ in adj[low.bit_length() - 1]:
                if rest & bit:
                    got, more = memo[rest ^ bit]
                    got += w
                    if got > best:
                        best, count = got, more
                    elif got == best:
                        count += more
            memo[s] = best, count


_UNSEEN = object()


class ResidualTable:
    """Scaled worth of every coalition of a bipartite game, filled on demand,
    and the count of the whole game's optima.

    One side P is processed vertex by vertex, lowest first; the other
    side Q keeps the residual capacity r_v of each of its vertices.  The
    lowest vertex u still to be processed chooses all its uses x of its
    edges into the coalition's part of Q at once, each within the edge's
    floor and cap, their total within u's floor and cap, and leaves:
    F(P', r) = max over x <= r of w.x + F(P' - u, r - x).  With P' empty
    a state is feasible when every v of Q meets its floor,
    r_v <= b_v - lo_v; an infeasible state is None.  Each state keeps
    F and the number C of its optimal completions.  Coalition S starts
    at (S ∩ P, b on S ∩ Q), so coalitions share their subproblems, and
    every state reached is kept.  P is the side that minimizes
    2^|P| · Π_{q in Q} (b_q + 1), which bounds the number of states (by
    2^|Q| more where an edge floor is positive).

    A state is one int: a bit per vertex of P' lowest, then a field per
    vertex of Q holding r_v under a guard bit, then, where some edge
    floor is positive, the members of S ∩ Q (an edge to a non-member is
    not in S, so its floor does not bind).  A choice x is subtracted
    with u's bit in one step, and x <= r exactly when every guard bit is
    still set.  The recursion is a method, not a closure that calls
    itself, so a table leaves no reference cycle behind.
    """

    def __init__(self, ig: IntegerGame, nleft: int):
        ends, weights, caps, floors, upper, lower, _ = ig
        left, right = range(nleft), range(nleft, len(upper))

        def states(p, q):
            return (1 << len(p)) * prod([upper[v] + 1 for v in q])

        side, other = left, right
        if states(right, left) < states(left, right):
            side, other = right, left
        width = max([upper[v] for v in other], default=0).bit_length() + 1
        at = {v: len(side) + f * width for f, v in enumerate(other)}
        top = len(side) + len(other) * width
        self._field = (1 << width - 1) - 1
        self._q_caps = [(v, at[v], upper[v]) for v in other]
        self._todo = (1 << len(side)) - 1
        self._guards = sum([1 << (s + width - 1) for s in at.values()])
        self._fields = (1 << top) - 1 - self._todo
        self._spare = self._guards + sum([(upper[v] - lower[v]) << at[v] for v in other])
        self._members = top if any(floors) else None
        # What each vertex adds to the state a coalition holding it starts at.
        self._start = [0] * len(upper)
        for k, u in enumerate(side):
            self._start[u] = 1 << k
        for f, v in enumerate(other):
            self._start[v] = upper[v] << at[v]
            if self._members is not None:
                self._start[v] |= 1 << (self._members + f)
        self._bounds = [(u, lower[u], upper[u]) for u in side]
        self._edges: list[list[tuple[int, int, int, int, int, int]]] = [[] for _ in side]
        for t, ((i, j), w, c, f) in enumerate(zip(ends, weights, caps, floors)):
            u, v = (i, j) if i in side else (j, i)
            self._edges[u - side.start].append((t, v - other.start, at[v], f, c, w))
        self._choices: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._memo: dict[int, tuple[int, int] | None] = {}

    @property
    def states(self) -> int:
        """How many states the table holds."""
        return len(self._memo)

    def worth(self, mask: int) -> int | None:
        """The best scaled weight inside the vertices set in ``mask``
        (positions of the :class:`IntegerGame`), or None if their floors
        admit no matching."""
        state = self._guards
        while mask:
            low = mask & -mask
            state += self._start[low.bit_length() - 1]
            mask ^= low
        got = self._best(state)
        return None if got is None else got[0]

    def count(self) -> tuple[int, OptimaCount] | None:
        """The whole game's best scaled weight and the count of its optima (None
        if floors admit no matching), by one downward pass in descending state
        order, which is topological: each choice takes a positive step off the
        state.  P[s] counts the tight paths from the whole game to s; a tight
        choice x of u from s to s' lies on P[s]·C[s'] optima, which use each
        edge with x_e > 0, and u if Σx > 0; the P[s] optima ending at leaf s
        use each v of Q whose field there is below b_v."""
        full = self._guards + sum(self._start)
        top = self._best(full)
        if top is None:
            return None
        memo, guards, field = self._memo, self._guards, self._field
        edges = [0] * sum(map(len, self._edges))
        vertices = [0] * len(self._start)
        paths = {full: 1}
        for s in sorted(memo, reverse=True):
            here = paths.get(s)
            if not here:
                continue
            if not s & self._todo:
                for v, at, cap in self._q_caps:
                    if s >> at & field < cap:
                        vertices[v] += here
                continue
            low = s & -s  # the todo bits are the lowest
            k = low.bit_length() - 1
            best = memo[s][0]
            for step, w in self._choices_of(low, s):
                nxt = s - step
                sub = memo[nxt] if nxt & guards == guards else None
                if sub is not None and w + sub[0] == best:
                    paths[nxt] = paths.get(nxt, 0) + here
                    through = here * sub[1]
                    if step != low:
                        vertices[self._bounds[k][0]] += through
                    for t, _, at, *_ in self._edges[k]:
                        if step >> at & field:
                            edges[t] += through
        return top[0], OptimaCount(top[1], edges, vertices)

    def _best(self, state: int) -> tuple[int, int] | None:
        got = self._memo.get(state, _UNSEEN)
        if got is not _UNSEEN:
            return got
        todo = state & self._todo
        guards = self._guards
        got = None
        if not todo:
            left = (state & self._fields) - guards
            if (self._spare - left) & guards == guards:
                got = (0, 1)
        else:
            for step, w in self._choices_of(todo & -todo, state):
                nxt = state - step
                if nxt & guards == guards:
                    sub = self._best(nxt)
                    if sub is not None:
                        w += sub[0]
                        if got is None or w > got[0]:
                            got = (w, sub[1])
                        elif w == got[0]:
                            got = (w, got[1] + sub[1])
        self._memo[state] = got
        return got

    def _choices_of(self, low: int, state: int) -> list[tuple[int, int]]:
        """Every use of its edges by the vertex of bit ``low``, as the step
        it takes off a state and its weight, within the bounds."""
        members = -1 if self._members is None else state >> self._members
        key = (low, members)
        got = self._choices.get(key)
        if got is None:
            k = low.bit_length() - 1
            _, bottom, top = self._bounds[k]
            ways = [(low, 0, 0)]  # (step, weight, total use)
            for _, f, at, floor, cap, w in self._edges[k]:
                if members >> f & 1:
                    ways = [
                        (step + (m << at), weight + m * w, n + m)
                        for step, weight, n in ways
                        for m in range(floor, min(cap, top - n) + 1)
                    ]
            got = self._choices[key] = [(s, w) for s, w, n in ways if n >= bottom]
        return got


def fractional_optimum(g: GameInstance) -> MatchingVector:
    """Exact vertex-optimal fractional matching from the primal LP.

    Asserts the structural guarantee of the variant's polytope on every
    solve: bipartite variants must come back integral, general graphs
    half-integral with the half edges forming disjoint odd cycles.
    """
    lp = build_primal_lp(g)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        raise InfeasibleGameError("no matching satisfies the bounds")
    if sol.status != "optimal":
        raise SolverInvariantError(f"primal LP came back {sol.status}")
    mult = {k: sol.values[f"x[{edge_name(k)}]"] for k in g.edge_keys}
    vec = make_matching_vector(g, mult)
    if g.variant == "general-matching":
        if not check_half_integral(vec).is_half_integral:
            raise SolverInvariantError("general-graph vertex is not half-integral")
    else:
        if any(m.denominator != 1 for _, m in vec.multiplicities):
            raise SolverInvariantError("bipartite vertex solution is not integral")
    return vec


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
    from each other and from the 1-edges.  Failures are report content,
    not exceptions.
    """
    ones: list[Edge] = []
    halves: list[Edge] = []
    for k, m in x.multiplicities:
        if m == ONE:
            ones.append(k)
        elif m == HALF:
            halves.append(k)
        else:
            return HalfIntegralReport(False, (), (), ())

    used: set[str] = set()
    for i, j in ones:
        if i in used or j in used:
            return HalfIntegralReport(False, (), (), ())
        used.update((i, j))

    adj: dict[str, list[str]] = {}
    for i, j in halves:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    if used & set(adj):
        return HalfIntegralReport(False, (), (), ())

    cycles: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        if len(adj[start]) != 2:
            return HalfIntegralReport(False, (), (), ())
        cycle = [start]
        seen.add(start)
        prev, here = None, start
        while True:
            nxt = [r for r in sorted(adj[here]) if r != prev]
            if len(adj[here]) != 2 or not nxt:
                return HalfIntegralReport(False, (), (), ())
            prev, here = here, nxt[0]
            if here == start:
                break
            if here in seen:
                return HalfIntegralReport(False, (), (), ())
            seen.add(here)
            cycle.append(here)
        if len(cycle) % 2 == 0:
            return HalfIntegralReport(False, (), (), ())
        cycles.append(tuple(cycle))
    return HalfIntegralReport(True, tuple(ones), tuple(halves), tuple(cycles))


class DecompositionError(Exception):
    """The vector is not a feasible fractional matching of the game."""


def _max_matching_covering(
    support: list[Edge], tight: frozenset[str]
) -> list[Edge] | None:
    """Largest matching inside ``support`` covering all of ``tight``.

    Ties break toward the lexicographically earliest edge-index set.
    Exhaustive; support sizes here are desk scale.
    """
    best: tuple[int, tuple[int, ...]] | None = None

    def rec(t: int, chosen: list[int], used: set[str]) -> None:
        nonlocal best
        remaining = len(support) - t
        if best is not None and len(chosen) + remaining < -best[0]:
            return
        if t == len(support):
            if tight <= used:
                key = (-len(chosen), tuple(chosen))
                if best is None or key < best:
                    best = key
            return
        i, j = support[t]
        if i not in used and j not in used:
            chosen.append(t)
            used.update((i, j))
            rec(t + 1, chosen, used)
            chosen.pop()
            used.difference_update((i, j))
        rec(t + 1, chosen, used)

    try:
        rec(0, [], set())
    finally:
        del rec  # it refers to itself through its cell: break the cycle
    if best is None:
        return None
    return [support[t] for t in best[1]]


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
    mult = {k: m for k, m in x.multiplicities}
    if any(m < 0 for m in mult.values()):
        raise DecompositionError("negative multiplicity")
    load = {q: x.load(q) for q in g.vertices}
    if any(v > 1 for v in load.values()):
        raise DecompositionError("vertex load exceeds one")

    remaining = Fraction(1)
    terms: list[tuple[Fraction, dict[Edge, Fraction]]] = []
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
        terms.append((step, {k: ONE for k in matching}))

    merged: list[tuple[Fraction, dict[Edge, Fraction]]] = []
    for coeff, m in terms:
        for idx, (c0, m0) in enumerate(merged):
            if m0 == m:
                merged[idx] = (c0 + coeff, m0)
                break
        else:
            merged.append((coeff, m))
    return [(c, make_matching_vector(g, m)) for c, m in merged]


def _label(times_used: int, total: int) -> str:
    if times_used == total:
        return ESSENTIAL
    if times_used == 0:
        return SUBPAR
    return VIABLE
