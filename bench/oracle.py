"""Independent answers for the benchmark's output checks.

Nothing here imports the package under test.  Every weight the
generators draw has one decimal place, so the oracles work on weights
scaled by ten to integers and convert back to exact fractions:

* assignment worths come from ``scipy.optimize.linear_sum_assignment``;
* general-graph worths from ``networkx.max_weight_matching``;
* b-variant worths, fractional optima and optimal duals from
  ``scipy.optimize.linprog``.  Those programs have totally unimodular
  (or, for the fractional general-graph optimum, half-integral) vertex
  sets, so a simplex vertex rounds to an exact answer, which is then
  verified in integer arithmetic before it is trusted.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from gen import Game

SCALE = 10


class OracleError(Exception):
    """An oracle answer failed its own exact verification."""


def scaled(w: Fraction) -> int:
    v = w * SCALE
    if v.denominator != 1:
        raise OracleError(f"weight {w} has more than one decimal place")
    return v.numerator


def _edges_within(g: Game, members: frozenset[str] | None):
    if members is None:
        return list(g.edges)
    return [(i, j, w) for i, j, w in g.edges if i in members and j in members]


def assignment_worth(g: Game, members: frozenset[str] | None = None) -> Fraction:
    edges = _edges_within(g, members)
    if not edges:
        return Fraction(0)
    left = sorted({i for i, _, _ in edges})
    right = sorted({j for _, j, _ in edges})
    li = {q: t for t, q in enumerate(left)}
    ri = {q: t for t, q in enumerate(right)}
    m = np.zeros((len(left), len(right)), dtype=np.int64)
    for i, j, w in edges:
        m[li[i], ri[j]] = scaled(w)
    rows, cols = linear_sum_assignment(m, maximize=True)
    return Fraction(int(m[rows, cols].sum()), SCALE)


def general_worth(g: Game, members: frozenset[str] | None = None) -> Fraction:
    graph = nx.Graph()
    for i, j, w in _edges_within(g, members):
        graph.add_edge(i, j, weight=scaled(w))
    matching = nx.max_weight_matching(graph)
    return Fraction(sum(graph[i][j]["weight"] for i, j in matching), SCALE)


def _solve(c, a_ub, b_ub, bounds, what: str):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs-ds")
    if res.status != 0:
        raise OracleError(f"{what}: linprog status {res.status}")
    return res.x


def _round_vector(x, denom: int, what: str) -> list[int]:
    out = []
    for v in x:
        r = round(v * denom)
        if abs(v * denom - r) > 1e-6:
            raise OracleError(f"{what}: vertex is not a multiple of 1/{denom}")
        out.append(int(r))
    return out


def b_worth(g: Game, members: frozenset[str] | None = None) -> Fraction:
    """Worth of a bipartite b-variant (or of a coalition) from its LP.

    The vertex-capacity LP of a bipartite graph is integral, so the
    simplex vertex is an optimal integral b-matching.
    """
    edges = _edges_within(g, members)
    if not edges:
        return Fraction(0)
    vs = sorted({q for i, j, _ in edges for q in (i, j)})
    vi = {q: t for t, q in enumerate(vs)}
    a = np.zeros((len(vs), len(edges)))
    for t, (i, j, _) in enumerate(edges):
        a[vi[i], t] = 1
        a[vi[j], t] = 1
    b = [g.cap(q) for q in vs]
    bounds = [(0, g.edge_upper(i, j)) for i, j, _ in edges]
    w = [scaled(wt) for _, _, wt in edges]
    x = _round_vector(_solve([-v for v in w], a, b, bounds, "b-worth"), 1, "b-worth")
    for q in vs:
        if sum(m for m, (i, j, _) in zip(x, edges) if q in (i, j)) > g.cap(q):
            raise OracleError("b-worth: rounded matching breaks a vertex cap")
    for m, (lo, hi) in zip(x, bounds):
        if not lo <= m <= hi:
            raise OracleError("b-worth: rounded matching breaks an edge bound")
    return Fraction(sum(m * v for m, v in zip(x, w)), SCALE)


def worth(g: Game, members: frozenset[str] | None = None) -> Fraction:
    if g.variant == "assignment":
        return assignment_worth(g, members)
    if g.variant == "general-matching":
        return general_worth(g, members)
    return b_worth(g, members)


def fractional_worth(g: Game) -> Fraction:
    """Optimum of the fractional matching LP (degree rows only).

    Bipartite: equal to the integral worth.  General graphs: the vertices
    are half-integral, so twice the simplex vertex rounds exactly.
    """
    if g.variant != "general-matching":
        return worth(g)
    if not g.edges:
        return Fraction(0)
    vi = {q: t for t, q in enumerate(g.vertices)}
    a = np.zeros((len(vi), len(g.edges)))
    for t, (i, j, _) in enumerate(g.edges):
        a[vi[i], t] = 1
        a[vi[j], t] = 1
    w = [scaled(wt) for _, _, wt in g.edges]
    res = _solve([-v for v in w], a, [1] * len(vi), [(0, 1)] * len(w), "fractional")
    x2 = _round_vector(res, 2, "fractional")
    for q, t in vi.items():
        if sum(m for m, (i, j, _) in zip(x2, g.edges) if q in (i, j)) > 2:
            raise OracleError("fractional: rounded vertex breaks a degree row")
    return Fraction(sum(m * v for m, v in zip(x2, w)), 2 * SCALE)


def dual_imputation(g: Game, total: Fraction) -> dict[str, Fraction]:
    """A core imputation read off an optimal dual of a bipartite game.

    Solves the covering dual (vertex prices y, plus edge prices z where
    edges carry their own caps), verifies exact feasibility and that the
    dual objective equals ``total``, then applies the variant's map:
    profit b_q * y_q, plus half of d_e * z_e to each endpoint of e.
    """
    if g.variant == "general-matching":
        raise OracleError("dual imputations are read off bipartite games only")
    vs = g.vertices
    vi = {q: t for t, q in enumerate(vs)}
    priced = g.variant in ("b-constrained", "b-general")
    ne = len(g.edges) if priced else 0
    n = len(vs) + ne
    cost = [g.cap(q) for q in vs] + [g.edge_upper(i, j) for i, j, _ in g.edges][:ne]
    a = np.zeros((len(g.edges), n))
    w = []
    for t, (i, j, wt) in enumerate(g.edges):
        a[t, vi[i]] = -1
        a[t, vi[j]] = -1
        if priced:
            a[t, len(vs) + t] = -1
        w.append(scaled(wt))
    x = _round_vector(
        _solve(cost, a, [-v for v in w], [(0, None)] * n, "dual"), 1, "dual"
    )
    y, z = x[: len(vs)], x[len(vs):]
    for t, (i, j, _) in enumerate(g.edges):
        if y[vi[i]] + y[vi[j]] + (z[t] if priced else 0) < w[t]:
            raise OracleError("dual: rounded prices leave an edge uncovered")
    if Fraction(sum(c * v for c, v in zip(cost, x)), SCALE) != total:
        raise OracleError("dual: objective differs from the worth")
    imp = {q: Fraction(g.cap(q) * y[vi[q]], SCALE) for q in vs}
    for t, (i, j, _) in enumerate(g.edges[:ne]):
        share = Fraction(g.edge_upper(i, j) * z[t], 2 * SCALE)
        imp[i] += share
        imp[j] += share
    return imp


def is_connected(g: Game) -> bool:
    graph = nx.Graph()
    graph.add_nodes_from(g.vertices)
    graph.add_edges_from((i, j) for i, j, _ in g.edges)
    return nx.is_connected(graph)


def connected_count(g: Game) -> int:
    """Number of nonempty vertex sets whose induced subgraph is connected."""
    vs = g.vertices
    bit = {q: 1 << t for t, q in enumerate(vs)}
    nbr = [0] * len(vs)
    for i, j, _ in g.edges:
        nbr[vs.index(i)] |= bit[j]
        nbr[vs.index(j)] |= bit[i]
    count = 0
    for s in range(1, 1 << len(vs)):
        low = s & -s
        seen, frontier = low, low
        while frontier:
            t = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = nbr[t] & s & ~seen
            seen |= new
            frontier |= new
        count += seen == s
    return count
