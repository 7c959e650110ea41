"""The plain exhaustive enumerator, kept as an independent test oracle.

This is the enumerator ``matchings.brute_force_optima`` used before it
searched in integers: a depth-first search over every integral
multiplicity vector in ``Fraction`` arithmetic that prunes only by the
suffix bound (the weight of every later edge at its cap), as
``matchings.integer_search`` does over scaled integer weights.  Tests
compare the package's search against it: the same optimum
and the same list of optimal vectors, in the same order; and the
session's count of the optima and its labels against those counted
from this list.
"""

from __future__ import annotations

from fractions import Fraction

from matchcore.games import DEFAULT_BUDGET_CAP, CapExceeded, Edge, GameInstance
from matchcore.matchings import MatchingVector, make_matching_vector

ZERO = Fraction(0)


def plain_optima(
    g: GameInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> tuple[Fraction | None, list[MatchingVector]]:
    """Every maximum-weight integral matching of ``g``, by plain search."""
    budget = sum(g.vertex_upper.values())
    if budget > budget_cap:
        raise CapExceeded(
            f"total multiplicity budget {budget} exceeds cap {budget_cap}"
        )
    keys = g.edge_keys
    weights = {k: g.weight(k) for k in keys}
    caps = {
        k: min(g.edge_upper[k], g.vertex_upper[k[0]], g.vertex_upper[k[1]])
        for k in keys
    }
    floors = {k: g.edge_lower[k] for k in keys}
    if any(floors[k] > caps[k] for k in keys):
        return None, []

    # Largest additional weight obtainable from edges k.. onward.
    suffix = [ZERO] * (len(keys) + 1)
    for t in range(len(keys) - 1, -1, -1):
        suffix[t] = suffix[t + 1] + weights[keys[t]] * caps[keys[t]]

    best: Fraction | None = None
    optima: list[dict[Edge, int]] = []
    load = {q: 0 for q in g.vertices}
    current: dict[Edge, int] = {}
    lower = g.vertex_lower

    def leaf_ok() -> bool:
        return all(load[q] >= lower[q] for q in g.vertices)

    def visit(t: int, weight: Fraction) -> None:
        nonlocal best
        if best is not None and weight + suffix[t] < best:
            return
        if t == len(keys):
            if not leaf_ok():
                return
            if best is None or weight > best:
                best = weight
                optima.clear()
            if weight == best:
                optima.append(dict(current))
            return
        k = keys[t]
        i, j = k
        top = min(
            caps[k],
            g.vertex_upper[i] - load[i],
            g.vertex_upper[j] - load[j],
        )
        if floors[k] > top:
            return
        for m in range(floors[k], top + 1):
            if m:
                current[k] = m
                load[i] += m
                load[j] += m
            visit(t + 1, weight + weights[k] * m)
            if m:
                del current[k]
                load[i] -= m
                load[j] -= m

    try:
        visit(0, ZERO)
    finally:
        del visit
    if best is None:
        return None, []
    vectors = [
        make_matching_vector(g, {k: Fraction(m) for k, m in opt.items()})
        for opt in optima
    ]
    return best, vectors


def plain_labels(
    g: GameInstance, listed: list[MatchingVector]
) -> tuple[dict[str, str], dict[Edge, str]]:
    """Labels counted from ``listed``, the optima of :func:`plain_optima`."""
    optima = [dict(m.multiplicities) for m in listed]

    def label(used):
        return "essential" if used == len(optima) else "viable" if used else "subpar"

    vlabels = {
        q: label(sum(1 for m in optima if any(q in k for k in m))) for q in g.vertices
    }
    elabels = {k: label(sum(1 for m in optima if k in m)) for k in g.edge_keys}
    return vlabels, elabels
