"""Exhaustive oracle of the connected-set enumerator.

Visits every one of the 2^n nonempty vertex subsets of a game and keeps
those that a flood fill from their lowest member covers, then sorts
them as tuples of sorted ids.  It costs 2^n flood fills whatever the
graph, so it serves only as the reference that the output-sensitive
``games._connected_masks`` is checked against.
"""

from __future__ import annotations

from matchcore.games import GameInstance


def flood_fill_coalitions(g: GameInstance) -> list[tuple[str, ...]]:
    """Every connected vertex set of ``g`` as a tuple of sorted ids, in
    lexicographic order."""
    n = len(g.vertices)
    ids = sorted(g.vertices)
    adj = g.adjacency()
    # Neighbours as bitmasks over the sorted ids; flood from the lowest bit.
    nbr = [sum([1 << ids.index(r) for r in adj[q]]) for q in ids]
    found: list[tuple[str, ...]] = []
    for mask in range(1, 1 << n):
        seen = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            grow = nbr[low.bit_length() - 1] & mask & ~seen
            seen |= grow
            frontier = (frontier ^ low) | grow
        if seen == mask:
            found.append(tuple([q for p, q in enumerate(ids) if mask >> p & 1]))
    found.sort()
    return found


def as_mask(g: GameInstance, members) -> int:
    """The mask of a vertex set in the enumerator's convention: the p-th
    smallest of the n ids is bit n - 1 - p."""
    ids = sorted(g.vertices)
    n = len(ids)
    return sum([1 << n - 1 - ids.index(q) for q in members])
