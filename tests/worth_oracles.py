"""Worths from outside the package (networkx and scipy), and from the
package's own listing search run on one coalition at a time.

Weights are scaled to integers by the lcm of their denominators, so
both libraries compare exact integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment

from matchcore.games import GameInstance
from matchcore.matchings import IntegerGame, integer_search


def scaled(g: GameInstance) -> tuple[int, dict[tuple[str, str], int]]:
    scale = lcm(*[w.denominator for _, _, w in g.edges])
    return scale, {(i, j): int(w * scale) for i, j, w in g.edges}


def networkx_worth(g: GameInstance) -> Fraction:
    """Maximum-weight matching of a single-use game by networkx."""
    scale, weights = scaled(g)
    graph = nx.Graph()
    graph.add_weighted_edges_from([(i, j, w) for (i, j), w in weights.items()])
    matching = nx.max_weight_matching(graph)
    total = sum(weights.get((i, j), weights.get((j, i), 0)) for i, j in matching)
    return Fraction(total, scale)


def scipy_worth(g: GameInstance) -> Fraction:
    """Worth of an assignment game by scipy's linear_sum_assignment."""
    if not g.edges:
        return Fraction(0)
    scale, weights = scaled(g)
    matrix = np.zeros((len(g.left), len(g.right)), dtype=np.int64)
    for (i, j), w in weights.items():
        matrix[g.left.index(i), g.right.index(j)] = w
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return Fraction(int(matrix[rows, cols].sum()), scale)


def restrict(ig: IntegerGame, mask: int) -> IntegerGame:
    """The subgame induced by the vertices whose bits are set in ``mask``.

    Vertex positions stay those of ``ig``; a vertex outside ``mask``
    keeps no edge and gets cap and floor 0.
    """
    chosen = [
        t for t, (i, j) in enumerate(ig.ends) if mask >> i & 1 and mask >> j & 1
    ]
    return IntegerGame(
        [ig.ends[t] for t in chosen],
        [ig.weights[t] for t in chosen],
        [ig.caps[t] for t in chosen],
        [ig.floors[t] for t in chosen],
        [u if mask >> p & 1 else 0 for p, u in enumerate(ig.upper)],
        [f if mask >> p & 1 else 0 for p, f in enumerate(ig.lower)],
        ig.scale,
    )


def searched_worth(ig: IntegerGame, mask: int) -> int | None:
    """Scaled worth of the coalition ``mask`` by the listing search of its
    own subgame; None where its floors admit no matching."""
    return integer_search(restrict(ig, mask), [])
