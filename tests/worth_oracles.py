"""Worths from outside the package: networkx and scipy.

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
