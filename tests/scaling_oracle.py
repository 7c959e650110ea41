"""Closed-form dual image of the b-variants that price no edges.

In b-uniform and b-unconstrained games the dual prices only the vertex
caps, and a dual-derived imputation is profit_q = b_q * y_q.  That map is
a bijection, so an imputation is in the dual image exactly when dividing
it by the caps gives an optimal dual.  This inverse is independent of
the one-LP membership test ``matchcore.bmatching.in_dual_image`` and
serves as its oracle.
"""

from __future__ import annotations

from fractions import Fraction

from matchcore.analysis import Imputation, worth
from matchcore.gamelp import dual_is_optimal
from matchcore.games import GameInstance


def scaled_dual(g: GameInstance, imp: Imputation) -> dict[str, Fraction]:
    """The only dual the scaling map can send to ``imp``: divide by the caps."""
    if g.variant not in ("b-uniform", "b-unconstrained"):
        raise ValueError("the closed-form inverse needs a game that prices no edges")
    return {f"y[{q}]": imp[q] / g.vertex_upper[q] for q in g.vertices}


def in_scaled_image(g: GameInstance, imp: Imputation) -> bool:
    """Dual-image membership by the closed-form inverse."""
    return dual_is_optimal(g, scaled_dual(g, imp), worth(g))
