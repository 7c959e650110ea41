"""The map from duals to profits written out per price family, as the
reference for the one that reads ``matchcore.gamelp.dual_columns``.

This is the formulation ``matchcore.bmatching.imputation_from_dual`` used
before the price families were declared once: a dual, keyed by the
column names ``matchcore.gamelp`` documents (``y[q]``, ``y_lo[q]``,
``z[i~j]``, ``z_lo[i~j]``), is read into one dict of prices per family
(:func:`read_prices`); a split is four dicts of split parts (left and
right, for the cap and the floor prices of each edge), and optimality is
the cover rows, the signs and the objective written family by family
over ``Fraction``s.  Both must give the same profits, the same
``ProfitSignError`` and the same rejections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from matchcore.analysis import GameAnalysis, Imputation
from matchcore.bmatching import ProfitSignError
from matchcore.gamelp import edge_name
from matchcore.games import Edge, GameInstance

ZERO = Fraction(0)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Prices:
    """A dual's prices by family; a family the variant does not price is empty."""

    vertex_upper: dict[str, Fraction]
    vertex_lower: dict[str, Fraction]
    edge_upper: dict[Edge, Fraction]
    edge_lower: dict[Edge, Fraction]


def read_prices(g: GameInstance, y: dict[str, Fraction]) -> Prices:
    """The prices of ``y`` at the column names of the dual of ``g``, a name
    ``y`` leaves out priced 0.  Only b-general prices floors, and only
    b-constrained and b-general price edge caps.  A key of ``y`` that is
    not such a name is a ``ValueError``."""
    floors = g.variant == "b-general"
    edge_caps = g.variant in ("b-constrained", "b-general")
    read = set()

    def family(prefix, keys, priced):
        if not priced:
            return {}
        names = {k: f"{prefix}[{k if isinstance(k, str) else edge_name(k)}]" for k in keys}
        read.update(names.values())
        return {k: y.get(n, ZERO) for k, n in names.items()}

    prices = Prices(
        family("y", g.vertices, True),
        family("y_lo", g.vertices, floors),
        family("z", g.edge_keys, edge_caps),
        family("z_lo", g.edge_keys, floors),
    )
    if set(y) - read:
        raise ValueError("dual solution is not optimal for this game")
    return prices


@dataclass(frozen=True)
class SplitScheme:
    """Division of each priced edge's dual value between its endpoints.

    ``cap_left[e] + cap_right[e]`` must equal the edge-cap dual of e,
    and likewise for the floor duals of the general variant.
    """

    cap_left: dict[Edge, Fraction] = field(default_factory=dict)
    cap_right: dict[Edge, Fraction] = field(default_factory=dict)
    floor_left: dict[Edge, Fraction] = field(default_factory=dict)
    floor_right: dict[Edge, Fraction] = field(default_factory=dict)


def split_all_left(y: Prices) -> SplitScheme:
    return SplitScheme(
        cap_left=dict(y.edge_upper),
        cap_right={k: ZERO for k in y.edge_upper},
        floor_left=dict(y.edge_lower),
        floor_right={k: ZERO for k in y.edge_lower},
    )


def split_all_right(y: Prices) -> SplitScheme:
    return SplitScheme(
        cap_left={k: ZERO for k in y.edge_upper},
        cap_right=dict(y.edge_upper),
        floor_left={k: ZERO for k in y.edge_lower},
        floor_right=dict(y.edge_lower),
    )


def split_half(y: Prices) -> SplitScheme:
    return SplitScheme(
        cap_left={k: v * HALF for k, v in y.edge_upper.items()},
        cap_right={k: v * HALF for k, v in y.edge_upper.items()},
        floor_left={k: v * HALF for k, v in y.edge_lower.items()},
        floor_right={k: v * HALF for k, v in y.edge_lower.items()},
    )


# The share of each edge price paid to the left end, and its split.
SPLITS = ((Fraction(1), split_all_left), (ZERO, split_all_right), (HALF, split_half))


def dual_cover_slack(g: GameInstance, y: Prices, key: Edge) -> Fraction:
    """Left-hand side minus weight of the covering row for one edge; a
    price family ``y`` leaves empty contributes nothing."""
    i, j = key
    lhs = y.vertex_upper[i] + y.vertex_upper[j]
    if y.vertex_lower:
        lhs -= y.vertex_lower.get(i, ZERO) + y.vertex_lower.get(j, ZERO)
    if y.edge_upper:
        lhs += y.edge_upper.get(key, ZERO)
    if y.edge_lower:
        lhs -= y.edge_lower.get(key, ZERO)
    return lhs - g.weight(key)


def dual_is_feasible(g: GameInstance, y: Prices) -> bool:
    entries = (
        list(y.vertex_upper.values())
        + list(y.vertex_lower.values())
        + list(y.edge_upper.values())
        + list(y.edge_lower.values())
    )
    if any(e < 0 for e in entries):
        return False
    return all(dual_cover_slack(g, y, k) >= 0 for k in g.edge_keys)


def dual_objective(g: GameInstance, y: Prices) -> Fraction:
    """Every price times its bound, floor credits negated."""
    total = ZERO
    for bounds, prices, sign in (
        (g.vertex_upper, y.vertex_upper, 1),
        (g.vertex_lower, y.vertex_lower, -1),
        (g.edge_upper, y.edge_upper, 1),
        (g.edge_lower, y.edge_lower, -1),
    ):
        for key, price in prices.items():
            total += sign * bounds[key] * price
    return total


def dual_is_optimal(g: GameInstance, y: Prices, optimum: Fraction) -> bool:
    return dual_is_feasible(g, y) and dual_objective(g, y) == optimum


def _check_split(y: Prices, s: SplitScheme) -> None:
    for prices, left, right in (
        (y.edge_upper, s.cap_left, s.cap_right),
        (y.edge_lower, s.floor_left, s.floor_right),
    ):
        for k, z in prices.items():
            if left.get(k, ZERO) < 0 or right.get(k, ZERO) < 0:
                raise ValueError(f"negative split part on {edge_name(k)}")
            if left.get(k, ZERO) + right.get(k, ZERO) != z:
                raise ValueError(f"split does not add up on {edge_name(k)}")


def reference_imputation(
    a: GameAnalysis, dual: dict[str, Fraction], split: SplitScheme = SplitScheme()
) -> Imputation:
    """profit_i = (b_i * cap_price_i - a_i * floor_price_i)
                + sum over incident edges of (d_e * own cap part
                                              - c_e * own floor part)."""
    g = a.g
    y = read_prices(g, dual)
    if not dual_is_optimal(g, y, a.worth):
        raise ValueError("dual solution is not optimal for this game")
    _check_split(y, split)
    imp: Imputation = {q: g.vertex_upper[q] * y.vertex_upper[q] for q in g.vertices}
    for q, p in y.vertex_lower.items():
        imp[q] -= g.vertex_lower[q] * p
    for k in y.edge_upper:
        d = g.edge_upper[k]
        imp[k[0]] += d * split.cap_left.get(k, ZERO)
        imp[k[1]] += d * split.cap_right.get(k, ZERO)
    for k in y.edge_lower:
        c = g.edge_lower[k]
        imp[k[0]] -= c * split.floor_left.get(k, ZERO)
        imp[k[1]] -= c * split.floor_right.get(k, ZERO)
    negative = sorted(q for q, v in imp.items() if v < 0)
    if negative:
        raise ProfitSignError(
            f"dual-derived profits are negative at {', '.join(negative)}"
        )
    return imp
