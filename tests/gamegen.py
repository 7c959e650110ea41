"""Seeded random instances, and the imputations tests probe them with.

Weights are small rationals (numerators 1..9, denominators 1, 2 or 5)
so every quantity downstream stays exactly representable and tiny.
A dual is a dict from the dual LP's column names (``y[q]``, ``y_lo[q]``,
``z[i~j]``, ``z_lo[i~j]``) to prices; :func:`named_dual` writes one.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from random import Random

from matchcore.analysis import GameAnalysis, worth
from matchcore.bmatching import (
    SPLIT_SHARES,
    ProfitSignError,
    imputation_from_dual,
    sample_core_imputations,
    system_lp,
)
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamelp import edge_name, solve_dual
from matchcore.games import GameInstance, make_game
from matchcore.simplex import solve_lp

WEIGHT_DENOMS = (1, 2, 5)


def rand_weight(rng: Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice(WEIGHT_DENOMS))


def named_dual(y=None, y_lo=None, z=None, z_lo=None) -> dict[str, Fraction]:
    """A dual by column name, from prices by vertex (``y``, ``y_lo``) and
    by edge (``z``, ``z_lo``)."""
    dual = {}
    for family, prices in (("y", y), ("y_lo", y_lo), ("z", z), ("z_lo", z_lo)):
        for key, price in (prices or {}).items():
            at = key if isinstance(key, str) else edge_name(key)
            dual[f"{family}[{at}]"] = Fraction(price)
    return dual


def vertex_prices(g: GameInstance, y: dict[str, Fraction]) -> dict[str, Fraction]:
    """The vertex cap prices ``y[q]`` of the dual ``y``, by vertex."""
    return {q: y.get(f"y[{q}]", Fraction(0)) for q in g.vertices}


def random_assignment(rng: Random, max_side: int = 4, density: float = 0.6) -> GameInstance:
    nl, nr = rng.randint(1, max_side), rng.randint(1, max_side)
    left = tuple(f"u{i + 1}" for i in range(nl))
    right = tuple(f"v{j + 1}" for j in range(nr))
    edges = [
        (i, j, rand_weight(rng))
        for i in left
        for j in right
        if rng.random() < density
    ]
    return make_game("assignment", left, right, edges)


def random_general(rng: Random, max_n: int = 7, density: float = 0.45) -> GameInstance:
    n = rng.randint(2, max_n)
    vs = tuple(f"v{i + 1}" for i in range(n))
    edges = [
        (vs[i], vs[j], rand_weight(rng))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return make_game("general-matching", [], vs, edges)


def random_b_game(
    rng: Random,
    variant: str,
    max_side: int = 3,
    max_b: int = 3,
    with_floors: bool = False,
) -> GameInstance:
    """Random bipartite b-variant instance.

    For the general variant, edge caps are drawn in [1, min(b_i, b_j)].
    Floors stay at zero unless ``with_floors`` (profit nonnegativity of
    dual-derived imputations is only guaranteed without vertex floors).
    """
    nl, nr = rng.randint(1, max_side), rng.randint(1, max_side)
    left = tuple(f"u{i + 1}" for i in range(nl))
    right = tuple(f"v{j + 1}" for j in range(nr))
    edges = [
        (i, j, rand_weight(rng)) for i in left for j in right if rng.random() < 0.6
    ]
    if variant == "b-uniform":
        b: dict[str, int] | int = rng.randint(1, max_b)
        bmap = {q: b for q in left + right}
    else:
        bmap = {q: rng.randint(1, max_b) for q in left + right}
        b = bmap
    edge_upper = None
    edge_lower = None
    if variant == "b-general":
        keys = [(i, j) for i, j, _ in edges]
        edge_upper = {
            k: rng.randint(1, min(bmap[k[0]], bmap[k[1]])) for k in keys
        }
        edge_lower = {k: 0 for k in keys}
        if with_floors:
            for k in keys:
                if rng.random() < 0.3:
                    edge_lower[k] = rng.randint(0, edge_upper[k])
    return make_game(
        variant,
        left,
        right,
        edges,
        vertex_upper=b,
        edge_upper=edge_upper,
        edge_lower=edge_lower,
    )


def payment_games():
    """Bundled payment games plus seeded assignment and concurrent general games."""
    games = [load_instance(n) for n in INSTANCE_NAMES]
    games = [g for g in games if g.variant in ("assignment", "general-matching")]
    rng = Random(20)
    assignment = general = 0
    while assignment < 35:
        g = random_assignment(rng, max_side=4, density=0.7)
        if g.edges:
            games.append(g)
            assignment += 1
    while general < 35:
        g = random_general(rng, max_n=7, density=0.5)
        if g.edges and GameAnalysis(g).concurrent:
            games.append(g)
            general += 1
    return games


def tied_payment_games():
    """The games of :func:`payment_games` with every weight redrawn from
    {0, 1, 2, 3}: optima tie often, so viable vertices and edges occur."""
    rng = Random(3)
    return [
        make_game(
            g.variant, g.left, g.right, [(i, j, rng.randint(0, 3)) for i, j, _ in g.edges]
        )
        for g in payment_games()
    ]


def with_vertex_floors(rng: Random, g: GameInstance) -> GameInstance:
    """``g`` (b-general) with random vertex floors, often beyond reach."""
    lower = {q: rng.randint(0, g.vertex_upper[q]) if rng.random() < 0.4 else 0
             for q in g.vertices}
    return replace(g, vertex_lower=lower)


def dual_imputation(g: GameInstance) -> dict[str, Fraction]:
    """The vertex prices of the optimal dual for single-use games, the
    half split of the optimal dual for b-variants."""
    _, y = solve_dual(g)
    if g.variant in ("assignment", "general-matching"):
        return vertex_prices(g, y)
    return imputation_from_dual(GameAnalysis(g), y, Fraction(1, 2))


def shifted_imputation(g: GameInstance, imp: dict[str, Fraction]) -> dict[str, Fraction]:
    """``imp`` with one vertex k paid more than its marginal worth
    v(N) - v(N - k), taken from the others: N - k is short, so the
    result is outside the core whatever else holds.  A vertex whose N - k
    admits no feasible matching imposes nothing and is passed over."""
    total = sum(imp.values(), start=Fraction(0))
    for k in sorted(g.vertices):
        rest = frozenset(g.vertices) - {k}
        rest_worth = worth(g, rest)
        if rest_worth is None:
            continue
        short = total - rest_worth - imp[k] + Fraction(1, 7)
        out = dict(imp)
        out[k] += short
        need = short
        for q in sorted(rest, key=lambda q: (-out[q], q)):
            take = min(out[q], need)
            out[q] -= take
            need -= take
        if need == 0:
            return out
    raise AssertionError("no vertex admits a shift out of the core")


def probes(a: GameAnalysis) -> list[dict[str, Fraction]]:
    """Dual-derived and sampled core points, each also shifted out of the
    core and pair-perturbed; then two random points, seeded by the game's
    size, that pay out the worth, their entries often negative, each also
    with a wrong total."""
    g = a.g
    _, y = a.dual
    base = []
    for share in SPLIT_SHARES.values():
        try:
            base.append(imputation_from_dual(a, y, share))
        except ProfitSignError:
            pass
        except ValueError:  # an empty core: the prices do not pay out v(N)
            base.append(vertex_prices(g, y))
            break
    if solve_lp(system_lp(a.system, {})).status == "optimal":
        base += sample_core_imputations(a.system, seed=len(g.vertices), count=3)
    out = []
    for imp in base:
        out.append(imp)
        try:
            out.append(shifted_imputation(g, imp))
        except AssertionError:  # the others cannot fund any vertex's shift
            pass
        qs = sorted(g.vertices)
        moved = dict(imp)
        moved[qs[0]] += Fraction(1, 3)
        moved[qs[-1]] -= Fraction(1, 3)
        out.append(moved)
    rng = Random(len(g.vertices) + len(g.edges))
    qs = sorted(g.vertices)
    for _ in range(2):
        loose = {q: Fraction(rng.randint(-3, 9), rng.choice(WEIGHT_DENOMS)) for q in qs}
        loose[qs[0]] = a.worth - sum([loose[q] for q in qs[1:]], Fraction(0))
        wrong = dict(loose)
        wrong[qs[-1]] += Fraction(1, 2)
        out += [loose, wrong]
    return out
