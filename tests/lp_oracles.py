"""LP oracles of the session's fractional optimum and of its dual.

No command solves the primal LP: a session reads the fractional optimum
as the worth on a bipartite variant and from the certified double cover
on a general game, and certifies the dual with
``gamelp.dual_numerators``.  The tests compare those answers with the
routes kept here:

* :func:`build_primal_lp`, the maximum-weight fractional matching LP,
  one row per column of ``gamelp.dual_columns`` (its digests are pinned
  by ``test_lp_digests.py``);
* :func:`fractional_optimum`, a cold solve of that LP, which asserts the
  vertex structure of its answer;
* :func:`dual_is_optimal`, the yes/no of ``dual_numerators``.
"""

from __future__ import annotations

from fractions import Fraction

from matchcore.gamelp import dual_columns, dual_numerators, edge_name, priced
from matchcore.games import GameInstance, InfeasibleGameError, SolverInvariantError
from matchcore.matchings import MatchingVector, check_half_integral, make_matching_vector
from matchcore.simplex import LinearProgram, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


def build_primal_lp(g: GameInstance) -> LinearProgram:
    """Maximum-weight (fractional) matching LP for the variant of ``g``.

    One row per column of ``dual_columns``, the primal's matrix being the
    dual's transposed: a cap gives a ``<=`` row, a floor a ``>=`` row
    suffixed ``:lo``.  The vertices' rows come first, then the edges';
    each owner's floor row precedes its cap row, and a cap row carries
    the suffix ``:hi`` where the game has floors.
    """
    floors, _ = priced(g)
    keys = g.edge_keys
    at = [((i,), (j,), (i, j)) for i, j, _ in g.edges]
    order = {o: p for p, o in enumerate([*[(q,) for q in g.vertices], *keys])}
    rows = []
    for c in sorted(dual_columns(g), key=lambda c: (order[c.owners], c.sign)):
        coeffs = tuple([ONE if c.owners in ends else ZERO for ends in at])
        owner = c.owners[0] if len(c.owners) == 1 else edge_name(c.owners)
        suffix = ":lo" if c.sign < 0 else ":hi" if floors else ""
        rel = ">=" if c.sign < 0 else "<="
        rows.append((coeffs, rel, Fraction(c.bound), owner + suffix))
    return LinearProgram(
        variables=tuple([f"x[{edge_name(k)}]" for k in keys]),
        objective=tuple([w for _, _, w in g.edges]),
        maximize=True,
        constraints=tuple([(c, r, b) for c, r, b, _ in rows]),
        nonnegative=(True,) * len(keys),
        row_labels=tuple([lbl for _, _, _, lbl in rows]),
    )


def fractional_optimum(g: GameInstance) -> MatchingVector:
    """Exact vertex-optimal fractional matching from the primal LP.

    Asserts the structural guarantee of the variant's polytope on every
    solve: the vertex is integral on a bipartite variant, and on a general
    graph it passes ``check_half_integral``.
    """
    sol = solve_lp(build_primal_lp(g))
    if sol.status == "infeasible":
        raise InfeasibleGameError("no matching satisfies the bounds")
    if sol.status != "optimal":
        raise SolverInvariantError(f"primal LP came back {sol.status}")
    mult = {k: sol.values[f"x[{edge_name(k)}]"] for k in g.edge_keys}
    vec = make_matching_vector(g, mult)
    if g.variant != "general-matching":
        if any([m.denominator != 1 for _, m in vec.multiplicities]):
            raise SolverInvariantError("bipartite vertex solution is not integral")
    elif not check_half_integral(vec).is_half_integral:
        raise SolverInvariantError("general-graph vertex is not half-integral")
    return vec


def dual_is_optimal(g: GameInstance, y: dict[str, Fraction], optimum: Fraction) -> bool:
    """Is ``y`` an optimal point of the dual LP of ``g`` with value ``optimum``?"""
    return dual_numerators(g, dual_columns(g), y, optimum) is not None
