"""The dual-image LP written out by hand, as the reference for the one
built from ``build_dual_lp``.

This is the formulation ``matchcore.bmatching.in_dual_image`` used before
it read its rows from the dual LP: its own column names (the split parts
``capL``/``capR`` and ``floL``/``floR``), its own cover rows, an explicit
"objective == worth" row and one profit row per vertex.  Both must give
the same verdict on every (game, imputation) pair.
"""

from __future__ import annotations

from fractions import Fraction

from matchcore.analysis import GameAnalysis, Imputation
from matchcore.gamelp import edge_name, priced
from matchcore.simplex import LinearProgram, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


def _feasibility(
    names: list[str],
    rows: list[tuple[dict[str, Fraction], str, Fraction]],
) -> bool:
    """Is the nonnegative system feasible?  Decided by one exact solve."""
    index = {n: t for t, n in enumerate(names)}
    constraints = []
    for coeffs, rel, rhs in rows:
        vec = [ZERO] * len(names)
        for n, cval in coeffs.items():
            vec[index[n]] += cval
        constraints.append((tuple(vec), rel, rhs))
    lp = LinearProgram(
        variables=tuple(names),
        objective=(ZERO,) * len(names),
        maximize=False,
        constraints=tuple(constraints),
        nonnegative=(True,) * len(names),
    )
    return solve_lp(lp).status == "optimal"


def reference_in_dual_image(a: GameAnalysis, imp: Imputation) -> bool:
    """Does any optimal dual of ``a.g`` plus an admissible split reproduce ``imp``?"""
    g = a.g
    w = a.worth
    if sum(imp.values(), start=ZERO) != w:
        return False
    floors, edge_caps = priced(g)
    names = [f"y[{q}]" for q in g.vertices]
    if floors:
        names += [f"y_lo[{q}]" for q in g.vertices]
    rows: list[tuple[dict[str, Fraction], str, Fraction]] = []
    obj: dict[str, Fraction] = {}
    profit: dict[str, dict[str, Fraction]] = {}
    for q in g.vertices:
        profit[q] = {f"y[{q}]": Fraction(g.vertex_upper[q])}
        if floors:
            profit[q][f"y_lo[{q}]"] = Fraction(-g.vertex_lower[q])
        obj.update(profit[q])
    for (i, j, wt), k in zip(g.edges, g.edge_keys):
        e = edge_name(k)
        cover = {f"y[{i}]": ONE, f"y[{j}]": ONE}
        if edge_caps:
            names += [f"capL[{e}]", f"capR[{e}]"]
            cover.update({f"capL[{e}]": ONE, f"capR[{e}]": ONE})
            d = Fraction(g.edge_upper[k])
            profit[i][f"capL[{e}]"] = profit[j][f"capR[{e}]"] = d
            obj[f"capL[{e}]"] = obj[f"capR[{e}]"] = d
        if floors:
            names += [f"floL[{e}]", f"floR[{e}]"]
            cover.update({f"y_lo[{i}]": -ONE, f"y_lo[{j}]": -ONE})
            cover.update({f"floL[{e}]": -ONE, f"floR[{e}]": -ONE})
            c = Fraction(-g.edge_lower[k])
            profit[i][f"floL[{e}]"] = profit[j][f"floR[{e}]"] = c
            obj[f"floL[{e}]"] = obj[f"floR[{e}]"] = c
        rows.append((cover, ">=", wt))
    rows.append((obj, "==", w))
    rows += [(profit[q], "==", imp[q]) for q in g.vertices]
    return _feasibility(names, rows)
