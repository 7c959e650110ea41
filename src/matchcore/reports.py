"""Deterministic analysis reports.

A report is a header plus ordered sections of pre-formatted lines.  The
text rendering and the JSON document are both pure functions of the
analysis results, with every number in canonical rational form, so two
runs over the same input are byte-identical.

Every section takes the :class:`~matchcore.analysis.GameAnalysis` session
of its game, so a full report computes each fact of the game once, and
reads only its public attributes.  The ``system`` section reads the
session's scan of the connected coalitions in masks and builds each row's
text from its mask, with no frozenset or Fraction per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import PAYMENT_VARIANTS, GameAnalysis, Imputation
from .bmatching import B_VARIANTS, SPLIT_SHARES, imputation_from_dual, in_dual_image
from .games import GameInstance, _members
from .gamelp import edge_name, priced
from .matchings import VIABLE
from .rationals import format_rational as fr


@dataclass
class Report:
    header: list[tuple[str, str]]
    sections: list[tuple[str, list[str]]] = field(default_factory=list)

    def add(self, title: str, lines: list[str]) -> None:
        self.sections.append((title, lines))

    def to_text(self) -> str:
        out = [f"{k}: {v}" for k, v in self.header]
        for title, lines in self.sections:
            out.append("")
            out.append(f"[{title}]")
            out.extend(lines)
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        doc = {
            "header": {k: v for k, v in self.header},
            "sections": [
                {"title": title, "lines": lines} for title, lines in self.sections
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def table(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns with two-space gutters."""
    if not rows:
        return []
    # A list per column, not zip(*rows): its column tuples raised a
    # report battery's peak memory by about 0.45 MB.
    widths = [max([len(r[c]) for r in rows]) for c in range(len(rows[0]))]
    return [
        "  ".join([cell.ljust(w) for cell, w in zip(r, widths)]).rstrip() for r in rows
    ]


def yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def names(items: list[str]) -> str:
    """Space-separated names, or ``(none)``."""
    return " ".join(items) or "(none)"


def report_header(g: GameInstance, cap: int, budget_cap: int) -> Report:
    return Report(
        header=[
            ("game", g.name or "(unnamed)"),
            ("variant", g.variant),
            ("caps", f"coalition-vertices={cap} multiplicity-budget={budget_cap}"),
        ]
    )


def imputation_lines(g: GameInstance, imp: Imputation) -> list[str]:
    rows = [(q, fr(imp[q])) for q in g.vertices]
    rows.append(("total", fr(sum(imp.values(), start=Fraction(0)))))
    return table(rows)


def worth_section(a: GameAnalysis) -> list[str]:
    return [f"grand-coalition = {fr(a.worth)}"]


def concurrency_section(a: GameAnalysis) -> list[str]:
    lines = [
        f"integral-optimum = {fr(a.worth)}",
        f"fractional-optimum = {fr(a.fractional)}",
        f"concurrent = {yes_no(a.concurrent)}",
    ]
    if a.g.variant == "general-matching":
        lines.append(f"core = {'nonempty' if a.concurrent else 'empty'}")
    return lines


def dual_section(a: GameAnalysis) -> list[str]:
    sol, y = a.dual
    rows = []
    for c in a.dual_columns:
        label = c.name
        if len(c.owners) == 1:
            label = c.owners[0] if c.sign > 0 else f"{c.owners[0]}:lo"
        rows.append((label, fr(y[c.name])))
    return table(rows) + [f"objective = {fr(sol.objective_value)}"]


def dual_imputation(a: GameAnalysis, split: str = "half") -> Imputation | None:
    """The dual-derived imputation of the variant, or None for empty core."""
    g = a.g
    if g.variant == "general-matching" and not a.concurrent:
        return None
    _, y = a.dual
    return imputation_from_dual(a, y, SPLIT_SHARES[split])


def imputation_section(a: GameAnalysis, split: str = "half") -> list[str]:
    imp = dual_imputation(a, split)
    if imp is None:
        return ["core = empty"]
    lines = []
    if priced(a.g)[1]:
        lines.append(f"split = {split}")
    return lines + imputation_lines(a.g, imp)


def classify_section(a: GameAnalysis) -> list[str]:
    g = a.g
    vlabels, elabels = a.labels
    rows = [("vertex", "label")] + [(q, vlabels[q]) for q in g.vertices]
    rows += [("edge", "label")] + [(edge_name(k), elabels[k]) for k in g.edge_keys]
    return table(rows) + [
        f"optimal-matchings = {a.optima_count}",
        f"optimum = {fr(a.worth)}",
    ]


def payments_section(a: GameAnalysis) -> list[str]:
    g = a.g
    rep = a.payments
    if rep is None:
        return ["core = empty"]
    rows = [("vertex", "paid-sometimes", "max-profit")]
    for q in g.vertices:
        top = rep.vertices[q]
        rows.append((q, yes_no(top > 0), fr(top)))
    rows.append(("edge", "always-fair", "max-overpay"))
    for k in g.edge_keys:
        over = rep.edges[k]
        rows.append((edge_name(k), yes_no(over == 0), fr(over)))
    return table(rows)


def antipodal_section(a: GameAnalysis) -> list[str]:
    left_best, right_best = a.antipodal
    lines = ["left-optimal:"]
    lines += ["  " + s for s in imputation_lines(a.g, left_best)]
    lines.append("right-optimal:")
    lines += ["  " + s for s in imputation_lines(a.g, right_best)]
    return lines


def degeneracy_section(a: GameAnalysis) -> list[str]:
    """Non-unique optima, with the payment answers of assignment games and
    of general games with a nonempty core."""
    g = a.g
    vlabels, elabels = a.labels
    lines = [
        f"degenerate = {yes_no(a.optima_count > 1)}",
        f"optimal-matchings = {a.optima_count}",
        "viable-vertices = " + names([q for q in g.vertices if vlabels[q] == VIABLE]),
        "viable-edges = "
        + names([edge_name(k) for k in g.edge_keys if elabels[k] == VIABLE]),
    ]
    pay = a.payments if g.variant in PAYMENT_VARIANTS else None
    if pay is not None:
        never = [q for q in g.vertices if pay.vertices[q] == 0]
        fair = [edge_name(k) for k in g.edge_keys if pay.edges[k] == 0]
        lines.append("never-paid-vertices = " + names(never))
        lines.append("always-fair-edges = " + names(fair))
    return lines


def system_section(a: GameAnalysis) -> list[str]:
    """One ``>=`` row per connected proper coalition and the ``==`` row of
    the grand coalition, read from the session's scan in masks: a row's
    names are its lowest id, then the names of the rest of its mask, each
    mask's text built once, and each distinct worth is formatted once."""
    ids, scale = a.ids, a.scale
    texts: dict[int, str] = {0: ""}
    worths: dict[int, str] = {}
    names, rhs, skipped = [], [], []
    for m, w in a.scan():
        if w is None:
            skipped.append(m)
            continue
        names.append(_mask_names(ids, texts, m))
        text = worths.get(w)
        if text is None:
            text = worths[w] = fr(Fraction(w, scale))
        rhs.append(text)
    names.append(_mask_names(ids, texts, (1 << len(ids)) - 1))
    width = max(map(len, names))
    lines = [f"{n.ljust(width)}  >=  {r}" for n, r in zip(names, rhs)]
    lines.append(f"{names[-1].ljust(width)}  ==  {fr(a.worth)}")
    if skipped:
        lines.append(
            "skipped-infeasible = "
            + " ".join(["{" + ",".join(sorted(_members(ids, m))) + "}" for m in skipped])
        )
    return lines


def _mask_names(ids: list[str], texts: dict[int, str], m: int) -> str:
    """The ids of mask ``m`` in ascending order, joined by `` + ``.

    Bit p stands for ``ids[p]``, the ids in descending order, so the
    lowest id is the top bit; ``texts`` keeps every mask's text built.
    """
    got = texts.get(m)
    if got is None:
        top = m.bit_length() - 1
        rest = m ^ 1 << top
        got = ids[top] + " + " + _mask_names(ids, texts, rest) if rest else ids[top]
        texts[m] = got
    return got


def full_report(g: GameInstance, cap: int, budget_cap: int) -> Report:
    """The standard battery for a bundled instance, variant-aware."""
    a = GameAnalysis(g, budget_cap, cap)
    # Every report classifies first: the worth comes with the count, and
    # a game whose floors admit no matching fails as classify does.  The
    # dual comes next, and the report solves one LP, the dual's: the
    # fractional optimum is the worth or the double cover's, which
    # certifies the dual, and the payments come from the core's octagon.
    a.labels
    a.dual
    rep = report_header(g, cap, budget_cap)
    rep.add("worth", worth_section(a))
    rep.add("concurrency", concurrency_section(a))
    rep.add("dual", dual_section(a))
    rep.add("imputation", imputation_section(a))
    rep.add("classification", classify_section(a))
    if g.variant in PAYMENT_VARIANTS:
        rep.add("payments", payments_section(a))
        rep.add("degeneracy", degeneracy_section(a))
    if g.variant == "assignment":
        rep.add("antipodal", antipodal_section(a))
    if g.variant in B_VARIANTS:
        rep.add("system", system_section(a))
        imp = dual_imputation(a)
        rep.add(
            "dual-image",
            [f"dual-derived-imputation-in-image = {yes_no(in_dual_image(a, imp))}"],
        )
    return rep
