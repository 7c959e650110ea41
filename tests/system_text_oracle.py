"""The ``system`` section's text from the built core system: the oracle of
``reports.system_section``.

It reads ``GameAnalysis.system``, whose rows are frozensets and Fractions,
sorts each coalition's names, formats each worth with ``format_rational``,
lays the rows out with a generic column table and lists the skipped
coalitions.  The section itself reads the session's scan in masks and
shares none of this.
"""

from matchcore.analysis import GameAnalysis
from matchcore.rationals import format_rational as fr


def table(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns with two-space gutters."""
    if not rows:
        return []
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows
    ]


def system_text(a: GameAnalysis) -> list[str]:
    sys = a.system
    rows = []
    for s, rhs in sys.inequalities:
        rows.append((" + ".join(sorted(s)), ">=", fr(rhs)))
    rows.append((" + ".join(sorted(sys.vertices)), "==", fr(sys.grand_worth)))
    lines = table(rows)
    if sys.skipped:
        lines.append(
            "skipped-infeasible = "
            + " ".join("{" + ",".join(sorted(s)) + "}" for s in sys.skipped)
        )
    return lines
