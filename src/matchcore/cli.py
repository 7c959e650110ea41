"""Command-line analysis driver.

Usage shape: ``matchcore <command> --game <path> [--imputation v1,v2,...]
[--cap N] [--budget N] [--split half] [--out <path>]``, or
``matchcore examples``, which takes no option.

Exit codes: 0 success, 1 analysis finding (a membership check answered
no, or a bundled example drifted), 2 input error, 3 enumeration cap
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import bundled
from .analysis import GameAnalysis, Imputation
from .bmatching import SPLIT_SHARES, ProfitSignError, in_dual_image
from .games import (
    DEFAULT_BUDGET_CAP,
    DEFAULT_COALITION_CAP,
    CapExceeded,
    GameInstance,
)
from .gamefile import GameFileError, parse_game
from .matchings import InfeasibleGameError
from .rationals import parse_rational
from .reports import (
    Report,
    antipodal_section,
    classify_section,
    concurrency_section,
    degeneracy_section,
    dual_section,
    imputation_section,
    payments_section,
    report_header,
    system_section,
    worth_section,
)

# The commands that print one report section: its title and its function.
SECTIONS = {
    "worth": ("worth", worth_section),
    "dual": ("dual", dual_section),
    "imputation": ("imputation", imputation_section),
    "classify": ("classification", classify_section),
    "payments": ("payments", payments_section),
    "concurrency": ("concurrency", concurrency_section),
    "antipodal": ("antipodal", antipodal_section),
    "degeneracy": ("degeneracy", degeneracy_section),
    "system": ("system", system_section),
}
COMMANDS = (*SECTIONS, "check", "dual-image", "examples")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    A parser is a web of reference cycles that only a full garbage
    collection frees, so building one per call leaves that much garbage
    behind each time until the collector gets to it.
    """
    parser = argparse.ArgumentParser(
        prog="matchcore",
        description="Exact core analysis of assignment, matching and "
        "b-matching games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "examples":
            continue
        p.add_argument("--game", required=True, help="game file to analyze")
        p.add_argument(
            "--cap",
            type=_count,
            default=DEFAULT_COALITION_CAP,
            help="coalition enumeration vertex cap",
        )
        p.add_argument(
            "--budget",
            type=_count,
            default=DEFAULT_BUDGET_CAP,
            help="matching enumeration multiplicity budget",
        )
        p.add_argument("--out", help="also write the report as JSON here")
        if name in ("check", "dual-image"):
            p.add_argument(
                "--imputation",
                required=True,
                help="profits, comma separated, in declared vertex order",
            )
        if name == "imputation":
            p.add_argument(
                "--split",
                choices=tuple(SPLIT_SHARES),
                default="half",
                help="how edge prices are divided between endpoints",
            )
    return parser


def _count(text: str) -> int:
    """A cap for ``--cap`` and ``--budget``: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _parse_imputation(g: GameInstance, text: str) -> Imputation:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != len(g.vertices):
        raise GameFileError(
            f"imputation has {len(parts)} entries, game has {len(g.vertices)} vertices"
        )
    try:
        values = [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc
    return dict(zip(g.vertices, values))


def _emit(report: Report, out: str | None) -> None:
    sys.stdout.write(report.to_text())
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_json())


def _run(args: argparse.Namespace) -> int:
    if args.command == "examples":
        lines, ok = bundled.run_examples()
        for line in lines:
            print(line)
        return 0 if ok else 1

    with open(args.game) as fh:
        g = parse_game(fh.read())
    rep = report_header(g, args.cap, args.budget)
    a = GameAnalysis(g, args.budget, args.cap)

    finding = False
    if args.command in SECTIONS:
        title, section = SECTIONS[args.command]
        split = [args.split] if args.command == "imputation" else []
        rep.add(title, section(a, *split))
    elif args.command == "check":
        got = a.membership(_parse_imputation(g, args.imputation))
        lines = [f"in-core = {'yes' if got.in_core else 'no'}"]
        if got.witness is not None:
            lines.append("witness = {" + ",".join(sorted(got.witness)) + "}")
        rep.add("check", lines)
        finding = not got.in_core
    elif args.command == "dual-image":
        imp = _parse_imputation(g, args.imputation)
        flag = in_dual_image(a, imp)
        rep.add("dual-image", [f"in-dual-image = {'yes' if flag else 'no'}"])
        finding = not flag
    _emit(rep, args.out)
    return 1 if finding else 0


def _joined_imputation(argv: list[str]) -> list[str]:
    """``--imputation X`` as ``--imputation=X``.

    argparse takes a separate value that starts with ``-`` for an option,
    so a profit list with a negative first entry needs the joined form.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--imputation":
            out[-1] = f"--imputation={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_joined_imputation(argv))
    try:
        return _run(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (
        GameFileError,
        InfeasibleGameError,
        ProfitSignError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
