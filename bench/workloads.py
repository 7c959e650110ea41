"""The three workloads: their requests, inputs and output checks.

A workload is a list of requests built from one seed.  Each request
carries what the worker needs to run it and a check that the parent
applies to the captured output afterwards.  Oracle answers are computed
lazily at check time, so only requests that actually ran are checked
against an oracle; inputs that the request itself needs (a dual-derived
imputation) are computed up front.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

import gen
import oracle
from gen import fr

CAP, BUDGET = gen.COALITION_CAP, gen.BUDGET_CAP

BUNDLED = (
    "fork3", "path5", "web5", "tiers8", "ring7", "tritail4", "k3",
    "bpath4-uncon", "bpath4-con", "path5-b2", "bpath4-gen-d1", "bpath4-gen-cap",
)

WHY = {
    "report-battery": (
        "Full text reports: bundled battery plus seeded assignment and general "
        "games. Time goes to Fraction pivots in the face LPs behind payments, "
        "degeneracy and antipodal."
    ),
    "enum-ties": (
        "worth/classify/concurrency on tie-heavy graphs (weights 1-3): many optima, "
        "weak pruning, so the matching enumerator dominates; the LP path is bypassed."
    ),
    "core-check": (
        "system/check/dual-image on b-variants and assignment games: hundreds of "
        "tiny coalition enumerations per request, so per-call overhead dominates."
    ),
}


class CheckFailed(Exception):
    pass


@dataclass
class Request:
    spec: dict  # what the worker runs
    label: str  # stratum and command, for failure messages
    check: Callable[[str, int | None], None]  # raises CheckFailed


@dataclass
class Workload:
    name: str
    files: dict[str, str]  # file name -> text, written into the work dir
    game_files: list[str]  # parsed at set-up, in this order
    warmup: dict
    requests: list[Request]


def sections(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        m = re.fullmatch(r"\[(.+)\]", line)
        if m:
            current = out.setdefault(m.group(1), [])
        elif current is not None and line:
            current.append(line)
    return out


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def section(text: str, title: str) -> list[str]:
    got = sections(text).get(title)
    expect(got is not None, f"no [{title}] section")
    return got


# -- checks shared by the workloads ----------------------------------------


class Answers:
    """Oracle answers of one game, computed once on first use."""

    def __init__(self, g: gen.Game):
        self.g = g
        self._worth = None
        self._frac = None

    @property
    def worth(self) -> Fraction:
        if self._worth is None:
            self._worth = oracle.worth(self.g)
        return self._worth

    @property
    def fractional(self) -> Fraction:
        if self._frac is None:
            self._frac = oracle.fractional_worth(self.g)
        return self._frac

    @property
    def concurrent(self) -> bool:
        return self.worth == self.fractional


def check_worth(text: str, a: Answers) -> None:
    got = section(text, "worth")
    expect(got == [f"grand-coalition = {fr(a.worth)}"], f"worth {got} != {fr(a.worth)}")


def check_concurrency(text: str, a: Answers) -> None:
    got = section(text, "concurrency")
    want = [
        f"integral-optimum = {fr(a.worth)}",
        f"fractional-optimum = {fr(a.fractional)}",
        f"concurrent = {'yes' if a.concurrent else 'no'}",
    ]
    if a.g.variant == "general-matching":
        want.append(f"core = {'nonempty' if a.concurrent else 'empty'}")
    expect(got == want, f"concurrency {got} != {want}")


def check_classification(text: str, a: Answers) -> None:
    got = section(text, "classification")
    expect(got[-1] == f"optimum = {fr(a.worth)}", f"classification {got[-1]}")
    m = re.fullmatch(r"optimal-matchings = (\d+)", got[-2])
    expect(m is not None and int(m.group(1)) >= 1, f"classification {got[-2]}")


def check_total(lines: list[str], total: Fraction, what: str) -> None:
    expect(bool(lines) and lines[-1].split() == ["total", fr(total)],
           f"{what} total {lines[-1:]} != {fr(total)}")


def check_report(text: str, a: Answers) -> None:
    check_worth(text, a)
    check_concurrency(text, a)
    check_classification(text, a)
    imp = section(text, "imputation")
    if a.concurrent:
        check_total(imp, a.worth, "imputation")
    else:
        expect(imp == ["core = empty"], f"imputation {imp}")
        expect(section(text, "payments") == ["core = empty"], "payments of an empty core")
    if a.g.variant == "assignment":
        lines = section(text, "antipodal")
        cut = lines.index("right-optimal:")
        check_total(lines[:cut], a.worth, "left-optimal")
        check_total(lines[cut:], a.worth, "right-optimal")


# -- report-battery ---------------------------------------------------------

# One round of report-battery, as (kind, shape) slots in rising order of
# cost.  The slots are weighted so that the median and the 90th
# percentile each fall inside a group of similar requests (3x3 games at
# 42-67%, 4x4 games at 75-100%) rather than in the gap between two.
# Complete graphs vary less in cost from seed to seed than sparse ones.
# General games come with a nonempty or an empty core in fixed
# proportions: an empty core skips the payment LPs, so a drawn
# proportion would make the mix's cost depend on the seed.
REPORT_ROUND = (
    ("bundled", 0), ("bundled", 1), ("assignment", (2, 3, 1.0)),
    ("general", (5, True)), ("general", (8, False)),
    ("assignment", (3, 3, 1.0)), ("assignment", (3, 3, 1.0)), ("assignment", (3, 3, 1.0)),
    ("general", (6, True)),
    ("assignment", (4, 4, 0.6)), ("assignment", (4, 4, 0.6)), ("assignment", (4, 4, 0.6)),
)


def general_with_core(rng: Random, name: str, n: int, nonempty: bool) -> tuple[gen.Game, Answers]:
    for _ in range(1000):
        g = gen.general(rng, name, n, 0.5)
        a = Answers(g)
        if a.concurrent == nonempty:
            return g, a
    raise oracle.OracleError(f"no {n}-vertex game with the wanted core in 1000 draws")


def report_battery(seed: int, rounds: int, instances: Path) -> Workload:
    rng = Random(seed)
    files: dict[str, str] = {}
    game_files: list[str] = []
    requests: list[Request] = []

    def add_game(g: gen.Game) -> int:
        return add_text(f"{g.name}.game", gen.render(g))

    def add_text(fname: str, text: str) -> int:
        files[fname] = text
        game_files.append(fname)
        return len(game_files) - 1

    def report(k: int) -> dict:
        return {"report": k, "cap": CAP, "budget": BUDGET}

    def bundled_check(want):
        def check(text, code):
            expect(text == want, "bundled report differs from its .expected file")

        return check

    def generated_check(a):
        return lambda text, code: check_report(text, a)

    bundled = []
    for name in BUNDLED:
        k = add_text(f"{name}.game", (instances / f"{name}.game").read_text())
        want = (instances / f"{name}.expected").read_text()
        bundled.append(Request(report(k), name, bundled_check(want)))

    for r in range(rounds):
        for t, (kind, shape) in enumerate(REPORT_ROUND):
            name = f"{kind[0]}{t}-{r}"
            if kind == "bundled":
                requests.append(bundled[(2 * r + shape) % len(bundled)])
                continue
            if kind == "assignment":
                g = gen.bipartite(rng, name, "assignment", *shape)
                a = Answers(g)
            else:
                g, a = general_with_core(rng, name, *shape)
            requests.append(Request(report(add_game(g)), g.name, generated_check(a)))

    warmup = report(add_game(gen.bipartite(Random(0), "warmup", "assignment", 2, 3, 0.8)))
    return Workload("report-battery", files, game_files, warmup, requests)


# -- CLI workloads ----------------------------------------------------------


class CliRequests:
    """Collects game files and CLI requests that name them by path."""

    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.requests: list[Request] = []

    def path(self, g: gen.Game) -> str:
        fname = f"{g.name}.game"
        self.files[fname] = gen.render(g)
        return str(self.workdir / fname)

    def add(self, argv: list[str], label: str, check) -> None:
        self.requests.append(Request({"cli": argv}, label, check))

    def workload(self, warm: gen.Game, warm_cmd: str) -> Workload:
        warmup = {"cli": [warm_cmd, "--game", self.path(warm)]}
        return Workload(self.name, self.files, sorted(self.files), warmup, self.requests)


def cli_check(code_want: int, *text_checks: Callable[[str], None]):
    def check(text, code):
        expect(code == code_want, f"exit code {code}, expected {code_want}")
        for text_check in text_checks:
            text_check(text)

    return check


ENUM_STRATA = (
    ("general-matching", (10, 0.6)),
    ("assignment", (5, 6)),
    ("general-matching", (11, 0.6)),
    ("assignment", (6, 6)),
    ("general-matching", (12, 0.55)),
    ("assignment", (6, 7)),
)
ENUM_CHECKS = {"worth": check_worth, "classify": check_classification,
               "concurrency": check_concurrency}
ENUM_COMMANDS = tuple(ENUM_CHECKS)


def enum_ties(seed: int, rounds: int, workdir: Path) -> Workload:
    rng = Random(seed)
    b = CliRequests("enum-ties", workdir)
    for r in range(rounds):
        for s, (variant, shape) in enumerate(ENUM_STRATA):
            if variant == "assignment":
                g = gen.bipartite(rng, f"a{shape[0]}x{shape[1]}-{r}", variant, *shape, 0.8, gen.ties)
            else:
                g = gen.general(rng, f"g{shape[0]}-{r}", shape[0], shape[1], gen.ties)
            cmd = ENUM_COMMANDS[(r + s) % 3]
            a = Answers(g)
            check = cli_check(0, lambda text, a=a, cmd=cmd: ENUM_CHECKS[cmd](text, a))
            b.add([cmd, "--game", b.path(g)], f"{g.name} {cmd}", check)
    warm = gen.general(Random(0), "warmup", 8, 0.5, gen.ties)
    return b.workload(warm, "worth")


CORE_STRATA = (
    ("b-uniform", (4, 5)),
    ("assignment", (4, 4)),
    ("b-unconstrained", (4, 5)),
    ("assignment", (4, 5)),
    ("b-constrained", (5, 5)),
    ("assignment", (5, 5)),
    ("b-general", (5, 5)),
)
CORE_COMMANDS = ("system", "check", "check-perturbed", "dual-image")


def _imp_arg(imp: dict[str, Fraction], g: gen.Game) -> str:
    return ",".join(fr(imp[q]) for q in g.vertices)


def perturb(g: gen.Game, imp: dict[str, Fraction], rng: Random, total: Fraction):
    """An imputation outside the core, with a proof from the oracle.

    Pick a vertex k and give it more than its marginal contribution
    v(N) - v(N - k), taking the amount from the others.  Then the
    coalition N - k gets less than its worth, whatever else holds.
    """
    order = [q for q in g.vertices if any(q in (i, j) for i, j, _ in g.edges)]
    rng.shuffle(order)
    for k in order:
        rest = frozenset(g.vertices) - {k}
        v_rest = oracle.worth(g, rest)
        if v_rest <= 0:
            continue
        delta = total - v_rest - imp[k] + Fraction(1, oracle.SCALE)
        out = dict(imp)
        out[k] += delta
        need = delta
        for q in sorted(rest, key=lambda q: (-out[q], q)):
            take = min(out[q], need)
            out[q] -= take
            need -= take
        if need == 0:
            return out
    raise oracle.OracleError("no vertex admits a provable perturbation")


def _system_check(g: gen.Game, a: Answers, pick: Random):
    def extra(text):
        lines = section(text, "system")
        last = re.fullmatch(r"(.*?)\s+==\s+(\S+)", lines[-1])
        expect(last is not None and last.group(2) == fr(a.worth), f"system total {lines[-1]}")
        expect(last.group(1).split(" + ") == sorted(g.vertices), "system grand coalition")
        rows = [re.fullmatch(r"(.*?)\s+>=\s+(\S+)", line) for line in lines[:-1]]
        expect(all(rows), "system row format")
        want_rows = oracle.connected_count(g) - oracle.is_connected(g)
        expect(len(rows) == want_rows, f"system has {len(rows)} rows, expected {want_rows}")
        for m in pick.sample(rows, min(3, len(rows))):
            members = frozenset(m.group(1).split(" + "))
            want = fr(oracle.worth(g, members))
            expect(m.group(2) == want, f"system row {m.group(0)} != {want}")

    return extra


def core_check(seed: int, rounds: int, workdir: Path) -> Workload:
    rng = Random(seed)
    b = CliRequests("core-check", workdir)
    for r in range(rounds):
        for s, (variant, shape) in enumerate(CORE_STRATA):
            name = f"{variant}-{shape[0]}x{shape[1]}-{r}"
            if variant == "assignment":
                g = gen.bipartite(rng, name, variant, *shape, 0.6)
                cmds = CORE_COMMANDS[:3]
            else:
                g = gen.b_game(rng, name, variant, *shape, 0.5)
                cmds = CORE_COMMANDS
            cmd = cmds[(r + s) % len(cmds)]
            a = Answers(g)
            game = b.path(g)
            label = f"{name} {cmd}"
            if cmd == "system":
                check = cli_check(0, _system_check(g, a, Random(f"{seed}:{name}")))
                b.add(["system", "--game", game], label, check)
                continue
            imp = oracle.dual_imputation(g, a.worth)
            if cmd == "dual-image":
                check = cli_check(0, _lines_are("dual-image", ["in-dual-image = yes"]))
                b.add(["dual-image", "--game", game, "--imputation", _imp_arg(imp, g)], label, check)
            elif cmd == "check":
                check = cli_check(0, _lines_are("check", ["in-core = yes"]))
                b.add(["check", "--game", game, "--imputation", _imp_arg(imp, g)], label, check)
            else:
                bad = perturb(g, imp, rng, a.worth)
                check = cli_check(1, _outside_core)
                b.add(["check", "--game", game, "--imputation", _imp_arg(bad, g)], label, check)
    warm = gen.b_game(Random(0), "warmup", "b-constrained", 3, 3, 0.5)
    return b.workload(warm, "system")


def _lines_are(title: str, want: list[str]):
    def extra(text):
        got = section(text, title)
        expect(got == want, f"[{title}] {got} != {want}")

    return extra


def _outside_core(text: str) -> None:
    got = section(text, "check")
    expect(len(got) == 2 and got[0] == "in-core = no" and got[1].startswith("witness = {"),
           f"[check] {got} for an imputation outside the core")


