"""Self-test of the benchmark's tracing.

Usage: ``python3 bench/selftest.py [--workload core-check] [--seed 3]``
from the root of a checkout.  Exits 0 when every check holds.

1. Installing the tracer wraps every binding of each traced function in
   every package module (``from .x import y`` copies and renames
   included), and removing it restores every binding.
2. Two traced runs of the same seed report identical counts.
3. The traced run's stdout digest equals the untraced run's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Bindings that only a wrapper that looks in every namespace would see.
ALIASES = (
    ("simplex", "solve_lp", ("gamelp", "matchings", "bmatching", "analysis", "")),
    ("simplex", "solve_over_optimal_face", ("analysis",)),
    ("analysis", "worth", ("bmatching.coalition_worth",)),
    ("reports", "system_section", ("cli",)),
    ("matchings", "brute_force_optima", ("analysis",)),
)


def check_bindings() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import importlib

    import matchcore.cli  # noqa: F401  (loads every module)
    from tracing import Tracer

    def module(name):
        return importlib.import_module("matchcore" + (f".{name}" if name else ""))

    def snapshot():
        return {
            (n, attr): id(v)
            for n, m in sys.modules.items()
            if n == "matchcore" or n.startswith("matchcore.")
            for attr, v in vars(m).items()
            if callable(v)
        }

    problems = []
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        for home, fn, others in ALIASES:
            original = getattr(module(home), fn)
            if getattr(original, "__wrapped__", None) is None:
                problems.append(f"{home}.{fn} is not wrapped")
            for other in others:
                mod, _, attr = other.partition(".")
                bound = getattr(module(mod), attr or fn)
                if bound is not original:
                    problems.append(f"{other or 'matchcore'} binds {home}.{fn} unwrapped")
    finally:
        tracer.remove()
    if snapshot() != before:
        problems.append("bindings differ after the tracer was removed")
    return problems


def run(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=400,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split("digest ")[1] for line in lines if line.startswith("# "))
    return digest, json.loads(lines[-1])["metrics"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="core-check")
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args()

    problems = check_bindings()
    digest_a, first = run(args.workload, args.seed, 1)
    digest_b, second = run(args.workload, args.seed, 1)
    plain_digest, _ = run(args.workload, args.seed, 0)
    counts = [k for k, v in first.items() if v["unit"] in ("count", "bits")]
    counts.append("matchings.enum_per_report")
    for key in counts:
        if first[key]["value"] != second[key]["value"]:
            problems.append(f"{key}: {first[key]['value']} then {second[key]['value']}")
    if not any(first[k]["value"] for k in counts):
        problems.append("every count is zero")
    if len({digest_a, digest_b, plain_digest}) != 1:
        problems.append(f"digests differ: traced {digest_a}, {digest_b}; untraced {plain_digest}")
    for line in problems:
        print(f"FAIL {line}")
    print(f"{'ok' if not problems else 'FAILED'}: {len(counts)} counts, digest {plain_digest}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
