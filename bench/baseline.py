"""Record the benchmark's figures for the current tree.

Usage: ``python3 bench/baseline.py [--seeds 10] [--seconds 30]
[--out bench/baseline.json]`` from the root of a checkout.

Runs ``run.py`` once per seed (1..N) on every workload untraced, and
once traced on seed 1, then writes the medians, quartiles and spreads
(interquartile range over median) of every end-to-end metric, the
traced counts, the interpreter version and ``nproc``, the reason for
each workload, and which end-to-end metric each layer metric is
expected to move.  Later changes name their claims by these names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import CAL_REF_NS, WORKLOADS  # noqa: E402
from workloads import WHY  # noqa: E402

# layer metric prefix -> the end-to-end metrics (on workloads) it should move
LAYER_MAP = {
    "simplex": {
        "moves": ["reports_per_s@report-battery", "report_p90_ms@report-battery"],
        "flat": ["enum-ties", "core-check"],
    },
    "gamelp": {"moves": ["report_p50_ms@report-battery"]},
    "matchings": {
        "moves": [
            "reports_per_s@enum-ties", "report_p50_ms@enum-ties", "report_p90_ms@enum-ties",
            "reports_per_s@core-check (cost per call)",
            "report_p50_ms@report-battery (through enum_per_report)",
        ],
    },
    "analysis": {"moves": ["report_p90_ms@report-battery", "reports_per_s@core-check"]},
    "games": {"moves": ["reports_per_s@core-check"]},
    "bmatching": {"moves": ["report_p50_ms@core-check", "report_p90_ms@core-check"]},
    "reports": {"moves": ["latency of the workloads whose requests contain the section"]},
    "gamefile": {"moves": ["report_p50_ms@enum-ties", "report_p50_ms@core-check"]},
    "cli": {"moves": ["report_p50_ms@enum-ties", "report_p50_ms@core-check"]},
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = p.parse_args()

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": args.seconds,
        "cal_ref_ns": CAL_REF_NS,
        "seeds": list(range(1, args.seeds + 1)),
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = [run(name, s, args.seconds, 0) for s in record["seeds"]]
        units = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        end_to_end = {
            k: {"unit": unit, **summarize([r["metrics"][k]["value"] for r in runs])}
            for k, unit in units.items()
        }
        traced = run(name, 1, args.seconds, 1)
        record["workloads"][name] = {
            "why": WHY[name],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for k, v in end_to_end.items():
            print(f"{name:<15} {k:<14} median {v['median']:12.4f} {v['unit']:<4}"
                  f" spread {v['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
