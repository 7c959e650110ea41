"""matchcore benchmark: seeded workloads, end-to-end and per-layer figures.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload report-battery --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

``--workload`` is ``report-battery``, ``enum-ties``, ``core-check`` or
``all``.  The seed fixes every input.  Load is one client in a closed
loop: one process, and each request starts after the previous one ends.

``--trace 0`` measures the end-to-end figures.  The requests run in a
fresh child process that imports only the package (``worker.py``); the
loop runs for ``--seconds`` and at least ``MIN_REQUESTS`` requests.
Set-up (import, parse the game files, one warm-up request) is measured
in that child and in ``SETUP_RUNS - 1`` more set-up-only children, half
before and half after the loop, and reported as the median.

``--trace 1`` runs the first ``MIN_REQUESTS`` requests twice in fresh
children, once plain and once with spans around the package's public
functions (``tracing.py``), and reports per-layer counts and self times.
The two stdout digests must match.  Spans go to
``.bench_out/spans-<workload>-s<seed>.tsv.gz``.

The host this was built on changes speed by up to half within seconds
(other tenants), which moves raw wall times between identical runs far
more than any bound worth keeping.  So every time is scaled to a
reference host: between requests (and after set-up) the worker times a
fixed unit of ``Fraction`` arithmetic, and a request's reported latency
is its wall time times ``CAL_REF_NS`` over the mean probe time just
before and after it.  The raw figures are printed as well (``raw_*``).
``reports_per_s`` is requests per second of scaled latency.

Every output is checked (``workloads.py``); oracle answers come from
scipy and networkx in this parent process (``oracle.py``).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INSTANCES = SRC / "matchcore" / "instances"

MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
MAX_LOOP_SECONDS = 100  # the timed loop stops here even short of MIN_REQUESTS
SETUP_RUNS = 7
PASS_TIMEOUT = 80
# Probe time of the reference host (see calibration_ns in worker.py).
CAL_REF_NS = 3_000_000

# Rounds of strata per request list: long enough that the timed loop at
# the recorded baseline never wraps around to a request it already ran.
ROUNDS = {"report-battery": 40, "enum-ties": 60, "core-check": 120}

WORKLOADS = ("report-battery", "enum-ties", "core-check")


class RunError(Exception):
    """A child process failed; no figures can be reported."""


class Launcher:
    """The small process that starts every worker (see ``launch.py``)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], timeout: float) -> tuple[int | None, str]:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout, "cwd": str(ROOT)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RunError("the launcher process ended early")
        reply = json.loads(line)
        return reply["code"], reply["stderr"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def build(name: str, seed: int, workdir: Path):
    # Imported here, not at the top: it loads scipy and networkx, which
    # must happen after the launcher has started (see launch.py).
    import workloads

    if name == "report-battery":
        wl = workloads.report_battery(seed, ROUNDS[name], INSTANCES)
    elif name == "enum-ties":
        wl = workloads.enum_ties(seed, ROUNDS[name], workdir)
    else:
        wl = workloads.core_check(seed, ROUNDS[name], workdir)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text)
    return wl


def spawn(launcher: Launcher, wl, workdir: Path, tag: str, mode: str, timeout: float,
          **extra) -> tuple[dict, list]:
    """Run one child; returns its summary and its request log."""
    job = {
        "src": str(SRC),
        "bench": str(BENCH),
        "games": [str(workdir / f) for f in wl.game_files],
        "warmup": wl.warmup,
        "requests": [r.spec for r in wl.requests],
        "mode": mode,
        "out": str(workdir / f"{tag}.out.json"),
        "log": str(workdir / f"{tag}.log.jsonl"),
        **extra,
    }
    job_path = workdir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    code, stderr = launcher.run(
        [sys.executable, "-I", str(BENCH / "worker.py"), str(job_path)], timeout
    )
    if code is None:
        raise RunError(f"{tag}: worker exceeded {timeout} s")
    if code != 0:
        raise RunError(f"{tag}: worker exited {code}\n{stderr}")
    summary = json.loads(Path(job["out"]).read_text())
    log = []
    if mode != "setup":
        with open(job["log"]) as fh:
            log = [json.loads(line) for line in fh]
    return summary, log


def check_log(wl, log: list) -> tuple[list[str], str]:
    """Apply every request's check; returns failures and the stdout digest.

    The digest covers the first ``MIN_REQUESTS`` requests, which every
    run executes, so it compares across runs and with the traced run.
    A request that runs twice (the loop wrapped) must print the same.
    """
    import workloads

    failures = []
    first_out: dict[int, str] = {}
    digest = hashlib.sha256()
    for rec in log:
        req = wl.requests[rec["idx"]]
        if rec["i"] < MIN_REQUESTS:
            digest.update(rec["stdout"].encode())
        try:
            if rec["error"]:
                raise workloads.CheckFailed(f"raised {rec['error']}")
            seen = first_out.setdefault(rec["idx"], rec["stdout"])
            workloads.expect(seen == rec["stdout"], "output differs from an earlier run")
            req.check(rec["stdout"], rec["code"])
        except workloads.CheckFailed as exc:
            failures.append(f"request {rec['i']} ({req.label}): {exc}")
    return failures, digest.hexdigest()


def measure(launcher: Launcher, name: str, seed: int, seconds: int, workdir: Path) -> dict:
    wl = build(name, seed, workdir)

    def setup_only(k):
        return spawn(launcher, wl, workdir, f"setup{k}", "setup", timeout=60)[0]

    # Set-up samples come from before and after the timed loop, so that
    # a few seconds of contention on the host cannot set their median.
    setups = [setup_only(k) for k in range(SETUP_RUNS // 2)]
    summary, log = spawn(
        launcher, wl, workdir, "timed", "timed", timeout=MAX_LOOP_SECONDS + 45,
        seconds=seconds, min_requests=MIN_REQUESTS, max_seconds=MAX_LOOP_SECONDS,
    )
    setups.append(summary)
    setups += [setup_only(k) for k in range(SETUP_RUNS // 2, SETUP_RUNS - 1)]
    failures, digest = check_log(wl, log)
    lat_ms = [rec["lat_ns"] / 1e6 for rec in log]
    scaled_ms = scaled(log)
    n = len(log)
    metrics = {
        "reports_per_s": (n / (sum(scaled_ms) / 1000), "1/s"),
        "report_p50_ms": (statistics.median(scaled_ms), "ms"),
        "report_p90_ms": (statistics.quantiles(scaled_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(
            s["setup_s"] * CAL_REF_NS / s["setup_cal_ns"] for s in setups), "s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
    }
    info = {
        "failed_ratio": (len(failures) / n, "ratio"),
        "raw_reports_per_s": (n / summary["wall_s"], "1/s"),
        "raw_report_p50_ms": (statistics.median(lat_ms), "ms"),
        "raw_report_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "raw_setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "probe_ms": (statistics.median(rec["cal_ns"] for rec in log) / 1e6, "ms"),
    }
    return {
        "attempted": n, "failed": len(failures), "failures": failures,
        "digest": digest, "metrics": metrics, "info": info,
    }


def scaled(log: list) -> list[float]:
    """Latencies in ms, scaled to the reference host by the speed probe."""
    return [rec["lat_ns"] * CAL_REF_NS / rec["cal_ns"] / 1e6 for rec in log]


def measure_traced(launcher: Launcher, name: str, seed: int, workdir: Path) -> dict:
    wl = build(name, seed, workdir)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{name}-s{seed}.tsv.gz"
    plain, plain_log = spawn(launcher, wl, workdir, "plain", "pass", PASS_TIMEOUT, count=MIN_REQUESTS)
    traced, traced_log = spawn(
        launcher, wl, workdir, "traced", "pass", PASS_TIMEOUT, count=MIN_REQUESTS,
        trace=True, spans_out=str(spans),
    )
    failures, digest = check_log(wl, plain_log)
    traced_failures, traced_digest = check_log(wl, traced_log)
    failures += traced_failures
    if digest != traced_digest:
        failures.append(f"traced stdout digest {traced_digest} != untraced {digest}")
    metrics = {k: tuple(v) for k, v in traced["trace"].items()}
    metrics["trace.overhead_ratio"] = (sum(scaled(traced_log)) / sum(scaled(plain_log)), "ratio")
    n = len(plain_log) + len(traced_log)
    return {
        "attempted": n, "failed": len(failures), "failures": failures,
        "digest": digest, "metrics": metrics, "info": {},
    }


def run_one(launcher: Launcher, name: str, seed: int, seconds: int, trace: bool) -> dict:
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{name}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return measure_traced(launcher, name, seed, workdir)
        return measure(launcher, name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def show(name: str, seed: int, res: dict) -> None:
    print(f"# {name}  seed {seed}  requests {res['attempted']}  failed {res['failed']}"
          f"  digest {res['digest']}")
    for key, (value, unit) in {**res["metrics"], **res["info"]}.items():
        print(f"{name}  {key:<44} {value:>14.6g} {unit}")
    for line in res["failures"][:20]:
        print(f"FAILED {name}: {line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    launcher = Launcher()  # before the oracles' imports grow this process
    try:
        for name in names:
            results[name] = run_one(launcher, name, args.seed, args.seconds, bool(args.trace))
            show(name, args.seed, results[name])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()

    def prefixed(name, key):
        return key if len(names) == 1 else f"{name}.{key}"

    doc = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            prefixed(name, key): {"value": value, "unit": unit}
            for name, r in results.items()
            for key, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "matchcore" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
