"""Child process that runs one workload's requests against the package.

Usage: ``python3 -I worker.py <job.json>``.  The job names the package
source directory, the game files, the warm-up request and the request
list; see ``run.py`` for how it is built.  This process imports the
package and the standard library only, so its set-up time and memory
are the package's own.

Modes:

* ``setup``: import, parse every game file, run the warm-up request,
  report the time that took, exit.
* ``timed``: set up, then a closed loop of one request at a time until
  ``seconds`` have passed and at least ``min_requests`` have completed.
* ``pass``: set up, then exactly ``count`` requests, optionally traced.

Each completed request is appended to the ``log`` file as one JSON
line as soon as it finishes, so captured outputs never accumulate in
memory.  The summary goes to ``out``.

Host speed is probed with :func:`calibration_ns` between requests and
after set-up, outside every timed interval; ``run.py`` scales the times
by it (see there).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter, perf_counter_ns


def calibration_ns() -> int:
    """Time of one fixed unit of Fraction arithmetic: the host-speed probe."""
    from fractions import Fraction

    start = perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
    return perf_counter_ns() - start


def _run_request(req, games, cli, reports):
    """One request; returns (stdout, exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if "report" in req:
            text = reports.full_report(games[req["report"]], req["cap"], req["budget"]).to_text()
            out.write(text)
            code = 0
        else:
            try:
                code = cli.main(req["cli"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    return out.getvalue(), code, err.getvalue()


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path[:0] = [job["src"], job["bench"]]

    t0 = perf_counter()
    import matchcore
    from matchcore import cli, reports
    from matchcore.gamefile import parse_game

    if not matchcore.__file__.startswith(job["src"]):
        print(f"worker: imported matchcore from {matchcore.__file__}", file=sys.stderr)
        return 2
    games = []
    for path in job["games"]:
        with open(path) as fh:
            games.append(parse_game(fh.read()))
    _run_request(job["warmup"], games, cli, reports)
    setup_s = perf_counter() - t0

    summary = {"setup_s": setup_s, "setup_cal_ns": (calibration_ns() + calibration_ns()) / 2}
    if job["mode"] != "setup":
        summary.update(_loop(job, games, cli, reports))
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["out"], "w") as fh:
        json.dump(summary, fh)
    return 0


def _loop(job, games, cli, reports) -> dict:
    requests = job["requests"]
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    timed = job["mode"] == "timed"
    limit = job["count"] if not timed else None
    n = 0
    start = perf_counter()
    cal_before = calibration_ns()
    with open(job["log"], "w") as log:
        while True:
            idx = n % len(requests)
            req = requests[idx]
            if tracer is not None:
                tracer.request = n
            t_req = perf_counter_ns()
            error = None
            try:
                stdout, code, stderr = _run_request(req, games, cli, reports)
            except Exception as exc:  # a crash is a failed request, not a failed run
                stdout, code, stderr = "", None, ""
                error = f"{type(exc).__name__}: {exc}"
            lat_ns = perf_counter_ns() - t_req
            cal_after = calibration_ns()
            log.write(json.dumps({"i": n, "idx": idx, "lat_ns": lat_ns,
                                  "cal_ns": (cal_before + cal_after) / 2, "code": code,
                                  "stdout": stdout, "stderr": stderr, "error": error}))
            log.write("\n")
            cal_before = cal_after
            n += 1
            elapsed = perf_counter() - start
            if timed:
                if (elapsed >= job["seconds"] and n >= job["min_requests"]) or (
                    elapsed >= job["max_seconds"]
                ):
                    break
            elif n >= limit:
                break
    wall_s = perf_counter() - start
    result = {"n": n, "wall_s": wall_s}
    if tracer is not None:
        tracer.remove()
        tracer.requests = n
        result["trace"] = {k: list(v) for k, v in tracer.metrics().items()}
        if job.get("spans_out"):
            tracer.write(job["spans_out"])
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
