"""Starts worker processes on behalf of ``run.py``.

A process started from a large parent inherits the parent's peak
resident size as its own starting ``ru_maxrss``.  ``run.py`` imports
scipy and networkx for its oracles, so it starts this small process
first and has it start every worker; a worker's peak is then its own.

Protocol: one JSON object per line on stdin, ``{"argv": [...],
"timeout": seconds, "cwd": dir}``; one JSON line back per request,
``{"code": exit code or null on timeout, "stderr": tail}``.  Exits at
end of input.
"""

import json
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        job = json.loads(line)
        try:
            proc = subprocess.run(
                job["argv"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=job["timeout"], cwd=job["cwd"],
            )
            reply = {"code": proc.returncode, "stderr": proc.stderr[-2000:]}
        except subprocess.TimeoutExpired:
            reply = {"code": None, "stderr": ""}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
