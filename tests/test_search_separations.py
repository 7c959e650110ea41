"""``scripts/search_separations.py`` runs, and finds what it found before.

Each b-variant runs in a subprocess from the repository root, as the
script's usage line says, on 20 seeded games.  The pinned counts are
the script's own summary lines; a change to the sampler, the core
system or the dual-image test that moves one shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "variant, found",
    [("b-uniform", 0), ("b-unconstrained", 13), ("b-constrained", 2), ("b-general", 5)],
)
def test_search_separations_summary(variant, found):
    proc = subprocess.run(
        [sys.executable, "scripts/search_separations.py", "--variant", variant,
         "--count", "20", "--seed", "1"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == f"# {found} separated instance(s) in 20 trials"
    assert sum(line.startswith("# separation ") for line in lines) == found
