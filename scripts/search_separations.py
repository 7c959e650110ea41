#!/usr/bin/env python3
"""Hunt for core imputations outside the dual image.

Random b-matching instances are sampled, the core polytope is probed
with random linear objectives, and every vertex found is tested for
dual-image membership.  Instances where the core strictly exceeds the
dual image are printed with a witness imputation.

Usage: python scripts/search_separations.py [--variant b-unconstrained]
       [--count 200] [--seed 1] [--samples 6]
"""

import argparse
import sys
from random import Random

sys.path.insert(0, "tests")

from matchcore.analysis import GameAnalysis
from matchcore.bmatching import in_dual_image, sample_core_imputations
from matchcore.gamefile import render_game
from matchcore.rationals import format_rational

from gamegen import random_b_game


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--variant",
        default="b-unconstrained",
        choices=("b-uniform", "b-unconstrained", "b-constrained", "b-general"),
    )
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--samples", type=int, default=6)
    args = parser.parse_args()

    rng = Random(args.seed)
    found = 0
    for trial in range(args.count):
        g = random_b_game(rng, args.variant)
        if not g.edges:
            continue
        a = GameAnalysis(g)
        for imp in sample_core_imputations(a.system, seed=trial, count=args.samples):
            if not in_dual_image(a, imp):
                found += 1
                print(f"# separation {found} (trial {trial})")
                print(render_game(g), end="")
                pretty = ", ".join(
                    f"{q}={format_rational(imp[q])}" for q in g.vertices
                )
                print(f"# core imputation outside the dual image: {pretty}")
                print()
                break
    print(f"# {found} separated instance(s) in {args.count} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
