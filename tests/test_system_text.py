"""``reports.system_section`` against its oracle, byte for byte.

The section builds each row from the session's scan in masks: a mask's
names from the cached text of the rest of the mask, each distinct worth
formatted once, the width in one pass.  The oracle
(``tests/system_text_oracle.py``) renders the same rows from the built
``CoalitionSystem``.  The games cover all six variants, b-general games
whose vertex or edge floors leave coalitions with no feasible matching
(skipped), and games with no edge.  Edge floors alone skip no proper
coalition unless they leave the grand coalition infeasible too (it holds
every floored edge of every coalition), so there the section and the
oracle must raise the same error.
"""

from collections import Counter
from random import Random

import pytest

from matchcore.analysis import GameAnalysis
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.games import VARIANTS, InfeasibleGameError, make_game
from matchcore.reports import system_section

from gamegen import random_assignment, random_b_game, random_general, with_vertex_floors
from system_text_oracle import system_text

# Each kind: the variant it draws and how.  The floored kinds are b-general.
KINDS = {
    "assignment": lambda rng: random_assignment(rng, max_side=5, density=rng.random()),
    "general-matching": lambda rng: random_general(rng, max_n=7, density=rng.random()),
    "b-uniform": lambda rng: random_b_game(rng, "b-uniform", max_side=4),
    "b-unconstrained": lambda rng: random_b_game(rng, "b-unconstrained", max_side=4),
    "b-constrained": lambda rng: random_b_game(rng, "b-constrained", max_side=4),
    "b-general": lambda rng: random_b_game(rng, "b-general", max_side=4),
    "edge-floors": lambda rng: random_b_game(rng, "b-general", with_floors=True),
    "all-floors": lambda rng: with_vertex_floors(
        rng, random_b_game(rng, "b-general", with_floors=True)
    ),
}
GAMES_PER_KIND = 260


def edgeless(rng, variant):
    """A game of ``variant`` with a few vertices and no edge."""
    left = [f"u{i + 1}" for i in range(rng.randint(0, 3))]
    right = [f"v{j + 1}" for j in range(rng.randint(1, 3))]
    if variant == "general-matching":
        return make_game(variant, [], left + right, [])
    return make_game(variant, left, right, [])


def both(g):
    """The section and the oracle on fresh sessions of ``g``: their lines, or
    the error each raised."""
    out = []
    for render in (system_section, system_text):
        try:
            out.append(render(GameAnalysis(g)))
        except InfeasibleGameError as exc:
            out.append(("infeasible", str(exc)))
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_system_section_equals_the_oracle(kind):
    rng = Random(sorted(KINDS).index(kind) + 401)
    seen = Counter()
    for _ in range(GAMES_PER_KIND):
        g = KINDS[kind](rng)
        got, want = both(g)
        assert got == want, g
        seen["no edge" if not g.edges else "edges"] += 1
        if isinstance(got, tuple):
            seen["infeasible"] += 1
        elif got[-1].startswith("skipped-infeasible = "):
            seen["skipped"] += 1
    assert seen["edges"] > GAMES_PER_KIND // 2
    if kind == "edge-floors":
        assert seen["infeasible"] > 0
    if kind == "all-floors":
        assert seen["skipped"] > 0 and seen["infeasible"] > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_system_section_of_edgeless_games_equals_the_oracle(variant):
    rng = Random(VARIANTS.index(variant) + 451)
    for _ in range(20):
        got, want = both(edgeless(rng, variant))
        assert got == want


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_system_section_of_bundled_games_equals_the_oracle(name):
    got, want = both(load_instance(name))
    assert got == want
