"""Seeded game generators for the benchmark workloads.

The generators belong to the benchmark and import nothing from the
package or its tests, so a change to either cannot silently change the
benchmark's inputs.  A game is plain data here; the program under test
only ever sees it as a rendered ``.game`` document.

Shapes are fixed per stratum (side sizes, vertex count and exact edge
count); the seed draws which pairs carry an edge, the weights and the
bounds.  Fixing the edge count instead of drawing each edge keeps the
cost of one stratum steady from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

# Coalition and multiplicity caps the program applies by default.
COALITION_CAP = 16
BUDGET_CAP = 24


@dataclass
class Game:
    variant: str
    name: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: list[tuple[str, str, Fraction]]
    b: dict[str, int] = field(default_factory=dict)
    edge_cap: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    def cap(self, q: str) -> int:
        return self.b.get(q, 1)

    def edge_upper(self, i: str, j: str) -> int:
        """Largest multiplicity of edge i~j allowed by the variant."""
        if self.variant in ("b-uniform", "b-unconstrained"):
            return min(self.cap(i), self.cap(j))
        if self.variant == "b-general":
            return self.edge_cap.get((i, j), 1)
        return 1


def fr(x: Fraction) -> str:
    """Canonical text of a rational: ``p/q`` in lowest terms, ``p`` for integers."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render(g: Game) -> str:
    """The game as a ``.game`` document."""
    lines = [f"variant: {g.variant}", f"name: {g.name}"]
    if g.variant == "general-matching":
        lines.append("vertices: " + " ".join(g.right))
    else:
        lines.append("left: " + " ".join(g.left))
        lines.append("right: " + " ".join(g.right))
    for i, j, w in g.edges:
        lines.append(f"edge: {i} {j} {fr(w)}")
    for q in g.vertices:
        if g.cap(q) != 1:
            lines.append(f"b: {q} {g.cap(q)}")
    for (i, j), d in g.edge_cap.items():
        if d != 1:
            lines.append(f"cap: {i} {j} {d}")
    return "\n".join(lines) + "\n"


def tenths(rng: Random) -> Fraction:
    """A weight with one decimal place, so ten times it is an integer."""
    return Fraction(rng.randint(5, 60), 10)


def ties(rng: Random) -> Fraction:
    return Fraction(rng.choice((1, 2, 3)))


def _pick(rng: Random, pairs: list[tuple[str, str]], m: int) -> list[tuple[str, str]]:
    chosen = set(rng.sample(range(len(pairs)), m))
    return [p for t, p in enumerate(pairs) if t in chosen]


def bipartite(rng: Random, name: str, variant: str, nl: int, nr: int,
              density: float, weight=tenths) -> Game:
    left = tuple(f"u{i + 1}" for i in range(nl))
    right = tuple(f"v{j + 1}" for j in range(nr))
    pairs = [(i, j) for i in left for j in right]
    m = max(1, round(density * len(pairs)))
    edges = [(i, j, weight(rng)) for i, j in _pick(rng, pairs, m)]
    return Game(variant, name, left, right, edges)


def general(rng: Random, name: str, n: int, density: float, weight=tenths) -> Game:
    vs = tuple(f"v{i + 1}" for i in range(n))
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    m = max(1, round(density * len(pairs)))
    edges = [(i, j, weight(rng)) for i, j in _pick(rng, pairs, m)]
    return Game("general-matching", name, (), vs, edges)


def b_game(rng: Random, name: str, variant: str, nl: int, nr: int, density: float) -> Game:
    """A bipartite b-variant with vertex caps 1 to 3 inside the default budget.

    Caps cycle through 1, 2, 3 and are shuffled over the vertices, so
    every game of a shape has the same multiplicity budget (the size of
    the matching enumeration); the uniform variant uses the largest
    common cap the budget allows, at most 3.
    """
    g = bipartite(rng, name, variant, nl, nr, density)
    n = nl + nr
    if variant == "b-uniform":
        g.b = {q: min(3, BUDGET_CAP // n) for q in g.vertices}
        return g
    caps = [1 + t % 3 for t in range(n)]
    rng.shuffle(caps)
    g.b = dict(zip(g.vertices, caps))
    if variant == "b-general":
        g.edge_cap = {(i, j): rng.randint(1, min(g.b[i], g.b[j])) for i, j, _ in g.edges}
    return g
