"""Game instances for the six matching-game variants.

A game is an edge-weighted graph plus multiplicity bounds.  Bipartite
variants carry an explicit left/right split; sides are never inferred
from edge direction.  ``general-matching`` games keep every vertex in
``right`` and leave ``left`` empty.

Variants:

* ``assignment``        bipartite, every vertex matched at most once
* ``general-matching``  arbitrary simple graph, vertices matched at most once
* ``b-uniform``         bipartite, every vertex matched up to the same b,
                        edges repeatable
* ``b-unconstrained``   bipartite, per-vertex caps, edges repeatable
* ``b-constrained``     bipartite, per-vertex caps, each edge at most once
* ``b-general``         bipartite, per-vertex floors/caps and per-edge
                        floors/caps
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Coalition = frozenset[str]
Edge = tuple[str, str]

VARIANTS = (
    "assignment",
    "general-matching",
    "b-uniform",
    "b-unconstrained",
    "b-constrained",
    "b-general",
)

# Enumeration guards: coalition enumeration is exponential in the vertex
# count, matching enumeration in the total multiplicity budget.
DEFAULT_COALITION_CAP = 16
DEFAULT_BUDGET_CAP = 24


class CapExceeded(Exception):
    """An enumeration would exceed its configured cap."""


class InfeasibleGameError(Exception):
    """The instance admits no matching within its bounds."""


class SolverInvariantError(Exception):
    """A solver output violated a structural guarantee of its polytope."""


@dataclass(frozen=True)
class GameInstance:
    variant: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    vertex_lower: dict[str, int] = field(default_factory=dict)
    vertex_upper: dict[str, int] = field(default_factory=dict)
    edge_lower: dict[Edge, int] = field(default_factory=dict)
    edge_upper: dict[Edge, int] = field(default_factory=dict)
    name: str = ""
    note: str = ""

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    @property
    def edge_keys(self) -> tuple[Edge, ...]:
        return tuple([(i, j) for i, j, _ in self.edges])

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {q: set() for q in self.vertices}
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def make_game(
    variant: str,
    left: tuple[str, ...] | list[str],
    right: tuple[str, ...] | list[str],
    edges,
    vertex_upper: dict[str, int] | int | None = None,
    vertex_lower: dict[str, int] | None = None,
    edge_upper: dict[Edge, int] | None = None,
    edge_lower: dict[Edge, int] | None = None,
    name: str = "",
    note: str = "",
) -> GameInstance:
    """Build a GameInstance, filling variant defaults for absent bounds.

    Defaults: vertex floors 0, vertex caps 1 (an int ``vertex_upper``
    sets every vertex, as in the uniform variant), edge floors 0, edge
    caps 1 for single-use variants and min(b_i, b_j) where edges repeat.
    """
    left = tuple(left)
    right = tuple(right)
    # A parsed weight is already a Fraction: keep it rather than copy it.
    norm_edges = tuple(
        [(i, j, w if type(w) is Fraction else Fraction(w)) for i, j, w in edges]
    )
    vertices = left + right

    if isinstance(vertex_upper, int):
        b = {q: vertex_upper for q in vertices}
    else:
        b = {q: 1 for q in vertices}
        b.update(vertex_upper or {})
    a = {q: 0 for q in vertices}
    a.update(vertex_lower or {})

    keys = [(i, j) for i, j, _ in norm_edges]
    if variant in ("b-uniform", "b-unconstrained"):
        d = {(i, j): min(b.get(i, 1), b.get(j, 1)) for i, j in keys}
    else:
        d = {k: 1 for k in keys}
    d.update(edge_upper or {})
    c = {k: 0 for k in keys}
    c.update(edge_lower or {})

    return GameInstance(variant, left, right, norm_edges, a, b, c, d, name, note)


def validate_game(g: GameInstance) -> list[str]:
    """Check every instance invariant; return the list of violations.

    An empty list means the instance is well formed.  Violations are
    data, not exceptions: they name the offending vertex or edge.
    """
    bad: list[str] = []
    if g.variant not in VARIANTS:
        return [f"unknown variant {g.variant!r}"]

    seen: set[str] = set()
    for q in g.vertices:
        # "*" means every vertex in a game file, and "~" joins an edge's ends.
        # An id splits to itself alone exactly when it is nonempty and has
        # no whitespace.
        if q.split() != [q] or q == "*" or "~" in q:
            bad.append(f"invalid vertex id {q!r}")
        if q in seen:
            bad.append(f"duplicate vertex id {q!r}")
        seen.add(q)
    if g.variant == "general-matching" and g.left:
        bad.append("general-matching games keep all vertices on one side")

    left, right = set(g.left), set(g.right)
    keys_seen: set[frozenset[str]] = set()
    for i, j, w in g.edges:
        if i == j:
            bad.append(f"self-loop at {i!r}")
            continue
        if g.variant == "general-matching":
            if i not in right or j not in right:
                bad.append(f"edge {i}~{j} uses unknown vertex")
        else:
            if i not in left or j not in right:
                bad.append(f"edge {i}~{j} does not go left to right")
        pair = frozenset((i, j))
        if pair in keys_seen:
            bad.append(f"parallel edge {i}~{j}")
        keys_seen.add(pair)
        # A Fraction's sign is its numerator's: its denominator is positive.
        if (w.numerator if type(w) is Fraction else w) < 0:
            bad.append(f"negative weight on edge {i}~{j}")

    keys = set(g.edge_keys)
    if set(g.vertex_upper) != set(g.vertices):
        bad.append("vertex cap map does not cover exactly the vertices")
    if set(g.vertex_lower) != set(g.vertices):
        bad.append("vertex floor map does not cover exactly the vertices")
    if set(g.edge_upper) != keys:
        bad.append("edge cap map does not cover exactly the edges")
    if set(g.edge_lower) != keys:
        bad.append("edge floor map does not cover exactly the edges")
    else:
        for k in g.edge_keys:
            cl, cu = g.edge_lower.get(k, 0), g.edge_upper.get(k, 1)
            if cl < 0:
                bad.append(f"negative edge floor on {k[0]}~{k[1]}")
            if cu < 1:
                bad.append(f"edge cap below one on {k[0]}~{k[1]}")
            if cl > cu:
                bad.append(f"edge bound order violated on {k[0]}~{k[1]}")

    for q in g.vertices:
        aq, bq = g.vertex_lower.get(q, 0), g.vertex_upper.get(q, 1)
        if bq < 1:
            bad.append(f"vertex cap below one at {q!r}")
        if aq < 0:
            bad.append(f"negative vertex floor at {q!r}")
        if aq > bq:
            bad.append(f"vertex bound order violated at {q!r}")

    if g.variant in ("assignment", "general-matching"):
        if any(b != 1 for b in g.vertex_upper.values()):
            bad.append("single-use variant requires vertex caps of one")
    if g.variant == "b-uniform" and len(set(g.vertex_upper.values())) > 1:
        bad.append("uniform variant requires one common vertex cap")
    if g.variant != "b-general":
        if any(v != 0 for v in g.vertex_lower.values()):
            bad.append("vertex floors are only allowed in the b-general variant")
        if any(v != 0 for v in g.edge_lower.values()):
            bad.append("edge floors are only allowed in the b-general variant")
    if g.variant in ("assignment", "general-matching", "b-constrained"):
        if any(v != 1 for v in g.edge_upper.values()):
            bad.append("single-use edges require edge caps of one")
    if g.variant in ("b-uniform", "b-unconstrained"):
        for (i, j) in g.edge_keys:
            want = min(g.vertex_upper.get(i, 1), g.vertex_upper.get(j, 1))
            if g.edge_upper.get((i, j)) != want:
                bad.append(f"repeatable edge {i}~{j} must carry cap min(b_i, b_j)")
    return bad


def induce_subgame(g: GameInstance, s: Coalition) -> GameInstance:
    """Restrict the game to the vertices in ``s``.

    Keeps exactly the members of ``s`` and the edges with both endpoints
    inside; all bounds are inherited unchanged.  Note that inherited
    vertex floors can make the restricted b-general game infeasible;
    that is surfaced by the matching oracle, not rejected here.
    """
    unknown = s - set(g.vertices)
    if unknown:
        raise ValueError(f"coalition members not in game: {sorted(unknown)}")
    left = tuple([q for q in g.left if q in s])
    right = tuple([q for q in g.right if q in s])
    edges = tuple([(i, j, w) for i, j, w in g.edges if i in s and j in s])
    keys = [(i, j) for i, j, _ in edges]
    return GameInstance(
        g.variant,
        left,
        right,
        edges,
        {q: g.vertex_lower[q] for q in left + right},
        {q: g.vertex_upper[q] for q in left + right},
        {k: g.edge_lower[k] for k in keys},
        {k: g.edge_upper[k] for k in keys},
        g.name,
        g.note,
    )


def check_coalition_cap(g: GameInstance, cap: int) -> None:
    """Raise :class:`CapExceeded` if ``g`` has more than ``cap`` vertices.

    Every path that answers a question about the coalitions of ``g`` calls
    this first, whether or not it goes on to enumerate them.
    """
    n = len(g.vertices)
    if n > cap:
        raise CapExceeded(f"{n} vertices exceed coalition enumeration cap {cap}")


def check_budget_cap(g: GameInstance, budget_cap: int) -> None:
    """Raise :class:`CapExceeded` if ``g``'s vertex caps sum past ``budget_cap``.

    Every search over the integral matchings of ``g`` calls this first.
    """
    budget = sum(g.vertex_upper.values())
    if budget > budget_cap:
        raise CapExceeded(f"total multiplicity budget {budget} exceeds cap {budget_cap}")


def _members(ids: list[str], mask: int) -> Coalition:
    """The coalition of ``mask``, whose bit p stands for ``ids[p]``."""
    return frozenset([q for p, q in enumerate(ids) if mask >> p & 1])


def _connected_masks(g: GameInstance) -> list[int]:
    """Every connected vertex set of ``g`` as a mask, bit p standing for the
    p-th id in descending order, in lexicographic order of the sorted ids.

    Each set grows from its lowest id through its members' later
    neighbours, on a stack of (set, vertices that may join, vertices it
    may never gain); a child adds one joinable vertex and bans those its
    earlier siblings added, so no set comes twice.  The sort ranks a mask
    with every bit below its lowest one set, larger first, prefix first.
    """
    ids = sorted(g.vertices, reverse=True)
    bit = {q: 1 << p for p, q in enumerate(ids)}
    nbr = {bit[q]: sum([bit[r] for r in adj]) for q, adj in g.adjacency().items()}
    found: list[int] = []
    for r in bit.values():
        stack = [(r, nbr[r] & r - 1, -r | nbr[r])]
        while stack:
            s, x, banned = stack.pop()
            found.append(s)
            while x:
                v = x & -x
                x ^= v
                stack.append((s | v, x | nbr[v] & ~banned, banned | nbr[v]))
    n = len(ids)
    found.sort(key=lambda m: (m | (m & -m) - 1) << n | m & -m, reverse=True)
    return found

