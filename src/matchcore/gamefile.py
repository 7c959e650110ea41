"""Self-describing text format for game instances.

One directive per line, ``#`` comments allowed::

    variant: b-constrained
    name: bpath4-con
    note: free text, one line
    left: u1 u2
    right: v1 v2
    edge: u1 v1 1
    edge: u1 v2 3
    b: u1 2            # vertex cap ('*' sets every vertex)
    a: u1 1            # vertex floor (b-general only)
    cap: u1 v1 2       # edge cap (b-general only)
    floor: u1 v1 1     # edge floor (b-general only)

General-matching games list every vertex under ``vertices:`` instead of
``left:``/``right:``.  Omitted bounds take the variant defaults; the
renderer omits everything derivable, so parse(render(g)) == g.
"""

from __future__ import annotations

from fractions import Fraction

from .games import GameInstance, VARIANTS, make_game, validate_game
from .rationals import format_rational, parse_rational


class GameFileError(Exception):
    """Malformed game document; the message carries the line number."""


def _tokens(value: str, where: str, n: int | None = None) -> list[str]:
    toks = value.split()
    if n is not None and len(toks) != n:
        raise GameFileError(f"{where}: expected {n} fields, got {len(toks)}")
    return toks


def parse_game(text: str) -> GameInstance:
    """Parse and validate a game document.

    Raises :class:`GameFileError` with the offending line for syntax
    problems; instance-invariant violations found by validation are
    forwarded in the same way.
    """
    variant = None
    name = ""
    note = ""
    left: list[str] = []
    right: list[str] = []
    vertices_line = False
    edges: list[tuple[str, str, Fraction]] = []
    pairs: set[frozenset[str]] = set()  # each edge's ends, unordered
    b_lines: list[tuple[str, int]] = []
    b_star: int | None = None
    a_lines: list[tuple[str, int]] = []
    cap_lines: list[tuple[str, str, int]] = []
    floor_lines: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if ":" not in line:
            raise GameFileError(f"{where}: expected 'directive: value'")
        head, _, value = line.partition(":")
        head = head.strip()
        value = value.strip()
        if head == "variant":
            if value not in VARIANTS:
                raise GameFileError(f"{where}: unknown variant {value!r}")
            variant = value
        elif head == "name":
            name = value
        elif head == "note":
            note = value
        elif head == "left":
            left = _tokens(value, where)
        elif head == "right":
            right = _tokens(value, where)
        elif head == "vertices":
            right = _tokens(value, where)
            vertices_line = True
        elif head == "edge":
            toks = _tokens(value, where, 3)
            try:
                w = parse_rational(toks[2])
            except ValueError as exc:
                raise GameFileError(f"{where}: {exc}") from exc
            pair = frozenset(toks[:2])
            if pair in pairs:
                raise GameFileError(f"{where}: duplicate edge {toks[0]} {toks[1]}")
            pairs.add(pair)
            edges.append((toks[0], toks[1], w))
        elif head == "b":
            toks = _tokens(value, where, 2)
            if toks[0] == "*":
                b_star = _int(toks[1], where)
            else:
                b_lines.append((toks[0], _int(toks[1], where)))
        elif head == "a":
            toks = _tokens(value, where, 2)
            a_lines.append((toks[0], _int(toks[1], where)))
        elif head == "cap":
            toks = _tokens(value, where, 3)
            cap_lines.append((toks[0], toks[1], _int(toks[2], where)))
        elif head == "floor":
            toks = _tokens(value, where, 3)
            floor_lines.append((toks[0], toks[1], _int(toks[2], where)))
        else:
            raise GameFileError(f"{where}: unknown directive {head!r}")

    if variant is None:
        raise GameFileError("missing 'variant:' directive")
    if variant == "general-matching" and not vertices_line and left:
        raise GameFileError("general-matching games use 'vertices:'")

    all_vertices = tuple(left) + tuple(right)
    for q, _ in b_lines + a_lines:
        if q not in all_vertices:
            raise GameFileError(f"bound for unknown vertex {q!r}")
    keys = [(i, j) for i, j, _ in edges]
    for i, j, _v in cap_lines + floor_lines:
        if (i, j) not in keys:
            raise GameFileError(f"bound for unknown edge {i} {j}")

    vertex_upper: dict[str, int] | int | None
    if b_star is not None:
        vertex_upper = {q: b_star for q in all_vertices}
        vertex_upper.update(dict(b_lines))
    elif b_lines:
        vertex_upper = dict(b_lines)
    else:
        vertex_upper = None
    g = make_game(
        variant,
        tuple(left),
        tuple(right),
        edges,
        vertex_upper=vertex_upper,
        vertex_lower=dict(a_lines) or None,
        edge_upper={(i, j): v for i, j, v in cap_lines} or None,
        edge_lower={(i, j): v for i, j, v in floor_lines} or None,
        name=name,
        note=note,
    )
    violations = validate_game(g)
    if violations:
        raise GameFileError("invalid game: " + "; ".join(violations))
    return g


def _int(tok: str, where: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise GameFileError(f"{where}: expected an integer, got {tok!r}") from exc


def render_game(g: GameInstance) -> str:
    """Canonical document for ``g``; omits every derivable default."""
    lines = [f"variant: {g.variant}"]
    if g.name:
        lines.append(f"name: {g.name}")
    if g.note:
        lines.append(f"note: {g.note}")
    if g.variant == "general-matching":
        lines.append("vertices: " + " ".join(g.right))
    else:
        lines.append("left: " + " ".join(g.left))
        lines.append("right: " + " ".join(g.right))
    for i, j, w in g.edges:
        lines.append(f"edge: {i} {j} {format_rational(w)}")
    caps = set(g.vertex_upper.values())
    if caps == {1}:
        pass
    elif g.variant == "b-uniform" and len(caps) == 1:
        lines.append(f"b: * {caps.pop()}")
    else:
        for q in g.vertices:
            if g.vertex_upper[q] != 1:
                lines.append(f"b: {q} {g.vertex_upper[q]}")
    for q in g.vertices:
        if g.vertex_lower.get(q, 0) != 0:
            lines.append(f"a: {q} {g.vertex_lower[q]}")
    if g.variant == "b-general":
        for i, j in g.edge_keys:
            if g.edge_upper[(i, j)] != 1:
                lines.append(f"cap: {i} {j} {g.edge_upper[(i, j)]}")
    for i, j in g.edge_keys:
        if g.edge_lower.get((i, j), 0) != 0:
            lines.append(f"floor: {i} {j} {g.edge_lower[(i, j)]}")
    return "\n".join(lines) + "\n"
