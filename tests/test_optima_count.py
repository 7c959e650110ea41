"""The session's count of optimal matchings against independent oracles.

``GameAnalysis`` lists no optimum: it counts them, and how many use each
vertex and edge, in its one table, the residual-capacity
``ResidualTable``, on every game, whatever the coalition cap.  The
oracles here count from the list of ``plain_enumerator.plain_optima`` or
of ``brute_force_optima``, or use a closed form: (2k-1)!! perfect
matchings of K_2k, n! of K_n,n, and, with every vertex cap 2, OEIS
A001499 (b-constrained) and A000681 (b-unconstrained) on K_n,n.  The
states the table reaches on the largest of these are pinned as upper
bounds.
"""

from dataclasses import replace
from fractions import Fraction as F
from math import factorial, prod
from random import Random

import pytest

from matchcore import cli
from matchcore.analysis import GameAnalysis
from matchcore.gamefile import render_game
from matchcore.games import InfeasibleGameError, make_game
from matchcore.matchings import ResidualTable, brute_force_optima, integer_game

from gamegen import random_assignment, random_b_game, random_general, with_vertex_floors
from plain_enumerator import plain_labels, plain_optima
from worth_oracles import searched_worth

B_VARIANTS = ("b-uniform", "b-unconstrained", "b-constrained", "b-general")


def unit_weights(g):
    """``g`` with every weight 1: ties give many optima and viable labels."""
    return replace(g, edges=tuple([(i, j, F(1)) for i, j, _ in g.edges]))


def seeded_games():
    rng = Random(61)
    games = []
    for _ in range(6):
        games.append(random_assignment(rng, max_side=4, density=0.7))
        games.append(random_general(rng, max_n=7, density=0.55))
        for variant in B_VARIANTS:
            games.append(random_b_game(rng, variant))
        floored = random_b_game(rng, "b-general", with_floors=True)
        games.append(floored)
        games.append(with_vertex_floors(rng, floored))
    return games + [unit_weights(g) for g in games]


SEEDED = seeded_games()


def single_use(g):
    """Is every vertex and edge of ``g`` used at most once, with no floor?"""
    return (
        set(g.vertex_upper.values()) <= {1}
        and all(d >= 1 for d in g.edge_upper.values())
        and not any(g.vertex_lower.values())
        and not any(g.edge_lower.values())
    )


@pytest.mark.parametrize("cap", [16, 3])
@pytest.mark.parametrize("index", range(0, len(SEEDED), 16))
def test_session_counts_the_plain_optima(monkeypatch, index, cap):
    # One table counts every game, single-use or not, whatever the
    # coalition cap, once per session.
    counted = []
    count = ResidualTable.count
    monkeypatch.setattr(
        ResidualTable, "count", lambda self: counted.append(1) or count(self)
    )
    for g in SEEDED[index:index + 16]:
        best, optima = plain_optima(g)
        a = GameAnalysis(g, cap=cap)
        counted.clear()
        if best is None:
            with pytest.raises(InfeasibleGameError, match="to classify against"):
                a.labels
        else:
            got = (a.labels, a.optima_count, a.worth)
            assert got == (plain_labels(g, optima), len(optima), best), g
        assert counted == [1], g


def listed_count(g):
    """The worth of ``g`` and its optima's (total, per-edge uses,
    per-vertex uses), counted from the list of ``brute_force_optima``;
    None if floors admit no matching."""
    return uses(g, *brute_force_optima(g))


def uses(g, best, optima):
    """``best`` and the (total, per-edge uses, per-vertex uses) of ``optima``."""
    if best is None:
        return None
    used = [dict(m.multiplicities) for m in optima]
    edges = [sum(1 for m in used if k in m) for k in g.edge_keys]
    vertices = [sum(1 for m in used if any(q in k for k in m)) for q in g.vertices]
    return best, len(optima), edges, vertices


def counted(g):
    """The worth of ``g`` and its optima's (total, per-edge uses,
    per-vertex uses), counted by its residual table; None if floors
    admit no matching."""
    ig = integer_game(g)
    got = ResidualTable(ig, len(g.left)).count()
    if got is None:
        return None
    best, count = got
    return F(best, ig.scale), count.total, count.edges, count.vertices


def test_the_two_counts_agree_on_single_use_games():
    # The table's count and the listing search's agree on single-use games,
    # which once had a table of their own.
    games = [g for g in SEEDED if single_use(g)]
    for g in games:
        assert counted(g) == listed_count(g), g
    assert len(games) >= 20


def test_residual_table_counts_the_listed_optima():
    # Every other game: the total and every edge's and vertex's uses,
    # floors and infeasible floors included.
    games = [g for g in SEEDED if not single_use(g)]
    for g in games:
        assert counted(g) == listed_count(g), g
    assert len(games) >= 50
    assert any(listed_count(g) is None for g in games)
    assert any(any(g.edge_lower.values()) for g in games)


def test_seeded_games_cover_both_paths_and_infeasible_floors():
    variants = {g.variant for g in SEEDED}
    assert variants == {"assignment", "general-matching", *B_VARIANTS}
    assert any(single_use(g) for g in SEEDED)
    assert not all(single_use(g) for g in SEEDED)
    assert any(plain_optima(g)[0] is None for g in SEEDED)
    assert max(len(plain_optima(g)[1]) for g in SEEDED) >= 10


def complete_graph(n):
    vs = [f"v{i + 1}" for i in range(n)]
    edges = [(a, b, 1) for i, a in enumerate(vs) for b in vs[i + 1:]]
    return make_game("general-matching", [], vs, edges)


def complete_bipartite(n):
    left = [f"u{i + 1}" for i in range(n)]
    right = [f"v{i + 1}" for i in range(n)]
    return make_game("assignment", left, right, [(u, v, 1) for u in left for v in right])


def table_count(g):
    """The number of optima of unit-weight single-use ``g`` and its worth,
    from its table."""
    best, got = ResidualTable(integer_game(g), len(g.left)).count()
    return got.total, best


@pytest.mark.parametrize("k", range(1, 9))
def test_unit_complete_graph_has_double_factorial_optima(k):
    a = GameAnalysis(complete_graph(2 * k))
    want = prod(range(1, 2 * k, 2))
    assert (a.optima_count, a.worth) == table_count(complete_graph(2 * k)) == (want, k)
    # Every vertex is matched in every optimum; every edge in some.
    assert set(a.labels[0].values()) == {"essential"}
    assert set(a.labels[1].values()) == ({"essential"} if k == 1 else {"viable"})
    if k <= 4:  # the listing search agrees
        assert len(brute_force_optima(complete_graph(2 * k))[1]) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_unit_complete_bipartite_graph_has_factorial_optima(n):
    a = GameAnalysis(complete_bipartite(n))
    want = (factorial(n), n)
    assert (a.optima_count, a.worth) == table_count(complete_bipartite(n)) == want
    if n <= 5:  # the listing search agrees
        assert len(brute_force_optima(complete_bipartite(n))[1]) == factorial(n)


def test_a_small_coalition_cap_does_not_change_how_optima_are_counted():
    # Unit K_14 has 135,135 optima: a listing search would visit each, the
    # count reaches 987 vertex subsets.
    a = GameAnalysis(complete_graph(14), cap=3)
    assert (a.optima_count, a.worth) == (135135, 7)


def capped_complete_bipartite(variant, n, b):
    """Unit-weight K_n,n with every vertex cap ``b``."""
    left = [f"u{i + 1}" for i in range(n)]
    right = [f"v{i + 1}" for i in range(n)]
    edges = [(u, v, 1) for u in left for v in right]
    return make_game(variant, left, right, edges, vertex_upper=b)


def general_in_order(order, edges):
    """A general game whose vertices are declared in ``order``."""
    return make_game("general-matching", [], order, edges)


# General games are processed in their declared order: a star with its
# centre last, first and in the middle, a path with a pendant declared
# last and first, and a triangle with a tail.  Between them, a vertex
# other than the last has no later neighbour, so it is only checked at
# the leaf, and a vertex has an earlier and a later neighbour, or is the
# centre of a star declared last, so an earlier vertex can use up its
# capacity before its turn.
ORDER_GAMES = [
    general_in_order(["l1", "l2", "l3", "c"], [("l1", "c", 2), ("l2", "c", 3), ("c", "l3", 3)]),
    general_in_order(["c", "l1", "l2", "l3"], [("c", "l1", 2), ("c", "l2", 3), ("l3", "c", 1)]),
    general_in_order(
        ["l1", "c", "l2", "l3", "d"],
        [("l1", "c", 2), ("c", "l2", 2), ("c", "l3", 1), ("l3", "d", 1)],
    ),
    general_in_order(
        ["a", "b", "c", "d", "e"],
        [("a", "b", 2), ("b", "c", 3), ("c", "d", 2), ("b", "e", 1)],
    ),
    general_in_order(
        ["e", "a", "b", "c", "d"],
        [("a", "b", 2), ("b", "c", 3), ("c", "d", 2), ("b", "e", 1)],
    ),
    general_in_order(
        ["x", "y", "z", "t", "s"],
        [("x", "y", 2), ("y", "z", 2), ("x", "z", 3), ("z", "t", 1), ("s", "x", 1)],
    ),
]
ORDER_GAMES += [unit_weights(g) for g in ORDER_GAMES]


def general_b_matching(g):
    """``g`` with every vertex and edge cap 2 and its second vertex's floor 1.
    No variant has these bounds, but the table takes them: a vertex used
    before its turn still has capacity then, and its floor asks for less."""
    return replace(
        g,
        vertex_upper={q: 2 for q in g.vertices},
        vertex_lower={**g.vertex_lower, g.vertices[1]: 1},
        edge_upper={k: 2 for k in g.edge_keys},
    )


ORDER_GAMES += [general_b_matching(g) for g in ORDER_GAMES]


def test_order_games_hold_both_cases():
    idle, spent = 0, 0
    for g in ORDER_GAMES:
        rank = {q: p for p, q in enumerate(g.vertices)}
        adj = g.adjacency()
        for q in g.vertices:
            before = sum(rank[r] < rank[q] for r in adj[q])
            after = len(adj[q]) - before
            idle += after == 0 and q != g.vertices[-1]
            spent += before > 0 and (after > 0 or before > 1)
    assert idle and spent


@pytest.mark.parametrize("index", range(len(ORDER_GAMES)))
def test_declared_order_counts_and_worths_are_exact(index):
    # The count against the plain listing, and every coalition's worth,
    # connected or not, against the listing search of its subgame.
    g = ORDER_GAMES[index]
    ig = integer_game(g)
    table = ResidualTable(ig, len(g.left))
    got = table.count()
    if got is not None:
        best, count = got
        got = (F(best, ig.scale), count.total, count.edges, count.vertices)
    assert got == uses(g, *plain_optima(g))
    for mask in range(1 << len(g.vertices)):
        state = sum([x for p, x in enumerate(table.start) if mask >> p & 1])
        assert table.worth(state) == searched_worth(ig, mask), mask


# The states today's table reaches, pinned as upper bounds: the same as
# the subset table (general games) and the residual table (b-games) it
# replaced.
@pytest.mark.parametrize(
    "g,most",
    [
        (complete_graph(16), 2584),
        (complete_graph(20), 17711),
        (capped_complete_bipartite("b-constrained", 6, 2), 2728),
        (capped_complete_bipartite("b-unconstrained", 6, 2), 2734),
    ],
    ids=["K16", "K20", "K66-b-constrained", "K66-b-unconstrained"],
)
def test_the_count_reaches_no_more_states_than_before(g, most):
    table = ResidualTable(integer_game(g), len(g.left))
    assert table.count() is not None
    assert table.states <= most


# With b = 2 every optimum uses each vertex twice: an n x n matrix with
# every row and column sum 2, its entries 0 or 1 where each edge is used
# at most once (OEIS A001499), any nonnegative integer where edges
# repeat (A000681).
@pytest.mark.parametrize(
    "variant,n,want",
    [
        ("b-constrained", 3, 6),
        ("b-constrained", 4, 90),
        ("b-constrained", 5, 2040),
        ("b-constrained", 6, 67950),
        ("b-unconstrained", 3, 21),
        ("b-unconstrained", 4, 282),
        ("b-unconstrained", 5, 6210),
        ("b-unconstrained", 6, 202410),
    ],
)
def test_unit_complete_bipartite_b2_counts_are_the_closed_forms(variant, n, want):
    a = GameAnalysis(capped_complete_bipartite(variant, n, 2))
    assert (a.optima_count, a.worth) == (want, 2 * n)
    # Every vertex is used in every optimum; every edge in some.
    assert set(a.labels[0].values()) == {"essential"}
    assert set(a.labels[1].values()) == {"viable"}


@pytest.mark.parametrize(
    "variant,want", [("b-constrained", 67950), ("b-unconstrained", 202410)]
)
def test_unit_k66_b2_is_classified_inside_the_default_caps(
    capsys, tmp_path, variant, want
):
    # 12 vertices and a budget of 24 are within the default caps: the
    # residual table counts the optima over 2,728 or 2,734 states.
    path = tmp_path / "k66.game"
    path.write_text(render_game(capped_complete_bipartite(variant, 6, 2)))
    assert cli.main(["classify", "--game", str(path)]) == 0
    assert f"optimal-matchings = {want}" in capsys.readouterr().out.splitlines()
