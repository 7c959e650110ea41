from fractions import Fraction as F
from random import Random

import pytest

from matchcore.analysis import PAYMENT_VARIANTS, GameAnalysis, meet_join, worth
from matchcore.bmatching import imputation_from_dual
from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamelp import dual_is_optimal, solve_dual
from matchcore.games import make_game

from gamegen import named_dual, random_assignment, random_general


def imp(g, *values):
    return dict(zip(g.vertices, (F(v) for v in values)))


def test_worth_tiers8():
    g = load_instance("tiers8")
    assert worth(g) == 202
    assert worth(g, frozenset({"u1", "u2", "v1", "v2"})) == 200
    assert worth(g, frozenset()) == 0


def test_dual_imputations_of_named_instances():
    for name, values in (
        ("path5", (1, 1, 0, F(1, 10), 0)),
        ("tritail4", (1, F(1, 2), F(1, 2), 0)),
        ("ring7", (0, 1, 0, 1, 0, 1, 1)),
    ):
        a = GameAnalysis(load_instance(name))
        _, y = solve_dual(a.g)
        assert imputation_from_dual(a, y) == imp(a.g, *values)


def test_dual_imputation_requires_optimality():
    a = GameAnalysis(load_instance("k3"))  # fractional optimum exceeds the worth
    _, y = solve_dual(a.g)
    with pytest.raises(ValueError, match="not optimal"):
        imputation_from_dual(a, y)


def test_dual_imputation_rejects_infeasible_dual_with_the_right_total():
    # (8, 0, 0, 0) sums to the worth 8 but leaves u2~v2 uncovered; read as
    # profits it is blocked by the coalition {u2, v2}.
    g = make_game("assignment", ["u1", "u2"], ["v1", "v2"],
                  [("u1", "v1", 5), ("u2", "v2", 3)])
    a = GameAnalysis(g)
    y = named_dual(y=imp(g, 8, 0, 0, 0))
    assert a.membership(imp(g, 8, 0, 0, 0)).witness == {"u2", "v2"}
    with pytest.raises(ValueError, match="not optimal"):
        imputation_from_dual(a, y)


def test_is_core_imputation_tiers8():
    g = load_instance("tiers8")
    good = imp(g, 51, 51, 0, 0, 50, 50, 0, 0)
    assert GameAnalysis(g).membership(good).in_core
    half = F(101, 2)
    bad = imp(g, half, half, 0, 0, half, half, 0, 0)
    got = GameAnalysis(g).membership(bad)
    assert not got.in_core
    assert got.witness == frozenset({"u1", "v3"})


def test_is_core_imputation_k3():
    g = load_instance("k3")
    third = F(1, 3)
    got = GameAnalysis(g).membership(imp(g, third, third, third))
    assert not got.in_core
    assert got.witness is not None and len(got.witness) == 2


def test_is_core_rejects_bad_sum_and_sign():
    g = load_instance("path5")
    a = GameAnalysis(g)
    got = a.membership(imp(g, 1, 1, 0, 0, 0))
    assert not got.in_core and got.witness == frozenset(g.vertices)
    got = a.membership(imp(g, 2, 1, 0, F(-9, 10), 0))
    assert not got.in_core and got.witness == frozenset({"v2"})


def test_concurrency_reports():
    k3 = GameAnalysis(load_instance("k3"))
    assert (k3.worth, k3.fractional, k3.concurrent) == (F(1), F(3, 2), False)
    t4 = GameAnalysis(load_instance("tritail4"))
    assert (t4.worth, t4.fractional, t4.concurrent) == (F(2), F(2), True)
    r7 = GameAnalysis(load_instance("ring7"))
    assert (r7.worth, r7.fractional, r7.concurrent) == (F(4), F(4), True)


def test_paid_sometimes_cases():
    r7 = GameAnalysis(load_instance("ring7"))
    got = r7.vertex_payment("v7")
    assert (got > 0, got) == (True, F(1))
    t4 = GameAnalysis(load_instance("tritail4"))
    got = t4.vertex_payment("v4")
    assert (got > 0, got) == (False, F(0))
    p5 = GameAnalysis(load_instance("path5"))
    assert not p5.vertex_payment("v1") > 0
    f3 = GameAnalysis(load_instance("fork3"))
    assert f3.vertex_payment("u") == F(11, 10)


def test_payment_queries_report_empty_core():
    k3 = GameAnalysis(load_instance("k3"))
    assert k3.vertex_payment("v1") is None
    assert k3.edge_payment(("v1", "v2")) is None
    assert k3.payments is None


def test_always_fairly_paid_cases():
    r7 = GameAnalysis(load_instance("ring7"))
    got = r7.edge_payment(("v1", "v2"))
    assert (got == 0, got) == (True, F(0))
    got = r7.edge_payment(("v4", "v7"))
    assert (got == 0, got) == (False, F(1))
    single = make_game("assignment", ["u"], ["v"], [("u", "v", F(7))])
    got = GameAnalysis(single).edge_payment(("u", "v"))
    assert (got == 0, got) == (True, F(0))


def test_payment_report_matches_pointwise():
    # Each point query on a fresh session agrees with the report: both
    # read the one octagon of their session.
    names = [n for n in INSTANCE_NAMES if load_instance(n).variant in PAYMENT_VARIANTS]
    assert len(names) == 7
    for name in names:
        g = load_instance(name)
        rep = GameAnalysis(g).payments  # None where the core is empty, as each query
        vertices = dict.fromkeys(g.vertices) if rep is None else rep.vertices
        edges = dict.fromkeys(g.edge_keys) if rep is None else rep.edges
        for q in g.vertices:
            assert vertices[q] == GameAnalysis(g).vertex_payment(q), (name, q)
        for k in g.edge_keys:
            assert edges[k] == GameAnalysis(g).edge_payment(k), (name, k)


def test_profit_bounds_unique_point():
    g = load_instance("path5")
    a = GameAnalysis(g)
    expected = imp(g, 1, 1, 0, F(1, 10), 0)
    for q in g.vertices:
        assert a.profit_bounds(q) == (expected[q], expected[q])


@pytest.mark.parametrize("query", ["vertex_payment", "profit_bounds"])
def test_vertex_queries_reject_an_unknown_vertex(query):
    a = GameAnalysis(load_instance("web5"))
    with pytest.raises(ValueError, match="unknown vertex 'nope'"):
        getattr(a, query)("nope")


def test_antipodal_web5():
    g = load_instance("web5")
    left_best, right_best = GameAnalysis(g).antipodal
    tenth, nine = F(1, 10), F(9, 10)
    assert left_best == imp(g, tenth, tenth, 0, nine, nine)
    assert right_best == imp(g, 0, 0, 0, 1, 1)


def test_antipodal_collapses_on_point_core():
    g = load_instance("path5")
    left_best, right_best = GameAnalysis(g).antipodal
    assert left_best == right_best == imp(g, 1, 1, 0, F(1, 10), 0)


def test_meet_join_web5():
    a = GameAnalysis(load_instance("web5"))
    left_best, right_best = a.antipodal
    meet, join = meet_join(a, left_best, right_best)
    assert meet == right_best
    assert join == left_best
    meet, join = meet_join(a, left_best, left_best)
    assert meet == join == left_best


def test_meet_join_tiers8_swaps_antipodals():
    a = GameAnalysis(load_instance("tiers8"))
    left_best, right_best = a.antipodal
    meet, join = meet_join(a, left_best, right_best)
    assert meet == right_best
    assert join == left_best


def test_meet_join_rejects_non_core_input():
    g = load_instance("web5")
    with pytest.raises(ValueError):
        meet_join(GameAnalysis(g), imp(g, 2, 0, 0, 0, 0), imp(g, 0, 0, 0, 1, 1))


def viable(a):
    """The viable vertices and edges of ``a.g``, in declared order."""
    vlabels, elabels = a.labels
    return (
        [q for q in a.g.vertices if vlabels[q] == "viable"],
        [k for k in a.g.edge_keys if elabels[k] == "viable"],
    )


def test_degeneracy_ring7():
    a = GameAnalysis(load_instance("ring7"))
    assert a.optima_count > 1 and a.optima_count == 3
    assert viable(a)[0] == ["v1", "v3", "v5"]
    assert all([a.payments.vertices[q] == 0 for q in viable(a)[0]])


def test_degeneracy_path5_and_single_edge():
    a = GameAnalysis(load_instance("path5"))
    assert a.optima_count > 1 and a.optima_count == 2
    assert viable(a)[0] == ["v1", "v3"]
    single = make_game("assignment", ["u"], ["v"], [("u", "v", F(7))])
    a = GameAnalysis(single)
    assert not a.optima_count > 1
    assert viable(a) == ([], [])


def core_equals_optimal_dual(g, candidate):
    y = named_dual(y=candidate)
    return dual_is_optimal(g, y, worth(g))


def test_core_equals_optimal_duals_on_random_games():
    rng = Random(53)
    checked = 0
    while checked < 35:
        g = random_assignment(rng, max_side=3)
        if not g.edges:
            continue
        checked += 1
        a = GameAnalysis(g)
        _, y = solve_dual(g)
        base = imputation_from_dual(a, y)
        candidates = [base]
        vs = sorted(g.vertices)
        for _ in range(3):
            cand = dict(base)
            gain, loss = rng.sample(vs, 2) if len(vs) > 1 else (vs[0], vs[0])
            delta = F(rng.randint(0, 2), 2)
            cand[gain] += delta
            cand[loss] -= delta
            candidates.append(cand)
        for cand in candidates:
            if any(v < 0 for v in cand.values()):
                continue
            lhs = a.membership(cand).in_core
            rhs = core_equals_optimal_dual(g, cand)
            assert lhs == rhs


def test_payment_equivalences_on_random_games():
    rng = Random(59)
    checked = 0
    while checked < 25:
        g = random_assignment(rng, max_side=3)
        if not g.edges:
            continue
        checked += 1
        a = GameAnalysis(g)
        vlabels, elabels = a.labels
        rep = a.payments
        for q in g.vertices:
            assert (rep.vertices[q] > 0) == (vlabels[q] == "essential")
        for k in g.edge_keys:
            assert (rep.edges[k] == 0) == (elabels[k] != "subpar")
        if not a.optima_count > 1:
            assert not [q for q in g.vertices if vlabels[q] == "viable"]
            assert not [k for k in g.edge_keys if elabels[k] == "viable"]


def test_essential_players_collect_everything():
    rng = Random(61)
    checked = 0
    while checked < 20:
        g = random_assignment(rng, max_side=3)
        if not g.edges:
            continue
        checked += 1
        a = GameAnalysis(g)
        vlabels, _ = a.labels
        _, y = solve_dual(g)
        base = imputation_from_dual(a, y)
        essential_total = sum(
            (base[q] for q in g.vertices if vlabels[q] == "essential"), start=F(0)
        )
        assert essential_total == worth(g)


def test_gen_insights_one_directional_on_concurrent_games():
    rng = Random(67)
    concurrent_seen = 0
    for _ in range(60):
        g = random_general(rng, max_n=5)
        a = GameAnalysis(g)
        if not g.edges or not a.concurrent:
            continue
        concurrent_seen += 1
        vlabels, elabels = a.labels
        rep = a.payments
        for q in g.vertices:
            if rep.vertices[q] > 0:
                assert vlabels[q] == "essential"
        for k in g.edge_keys:
            if elabels[k] != "subpar":
                assert rep.edges[k] == 0
    assert concurrent_seen >= 10
