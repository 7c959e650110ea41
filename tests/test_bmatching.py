from fractions import Fraction as F
from random import Random

import pytest

from matchcore.analysis import (
    GameAnalysis,
    core_membership_via_system,
    meet_join,
    worth,
)
from matchcore.bmatching import (
    B_VARIANTS,
    ProfitSignError,
    all_coalition_system,
    imputation_from_dual,
    in_dual_image,
    sample_core_imputations,
)
from matchcore.bundled import load_instance
from matchcore.gamelp import solve_dual
from matchcore.games import make_game

from gamegen import (
    named_dual,
    random_assignment,
    random_b_game,
    random_general,
    vertex_prices,
)
from lp_oracles import dual_is_optimal
from scaling_oracle import in_scaled_image, scaled_dual

Z = F(0)
LEFT, RIGHT, HALF = F(1), F(0), F(1, 2)  # split shares


def imp(g, *values):
    return dict(zip(g.vertices, (F(v) for v in values)))


def test_uniform_forward_and_inverse():
    g = load_instance("path5-b2")
    a = GameAnalysis(g)
    assert a.worth == F(21, 5)
    _, y = solve_dual(g)
    profits = imputation_from_dual(a, y)
    assert profits == imp(g, 2, 2, 0, F(1, 5), 0)
    assert in_dual_image(a, profits) and in_scaled_image(g, profits)
    back = scaled_dual(g, profits)
    assert back == named_dual(y={
        "u1": F(1),
        "u2": F(1),
        "v1": Z,
        "v2": F(1, 10),
        "v3": Z,
    })


def test_uniform_cap_one_reduces_to_identity():
    g = make_game(
        "b-uniform",
        ["u"],
        ["v1", "v2"],
        [("u", "v1", F(1)), ("u", "v2", F(11, 10))],
        vertex_upper=1,
    )
    _, y = solve_dual(g)
    assert imputation_from_dual(GameAnalysis(g), y) == vertex_prices(g, y)


def test_uniform_inverse_rejects_non_core():
    g = load_instance("path5-b2")
    assert not in_scaled_image(g, imp(g, F(21, 5), 0, 0, 0, 0))
    assert not in_dual_image(GameAnalysis(g), imp(g, F(21, 5), 0, 0, 0, 0))


def test_uncon_imputation_bpath4():
    g = load_instance("bpath4-uncon")
    _, y = solve_dual(g)
    assert y == named_dual(y={"u1": F(1), "u2": Z, "v1": Z, "v2": F(2)})
    assert imputation_from_dual(GameAnalysis(g), y) == imp(g, 2, 0, 0, 2)


def test_uncon_single_edge_scaling():
    w = F(7, 2)
    g = make_game(
        "b-unconstrained",
        ["u"],
        ["v"],
        [("u", "v", w)],
        vertex_upper={"u": 3, "v": 2},
    )
    a = GameAnalysis(g)
    assert a.worth == 2 * w
    _, y = solve_dual(g)
    # the cheap side carries the price: min 3u + 2v forces (0, w)
    assert y == named_dual(y={"u": Z, "v": w})
    assert imputation_from_dual(a, y) == {"u": Z, "v": 2 * w}


def test_in_dual_image_uncon_cases():
    g = load_instance("bpath4-uncon")
    a = GameAnalysis(g)
    assert in_dual_image(a, imp(g, 2, 0, 0, 2))
    assert not in_dual_image(a, imp(g, 3, 0, 0, 1))
    assert not in_dual_image(a, imp(g, 2, 0, 1, 1))


def test_uncon_core_strictly_exceeds_dual_image():
    a = GameAnalysis(load_instance("bpath4-uncon"))
    outside = imp(a.g, 3, 0, 0, 1)
    assert core_membership_via_system(a.system, outside).in_core
    assert not in_dual_image(a, outside)


def test_con_imputations_from_dual_family():
    g = load_instance("bpath4-con")
    heavy = ("u1", "v2")
    y1 = named_dual(
        y={"u1": F(1), "u2": Z, "v1": Z, "v2": F(1)},
        z={k: (F(1) if k == heavy else Z) for k in g.edge_keys},
    )
    assert dual_is_optimal(g, y1, F(4))
    a = GameAnalysis(g)
    assert imputation_from_dual(a, y1, LEFT) == imp(g, 3, 0, 0, 1)
    assert imputation_from_dual(a, y1, RIGHT) == imp(g, 2, 0, 0, 2)
    assert imputation_from_dual(a, y1, HALF) == imp(
        g, F(5, 2), 0, 0, F(3, 2)
    )
    y0 = named_dual(
        y={"u1": F(1), "u2": Z, "v1": Z, "v2": F(2)},
        z={k: Z for k in g.edge_keys},
    )
    assert imputation_from_dual(a, y0, LEFT) == imp(g, 2, 0, 0, 2)


def test_con_split_must_match_dual():
    a = GameAnalysis(load_instance("bpath4-con"))
    _, y = a.dual
    for share in (F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError, match="outside"):
            imputation_from_dual(a, y, share)
    with pytest.raises(ValueError):
        imputation_from_dual(a, y)  # the positive edge price needs a split


def test_con_dual_image_family_points():
    g = load_instance("bpath4-con")
    a = GameAnalysis(g)
    for b in (Z, F(1, 2), F(1)):
        assert in_dual_image(a, imp(g, 3 - b, 0, 0, 1 + b))


def test_con_dual_image_reaches_beyond_listed_family():
    # Certificate: prices (0,0,0,3) with edge price 1 on u1~v1 are optimal
    # (objective 4), and splitting that edge price to either endpoint
    # yields (1,0,0,3) and (0,0,1,3).  Both are therefore in the image.
    g = load_instance("bpath4-con")
    y = named_dual(
        y={"u1": Z, "u2": Z, "v1": Z, "v2": F(3)},
        z={
            ("u1", "v1"): F(1),
            ("u1", "v2"): Z,
            ("u2", "v2"): Z,
        },
    )
    assert dual_is_optimal(g, y, F(4))
    a = GameAnalysis(g)
    assert imputation_from_dual(a, y, LEFT) == imp(g, 1, 0, 0, 3)
    assert imputation_from_dual(a, y, RIGHT) == imp(g, 0, 0, 1, 3)
    assert in_dual_image(a, imp(g, 1, 0, 0, 3))
    assert in_dual_image(a, imp(g, 0, 0, 1, 3))


def test_con_dual_image_rejects_non_imputations():
    g = load_instance("bpath4-con")
    a = GameAnalysis(g)
    assert not in_dual_image(a, imp(g, 4, 0, 0, 1))  # wrong total
    assert not in_dual_image(a, imp(g, 4, 0, 0, 0))  # core violation too


def test_dual_image_needs_one_profit_per_vertex():
    # As in the membership test: a missing vertex and an extra key (left
    # out of the LP's rows but counted in the total) are both errors.
    g = load_instance("bpath4-con")
    a = GameAnalysis(g)
    good = imp(g, 2, 0, 0, 2)
    assert in_dual_image(a, good)
    missing = {q: p for q, p in good.items() if q != "u2"}
    extra = {**good, "x": Z}
    for bad in (missing, extra):
        for check in (a.membership, lambda p: in_dual_image(a, p)):
            with pytest.raises(ValueError, match="keys do not match"):
                check(bad)


def test_a_vertex_keyed_dual_is_rejected():
    # A dual is keyed by column name: read by name, a dict keyed by vertex
    # would be the all-zero dual, so a key that names no column fails.
    g = load_instance("bpath4-uncon")
    a = GameAnalysis(g)
    by_vertex = {"u1": F(1), "u2": Z, "v1": Z, "v2": F(2)}
    assert dual_is_optimal(g, named_dual(y=by_vertex), F(4))
    for y in (by_vertex, {**named_dual(y=by_vertex), "u1": Z}):
        assert not dual_is_optimal(g, y, F(4))
        with pytest.raises(ValueError, match="not optimal"):
            imputation_from_dual(a, y)


def test_coalition_system_rhs_by_variant():
    gu = load_instance("bpath4-uncon")
    su = GameAnalysis(gu).system
    rhs = {tuple(sorted(s)): v for s, v in su.inequalities}
    assert rhs[("u1", "v1")] == 2  # repeatable edge used twice
    assert rhs[("u1", "v2")] == 3
    assert rhs[("u1", "v1", "v2")] == 4
    assert rhs[("u2", "v2")] == 1
    assert rhs[("u1", "u2", "v2")] == 3
    assert su.grand_worth == 4
    gc = load_instance("bpath4-con")
    sc = GameAnalysis(gc).system
    rhs = {tuple(sorted(s)): v for s, v in sc.inequalities}
    assert rhs[("u1", "v1")] == 1  # single-use edge
    assert sc.grand_worth == 4


def test_system_membership_witnesses():
    gu = load_instance("bpath4-uncon")
    su = GameAnalysis(gu).system
    assert core_membership_via_system(su, imp(gu, 3, 0, 0, 1)).in_core
    got = core_membership_via_system(su, imp(gu, 1, 0, 0, 3))
    assert not got.in_core and got.witness == frozenset({"u1", "v1"})
    gc = load_instance("bpath4-con")
    sc = GameAnalysis(gc).system
    assert core_membership_via_system(sc, imp(gc, 1, 0, 0, 3)).in_core


def test_gen_reduces_to_assignment_on_single_edge():
    w = F(9, 5)
    g = make_game("b-general", ["u"], ["v"], [("u", "v", w)])
    a = GameAnalysis(g)
    _, y = solve_dual(g)
    profits = imputation_from_dual(a, y, HALF)
    assert sum(profits.values(), start=Z) == w
    assert all(v >= 0 for v in profits.values())
    assert core_membership_via_system(a.system, profits).in_core


def test_gen_d1_matches_constrained_results():
    g = load_instance("bpath4-gen-d1")
    a = GameAnalysis(g)
    assert a.worth == 4
    _, y = solve_dual(g)
    for split in (LEFT, RIGHT, HALF):
        profits = imputation_from_dual(a, y, split)
        assert core_membership_via_system(a.system, profits).in_core
    # the family reachable in the single-use encoding is reachable here
    for b in (Z, F(1, 2), F(1)):
        assert in_dual_image(a, imp(g, 3 - b, 0, 0, 1 + b))


def test_gen_cap_matches_unconstrained_results():
    g = load_instance("bpath4-gen-cap")
    a = GameAnalysis(g)
    assert a.worth == 4
    y = named_dual(
        y={"u1": F(1), "u2": Z, "v1": Z, "v2": F(2)},
        y_lo={q: Z for q in g.vertices},
        z={k: Z for k in g.edge_keys},
        z_lo={k: Z for k in g.edge_keys},
    )
    assert dual_is_optimal(g, y, F(4))
    profits = imputation_from_dual(a, y, HALF)
    assert profits == imp(g, 2, 0, 0, 2)
    assert in_dual_image(a, profits)
    assert core_membership_via_system(a.system, profits).in_core


def test_gen_floor_can_turn_profits_negative():
    # With a vertex floor the dual may pay through the floor credit and
    # the reconstructed profit goes negative; reported, never clamped.
    g = make_game(
        "b-general",
        ["u"],
        ["v"],
        [("u", "v", F(1))],
        vertex_lower={"u": 1},
    )
    a = GameAnalysis(g)
    assert a.worth == 1
    y = named_dual(
        y={"u": Z, "v": F(2)},
        y_lo={"u": F(1), "v": Z},
        z={("u", "v"): Z},
        z_lo={("u", "v"): Z},
    )
    assert dual_is_optimal(g, y, F(1))
    with pytest.raises(ProfitSignError):
        imputation_from_dual(a, y, HALF)


def test_gen_floor_infeasible_coalitions_are_skipped():
    g = make_game(
        "b-general",
        ["u"],
        ["v"],
        [("u", "v", F(1))],
        vertex_lower={"u": 1},
    )
    sys = GameAnalysis(g).system
    assert frozenset({"u"}) in sys.skipped
    verdict = core_membership_via_system(sys, {"u": Z, "v": F(1)})
    assert verdict.in_core


def test_connected_system_equals_full_system():
    rng = Random(71)
    draw = {
        "assignment": lambda: random_assignment(rng, max_side=4, density=0.7),
        "general-matching": lambda: random_general(rng, max_n=7, density=0.5),
    }
    for variant in (*B_VARIANTS, "assignment", "general-matching"):
        done = 0
        while done < 8:
            g = draw.get(variant, lambda: random_b_game(rng, variant))()
            if not g.edges:
                continue
            done += 1
            a = GameAnalysis(g)
            fast = a.system
            full = all_coalition_system(a)
            for sample in sample_core_imputations(fast, seed=5, count=2):
                assert core_membership_via_system(full, sample).in_core
            perturbed = sample_core_imputations(fast, seed=6, count=1)[0]
            qs = sorted(perturbed)
            perturbed[qs[0]] += F(1, 2)
            perturbed[qs[-1]] -= F(1, 2)
            assert (
                core_membership_via_system(fast, perturbed).in_core
                == core_membership_via_system(full, perturbed).in_core
            )


def test_edge_floor_image_point_outside_the_core():
    # With edge floors a nonnegative dual-derived imputation can leave the
    # core: here the half split stays in the dual image, but the coalition
    # {u1,u2,v1,v2,v3} is worth 4 and is paid 15/4.
    g = random_b_game(Random(20), "b-general", with_floors=True)
    assert g.vertices == ("u1", "u2", "u3", "v1", "v2", "v3")
    assert any(g.edge_lower.values())
    a = GameAnalysis(g)
    _, y = a.dual
    profits = imputation_from_dual(a, y, HALF)
    assert profits == imp(g, 0, 3, F(15, 4), 0, 0, F(3, 4))
    assert in_dual_image(a, profits)
    got = a.membership(profits)
    short = frozenset({"u1", "u2", "v1", "v2", "v3"})
    assert not got.in_core and got.witness == short
    assert worth(g, short) == 4
    assert sum(profits[q] for q in short) == F(15, 4)


def test_dual_derived_imputations_pass_core_check():
    # Every split of every optimal dual pays out the worth.  Without floors
    # the result is in the core and in the image; with edge floors a
    # profit can come out negative (ProfitSignError, a reported finding)
    # or, more rarely, a nonnegative result can leave the core.
    rng = Random(73)
    signs = 0
    for variant in B_VARIANTS + ("b-general-floors",):
        floors = variant == "b-general-floors"
        done = 0
        while done < (24 if floors else 8):
            kind = "b-general" if floors else variant
            g = random_b_game(rng, kind, with_floors=floors)
            if not g.edges or worth(g) is None:
                continue
            done += 1
            _, y = solve_dual(g)
            a = GameAnalysis(g)
            total = a.worth
            for s in (LEFT, RIGHT, HALF):
                try:
                    profits = imputation_from_dual(a, y, s)
                except ProfitSignError:
                    assert floors
                    signs += 1
                    continue
                assert sum(profits.values(), start=Z) == total
                assert in_dual_image(a, profits)
                if not floors:
                    assert core_membership_via_system(a.system, profits).in_core
    assert signs > 0


def test_in_dual_image_agrees_with_the_scaling_oracle():
    # Where no edge is priced the dual image has a closed form (divide by
    # the caps, then check optimality); the one-LP test must agree with it
    # on dual-derived imputations, core points and perturbations of both.
    rng = Random(97)
    answers = []
    for variant in ("b-uniform", "b-unconstrained"):
        done = 0
        while done < 20:
            g = random_b_game(rng, variant)
            if not g.edges:
                continue
            done += 1
            _, y = solve_dual(g)
            a = GameAnalysis(g)
            base = imputation_from_dual(a, y)
            sample = sample_core_imputations(a.system, seed=done, count=1)[0]
            qs = sorted(g.vertices)
            candidates = [base, sample]
            for start, delta in ((base, F(1, 2)), (sample, F(1, 5)), (base, F(1))):
                moved = dict(start)
                loss, gain = rng.choice(qs), rng.choice(qs)
                moved[loss] -= delta
                moved[gain] += delta
                candidates.append(moved)
            richer = dict(base)
            richer[qs[0]] += 1
            candidates.append(richer)
            for cand in candidates:
                got = in_dual_image(a, cand)
                assert got == in_scaled_image(g, cand)
                answers.append(got)
    assert len(answers) == 240
    assert answers.count(True) >= 40 and answers.count(False) >= 40


def test_uniform_core_is_exactly_the_dual_image():
    rng = Random(79)
    done = 0
    while done < 10:
        g = random_b_game(rng, "b-uniform")
        if not g.edges:
            continue
        done += 1
        a = GameAnalysis(g)
        for sample in sample_core_imputations(a.system, seed=9, count=3):
            assert dual_is_optimal(g, scaled_dual(g, sample), a.worth)


def test_meet_join_uniform_lattice():
    rng = Random(83)
    done = 0
    while done < 8:
        g = random_b_game(rng, "b-uniform", max_side=3, max_b=2)
        if not g.edges:
            continue
        done += 1
        a = GameAnalysis(g)
        samples = sample_core_imputations(a.system, seed=3, count=2)
        if len(samples) < 2:
            continue
        meet, join = meet_join(a, samples[0], samples[1])
        assert GameAnalysis(g).membership(meet).in_core
        assert GameAnalysis(g).membership(join).in_core


def test_sampling_is_deterministic():
    sys = GameAnalysis(load_instance("bpath4-uncon")).system
    a = sample_core_imputations(sys, seed=17, count=4)
    b = sample_core_imputations(sys, seed=17, count=4)
    assert a == b
