from fractions import Fraction as F
from random import Random

from matchcore.bundled import load_instance
from matchcore.games import make_game
from matchcore.gamelp import (
    build_dual_lp,
    dual_columns,
    solve_dual,
)
from matchcore.matchings import brute_force_optima
from matchcore.simplex import solve_lp

from gamegen import random_assignment, random_b_game, random_general
from lp_oracles import build_primal_lp, dual_is_optimal, fractional_optimum


def test_primal_shape_path5():
    program = build_primal_lp(load_instance("path5"))
    assert len(program.variables) == 4
    assert len(program.constraints) == 5
    assert program.maximize
    assert program.objective == (F(1), F(11, 10), F(11, 10), F(1))
    assert program.row_labels == ("u1", "u2", "v1", "v2", "v3")


def test_primal_shape_single_edge():
    g = make_game("assignment", ["u"], ["v"], [("u", "v", F(7))])
    program = build_primal_lp(g)
    assert program.objective == (F(7),)
    assert [(r, rhs) for _, r, rhs in program.constraints] == [
        ("<=", F(1)),
        ("<=", F(1)),
    ]


def test_primal_constrained_adds_edge_rows():
    g = load_instance("bpath4-con")
    program = build_primal_lp(g)
    # 4 vertex rows plus one unit cap row per edge
    assert len(program.constraints) == 4 + 3
    assert program.row_labels[4:] == ("u1~v1", "u1~v2", "u2~v2")


def test_primal_general_bounds_rows():
    g = load_instance("bpath4-gen-cap")
    program = build_primal_lp(g)
    # two rows per vertex plus two rows per edge
    assert len(program.constraints) == 2 * 4 + 2 * 3


def test_dual_shape_uncon():
    g = load_instance("bpath4-uncon")
    program = build_dual_lp(g)
    assert program.variables == ("y[u1]", "y[u2]", "y[v1]", "y[v2]")
    assert program.objective == (F(2), F(1), F(2), F(1))
    assert not program.maximize
    assert len(program.constraints) == 3


def test_dual_shape_single_edge():
    g = make_game("assignment", ["u"], ["v"], [("u", "v", F(7))])
    program = build_dual_lp(g)
    assert program.objective == (F(1), F(1))
    ((coeffs, rel, rhs),) = program.constraints
    assert coeffs == (F(1), F(1)) and rel == ">=" and rhs == F(7)


def test_dual_constrained_has_edge_prices():
    g = load_instance("bpath4-con")
    program = build_dual_lp(g)
    assert program.variables[4:] == ("z[u1~v1]", "z[u1~v2]", "z[u2~v2]")
    assert program.objective[4:] == (F(1), F(1), F(1))


def test_dual_general_signs():
    g = load_instance("bpath4-gen-cap")
    program = build_dual_lp(g)
    names = program.variables
    # floor prices enter the objective negatively scaled by the floors (zero here)
    lo = [program.objective[t] for t, n in enumerate(names) if n.startswith("y_lo")]
    assert all(x == 0 for x in lo)
    hi = [program.objective[t] for t, n in enumerate(names) if n.startswith("y[")]
    assert hi == [F(2), F(1), F(2), F(1)]


def dual_rows_at(g, y):
    """The objective of ``build_dual_lp(g)`` at ``y``, and each cover row's
    left-hand side minus its weight, by row label."""
    lp = build_dual_lp(g)
    at = [y.get(c.name, F(0)) for c in dual_columns(g)]
    slack = {
        label: sum(a * v for a, v in zip(coeffs, at)) - rhs
        for (coeffs, _, rhs), label in zip(lp.constraints, lp.row_labels)
    }
    return sum(c * v for c, v in zip(lp.objective, at)), slack


def test_tight_rows_path5():
    g = load_instance("path5")
    x = solve_lp(build_primal_lp(g))
    sol, y = solve_dual(g)
    assert x.objective_value == sol.objective_value
    assert dual_is_optimal(g, y, x.objective_value)
    _, slack = dual_rows_at(g, y)
    for e in ("u1~v1", "u1~v2", "u2~v2", "u2~v3"):
        assert slack[e] == 0


def test_ring7_slack_row():
    g = load_instance("ring7")
    x = solve_lp(build_primal_lp(g))
    sol, y = solve_dual(g)
    assert x.objective_value == sol.objective_value
    assert dual_rows_at(g, y)[1]["v4~v7"] > 0  # priced 2 against weight 1


def test_suboptimal_dual_is_not_optimal():
    g = load_instance("path5")
    x = solve_lp(build_primal_lp(g))
    _, y = solve_dual(g)
    worse = {name: p + 1 for name, p in y.items()}  # path5 prices vertices only
    objective, slack = dual_rows_at(g, worse)
    assert min(slack.values()) >= 0 and objective > x.objective_value
    assert dual_is_optimal(g, worse, objective)  # feasible, at its own value
    assert not dual_is_optimal(g, worse, x.objective_value)


def test_dual_solution_helpers():
    g = load_instance("bpath4-uncon")
    sol, y = solve_dual(g)
    objective, slack = dual_rows_at(g, y)
    assert min(slack.values()) >= 0
    assert objective == sol.objective_value == F(4)
    assert dual_is_optimal(g, y, F(4))
    bad = {f"y[{q}]": F(0) for q in g.vertices}
    objective, slack = dual_rows_at(g, bad)
    assert min(slack.values()) < 0
    assert not dual_is_optimal(g, bad, objective)


def test_strong_duality_on_bundled_instances():
    from matchcore.bundled import INSTANCE_NAMES, load_instance

    for name in INSTANCE_NAMES:
        g = load_instance(name)
        p = solve_lp(build_primal_lp(g))
        d = solve_lp(build_dual_lp(g))
        assert p.objective_value == d.objective_value


def test_strong_duality_across_variants():
    rng = Random(23)
    makers = (
        lambda: random_assignment(rng),
        lambda: random_general(rng, max_n=6),
        lambda: random_b_game(rng, "b-uniform"),
        lambda: random_b_game(rng, "b-unconstrained"),
        lambda: random_b_game(rng, "b-constrained"),
        lambda: random_b_game(rng, "b-general"),
    )
    for maker in makers:
        for _ in range(12):
            g = maker()
            p = solve_lp(build_primal_lp(g))
            d = solve_lp(build_dual_lp(g))
            assert p.status == d.status == "optimal"
            assert p.objective_value == d.objective_value


def test_lp_agrees_with_enumeration_on_integral_polytopes():
    rng = Random(31)
    for variant in ("assignment", "b-uniform", "b-unconstrained", "b-constrained", "b-general"):
        for _ in range(10):
            g = (
                random_assignment(rng)
                if variant == "assignment"
                else random_b_game(rng, variant)
            )
            best, _ = brute_force_optima(g)
            assert best == fractional_optimum(g).weight


def test_general_graph_gap_is_one_sided():
    rng = Random(37)
    for _ in range(25):
        g = random_general(rng, max_n=6)
        best, _ = brute_force_optima(g)
        assert best <= fractional_optimum(g).weight
