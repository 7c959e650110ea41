"""Warm-started optimal-face queries against cold solves of the explicit face.

A face query runs phase 2 on the `Tableau` that the base answer carries:
its final tableau with every positive-reduced-cost column dropped.  Each
answer here is compared with two independent solves of the explicit face
LP (the constraints plus "objective == optimum"): the integer-row
`solve_lp` from a fresh phase 1, and the `Fraction` tableau of
`tests/fraction_simplex.py`.  A face answer carries the face of that
face, checked the same way with one "objective == value" row per level.
"""

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_simplex
from matchcore import simplex
from matchcore.analysis import GameAnalysis, PaymentReport, worth
from matchcore.bundled import load_instance
from matchcore.gamelp import build_dual_lp
from matchcore.simplex import LinearProgram, solve_lp, solve_over_optimal_face

from gamegen import payment_games, tied_payment_games

Z, O = F(0), F(1)


def face_lp(lp: LinearProgram, optimum, objective, maximize) -> LinearProgram:
    return LinearProgram(
        variables=lp.variables,
        objective=tuple(objective),
        maximize=maximize,
        constraints=lp.constraints + ((lp.objective, "==", optimum),),
        nonnegative=lp.nonnegative,
    )


def _number(rng: Random, lo: int, hi: int) -> F:
    if rng.random() < 0.35:
        return F(0)
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def degenerate_program(rng: Random) -> LinearProgram:
    """Small LP whose optimal face is often more than a point.

    Zeros are frequent, columns are often duplicated, and most of the
    time the objective pushes against one constraint row, so whole edges
    or facets tie and nonbasic columns end with reduced cost 0.
    """
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    rows = [[_number(rng, -4, 4) for _ in range(n)] for _ in range(m)]
    if n > 1 and rng.random() < 0.4:
        src, dst = rng.sample(range(n), 2)
        for r in rows:
            r[dst] = r[src]
    rels = [rng.choice(("<=", "<=", ">=", "==")) for _ in range(m)]
    rhs = [_number(rng, -2, 8) for _ in range(m)]
    maximize = rng.random() < 0.5
    if rng.random() < 0.6:
        # Push against row t: its whole facet is optimal when it binds.
        t = rng.randrange(m)
        scale = F(rng.randint(1, 3))
        objective = [scale * c for c in rows[t]]
        maximize = rels[t] == "<=" if rels[t] != "==" else maximize
    else:
        objective = [_number(rng, -4, 4) for _ in range(n)]
    nonnegative = [rng.random() < 0.8 for _ in range(n)]
    if rng.random() < 0.7:
        # A box keeps most faces bounded, so secondary objectives move.
        for t in range(n):
            unit = [F(int(u == t)) for u in range(n)]
            rows.append(unit)
            rels.append("<=")
            rhs.append(F(rng.randint(1, 6)))
            if not nonnegative[t]:
                rows.append(unit)
                rels.append(">=")
                rhs.append(F(-rng.randint(0, 6)))
    return LinearProgram(
        variables=tuple([f"x{t}" for t in range(n)]),
        objective=tuple(objective),
        maximize=maximize,
        constraints=tuple(
            [(tuple(r), rel, b) for r, rel, b in zip(rows, rels, rhs)]
        ),
        nonnegative=tuple(nonnegative),
    )


def check_query(lp, base, objective, maximize):
    """Warm answer equals both cold answers; returns the warm solution."""
    warm = base.tableau.optimize(tuple(objective), maximize)
    explicit = face_lp(lp, base.objective_value, objective, maximize)
    cold = solve_lp(explicit)
    oracle = fraction_simplex.solve_lp(explicit)
    assert warm.status == cold.status == oracle.status
    if warm.status == "optimal":
        assert warm.objective_value == cold.objective_value == oracle.objective_value
        simplex._assert_feasible(explicit, warm.values)
    return warm


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_warm_face_queries_match_cold_solves(rnd):
    rng = Random(rnd.random())
    lp = degenerate_program(rng)
    base = solve_lp(lp)
    if base.status != "optimal":
        return
    n = len(lp.variables)
    for _ in range(2):
        objective = [_number(rng, -3, 3) for _ in range(n)]
        check_query(lp, base, objective, rng.random() < 0.5)


def test_sweep_reaches_faces_larger_than_a_point():
    # Deterministic companion of the property test: the generator must
    # produce faces on which a secondary objective actually moves, which
    # needs nonbasic columns of reduced cost 0 at the base optimum.
    moved = optimal = unbounded = 0
    for seed in range(400):
        rng = Random(seed)
        lp = degenerate_program(rng)
        base = solve_lp(lp)
        if base.status != "optimal":
            continue
        optimal += 1
        objective = [_number(rng, -3, 3) for _ in range(len(lp.variables))]
        hi = check_query(lp, base, objective, True)
        lo = check_query(lp, base, objective, False)
        if "unbounded" in (hi.status, lo.status):
            unbounded += 1
        elif hi.objective_value != lo.objective_value:
            moved += 1
    assert optimal >= 200 and moved >= 60 and unbounded >= 20


def test_solve_over_optimal_face_checks_the_supplied_optimum():
    g = load_instance("path5")
    lp = build_dual_lp(g)
    base = solve_lp(lp)
    coeffs = (O,) + (Z,) * (len(lp.variables) - 1)
    got = solve_over_optimal_face(lp, base.objective_value, coeffs, True)
    assert got == solve_lp(face_lp(lp, base.objective_value, coeffs, True))
    with pytest.raises(ValueError):
        solve_over_optimal_face(lp, base.objective_value + 1, coeffs, True)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_faces_of_faces_match_cold_solves(rnd):
    rng = Random(rnd.random())
    lp = degenerate_program(rng)
    base = solve_lp(lp)
    if base.status != "optimal":
        return
    n = len(lp.variables)
    first, second = [
        ([_number(rng, -3, 3) for _ in range(n)], rng.random() < 0.5) for _ in range(2)
    ]
    # The first answer carries the optimal face, under the first
    # objective, of the base's face LP; check_query pins that objective
    # at its value for the cold solves.
    top = check_query(lp, base, *first)
    if top.status == "optimal":
        check_query(face_lp(lp, base.objective_value, *first), top, *second)


@pytest.mark.parametrize(
    "name, p, q, narrower",
    [("ring7", "y[v1]", "y[v2]", False), ("web5", "y[u1]", "y[v2]", True)],
)
def test_face_of_a_face_on_the_dual(name, p, q, narrower):
    # Maximize p's price over the core, then q's price over that answer's
    # face.  ring7's core is one point; on web5, paying u1 its most lowers
    # the most v2 can get, so the second face is strictly smaller.
    lp = build_dual_lp(load_instance(name))
    base = solve_lp(lp)
    goal = {t: [F(int(v == t)) for v in lp.variables] for t in (p, q)}
    top = check_query(lp, base, goal[p], True)
    warm = check_query(face_lp(lp, base.objective_value, goal[p], True), top, goal[q], True)
    alone = base.tableau.optimize(tuple(goal[q]), True)
    assert (warm.objective_value < alone.objective_value) == narrower


def cold_face_max(a, goal, second_oracle=True):
    """Maximum of ``goal`` over the explicit dual face, from a fresh phase 1.

    The face is pinned at the fractional primal optimum, as the cold path
    always did; the session's own base solve plays no part.
    """
    lp = build_dual_lp(a.g)
    optimum = a.fractional
    coeffs = tuple([goal.get(v, Z) for v in lp.variables])
    explicit = face_lp(lp, optimum, coeffs, True)
    cold = solve_lp(explicit)
    if second_oracle:
        oracle = fraction_simplex.solve_lp(explicit)
        assert cold.objective_value == oracle.objective_value
    return cold


def cold_payments(a, second_oracle):
    """The payment report of ``a``, one cold face solve per question."""
    g = a.g
    vertices = {}
    for q in g.vertices:
        vertices[q] = cold_face_max(a, {f"y[{q}]": O}, second_oracle).objective_value
    edges = {}
    for k in g.edge_keys:
        goal = {f"y[{q}]": O for q in k}
        edges[k] = cold_face_max(a, goal, second_oracle).objective_value - g.weight(k)
    return PaymentReport(vertices, edges)


def test_every_vertex_and_edge_query_of_payment_games():
    # The report (labels, antipodal points, face) and each point query
    # (the face alone) against the cold face.
    games = payment_games()
    assert len(games) >= 60
    for t, g in enumerate(games):
        a = GameAnalysis(g)
        if a.face is None:
            continue
        slow = t % 4 == 0  # the Fraction tableau checks every fourth game
        cold = cold_payments(a, slow)
        assert a.payments == cold
        assert {q: a.vertex_payment(q) for q in g.vertices} == cold.vertices
        assert {k: a.edge_payment(k) for k in g.edge_keys} == cold.edges


def test_payment_report_on_tied_weights_matches_cold_solves():
    # Weights in {0, ..., 3} tie the optima, so the labels' "viable"
    # answers are tested too.
    viable = 0
    for t, g in enumerate(tied_payment_games()):
        a = GameAnalysis(g)
        if a.face is None:
            continue
        assert a.payments == cold_payments(a, t % 4 == 0)
        vlabels, elabels = a.labels
        viable += [*vlabels.values(), *elabels.values()].count("viable")
    assert viable >= 50


def relabelled(label):
    """``GameAnalysis.labels`` with the first vertex labelled ``label``
    and the first edge labelled ``label`` relabelled viable."""
    labels = GameAnalysis.labels.func

    def wrong(self):
        found = []
        for table in labels(self):
            table = dict(table)
            first = next((x for x, got in table.items() if got == label), None)
            if first is not None:
                table[first] = "viable"
            found.append(table)
        return tuple(found)

    return property(wrong)


@pytest.mark.parametrize("label", ["essential", "subpar"])
def test_a_wrong_label_is_caught(monkeypatch, label):
    # A viable vertex is never paid and a viable edge is always fairly
    # paid, so on a general game an essential vertex or a subpar edge taken
    # for viable is answered without the face; the cold comparison must
    # notice.  An assignment game's payments read no label (they come from
    # the core's shortest paths), so the wrong labels change nothing there.
    games = payment_games() + tied_payment_games()
    right = {id(g): GameAnalysis(g).payments for g in games if g.variant == "assignment"}
    monkeypatch.setattr(GameAnalysis, "labels", relabelled(label))
    caught = 0
    for g in games:
        a = GameAnalysis(g)
        if g.variant == "assignment":
            assert a.payments == right[id(g)]
        elif a.face is not None and a.payments != cold_payments(a, False):
            caught += 1
    assert caught >= 50


def test_antipodal_points_match_cold_argmax_and_closed_form():
    games = [g for g in payment_games() if g.variant == "assignment"]
    assert len(games) >= 35
    for g in games:
        a = GameAnalysis(g)
        left_best, right_best = a.antipodal
        everyone = frozenset(g.vertices)
        # Demange 1982 / Leonard 1983: the side-optimal core point pays each
        # vertex of that side its marginal worth v(N) - v(N minus q).
        marginal = {q: a.worth - worth(g, everyone - {q}) for q in g.vertices}
        for best, side in ((left_best, g.left), (right_best, g.right)):
            goal = {f"y[{q}]": O for q in side}
            cold = cold_face_max(a, goal)
            assert best == {q: cold.values[f"y[{q}]"] for q in g.vertices}
            assert {q: best[q] for q in side} == {q: marginal[q] for q in side}


def _keep_one_positive_column(cost):
    keep = [j for j in range(len(cost) - 1) if cost[j] == 0]
    extra = [j for j in range(len(cost) - 1) if cost[j] > 0][:1]
    return sorted(keep + extra)


def test_a_wrong_reduced_cost_filter_is_caught(monkeypatch):
    # Keeping one positive-reduced-cost column enlarges the "face" past
    # the optimal one.  The exact self-check against the explicit face LP
    # or the cold comparison above must notice on these games.
    monkeypatch.setattr(simplex, "_face_columns", _keep_one_positive_column)
    caught = 0
    for g in payment_games()[:40]:
        a = GameAnalysis(g)
        if a.face is None:
            continue
        try:
            for q in g.vertices:
                want = cold_face_max(a, {f"y[{q}]": O}, False).objective_value
                # The face itself: an assignment game's vertex_payment
                # reads the core's shortest paths instead.
                if a._face_extreme({f"y[{q}]": O}).objective_value != want:
                    caught += 1
                    break
        except (AssertionError, RuntimeError):
            # The self-check rejected the point, or the enlarged "face"
            # came back unbounded.
            caught += 1
    assert caught >= 10
