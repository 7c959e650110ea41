import gc
import sys
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from matchcore import matchings
from matchcore.analysis import GameAnalysis
from matchcore.bundled import load_instance
from matchcore.games import CapExceeded, induce_subgame, make_game
from matchcore.matchings import (
    DecompositionError,
    HalfIntegralReport,
    MatchingVector,
    _max_matching_covering,
    birkhoff_decompose,
    brute_force_optima,
    check_half_integral,
    integer_game,
    make_matching_vector,
)
from matchcore.rationals import parse_rational

from gamegen import random_assignment, random_b_game, random_general
from lp_oracles import fractional_optimum
from plain_enumerator import plain_labels, plain_optima

H = F(1, 2)


def loads_ok(g, vec):
    return all(vec.load(q) <= g.vertex_upper[q] for q in g.vertices)


def test_ring7_three_optima_share_heavy_edge():
    g = load_instance("ring7")
    best, optima = brute_force_optima(g)
    assert best == 4
    assert len(optima) == 3
    assert all(m.as_dict().get(("v2", "v7")) == 1 for m in optima)
    rests = sorted(
        tuple(sorted(k for k, _ in m.multiplicities if k != ("v2", "v7")))
        for m in optima
    )
    assert rests == [
        (("v1", "v6"), ("v3", "v4")),
        (("v1", "v6"), ("v4", "v5")),
        (("v3", "v4"), ("v5", "v6")),
    ]


def test_path5_two_optima():
    best, optima = brute_force_optima(load_instance("path5"))
    assert best == F(21, 10)
    assert len(optima) == 2


def test_bpath4_uncon_optimum():
    g = load_instance("bpath4-uncon")
    best, optima = brute_force_optima(g)
    assert best == 4
    assert [dict(m.multiplicities) for m in optima] == [
        {("u1", "v1"): F(1), ("u1", "v2"): F(1)}
    ]


def test_budget_cap():
    g = load_instance("tiers8")
    with pytest.raises(CapExceeded, match="^total multiplicity budget 8 exceeds cap 4$"):
        brute_force_optima(g, budget_cap=4)


def test_floors_can_make_games_infeasible():
    g = make_game(
        "b-general",
        ["u"],
        ["v", "w"],
        [("u", "v", F(1))],
        vertex_lower={"w": 1},
    )
    best, optima = brute_force_optima(g)
    assert best is None and optima == []


def test_fractional_optimum_values():
    k3 = fractional_optimum(load_instance("k3"))
    assert k3.weight == F(3, 2)
    assert all(m == H for _, m in k3.multiplicities)
    t4 = fractional_optimum(load_instance("tritail4"))
    assert t4.weight == 2
    p5 = fractional_optimum(load_instance("path5"))
    assert p5.weight == F(21, 10)
    assert all(m.denominator == 1 for _, m in p5.multiplicities)


def test_half_integral_k3():
    rep = check_half_integral(fractional_optimum(load_instance("k3")))
    assert rep.is_half_integral
    assert rep.ones == ()
    assert len(rep.halves) == 3
    assert rep.half_components == (("v1", "v2", "v3"),)


def test_half_integral_integral_matching():
    g = load_instance("path5")
    _, optima = brute_force_optima(g)
    rep = check_half_integral(optima[0])
    assert rep.is_half_integral and rep.halves == ()


def test_half_integral_rejects_thirds():
    g = load_instance("k3")
    vec = make_matching_vector(g, {("v1", "v2"): F(1, 3)})
    assert not check_half_integral(vec).is_half_integral


def test_matching_vector_rejects_a_key_that_is_no_edge():
    # A reversed key or an unknown vertex would otherwise drop out of the
    # vector, and birkhoff_decompose would decompose another vector.
    g = load_instance("path5")
    assert ("u1", "v1") in g.edge_keys
    for key in (("v1", "u1"), ("u1", "x")):
        with pytest.raises(ValueError, match="unknown edge"):
            make_matching_vector(g, {key: F(1)})
        with pytest.raises(ValueError, match="unknown edge"):
            birkhoff_decompose(g, make_matching_vector(g, {("u1", "v1"): H, key: H}))


def test_half_integral_rejects_even_cycle():
    g = make_game(
        "general-matching",
        [],
        ["a", "b", "c", "d"],
        [("a", "b", F(1)), ("b", "c", F(1)), ("c", "d", F(1)), ("a", "d", F(1))],
    )
    vec = make_matching_vector(g, {k: H for k in g.edge_keys})
    assert not check_half_integral(vec).is_half_integral


def general(edges, value):
    """A general graph on the ends of ``edges``, each at ``value`` (or its
    own value where an edge is given as a triple)."""
    names = sorted({q for e in edges for q in e[:2]})
    g = make_game("general-matching", [], names, [(i, j, F(1)) for i, j, *_ in edges])
    return make_matching_vector(g, {(i, j): (rest or [value])[0] for i, j, *rest in edges})


@pytest.mark.parametrize(
    "vec",
    [
        general([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d", F(1))], H),
        general([("a", "b"), ("b", "c")], H),
        general([("a", "b"), ("a", "c"), ("a", "d")], H),
        general([("a", "b"), ("b", "c")], F(1)),
        MatchingVector(((("u", "v"), H), (("v", "u"), H)), F(1)),
        MatchingVector(((("a", "b"), F(0)), (("c", "d"), F(1))), F(1)),
        MatchingVector(((("a", "b"), F(1, 3)), (("c", "d"), F(1))), F(1)),
    ],
    ids=[
        "one-edge-touching-half-edge",
        "half-edge-path",
        "half-star",
        "one-edges-sharing-a-vertex",
        "edge-listed-both-ways",
        "hand-built-zero",
        "hand-built-third",
    ],
)
def test_half_integral_rejects(vec):
    assert check_half_integral(vec) == HalfIntegralReport(False, (), (), ())


def test_half_integral_orders_and_walks_the_cycles():
    # Components come by least vertex; each is walked from its least
    # vertex toward that vertex's lesser neighbour.
    triangles = [("f", "d"), ("b", "f"), ("d", "b"), ("e", "a"), ("c", "e"), ("a", "c")]
    vec = general(triangles + [("g", "h", F(1))], H)
    rep = check_half_integral(vec)
    assert rep.is_half_integral and rep.ones == (("g", "h"),)
    assert rep.halves == tuple(triangles)
    assert rep.half_components == (("a", "c", "e"), ("b", "d", "f"))
    pentagon = [("a", "d"), ("e", "d"), ("b", "e"), ("c", "b"), ("a", "c")]
    rep = check_half_integral(general(pentagon, H))
    assert rep.half_components == (("a", "c", "b", "e", "d"),)


def plain_covering(support, tight):
    """The largest matching of ``support`` covering ``tight``, ties to the
    earliest edge-index set: every index set, largest first, in order."""
    for size in range(len(support), -1, -1):
        for chosen in combinations(range(len(support)), size):
            ends = [q for t in chosen for q in support[t]]
            if len(set(ends)) == len(ends) and tight <= set(ends):
                return [support[t] for t in chosen]
    return None


def test_covering_step_matches_plain_enumeration():
    rng = Random(53)
    cases = [([], frozenset()), ([("a", "b")], frozenset()), ([("a", "b")], frozenset("c"))]
    for _ in range(300):
        names = "abcdefg"[: rng.randint(2, 7)]
        pairs = list(combinations(names, 2))
        support = rng.sample(pairs, rng.randint(1, min(len(pairs), 10)))
        tight = frozenset(q for q in names if rng.random() < 0.4)
        cases.append((support, tight))
    found = 0
    for support, tight in cases:
        want = plain_covering(support, tight)
        assert _max_matching_covering(support, tight) == want, (support, tight)
        found += want is not None
    assert 50 < found < len(cases)
    assert _max_matching_covering([("a", "b"), ("c", "d")], frozenset("ae")) is None
    assert _max_matching_covering([("a", "b"), ("b", "c")], frozenset()) == [("a", "b")]


def listed_covering(support, tight):
    """The covering step by listing every optimum of the unscaled weights,
    1 + (m+1)·|e ∩ tight|, and keeping the least index set."""
    m = len(support)
    pos = {q: p for p, q in enumerate(dict.fromkeys([q for k in support for q in k]))}
    ends = [(pos[i], pos[j]) for i, j in support]
    weights = [1 + (m + 1) * ((i in tight) + (j in tight)) for i, j in support]
    ig = matchings.IntegerGame(ends, weights, [1] * m, [0] * m, [1] * len(pos), [0] * len(pos), 1)
    ties = []
    if matchings.integer_search(ig, ties) < (m + 1) * len(tight):
        return None
    first = min([tuple([t for t, used in enumerate(opt) if used]) for opt in ties])
    return [support[t] for t in first]


def unit_complete_bipartite(n):
    side = range(n)
    return make_game("assignment", [f"u{i}" for i in side], [f"v{j}" for j in side],
                     [(f"u{i}", f"v{j}", 1) for i in side for j in side])


def mixes_of_optima(count):
    """Seeded assignment games, each with a combination of its optima."""
    rng = Random(29)
    cases = []
    while len(cases) < count:
        g = random_assignment(rng, max_side=5, density=0.7)
        if not g.edges:
            continue
        _, optima = brute_force_optima(g)
        weights = [F(rng.randint(0, 3), 8) for _ in optima]
        if sum(weights) > 1 or not any(weights):
            continue
        mix = {}
        for w, m in zip(weights, optima):
            for k, x in m.multiplicities:
                mix[k] = mix.get(k, F(0)) + w * x
        cases.append((g, make_matching_vector(g, mix)))
    return cases


def test_birkhoff_is_the_one_of_the_listing_covering_step(monkeypatch):
    # The tie-broken weights pick the covering matching that listing
    # every tied optimum and keeping the least index set picked, so the
    # decomposition is the same, on mixes of optima and on the uniform
    # vector of unit K_6,6, whose first step has 720 tied optima.
    k66 = unit_complete_bipartite(6)
    cases = mixes_of_optima(120)
    cases.append((k66, make_matching_vector(k66, dict.fromkeys(k66.edge_keys, F(1, 6)))))
    got = [birkhoff_decompose(g, vec) for g, vec in cases]
    monkeypatch.setattr(matchings, "_max_matching_covering", listed_covering)
    assert got == [birkhoff_decompose(g, vec) for g, vec in cases]
    assert len(got[-1]) == 6


def test_each_covering_step_builds_one_table(monkeypatch):
    calls = {"search": 0, "table": 0, "step": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name, attr in [
        ("search", "integer_search"), ("table", "ResidualTable"), ("step", "_max_matching_covering"),
    ]:
        monkeypatch.setattr(matchings, attr, counted(name, getattr(matchings, attr)))
    g = load_instance("path5")
    birkhoff_decompose(g, make_matching_vector(g, {k: H for k in g.edge_keys}))
    assert calls == {"search": 0, "table": 2, "step": 2}


def test_birkhoff_uniform_k88_resums():
    # Each step's optimum is unique, so the table never lists the 8! tied
    # perfect matchings of the first step.
    g = unit_complete_bipartite(8)
    vec = make_matching_vector(g, dict.fromkeys(g.edge_keys, F(1, 8)))
    terms = birkhoff_decompose(g, vec)
    assert len(terms) == 8 and all(c == F(1, 8) for c, _ in terms)
    resum = {}
    for c, m in terms:
        assert len(m.multiplicities) == 8
        for k, x in m.multiplicities:
            resum[k] = resum.get(k, F(0)) + c * x
    assert resum == vec.as_dict()


def test_birkhoff_rejects_a_vector_of_another_game():
    # A foreign edge is named up front: past that point it would read as an
    # uncovered saturated vertex, or leave the covering step no support.
    g = make_game("assignment", ["u1", "u2"], ["v1", "v2"],
                  [("u1", "v1", 1), ("u2", "v2", 1)])
    h = make_game("assignment", ["u1", "u2"], ["v1", "v2"],
                  [("u1", "v1", 1), ("u1", "v2", 1)])
    for mult in ({("u1", "v2"): F(1)}, {("u1", "v2"): H}, {("u1", "v1"): H, ("u1", "v2"): H}):
        vec = make_matching_vector(h, mult)
        with pytest.raises(DecompositionError, match="^not an edge of the game: u1~v2$"):
            birkhoff_decompose(g, vec)


def test_birkhoff_four_cycle():
    g = make_game(
        "assignment",
        ["u1", "u2"],
        ["v1", "v2"],
        [
            ("u1", "v1", F(1)),
            ("u1", "v2", F(1)),
            ("u2", "v1", F(1)),
            ("u2", "v2", F(1)),
        ],
    )
    vec = make_matching_vector(g, {k: H for k in g.edge_keys})
    terms = birkhoff_decompose(g, vec)
    assert sorted(c for c, _ in terms) == [H, H]
    resum = {}
    for c, m in terms:
        for k, x in m.multiplicities:
            resum[k] = resum.get(k, F(0)) + c * x
    assert resum == vec.as_dict()


def test_birkhoff_path5_half_vector():
    g = load_instance("path5")
    vec = make_matching_vector(g, {k: H for k in g.edge_keys})
    terms = birkhoff_decompose(g, vec)
    _, optima = brute_force_optima(g)
    assert sorted(c for c, _ in terms) == [H, H]
    got = sorted(tuple(sorted(m.multiplicities)) for _, m in terms)
    want = sorted(tuple(sorted(m.multiplicities)) for m in optima)
    assert got == want


def test_birkhoff_integral_identity():
    g = load_instance("path5")
    _, optima = brute_force_optima(g)
    terms = birkhoff_decompose(g, optima[0])
    assert terms == [(F(1), optima[0])]


def test_birkhoff_rejects_overloaded():
    g = load_instance("path5")
    vec = MatchingVector(((("u1", "v1"), F(2)),), F(2))
    with pytest.raises(Exception):
        birkhoff_decompose(g, vec)


def test_birkhoff_random_combinations_resum():
    rng = Random(41)
    done = 0
    while done < 30:
        g = random_assignment(rng)
        if not g.edges:
            continue
        _, optima = brute_force_optima(g)
        weights = [F(rng.randint(0, 3), 8) for _ in optima]
        if sum(weights) > 1:
            continue
        mix = {}
        for w, m in zip(weights, optima):
            for k, x in m.multiplicities:
                mix[k] = mix.get(k, F(0)) + w * x
        vec = make_matching_vector(g, mix)
        terms = birkhoff_decompose(g, vec)
        done += 1
        total = sum((c for c, _ in terms), start=F(0))
        assert total <= 1
        assert all(c > 0 for c, _ in terms)
        resum = {}
        for c, m in terms:
            assert all(x == 1 for _, x in m.multiplicities)
            assert loads_ok(g, m)
            for k, x in m.multiplicities:
                resum[k] = resum.get(k, F(0)) + c * x
        assert resum == vec.as_dict()


def test_classify_named_instances():
    vlabels, elabels = GameAnalysis(load_instance("ring7")).labels
    assert vlabels["v2"] == "essential"
    assert vlabels["v1"] == "viable"
    assert elabels[("v2", "v7")] == "essential"
    assert elabels[("v4", "v7")] == "subpar"
    assert elabels[("v1", "v6")] == "viable"
    assert GameAnalysis(load_instance("tritail4")).labels[0]["v4"] == "essential"
    assert GameAnalysis(load_instance("fork3")).labels[0]["v1"] == "subpar"


def test_session_labels_match_pointwise():
    g = load_instance("ring7")
    a = GameAnalysis(g)
    assert a.worth == 4 and a.optima_count == 3
    assert a.labels == plain_labels(g, plain_optima(g)[1])
    # Seeded games of every variant, each also with unit weights, so that
    # ties give many optima and viable labels.
    rng = Random(47)
    games = [load_instance(n) for n in ("path5", "web5", "tritail4", "bpath4-con")]
    for variant in ("b-uniform", "b-unconstrained", "b-constrained", "b-general"):
        games += [random_b_game(rng, variant) for _ in range(3)]
    games += [random_assignment(rng, max_side=4) for _ in range(3)]
    games += [random_general(rng, max_n=6) for _ in range(3)]
    games += [replace(g, edges=tuple([(i, j, F(1)) for i, j, _ in g.edges])) for g in games]
    viable = 0
    for g in games:
        labels = GameAnalysis(g).labels
        assert labels == plain_labels(g, plain_optima(g)[1]), g
        viable += list(labels[0].values()).count("viable")
    assert viable >= 10


def test_classification_cross_checks():
    # Deletion: a vertex is essential iff removing it lowers the optimum.
    # Forcing: an edge is subpar iff insisting on it lowers the optimum.
    rng = Random(43)
    for _ in range(25):
        g = random_assignment(rng, max_side=3)
        if not g.edges:
            continue
        best, _ = brute_force_optima(g)
        vlabels, elabels = GameAnalysis(g).labels
        for q in g.vertices:
            rest = frozenset(set(g.vertices) - {q})
            without, _ = brute_force_optima(induce_subgame(g, rest))
            assert (vlabels[q] == "essential") == (without < best)
        for i, j, w in g.edges:
            rest = frozenset(set(g.vertices) - {i, j})
            without, _ = brute_force_optima(induce_subgame(g, rest))
            forced = w + without
            assert (elabels[(i, j)] == "subpar") == (forced < best)


def _cyclic_garbage(call):
    """Objects that ``call()`` leaves for the cyclic collector."""
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_enumeration_leaves_no_cyclic_garbage():
    # The recursive search closures refer to themselves; unless that cycle
    # is broken, every call's state waits for the cyclic collector.
    g = load_instance("ring7")
    assert _cyclic_garbage(lambda: brute_force_optima(g)) == []
    h = load_instance("path5")
    vec = make_matching_vector(h, {k: H for k in h.edge_keys})
    assert _cyclic_garbage(lambda: birkhoff_decompose(h, vec)) == []



def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_objects(const)


def test_no_nested_function_closes_over_twenty_names():
    # CPython 3.11 never reuses a freed tuple of exactly 20 items, so a
    # closure over 20 names grows the tuple free list by one block per call
    # of the function that builds it: integer_search's visit did, up to
    # 2,000 blocks (about 400 kB of resident memory).
    path = Path(matchings.__file__)
    code = compile(path.read_text(), str(path), "exec")
    closures = [
        (c.co_name, c.co_firstlineno, len(c.co_freevars))
        for c in _code_objects(code)
        if c.co_freevars
    ]
    assert any(name == "visit" for name, _, _ in closures)
    assert [c for c in closures if c[2] == 20] == []


def test_repeated_searches_hold_no_memory():
    # A session reads its coalition worths from one residual table and
    # runs no search per coalition; the closure size that once leaked per
    # search is gated by test_no_nested_function_closes_over_twenty_names.
    # A first batch fills the interpreter's free lists, which keep up to 80
    # freed dicts and lists each; what the measured batch adds is held memory.
    g = load_instance("bpath4-con")
    for _ in range(200):
        GameAnalysis(g).system
    before = sys.getallocatedblocks()
    for _ in range(200):
        GameAnalysis(g).system
    assert sys.getallocatedblocks() - before < 100


WEIGHT_KINDS = {
    "integer": lambda rng: F(rng.randint(1, 40)),
    "decimal": lambda rng: parse_rational(f"{rng.randint(0, 9)}.{rng.randint(1, 999):03d}"),
    "ratio": lambda rng: F(rng.randint(1, 50), rng.randint(1, 24)),
}


@pytest.mark.parametrize("kind", sorted(WEIGHT_KINDS))
def test_integer_game_scales_each_weight_exactly(kind):
    # Each weight's numerator times the scale over its denominator, with no
    # Fraction product: the integers of int(w * scale), on every variant.
    rng = Random(len(kind))
    draw = WEIGHT_KINDS[kind]
    for s in range(150):
        base = [random_assignment, random_general][s % 2](Random(s))
        if s % 3 == 2:
            base = random_b_game(Random(s), "b-general", with_floors=True)
        edges = [(i, j, draw(rng)) for i, j, _ in base.edges]
        g = replace(base, edges=tuple(edges))
        ig = integer_game(g)
        assert ig.weights == [int(w * ig.scale) for *_, w in g.edges]
        assert all([type(w) is int for w in ig.weights])
