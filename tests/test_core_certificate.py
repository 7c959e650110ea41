"""Certificate-first core membership against an independent oracle.

``GameAnalysis.membership`` answers "yes" from a dual certificate and
scans the connected coalitions only when the certificate fails.  The
oracles here share neither path: the verdict of the system over every
proper coalition, each worth from its own enumeration
(``all_coalition_system``), and, for the witness, the first connected
coalition that a plain loop over the connected-set enumerator
(``games._connected_masks``) finds violated.
"""

from fractions import Fraction
from random import Random

import pytest

from matchcore.analysis import GameAnalysis, core_membership_via_system, worth
from matchcore.bmatching import (
    all_coalition_system,
    imputation_from_dual,
    in_dual_image,
)
from matchcore import analysis, bmatching
from matchcore.games import _connected_masks, _members
from matchcore.matchings import integer_game

from gamegen import (
    probes,
    random_assignment,
    random_b_game,
    random_general,
    with_vertex_floors,
)

KINDS = {
    "assignment": lambda rng: random_assignment(rng, max_side=4, density=0.7),
    "general-matching": lambda rng: random_general(rng, max_n=6, density=0.5),
    "b-uniform": lambda rng: random_b_game(rng, "b-uniform"),
    "b-unconstrained": lambda rng: random_b_game(rng, "b-unconstrained"),
    "b-constrained": lambda rng: random_b_game(rng, "b-constrained"),
    "b-general": lambda rng: random_b_game(rng, "b-general"),
    "b-general-edge-floors": lambda rng: random_b_game(
        rng, "b-general", with_floors=True
    ),
    "b-general-all-floors": lambda rng: with_vertex_floors(
        rng, random_b_game(rng, "b-general", with_floors=True)
    ),
}
GAMES_PER_KIND = 10


def seeded_games(kind):
    rng = Random(sorted(KINDS).index(kind) + 101)
    games = []
    while len(games) < GAMES_PER_KIND:
        g = KINDS[kind](rng)
        if g.edges and worth(g) is not None:
            games.append(g)
    return games


def first_violated(g, imp):
    """The witness by definition: a negative entry, the total, then the
    first connected proper coalition paid less than its own worth."""
    grand = frozenset(g.vertices)
    for q in sorted(g.vertices):
        if imp[q] < 0:
            return frozenset((q,))
    if sum(imp.values()) != worth(g):
        return grand
    ids = sorted(g.vertices, reverse=True)
    for s in [_members(ids, m) for m in _connected_masks(g)]:
        ws = worth(g, s)
        if s != grand and ws is not None and sum(imp[q] for q in s) < ws:
            return s
    return None


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_membership_agrees_with_the_full_coalition_system(kind):
    verdicts = []
    for g in seeded_games(kind):
        a = GameAnalysis(g)
        full = all_coalition_system(a)
        for imp in probes(a):
            got = a.membership(imp)
            assert got.in_core == core_membership_via_system(full, imp).in_core
            assert got.witness == first_violated(g, imp)
            verdicts.append(got.in_core)
    # Both answers are exercised on every kind.
    assert True in verdicts and False in verdicts


def test_edge_floor_image_points_outside_the_core_answer_no():
    # With a positive edge floor a point of the dual image can leave the
    # core, so the dual-image certificate must not answer there.  Pinned:
    # the half split of
    # ``test_bmatching.py::test_edge_floor_image_point_outside_the_core``,
    # asked first on a fresh session.
    g = random_b_game(Random(20), "b-general", with_floors=True)
    a = GameAnalysis(g)
    _, y = a.dual
    pinned = imputation_from_dual(a, y, Fraction(1, 2))
    got = GameAnalysis(g).membership(pinned)
    short = frozenset({"u1", "u2", "v1", "v2", "v3"})
    assert in_dual_image(a, pinned) and (got.in_core, got.witness) == (False, short)
    # The seeded sweep meets more such points.
    outside = 0
    for g in seeded_games("b-general-edge-floors"):
        a = GameAnalysis(g)
        full = all_coalition_system(a)
        for imp in probes(a):
            outside_core = not core_membership_via_system(full, imp).in_core
            if outside_core and in_dual_image(a, imp):
                got = a.membership(imp)
                assert not got.in_core and got.witness == first_violated(g, imp)
                outside += 1
    assert outside > 0


@pytest.mark.parametrize("kind", ["b-constrained", "b-general"])
def test_a_failed_pair_row_goes_to_the_scan_without_the_lp(monkeypatch, kind):
    # imp_i + imp_j < w_ij c_ij on some edge, c_ij its cap: the pair is
    # paid less than its own edge at that cap, so the dual-image LP is not
    # asked; the scan gives the verdict and the witness.
    lps = []
    original = bmatching.in_dual_image
    monkeypatch.setattr(
        bmatching, "in_dual_image", lambda a, imp: lps.append(1) or original(a, imp)
    )
    failing = 0
    for g in seeded_games(kind):
        a = GameAnalysis(g)
        full = all_coalition_system(a)
        pairs = list(zip(g.edges, integer_game(g).caps))
        for imp in probes(a):
            if min(imp.values()) < 0 or sum(imp.values()) != a.worth:
                continue  # answered before the certificate
            if all(imp[i] + imp[j] >= w * c for (i, j, w), c in pairs):
                continue
            lps.clear()
            got = a.membership(imp)
            assert lps == []
            assert got.in_core == core_membership_via_system(full, imp).in_core
            assert got.witness == first_violated(g, imp)
            failing += 1
    assert failing >= 5


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_certified_yes_builds_no_byte_tables(monkeypatch, kind):
    # Byte tables are built where a scan needs them: the start sums that
    # give the coalitions' table states when the scan looks up its first
    # coalition, and the profits' when its first row arrives.  A certified
    # "yes" gets no row and builds none; a "no" from the scan builds each
    # once.  The probes are built on one session, which scans every
    # coalition, and each answer is asked of a fresh one, whose masks are
    # listed first: listing them computes no table state.
    built = []
    original = analysis._mask_sum
    monkeypatch.setattr(
        analysis, "_mask_sum", lambda values: built.append(values) or original(values)
    )
    certified = scanned = 0
    for g in seeded_games(kind):
        a = GameAnalysis(g)
        for imp in probes(a):
            early = min(imp.values()) < 0 or sum(imp.values()) != a.worth
            yes = not early and a._certified(imp)
            b = GameAnalysis(g)
            b._coalitions
            built.clear()
            got = b.membership(imp)
            if early or yes:
                assert built == []
                certified += yes
            elif not got.in_core:
                start = dict(zip(g.vertices, b._table.start))
                assert len(built) == 2
                assert built[0] == [start[q] for q in b.ids]
                assert built[1] != built[0]
                scanned += 1
    assert certified > 0 and scanned > 0
