from fractions import Fraction as F
from random import Random

import pytest

from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamefile import GameFileError, parse_game, render_game
from matchcore.games import make_game

from gamegen import random_assignment, random_b_game, random_general, tied_payment_games


def test_bundled_instances_round_trip():
    for name in INSTANCE_NAMES:
        g = load_instance(name)
        assert parse_game(render_game(g)) == g


def test_random_games_round_trip():
    rng = Random(89)
    makers = (
        lambda: random_assignment(rng),
        lambda: random_general(rng),
        lambda: random_b_game(rng, "b-uniform"),
        lambda: random_b_game(rng, "b-unconstrained"),
        lambda: random_b_game(rng, "b-constrained"),
        lambda: random_b_game(rng, "b-general", with_floors=True),
    )
    for maker in makers:
        for _ in range(8):
            g = maker()
            assert parse_game(render_game(g)) == g


def test_defaults_applied():
    g = parse_game(
        "variant: assignment\nleft: u\nright: v\nedge: u v 1.5\n"
    )
    assert g.vertex_upper == {"u": 1, "v": 1}
    assert g.edge_upper == {("u", "v"): 1}
    assert g.edges == (("u", "v", F(3, 2)),)


def test_a_parsed_weight_is_built_once():
    # make_game keeps a weight that is already a Fraction and converts
    # any other, so a parsed game holds parse_rational's own objects.
    w = F(3, 2)
    g = make_game("assignment", ["u1", "u2"], ["v"], [("u1", "v", w), ("u2", "v", "1.5")])
    assert g.edges[0][2] is w
    assert type(g.edges[1][2]) is F and g.edges[1][2] == w
    assert parse_game(render_game(g)) == g


def test_uniform_star_bound():
    g = parse_game(
        "variant: b-uniform\nleft: u\nright: v\nedge: u v 2\nb: * 3\n"
    )
    assert g.vertex_upper == {"u": 3, "v": 3}
    assert g.edge_upper == {("u", "v"): 3}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("left: u\n", "variant"),
        ("variant: nosuch\n", "unknown variant"),
        ("variant: assignment\nleft: u\nright: v\nedge: u v 1\nedge: u v 2\n", "duplicate edge"),
        ("variant: assignment\nleft: u\nright: v\nedge: u v x\n", "rational"),
        ("variant: assignment\nleft: u\nright: v\nedge: u v -1\n", "negative weight on edge u~v"),
        ("variant: assignment\nleft: u\nright: v\nedge: u w 1\n", "invalid game"),
        ("variant: assignment\nleft: u\nright: v\nfrob: 1\n", "unknown directive"),
        ("variant: assignment\nleft: u\nright: v\nb: w 2\n", "unknown vertex"),
        ("variant: assignment\nno colon here", "directive"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GameFileError) as err:
        parse_game(text)
    assert fragment in str(err.value)


def test_zero_weight_accepted():
    # A weight of 0 is as valid in a file as in make_game and the session.
    g = parse_game("variant: assignment\nleft: u\nright: v\nedge: u v 0\n")
    assert g.edges == (("u", "v", 0),)


def test_tied_payment_games_round_trip():
    # Their weights are drawn from 0 to 3.
    games = tied_payment_games()
    assert any([w == 0 for g in games for *_, w in g.edges])
    for g in games:
        assert parse_game(render_game(g)) == g


def test_comments_and_blanks_ignored():
    g = parse_game(
        "# a comment\n\nvariant: assignment\nleft: u\nright: v\n"
        "edge: u v 1 # trailing\n"
    )
    assert g.edges == (("u", "v", 1),)


def test_general_matching_uses_vertices():
    with pytest.raises(GameFileError):
        parse_game("variant: general-matching\nleft: a\nright: b\nedge: a b 1\n")
    g = parse_game("variant: general-matching\nvertices: a b\nedge: a b 1\n")
    assert g.left == () and g.right == ("a", "b")


# "*" is the every-vertex token of a "b:" line, so a vertex named "*" would
# give every vertex its cap on the way back in; "~" joins an edge's ends
# in LP variable and report row names, so "a~b"+"c" and "a"+"b~c" collide.
BAD_VERTEX_IDS = {
    "star": "variant: b-unconstrained\nleft: * u\nright: v\nedge: * v 1\nedge: u v 2\n"
    "b: * 3\n",
    "tilde": "variant: general-matching\nvertices: a~b c a b~c\nedge: a~b c 1\n"
    "edge: a b~c 1\n",
}


@pytest.mark.parametrize("case", sorted(BAD_VERTEX_IDS))
def test_reserved_vertex_ids_are_rejected(case):
    with pytest.raises(GameFileError, match="invalid vertex id"):
        parse_game(BAD_VERTEX_IDS[case])
