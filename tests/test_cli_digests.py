"""Pinned digests of the CLI ``check``, ``system``, ``payments``,
``degeneracy`` and ``concurrency`` commands.

Each entry is the sha256 of the exit code, a newline and the stdout of
one command on a seeded ``tests/gamegen.py`` game of one of the six
variants (a general graph with an empty core and a b-general game with
edge floors among them).  ``payments`` on a b-variant is the input
error, exit code 2 with nothing on stdout.  ``check`` runs on four
imputations per game:

* ``dual``: the vertex prices of the optimal dual for single-use games,
  the half split of the optimal dual for b-variants;
* ``shifted``: that imputation with one vertex paid more than its
  marginal worth v(N) - v(N - k), taken from the others, so the
  coalition N - k is short and the answer is "no";
* ``negative``: one unit moved from the first vertex to the second, so
  the first entry is negative;
* ``total``: one unit added to the first vertex, so the total is wrong.

The ``check`` and ``system`` digests were recorded before core
membership was merged into one path for all six variants, and the
``payments``, ``degeneracy`` and ``concurrency`` digests before the
session's payment answers became bare values; any change to those paths
must reproduce every entry exactly.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from random import Random

import pytest

from matchcore.cli import main
from matchcore.gamefile import render_game
from matchcore.rationals import format_rational

from gamegen import (
    dual_imputation,
    random_assignment,
    random_b_game,
    random_general,
    shifted_imputation,
)

GAMES = (
    ("assignment", 0),
    ("assignment", 1),
    ("general", 0),
    ("general", 4),  # empty core
    ("b-uniform", 3),
    ("b-uniform", 6),
    ("b-unconstrained", 3),
    ("b-unconstrained", 6),
    ("b-constrained", 3),
    ("b-constrained", 6),
    ("b-general", 3),
    ("b-general", 6),
    ("b-general-floors", 20),
)
IMPUTATIONS = ("dual", "shifted", "negative", "total")
SECTIONS = ("system", "payments", "degeneracy", "concurrency")


def make(kind: str, seed: int):
    rng = Random(seed)
    if kind == "assignment":
        return random_assignment(rng, max_side=4, density=0.7)
    if kind == "general":
        return random_general(rng, max_n=8, density=0.5)
    if kind == "b-general-floors":
        return random_b_game(rng, "b-general", with_floors=True)
    return random_b_game(rng, kind)


def imputation(g, name: str) -> dict[str, Fraction]:
    imp = dual_imputation(g)
    first, second = g.vertices[0], g.vertices[1]
    if name == "shifted":
        return shifted_imputation(g, imp)
    if name == "negative":
        imp[second] += imp[first] + 1
        imp[first] = Fraction(-1)
    if name == "total":
        imp[first] += 1
    return imp


def run(capsys, tmp_path, g, *argv) -> str:
    path = tmp_path / "game.txt"
    path.write_text(render_game(g))
    code = main([argv[0], "--game", str(path), *argv[1:]])
    return hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()


def outcome(capsys, tmp_path, kind: str, seed: int, command: str) -> str:
    g = make(kind, seed)
    if command in SECTIONS:
        return run(capsys, tmp_path, g, command)
    imp = imputation(g, command.partition(":")[2])
    text = ",".join(format_rational(imp[q]) for q in g.vertices)
    return run(capsys, tmp_path, g, "check", f"--imputation={text}")


CASES = [
    (kind, seed, command)
    for kind, seed in GAMES
    for command in (*SECTIONS, *[f"check:{name}" for name in IMPUTATIONS])
]

PINNED: dict[tuple[str, int, str], str] = {
    ('assignment', 0, 'system'): "551399c45efd3acc6ceb854ac5c492522d25c7b08776cadbc7cbf4bdcafe9996",
    ('assignment', 0, 'payments'): "2dedbc09aa27dfd2889688adf0307b592d61684a0dd17204bae60e24f43f46d7",
    ('assignment', 0, 'degeneracy'): "2a59d2b7cd101f9b57a52e3523c7600f0f099055bf0e23f25dbecab1395dd6d0",
    ('assignment', 0, 'concurrency'): "bf5a0162435f4b54ca3869669d884de023b8310bbb35587ea7834a092b20ce3b",
    ('assignment', 0, 'check:dual'): "9dac230777d5a8c3072772fad78b753298314e08688f36c41ce0099ac3bc35c7",
    ('assignment', 0, 'check:shifted'): "d375ba2d87151ca0a19b0a066487b60e813eed44db913554c7160682bdedb301",
    ('assignment', 0, 'check:negative'): "1963119a7f5abebea24b8ba5acbf6f9cf2d5c22c389a7d587423c9bdbba5ce6e",
    ('assignment', 0, 'check:total'): "6383d0fe8dae53691146fb5efdffe27d222c65032491ec7b5674421f2bcde05a",
    ('assignment', 1, 'system'): "0fc1476219a29690ba1631758766462821414d2a9f4fe2c6b03ba7c9224e02d1",
    ('assignment', 1, 'payments'): "0c10ae67e16b0ea56ae5c84c39d0647648ec5c40389d37e42a5d1816b49c71c8",
    ('assignment', 1, 'degeneracy'): "d2e09f9b3100ecfcc8be6f70cf1092f69e87368be80e7c130c82aea05a7a9a0c",
    ('assignment', 1, 'concurrency'): "4b936fe74e456ee4ffcf2271a3c6e1afd8253e3ac3b82d70ccdc0bec24ae07c8",
    ('assignment', 1, 'check:dual'): "9dac230777d5a8c3072772fad78b753298314e08688f36c41ce0099ac3bc35c7",
    ('assignment', 1, 'check:shifted'): "421a6f82948608a0d2c0b1b4f295c34cf5a8bb20205911f67de90e742665b572",
    ('assignment', 1, 'check:negative'): "1963119a7f5abebea24b8ba5acbf6f9cf2d5c22c389a7d587423c9bdbba5ce6e",
    ('assignment', 1, 'check:total'): "c8ceea42af49694c1bf008a081d3fa7ecde7ac21ee60e799a8c71ae198974d91",
    ('general', 0, 'system'): "3f1d3cc544fde3c239a2ac4a63f64cff213cb55ffce59fc875778191b945e031",
    ('general', 0, 'payments'): "99541a352db01d8991101400e074355f3097fff5f3392cd69a7672a5c1e5d889",
    ('general', 0, 'degeneracy'): "d249dfaaa3bd4ae78d984000ef5c7a063972a94ca7369a9ea56575091b39c879",
    ('general', 0, 'concurrency'): "9f5ed9e924e687353282849f9398c0e1e4ed1bc695dd2c862cd6351a39c4485f",
    ('general', 0, 'check:dual'): "3230ce4a665888c08c14a4a80dd481fca93470074a0c782f1f7d78c75de17f11",
    ('general', 0, 'check:shifted'): "0809fe44f5a552efa80da0fef7210cd7e8653b8347cac6eb9f86ca0995eadf91",
    ('general', 0, 'check:negative'): "333717908b179793460b011452d31350670c9896c8b6c0149cfc5e3553d752c0",
    ('general', 0, 'check:total'): "35851dc96d19c09571d2538e748cf85b7397aed225a01aa06d24ce314255ff81",
    ('general', 4, 'system'): "5712a8d3171a352f414f001d8d9f0498bbb2094eb6286e7a5bbd5c4f50c9e03c",
    ('general', 4, 'payments'): "56806b3c716e47cc486737dd668c3e1041dd40ee4f0faccdde2918ef2e073be6",
    ('general', 4, 'degeneracy'): "b83463232249c89d8c8ee00edfb7acfbbdf69f0fe265b9b6a132cb4059f98cc2",
    ('general', 4, 'concurrency'): "267b17a569167bc5cf9fec71942c5459b8544d3076cc3166783d03534ebcba43",
    ('general', 4, 'check:dual'): "fe671353ca9e88abad29b22fcc107134698848482b41e12e3ce70009790f4445",
    ('general', 4, 'check:shifted'): "fe671353ca9e88abad29b22fcc107134698848482b41e12e3ce70009790f4445",
    ('general', 4, 'check:negative'): "333717908b179793460b011452d31350670c9896c8b6c0149cfc5e3553d752c0",
    ('general', 4, 'check:total'): "fe671353ca9e88abad29b22fcc107134698848482b41e12e3ce70009790f4445",
    ('b-uniform', 3, 'system'): "46d1bdf46154494c645f7b9816366edfa596a0d2193d40146cef45a004361668",
    ('b-uniform', 3, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-uniform', 3, 'degeneracy'): "ac0731190efcd2a8da3bdf9a688ee970ce074a368b5ff0ea81f5b0e4aad2788c",
    ('b-uniform', 3, 'concurrency'): "c8a9697be642f0820b7a0413e800dd12fa85dde4f6b72ae6ac030d48da187288",
    ('b-uniform', 3, 'check:dual'): "9e519e37070d1ad8546850a42c3a0aada5ec72527dcc79f1a9ef9565f3df1bcb",
    ('b-uniform', 3, 'check:shifted'): "c7a08d6b1a4794c6fd8e555f996502af1fe30803b98133bded79f9c8093cd1cc",
    ('b-uniform', 3, 'check:negative'): "559b669611e97f11f400699cbdae15915d61702bd6df4bbd1844635d2e8361cd",
    ('b-uniform', 3, 'check:total'): "0acda763fb35f209841cab6c8221bb5533a849a50214d2bc8c5ed350678e58bc",
    ('b-uniform', 6, 'system'): "72af84b36b07c096858ee6ddf472caf8e28fdb0257dc926f882ed38524b6a9b1",
    ('b-uniform', 6, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-uniform', 6, 'degeneracy'): "ac0731190efcd2a8da3bdf9a688ee970ce074a368b5ff0ea81f5b0e4aad2788c",
    ('b-uniform', 6, 'concurrency'): "046ed6f1e47740a0c40ca857d98f0d1621511ceca6c2c62dbc15874ed5a3a6d6",
    ('b-uniform', 6, 'check:dual'): "9e519e37070d1ad8546850a42c3a0aada5ec72527dcc79f1a9ef9565f3df1bcb",
    ('b-uniform', 6, 'check:shifted'): "1c91ca25d5857334ef4424b34643f24e8485ea7f19dec13e3cb0c86cdf0c418f",
    ('b-uniform', 6, 'check:negative'): "559b669611e97f11f400699cbdae15915d61702bd6df4bbd1844635d2e8361cd",
    ('b-uniform', 6, 'check:total'): "b4655aa3628d561b1d171e19a47de70a1eda6e1efaed8e0c217b2630cd0d8459",
    ('b-unconstrained', 3, 'system'): "01f7389e41fb8141baf89ef3dba199ad15e28e024a81f5dfe158bac39e7aae7d",
    ('b-unconstrained', 3, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-unconstrained', 3, 'degeneracy'): "448e4063b36daed092a880b7efde9cb47415a4caf6928c31ecd8cb7c3580c845",
    ('b-unconstrained', 3, 'concurrency'): "82d730469922f7c6c904d9cb74b39b86673c4bdafd21ba388288e1d0875716f6",
    ('b-unconstrained', 3, 'check:dual'): "d93c6df7897e355e147955ea55bd16f3cc00588766574f503f76d525285700e3",
    ('b-unconstrained', 3, 'check:shifted'): "d56fcedde2363fd2d2475c35884a5974eb031935e35f85d053ffe6c8b2bac96e",
    ('b-unconstrained', 3, 'check:negative'): "6401fae92888cb66f5102b2013dba61093371ad039a2f950b881dac0e5e0661d",
    ('b-unconstrained', 3, 'check:total'): "5cdc8b5a52ca459e7a417c822a33cee93006c1be6a393900cb24efd87b9ddd54",
    ('b-unconstrained', 6, 'system'): "644b88dc2b195341ba41027102739e5dfdd7704af5dce4518d0152edda137ace",
    ('b-unconstrained', 6, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-unconstrained', 6, 'degeneracy'): "448e4063b36daed092a880b7efde9cb47415a4caf6928c31ecd8cb7c3580c845",
    ('b-unconstrained', 6, 'concurrency'): "ecfdabc7c175b044298cc073cdd825acfb75c0720f3d70f5f176ece466e9fda3",
    ('b-unconstrained', 6, 'check:dual'): "d93c6df7897e355e147955ea55bd16f3cc00588766574f503f76d525285700e3",
    ('b-unconstrained', 6, 'check:shifted'): "ae37d145a24b98b0fa9502457264ae09ba3b6507f6808465a92f780d9a4183f0",
    ('b-unconstrained', 6, 'check:negative'): "6401fae92888cb66f5102b2013dba61093371ad039a2f950b881dac0e5e0661d",
    ('b-unconstrained', 6, 'check:total'): "74c5135c0f2eaa6d921c0dde9741ed050ab7e8bc77ce96ffcb847e654a54865a",
    ('b-constrained', 3, 'system'): "6d19bb35eb071fc54cfa77e8916ac85f7627035382f1745f9ae7c3f381906607",
    ('b-constrained', 3, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-constrained', 3, 'degeneracy'): "ad5e553ce5bb902f51d05e31b858726fa8ade5a6c7e4cd8fd08aa8c8fc5a85b4",
    ('b-constrained', 3, 'concurrency'): "287ad6cbbc3c1f89dffbc022f17c425880bc02b5362e793a1bf13f01bf0e2fbb",
    ('b-constrained', 3, 'check:dual'): "e339ac1749557b5b3587bb39779165aa35e0d420d022289f9336ab73bd9be9a3",
    ('b-constrained', 3, 'check:shifted'): "fe6fa4d82603db6547e91763852639a6b0b1f39d60f9aef1c40c29ec685410c6",
    ('b-constrained', 3, 'check:negative'): "068b89591bc6014871f8348ee86502ccfae9f8e04c2b96a5c031fb2178118952",
    ('b-constrained', 3, 'check:total'): "1cd4030b2f75931f9ed4a509570acc0fda60d3722872495a00b73b68d44a1c14",
    ('b-constrained', 6, 'system'): "15715798b69ed272d05e288f96a95f25cb20f66be39b1905a7df966bdf873be0",
    ('b-constrained', 6, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-constrained', 6, 'degeneracy'): "ad5e553ce5bb902f51d05e31b858726fa8ade5a6c7e4cd8fd08aa8c8fc5a85b4",
    ('b-constrained', 6, 'concurrency'): "3a8a7c29d6b54238cbea5c76a495364aa868ff01faabbcc1b1a32b86686207c3",
    ('b-constrained', 6, 'check:dual'): "e339ac1749557b5b3587bb39779165aa35e0d420d022289f9336ab73bd9be9a3",
    ('b-constrained', 6, 'check:shifted'): "a1af6661f6c83c6707c6dda5e1acb5d2ba7af02284ed7bfdba5b5a9d7a87f8bb",
    ('b-constrained', 6, 'check:negative'): "068b89591bc6014871f8348ee86502ccfae9f8e04c2b96a5c031fb2178118952",
    ('b-constrained', 6, 'check:total'): "deeaf7e1951b7af76ca2f54ea617630ae45b295bb9d937a0136eaad65df9db85",
    ('b-general', 3, 'system'): "627e1c57914615c55664f0a30948eb4552f52212d9d8cf465d881746c8d2376e",
    ('b-general', 3, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-general', 3, 'degeneracy'): "9da76f0d32f2da9051659731332cd2194cbc5354abed6721e1d873ed1617847d",
    ('b-general', 3, 'concurrency'): "0e7e59f63c8984e6a50fb24f7a216ffe4231c642cff87bce34406b04fc24d5a7",
    ('b-general', 3, 'check:dual'): "65ca2602820c939c171eaabc67ba02e219e5d774c9465f90c06758948d56ffce",
    ('b-general', 3, 'check:shifted'): "547f9f508b876fb06508f1e918f1e022daaf9c5d280e268c1d2e2f3fe00b92d3",
    ('b-general', 3, 'check:negative'): "faf7215dcb05ccb723107666b8499cec3c4e9ee012f91090fe86a111e899b820",
    ('b-general', 3, 'check:total'): "3f0308ff4e7a44ec23f9a075b2848a4126b5ad63cfda843458dd407ca9dc29c2",
    ('b-general', 6, 'system'): "0e91c914aebc2767f83c0d5d5ca286ae89863405f8d2786a9d923552bcb9e9cb",
    ('b-general', 6, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-general', 6, 'degeneracy'): "9da76f0d32f2da9051659731332cd2194cbc5354abed6721e1d873ed1617847d",
    ('b-general', 6, 'concurrency'): "5b56aca70113ad55af96cac75798ec6548c02b12675b591ea5b58ebf39b5cd2d",
    ('b-general', 6, 'check:dual'): "65ca2602820c939c171eaabc67ba02e219e5d774c9465f90c06758948d56ffce",
    ('b-general', 6, 'check:shifted'): "d9617257a5b4e75d17d033d811a3f5f671323fb03fddd0e744f4431b6f1cde96",
    ('b-general', 6, 'check:negative'): "faf7215dcb05ccb723107666b8499cec3c4e9ee012f91090fe86a111e899b820",
    ('b-general', 6, 'check:total'): "7cf4ef37c1cdc230a61f0708b12e362c9e2861ce561002d539cf253242e02b26",
    ('b-general-floors', 20, 'system'): "113af22d1bfeb9acbcfa92e12d86edd439b296b0af48ad78dd167a4cd0a703b0",
    ('b-general-floors', 20, 'payments'): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ('b-general-floors', 20, 'degeneracy'): "9da76f0d32f2da9051659731332cd2194cbc5354abed6721e1d873ed1617847d",
    ('b-general-floors', 20, 'concurrency'): "40bb7c33a34b46f9a53afa18ebc2a1205b00a6ecab8f394e354a5bf9a59f0c41",
    ('b-general-floors', 20, 'check:dual'): "73025f5f9fe2b11b02e1547f0611fcc423ed4305f0d9d9ed660ec30ef7b791bb",
    ('b-general-floors', 20, 'check:shifted'): "73025f5f9fe2b11b02e1547f0611fcc423ed4305f0d9d9ed660ec30ef7b791bb",
    ('b-general-floors', 20, 'check:negative'): "faf7215dcb05ccb723107666b8499cec3c4e9ee012f91090fe86a111e899b820",
    ('b-general-floors', 20, 'check:total'): "72c5c6018bde84df18a335485ca376d28adcf4eb5a6f0ef1903c36491fd21038",
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("kind,seed,command", CASES, ids=[":".join(map(str, c)) for c in CASES])
def test_cli_digest(capsys, tmp_path, kind, seed, command):
    assert outcome(capsys, tmp_path, kind, seed, command) == PINNED[(kind, seed, command)]
