"""Pinned digests of the full report on seeded generated games.

The bundled instances pin 12 reports byte for byte; these digests extend
that contract to 44 games from ``tests/gamegen.py``: assignment games,
general graphs with a nonempty core (seeds 0, 2, 5, 6, 7) and with an
empty one (seeds 4, 18, 20, 38, 56), and all four b-variants, the
general one with and without edge floors.  Each digest is the sha256 of
``full_report(g, DEFAULT_COALITION_CAP, DEFAULT_BUDGET_CAP).to_text()``
recorded before face queries were warm-started from one base solve per
game; a report that raised is pinned as ``raises <exception name>``.
Any change to the analysis path must reproduce every entry exactly.
"""

import hashlib
from random import Random

import pytest

from matchcore.analysis import GameAnalysis
from matchcore.games import DEFAULT_BUDGET_CAP, DEFAULT_COALITION_CAP
from matchcore.reports import full_report

from gamegen import random_assignment, random_b_game, random_general


def make(kind: str, seed: int):
    rng = Random(seed)
    if kind == "assignment":
        return random_assignment(rng, max_side=5, density=0.7)
    if kind == "general":
        return random_general(rng, max_n=8, density=0.5)
    if kind == "b-general-floors":
        return random_b_game(rng, "b-general", with_floors=True)
    return random_b_game(rng, kind)


def digest(g) -> str:
    try:
        text = full_report(g, DEFAULT_COALITION_CAP, DEFAULT_BUDGET_CAP).to_text()
    except Exception as exc:
        return "raises " + type(exc).__name__
    return hashlib.sha256(text.encode()).hexdigest()


PINNED = (
    ("assignment", 0, "651ce62c49a5e86338f0b6d2525fd0611f2e091d098eb4fb2c287e0d267b5c1a"),
    ("assignment", 1, "6bd36260e43a178738b8c65dafc2a0289b906d4a0fea97105cbc48792223dae7"),
    ("assignment", 3, "59467ab320febdc4c179b06abff1a8be900dacc23f821b817f30f5de6619666e"),
    ("assignment", 4, "2c2c31701670a328fe1078384d612e9b3ed46324ac4801dff619155ae81d2778"),
    ("assignment", 5, "e78d8abd1422de68131624f4f7ffdd9f10047d6cdb068f835d075756f8bbbfa0"),
    ("assignment", 6, "51d06b500c5758703c4c0344b7b9250be2df7be461ad6846d1e9562ecd9fa165"),
    ("assignment", 7, "32e76680ba3e7d08e0847580cac9899410dd9b19b6878924f0081af9cee5bcdd"),
    ("assignment", 8, "9c8f5b858ae182271fd79e443704f2d16eded317753f5f83733d8c7c024c0152"),
    ("assignment", 9, "ef1f38a28c0147f53be43af84c2288839a84f90b95a83ec91f54ad949b0ce56d"),
    ("assignment", 10, "7fa9fd92f338e0061254af82edf76175baadbf02ba0ca1975192dfa2e32514bb"),
    ("general", 0, "62abefb3b07973822021c997209835f3e22150c835b002fb477cd90a9af399a8"),
    ("general", 2, "4b0b7ed54fabf79170aaf7d065be60fea0bcfb84daf7e76195d2c3f613077b64"),
    ("general", 4, "f69a88479927a856cf59f6705f154c77a62ff96c32691cb1c196725cf0b8a5bf"),
    ("general", 5, "2b8442e2a9132c9309f864e82dbf6778149b0e46c858afd74749b9b1dac9bca9"),
    ("general", 6, "e1d76cd7f093e8e03fd352eaea80aa9c4b051e1ce0e78b1b4cab6722e28bfa09"),
    ("general", 7, "fd10b2a5e35a9938f680e3c6459526ba2e4e1ee758dba1654ab35d316c0bc7f9"),
    ("general", 18, "893f7526df4f183c04c4ceea6cc8826a0114334749839349e12c95e2aefdd089"),
    ("general", 20, "b87c99ba6085d53e6e5b318172a937577f2a65ed1b725faf4eb98cadc8b59a4e"),
    ("general", 38, "8dc2cb6052bde5ef655a31397bb83bf2092c871591982bb8bb14f19d10840b93"),
    ("general", 56, "bcbbd00e2b575b7976f12212ecbdff43f99a5699979b3b9dddab014bc4b00492"),
    ("b-uniform", 0, "a54983e60cc488f80d39abbc3d5902f89605b6378680a40d447622901faf1700"),
    ("b-uniform", 3, "6bc4c2e180268e44ace7fabef69fd89ad6208c4fab2c82facdd3ff49e8f80bee"),
    ("b-uniform", 6, "580f1914a6f9947f33b4fb3e02cd91401a41c94eb6b56831891a68e1c2f765d2"),
    ("b-uniform", 9, "44f6bbb246c44151f08dcba98de9354d182d71c27c481e60f2be333489f7804f"),
    ("b-uniform", 11, "661503dc54bf76cbe8e83cca63d4c381d5a4764531363ac702d8a9a5d03f00a7"),
    ("b-unconstrained", 0, "37246510adbde0a225fb848f332f8d00b14317d31f46f078592152a6c8007718"),
    ("b-unconstrained", 3, "2e10813e233bc772a8be8a33c800a8812bf4dfa24f6eedf062cdc67650201876"),
    ("b-unconstrained", 6, "81c447db4e0b271127be921fc8510afaa4358dc15918ae8ca110538b0913353b"),
    ("b-unconstrained", 9, "16e9089ee516f6cdd51ef344a127fafa100d38bff9702e8444f4d81c671adc4f"),
    ("b-unconstrained", 11, "03ac4f8054d4a1b43f9d5f73127c07c592e5985e5b40661b6d85a011df292801"),
    ("b-constrained", 0, "ecc0cffd545ce22de9ed86bc39a0cf9b388327d8d2d08cddf35fe998046be363"),
    ("b-constrained", 3, "9156dd8d6bcc47a68c24fa7c087d49eb237840635a2e4cbf4a3c553ebba11339"),
    ("b-constrained", 6, "edc15d6960fc625a769c089bf3cea926a8341415d2095addb672babe5ed6729a"),
    ("b-constrained", 9, "b384399598127b645a9ec354554d6b9f250b9ead97b7ebaaef335f1aec174784"),
    ("b-constrained", 11, "85fc20b4245367cbaa9692af44b99b26ad3991c6045305841dc7553804b06de3"),
    ("b-general", 0, "2030bcfb7fe36d3207af541e127263913ea3a1bbba59122d206da1f55b97b51e"),
    ("b-general", 3, "27890821020c856b659487d8ce893c729e669d8f5901ae2956488f9352351d12"),
    ("b-general", 6, "ea2ee84fd1e96bfb8beb958d7577a6d1a380f833172593b34045f8155234905e"),
    ("b-general", 9, "d03b1cf9e98e8d1d8d952fd3deeb25a22b591bfc42b6ff6171cff9109570f8f5"),
    ("b-general", 11, "f679004bfef8dff1f8b967de2d18854f83b21101c8edc86e3c1f9f155ba4b321"),
    ("b-general-floors", 6, "raises ProfitSignError"),
    ("b-general-floors", 10, "5e6633a89d38a6498880263ecfddd932f7d71e69dc66b7b0213b39321cb3b4ee"),
    ("b-general-floors", 20, "23ba763f2b7ed0864c2e725173a52d10d9ea577adbddf264a9a3e63d8f0efa79"),
    ("b-general-floors", 23, "df18e1b58a35118fb3e33e460866f5075a6eae79bc1a3034494f09c5aee2ef4c"),
)


@pytest.mark.parametrize(
    "kind,seed,want", PINNED, ids=[f"{k}-{s}" for k, s, _ in PINNED]
)
def test_report_digest(kind, seed, want):
    assert digest(make(kind, seed)) == want


def test_general_cases_cover_both_core_states():
    flags = [
        GameAnalysis(make("general", s)).concurrent
        for k, s, _ in PINNED
        if k == "general"
    ]
    assert flags.count(True) == 5 and flags.count(False) == 5
