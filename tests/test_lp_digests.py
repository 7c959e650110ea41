"""Pinned digests of the primal and dual LPs of every variant.

Each entry is the sha256 of ``repr(build_primal_lp(g))`` and of
``repr(build_dual_lp(g))``: variables, objective, rows, relations,
right-hand sides and row labels, in order.  The games are the 12 bundled
instances, seeded ``tests/gamegen.py`` games of all six variants (the
general bounds with and without edge floors), and one hand-made
b-general game with vertex and edge floors.  The digests were recorded
before the builders were rewritten to emit rows from the bound families
each variant prices; any change to the LP builders must reproduce every
entry exactly.
"""

import hashlib
from random import Random

import pytest

from matchcore.bundled import INSTANCE_NAMES, load_instance
from matchcore.gamelp import build_dual_lp, build_primal_lp
from matchcore.games import make_game

from gamegen import random_assignment, random_b_game, random_general

SEEDS = (0, 1, 2, 3, 4)
# Seeds whose b-general game draws at least one positive edge floor.
FLOOR_SEEDS = (6, 10, 20, 23, 26)
KINDS = (
    "assignment",
    "general",
    "b-uniform",
    "b-unconstrained",
    "b-constrained",
    "b-general",
)


def make(kind: str, seed: int):
    rng = Random(seed)
    if kind == "assignment":
        return random_assignment(rng, max_side=4, density=0.7)
    if kind == "general":
        return random_general(rng, max_n=6, density=0.5)
    if kind == "b-general-floors":
        return random_b_game(rng, "b-general", with_floors=True)
    return random_b_game(rng, kind)


def vertex_floor_game():
    return make_game(
        "b-general",
        ["u1", "u2"],
        ["v1", "v2"],
        [("u1", "v1", 2), ("u1", "v2", 3), ("u2", "v2", 1)],
        vertex_upper={"u1": 2, "u2": 1, "v1": 2, "v2": 2},
        vertex_lower={"u1": 1, "v2": 1},
        edge_upper={("u1", "v1"): 2, ("u1", "v2"): 1, ("u2", "v2"): 1},
        edge_lower={("u1", "v1"): 1},
    )


def game(case: str):
    if case == "vertex-floors":
        return vertex_floor_game()
    kind, _, tail = case.rpartition(":")
    if kind == "bundled":
        return load_instance(tail)
    return make(kind, int(tail))


CASES = (
    [f"bundled:{name}" for name in INSTANCE_NAMES]
    + [f"{kind}:{seed}" for kind in KINDS for seed in SEEDS]
    + [f"b-general-floors:{seed}" for seed in FLOOR_SEEDS]
    + ["vertex-floors"]
)


def digests(g) -> tuple[str, str]:
    return tuple(
        [
            hashlib.sha256(repr(build(g)).encode()).hexdigest()
            for build in (build_primal_lp, build_dual_lp)
        ]
    )


PINNED = {
    "bundled:fork3": (
        "7d7000a3545be47029b22139633feee37cccc55a05438a582eeef084065bbd9f",
        "bc4f45a5b16af2afb6ebc1f93e3f47302796bd8f17986aa9d0fb11191abc4804",
    ),
    "bundled:path5": (
        "465f7c4d1292018c8275198f356b942d2c304ae6bb4b8aead9c8c1787d974614",
        "0da87f1c1845b70dfcb4fe7101ab2745644a95cbef35244c96bd66ee24321add",
    ),
    "bundled:web5": (
        "8f73f3b53d997b1201638556dfb868e98c1fad59010af23540529be2bd221d26",
        "79767ef05c35ec448feb42ddcf82c202061de41f0dd41a18dae7ebcbc507da41",
    ),
    "bundled:tiers8": (
        "a4739d41cc011330a4c35cf46bf7bf229230472e39491b35ad91178057df3cfb",
        "8675c5b1ce935d77c7c02f1c973d9c7232430dbd662848f4b73385e653802ed5",
    ),
    "bundled:ring7": (
        "f518de0869e4409c85a3028b316d3474d17f02ba5dd65f7aaa7fbfdb5ef552e6",
        "0300256c68e94a0edb46cd316df60447a2714aa4979e7b82dddc3867e9547197",
    ),
    "bundled:tritail4": (
        "31286754340d0ba11c0c0148263aef2efbd82c6d675cb456d6d4ba948d564bd4",
        "62434a7585a39e85c50c4d1c7168047ec5f1e4cf032f50f3f025b4a8b44ff83f",
    ),
    "bundled:k3": (
        "6512a9978dd9d0cf8fcd88de4c26d22353bef925ef7c44d9f45afc3df11a0ad0",
        "f9c27b66d14fcf77f707f963a0605e039deb34ba5195f73a731cc88f83f315e9",
    ),
    "bundled:bpath4-uncon": (
        "c0055f4c8138f5eafea7628a1311b108f74aed4e62917f9f9c8ea62e5560e999",
        "b0eb6fb1285d917ff5276d02b2e404c4727a6cefb2e60523e334f23e0d5661ce",
    ),
    "bundled:bpath4-con": (
        "550199995eccee756e96d75d64b8aeb1db14d4400ad2883106aae0f0c351fc04",
        "f999a7ede2a6fb357da9336f53aa6c8773553b3035a94cd5cbb95e62719c94fe",
    ),
    "bundled:path5-b2": (
        "5cb79cc9e6f23c81857fc129b99af1b65571df1e83831cbddb765deb4cc4cfdf",
        "7f7de0342e788ac05bb3300b1f6761b7dfc86f90a8fa744d2d6fd3aca4efc7d2",
    ),
    "bundled:bpath4-gen-d1": (
        "d88c5533c87d21cffd40eaef373be57d83d315e83dc2f591e64401250a0d9796",
        "45cb0108f4ae181dedd444b8f2d9b1b5f451e9f7ef3f174bd9d258c056fde6bd",
    ),
    "bundled:bpath4-gen-cap": (
        "63ce41f999baa1d01f22e50491c87a047c20273cad3e5e27af8bc1d4ecf80f9b",
        "fd9a6a4b81519de8ced3cb7d18afe8ce80eed112eb1b66ae732c20a1ed313076",
    ),
    "assignment:0": (
        "7b7715f651a1267f3662c0922b99b14e407f0a64dc2a2c839212c23f649e465e",
        "2e147b98d28c31f0908473f873eb714ebdc96ed7c41b4da0f3f07078bea66f97",
    ),
    "assignment:1": (
        "c8ff12bacea94e4201c5156b68c6d3ab650cdc75a4532d81df0a920296aa824a",
        "5ca34e1b9e834c0907c1a897debcd2c71f40d10bb25db7855f278a9f0dfaa852",
    ),
    "assignment:2": (
        "c1b93d0a7eb6afe30492cfdac26923e1bb6c2c775ffdd25ffd80bae03b0df1a0",
        "c24fe730d65a69b43a181acf88ee176cf9070a9ec6390b30a39ae199059be010",
    ),
    "assignment:3": (
        "79ce8b9e029ccf2d4c65caa461912c09bdb3ea31ddc7cc4be30826cd24e5d659",
        "768ce018284032876a3e42c6ba5610f1b24a6f95e399d979343429532551b332",
    ),
    "assignment:4": (
        "40b41bce39f2d6530267534af968ef5e5995693a2658f13dcc7ae5bd91cd776c",
        "22ac58f5c4e8605ab044f2bdb52b93a51e4ec34b99f2f2c137ce82d308b2aa4c",
    ),
    "general:0": (
        "b02c8394451041b3d312d36930b3fa51b222582c8ad3b20ef0fa4588260c286c",
        "abc722cad4e23c6f2ef182b7866754e15f436ca7024dc71a15352526d682ca83",
    ),
    "general:1": (
        "9e28b1659d45c54a5fbf952b6765e24e25bd18bd446995226eadca842d2b072a",
        "a3642307b8b81799efc9d423d24b0c662671c1b5e6c96c3b4428f6a42a8d94ec",
    ),
    "general:2": (
        "ceaa5293fe3480c133dad2c787710ec537ecce45397b91e7f9d5afef830523f0",
        "5427f78820f11c24d589056514b5782fbf17d77ea752067b9447b0f2e8ca8f37",
    ),
    "general:3": (
        "77a5a3d67b3fd345e2526f21e064c86ad69e184f16c59f94cc5e35b57d371dac",
        "2c14b81a6c62c1eb0cff32563db2f3e2db59cf195c83448511ac0d86c16d2ed3",
    ),
    "general:4": (
        "3e7c749805980370bcf002d5069f9418044bb19f1999994b148d57b8848811b0",
        "2fff8472e936e847918d9d02c3711c6a2c768c76e24a9027e23c9fdaf3fff210",
    ),
    "b-uniform:0": (
        "bf84aadb72ba0bcef7fb5fe2ab5fa8257b60a8004755b00e3a8aee9216a85f7b",
        "75aba0d0d5ec7770dee95a22b58bf61594b0fd95cd2916f1631e53948f9f213d",
    ),
    "b-uniform:1": (
        "fdaf046b738ec9bcccde7ae42d971646c43e3743a3ed8bfe13cde822717492a6",
        "233af589dfb9d551539edaa94d7c53298a5a724b467fc085364ca7237d64523c",
    ),
    "b-uniform:2": (
        "9498d1037d1a8e79a172200ae78877878fc0623851dd6d4abb5c746589cd21b3",
        "73b892c89b835d4443c13fe97429106860c03c19a0c97e08681826b0414af98b",
    ),
    "b-uniform:3": (
        "dbb6785ed60b46b3f994a4d06a0c94a00721a6dd7d2e925b29af9c32ce4654cb",
        "d85ce5cdc3fc5d70bbb6cc98ae1701803b57263824f4b236857c537982a1bcb6",
    ),
    "b-uniform:4": (
        "5276e682e4aab514e48ed4e815f98e23dbb836b70052a6581c84251d405b53e8",
        "c7f9b0d42d8c7d08fe21eb7eaa72e1f70dab73bda6d3208d4b74f749a201247d",
    ),
    "b-unconstrained:0": (
        "4a00bc9d407123725fbf1746ea9a6967227648577174a913652e607e9d02c8f5",
        "2f68bc9cc4f4d4de087ef7e8c0a7447d14294fbe647d261c91a8f6c3246d5d25",
    ),
    "b-unconstrained:1": (
        "f044d2085bd2e48c12d2c7c38d0d32de9545f429d36066ddde5028693d267346",
        "031f0d49856a8a64f3be2e1fb2d49229e636527eacbcffc21bbf2c1e5c6276bc",
    ),
    "b-unconstrained:2": (
        "5fb4ad29a1679e2af30df498a549479e1eec55301c479ca804ee144004fc0482",
        "3d56cc724051c1e60e738b6d73fa6a6e46871e1de3eea0f58d4e0b6fc1148431",
    ),
    "b-unconstrained:3": (
        "fe36e03c3a88f3319581d38bc38168dc8525b1741a1cb98fa070ce11ce28e8ed",
        "b1b56297f39c42f352a30b199a08be4abbcb686b81212f23e500d6203a6f5a9c",
    ),
    "b-unconstrained:4": (
        "231ec61d0dd50fc145865f9880774b947b9bef97ee78df2c36f6d34d94aa0ff7",
        "2be946efd6b51b467c93c4aa51386564a44a454cb78dd0aa73b8afb3f985ebc5",
    ),
    "b-constrained:0": (
        "fd02977addf82be4db25bdf62a84ab06a47f4e83f5aa64c98ca9b2602f3fd48c",
        "51fa5e97bf29ba64373fd7e713a393b69bd5b240f6ac8397f9c67bb601bd1b37",
    ),
    "b-constrained:1": (
        "c02041633322bc6279938dec51c29edc30ae02c82fbaae983efd67b64f512ad8",
        "1997ee9badfc6f0b4fd911574a29e5a48870ea1f07e791fc0ab680a8ae7607ee",
    ),
    "b-constrained:2": (
        "667b6a0bd4475bb954f9d5bf64f03276007cd699a55524b19b452badc1529171",
        "815b99872875a743189d38efad0b7c87e4e34636b4bf612376387b1c4bee3e8d",
    ),
    "b-constrained:3": (
        "6a0063df203d68490b15900c5149fdda38fa46dc9be3d251ff2c3ead6fe55023",
        "aa8bbd2d2a2099fe7e383b221a5b1e7d6d1f7e5d8b80870e6b527c7d056cb3b0",
    ),
    "b-constrained:4": (
        "dd17413be1594e50033dbb38754671e13a2a26b5f1097026d0859cab6b420d2c",
        "22e0d36a298edd35b1cb450e533337c7c8f56375b6b01a3333767778f772c29a",
    ),
    "b-general:0": (
        "accc70741ca97c13b34542b4fac93d4e283f37db0844bb4e649b62af5e26797b",
        "cb63d40ecfaeb832ffc81395986e5e76081e824edca610b2e91f8160f736c6b8",
    ),
    "b-general:1": (
        "8639547aef63cf7bea7675980085ee7141bfd266d24733c3e8c61f05044c7279",
        "cd0fb09c20c3602670b28388a89ac087eab8d639ead3112f5744ed8f71a27e3e",
    ),
    "b-general:2": (
        "b20a7aaa9011dd2761cb462edadf6d30759ddcf80f7a0f8f28750cba24423948",
        "f49fc9919c782f98dac5a34b3defb49af95f334c2115778d6430d1d574889c48",
    ),
    "b-general:3": (
        "025ad5892da5930fe71fe40649bb494678cc749594fe408552bba9c4f0b21f71",
        "beb6d680a922a2feac0f444eaad0d1b57db8711e6f65d9d4096ebe895c7e3da2",
    ),
    "b-general:4": (
        "0b17d141de43d8f56a1df6f9ed103b6ff3a1e41f1bf07ab663c2c557d6b723d8",
        "808e00c9e84999d94d45468c9014d3804fedf77d1b95162630c21654690cba52",
    ),
    "b-general-floors:6": (
        "806881c2dfb02961349ca6a585093ad6125f9cce8d9160757f3cb892298c4de3",
        "391d499a300331634d9181d6727d18cbe807a5b2309c474db1b4cbf4059bf43b",
    ),
    "b-general-floors:10": (
        "fa6938362ef053b9065be04ce7666321145d1ecc6598cb543440b795ac137295",
        "5b35f60feec700a40886b9bf7111b8b24aec98b3420417f34e2bf7d87298f97e",
    ),
    "b-general-floors:20": (
        "c09426d024676f68e441dabb7b6bbb8662770e2b67c87522a04ab7082a4423e7",
        "730470cfcbc01510918fa50b0bf46b764b50f153c3ada470c850bebdedb069ac",
    ),
    "b-general-floors:23": (
        "2eb06cb50fceb936401f6a94dc8358e4d4d4eca1203124c70b339176c9d1ac58",
        "d02fbfb8fc1146769da2d33f423324047a64d5ed1eb488a11808011555ba8694",
    ),
    "b-general-floors:26": (
        "76d2b7e028f4f092df65c460a3600e8dbc0713027667da033323ea74433c10fe",
        "8414cfaf1eb3307f5fd2465700e26fb6d921559f95214e4614c1bc641fd9efaa",
    ),
    "vertex-floors": (
        "81f3c2a943ec8d91202f18c60ce0cef2c51584dba17282ce3f3d5da3dd3a560f",
        "d657ea8f871ab4b498237ffffab5b8e37567c705d3f64164f1b9c53cbbe9b47d",
    ),
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_lp_digest(case):
    assert digests(game(case)) == PINNED[case]
