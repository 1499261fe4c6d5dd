"""`alexander` and `verify` on a seeded corpus of random deficiency-one
presentations: the sha256 of stdout and the exit code of each command
are pinned, so any change to the exact side that moves one output byte
on inputs beyond the fixtures fails here.

The corpus has 2 or 3 generators, one relator fewer, and rho modulus at
most 7.  About a third of the characters factor through eps (rho =
zeta^(c eps)), which leaves H0 nonzero over the infinite cyclic cover;
the rest are drawn freely, and the relators are drawn until both eps and
rho kill them.  A case whose module is not torsion pins its exit code
and empty stdout like any other.
"""

import hashlib
import math
import random
from functools import cache
from itertools import islice

import pytest

from cuspedzeta.cli import run

LETTERS = "abcdefgh"


def _word(rng, names, length):
    """A freely reduced letter string of the given length."""
    out = ""
    while len(out) < length:
        ch = rng.choice(names)
        ch = ch.upper() if rng.random() < 0.5 else ch
        if not out or out[-1] != ch.swapcase():
            out += ch
    return out


def _killed(word, names, values, n):
    """Does the map sending each generator to values[i] (mod n when n) kill
    the word?"""
    total = sum(values[names.index(ch.lower())] * (1 if ch.islower() else -1)
                for ch in word)
    return total % n == 0 if n else total == 0


@cache
def corpus(seed=2007, size=40):
    """`size` presentation texts drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        g, n = rng.choice((2, 3)), rng.randint(1, 7)
        names = rng.sample(LETTERS, g)
        if len(out) % 2:
            # knot-like: relator i reads x_i w = w x_(i+1), so eps is 1 and
            # rho one power of zeta on every generator
            eps, rho = [1] * g, [rng.randrange(n)] * g
            rels = []
            for i in range(g - 1):
                w = _word(rng, names, rng.randint(1, 6))
                rels.append(names[i] + w + names[i + 1].upper() + w[::-1].swapcase())
        else:
            eps = [rng.randint(-2, 2) for _ in range(g)]
            if math.gcd(*eps) != 1:
                continue
            if rng.random() < 0.5:
                c = rng.randrange(n)
                rho = [c * e % n for e in eps]
            else:
                rho = [rng.randrange(n) for _ in range(g)]
            words = (_word(rng, names, rng.randint(4, 10)) for _ in range(2000))
            rels = list(islice((w for w in words if _killed(w, names, eps, 0)
                                and _killed(w, names, rho, n)), g - 1))
            if len(rels) < g - 1:
                continue
        peri = [_word(rng, names, rng.randint(1, 4)) for _ in range(rng.randint(1, 2))]
        out.append("\n".join(["gens " + " ".join(names)] + ["rel " + r for r in rels]
                             + ["peri " + w for w in peri]
                             + ["eps " + " ".join(map(str, eps)),
                                f"rho n={n}: " + " ".join(map(str, rho))]) + "\n")
    return out


# case -> command -> (exit code, sha256 of stdout)
DIGESTS = {
    0: {"alexander": (0, "0628c13872a1de5411c5dc738b8c87dd14e9dd7302fd01a4b31f0bb6cad2e393"),
        "verify": (0, "75454899b84775a5b37325d03fa6c081bf7c31006c25ad9c32d328d38f6f35e9")},
    1: {"alexander": (0, "07a28ba40ee7f8c7d7b68438911154abe7f6d03be6e5152110700e30c86a1478"),
        "verify": (0, "5616867f1e06ed0001a7bb5fa8dde7c835652b9a38f3d4c7de6fb21af112b6e5")},
    2: {"alexander": (0, "62a6bf7677b556afd8638d6a018dee9d692306c1d06fd5216d0786da729d864c"),
        "verify": (0, "ea4f47b5e85aacece512bd7cbf818f98da1e9067a480ed19349bf2c98e7fbe55")},
    3: {"alexander": (0, "5e0970f39371eda2b411f236c07aa50faf937b3b4326d3dacadf81a5839a2337"),
        "verify": (2, "fd8941fe53675ce66e30d740741075ba635bea92cf4cdd2405da28f676c6e606")},
    4: {"alexander": (0, "8dcb365b25d386a61babfd8016e6e085e14c7ff7fca4efc93360e82e797bb86b"),
        "verify": (0, "c6666d4836d8679660f90fdc1e0c353734482aa26c67ae1792d46d9426c4efa6")},
    5: {"alexander": (0, "0432d4708a88a52272d023e682bbaee8853f5efb0ed496ce0ebe1ef03a200148"),
        "verify": (0, "ba34dd8394255fa23611ea31f03f95203b6e9ccbbcdc351dac8a6580cf908a49")},
    6: {"alexander": (0, "962b8b21287095d3cbe84f7a0b843f2c48df4f150491c0cb8f4bb598bb2963e9"),
        "verify": (0, "ac3d8d785d4be08b93f1248365d1388b5d0e736942bf877e67965ef06e4b1657")},
    7: {"alexander": (0, "791c97894ac2720a1c093ac42dc12eec2f18efd808374a8a35fb85a94c3817da"),
        "verify": (0, "5f2854c9e771765e369728b83cacc96227015344486c637ec4e3df503a078ac5")},
    8: {"alexander": (0, "c7276dbf1b2037b196e822b3edc726efe6fe1d4ba2608ac4639a298a47de6381"),
        "verify": (2, "dd0b647aeb60e6994d78bc2fbd0a2403a46fd36f84d207dc4c4f8d87e5020377")},
    9: {"alexander": (0, "7361d2d0ca4fd2d16c3c69aac57a4906f7a34c8c185b996385e74f2d7960153e"),
        "verify": (0, "f954de711789280379cd0e9cf48d79c1fb45606c9ffc533b2e85f8139a055adc")},
    10: {"alexander": (0, "3c945a04aa57d496a33f298a05deda4fb5cd83353fec5b69070a432c25903464"),
        "verify": (0, "4183d68bd50751e3d1fbbf9d7889b053f2079b9eb93e6f53476dde7de6b6d45c")},
    11: {"alexander": (0, "09de77d567cf6a32ca0e0deeece429d4d7e1e06f2815288149737a62e6cd475e"),
        "verify": (0, "57beafd57d8980f7770dfd981884b05ee6a11bae183d9fcf4efb2cb3f55d0cc5")},
    12: {"alexander": (0, "0b84024f7cc0212b296ccbe8ce452ed83b6b3c97ff56ecdf9f3071075f5cff61"),
        "verify": (2, "46f31104c2de949b3bf43e7d2a91f5bdcfb277ab04123e3b5e4d6f8f0123c1c1")},
    13: {"alexander": (0, "72f5e221cc0ac7406f9aa7bcfbf48bc833e191476c7b9e8633f8931745c8cbe1"),
        "verify": (0, "3e78ea5818cf874f8b4221ecff598c2a4e54724dc101d0b3f31820d58ae4a4d7")},
    14: {"alexander": (0, "19ad957de37ecfdf60cdfde16cfde13b37a93df9a9f4ea1f62f4b3003c6f9aa9"),
        "verify": (0, "d9b2b0c3d1d13dcf413b186c1f2b2239c5b6b4e76e61e5411ef91f17eef84772")},
    15: {"alexander": (0, "d1bbbbb1b88008e27369722cb274feaf1297faae17c0fadcaf9833c78e716ab9"),
        "verify": (2, "da568bef68fd29c4215f84cbff988be88f732fc5376d2fef1008b822e7401b37")},
    16: {"alexander": (0, "b63a7ed9c3af3097e1cd0a73cad45b5cb10e0a4ce775c27d66b4242f50653e1a"),
        "verify": (2, "e0b7c19b9c470bf7afdec9b02a63a48128e90c57cc55b673deba9ae81cd32d5f")},
    17: {"alexander": (0, "98ed35d550d0cf4226267ff01a6597b5d436c460e72650c2e4e754c61efecf70"),
        "verify": (0, "37124de2607badf90f0d92bccec3144ef69e56b36881d9a5a4248b17fa091d13")},
    18: {"alexander": (0, "1ea26b4e16b413e92572b73e76ecbb1544cd5cc182e18d93bea1a1762aee56ff"),
        "verify": (2, "f27895eef1dc1d845b6228d3c1f6a0be817004fd96de9c8943e27fbd08d3a479")},
    19: {"alexander": (0, "29091e5fab5a186c06d3b4c433b236285f87df81a73b7f0f9bd8b75484bbc6d1"),
        "verify": (0, "88d4c6630a6819d53786e68343ae3c50b82e1b70f7af1c59e88876d23c783df8")},
    20: {"alexander": (0, "1e7fff402adef61011607e116f41d9190b8568045dd235cb30f0796742278aca"),
        "verify": (0, "882f5243f479e5536c390495b352cfa630dea98b5259f0b554fb3b35beafdab4")},
    21: {"alexander": (0, "8518c30d9ac1348280e9b12dc46e5e183cec8302d3068c25933355dcb307e0cc"),
        "verify": (2, "573c0c50d9855628f342fbe7eaac50c36a689acffc28d87b02656ba05e60f157")},
    22: {"alexander": (0, "0b75afcdce3d4ced7eefd23de968c99ee6e48f9caa37741e98fc7107e20f5f09"),
        "verify": (2, "af5c38f1abad62185d86b2c73f4e45e52d5bd714910902dc8f2e66e840e3a997")},
    23: {"alexander": (0, "0588fe1993932beba3c155c31be49cba1755db20b67ff9d11a385edeefcf4927"),
        "verify": (0, "1572f643c8106201356aaed6fb815a724f3ec87014e8f561fc70f62bcc1e2a8a")},
    24: {"alexander": (70, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "verify": (70, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")},
    25: {"alexander": (0, "d97e93e146226947776fc548c7ee87b4b3dc50a62b22f7615767275eaf274192"),
        "verify": (0, "1306f33da29e434a25acf33bfdff26c2d2458df8cef9c8fc677dfcdd0b34864b")},
    26: {"alexander": (0, "0b84024f7cc0212b296ccbe8ce452ed83b6b3c97ff56ecdf9f3071075f5cff61"),
        "verify": (2, "9af82d6f49b3e85238723c2f4b935493c6e159ffc0f71fcc935ce1ad612317c8")},
    27: {"alexander": (0, "7406761334f6dbbb92fb77a7f1750af0effcdf2df29fe0ee6e18085343abd9dd"),
        "verify": (0, "1108735f8e61b0a282995f0fc1e8dd991a06de5abf58cc5c6b6bc93d1bf7c671")},
    28: {"alexander": (0, "a1951d437ecfc1bc6db595ca2c78b706f2cd3ae84e78d8d2f9ccce03eb43719f"),
        "verify": (2, "e3191df82290172421f9b7e7f84520906cd4cf57b5623464573734933310bbef")},
    29: {"alexander": (0, "34eb8250d70fa5ed2d74060de43db1d420d6e9351ae96d93bc62027e1a2b5f9d"),
        "verify": (0, "414000b64bdb0ea5b60c75f888d86f42da3aa6a9689c270bc45392e243800e94")},
    30: {"alexander": (0, "62e26a6c4da4721deddd637009ce54fd492abeb7f48c7423e0f4e58b65194212"),
        "verify": (0, "acdb1908f38b762cc75db6727f3673ece7e7301a0cf78598d7f34d3612562779")},
    31: {"alexander": (0, "f36fdf317b39bbcf659560a95edce60a0a2759f8fb621f20728d4a68778162d7"),
        "verify": (0, "85aabd5f04fe6e54f93b835df5b1f0d8fd304aea371f280d999695ef86ac2577")},
    32: {"alexander": (0, "075bbbb76617d5bda8992317cdeafc04b3fa9b685e254db2468d2c14a37813ab"),
        "verify": (0, "851d371e4e03d949565a08099a2e249fec4155e1843cd82003d460ff59001396")},
    33: {"alexander": (0, "8b81a4360c02a7a402bac1389d6b57cfcabca0b5bdf2f3fa7fdc7a8fcbf2150a"),
        "verify": (0, "3fe6d50d960e843dad2bd7d01d47c4c4ddbfd7bda4cc95744295d42a7f7df23e")},
    34: {"alexander": (0, "1ab2aef7080657b249a6f6b673df49cbb4a1c09c29fd6ee20d7f5eb38f8344da"),
        "verify": (0, "a80f257b13b03bb3b08fc94a93cbf33f437a93695e2f60f41d96eec970bf9731")},
    35: {"alexander": (0, "fc09620c63ceac3f936e52f5126a2244b9c150bc3296f6f84086ea00939dbe0c"),
        "verify": (0, "ac6d3a852d354f04a2867b1335e5f94b8929aa64bc7ce27a08d0fe6f52a460a8")},
    36: {"alexander": (0, "41cd852ca83e5f69a0ab5ba8ff21c38f7e34f99677febb27277aedee49dd984b"),
        "verify": (2, "a5dc1a49500c02c090faa33731a09f88af4580293ca51aefd789d81ae554ec02")},
    37: {"alexander": (0, "9941ab60a63422637573cb1f44caf7266c19263454c012b653c883a5959b1b51"),
        "verify": (2, "d00698570f6ef27f001b3c5373644f2ec6cb1454c53e4f85689b10f0338d020f")},
    38: {"alexander": (0, "baac5ea6e43f80a513bf997492475430385781f1b8bd5f564e7bc0866709078d"),
        "verify": (0, "c1eeb2c6b438f74e48c6abaaba4757ef44a5eda9712278b179cabf73026f57ac")},
    39: {"alexander": (0, "d48494930e8c7fa796569693a30f545e07225f348d0e49d831dec2f8e16bcabe"),
        "verify": (2, "f7fa2e6557125e0dd2953d14dfee50d67104c5894882ee4d208b3f700a25e235")},
}


@pytest.mark.parametrize("case", range(len(DIGESTS)))
def test_outputs_are_pinned(capsys, tmp_path, case):
    path = tmp_path / f"case{case}.pres"
    path.write_text(corpus()[case])
    for cmd, (code, digest) in DIGESTS[case].items():
        assert run([cmd, str(path)]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, cmd


def test_corpus_reaches_every_branch():
    """The corpus holds each verify exit code and torsion failures."""
    codes = {DIGESTS[case]["verify"][0] for case in DIGESTS}
    failed = sum(DIGESTS[case]["alexander"][0] != 0 for case in DIGESTS)
    assert {0, 2, 70} <= codes and 0 < failed < len(DIGESTS) // 2
