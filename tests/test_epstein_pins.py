"""`epstein` on a fixed grid of lattices, characters and s: the exit code
and the sha256 of stdout and of stderr of each command are pinned, so a
change to the cusp side that moves one output byte fails here.

The grid is the two lattice fixtures and `test_cuspterms.py`'s BASES x
CHARACTERS, each at the four S_VALUES and with `--residue`, plus
lattices the expansion refuses: a character too close to the trivial one,
down to a phase of 2.2e-308, or a too large |Im s| ("term evaluations"),
and bases scaled out of the normal float range.
"""

import hashlib
import json

import pytest

from cuspedzeta.cli import run

from conftest import FIXTURES
from test_cuspterms import BASES, CHARACTERS, S_VALUES, _unit

S_ARGS = [["--s", str(s)] for s in S_VALUES] + [["--residue"]]


def _lattice(b1, b2, v1, v2) -> dict:
    return {"b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag],
            "chi": [[v1.real, v1.imag], [v2.real, v2.imag]]}


def _cases() -> dict:
    """case id -> (lattice JSON object or fixture name, extra argv)."""
    out = {}
    for name in ("square_lattice.json", "square_lattice_signchi.json"):
        for args in S_ARGS:
            out[f"{name}{''.join(args)}"] = (name, args)
    for basis, (b1, b2) in BASES.items():
        for character, (a, c) in CHARACTERS.items():
            lattice = _lattice(complex(b1), complex(b2), _unit(a), _unit(c))
            for args in S_ARGS:
                out[f"{basis}-{character}{''.join(args)}"] = (lattice, args)
    hexagonal = complex(BASES["hexagonal"][1])
    refused = {
        "near-trivial": (_lattice(1 + 0j, hexagonal, _unit(1e-7), _unit(1e-7)),
                         ["--s", "0.5"]),
        "large-im-s": (_lattice(1 + 0j, hexagonal, -1 + 0j, 1 + 0j),
                       ["--s", "0.5+2000j"]),
        "tiny-scale": (_lattice(1e-200 + 0j, 1e-200j, 1 + 0j, 1 + 0j), ["--s", "1"]),
        "huge-scale": (_lattice(1e160 + 0j, 1e160j, 1 + 0j, 1 + 0j), ["--s", "1"]),
        "tiny-scale-residue": (_lattice(1e-200 + 0j, 1e-200j, -1 + 0j, 1 + 0j),
                               ["--residue"]),
        "flat-reduced": (_lattice(1e-170 + 0j, 1e-170 + 1e170j, 1 + 0j, 1 + 0j),
                         ["--s", "1"]),
        "tall-reduced": (_lattice(1e-5 + 0j, 1e305j, 1 + 0j, 1 + 0j), ["--s", "1"]),
        # a phase 2.2e-308 from the trivial one, named as too many terms
        # rather than failing on an infinite count
        "tiny-phase": (_lattice(1j, 1 + 0j, complex(1, 1.398e-307), 1 + 0j), ["--s", "1"]),
        "tiny-phase-residue": (_lattice(1j, 1 + 0j, complex(1, 1.398e-307), 1 + 0j),
                               ["--residue"]),
    }
    out.update(refused)
    return out


CASES = _cases()

# case -> (exit code, sha256 of stdout, sha256 of stderr)
DIGESTS = {
    'square_lattice.json--s(0.05+2j)': (0, 'a5e33212d80d84e7dc8665c905025f0cb32cc2af978e4e0c3d87b59eab93ff6a',
                                        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice.json--s0.3': (0, 'f95c02ada2dc3b0fff6d83cf0ddbeb101c505c0b55047e46c43836ef8a121526',
                                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice.json--s1': (0, 'ef42560c2e8ea2db13256227851e80209e68b53d7aceeba283f3575c3330c193',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice.json--s(1.9-0.6j)': (0, 'c5c2dcc25698655e21748e02797594932e6d263fe08eb4529381ba6412792476',
                                         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice.json--residue': (0, '36b302fed64adfe5e019a7fe6077250cc54b5326e922da5d1297e51db7f5a5fa',
                                     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice_signchi.json--s(0.05+2j)': (0, '13c24694e547c6deca5fde32bd8fe25dbe3f239bbb48fe9b78045a1c6ebb9e60',
                                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice_signchi.json--s0.3': (0, '8d8717de21635fd32f91abe95450756207de905807a0d49ae99beca2b9d92c9b',
                                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice_signchi.json--s1': (0, '1d1d9d48e8d43485bb6ffb02c4e6f24ca4904da15ab9f242c8966ef51a027b1f',
                                        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice_signchi.json--s(1.9-0.6j)': (0, '61b92250f1ebabac8fbf04789e50f471dd41793c305da6f041a950f7fac3c50e',
                                                 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square_lattice_signchi.json--residue': (0, 'ecbffa3f0ad7aa9bf1acd664f3822fee946df74cd6ddf596508f65daf1183864',
                                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-trivial--s(0.05+2j)': (0, 'a5e33212d80d84e7dc8665c905025f0cb32cc2af978e4e0c3d87b59eab93ff6a',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-trivial--s0.3': (0, 'f95c02ada2dc3b0fff6d83cf0ddbeb101c505c0b55047e46c43836ef8a121526',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-trivial--s1': (0, 'ef42560c2e8ea2db13256227851e80209e68b53d7aceeba283f3575c3330c193',
                           'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-trivial--s(1.9-0.6j)': (0, 'c5c2dcc25698655e21748e02797594932e6d263fe08eb4529381ba6412792476',
                                    'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-trivial--residue': (0, '36b302fed64adfe5e019a7fe6077250cc54b5326e922da5d1297e51db7f5a5fa',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-sign--s(0.05+2j)': (0, '13c24694e547c6deca5fde32bd8fe25dbe3f239bbb48fe9b78045a1c6ebb9e60',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-sign--s0.3': (0, '8d8717de21635fd32f91abe95450756207de905807a0d49ae99beca2b9d92c9b',
                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-sign--s1': (0, '1d1d9d48e8d43485bb6ffb02c4e6f24ca4904da15ab9f242c8966ef51a027b1f',
                        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-sign--s(1.9-0.6j)': (0, '61b92250f1ebabac8fbf04789e50f471dd41793c305da6f041a950f7fac3c50e',
                                 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-sign--residue': (0, 'ecbffa3f0ad7aa9bf1acd664f3822fee946df74cd6ddf596508f65daf1183864',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-order3--s(0.05+2j)': (0, '972010da535b0bc5b55ef4d9b0768e29eac38aefeb141c09a4c3aa35a844c8d8',
                                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-order3--s0.3': (0, 'f1d57df1e9b9b8849aac03b8413800f08b76998f4210b15dfc7b0dc57c19dcab',
                            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-order3--s1': (0, '1cf35ca4503648c614d1b1a04425eb8bb602dfd95903d3f588c3df12c1b10216',
                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-order3--s(1.9-0.6j)': (0, '6aa2ce36c3e92f2870201803aad7e8954ba08e7bf28606a95cfd323166c8ccb1',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-order3--residue': (0, '81357df7425ecebeb35b33eacbf155c064fde3e1e90c98417d2f85ed97edb2d3',
                               'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-irrational--s(0.05+2j)': (0, 'fe10f7b0cdeb756164478cece406731439915f727c9ba695d84a9680969eef29',
                                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-irrational--s0.3': (0, 'e533d920c816ad172f28d92bf70c94d932a527951e01751174db58371451b62a',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-irrational--s1': (0, 'b046650250f07114f16203a1dd7262df459c2c51d24d9de67813f354ec60e48c',
                              'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-irrational--s(1.9-0.6j)': (0, '99a33a5bf3747fe10f86eba231d21ca92ef8b1462727f0238a854096d6078996',
                                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'square-irrational--residue': (0, '66393dee5ecd81d89ac34be576261d35a1123a63b9c92f8dec81eb0ae4cba0e3',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-trivial--s(0.05+2j)': (0, 'd557952e702234839ced95870e3d2cb047c98767048b7ac3aa07ddb01a4585ca',
                                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-trivial--s0.3': (0, '739477b3057b854b0dfeabb7278185dbb9ca3b01cdc3c724e5c752591e0d1afc',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-trivial--s1': (0, '1d1f78b90ed0143d8e65518500308cc8d3952dbda3e79cd4cb55d8e72c462018',
                              'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-trivial--s(1.9-0.6j)': (0, '70a17dc2891317f0b24bc55036713ef370e185c0228f4b1fea6c3b8749e9c58a',
                                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-trivial--residue': (0, 'bcf9b3327c5bb3c56a6e1067396c9840dd7bbd5af837d957d2ec7f06364eea27',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-sign--s(0.05+2j)': (0, '194850ba3e7183b7898245f3cb904f1721b440c72e2211f9c9f85365c07b72cc',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-sign--s0.3': (0, 'c9abba67a27749d4851bde23d6e1d798b28dfad5f1f14de52a7a83eadbb73a1c',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-sign--s1': (0, 'e4ed4e1467ac3dab777d0ba3c9319962f469eeaabbac6b2dd748dde6a89ed692',
                           'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-sign--s(1.9-0.6j)': (0, 'ab0084492584d60fd87deaa250ded6060c6139c8cdf777e93bc244b3d2b49e80',
                                    'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-sign--residue': (0, 'b5e21c8af5c22b02cf33cc93609ea802da70be3213c07726562ecf3abd0b88e5',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-order3--s(0.05+2j)': (0, '16f87b33ed7c5b4d59d156192b68da534e7d89ac42c0e82b3f72ebf81787a5d3',
                                     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-order3--s0.3': (0, '781707ec0715bbbb73d262a1e73efa71dd6fa470e9f61ba0709649d2140c1bb5',
                               'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-order3--s1': (0, 'efc8f061a004ea54a18ccf6db458f0723f6cf482d5981f73b295e0901773835e',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-order3--s(1.9-0.6j)': (0, '5a585a33e63462225b50261dc21e0fc5c67c453e1a9d52538e040f47d4db11e7',
                                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-order3--residue': (0, '37dd0ae9b81a4f124250cada4ba9b1e4dad577ddc51efd769067227495ba2f97',
                                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-irrational--s(0.05+2j)': (0, '30896b939df25af31af6d340da6e09bc2b05ad5f350aa7c0f1943c542bef07dc',
                                         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-irrational--s0.3': (0, '55f3cb3802378d7a12930fb72efc52e823eafc13bca215af7dd8c6ed527eae29',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-irrational--s1': (0, 'afc36e050b00f7fb17ae92d20f740c104dbc8002af8d6d95c45436a18879f82e',
                                 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-irrational--s(1.9-0.6j)': (0, 'e30bb87456cc985aa5bcea59fc0a463f2124ddbf912e9c84b05c7e29c66ba44c',
                                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hexagonal-irrational--residue': (0, 'b2e4e255f29ce4380679e9f4ec13128463b81b4d09936ad833f26aeb071ff570',
                                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-trivial--s(0.05+2j)': (0, 'fa0dac7c78569fa81baf76cfbd821e94d51f4d85ebe695b7829a1dda9f30ff40',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-trivial--s0.3': (0, '32a6d0aad914145f0d8107def94c9db2274c20cdd102def3b3892ad8403764b4',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-trivial--s1': (0, 'aa918b9f504dcfe19e615fed88391fa592b625ae7ce2ca5c1f230dbda71b91cd',
                           'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-trivial--s(1.9-0.6j)': (0, '7ea65c6ffc7a365603ea13002a416d76cbf9c866f950393d6f6928291972bcc0',
                                    'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-trivial--residue': (0, '6fa9271ed4ae2841a631213b5cc7c901c4f57c4ee0d910d8614403caa11ab9db',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-sign--s(0.05+2j)': (0, '8093ad2bd14124bceac41e42b2f2e06ba96160df4610247b5b9c421744ec9734',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-sign--s0.3': (0, '6654102ff0e1ed9ffc4bd3dd726e0de38f8fe0ef018e439dd20124de1e6ccaf7',
                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-sign--s1': (0, 'cfe32e50fc174e1650055aa4c4c94327ccf419e99f1eb6c890f130f57c25301b',
                        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-sign--s(1.9-0.6j)': (0, '1a5ad9ca81c33e6506c6e0df9807c9d1254546d88d07487a30e83f5b0e9eced8',
                                 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-sign--residue': (0, '64f324d8e2099ff7d4ba383f16d7aaa36ed5cfb5abf38ba9e5f00f399925fd81',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-order3--s(0.05+2j)': (0, '0e4e33c6cf7a0c590892c8c9dbe2d25e26ab029bccf90aae9a8d3d42468277cf',
                                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-order3--s0.3': (0, '9f7ef72eeb091497350b1172b73eefc04ee43cafd1eaa9a27fb88eb2f5ce622e',
                            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-order3--s1': (0, 'c93d7c357b112c0ffd3149c12f7e0401e6e0f87f549b24ec010412a03d9de952',
                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-order3--s(1.9-0.6j)': (0, '4147653f28c6bdcfcbd4740218fed69bfc151ce906fb7f2d630150882fc6231d',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-order3--residue': (0, '6b27582f1d3b61fb4424bfe8889a22b9845c758259decb308cd6954817632842',
                               'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-irrational--s(0.05+2j)': (0, 'd7a605032f10f90c06fec8a1da7709d337ee1c68818cb5bd1188a60ff17df478',
                                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-irrational--s0.3': (0, 'e9cf2b12133fdd308b167fd1864f30ff72c97d1fc873c58e781360afb4572165',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-irrational--s1': (0, '079b78a5fc42f199f5661b8ee2509190a07d66c8ccc648345719f3fa2b367d72',
                              'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-irrational--s(1.9-0.6j)': (0, '7d7061c933c34ff2dec2244376b1675fd64a52962e22514625d69dbd8c50c166',
                                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'skewed-irrational--residue': (0, '2c8ad44f8d62a5a45a00befa1b057890cd51ea9288a47a9fa5da25f09f8b5ae7',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-trivial--s(0.05+2j)': (0, 'a1f5142433a62197a8c62976f538129c692e5540ae3065e810ce7cce1a2e746d',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-trivial--s0.3': (0, '0890f3ef9d075c2ece1e91cb7a4d8043ef17d19a40298a8292cda10f4d7ac334',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-trivial--s1': (0, '574ccb931ead28a325fb9e68578619b3875612c7df3ada39353e867072a8cc69',
                           'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-trivial--s(1.9-0.6j)': (0, '4b98e8c4dc7515be79b46a3ef59f9a49ce5dec3acfd0a5a33ceac63c3a47da99',
                                    'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-trivial--residue': (0, '4876378cb6967521b54f553695c475c318555d6a82758206a6935d346c6a4b01',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-sign--s(0.05+2j)': (0, 'fd26056c4a8906869ec84e43e1c8364d380dbfee095531e2224e314ded32542e',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-sign--s0.3': (0, '279b1959283cef6d40db3be744d42fedf038e60be8034f4266d33bdd4b9d462b',
                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-sign--s1': (0, '642fc42f4802c512c5ecbb7b5c1e18a36072248c368159fdde81ad6cf621a687',
                        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-sign--s(1.9-0.6j)': (0, 'f3690939f137e86d0e4a02baafa8341fc13b68e82f3ea9ce69f344c1aaa45c5a',
                                 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-sign--residue': (0, 'c4b7110553df9fc3e782654e98ee54c18b617ffcc444c053294bab401de2c998',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-order3--s(0.05+2j)': (0, '32816f25cbd5fbd0beffbdbd711f4d47758b97ef91ede408bbbd469fed41faaf',
                                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-order3--s0.3': (0, 'f14fb1a8c11bd92a4984deab8969d641db80cdf5db353dfcab0537003b4520c5',
                            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-order3--s1': (0, '0ac5cdc76d01884f9a29bcc4be995080ee42975efa77b5eb2937e9e3389a94d0',
                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-order3--s(1.9-0.6j)': (0, '9eadff19a0492f39dfe4a22a5ae2d5dfb8579a4b27a4440cee50c2da364e6dde',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-order3--residue': (0, '861c7d6a86483766acf1a9b7f6b0d899c62c319ef02156da5ef22b38b85212a0',
                               'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-irrational--s(0.05+2j)': (0, '8df19f04fac03a8db16f23ee8fd7f7d993f07df53bdee968f09593967874f756',
                                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-irrational--s0.3': (0, '8c39dea019c2c00350de17938e514b487c5db0a3e26e49eff98b0b81e140fdf4',
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-irrational--s1': (0, 'e5d45915b2d82b89e7a62cfd2586657b108ba0d2845fd2133aa550e7e9cc7b09',
                              'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-irrational--s(1.9-0.6j)': (0, 'e7e8ebe5b26310a300cef2c2ac8e9cdcfc837735c1a3265b669528d5ebbeadfb',
                                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'random-irrational--residue': (0, '4d75f174e0d6cc319d9a9697db86f0284490f4f8aef817887ced8c5a4caf3207',
                                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'near-trivial': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                     '55e74ae1ce2b3facf1f2898b1e3d5d34919070d2ea83d7bf82fb4fd1518e6dba'),
    'large-im-s': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                   '5f470440d26138f0e955eeb64f6373a386bb3ea44d119bd661cc0d35530f02fc'),
    'tiny-scale': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                   'eb80aa6de735efe248e1b3770c63060f6d6ecabeb1fedae8a1db9430f55c2c4d'),
    'huge-scale': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                   'bff1df7d11edd6a1549d4b6dc7f95bddaead89f1d0d8bd001dfc102c5a35a214'),
    'tiny-scale-residue': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                           'eb80aa6de735efe248e1b3770c63060f6d6ecabeb1fedae8a1db9430f55c2c4d'),
    'flat-reduced': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                     'fc7162d2338fe81984ee923efd801bec42109d7e069d65d1c16051b54478d59a'),
    'tall-reduced': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                     'e1dd499c65fca71bb2115bd6aa812a9b50ceca30151426720b6f6be46327d839'),
    'tiny-phase': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                   'dfa569d47b9b1132289fd153b279d666272173854f7f8d7ca2f0c8a349fc5650'),
    'tiny-phase-residue': (70, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                           '8555421c1c204b45e71317afd8ea02acd773a65b006abeefe634f9a9edb8403f'),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(case: str, tmp_path, capsys):
    """(exit code, stdout digest, stderr digest) of `epstein` on the case."""
    lattice, args = CASES[case]
    if isinstance(lattice, str):
        path = FIXTURES / lattice
    else:
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice) + "\n")
    code = run(["epstein", str(path), *args])
    captured = capsys.readouterr()
    return code, _sha(captured.out), _sha(captured.err)


@pytest.mark.parametrize("case", CASES)
def test_epstein_outputs_are_pinned(tmp_path, capsys, case):
    assert outputs(case, tmp_path, capsys) == DIGESTS[case]


def test_grid_reaches_both_refusals():
    codes = {code for code, _, _ in DIGESTS.values()}
    assert set(DIGESTS) == set(CASES) and codes == {0, 70}
