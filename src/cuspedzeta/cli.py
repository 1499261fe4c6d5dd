"""Command-line front end.

JSON is the output contract (sorted keys, 17-significant-digit floats,
newline-terminated); text notes go to stderr.  Exit codes: 64 usage,
65 invalid input data, 70 computation failure; `verify` additionally
uses 0/2/3 for the report verdict.

Each subcommand imports the modules it runs at the top of its body, so
that a command loads neither half of the package it does not use.  A
call builds the argument parser of the named command only, on its first
call in a process (later calls reuse it), and writes its output, to
stdout or the `-o` file, only once the command returns.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import io
import json
import math
import sys

from .errors import CuspedZetaError, InputError, read_utf8

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70


def _jdump(obj, out):
    """Deterministic JSON: sorted keys, fixed float formatting.  A
    non-finite float, which JSON cannot hold, fails before any output."""
    def emit(o, indent):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f'{pad}  {json.dumps(k)}: {emit(o[k], indent + 1)}'
                     for k in sorted(o)]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{pad}  {emit(v, indent + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(o, bool) or o is None or isinstance(o, (int, str)):
            return json.dumps(o)
        if isinstance(o, float):
            if not math.isfinite(o):
                raise CuspedZetaError(f"non-finite number {o} in the output")
            return format(o, ".17g")
        raise TypeError(f"not JSON-serializable: {type(o)}")
    out.write(emit(obj, 0) + "\n")


def complex_to_json(v) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def mero_to_json(m) -> dict:
    """The JSON form of a `cuspterms.MeroSum`."""
    return {
        "polyPart": [complex_to_json(c) for c in m.poly_part],
        "poles": [[complex_to_json(l), complex_to_json(r)] for l, r in m.poles],
        "digammaAtoms": [[complex_to_json(c), complex_to_json(s)]
                         for c, s in m.digamma_atoms],
        "expAtoms": [[complex_to_json(c), complex(r).real] for c, r in m.exp_atoms],
    }


def _read(path: str) -> str:
    # newlines translated as a text-mode open translates them, so that
    # the JSON decoder counts its error offsets on the same text
    return read_utf8(path).replace("\r\n", "\n").replace("\r", "\n")


def _load_presentation(path: str):
    from .presentation import parse_presentation
    return parse_presentation(_read(path))


# JSON inputs: every error names the file and the key path, e.g.
# "m.json: generators[0][1] must be an [re, im] pair"

def _json_object(path: str, required: tuple, optional: tuple) -> dict:
    """The JSON object in `path`, holding every key of `required` and no
    key outside `required` and `optional`."""
    try:
        d = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(d, dict):
        raise InputError(f"{path}: expected a JSON object")
    for key in d:
        if key not in required and key not in optional:
            raise InputError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in d:
            raise InputError(f"{path}: missing key {key!r}")
    return d


def _real(v, where: str) -> float:
    try:
        if not isinstance(v, bool) and math.isfinite(v):
            return float(v)
    except (TypeError, OverflowError):  # not a number, or an int past float
        pass
    raise InputError(f"{where} must be a finite number")


def _pair(v, where: str) -> complex:
    if not (isinstance(v, list) and len(v) == 2):
        raise InputError(f"{where} must be an [re, im] pair")
    return complex(_real(v[0], f"{where}[0]"), _real(v[1], f"{where}[1]"))


def _pairs(v, where: str, count: int | None = None) -> list:
    if not isinstance(v, list) or count is not None and len(v) != count:
        size = f"{count} " if count else ""
        raise InputError(f"{where} must be a list of {size}[re, im] pairs")
    return [_pair(p, f"{where}[{i}]") for i, p in enumerate(v)]


def _load_matrices(path: str):
    d = _json_object(path, ("generators",), ("rho",))
    if not isinstance(d["generators"], list):
        raise InputError(f"{path}: generators must be a list of matrices")
    gens = [tuple(_pairs(g, f"{path}: generators[{i}]", 4))
            for i, g in enumerate(d["generators"])]
    rho = _pairs(d["rho"], f"{path}: rho") if "rho" in d else [1 + 0j] * len(gens)
    return gens, rho


def _load_lattice(path: str):
    from . import cuspterms
    d = _json_object(path, ("b1", "b2"), ("chi",))
    lat = cuspterms.Lattice2D(_pair(d["b1"], f"{path}: b1"),
                              _pair(d["b2"], f"{path}: b2"))
    chi = [1 + 0j] * 2 if "chi" not in d else _pairs(d["chi"], f"{path}: chi", 2)
    return lat, cuspterms.LatticeCharacter(*chi)


def _load_poles(path: str):
    from . import cuspterms
    d = _json_object(path, (), ("poles0", "poles1", "c0", "c1"))
    return cuspterms.ScatteringPoles(
        tuple(_pairs(d.get("poles0", []), f"{path}: poles0")),
        tuple(_pairs(d.get("poles1", []), f"{path}: poles1")),
        _real(d.get("c0", 0.0), f"{path}: c0"),
        _real(d.get("c1", 0.0), f"{path}: c1"))


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_alexander(args, out):
    from .alexander import alexander_invariant
    from .laurent import format_poly
    p, eps, rho = _load_presentation(args.presentation)
    data = alexander_invariant(p, rho, eps)
    _jdump({
        "char0": format_poly(data.char0),
        "char1": format_poly(data.char1),
        "char2": format_poly(data.char2),
        "h0": data.h0,
        "h0InfinityVanishes": data.h0_infinity_vanishes,
        "h1": data.h1,
        "h1Divisors": [format_poly(d) for d in data.h1_divisors],
        "ordAtOne": data.ord_at_one,
        "semisimpleAtOne": data.semisimple_at_one,
    }, out)
    return 0


def _cmd_betti(args, out):
    from .alexander import twisted_betti
    from .presentation import peripheral_trivial
    p, eps, rho = _load_presentation(args.presentation)
    h0, h1 = twisted_betti(p, rho)
    _jdump({"deltaRho": peripheral_trivial(p, rho), "h0": h0, "h1": h1}, out)
    return 0


def _cmd_spectrum_enumerate(args, out):
    from . import spectrum
    gens, rho = _load_matrices(args.matrices)
    sp = spectrum.enumerate_classes(gens, rho, max_word_len=args.max_word_len,
                                    cutoff_length=args.cutoff)
    for word in sp.suspects:
        sys.stderr.write("cuspedzeta: warning: near-equal traces with "
                         f"incompatible character values: word {word}\n")
    out.write(spectrum.format_spectrum(sp))
    return 0


def _cmd_ruelle_eval(args, out):
    from . import ruelle, spectrum
    sp = spectrum.load_spectrum(args.spectrum)
    rep = ruelle.euler_product(sp, args.z)
    _jdump({"tailBound": rep.tail_bound, "termsUsed": rep.terms_used,
            "value": complex_to_json(rep.value)}, out)
    return 0


def _cmd_fried_check(args, out):
    from . import ruelle, spectrum
    sp = spectrum.load_spectrum(args.spectrum)
    residual, bound, closed = ruelle.power_closure(sp, args.z)
    _jdump({"bound": bound, "residual": residual, "withinBound": closed}, out)
    return 0


def _cmd_terms(args, out):
    from . import cuspterms
    if args.term == "identity":
        m0, m1 = cuspterms.identity_lprime(args.vol)
        _jdump({"M0": mero_to_json(m0), "M1": mero_to_json(m1)}, out)
    elif args.term == "unipotent":
        if args.trivial:
            case = cuspterms.TrivialRestriction()
        else:
            if args.covolume is None or args.c_rho is None:
                raise InputError(
                    "unipotent terms need --trivial or both --covolume and --c-rho")
            case = cuspterms.NontrivialRestriction(args.covolume, args.c_rho)
        u0, u1, comb = cuspterms.unipotent_lprime(case)
        _jdump({"U0shifted": mero_to_json(u0), "U1": mero_to_json(u1),
                "combination": mero_to_json(comb),
                "combinationIsZero": comb.is_zero()}, out)
    elif args.term == "threshold":
        _jdump(mero_to_json(cuspterms.threshold_lprime()), out)
    else:  # scattering
        if not args.poles:
            raise InputError("scattering needs a poles JSON file")
        s0, s1 = cuspterms.scattering_lprime(_load_poles(args.poles))
        _jdump({"S0shifted": mero_to_json(s0), "S1": mero_to_json(s1)}, out)
    return 0


def _cmd_epstein(args, out):
    from . import cuspterms
    lat, chi = _load_lattice(args.lattice)
    if args.residue:
        res, const = cuspterms.epstein_residue_and_constant(lat, chi)
        _jdump({"constant": complex(const).real, "residue": res}, out)
    else:
        v = cuspterms.epstein(lat, chi, args.s)
        _jdump({"value": complex_to_json(v)}, out)
    return 0


def _cmd_verify(args, out):
    from . import verdict
    p, eps, rho = _load_presentation(args.presentation)
    report, code = verdict.main_conjecture_report(p, rho, eps)
    _jdump(report, out)
    return code


def _cmd_selftest(args, out):
    from . import cuspterms
    failures = []

    def check(name, ok):
        out.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        if not ok:
            failures.append(name)

    # vanishing combinations
    u = cuspterms.unipotent_lprime(cuspterms.NontrivialRestriction(2.0, 1.3))
    ut = cuspterms.unipotent_lprime(cuspterms.TrivialRestriction())
    check("unipotent combinations vanish structurally",
          u[2].is_zero() and ut[2].is_zero())

    out.write(f"{len(failures)} failure(s)\n")
    return EX_SOFTWARE if failures else 0


# ---------------------------------------------------------------------------
# argument wiring

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _finite(parse, positive: bool = False):
    """argparse type: a finite value read by `parse` (float or complex),
    and above zero if `positive`."""
    def convert(text: str):
        try:
            v = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {text!r}")
        if not cmath.isfinite(v):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if positive and not v > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return v
    return convert


# Longest word `spectrum enumerate` walks to.  The walk visits about
# 4 * 3^(N-1) words on two generators, and on the figure-eight matrices
# its time grows 2-3 times per letter (7 s at N = 15, see README), so
# N = 20 already takes minutes; the bound also stops larger values
# before the walk sizes its tables by N.
MAX_WORD_LEN = 20


def _word_length(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    if n > MAX_WORD_LEN:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_WORD_LEN}, got {n}")
    return n


def _with_output(p: _Parser) -> _Parser:
    p.add_argument("-o", "--output", help="write output to this file")
    return p


def _presentation_command(func):
    """Arguments of a command that reads one presentation file."""
    def configure(p):
        _with_output(p).add_argument("presentation")
        p.set_defaults(func=func)
    return configure


def _spectrum_command(leaf: str, func):
    """A command group whose one subcommand `leaf` reads a spectrum file
    and a point --z."""
    def configure(p):
        pl = _with_output(p.add_subparsers(dest="subcommand", required=True)
                          .add_parser(leaf))
        pl.add_argument("spectrum")
        pl.add_argument("--z", type=_finite(complex), required=True)
        pl.set_defaults(func=func)
    return configure


def _spectrum_enumerate(p):
    pe = _with_output(p.add_subparsers(dest="subcommand", required=True)
                      .add_parser("enumerate"))
    pe.add_argument("matrices")
    pe.add_argument("--max-word-len", type=_word_length, required=True)
    pe.add_argument("--cutoff", type=_finite(float), required=True)
    pe.set_defaults(func=_cmd_spectrum_enumerate)


def _terms(p):
    _with_output(p).add_argument("term", choices=["identity", "unipotent",
                                                  "threshold", "scattering"])
    p.add_argument("poles", nargs="?",
                   help="scattering poles JSON (scattering only)")
    p.add_argument("--vol", type=_finite(float, positive=True), default=1.0)
    p.add_argument("--covolume", type=_finite(float, positive=True))
    p.add_argument("--c-rho", type=_finite(float), dest="c_rho")
    p.add_argument("--trivial", action="store_true")
    p.set_defaults(func=_cmd_terms)


def _epstein(p):
    _with_output(p).add_argument("lattice")
    p.add_argument("--s", type=_finite(complex), default="1.0")
    p.add_argument("--residue", action="store_true",
                   help="residue and constant term at s=0 instead of a value")
    p.set_defaults(func=_cmd_epstein)


def _selftest(p):
    _with_output(p).set_defaults(func=_cmd_selftest)


# top-level command -> (its line in the help, the function that adds its
# arguments and subcommands to its parser), in the order of the help
_COMMANDS = {
    "alexander": ("twisted Alexander data", _presentation_command(_cmd_alexander)),
    "betti": ("twisted Betti numbers", _presentation_command(_cmd_betti)),
    "spectrum": ("geodesic spectrum tools", _spectrum_enumerate),
    "ruelle": ("Ruelle function evaluation",
               _spectrum_command("eval", _cmd_ruelle_eval)),
    "fried": ("power-closure check of a spectrum",
              _spectrum_command("check", _cmd_fried_check)),
    "terms": ("trace-formula terms", _terms),
    "epstein": ("lattice L-function", _epstein),
    "verify": ("main comparison report", _presentation_command(_cmd_verify)),
    "selftest": ("check the unipotent combinations", _selftest),
}


def _build_parser(argv: list) -> _Parser:
    """The top-level parser with only the branch of the command that
    `argv` starts with, or with every branch when it starts with none,
    for the help and "invalid choice" messages.  A usage error prints
    no usage line, so both parse a command's arguments to the same
    bytes."""
    return _parser(argv[0] if argv and argv[0] in _COMMANDS else None)


@functools.cache
def _parser(command: str | None) -> _Parser:
    """`_build_parser`'s parser for `command`, built once per process:
    parsing leaves it as it was, and help reads the width when printed."""
    ap = _Parser(prog="cuspedzeta",
                 description="Twisted Alexander invariants and Ruelle zeta "
                             "bookkeeping for one-cusped hyperbolic manifolds")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else [command]:
        summary, configure = _COMMANDS[name]
        configure(sub.add_parser(name, help=summary))
    return ap


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        # the output is written only once the command returns, so a
        # failed command leaves an existing -o file as it was
        out = io.StringIO()
        code = args.func(args, out)
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        else:
            sys.stdout.write(out.getvalue())
        return code
    except OSError as exc:
        sys.stderr.write(f"cuspedzeta: {exc}\n")
        return EX_DATAERR
    except InputError as exc:
        sys.stderr.write(f"cuspedzeta: invalid input: {exc}\n")
        return EX_DATAERR
    except (CuspedZetaError, OverflowError) as exc:
        # a float overflow anywhere ends here, not in a traceback
        sys.stderr.write(f"cuspedzeta: computation failed: {exc}\n")
        return EX_SOFTWARE


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
