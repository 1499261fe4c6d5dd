"""Command-line front end.

JSON is the output contract (sorted keys, 17-significant-digit floats,
newline-terminated); text notes go to stderr.  Exit codes: 64 usage,
65 invalid input data, 70 computation failure; `verify` additionally
uses 0/2/3 for the report verdict.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import cuspterms, laplace, ruelle, spectrum, verdict
from .alexander import alexander_invariant, twisted_betti
from .errors import (ConvergenceRegionError, CuspedZetaError,
                     ExtrapolationUnstable, FormatError, NotTorsion,
                     PoleEvaluation, PoleOnAxis, PresentationSyntaxError,
                     QuadratureFailure, UnsupportedAtom, ValidationError)
from .laplace import mero_to_json
from .laurent import format_poly
from .presentation import parse_presentation, peripheral_trivial

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_INPUT_ERRORS = (PresentationSyntaxError, ValidationError, FormatError,
                 PoleOnAxis, UnicodeDecodeError)
_COMPUTE_ERRORS = (NotTorsion, ConvergenceRegionError, QuadratureFailure,
                   PoleEvaluation, UnsupportedAtom, ExtrapolationUnstable)


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


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_presentation(path: str):
    return parse_presentation(_read(path))


# JSON inputs: every error names the file and the key path, e.g.
# "m.json: generators[0][1] must be an [re, im] pair"

def _json_object(path: str, required: tuple, optional: tuple) -> dict:
    """The JSON object in `path`, holding every key of `required` and no
    key outside `required` and `optional`."""
    try:
        d = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    for key in d:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in d:
            raise ValidationError(f"{path}: missing key {key!r}")
    return d


def _real(v, where: str) -> float:
    try:
        if not isinstance(v, bool) and math.isfinite(v):
            return float(v)
    except (TypeError, OverflowError):  # not a number, or an int past float
        pass
    raise ValidationError(f"{where} must be a finite number")


def _pair(v, where: str) -> complex:
    if not (isinstance(v, list) and len(v) == 2):
        raise ValidationError(f"{where} must be an [re, im] pair")
    return complex(_real(v[0], f"{where}[0]"), _real(v[1], f"{where}[1]"))


def _pairs(v, where: str, count: int | None = None) -> list:
    if not isinstance(v, list) or count is not None and len(v) != count:
        size = f"{count} " if count else ""
        raise ValidationError(f"{where} must be a list of {size}[re, im] pairs")
    return [_pair(p, f"{where}[{i}]") for i, p in enumerate(v)]


def _load_matrices(path: str):
    d = _json_object(path, ("generators",), ("rho", "covolume", "volume"))
    if not isinstance(d["generators"], list):
        raise ValidationError(f"{path}: generators must be a list of matrices")
    gens = [spectrum.MoebiusMatrix(*_pairs(g, f"{path}: generators[{i}]", 4))
            for i, g in enumerate(d["generators"])]
    rho = _pairs(d["rho"], f"{path}: rho") if "rho" in d else [1 + 0j] * len(gens)
    return (gens, rho, _real(d.get("covolume", 1.0), f"{path}: covolume"),
            _real(d.get("volume", 1.0), f"{path}: volume"))


def _load_lattice(path: str):
    d = _json_object(path, ("b1", "b2"), ("chi",))
    lat = cuspterms.Lattice2D(_pair(d["b1"], f"{path}: b1"),
                              _pair(d["b2"], f"{path}: b2"))
    chi = [1 + 0j] * 2 if "chi" not in d else _pairs(d["chi"], f"{path}: chi", 2)
    return lat, cuspterms.LatticeCharacter(*chi)


def _load_poles(path: str):
    d = _json_object(path, (), ("poles0", "poles1", "c0", "c1"))
    return cuspterms.ScatteringPoles(
        tuple(_pairs(d.get("poles0", []), f"{path}: poles0")),
        tuple(_pairs(d.get("poles1", []), f"{path}: poles1")),
        _real(d.get("c0", 0.0), f"{path}: c0"),
        _real(d.get("c1", 0.0), f"{path}: c1"))


def _complex_json(z: complex):
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_alexander(args, out):
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
    p, eps, rho = _load_presentation(args.presentation)
    h0, h1 = twisted_betti(p, rho)
    _jdump({"deltaRho": peripheral_trivial(p, rho), "h0": h0, "h1": h1}, out)
    return 0


def _cmd_spectrum_enumerate(args, out):
    gens, rho, covolume, volume = _load_matrices(args.matrices)
    sp = spectrum.enumerate_classes(
        gens, rho, max_word_len=args.max_word_len,
        cutoff_length=args.cutoff, covolume=covolume, volume=volume,
        complete=args.complete)
    out.write(spectrum.format_spectrum(sp))
    return 0


def _cmd_ruelle_eval(args, out):
    sp = spectrum.load_spectrum(args.spectrum)
    rep = ruelle.euler_product(sp, args.z)
    _jdump({"tailBound": rep.tail_bound, "termsUsed": rep.terms_used,
            "value": _complex_json(rep.value)}, out)
    return 0


def _cmd_fried_check(args, out):
    sp = spectrum.load_spectrum(args.spectrum)
    residual = ruelle.fried_residual(sp, args.z)
    tail = ruelle.euler_product(sp, args.z).tail_bound
    _jdump({"residual": residual, "tailBound": tail,
            "withinBound": residual <= tail + 1e-12}, out)
    return 0


def _cmd_terms(args, out):
    if args.term == "identity":
        m0, m1 = cuspterms.identity_lprime(args.vol)
        _jdump({"M0": mero_to_json(m0), "M1": mero_to_json(m1)}, out)
    elif args.term == "unipotent":
        if args.trivial:
            case = cuspterms.TrivialRestriction()
        else:
            if args.covolume is None or args.c_rho is None:
                raise ValidationError(
                    "unipotent terms need --trivial or both --covolume and --c-rho")
            case = cuspterms.NontrivialRestriction(args.covolume, args.c_rho)
        u0, u1, comb = cuspterms.unipotent_lprime(case)
        _jdump({"U0shifted": mero_to_json(u0), "U1": mero_to_json(u1),
                "combination": mero_to_json(comb),
                "combinationIsZero": comb.is_zero()}, out)
    elif args.term == "threshold":
        _jdump(mero_to_json(cuspterms.threshold_lprime()), out)
    else:  # scattering
        s0, s1 = cuspterms.scattering_lprime(_load_poles(args.poles))
        _jdump({"S0shifted": mero_to_json(s0), "S1": mero_to_json(s1)}, out)
    return 0


def _cmd_epstein(args, out):
    lat, chi = _load_lattice(args.lattice)
    if args.residue:
        res, const = cuspterms.epstein_residue_and_constant(lat, chi)
        _jdump({"constant": complex(const).real, "residue": res}, out)
    else:
        v = cuspterms.epstein(lat, chi, args.s)
        _jdump({"value": _complex_json(v)}, out)
    return 0


def _cmd_verify(args, out):
    p, eps, rho = _load_presentation(args.presentation)
    report = verdict.main_conjecture_report(p, rho, eps)
    _jdump(report.to_json(), out)
    return report.exit_code


def _cmd_selftest(args, out):
    import random
    rng = random.Random(20260826)
    failures = []

    def check(name, ok):
        out.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        if not ok:
            failures.append(name)

    # order-prediction coherence across all small inputs
    ok = True
    for h0 in (0, 1):
        for h1 in range(11):
            for d in (False, True):
                if h0 == 1 and not d:
                    continue
                b0, b1 = verdict.l2_betti(h0, h1, d)
                ok &= verdict.ruelle_order_prediction(h0, h1, d) == 2 * (2 * b0 - b1)
    check("order prediction matches Betti route", ok)

    # transform closed forms vs quadrature
    ok = True
    for atom in (laplace.HeatAtom("exp", 1.0), laplace.HeatAtom("theta", 1.0),
                 laplace.HeatAtom("power", 0)):
        m = laplace.lprime_closed(atom)
        f = laplace.atom_function(atom)
        for z in (1.0, 2.0):
            ok &= abs(laplace.quadrature_lprime(f, z)
                      - laplace.evaluate(m, z)) < 1e-8
    check("closed transforms match quadrature", ok)

    # spectral transform symmetries
    e0 = [0.0] + [rng.uniform(0.1, 4) for _ in range(5)]
    e1 = [0.0, 0.0] + [rng.uniform(0.1, 4) for _ in range(5)]
    l0, l1 = laplace.spectral_lprime(e0, e1)
    z = complex(rng.uniform(0.2, 1), rng.uniform(-1, 1))
    ok = abs(laplace.evaluate(l1, -z) + laplace.evaluate(l1, z)) < 1e-9
    ok &= abs(laplace.evaluate(l0, 1 + z) + laplace.evaluate(l0, 1 - z)) < 1e-9
    ok &= abs(laplace.residue_at(l1, 0) - 2 * (2 - 1)) < 1e-12
    check("spectral transform symmetries", ok)

    # factorization identity on a synthetic orbit
    sp = ruelle.single_orbit_spectrum(1.0, 0.7, cmath.exp(0.4j), 50)
    ok = ruelle.fried_residual(sp, 4 + 0j) < 1e-12
    ok &= abs(ruelle.log_derivative(sp, 4 + 0j)
              - ruelle.log_derivative_series(sp, 4 + 0j)) < 1e-6
    check("factorization and log-derivative identities", ok)

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


def _word_length(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> _Parser:
    ap = _Parser(prog="cuspedzeta",
                 description="Twisted Alexander invariants and Ruelle zeta "
                             "bookkeeping for one-cusped hyperbolic manifolds")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_output(p):
        p.add_argument("-o", "--output", help="write output to this file")
        return p

    p = with_output(sub.add_parser("alexander", help="twisted Alexander data"))
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_alexander)

    p = with_output(sub.add_parser("betti", help="twisted Betti numbers"))
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("spectrum", help="geodesic spectrum tools")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pe = with_output(ssub.add_parser("enumerate"))
    pe.add_argument("matrices")
    pe.add_argument("--max-word-len", type=_word_length, required=True)
    pe.add_argument("--cutoff", type=_finite(float), required=True)
    pe.add_argument("--complete", action="store_true",
                    help="assert completeness up to the cutoff")
    pe.set_defaults(func=_cmd_spectrum_enumerate)

    p = sub.add_parser("ruelle", help="Ruelle function evaluation")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    pr = with_output(rsub.add_parser("eval"))
    pr.add_argument("spectrum")
    pr.add_argument("--z", type=_finite(complex), required=True)
    pr.set_defaults(func=_cmd_ruelle_eval)

    p = sub.add_parser("fried", help="factorization checks")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pf = with_output(fsub.add_parser("check"))
    pf.add_argument("spectrum")
    pf.add_argument("--z", type=_finite(complex), required=True)
    pf.set_defaults(func=_cmd_fried_check)

    p = with_output(sub.add_parser("terms", help="trace-formula terms"))
    p.add_argument("term", choices=["identity", "unipotent", "threshold",
                                    "scattering"])
    p.add_argument("poles", nargs="?",
                   help="scattering poles JSON (scattering only)")
    p.add_argument("--vol", type=_finite(float, positive=True), default=1.0)
    p.add_argument("--covolume", type=_finite(float))
    p.add_argument("--c-rho", type=_finite(float), dest="c_rho")
    p.add_argument("--trivial", action="store_true")
    p.set_defaults(func=_cmd_terms)

    p = with_output(sub.add_parser("epstein", help="lattice L-function"))
    p.add_argument("lattice")
    p.add_argument("--s", type=_finite(complex), default="1.0")
    p.add_argument("--residue", action="store_true",
                   help="residue and constant term at s=0 instead of a value")
    p.set_defaults(func=_cmd_epstein)

    p = with_output(sub.add_parser("verify", help="main comparison report"))
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_verify)

    p = with_output(sub.add_parser("selftest", help="run the property suites"))
    p.set_defaults(func=_cmd_selftest)
    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        if args.command == "terms" and args.term == "scattering" \
                and not args.poles:
            raise ValidationError("scattering needs a poles JSON file")
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as out:
                return args.func(args, out)
        return args.func(args, sys.stdout)
    except OSError as exc:
        sys.stderr.write(f"cuspedzeta: {exc}\n")
        return EX_DATAERR
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"cuspedzeta: invalid input: {exc}\n")
        return EX_DATAERR
    except _COMPUTE_ERRORS as exc:
        sys.stderr.write(f"cuspedzeta: computation failed: {exc}\n")
        return EX_SOFTWARE
    except CuspedZetaError as exc:
        sys.stderr.write(f"cuspedzeta: {exc}\n")
        return EX_SOFTWARE


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
