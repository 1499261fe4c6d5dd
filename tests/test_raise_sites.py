"""Every exception the package raises maps to one exit code.

`InputError` means invalid input data (exit 65) and `CuspedZetaError` a
failed computation (exit 70); `cli.run` needs no table of classes
because there are no others.  Every ``raise`` in ``src/cuspedzeta``
names one of the two, or is a builtin listed in `BUILTINS` with the
reason it is not one of them.  A new exception class, or a builtin
raised where it is not listed, fails until it has been checked and
added.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cuspedzeta"

OWN = {"InputError", "CuspedZetaError"}

# (module, enclosing function, what is raised) -> why it is not one of OWN
BUILTINS = {
    ("cli", "_jdump.emit", "TypeError"):
        "a value of a type that no command writes: a programming error",
    ("cli", "_finite.convert", "argparse.ArgumentTypeError"):
        "argparse reports it as a usage error, exit 64",
    ("cli", "_word_length", "argparse.ArgumentTypeError"):
        "argparse reports it as a usage error, exit 64",
    ("cli", "main", "SystemExit"): "the exit status of run()",
    ("cuspterms", "identity_lprime", "ValueError"):
        "library argument check; the parser bounds --vol to positive values",
    ("cuspterms", "unipotent_lprime", "TypeError"):
        "library argument check; the CLI passes one of the two cases",
    ("cyclotomic", "cyclotomic_polynomial", "ValueError"):
        "library argument check; the presentation parser bounds the modulus",
    ("cyclotomic", "invert", "ZeroDivisionError"):
        "the inverse of zero, as for numbers; no caller inverts zero",
    ("laurent", "LaurentPoly._coerce", "ValueError"):
        "polynomials of one computation share one modulus",
    ("laurent", "LaurentPoly.divmod", "ZeroDivisionError"):
        "division by zero, as for numbers",
    ("laurent", "LaurentPoly.exact_div", "ValueError"):
        "an exact division with a remainder breaks its caller's invariant",
    ("ruelle", "counting_constant", "_overflow"):
        "the located OverflowError, which cli.run reports with exit 70",
    ("ruelle", "euler_product", "_overflow"):
        "the located OverflowError, which cli.run reports with exit 70",
    ("ruelle", "power_closure", "_overflow"):
        "the located OverflowError, which cli.run reports with exit 70",
    ("ruelle", "_tail_bound", "OverflowError"):
        "counting_constant's located OverflowError with z in front; exit 70",
    ("spectrum", "_complex_length", "ValueError"):
        "an invariant: the product was just divided by the square root "
        "of its determinant",
    ("spectrum", "_finite_float", "ValueError"):
        "every caller catches it and raises a located InputError",
    ("spectrum", "load_spectrum", "ValueError"):
        "caught in the row loop, which sends the row to _row to be named",
    ("spectrum", "necklace_walk", "ValueError"):
        "library argument check; the parser bounds --max-word-len to 1..20",
}


def _raises():
    """(module, enclosing function, what is raised) for every ``raise``
    in the package; a bare re-raise is named "raise"."""
    out = []

    def walk(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name], module)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                what = "raise" if exc is None else ast.unparse(exc)
                out.append((module, ".".join(scope), what))
            walk(child, scope, module)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), [], path.stem)
    return out


def _exception_classes():
    """Every class in the package that derives from an exception or a
    warning, by the names of its bases."""
    return sorted(node.name
                  for path in sorted(SRC.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.ClassDef)
                  and any(ast.unparse(b).endswith(("Error", "Exception", "Warning"))
                          for b in node.bases))


def test_every_raise_names_an_exit_code_class_or_a_listed_builtin():
    unlisted = sorted({site for site in _raises()
                       if site[2] not in OWN and site not in BUILTINS})
    assert unlisted == []


def test_builtin_list_names_only_raise_sites():
    assert set(BUILTINS) <= set(_raises())


def test_the_package_defines_one_class_per_exit_code():
    assert _exception_classes() == ["CuspedZetaError", "DiscretenessSuspect",
                                    "InputError"]
