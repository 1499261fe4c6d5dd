"""Every class, function, method and module-level constant in the
package, public or private, has a caller in the package.

A function or class that only tests or demos reach belongs in the tests: the
package's code is what the subcommands run.  A name counts as used when
it appears, as a name or an attribute, anywhere in ``src/cuspedzeta``
outside its own body; the package root ``__init__.py`` counts like any
other module.

Names are matched bare, so a method with no caller passes when another
class defines a method of the same name that has one.  Every method
name that two or more classes define is therefore listed in `SHARED`,
with the reason each copy is called; a new shared name fails until it
has been checked and added.

A private name stays in its module: no module of the package imports an
underscore name from another one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cuspedzeta"

# names that nothing in the package calls, and why they stay
ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
}


# method names that two or more classes define, and why each copy is called
SHARED = {
    "is_zero": "LaurentPoly.is_zero by laurent and alexander on polynomials; "
               "MeroSum.is_zero by cli for `terms unipotent` and selftest",
    "is_trivial": "UnitCharacter.is_trivial by alexander for h0; "
                  "LatticeCharacter.is_trivial by cuspterms for the zero mode",
    "validate": "GeodesicClass.validate by Spectrum.validate and by _row, "
                "where the rows load_spectrum's inline checks refuse go; "
                "Spectrum.validate by enumerate_classes",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) for each module-level function,
    class or assigned name and each method of a module-level class,
    private ones included; dunders, which Python itself calls or reads,
    are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _dunder(node.name):
                yield node.name, node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) \
                            and not _dunder(name.id):
                        yield name.id, name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> dict[str, int]:
    """How often each identifier is named, as a Name or an Attribute,
    outside the subtree `skip`."""
    counts: dict[str, int] = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            counts[node.id] = counts.get(node.id, 0) + 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] = counts.get(node.attr, 0) + 1
        stack.extend(ast.iter_child_nodes(node))
    return counts


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _uncalled() -> list[str]:
    trees = _trees()
    totals: dict[str, int] = {}
    for tree in trees.values():
        for name, n in _uses(tree).items():
            totals[name] = totals.get(name, 0) + n
    out = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            inside = _uses(node).get(name, 0)
            if totals.get(name, 0) - inside == 0:
                out.append(qualified)
    return out


def test_every_public_function_has_a_caller_in_the_package():
    assert sorted(set(_uncalled()) - set(ALLOWED)) == []


def test_allowlist_names_only_uncalled_functions():
    assert set(ALLOWED) <= set(_uncalled())


def test_shared_method_names_are_listed():
    classes: dict[str, list[str]] = {}
    for tree in _trees().values():
        for qualified, name, node in _definitions(tree):
            if "." in qualified:
                classes.setdefault(name, []).append(qualified)
    shared = {name: owners for name, owners in classes.items() if len(owners) > 1}
    assert sorted(shared) == sorted(SHARED), shared


def _private_imports() -> list[str]:
    """`module: from-module.name` for each underscore name that a relative
    import of a package module takes from another package module."""
    out = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                out += [f"{module}: {node.module or ''}.{alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    return out


def test_no_module_imports_another_modules_private_name():
    assert _private_imports() == []
