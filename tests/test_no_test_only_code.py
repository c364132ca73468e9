"""The installed package holds no code that only the tests call.

Every top-level function and class of src/subfieldscan, and every method
(not a dunder) of a class whose bases are all library classes, must be
referenced from some module of src/, demos/ or perfbench/: by name, as an
attribute, or in an import; a method only as an attribute.  A class with a base from outside the
library may override that base's methods (cli._Parser.error overrides
argparse's), which the library never names itself; its methods are not
checked.  A cross-check that only the tests use belongs in a tests
helper (tests_*_helpers.py).  The check reads the source files; it
imports and runs none of them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "subfieldscan"
USERS = ("src", "demos", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined() -> dict[str, list[str]]:
    """{name: modules} of the top-level definitions, and {Class.method:
    modules} of the checked methods."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    out: dict[str, list[str]] = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                out.setdefault(node.name, []).append(module)
            if isinstance(node, ast.ClassDef) and all(
                    isinstance(base, ast.Name) and base.id in classes for base in node.bases):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        out.setdefault(f"{node.name}.{item.name}", []).append(module)
    return out


def _referenced() -> set[str]:
    names = set()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names |= {node.attr, "." + node.attr}
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def _reference(name: str) -> str:
    """The reference a definition needs: its name, or .method for
    Class.method."""
    return name[name.index("."):] if "." in name else name


def test_every_library_definition_has_a_non_test_caller():
    referenced = _referenced()
    unused = sorted(f"{module}:{name}" for name, modules in _defined().items()
                    if _reference(name) not in referenced for module in modules)
    assert not unused, "referenced only from tests (move them to a tests helper): " + \
        ", ".join(unused)
