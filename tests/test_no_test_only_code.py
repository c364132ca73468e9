"""The installed package holds no code that only the tests call.

Every top-level function and class of src/subfieldscan must be referenced
from some module of src/, demos/ or perfbench/: by name, as an attribute,
or in an import.  A cross-check that only the tests use belongs in a
tests helper (tests_*_helpers.py).  The check reads the source files; it
imports and runs none of them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "subfieldscan"
USERS = ("src", "demos", "perfbench")


def _defined() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.setdefault(node.name, []).append(path.name)
    return out


def _referenced() -> set[str]:
    names = set()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_library_definition_has_a_non_test_caller():
    referenced = _referenced()
    unused = sorted(f"{module}:{name}" for name, modules in _defined().items()
                    if name not in referenced for module in modules)
    assert not unused, "referenced only from tests (move them to a tests helper): " + \
        ", ".join(unused)
