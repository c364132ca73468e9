"""The error contract: five exception types, and input errors only from
the input gate (the parser, normalize_input, NumberField and the
parameter checks of corpus_generate)."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from subfieldscan import errors
from subfieldscan.cli import parse_poly
from subfieldscan.errors import InputError
from subfieldscan.nfroot import NumberField
from subfieldscan.poly import Poly, normalize_input
from subfieldscan.testkit import corpus_generate

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "subfieldscan"

GATE = {
    ("cli", "parse_poly"), ("cli", "_parse_expression"), ("cli", "read_poly_file"),
    ("poly", "normalize_input"), ("nfroot", "__init__"),
    ("testkit", "corpus_generate"), ("testkit", "_integers"),
    ("testkit", "_cubic_compositum_entry"),
}


def test_errors_defines_the_five_types():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == {"SubfieldScanError", "InputError", "PolyParseError",
                       "BudgetExceeded", "NotSquarefree"}
    assert issubclass(InputError, ValueError)
    assert issubclass(errors.PolyParseError, InputError)


def test_no_other_module_defines_an_exception():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"subfieldscan.{path.stem}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                assert module is errors or not issubclass(obj, BaseException), \
                    f"{path.name}: {name}"


def test_only_the_gate_raises_input_errors():
    raisers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call) and \
                        getattr(sub.exc.func, "id", None) in ("InputError", "PolyParseError"):
                    raisers.add((path.stem, node.name))
    assert raisers <= GATE, raisers - GATE
    assert {("poly", "normalize_input"), ("nfroot", "__init__"),
            ("testkit", "corpus_generate")} <= raisers


@pytest.mark.parametrize("gate, arg", [
    (parse_poly, "x^2 + y"),
    (normalize_input, Poly()),
    (normalize_input, Poly([1, 1])),
    (NumberField, Poly.from_desc([1, 0, 2, 0, 1])),
    (NumberField, Poly.from_desc([2, 0, 1])),
    (lambda params: corpus_generate("cyclotomic", params), "abc"),
])
def test_the_gate_raises_input_error(gate, arg):
    with pytest.raises(InputError):
        gate(arg)
