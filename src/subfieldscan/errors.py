"""Exception types shared across the library.

An input error comes only from the input gate: the polynomial parser
(cli.parse_poly), poly.normalize_input, NumberField and the parameter
checks of testkit.corpus_generate raise InputError, and nothing else does.
An exhausted bounded search raises BudgetExceeded.  Every other failure is
a built-in exception (ValueError for a caller's bad argument,
ArithmeticError or AssertionError for a broken invariant): past the gate
it is a fault of the library, never an answer about the input.
"""


class SubfieldScanError(Exception):
    """Base class for all library errors."""


class InputError(SubfieldScanError, ValueError):
    """The input gate refused a polynomial or a corpus parameter."""


class PolyParseError(InputError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class BudgetExceeded(SubfieldScanError):
    """A bounded search (factoring, splitting, prime selection) ran out of
    its budget."""


class NotSquarefree(SubfieldScanError):
    """A polynomial, over Q or mod p, has a repeated root."""
