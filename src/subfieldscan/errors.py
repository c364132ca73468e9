"""Exception types shared across the library."""


class SubfieldScanError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(SubfieldScanError):
    """A bounded search (factoring, splitting) ran out of its iteration budget."""


class DegreeNotDivisible(SubfieldScanError):
    pass


class NotSquarefree(SubfieldScanError):
    pass


class LeadingCoefficientVanishes(SubfieldScanError):
    pass


class DependentBasis(SubfieldScanError):
    pass


class NotSplitPrime(SubfieldScanError):
    pass


class BadPrime(SubfieldScanError):
    pass


class PrimeInBasis(SubfieldScanError):
    pass


class NoPrimeFound(SubfieldScanError):
    """No usable prime below nfroot.SELECT_PRIME_BOUND."""


class ZeroExponentVector(SubfieldScanError):
    pass


class RetryLimitExceeded(BudgetExceeded):
    """Cantor-Zassenhaus splitting stalled after modp._CZ_RETRY_CAP tries."""


class PolyParseError(SubfieldScanError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class MultipleVariables(PolyParseError):
    pass
