"""The integer a complete factorization (arith.FactoredInt) stands for,
the recombination the factoring tests check; the library never needs it."""

from subfieldscan.arith import FactoredInt


def factored_value(fi: FactoredInt) -> int:
    """sign * prod(p**e) over the factors of fi."""
    v = fi.sign
    for p, e in fi.factors.items():
        v *= p**e
    return v
