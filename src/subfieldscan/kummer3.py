"""Cyclic cubic subfield candidates from Kummer classes over Q(zeta_3).

A candidate is a class a = w**e0 * prod (pi_i * conj(pi_i)**2)**e_i in
Z[w], with w a primitive cube root of unity and pi_i a fixed prime of norm
p_i = 1 (mod 3).  The shape forces conj(a) = a**2 modulo cubes, so the
cube root of a generates an abelian degree-6 extension whose real cubic
subfield is cyclic over Q.  Writing u for a cube root of a and c for the
integer cube root of the norm of a, the element u + c/u is real and
satisfies X**3 - 3cX - Tr(a), which is the emitted minimal polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import FactorBudget, factor_integer
from .eisenstein import EisensteinInt, OMEGA, ONE, split_prime
from .errors import ZeroExponentVector
from .poly import Poly
from .ramify import CandidateSet
from .sieve import PlaceBasis


@dataclass(frozen=True)
class CubicCandidate:
    exponents: tuple[int, ...]       # slot 0: unit axis; slots 1..: split primes
    a: EisensteinInt
    c: int                            # cube root of norm(a)
    t: int                            # trace of a
    v: int                            # w-coefficient of a
    minpoly: Poly                     # X^3 - 3cX - t


def build_generator(exps, primes: list[tuple[int, EisensteinInt]]) -> CubicCandidate:
    """The cubic candidate for an exponent vector over (unit axis, primes).

    Rejects the zero vector and any degenerate candidate whose cubic has a
    rational root (those do not define a cubic field).
    """
    exps = tuple(e % 3 for e in exps)
    if not any(exps):
        raise ZeroExponentVector("zero exponent vector gives the trivial class")
    if len(exps) != len(primes) + 1:
        raise ValueError("exponent vector width does not match the prime list")
    a = OMEGA**exps[0] if exps[0] else ONE
    c = 1
    for e_i, (p, pi) in zip(exps[1:], primes):
        if e_i == 0:
            continue
        gen = pi * pi.conj() * pi.conj()
        a = a * gen**e_i
        c *= p**e_i
    n = a.norm()
    if c**3 != n:
        raise ArithmeticError("norm is not the expected cube")
    t = a.trace()
    minpoly = Poly([-t, -3 * c, 0, 1])
    if _has_rational_root(minpoly):
        raise ZeroExponentVector(f"degenerate candidate: {minpoly} has a rational root")
    return CubicCandidate(exps, a, c, t, a.y, minpoly)


def _has_rational_root(cubic: Poly) -> bool:
    """Rational-root test for a monic integral cubic (reducible iff true)."""
    t = int(cubic[0])
    if t == 0:
        return True
    divisors = {1}
    for p, e in factor_integer(t, FactorBudget()).factors.items():
        divisors = {d * p**i for d in divisors for i in range(e + 1)}
    return any(cubic.evaluate(r) == 0 or cubic.evaluate(-r) == 0 for r in divisors)


def cubic_place_basis(candidate_set: CandidateSet) -> tuple[PlaceBasis, list[tuple[int, EisensteinInt]]]:
    """Slots for the F3 exponent space of a cubic candidate set.

    Only tame primes p = 1 (mod 3) can carry tame total ramification of a
    cyclic cubic (3 | p - 1 is forced), so the others are dropped; the wild
    prime 3 is represented by the unit axis.
    """
    if candidate_set.e != 3:
        raise ValueError("cubic basis needs a degree-3 candidate set")
    usable = [p for p in candidate_set.tame_primes if p % 3 == 1]
    return PlaceBasis(3, tuple(usable)), [(p, split_prime(p)) for p in usable]

