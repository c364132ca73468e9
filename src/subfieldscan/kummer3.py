"""Cyclic cubic subfield candidates from Kummer classes over Q(zeta_3).

A candidate is a class a = w**e0 * prod (pi_i * conj(pi_i)**2)**e_i in
Z[w], with w a primitive cube root of unity and pi_i a fixed prime of norm
p_i = 1 (mod 3).  The shape forces conj(a) = a**2 modulo cubes, so the
cube root of a generates an abelian degree-6 extension whose real cubic
subfield is cyclic over Q.  Writing u for a cube root of a and c for the
integer cube root of the norm of a, the element u + c/u is real and
satisfies X**3 - 3cX - Tr(a), which is the emitted minimal polynomial.

The factors w and pi_i * conj(pi_i)**2 are the slot generators of the
cubic place basis (sieve.PlaceBasis.generators), which the basis builds
once; the sieve rows and the absence witnesses read the same generators.
For a nonzero exponent vector a is no cube in Z[w], so the emitted cubic
is irreducible over Q: it has no rational root, and defines a cubic field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eisenstein import EisensteinInt, ONE
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


def build_generator(exps, basis: PlaceBasis) -> CubicCandidate:
    """The cubic candidate for an exponent vector over a cubic place basis:
    a = prod basis.generators[i]**exps[i] and c = prod p_i**exps[i].

    Rejects the zero vector, the trivial class; every other vector gives
    an irreducible cubic (see the module docstring).
    """
    exps = tuple(e % 3 for e in exps)
    if not any(exps):
        raise ValueError("zero exponent vector gives the trivial class")
    if len(exps) != basis.width:
        raise ValueError("exponent vector width does not match the place basis")
    a = ONE
    for gen, e_i in zip(basis.generators, exps):
        a = a * gen**e_i
    c = math.prod(p**e_i for p, e_i in zip(basis.primes, exps[1:]))
    n = a.norm()
    if c**3 != n:
        raise ArithmeticError("norm is not the expected cube")
    t = a.trace()
    return CubicCandidate(exps, a, c, t, a.y, Poly([-t, -3 * c, 0, 1]))


def cubic_place_basis(candidate_set: CandidateSet) -> PlaceBasis:
    """Slots for the F3 exponent space of a cubic candidate set.

    Only tame primes p = 1 (mod 3) can carry tame total ramification of a
    cyclic cubic (3 | p - 1 is forced), so the others are dropped; the wild
    prime 3 is represented by the unit axis.
    """
    if candidate_set.e != 3:
        raise ValueError("cubic basis needs a degree-3 candidate set")
    return PlaceBasis(3, tuple(p for p in candidate_set.tame_primes if p % 3 == 1))
