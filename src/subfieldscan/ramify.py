"""The place basis of the degree-e cyclic subfields of a NumberField, whose
constructor has checked that f is squarefree, without factoring the
discriminant of the defining polynomial.

The shortcut: compute the unique monic candidate g with deg g = deg(f)/e
whose e-th power matches the top coefficients of f, and take the gcd D of
the numerators of the nonzero coefficients of f - g**e.  Any prime that is
tamely (totally) ramified in a degree-e cyclic subfield forces f mod p to
be an e-th power, hence divides every such numerator.  D is typically tiny
compared to disc(f), so factoring it is cheap.  D comes from integers
alone: with s = e**2, the top-down recurrence on s**N f(X/s) gives
s**N (f - g**e)(X/s), whose coefficient at X**i is s**(N - i) times that
of f - g**e.

Every candidate subfield is an exponent vector over the one basis built
here (sieve.PlaceBasis).  For e = 2 its slots are the real place and the
primes 2 and those of D; for e = 3 the unit axis, which carries the wild
prime 3, and the primes of D that are 1 mod 3, the only ones that can
ramify tamely in a cyclic cubic field.  A prime q of D with q prime to e
needs no other care: F = s**N f(X/s) is then G**e mod q, so f is no
squarefree polynomial mod q, and the prime walk of the scans
(NumberField.squarefree_mod) skips q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factor_integer
from .nfroot import NumberField
from .poly import eth_power_top_down
from .sieve import PlaceBasis


@dataclass(frozen=True)
class CandidateSet:
    """The place basis of the degree-e cyclic subfields, and the numerator
    gcd D it comes from, kept for diagnostics since no a priori bound on it
    is known."""

    basis: PlaceBasis
    gcd_value: int


def candidate_ramified_primes(field: NumberField, e: int) -> CandidateSet:
    """The place basis of every degree-e cyclic subfield of the field
    Q[X]/(f), for e in {2, 3}, and D.

    NumberField has made f monic, integral and squarefree; irreducibility
    is the caller's responsibility.
    """
    f = field.f
    if e not in (2, 3):
        raise ValueError("only e = 2 and e = 3 are supported")
    if f.degree % e != 0:
        raise ValueError(f"degree {f.degree} is not divisible by {e}")
    N, s = f.degree, e * e
    F = [c * s ** (N - i) for i, c in enumerate(f.coeffs)]
    _, ge = eth_power_top_down(F, e)
    d = 0
    for i in range(N - N // e):     # the top N/e + 1 coefficients agree
        h = F[i] - ge[i]
        if h:
            d = math.gcd(d, h // math.gcd(h, s ** (N - i)))
    primes = factor_integer(d).primes() if d > 1 else ()
    if e == 2:
        return CandidateSet(PlaceBasis(2, tuple(sorted({2, *primes}))), d)
    return CandidateSet(PlaceBasis(3, tuple(p for p in primes if p % 3 == 1)), d)
