"""Candidate ramified primes of the degree-e cyclic subfields of a
NumberField, whose constructor has checked that f is squarefree, without
factoring the discriminant of the defining polynomial.

The shortcut: compute the unique monic candidate g with deg g = deg(f)/e
whose e-th power matches the top coefficients of f, and take the gcd D of
the numerators of the nonzero coefficients of f - g**e.  Any prime that is
tamely (totally) ramified in a degree-e cyclic subfield forces f mod p to
be an e-th power, hence divides every such numerator.  D is typically tiny
compared to disc(f), so factoring it is cheap.  D comes from integers
alone: with s = e**2, the top-down recurrence on s**N f(X/s) gives
s**N (f - g**e)(X/s), whose coefficient at X**i is s**(N - i) times that
of f - g**e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factor_integer
from .nfroot import NumberField
from .poly import eth_power_top_down


@dataclass(frozen=True)
class CandidateSet:
    """Possibly ramified places of a degree-e cyclic subfield.

    tame_primes come from the numerator gcd; wild_primes are the divisors of
    e (plus 2 for e = 2, where 2 is both wild and the even prime); the -1
    slot tracks the real place and exists only for e = 2.  gcd_value is kept
    for diagnostics since no a priori bound on it is known.
    """

    e: int
    tame_primes: tuple[int, ...]
    wild_primes: tuple[int, ...]
    include_minus_one: bool
    gcd_value: int

    def all_finite_primes(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.tame_primes) | set(self.wild_primes)))


def candidate_ramified_primes(field: NumberField, e: int) -> CandidateSet:
    """Superset of the ramified primes of any degree-e cyclic subfield of
    the field Q[X]/(f), for e in {2, 3}.

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
    tame = []
    if d > 1:
        for p in factor_integer(d).primes():
            if e % p != 0:
                tame.append(p)
    wild = (2,) if e == 2 else (3,)
    return CandidateSet(
        e=e,
        tame_primes=tuple(sorted(tame)),
        wild_primes=wild,
        include_minus_one=(e == 2),
        gcd_value=d,
    )
