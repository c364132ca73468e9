"""Arbitrary-precision integer utilities.

Primality testing, complete integer factorization with an explicit budget,
Legendre symbols, and a few modular helpers (Tonelli-Shanks square roots,
prime iteration) used throughout the library.

The one randomized routine, Miller-Rabin above the deterministic bound,
draws its bases from a stream seeded from n, so every answer is
reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .errors import BudgetExceeded


def is_square(n: int) -> bool:
    """True when the integer n is a perfect square, 0 included."""
    return n >= 0 and math.isqrt(n) ** 2 == n


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest n for which the fixed witness set above is known to be exact.
_DETERMINISTIC_MR_BOUND = 3_317_044_064_679_887_385_961_981

_RANDOM_MR_ROUNDS = 40


def _mr_composite_witness(n: int, a: int) -> bool:
    """True when a proves n composite by the strong Fermat test."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic (fixed witness set) below ~3.3e24.  Above that, the fixed
    witnesses are followed by 40 pseudo-random bases drawn from a stream
    seeded with the low 32 bits of n, for an error probability below 2**-80.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    for a in _SMALL_PRIMES:
        if _mr_composite_witness(n, a):
            return False
    if n < _DETERMINISTIC_MR_BOUND:
        return True
    rng = random.Random(n & 0xFFFFFFFF)
    for _ in range(_RANDOM_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_composite_witness(n, a):
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return [i for i in range(2, bound + 1) if sieve[i]]


def iter_primes(start: int = 2, bound: int | None = None):
    """Yield primes >= start in increasing order, optionally up to bound.

    A lazy segmented sieve of Eratosthenes: windows of 256 numbers, doubling
    up to 2**16, each struck out by the primes up to the square root of its
    end, so a caller that stops early pays for little more than it took.
    """
    lo, size = max(2, start), 256
    while bound is None or lo <= bound:
        hi = lo + size if bound is None else min(lo + size, bound + 1)
        window = bytearray([1]) * (hi - lo)
        for p in primes_up_to(math.isqrt(hi - 1)):
            first = max(p * p, -(-lo // p) * p)
            if first < hi:
                window[first - lo::p] = bytes(len(range(first, hi, p)))
        yield from itertools.compress(range(lo, hi), window)
        lo, size = hi, min(2 * size, 1 << 16)


# The caps of factor_integer: the trial-division bound, and the Pollard rho
# effort per composite cofactor (iterations over all restarts, and restarts).
TRIAL_BOUND = 10_000
RHO_ITERATION_CAP = 1 << 24
RHO_RESTARTS = 24


@dataclass
class FactoredInt:
    """Complete factorization sign * prod(p**e)."""

    sign: int
    factors: dict[int, int] = field(default_factory=dict)

    def primes(self) -> list[int]:
        return sorted(self.factors)


def _pollard_brent(n: int) -> int:
    """A non-trivial factor of odd composite n, or raise BudgetExceeded.

    Brent's cycle-finding variant with batched gcds.  Restarts with a new
    polynomial increment c = 1, 2, ... are deterministic.
    """
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, RHO_RESTARTS + 1):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
            spent += r
            if spent > RHO_ITERATION_CAP:
                raise BudgetExceeded(f"pollard rho budget exhausted on {n}")
        if g == n:
            # Backtrack one step at a time from the batched run.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise BudgetExceeded(f"pollard rho restarts exhausted on {n}")


def factor_integer(n: int) -> FactoredInt:
    """Exact complete factorization of n != 0.

    Trial division up to TRIAL_BOUND, then Miller-Rabin plus Pollard rho
    (Brent) recursively.  Raises BudgetExceeded when a composite cofactor
    resists splitting within RHO_ITERATION_CAP and RHO_RESTARTS.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors: dict[int, int] = {}
    for p in primes_up_to(min(TRIAL_BOUND, math.isqrt(n) + 1)):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        if n == 1:
            break
    if n > 1 and n <= TRIAL_BOUND * TRIAL_BOUND:
        # Cofactor below the square of the trial bound must be prime.
        factors[n] = factors.get(n, 0) + 1
        n = 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return FactoredInt(sign, dict(sorted(factors.items())))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo prime p, or None if a is a non-residue.

    Tonelli-Shanks; returns the smaller of the two roots.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        return min(x, p - x)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return min(x, p - x)
