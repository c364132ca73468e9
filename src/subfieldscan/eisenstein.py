"""Arithmetic in Z[w] where w^2 + w + 1 = 0 (a primitive cube root of unity).

Provides norms, conjugation, splitting of rational primes p = 1 (mod 3),
and the cubic residue class map used to build the F3 sieve rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import sqrt_mod_prime


@dataclass(frozen=True)
class EisensteinInt:
    """x + y*w with w^2 = -1 - w."""

    x: int
    y: int

    def __add__(self, other):
        return EisensteinInt(self.x + other.x, self.y + other.y)

    def __mul__(self, other):
        if isinstance(other, int):
            return EisensteinInt(self.x * other, self.y * other)
        return EisensteinInt(*_product(self.x, self.y, other.x, other.y))

    __rmul__ = __mul__

    def __pow__(self, e: int, q: int | None = None):
        """self**e; with q, as the built-in pow(a, e, q): each product is
        reduced mod q, so the powers stay in F_q[w]/(w^2 + w + 1)."""
        rx, ry, bx, by = 1, 0, self.x, self.y
        while e:
            if e & 1:
                rx, ry = _product(rx, ry, bx, by, q)
            e >>= 1
            if e:
                bx, by = _product(bx, by, bx, by, q)
        return EisensteinInt(rx, ry)

    def conj(self) -> "EisensteinInt":
        """The image under the nontrivial automorphism w -> w^2."""
        return EisensteinInt(self.x - self.y, -self.y)

    def norm(self) -> int:
        return self.x * self.x - self.x * self.y + self.y * self.y

    def trace(self) -> int:
        return 2 * self.x - self.y

    def __repr__(self):
        return f"EisensteinInt({self.x}, {self.y})"


OMEGA = EisensteinInt(0, 1)
ONE = EisensteinInt(1, 0)


def _product(ax, ay, bx, by, q=None):
    """(ax + ay*w)(bx + by*w) as a pair (x, y), reduced mod q when q is given.
    Powers multiply plain pairs, so no step builds an EisensteinInt."""
    c = ay * by
    x, y = ax * bx - c, ax * by + ay * bx - c
    return (x, y) if q is None else (x % q, y % q)


def split_prime(p: int) -> EisensteinInt:
    """A prime element of norm p, for a rational prime p = 1 (mod 3).

    Deterministic: smallest y >= 0, then smallest x >= 0, with
    x^2 - x*y + y^2 = p.
    """
    if p % 3 != 1:
        raise ValueError(f"{p} does not split (p mod 3 = {p % 3})")
    for y in range(math.isqrt(4 * p // 3) + 2):
        disc = 4 * p - 3 * y * y
        if disc < 0:
            break
        t = math.isqrt(disc)
        if t * t != disc:
            continue
        for x2 in sorted({(y - t), (y + t)}):
            if x2 >= 0 and x2 % 2 == 0:
                x = x2 // 2
                cand = EisensteinInt(x, y)
                if cand.norm() == p:
                    return cand
    raise ArithmeticError(f"no norm-{p} element found")  # unreachable for split p


def omega_residue(q: int) -> int:
    """The smaller root of w^2 + w + 1 mod a prime q = 1 (mod 3)."""
    s = sqrt_mod_prime(q - 3, q)
    if s is None:
        raise ValueError(f"-3 is not a square mod {q}")
    inv2 = (q + 1) // 2
    r1 = (-1 + s) * inv2 % q
    r2 = (-1 - s) * inv2 % q
    return min(r1, r2)


def cubic_residue_class(a: EisensteinInt, q: int) -> int:
    """The class m in {0, 1, 2} of a modulo cubes at the prime q.

    For q = 1 (mod 3) the value is defined by reducing a at the place
    w -> omega_q (the smaller root of w^2+w+1 mod q) and taking the cubic
    power character; for q = 2 (mod 3) by the character of F_{q^2}.
    m = 0 means a is a cube locally at q.
    """
    if q == 3 or q < 2:
        raise ValueError(f"unsupported prime {q}")
    n = a.norm()
    if n % q == 0:
        raise ValueError(f"{q} divides the norm of {a}")
    if q % 3 == 1:
        w = omega_residue(q)
        r = (a.x + a.y * w) % q
        c = pow(r, (q - 1) // 3, q)
        if c == 1:
            return 0
        if c == w:
            return 1
        if c == w * w % q:
            return 2
        raise ArithmeticError("character value is not a cube root of unity")
    c = pow(a, (q * q - 1) // 3, q)
    if c == ONE:
        return 0
    if c == OMEGA:
        return 1
    if c == EisensteinInt(q - 1, q - 1):
        return 2
    raise ArithmeticError("character value is not a power of w")
