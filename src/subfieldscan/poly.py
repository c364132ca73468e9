"""Dense univariate polynomials over Q and Z.

One class covers both: coefficients are Python ints or Fractions, stored as
an ascending tuple with trailing zeros trimmed.  Integer-coefficient
polynomials (PolyZ in the docs) are just instances whose coefficients are
all ints.

Besides ring arithmetic this module provides the subfield-specific
operations: e-th root candidates by coefficient recurrence, integer
resultants via the subresultant PRS, compositum minimal polynomials by
resultant elimination, and input normalization to a monic integral
defining polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import arith
from .errors import DegreeNotDivisible, NotSquarefree

_KARATSUBA_CUTOFF = 64


def _norm(c):
    """Fractions with denominator 1 collapse to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """Immutable dense polynomial; coeffs[i] is the coefficient of X**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_desc(cls, coeffs):
        """Build from descending-degree coefficients (human order)."""
        return cls(list(reversed(list(coeffs))))

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lc == 1

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    # -- ring arithmetic --------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        out = list(self.coeffs)
        for i, c in enumerate(other.coeffs):
            if i < len(out):
                out[i] = out[i] - c
            else:
                out.append(-c)
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def scale(self, k):
        if k == 0:
            return Poly()
        return Poly([c * k for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if min(len(a), len(b)) > _KARATSUBA_CUTOFF:
            return Poly(_karatsuba(list(a), list(b)))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        result = Poly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def divmod(self, other):
        """Quotient and remainder over Q; other must be nonzero."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.lc
        if self.degree < d:
            return Poly(), self
        q = [0] * (self.degree - d + 1)
        inv = Fraction(1, 1) / Fraction(lc) if lc != 1 else None
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            t = c if inv is None else c * inv
            q[i - d] = t
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= t * oc
        return Poly(q), Poly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no monic form")
        if self.lc == 1:
            return self
        inv = Fraction(1) / Fraction(self.lc)
        return Poly([c * inv for c in self.coeffs])

    def map_coeffs(self, fn):
        return Poly([fn(c) for c in self.coeffs])

    # -- integer-polynomial helpers ----------------------------------------

    def content(self) -> int:
        """Positive gcd of the coefficients (integral polynomials only)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive(self):
        g = self.content()
        if g in (0, 1):
            return self
        return Poly([c // g for c in self.coeffs])

    def clear_denominators(self):
        """(integer polynomial, positive multiplier m) with m*self integral."""
        m = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                m = m * c.denominator // math.gcd(m, c.denominator)
        if m == 1:
            return self, 1
        return Poly([int(c * m) for c in self.coeffs]), m


def _karatsuba(a, b):
    if min(len(a), len(b)) <= _KARATSUBA_CUTOFF:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out
    m = min(len(a), len(b)) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    z0 = _karatsuba(a0, b0)
    z2 = _karatsuba(a1, b1)
    s_a = [x + y for x, y in zip(a0, a1)] + (a1[len(a0):] or a0[len(a1):])
    s_b = [x + y for x, y in zip(b0, b1)] + (b1[len(b0):] or b0[len(b1):])
    z1 = _karatsuba(s_a, s_b)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] += c
        out[i + m] -= c
    for i, c in enumerate(z1):
        out[i + m] += c
    for i, c in enumerate(z2):
        out[i + m] -= c
        out[i + 2 * m] += c
    return out


# -- gcd and resultants ------------------------------------------------------


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a mod b, over Z."""
    d = b.degree
    lb = b.lc
    r = a
    e = a.degree - d + 1
    while r and r.degree >= d:
        s = Poly([0] * (r.degree - d) + [r.lc])
        r = r.scale(lb) - s * b
        e -= 1
    if e > 0:
        r = r.scale(lb**e)
    return r


def is_squarefree_q(f: Poly) -> bool:
    """Squarefree test over Q.

    One squarefree reduction mod a prime proves squarefreeness; the exact
    test, a nonzero resultant of f and f', runs only when every small prime
    fails (which for a squarefree f essentially never happens).
    """
    from . import modp

    fi, _ = f.clear_denominators()
    for p in arith.primes_up_to(200):
        if fi.lc % p == 0:
            continue
        if modp.squarefree_mod_p(fi, p):
            return True
    return resultant_int(fi, fi.derivative()) != 0


def resultant_int(a: Poly, b: Poly) -> int:
    """Res(a, b) for nonzero integer polynomials, by the subresultant PRS."""
    if not a or not b:
        raise ValueError("resultant of zero polynomial")
    s = 1
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2 == 1:
            s = -s
        a, b = b, a
    if b.degree == 0:
        return s * b.lc ** a.degree
    ca, cb = a.content(), b.content()
    a, b = a.primitive(), b.primitive()
    t = ca**b.degree * cb**a.degree
    g = h = 1
    while True:
        delta = a.degree - b.degree
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            s = -s
        r = _prem(a, b)
        a = b
        denom = g * h**delta
        b = Poly([c // denom for c in r.coeffs])
        g = a.lc
        if delta > 0:
            h = g**delta // h ** (delta - 1) if delta > 1 else g
        if not b:
            return 0
        if b.degree == 0:
            break
    last = b.lc ** a.degree
    if a.degree > 1:
        last //= h ** (a.degree - 1)
    return s * t * last


def disc_poly(f: Poly) -> int:
    """Discriminant of a monic integer polynomial of degree >= 2."""
    if not f.is_monic() or not f.is_integral():
        raise ValueError("disc_poly expects a monic integral polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be >= 2")
    fp = f.derivative()
    if not fp:
        return 0
    r = resultant_int(f, fp)
    return -r if (n * (n - 1) // 2) % 2 else r


# -- e-th roots -----------------------------------------------------------------


def eth_root_coeffs(f: Poly, e: int) -> Poly:
    """The unique monic degree-n candidate g whose top coefficients of g**e
    match f, where deg f = e*n.

    Solved by the triangular recurrence: each unknown coefficient of g first
    appears linearly with factor e.
    """
    if not f.is_monic():
        raise ValueError("input must be monic")
    if e < 2:
        raise ValueError("e must be >= 2")
    if f.degree % e != 0 or f.degree == 0:
        raise DegreeNotDivisible(f"degree {f.degree} not divisible by {e}")
    n = f.degree // e
    g = [Fraction(0)] * n + [Fraction(1)]
    for j in range(n - 1, -1, -1):
        target = (e - 1) * n + j
        if e == 2:
            c = sum(g[u] * g[target - u] for u in range(max(0, target - n), n + 1)
                    if 0 <= target - u <= n)
        else:
            c = (Poly(g) ** e)[target]
        g[j] = Fraction(f[target] - c, e)
    return Poly(g)


# -- compositum and normalization ----------------------------------------------


def _interpolate(points) -> Poly:
    """Exact polynomial through the given (x, y) points (Newton form)."""
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    result = Poly([coeffs[-1]])
    for i in range(n - 2, -1, -1):
        result = result * Poly([-xs[i], 1]) + Poly([coeffs[i]])
    return result


def compositum_minpoly(g: Poly, h: Poly, shift: int = 1) -> Poly:
    """Resultant elimination: the degree deg(g)*deg(h) polynomial whose roots
    are beta + shift*alpha over roots alpha of g and beta of h.

    Raises NotSquarefree when the result has a repeated root (caller retries
    with the next shift).  Irreducibility is not checked.
    """
    if not (g.is_monic() and h.is_monic() and g.is_integral() and h.is_integral()):
        raise ValueError("compositum_minpoly expects monic integral inputs")
    if shift == 0:
        raise ValueError("shift must be nonzero")
    m, n = g.degree, h.degree
    total = m * n
    points = []
    x0 = 0
    while len(points) < total + 1:
        # B(y) = h(x0 - shift*y), degree n in y
        lin = Poly([x0, -shift])
        powers = [Poly([1])]
        for _ in range(n):
            powers.append(powers[-1] * lin)
        acc = Poly()
        for k in range(n + 1):
            if h[k] != 0:
                acc = acc + powers[k].scale(h[k])
        points.append((x0, resultant_int(g, acc)))
        x0 = -x0 + (1 if x0 <= 0 else 0)
    r = _interpolate(points)
    if r.degree != total or not r.is_monic():
        raise ArithmeticError("resultant elimination lost degree")
    r = r.map_coeffs(lambda c: int(c))
    if not is_squarefree_q(r):
        raise NotSquarefree("the compositum polynomial has a repeated root")
    return r


def normalize_input(f_raw: Poly) -> tuple[Poly, int]:
    """Monic integral polynomial defining the same field, plus the scale.

    Divides by the leading coefficient, then substitutes X -> X/lam and
    rescales by lam**deg with the smallest lam clearing all denominators.
    """
    if not f_raw:
        raise ValueError("zero polynomial")
    if f_raw.degree < 2:
        raise ValueError("degree must be >= 2")
    f1 = f_raw.monic()
    n = f1.degree
    dens = {}
    for i in range(n):
        c = f1[i]
        if isinstance(c, Fraction) and c.denominator > 1:
            dens[i] = c.denominator
    if not dens:
        return f1.map_coeffs(int), 1
    lcm_den = 1
    for d in dens.values():
        lcm_den = lcm_den * d // math.gcd(lcm_den, d)
    lam = 1
    for q, _ in arith.factor_integer(lcm_den).factors.items():
        exp = 0
        for i, d in dens.items():
            vq = 0
            while d % q == 0:
                d //= q
                vq += 1
            if vq:
                exp = max(exp, -(-vq // (n - i)))
        lam *= q**exp
    scaled = Poly([f1[i] * lam ** (n - i) for i in range(n + 1)])
    if not scaled.is_integral():
        raise ArithmeticError("denominator clearing failed")
    return scaled, lam
