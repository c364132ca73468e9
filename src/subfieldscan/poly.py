"""Dense univariate polynomials over Q and Z.

One class covers both: coefficients are Python ints or Fractions, stored as
an ascending tuple with trailing zeros trimmed.  Integer-coefficient
polynomials (PolyZ in the docs) are just instances whose coefficients are
all ints.

Besides ring arithmetic this module provides the subfield-specific
operations: e-th root candidates by a top-down coefficient recurrence in
integers, integer resultants and discriminants by the subresultant PRS on
int lists, compositum minimal polynomials by resultant elimination, and
input normalization to a monic integral defining polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import arith
from .errors import InputError, NotSquarefree


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

    def clear_denominators(self):
        """(integer polynomial, positive multiplier m) with m*self integral."""
        m = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                m = m * c.denominator // math.gcd(m, c.denominator)
        if m == 1:
            return self, 1
        return Poly([int(c * m) for c in self.coeffs]), m


# -- gcd and resultants ------------------------------------------------------

_SMALL_PRIMES = tuple(arith.primes_up_to(200))    # sieved once, not per squarefree test


def is_squarefree_q(f: Poly) -> bool:
    """Squarefree test over Q.

    One squarefree reduction mod a prime proves squarefreeness; the exact
    test, a nonzero resultant of f and f', runs only when every small prime
    fails (which for a squarefree f essentially never happens).
    """
    from . import modp

    fi, _ = f.clear_denominators()
    for p in _SMALL_PRIMES:
        if fi.lc % p == 0:
            continue
        if modp.squarefree_mod_p(fi, p):
            return True
    return resultant_int(fi.coeffs, fi.derivative().coeffs) != 0


def resultant_int(a, b) -> int:
    """Res(a, b) of nonzero integer polynomials given as ascending
    coefficient sequences without trailing zeros (Poly.coeffs, or lists),
    by the subresultant PRS (Cohen, GTM 138, Alg. 3.3.7) on int lists, each
    pseudo-remainder lc(b)**(deg a - deg b + 1) * a mod b made in place."""
    if not a or not b:
        raise ValueError("resultant of zero polynomial")
    s = 1
    if len(a) < len(b):
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
        a, b = b, a
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    ca, cb = math.gcd(*a), math.gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a, b = [c // ca for c in a], [c // cb for c in b]
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        lb = b[-1]
        for i in range(da, db - 1, -1):     # a becomes prem(a, b)
            c, m = a.pop(), i - db
            a[:m] = [x * lb for x in a[:m]]
            a[m:] = [x * lb - c * y for x, y in zip(a[m:], b)]
        while a and a[-1] == 0:
            a.pop()
        denom = g * h**delta
        a, b = b, [c // denom for c in a]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
        if not b:
            return 0
        if len(b) == 1:
            break
    last = b[0] ** (len(a) - 1)
    if len(a) > 2:
        last //= h ** (len(a) - 2)
    return s * t * last


def disc_poly(f: Poly) -> int:
    """Discriminant of a monic integer polynomial of degree >= 2."""
    if not f.is_monic() or not f.is_integral():
        raise ValueError("disc_poly expects a monic integral polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be >= 2")
    r = resultant_int(f.coeffs, [i * c for i, c in enumerate(f.coeffs)][1:])
    return -r if (n * (n - 1) // 2) % 2 else r


# -- e-th roots -----------------------------------------------------------------


def eth_power_top_down(F: list[int], e: int) -> tuple[list[int], list[int]]:
    """(G, G**e) for the monic G of degree n = deg(F)/e whose e-th power
    matches the top n + 1 coefficients of the monic integral F.

    Top-down: the coefficient of X**((k-1)*n + j) in G**k is k*G[j] plus
    products of known coefficients, so G[j] costs one division by e, and
    below X**((e-1)*n) the same sums finish G**2, ..., G**e: O(e**2 * n**2)
    integer products.  For F = s**deg(f) * f(X/s), f monic integral and
    s = e**2, G is integral, as the series (1 + e**2 y)**(1/e) is; an
    inexact division raises."""
    n = (len(F) - 1) // e
    G = [0] * n + [1]
    pw = [G] + [[0] * (k * n) + [1] for k in range(2, e + 1)]   # pw[k - 1] = G**k
    for j in range(n - 1, -(e - 1) * n - 1, -1):
        lo = max(0, j)
        for k in range(1, e):
            i = k * n + j
            if i >= 0:    # with G[j] still 0 the sum lacks (k + 1) * G[j]
                hi = min(n, i)
                pw[k][i] = sum(map(mul, G[lo:hi + 1], reversed(pw[k - 1][i - hi:i - lo + 1])))
        if j >= 0:
            q, r = divmod(F[(e - 1) * n + j] - pw[-1][(e - 1) * n + j], e)
            if r:
                raise ArithmeticError("inexact division in the e-th root recurrence")
            G[j] = q
            for k in range(1, e):
                pw[k][k * n + j] += (k + 1) * q
    return G, pw[-1]


def eth_root_coeffs(f: Poly, e: int) -> Poly:
    """The unique monic degree-n candidate g whose top coefficients of g**e
    match f, where deg f = e*n: the rational view of eth_power_top_down,
    run on m**(e*n) * f(X/m) with m = e**2 times the least common
    denominator of f.
    """
    if not f.is_monic():
        raise ValueError("input must be monic")
    if e < 2:
        raise ValueError("e must be >= 2")
    if f.degree % e != 0 or f.degree == 0:
        raise ValueError(f"degree {f.degree} not divisible by {e}")
    N, n = f.degree, f.degree // e
    m = e * e * f.clear_denominators()[1]
    G, _ = eth_power_top_down([int(c * m ** (N - i)) for i, c in enumerate(f.coeffs)], e)
    return Poly([Fraction(c, m ** (n - i)) for i, c in enumerate(G)])


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
        points.append((x0, resultant_int(g.coeffs, acc.coeffs)))
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
        raise InputError("zero polynomial")
    if f_raw.degree < 2:
        raise InputError("degree must be >= 2")
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
