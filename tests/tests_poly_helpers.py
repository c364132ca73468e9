"""Slow, independent polynomial oracles shared by the tests: e-th root
candidates from Newton's identities, a Sylvester-determinant resultant and
the prime divisors of a full discriminant.  The library computes each of
these another way (poly.eth_root_coeffs, poly.resultant_int and the
numerator-gcd shortcut of ramify.py).  The discriminant is not independent:
it comes from the library's own poly.disc_poly, the subresultant PRS that
NumberField.squarefree_mod uses.  Also test inputs the corpus does not
code: the Taylor shift f(x + c) and composita of Gauss's period cubics."""

from fractions import Fraction
from math import isqrt

from subfieldscan.arith import factor_integer
from subfieldscan.errors import DegreeNotDivisible, NotSquarefree
from subfieldscan.poly import Poly, compositum_minpoly, disc_poly


def power_sums(f: Poly, m: int) -> list:
    """Power sums s_1..s_m of the roots of monic f, from Newton's identities."""
    if not f.is_monic():
        raise ValueError("input must be monic")
    n = f.degree
    # elementary symmetric functions: esym[k] = (-1)^k * coeff of X^(n-k)
    esym = [0] * (n + 1)
    esym[0] = 1
    for k in range(1, n + 1):
        esym[k] = f[n - k] if k % 2 == 0 else -f[n - k]
    s = []
    for k in range(1, m + 1):
        acc = 0
        for i in range(1, min(k, n) + 1):
            if k - i < 1:
                continue
            term = esym[i] * s[k - i - 1]
            acc += term if i % 2 == 1 else -term
        if k <= n:
            acc += (k * esym[k]) if k % 2 == 1 else -(k * esym[k])
        s.append(int(acc) if isinstance(acc, Fraction) and acc.denominator == 1 else acc)
    return s


def poly_from_power_sums(s: list) -> Poly:
    """The unique monic polynomial of degree len(s) with the given power sums."""
    n = len(s)
    if n < 1:
        raise ValueError("need at least one power sum")
    esym = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            term = esym[k - i] * s[i - 1]
            acc += term if i % 2 == 1 else -term
        esym.append(acc / k)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        coeffs[n - k] = esym[k] if k % 2 == 0 else -esym[k]
    return Poly(coeffs)


def eth_root_newton(f: Poly, e: int) -> Poly:
    """Same candidate as poly.eth_root_coeffs, via power sums divided by e."""
    if not f.is_monic():
        raise ValueError("input must be monic")
    if e < 2:
        raise ValueError("e must be >= 2")
    if f.degree % e != 0 or f.degree == 0:
        raise DegreeNotDivisible(f"degree {f.degree} not divisible by {e}")
    n = f.degree // e
    s = power_sums(f, n)
    return poly_from_power_sums([Fraction(si, e) for si in s])


def sylvester_resultant(a: Poly, b: Poly) -> Fraction:
    """Res(a, b) as the determinant of the Sylvester matrix, by fraction-free
    ignorant Gaussian elimination.  Slow; for cross-checking only."""
    m, n = a.degree, b.degree
    size = m + n
    rows = []
    ac = [Fraction(a[m - i]) for i in range(m + 1)]
    bc = [Fraction(b[n - i]) for i in range(n + 1)]
    for i in range(n):
        rows.append([Fraction(0)] * i + ac + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + bc + [Fraction(0)] * (m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def ramified_superset_bruteforce(f: Poly) -> set[int]:
    """Prime divisors of disc(f): the expensive baseline the gcd shortcut
    replaces.  Corpus-sized inputs only."""
    d = disc_poly(f)
    if d == 0:
        raise ValueError("polynomial is not squarefree")
    return set(factor_integer(d).factors)


def taylor_shift(f: Poly, c: int) -> Poly:
    """f(x + c): the same field, with every coefficient changed."""
    acc = Poly()
    for a in reversed(f.coeffs):
        acc = acc * Poly([c, 1]) + Poly([a])
    return acc


def gauss_period_cubic(p: int) -> Poly:
    """The minimal polynomial of the Gauss period of length (p - 1)/3 for a
    prime p = 1 (mod 3), which generates the cyclic cubic field of conductor
    p: X^3 + X^2 - ((p - 1)/3) X - (p(c + 3) - 1)/27, with 4p = c^2 + 27b^2
    and c = 1 (mod 3)."""
    if p % 3 != 1:
        raise ValueError("p must be 1 mod 3")
    b = 1
    while 27 * b * b < 4 * p:
        c = isqrt(4 * p - 27 * b * b)
        if c * c + 27 * b * b == 4 * p:
            c = c if c % 3 == 1 else -c
            return Poly.from_desc([1, 1, -(p - 1) // 3, -(p * (c + 3) - 1) // 27])
        b += 1
    raise ValueError(f"4 * {p} is not c^2 + 27 b^2")


def cyclic_cubic_compositum(conductors) -> Poly:
    """A defining polynomial of the compositum of the cyclic cubic fields of
    the given prime conductors (a C3^t field of degree 3^t, with (3^t - 1)/2
    cyclic cubic subfields), from the first shift at which each resultant
    is squarefree."""
    f = gauss_period_cubic(conductors[0])
    for p in conductors[1:]:
        g = gauss_period_cubic(p)
        for shift in range(1, 10):
            try:
                f = compositum_minpoly(g, f, shift)
                break
            except NotSquarefree:
                continue
        else:
            raise NotSquarefree(f"no squarefree compositum with {p}")
    return f
