"""Slow, independent polynomial oracles shared by the tests: e-th root
candidates from Newton's identities, the numerator gcd of f - g**e over
Fractions, a Sylvester-determinant resultant and the prime divisors of a
full discriminant.  The library computes each of these another way
(poly.eth_root_coeffs, the integer recurrence poly.eth_power_top_down,
poly.resultant_int and the numerator-gcd shortcut).  The discriminant is
not independent: it comes from the library's own poly.disc_poly, the
subresultant PRS that NumberField.squarefree_mod uses.  The rational
extended Euclid and the quadratic twist product over Q it gives are the
reference for the scan's products mod a prime power.  Also test inputs
the corpus does not code: the Taylor shift f(x + c) and composita of
Gauss's period cubics.  And the complete factorization of f mod p by a
gcd(f, f') test, a DDF and the split of its stages in one call, the
reference for the library's one path (modp.ddf_degrees, then
modp.split_stages).  And the certificate residual over Q, the reference
for the packed integer check of nfroot.verify_certificate."""

import random
from fractions import Fraction
from math import gcd, isqrt

from subfieldscan.arith import factor_integer
from subfieldscan.errors import NotSquarefree
from subfieldscan.modp import _ddf_stages, _split_equal_degree, from_poly, monic, squarefree_mod_p
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
        raise ValueError(f"degree {f.degree} not divisible by {e}")
    n = f.degree // e
    s = power_sums(f, n)
    return poly_from_power_sums([Fraction(si, e) for si in s])


def eth_root_fractions(f: Poly, e: int) -> Poly:
    """The e-th root candidate by the top-down recurrence over Fractions,
    each coefficient of g**e recomputed from a fresh power of g."""
    n = f.degree // e
    g = [Fraction(0)] * n + [Fraction(1)]
    for j in range(n - 1, -1, -1):
        target = (e - 1) * n + j
        g[j] = Fraction(f[target] - (Poly(g) ** e)[target], e)
    return Poly(g)


def numerator_gcd_reference(f: Poly, e: int) -> int:
    """gcd of the numerators of the nonzero coefficients of f - g**e, over
    Fractions: the value ramify.candidate_ramified_primes reports."""
    d = 0
    for c in (f - eth_root_fractions(f, e) ** e).coeffs:
        d = gcd(d, Fraction(c).numerator)
    return d


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


def xgcd_q(a: Poly, b: Poly):
    """(g, s, t) over Q with s*a + t*b = g = gcd(a, b), g monic."""
    r0, r1 = a, b
    s0, s1 = Poly([1]), Poly()
    t0, t1 = Poly(), Poly([1])
    while r1:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 and r0.lc != 1:
        inv = Fraction(1) / Fraction(r0.lc)
        r0, s0, t0 = r0.scale(inv), s0.scale(inv), t0.scale(inv)
    return r0, s0, t0


def fprime_inverse_q(field) -> tuple[Poly, int]:
    """(T, D), T integral and D the least positive integer with f' * T = D
    mod f, from xgcd_q: 1/f' = T/D in the field."""
    g, _, t = xgcd_q(field.f, field.fprime)
    assert g.degree == 0, "f' is not invertible mod f"
    return (t % field.f).clear_denominators()


def rational_twist_product(field, inverse, d1: int, y1: Poly, d2: int, y2: Poly,
                           d3: int) -> Poly:
    """The scaled root f' * sqrt(d1) * sqrt(d2) / k of Q(sqrt(d3)), d3 =
    d1 * d2 / k**2, from the scaled roots y_i = f' * sqrt(d_i), over Q: with
    (T, D) = inverse = fprime_inverse_q(field) it is y1 * y2 * T / (D * k)
    mod f.  The division is exact: f' times an algebraic integer of the
    field lies in Z[theta]."""
    t, d = inverse
    dk = d * isqrt(abs(d1 * d2 // d3))
    y3 = ((y1 * y2) % field.f * t) % field.f
    assert all(c % dk == 0 for c in y3.coeffs), "scaled twist-product root is not integral"
    return Poly([c // dk for c in y3.coeffs])


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
    cyclic cubic subfields)."""
    f = gauss_period_cubic(conductors[0])
    for p in conductors[1:]:
        f = compositum(gauss_period_cubic(p), f)
    return f


def compositum(g: Poly, f: Poly) -> Poly:
    """compositum_minpoly(g, f, shift) at the first shift from 1 to 9 at
    which the resultant is squarefree."""
    for shift in range(1, 10):
        try:
            return compositum_minpoly(g, f, shift)
        except NotSquarefree:
            continue
    raise NotSquarefree(f"no squarefree compositum of {g} and {f}")


def mixed_compositum(conductors, deltas) -> Poly:
    """The C3^t field of cyclic_cubic_compositum(conductors) with sqrt(d)
    adjoined for each d in deltas: degree 3^t * 2^len(deltas)."""
    f = cyclic_cubic_compositum(conductors)
    for d in deltas:
        f = compositum(Poly([-d, 0, 1]), f)
    return f


def factor_mod_p(f: Poly, p: int) -> list[list[int]]:
    """Complete factorization of squarefree f mod p into monic irreducibles,
    sorted by degree then coefficients.

    The Cantor-Zassenhaus splitting draws from a stream seeded with p.  The
    sort makes the output independent of the draws: they change the time
    the split takes, not its result.
    """
    if not squarefree_mod_p(f, p):
        raise NotSquarefree(f"f mod {p} is not squarefree")
    fb = monic(from_poly(f, p), p)
    rng = random.Random(p)
    factors = []
    for d, g in _ddf_stages(fb, p):
        factors.extend(_split_equal_degree(g, d, p, rng))
    factors.sort(key=lambda a: (len(a), tuple(reversed(a))))
    return factors


def certificate_residual(field, h: Poly, y: Poly) -> Poly:
    """sum_j h_j * y**j * f'**(deg h - j) mod f, by Horner in Poly
    arithmetic over Q: zero iff y / f' is a root of h in the field (it is
    f'**deg(h) * h(y / f') cleared of denominators)."""
    m = h.degree
    fp = field.fprime
    acc = Poly([h[m]])
    for j in range(m - 1, -1, -1):
        acc = (acc * y) % field.f
        if h[j] != 0:
            acc = acc + (fp ** (m - j) * h[j]) % field.f
    return acc % field.f


def verify_certificate_reference(field, h: Poly, cert) -> bool:
    """The Poly form of nfroot.verify_certificate: a scaled root of at most
    n integral entries whose residual (certificate_residual) is zero."""
    if len(cert.scaled_root) > field.n:
        return False
    y = Poly(cert.scaled_root)
    return y.is_integral() and not certificate_residual(field, h, y)
