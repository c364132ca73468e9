"""Integer and modular polynomial arithmetic owned by the benchmark.

The benchmark re-checks every answer with this code, never with the
library under test, and uses it to certify its generic fields, to shift
the corpus and for the speed probe's kernel.  Polynomials are lists of
ints in ascending order of degree with trailing zeros stripped; [] is zero.
"""

from __future__ import annotations

from math import isqrt

def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def sub(a, b):
    return add(a, [-c for c in b])


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def scale(a, k):
    return trim([k * c for c in a])


def rem_monic(a, f):
    """Remainder of a on division by the monic integer polynomial f."""
    r = list(a)
    n = len(f) - 1
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i]
        if c:
            for j in range(n + 1):
                r[i - n + j] -= c * f[j]
    return trim(r[:n])


def derivative(a):
    return trim([i * c for i, c in enumerate(a)][1:])


def taylor_shift(f, c):
    """Coefficients of f(x + c)."""
    acc: list[int] = []
    for coeff in reversed(f):
        acc = add(mul(acc, [c, 1]), [coeff])
    return acc


def certificate_holds(f, h, y) -> bool:
    """True iff sum_j h_j * y**j * f'**(deg h - j) = 0 (mod f) over Z.

    This is f'**m * h(y / f') with denominators cleared, so it vanishes
    exactly when y / f'(theta) is a root of h in Q[X]/(f).
    """
    if any(not isinstance(c, int) for c in y) or len(y) > len(f) - 1:
        return False
    fp = rem_monic(derivative(f), f)
    m = len(h) - 1
    acc = [1]
    fp_pow = [1]
    powers = [[1]]
    for _ in range(m):
        fp_pow = rem_monic(mul(fp_pow, fp), f)
        powers.append(fp_pow)
    y = trim(list(y))
    for j in range(m - 1, -1, -1):
        acc = rem_monic(mul(acc, y), f)
        acc = add(acc, scale(powers[m - j], h[j]))
    return not rem_monic(acc, f)


# -- arithmetic mod a prime -------------------------------------------------------


def mod_p(a, p):
    return trim([c % p for c in a])


def _divmod_p(a, b, p):
    inv = pow(b[-1], -1, p)
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p
        if c:
            t = c * inv % p
            q[i - db] = t
            for j, bc in enumerate(b):
                r[i - db + j] = (r[i - db + j] - t * bc) % p
    return trim(q), trim([c % p for c in r[:db]])


def _mulmod_p(a, b, f, p):
    return _divmod_p(mod_p(mul(a, b), p), f, p)[1]


def _gcd_p(a, b, p):
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    return a


def _powmod_p(a, e, f, p):
    out, base = [1], _divmod_p(a, f, p)[1]
    while e:
        if e & 1:
            out = _mulmod_p(out, base, f, p)
        e >>= 1
        if e:
            base = _mulmod_p(base, base, f, p)
    return out


def factor_degrees_mod_p(f, p) -> list[int] | None:
    """Sorted degrees of the irreducible factors of monic f mod p, or None
    when f mod p is not squarefree."""
    fb = mod_p(f, p)
    if len(_gcd_p(fb, mod_p(derivative(fb), p), p)) > 1:
        return None
    degs: list[int] = []
    v, w, d = fb, [0, 1], 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        w = _powmod_p(w, p, v, p)
        g = _gcd_p(v, mod_p(sub(w, [0, 1]), p), p)
        if len(g) > 1:
            degs += [d] * ((len(g) - 1) // d)
            v = _divmod_p(v, g, p)[0]
            w = _divmod_p(w, v, p)[1]
    if len(v) > 1:
        degs.append(len(v) - 1)
    return sorted(degs)


# -- cubic fields ---------------------------------------------------------------------


def cubic_is_cyclic(h) -> bool:
    """Monic integer cubic with no rational root and a square discriminant."""
    c, b, a = h[0], h[1], h[2]
    disc = 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
    if c == 0 or disc <= 0 or isqrt(disc) ** 2 != disc:
        return False
    # a rational root of a monic integer cubic is an integer dividing c
    divisors = set()
    for r in range(1, isqrt(abs(c)) + 1):
        if c % r == 0:
            divisors |= {r, -r, c // r, -(c // r)}
    return not any(((r + a) * r + b) * r + c == 0 for r in divisors)
