"""Polynomial arithmetic over Z/m and factorization over F_p.

Polynomials are lists of ints in [0, m), ascending by degree, trailing
zeros stripped ([] is zero).  The same helpers serve two moduli: a prime p
for factorization work, and a prime power p**k for the lifted arithmetic
of the root tests.

Every product modulo a fixed monic v of degree n goes through one
QuotientRing(v, m), which packs a polynomial into a single Python int, one
coefficient per slot of max(64, 8*ceil(bits/8)) bits, where bits is the
length of 2*n^3*m^4: that bound holds every coefficient of a packed
product and of its Barrett reduction by v, so no carry crosses a slot and
the only per-coefficient work is the final % m.  The Barrett constant
x^(2n-1) div v does not depend on the prime when v is a monic f over Z:
NumberField.barrett computes it once, and each ring only reduces it.

A distinct-degree factorization builds one ring, modulo f itself, and
keeps it while factors are divided out.  Its first stage, x^p, takes
squarings alone; the later ones compose with a table of the powers of x^p
whose size (none, sqrt(n) baby steps, all n) follows the products spent.
gcd is a remainder-only Euclid that fuses each one-degree step into a
single pass and keeps no quotient.  pdivmod (exact division, a ring
without a given Barrett constant, one-off reductions, the Hensel tree)
needs a divisor with a unit leading coefficient and reduces mod m only
what fixes the next quotient term until the end; mul sums a short
product's term products and packs a longer one as the ring does.  With
pdivmod it is the reference the ring's products are tested against;
invert is an extended Euclid over F_p, and QuotientRing.inverse lifts
its answer to Z/p^k.

Public operations: squarefree test, distinct-degree factorization
(ddf_degrees, stage products by degree; degree_counts), its
Cantor-Zassenhaus split (split_stages), the one way f mod p is factored,
the test x^(p^2) = x (frobenius_square_fixes_x), and root extraction
(the quadratic formula for a quadratic).  The split
draws from a stream seeded by p, which no caller chooses: the factors,
and the work spent finding them, depend on the polynomial and p alone.
The root tests' Hensel lifts to Z/p^k, of the factors of f and of the
roots of h, live in nfroot (_lift_factors, _lift_root).

ddf_degrees takes f squarefree mod p and does not test it: every caller
settles squarefreeness first, the prime walks of the scans and the root
tests' prime selection with NumberField.squarefree_mod (p not dividing
disc(f) when the discriminant is cheap, otherwise gcd(f, f') mod p), a
witness check with squarefree_mod_p.  The walks ask only part of a DDF
and give it a stop rule: the scans stop at the first stage whose degree
decides the Frobenius class (odd for l = 2, prime to 3 for l = 3), and
prime selection stops once the prime cannot have fewer factors than the
best one so far, or skips a DDF that x^(p^2) = x shows cannot win.
"""

from __future__ import annotations

import math
import operator
import random
import struct

from .arith import sqrt_mod_prime
from .errors import BudgetExceeded
from .poly import Poly

_CZ_RETRY_CAP = 64
# mul packs a product of more terms: up to 64 the sums were faster at every
# modulus tried (5 to 340 bits, CPython 3.11), the break-even near 80-100
MUL_SHORT_TERMS = 64


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def from_poly(f: Poly, m: int) -> list[int]:
    return trim([int(c) % m for c in f.coeffs])


def deg(a: list[int]) -> int:
    return len(a) - 1


def add(a, b, m):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)])


def sub(a, b, m):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)])


def mul(a, b, m):
    """a*b for reduced a and b: sums of the term products when there are at
    most MUL_SHORT_TERMS of them, else Kronecker substitution, one
    big-integer product with slots wide enough for min(len(a), len(b)) * m^2."""
    if not a or not b:
        return []
    if len(a) * len(b) <= MUL_SHORT_TERMS:
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                c[j] += x * y
        return trim([t % m for t in c])
    width = -(-(min(len(a), len(b)) * m * m).bit_length() // 8)
    x = int.from_bytes(b"".join([c.to_bytes(width, "little") for c in a]), "little")
    y = int.from_bytes(b"".join([c.to_bytes(width, "little") for c in b]), "little")
    data = (x * y).to_bytes(width * (len(a) + len(b) - 1), "little")
    return trim([int.from_bytes(data[i:i + width], "little") % m
                 for i in range(0, len(data), width)])


def scale(a, k, m):
    k %= m
    return trim([c * k % m for c in a])


def pdivmod(a, b, m):
    """Division with remainder; b's leading coefficient must be a unit mod m.
    Only the coefficient that fixes the next quotient term is taken mod m;
    the rest of the remainder, at most len(b) products below m^2 off, once
    at the end."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], trim(list(a))
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, m)
    rem = list(a)
    q = [0] * (len(rem) - db)
    low = b[:-1]
    for i in range(len(rem) - 1, db - 1, -1):
        t = rem[i] * inv % m
        if t:
            q[i - db] = t
            for j, c in enumerate(low, i - db):
                rem[j] -= t * c
    return trim(q), trim([r % m for r in rem[:db]])


def pmod(a, b, m):
    return pdivmod(a, b, m)[1]


def barrett_constant(v) -> list[int]:
    """x^(2n-1) div v for a monic v of degree n >= 1, over Z.

    Reduced mod m it is the same quotient over Z/m, so a field computes it
    once for every prime.  Its coefficients, read from the top, are those of
    the power series 1 / (x^n v(1/x)) to n terms."""
    n = len(v) - 1
    rev = v[::-1]
    h = [1]
    for k in range(1, n):
        h.append(-sum(rev[i] * h[k - i] for i in range(1, k + 1)))
    return h[::-1]


class QuotientRing:
    """(Z/m)[x]/(v) for a monic v of degree n >= 1, with packed products.

    Kronecker substitution (Harvey, JSC 44, 2009) turns a product into one
    big-integer multiply, and polynomial Barrett division (von zur Gathen &
    Gerhard, Modern Computer Algebra, 9.1) reduces any c of degree at most
    2n-1 with mu = x^(2n-1) div v:

        q = ((c div x^n) * mu) div x^(n-1),  r = c - q*v mod x^n.

    mu is barrett, a field's barrett_constant(v) over Z, taken mod m, or
    else a schoolbook pdivmod.  Degree 2n-1 lets xpow fold a multiply by x
    into the squaring before it, as a shift by one slot.

    There is no reduction mod m in between.  For reduced a and b each slot
    of c = a*b (or a*b*x) is below n*m^2; c div x^n has n slots, so each
    slot of q is below n * n*m^2 * m = n^2*m^3 and each of the low n slots
    of q*v below n * n^2*m^3 * m = n^3*m^4.  That bound is added to every
    slot of r, so that none borrows; the n low slots of c may also carry a
    packed dot product of at most n reduced powers (compose), which keeps
    them below 2n*m^2 and r below twice the bound, which is what a slot
    holds.  With 64-bit slots (sieve-sized p) packing and unpacking go
    through struct.
    """

    def __init__(self, v, m, barrett=None):
        v = trim([c % m for c in v])
        if len(v) < 2 or v[-1] != 1:
            raise ValueError("modulus must be monic of positive degree")
        n = len(v) - 1
        self.v, self.m, self.n = v, m, n
        headroom = n**3 * m**4
        self._width = max(8, -(-(2 * headroom).bit_length() // 8))
        self._words = struct.Struct(f"<{n}Q") if self._width == 8 else None
        bits = self._bits = 8 * self._width
        self._hi = bits * n
        self._mask = (1 << bits * n) - 1
        self._offset = self._pack([headroom] * n)
        self._v = self._pack(v)
        if barrett is None:
            mu = pdivmod([0] * (2 * n - 1) + [1], v, m)[0]
        else:
            mu = [c % m for c in barrett]
        self._mu = self._pack(mu)
        self._qshift = bits * (n - 1)

    def _pack(self, a) -> int:
        if self._words:
            return int.from_bytes(struct.pack(f"<{len(a)}Q", *a), "little")
        width = self._width
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in a]), "little")

    def _reduce(self, c: int) -> list[int]:
        """The coefficient list of a packed c of degree at most 2n-1 modulo v and m."""
        q = ((c >> self._hi) * self._mu) >> self._qshift
        return self._unpack((c & self._mask) + self._offset - ((q * self._v) & self._mask))

    def _unpack(self, r: int) -> list[int]:
        """The n slots of r, each taken mod m."""
        width, m = self._width, self.m
        data = r.to_bytes(width * self.n, "little")
        if self._words:
            return trim([c % m for c in self._words.unpack(data)])
        return trim([int.from_bytes(data[i:i + width], "little") % m
                     for i in range(0, len(data), width)])

    def element(self, a) -> list[int]:
        """a reduced modulo v and m."""
        a = trim([c % self.m for c in a])
        return pmod(a, self.v, self.m) if len(a) > self.n else a

    def mul(self, a, b) -> list[int]:
        """a*b for reduced a and b (coefficients in [0, m), length at most n)."""
        if not a or not b:
            return []
        return self._reduce(self._pack(a) * self._pack(b))

    def pow(self, a, e: int) -> list[int]:
        """a**e for e >= 0, by left-to-right square and multiply."""
        a = self.element(a)
        if e == 0:
            return [1]
        if not a:
            return []
        base = self._pack(a)
        acc, out = base, a
        for bit in bin(e)[3:]:
            out = self._reduce(acc * acc)
            acc = self._pack(out)
            if bit == "1":
                out = self._reduce(acc * base)
                acc = self._pack(out)
        return out

    def xpow(self, e: int) -> list[int]:
        """x**e for e >= 0 by squarings alone.  The leading bits of e that
        give a power below x^n give that monomial as it is; after them a 1
        bit is a shift by one slot before the reduction, not a product."""
        s = max(0, e.bit_length() - (self.n - 1).bit_length())
        if e >> s >= self.n:
            s += 1
        acc = 1 << self._bits * (e >> s)
        out = self._unpack(acc)
        for i in range(s - 1, -1, -1):
            c = acc * acc
            if e >> i & 1:
                c <<= self._bits
            out = self._reduce(c)
            acc = self._pack(out)
        return out

    def power_table(self, b, top=None, table=()) -> list[int]:
        """The packed powers b^0, ..., b^top of a reduced b, for compose;
        top defaults to n - 1, the full table.  A shorter table of the same
        b is extended."""
        top = self.n - 1 if top is None else top
        table = list(table) or [self._pack([1]), self._pack(b)]
        while len(table) <= top:
            table.append(self._pack(self._reduce(table[-1] * table[1])))
        return table

    def compose(self, a, table) -> list[int]:
        """a(b) for a reduced a, where table = power_table(b, k).  If a has
        at most k + 1 coefficients that is one packed dot product with the
        table; otherwise Horner in the giant step b^k over chunks of k
        coefficients, each a dot product with b^0, ..., b^(k-1) added to the
        low half of the product before its reduction."""
        k = len(table)
        if len(a) <= k:
            return self._unpack(sum(map(operator.mul, a, table)))
        k -= 1
        giant = table[k]
        top = (len(a) - 1) // k * k
        acc = self._unpack(sum(map(operator.mul, a[top:], table)))
        for i in range(top - k, -1, -k):
            acc = self._reduce(self._pack(acc) * giant + sum(map(operator.mul, a[i:i + k], table)))
        return acc

    def inverse(self, a, p: int) -> list[int]:
        """a^-1 for a reduced a prime to v mod p, where m is a power of the
        prime p: a^-1 mod p (invert), then Newton's iteration g <- g(2 - ag),
        which squares the power of p that g is right modulo."""
        g, right = invert(trim([c % p for c in a]), [c % p for c in self.v], p), p
        while right < self.m:
            g, right = self.mul(g, sub([2], self.mul(a, g), self.m)), right * right
        return g


def monic(a, p):
    if not a:
        return a
    if a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd(a, b, p):
    """Monic gcd over F_p of reduced a and b.

    A remainder-only Euclid: each step inverts the divisor's leading
    coefficient once and builds the remainder without a quotient.  A drop
    of one degree, the usual step, is one fused pass r = a - (t1*x + t0)*b;
    a shorter a makes the first step a swap.  It ends with [1] as soon as
    the divisor is a nonzero constant.
    """
    while b:
        if len(b) == 1:
            return [1]
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        drop = len(a) - len(b)
        if drop == 1:
            t1 = a[-1] * inv % p
            t0 = (a[-2] - t1 * b[-2]) * inv % p
            if t0:
                r = [(a[0] - t0 * b[0]) % p]
                r += [(ai - t1 * bl - t0 * bi) % p for ai, bl, bi in zip(a[1:db], b, b[1:db])]
            else:   # at every step for an even and an odd operand, as f(x) = g(x^2) and f'
                r = [a[0]] + [(ai - t1 * bl) % p for ai, bl in zip(a[1:db], b)]
        elif drop == 0:
            t0 = a[-1] * inv % p
            r = [(ai - t0 * bi) % p for ai, bi in zip(a[:db], b)]
        else:
            r = list(a)
            low = b[:-1]
            for i in range(len(r) - 1, db - 1, -1):
                t = r[i] * inv % p
                if t:
                    r[i - db:i] = [(ri - t * bi) % p for ri, bi in zip(r[i - db:i], low)]
            del r[db:]
        a, b = b, trim(r)
    return monic(a, p)


def invert(a, b, p):
    """a^-1 modulo b over F_p, for a reduced a prime to b: an extended
    Euclid that keeps only the cofactor of a."""
    r0, r1 = list(b), pmod(a, b, p)
    s0, s1 = [], [1]
    while deg(r1) > 0:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if not r1:
        raise ValueError("not invertible: a and b have a common factor")
    return scale(s1, pow(r1[0], -1, p), p)


def derivative(a, m):
    return trim([i * c % m for i, c in enumerate(a)][1:])


def evaluate(a, x, m):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def center_lift(a, m) -> list[int]:
    """Coefficients lifted to the symmetric range (-m/2, m/2]."""
    half = m // 2
    return [c - m if c > half else c for c in a]


# -- factorization and lifting --------------------------------------------------


def squarefree_mod_p(f: Poly, p: int) -> bool:
    """True iff gcd(f mod p, f' mod p) = 1."""
    if int(f.lc) % p == 0:
        raise ValueError(f"leading coefficient vanishes mod {p}")
    fb = from_poly(f, p)
    g = gcd(fb, derivative(fb, p), p)
    return deg(g) == 0


def _giant_steps(n, k):
    """Products in one compose of a full-length element with power_table(b, k)."""
    return 0 if k >= n - 1 else -(-n // k) - 1


def _ddf_stages(fb, p, barrett=None):
    """Yield (d, product of irreducible factors of degree d), d increasing.

    Stage d needs w = x^(p^d) modulo the part v of fb not yet factored.  w
    stays reduced modulo fb itself, in one QuotientRing per call (with the
    field's Barrett constant when the caller has it): v divides fb, so
    gcd(w - x, v) is the same as for w reduced modulo v, and a stage that
    finds factors only divides them out of v.

    Stage 1 is xi = x^p by squarings alone.  Frobenius is a ring map fixing
    F_p, so every later stage is w^p = w(xi): either a ring.pow, or a
    compose with a table of the powers of xi, which costs its giant steps
    per stage once the table is built (Brent & Kung, J. ACM 25, 1978).  The
    table has sqrt(n) baby steps or all n powers.  It grows to the larger
    size whose building plus one stage costs no more than the products the
    stages since its last growth have spent plus this stage at its present
    size.
    """
    v = fb
    x = [0, 1]
    n = deg(fb)
    pow_cost = p.bit_length() + bin(p).count("1") - 2   # products in one ring.pow(w, p)
    w = xi = ring = None
    table, top, d, spent = (), 1, 0, 0
    while deg(v) >= 2 * (d + 1):
        d += 1
        if ring is None:
            ring = QuotientRing(fb, p, barrett)
        if xi is None:
            w = xi = ring.xpow(p)
        else:
            stage = _giant_steps(n, top) if table else pow_cost
            for k in (n - 1, math.isqrt(n)):
                if k > top and spent + stage >= k - top + _giant_steps(n, k):
                    table, top, spent = ring.power_table(xi, k, table), k, 0
                    stage = _giant_steps(n, k)
                    break
            w = ring.compose(w, table) if table else ring.pow(w, p)
            spent += stage
        g = gcd(sub(w, x, p), v, p)
        if deg(g) > 0:
            yield d, g
            v = pdivmod(v, g, p)[0]
    if deg(v) > 0:
        yield deg(v), v


def ddf_degrees(f: Poly, p: int, stop=None, barrett=None) -> dict[int, list[int]]:
    """Distinct-degree factorization of f mod p: degree d -> the monic
    product of its irreducible factors of degree d, d increasing.

    f mod p must be squarefree (squarefree_mod_p), which is not checked
    here.  stop(degrees, left) is asked after each stage that finds
    factors, with the factor degrees so far (degree_counts) and the degree
    of f not yet factored; when it is true the DDF ends there and returns
    the stages so far, which cover all of f exactly when left is 0.
    barrett is barrett_constant(f) for a monic f (NumberField.barrett).
    """
    fb = monic(from_poly(f, p), p)
    left = deg(fb)
    stages: dict[int, list[int]] = {}
    for d, g in _ddf_stages(fb, p, barrett):
        stages[d] = g
        left -= deg(g)
        if stop is not None and stop(degree_counts(stages), left):
            break
    return stages


def frobenius_square_fixes_x(f: Poly, p: int, barrett=None) -> bool:
    """Whether x^(p^2) = x modulo a monic f of degree >= 2 and p, by
    squarings alone: for f squarefree mod p, whether every factor of f mod
    p has degree 1 or 2 (x^(p^2) - x is the product of the monic
    irreducibles of those degrees).  barrett is as for ddf_degrees."""
    return QuotientRing(from_poly(f, p), p, barrett).xpow(p * p) == [0, 1]


def degree_counts(stages: dict[int, list[int]]) -> dict[int, int]:
    """The multiset of factor degrees (degree -> count) of DDF stages."""
    return {d: deg(g) // d for d, g in stages.items()}


def _split_equal_degree(g, d, p, rng: random.Random):
    """All monic irreducible factors of g, where every factor has degree d,
    by Cantor-Zassenhaus splitting with monic u of degree deg(g) drawn from
    rng, a stream seeded by p (split_stages)."""
    if deg(g) == d:
        return [g]
    if deg(g) == 0:
        return []
    ring = QuotientRing(g, p)
    for _ in range(_CZ_RETRY_CAP):
        u = [rng.randrange(p) for _ in range(deg(g))] + [1]
        if p == 2:
            t = []
            acc = ring.element(u)
            for _ in range(d):
                t = add(t, acc, p)
                acc = ring.mul(acc, acc)
            w = gcd(t, g, p)
        else:
            t = ring.pow(u, (p**d - 1) // 2)
            w = gcd(sub(t, [1], p), g, p)
        if 0 < deg(w) < deg(g):
            rest = pdivmod(g, w, p)[0]
            return _split_equal_degree(w, d, p, rng) + _split_equal_degree(rest, d, p, rng)
    raise BudgetExceeded(f"equal-degree splitting stalled mod {p}")


def split_stages(stages: dict[int, list[int]], p: int) -> list[list[int]]:
    """The monic irreducible factors of the DDF stages (ddf_degrees), sorted
    by degree then coefficients.

    The Cantor-Zassenhaus splitting draws from a stream seeded with p, in
    stage order.  The sort makes the output independent of the draws: they
    change the time the split takes, not its result.
    """
    rng = random.Random(p)
    factors = []
    for d, g in stages.items():
        factors.extend(_split_equal_degree(g, d, p, rng))
    factors.sort(key=lambda a: (len(a), tuple(reversed(a))))
    return factors


def roots_mod_p(h: Poly, p: int) -> set[int]:
    """All roots of h in F_p: by the quadratic formula for a quadratic at
    odd p, by trying every residue below p = 250, else from gcd(x^p - x, h).
    At p = 250 the gcd costs about as much as the trial for a cubic (about
    0.1 ms in CPython), and less for a higher degree."""
    hb = from_poly(h, p)
    if not hb:
        raise ValueError(f"polynomial vanishes identically mod {p}")
    if deg(hb) == 0:
        return set()
    if deg(hb) == 2 and p > 2:
        c, b, a = hb
        s = sqrt_mod_prime(b * b - 4 * a * c, p)
        if s is None:
            return set()
        inv = pow(2 * a, -1, p)
        return {(-b + s) * inv % p, (-b - s) * inv % p}
    if p < 250:
        return {r for r in range(p) if evaluate(hb, r, p) == 0}
    hb = monic(hb, p)
    w = sub(QuotientRing(hb, p).xpow(p), [0, 1], p)
    return {-u[0] % p for u in split_stages({1: gcd(w, hb, p)}, p)}
