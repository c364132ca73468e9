"""Exact root finding for small-degree polynomials over a number field.

Decides whether a monic integral h of degree 2 or 3 has a root in
L = Q[X]/(f) and, in the positive case, produces an independently
verifiable certificate.  Positive answers are always sound: the returned
scaled root y = f'(theta) * x satisfies a division-free integer polynomial
congruence that verify_certificate rechecks from scratch.  Negative
answers are "not found by one knapsack" and are NOT proofs of absence;
the scan layer upgrades them with Frobenius witnesses when it can.

The reconstruction is a knapsack in the style of van Hoeij (J. Number
Theory 95, 2002; relative form: Belabas, JSC 37, 2004).  At a prime p
where f mod p is squarefree and h mod p splits into distinct roots, a root
of h in L is fixed by which root of h mod p it reduces to in each p-adic
completion of L.  Pinning the first completion to the smallest root leaves
a 0/1 choice per other completion, which LLL recovers from the leading
bits of a few fixed combinations of the coefficients: a lattice of
dimension about r plus a few, with small entries, whatever the precision.
The precision comes once, from a bound on the certificate's coefficients
(scaled_root_bits) and the widest lattice's bits.  From that one lift the
bit columns are fed in rounds (Novocin, Stehle and van Hoeij, ISSAC 2011):
16 bits, then 8 more at a time, each reduced basis carried exactly to the
next width, and the first root that verifies ends the test.  A feed that
finds nothing at its widest lattice answers not_found.

An h with an integer root is answered directly: its scaled root is the
integer times f'.  Otherwise h is irreducible over Q, and the prime is the
first qualifying one with r <= deg h completions, or else the one with the
fewest among the first SELECT_PRIME_QUALIFYING (25) qualifying ones (ties
go to the smaller prime).
A prime p qualifies when f mod p is squarefree and h mod p splits into
deg h distinct roots.  By Dedekind-Kummer (Cohen, GTM 138, Thm 4.8.13),
for a prime p not dividing disc(g) the factors of a monic g mod p match
the primes above p of the field g defines.  If h has a root a in L, then
Q(a) has degree deg h, p (which does not divide disc(h)) splits into
deg h primes of Q(a), each lying below at least one prime of L, and the
r factors of f mod p are the primes of L above p: r >= deg h.  So the
first prime with r = deg h is the one the fewest-factors rule picks, and a
prime with r < deg h proves that h has no root in L, with no lattice
(find_root still answers not_found: the report takes its proofs of
absence from Frobenius witnesses).

f mod p is factored by one DDF per prime (NumberField.ddf), which keeps
the stages the DDFs of the scans' prime walks found.  In a Galois field
all factors of f mod p have one degree, so each of those DDFs is complete,
and a root test runs a DDF only at a prime above the one where the sieve
stopped; it keeps none of its own.  Squarefreeness mod p comes from
NumberField.squarefree_mod, and each DDF stops as soon as its prime cannot
beat the best so far, so only the winner's stages cover f.  Their split
(modp.split_stages) gives the factors of f mod p, with no second
squarefree test or DDF.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import modp
from .arith import is_probable_prime, iter_primes
from .errors import NoPrimeFound
from .lattice import lll_reduce
from .poly import Poly, disc_poly, is_squarefree_q

PROVED = "proved"
NOT_FOUND = "not_found"

# disc(f) replaces one gcd(f, f') mod p per prime that a walk visits, up to
# about 1 200 primes at the default sieve bound.  Its subresultant PRS pays
# for that while disc(f) is small and stops paying as it grows (a Xeon core,
# CPython 3.11): 0.05 s against 0.3 ms per gcd for Q(sqrt 2, ..., sqrt 13)
# of degree 64 (Hadamard bound about 17 000 bits), but 3.0 s against
# 0.9-1.4 ms for degree 128 (about 75 000 bits).  Above this bound the gcds
# are kept.
DISC_BITS_MAX = 32_000


class NumberField:
    """Q[X]/(f) for a monic integral squarefree f; theta is the class of X.

    The constructor is the scan's one input gate, run before any answer:
    it raises ValueError unless f is monic, integral, of degree >= 2 and
    squarefree, and every layer after it takes f as valid.

    Besides f it keeps what is computed once per field: disc(f) when it is
    cheap, the Barrett constant of f and the DDF stages of f mod p that the
    prime walks learn (ddf).  Root tests keep none (keep=False): the
    benchmark harness reuses a field across passes and compares their DDF
    counts, so no DDF state may cross from one root test to the next."""

    def __init__(self, f: Poly):
        if not (f.is_monic() and f.is_integral()):
            raise ValueError("defining polynomial must be monic and integral")
        if f.degree < 2:
            raise ValueError("degree must be at least 2")
        if not is_squarefree_q(f):
            raise ValueError("defining polynomial has repeated roots")
        self.f = f
        self.n = f.degree
        self.fprime = f.derivative()
        self._disc = None
        self._barrett = None
        self._stages: dict[int, tuple[dict[int, list[int]], int]] = {}

    def barrett(self) -> list[int]:
        """x^(2n-1) div f over Z, computed once on first use: every
        QuotientRing modulo f mod m takes it mod m (modp.barrett_constant)."""
        if self._barrett is None:
            self._barrett = modp.barrett_constant([int(c) for c in self.f.coeffs])
        return self._barrett

    def squarefree_mod(self, p: int) -> bool:
        """Whether f mod p is squarefree.  f is monic, so that is p not
        dividing disc(f), which is computed once, on first use, when its
        Hadamard bound is at most DISC_BITS_MAX bits; for a larger one, a
        gcd(f, f') mod p."""
        if self._disc is None:
            cheap = _disc_bits_bound(self.f) <= DISC_BITS_MAX
            self._disc = disc_poly(self.f) if cheap else 0   # 0: gcd at each p
        if self._disc:
            return self._disc % p != 0
        return modp.squarefree_mod_p(self.f, p)

    def ddf(self, p: int, stop, keep: bool = True) -> tuple[dict[int, list[int]], int]:
        """(DDF stages of f mod p, degree of f left unfactored), for a p
        modulo which f is squarefree, from a DDF that ends once
        stop(degrees, left) holds (modp.ddf_degrees; the degrees are
        modp.degree_counts of the stages).

        A kept answer answers a later call when it is complete (left = 0)
        or when that call's stop rule holds on it; otherwise the DDF runs
        again.  Either way the caller learns at least what its own DDF
        would tell it.  With keep, a DDF's answer replaces the one kept.
        The stages are shared: do not change them."""
        entry = self._stages.get(p)
        if entry is None or (entry[1] and not stop(modp.degree_counts(entry[0]), entry[1])):
            stages = modp.ddf_degrees(self.f, p, stop=stop, barrett=self.barrett())
            entry = stages, self.n - sum(modp.deg(g) for g in stages.values())
            if keep:
                self._stages[p] = entry
        return entry


def _disc_bits_bound(f: Poly) -> float:
    """Hadamard's bound on log2 |disc(f)| = log2 |res(f, f')| for monic f."""
    def log2_norm(g):
        return sum(int(c) ** 2 for c in g.coeffs).bit_length() / 2
    return (f.degree - 1) * log2_norm(f) + f.degree * log2_norm(f.derivative())


@dataclass(frozen=True)
class RootCertificate:
    """Scaled root y(theta) = f'(theta) * x with h(x) = 0; length-n vector."""

    scaled_root: tuple[int, ...]
    h: Poly


@dataclass(frozen=True)
class PrimeData:
    p: int
    factors: tuple[tuple[int, ...], ...]   # monic irreducible factors of f mod p
    roots: tuple[int, ...]                 # the deg(h) distinct roots of h mod p

    @property
    def r(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class RootSearch:
    status: str
    certificate: RootCertificate | None = None


# select_prime looks for its prime below this bound, and among at most
# this many qualifying primes.
SELECT_PRIME_BOUND = 50_000
SELECT_PRIME_QUALIFYING = 25


def select_prime(field: NumberField, h: Poly) -> PrimeData:
    """An odd prime where f mod p is squarefree and h mod p splits into
    deg(h) distinct roots: the first such prime with at most deg(h) factors
    of f mod p, or else the one with the fewest factors among the first
    SELECT_PRIME_QUALIFYING such primes (ties go to the smaller prime).
    For an irreducible h with a root in L both rules pick the same prime
    (see the module docstring).  That count of DDFs is also the sieve's
    budget for primes that decide nothing (scan.sieve_rows).

    A prime's DDF is abandoned as soon as the factors found, plus one for
    any degree left, reach the best count so far: the prime can then only
    tie with an earlier one or lose.  It still counts as qualifying.  The
    factors of f mod p are the split of the DDF stages that chose p."""
    best = None   # (r, p, roots, stages)

    def cannot_win(degrees, left):
        return best is not None and sum(degrees.values()) + (left > 0) >= best[0]

    qualifying = 0
    for p in iter_primes(3, SELECT_PRIME_BOUND):
        roots = modp.roots_mod_p(h, p)
        if len(roots) != h.degree or not field.squarefree_mod(p):
            continue
        qualifying += 1
        stages, left = field.ddf(p, cannot_win, keep=False)
        r = sum(modp.degree_counts(stages).values())
        if not left and (best is None or r < best[0]):
            best = (r, p, tuple(sorted(roots)), stages)
        if qualifying >= SELECT_PRIME_QUALIFYING or best[0] <= h.degree:
            break
    if best is None:
        raise NoPrimeFound(f"no usable prime below {SELECT_PRIME_BOUND}")
    _, p, roots, stages = best
    return PrimeData(p, tuple(tuple(fac) for fac in modp.split_stages(stages, p)), roots)


def integer_root(h: Poly) -> int | None:
    """The least integer root of a monic integral h, or None.

    An integer root lies within the Cauchy bound B = 1 + max |h_i|, so it
    is the centred lift of a root of h modulo a prime p > 2B."""
    bound = 1 + max(abs(int(c)) for c in h.coeffs[:-1])
    p = 2 * bound + 1
    while not is_probable_prime(p):
        p += 2
    lifts = sorted(s if 2 * s < p else s - p for s in modp.roots_mod_p(h, p))
    return next((r for r in lifts if h.evaluate(r) == 0), None)


# -- certificate checking -------------------------------------------------------


def _certificate_residual(field: NumberField, h: Poly, y: Poly) -> Poly:
    """sum_j h_j * y**j * f'**(deg h - j) mod f, over Z; zero iff y proves
    a root (it is f'**deg(h) * h(y / f') cleared of denominators)."""
    m = h.degree
    fp = field.fprime
    acc = Poly([1])
    for j in range(m - 1, -1, -1):
        acc = (acc * y) % field.f
        if h[j] != 0:
            acc = acc + (fp ** (m - j) * h[j]) % field.f
    return acc % field.f


def verify_certificate(field: NumberField, h: Poly, cert: RootCertificate) -> bool:
    """Exact integer re-check of the division-free root identity."""
    if len(cert.scaled_root) > field.n:
        return False
    y = Poly(cert.scaled_root)
    if not y.is_integral():
        return False
    return not _certificate_residual(field, h, y)


# -- lifting to Z/p^k ------------------------------------------------------------


def _lift_root(h: Poly, s0: int, p: int, k: int) -> int:
    """Newton lift of a simple root s0 of h mod p to a root mod p**k."""
    hprime = h.derivative()
    s, u, j = s0 % p, pow(int(hprime.evaluate(s0)), -1, p), 1
    while j < k:
        j = min(2 * j, k)
        m = p**j
        s = (s - int(h.evaluate(s)) * u) % m
        u = u * (2 - int(hprime.evaluate(s)) * u) % m
    return s


def _lift_factors(field: NumberField, factors, p: int, k: int) -> list[list[int]]:
    """The monic factors of f mod p**k that reduce to the given distinct
    monic irreducible factors of f mod p, in the same order.

    A multifactor Hensel lift (von zur Gathen & Gerhard, Modern Computer
    Algebra, 15.5) over a balanced binary tree of the factors: each inner
    node splits the product F of its leaves as a*b and keeps u = a^-1 mod b,
    from an extended Euclid mod p (modp.invert).  A step from p**j to p**j2,
    j2 = min(2j, k), corrects each node, root first, at the new digits only:

        e = (F - a*b) / p**j mod p**(j2 - j),  b += p**j * (u*e mod b),
        a = F div b,  u = u*(2 - a*u) mod b (not after the last step),

    with F the root's f or the parent's new a or b.  Then a*b = F mod
    p**j2, both monic, and u is right mod p**min(j2, k - j2), the precision
    the next step's correction needs.  Monic lifts are unique, so the
    tree's shape changes no result."""
    lifted = [list(g) for g in factors]
    tree, j = _factor_tree(lifted, p)[1], 1
    while j < k:
        j2 = min(2 * j, k)
        lifted = _hensel_step(tree, modp.from_poly(field.f, p**j2), p, j, j2, p**min(j2, k - j2))
        j = j2
    return lifted


def _factor_tree(factors, p):
    """(product of the factors mod p, their tree): None for one factor,
    else [a, b, u, left, right] with a and b the products of the halves."""
    if len(factors) == 1:
        return factors[0], None
    half = len(factors) // 2
    (a, left), (b, right) = _factor_tree(factors[:half], p), _factor_tree(factors[half:], p)
    return modp.mul(a, b, p), [a, b, modp.invert(a, b, p), left, right]


def _hensel_step(node, F, p, j, j2, mu):
    """The leaves under node, lifted from a product F mod p**j to F mod
    p**j2 (see _lift_factors); u is lifted mod mu, 1 after the last step."""
    if node is None:
        return [F]
    a, b, u, left, right = node
    pj, m2, m = p**j, p**(j2 - j), p**j2
    e = [c // pj for c in modp.sub(F, modp.mul(a, b, m), m)]
    b = modp.add(b, [c * pj for c in modp.pmod(modp.mul(u, e, m2), b, m2)], m)
    a = modp.pdivmod(F, b, m)[0]
    if mu > 1:
        au, bu, u = ([c % mu for c in v] for v in (a, b, u))
        au = modp.pmod(modp.mul(au, u, mu), bu, mu)
        u = modp.pmod(modp.mul(u, modp.sub([2], au, mu), mu), bu, mu)
    node[:3] = a, b, u
    return _hensel_step(left, a, p, j, j2, mu) + _hensel_step(right, b, p, j, j2, mu)


# -- knapsack reconstruction ------------------------------------------------------


# The bits per column of a feed's first lattice, and those each next one adds
FEED_FIRST_BITS, FEED_STEP_BITS = 16, 8


def knapsack_size(n: int, nvar: int) -> tuple[int, int]:
    """(c, s): how many coefficient combinations the knapsack lattice keeps,
    and how many bits of each one's fractional position its lift feeds it
    at most, for nvar indicators.  Few columns with many bits each: c is
    about nvar / 8, at least 2 and at most min(n, 10), and c * (s - 16) is
    at least (nvar + 1 + c) * log2(nvar) bits, the lattice's dimension
    times its logarithm (van Hoeij, J. Number Theory 95, 2002; Belabas,
    JSC 37, 2004), which keeps the 0/1 solution apart from the other short
    vectors up to at least 64 completions (degree 128).  That count is a
    heuristic, so s keeps 16 bits per column beyond it.  log2(nvar) is
    taken as its bit length, so the size is the same on every platform."""
    c = min(n, 10, max(2, -(-nvar // 8)))
    return c, 16 + max(16, -(-(nvar + 1 + c) * nvar.bit_length() // c))


def _projection(n: int, c: int) -> list[list[int]]:
    """c fixed pseudo-random weight rows in {-1, 0, 1}**n.

    A combination of the coefficients of a small vector is small too.  The
    leading coefficients alone (the traces of x, theta*x, ...) are not
    enough: in fields with symmetries, such as multiquadratic and
    cyclotomic ones, some signed sums of completions vanish in all of them
    exactly, and two 0/1 choices then look the same.
    """
    rng = random.Random(1009 * n + c)
    return [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(c)]


def _weighted_sums(vec: list[int], weights: list[list[int]], m: int) -> list[int]:
    """Each weight row's combination of vec, modulo m."""
    return [sum(a * v for a, v in zip(row, vec)) % m for row in weights]


def _fraction_bits(sums: list[int], s: int, m: int) -> list[int]:
    """Each x in sums as the nearest integer to 2**s * x / m."""
    return [((x << (s + 1)) + m) // (2 * m) for x in sums]


def _knapsack_basis(bits: list[list[int]], s: int) -> list[list[int]]:
    """Rows: one per indicator, then the marker row of y0 (identity block,
    then the row's bits), and one row of 2**s per bit column, closing it
    modulo 2**s."""
    rows, c = len(bits), len(bits[0])
    basis = [[int(u == v) for u in range(rows)] + row_bits for v, row_bits in enumerate(bits)]
    return basis + [[0] * rows + [int(u == t) << s for u in range(c)] for t in range(c)]


def _carry_basis(reduced: list[list[int]], bits: list[list[int]], s: int,
                 wider: list[list[int]], s2: int) -> list[list[int]]:
    """The rows of reduced, a basis of the lattice of bits at width s, carried
    to the lattice of wider at width s2: (a, z), with z = sum a_v * bits(v)
    - 2**s * t for an integer t, becomes (a, sum a_v * wider(v) - 2**s2 * t),
    the same unimodular transform of the fresh basis at s2."""
    rows = len(bits)
    carried = []
    for row in reduced:
        a, tail = row[:rows], []
        for col, z in enumerate(row[rows:]):
            t, rest = divmod(sum(x * v[col] for x, v in zip(a, bits)) - z, 1 << s)
            if rest:
                raise ArithmeticError("a reduced knapsack row left its lattice")
            tail.append(sum(x * v[col] for x, v in zip(a, wider)) - (t << s2))
        carried.append(a + tail)
    return carried


def scaled_root_bits(field: NumberField, h: Poly) -> int:
    """B >= log2 |y_j| for the scaled root y of any root x of h in L.  Over
    C, y = sum over the embeddings sigma of x_sigma * f(X) / (X - theta_sigma);
    each f / (X - theta_sigma) divides f, so its coefficients are at most
    2**(n-1) * ||f||_2 (Mignotte), and |x_sigma| <= 1 + max |h_i| (Cauchy).
    Each factor of n * (1 + max |h_i|) * 2**(n-1) * ||f||_2 is rounded up
    to a power of 2."""
    n = field.n
    cauchy = 1 + max(abs(int(c)) for c in h.coeffs[:-1])
    norm2 = sum(int(c) ** 2 for c in field.f.coeffs)
    return n.bit_length() + cauchy.bit_length() + n - 1 + (norm2.bit_length() + 1) // 2


def knapsack_precision(field: NumberField, h: Poly, p: int, s: int) -> int:
    """The least k with p**k >= 2**(B + log2 n + s + 8), B = scaled_root_bits.
    A weight row sums at most n coefficients of
    y, so the true y's combinations then lie within 2**(-s-8) * p**k of
    multiples of p**k: s fraction bits see them as zero."""
    bits = scaled_root_bits(field, h) + field.n.bit_length() + s + 8
    k, m = 1, p
    while m.bit_length() <= bits:
        k, m = k + 1, m * p
    return k


def root_knapsack(field: NumberField, h: Poly, pdata: PrimeData) -> RootSearch:
    """Recover the root of h whose image in the first completion of L at p
    is roots[0] as a 0/1 knapsack over the other completions.

    Modulo p**k the scaled root is y = y0 + sum delta_ij * w_ij, where
    y0 = s_1 * f' (the CRT idempotents e_i of the completions sum to 1),
    w_ij = (s_j - s_1) * f' * e_i for completions i >= 2 and roots j >= 2,
    and delta_ij is 1 exactly when completion i takes root j.  With g_i the
    factor of f mod p**k of completion i (_lift_factors),

        f' * e_i = (f/g_i) * g_i'  (mod f, p**k):

    the right side has degree below n and is divisible by every g_j with
    j != i, and modulo g_i it is f', as f' = (f/g_i)' * g_i + (f/g_i) * g_i'.
    So a column needs no product modulo f.  The true y has small
    coefficients, so fixed small combinations of the coefficients of
    y0 + sum delta * w sit next to multiples of p**k (k from
    knapsack_precision); LLL on their leading fractional bits finds the
    indicators.  Each candidate is rechecked exactly, so a wrong one only
    costs time.

    Most roots are isolated by far fewer bits than knapsack_size's s, so
    one lift to the precision of s feeds the columns FEED_FIRST_BITS wide,
    then FEED_STEP_BITS more per round up to s, each reduced basis carried
    to the next width and read for a root.  Only the first lattice is
    fresh; a feed that finds nothing at s answers not_found.
    """
    c, s = knapsack_size(field.n, (pdata.r - 1) * (h.degree - 1))
    return _knapsack_attempt(field, h, pdata, c, [*range(FEED_FIRST_BITS, s, FEED_STEP_BITS), s])


def _knapsack_attempt(field: NumberField, h: Poly, pdata: PrimeData, c: int,
                      widths: list[int]) -> RootSearch:
    """One lift, to the precision of the last width, then a lattice of c
    columns per width, each carried from the one before, reduced once and
    read for a root (see root_knapsack)."""
    p, n = pdata.p, field.n
    per_completion = h.degree - 1
    nvar = (pdata.r - 1) * per_completion
    weights = _projection(n, c)
    k = knapsack_precision(field, h, p, widths[-1])
    m = p**k
    f_m = modp.from_poly(field.f, m)
    roots = [_lift_root(h, s0, p, k) for s0 in pdata.roots]
    y0 = modp.scale(modp.from_poly(field.fprime, m), roots[0], m)
    y0_sums = _weighted_sums(y0, weights, m)
    w = []
    for g in _lift_factors(field, pdata.factors, p, k)[1:]:
        fe = modp.mul(modp.pdivmod(f_m, g, m)[0], modp.derivative(g, m), m)
        w.extend(modp.scale(fe, sj - roots[0], m) for sj in roots[1:])
    sums = [_weighted_sums(v, weights, m) for v in w] + [y0_sums]
    basis = last = None
    for s in widths:
        bits = [_fraction_bits(x, s, m) for x in sums]
        basis = lll_reduce(_knapsack_basis(bits, s) if basis is None
                           else _carry_basis(basis, *last, bits, s))
        last = bits, s
        for row in basis:
            sign = row[nvar]
            if sign not in (1, -1):
                continue
            delta = [sign * x for x in row[:nvar]]
            if any(d not in (0, 1) for d in delta) or \
                    any(sum(delta[i:i + per_completion]) > 1
                        for i in range(0, nvar, per_completion)):
                continue
            y = y0
            for d, v in zip(delta, w):
                if d:
                    y = modp.add(y, v, m)
            yc = modp.center_lift(y, m)
            cert = RootCertificate(tuple(yc + [0] * (n - len(yc))), h)
            if verify_certificate(field, h, cert):
                return RootSearch(PROVED, cert)
    return RootSearch(NOT_FOUND)


# -- entry point -----------------------------------------------------------------


def find_root(field: NumberField, h: Poly, config=None, rng=None) -> RootSearch:
    """An integer root of h gives its certificate at once.  Otherwise h is
    irreducible: select a prime, and unless it has fewer completions than
    deg(h), which proves that h has no root in L, run the knapsack
    reconstruction.

    config and rng are ignored.  They stay as the third and fourth
    positional parameters only because the benchmark harness
    (perfbench/run.py) still passes a ScanConfig and a random.Random there:
    no setting changes a root test, whose precision comes from a bound, and
    the Cantor-Zassenhaus split of the DDF stages of f mod p draws from a
    stream seeded by p (modp.split_stages)."""
    if not (h.is_monic() and h.is_integral() and h.degree in (2, 3)):
        raise ValueError("h must be monic integral of degree 2 or 3")
    root = integer_root(h)
    if root is not None:
        y = field.fprime.scale(root).coeffs
        cert = RootCertificate(tuple(y) + (0,) * (field.n - len(y)), h)
        if not verify_certificate(field, h, cert):
            raise AssertionError(f"integer root {root} of {h} fails verification")
        return RootSearch(PROVED, cert)
    pdata = select_prime(field, h)
    if pdata.r < h.degree:
        return RootSearch(NOT_FOUND)
    return root_knapsack(field, h, pdata)
