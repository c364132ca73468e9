"""Oracles and corpus generation for tests.

Ground-truth subfield sets come from explicit constructions (subset
products for multiquadratic fields, a coded conductor table for cyclotomic
ones), not from the scans they check.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .arith import factor_integer, is_probable_prime
from .errors import InputError
from .kummer3 import build_generator
from .poly import Poly, compositum_minpoly
from .sieve import PlaceBasis


# -- multiquadratic fields as a structure-constant algebra -----------------------


class MultiquadraticAlgebra:
    """Q(sqrt(p1), ..., sqrt(pm)) with basis sqrt(prod S) over subsets S.

    Elements are dicts frozenset -> Fraction.  Exact and entirely
    independent of the polynomial pipeline.
    """

    def __init__(self, primes):
        self.primes = tuple(primes)

    def mul(self, u, v):
        out: dict[frozenset, Fraction] = {}
        for s, cs in u.items():
            for t, ct in v.items():
                overlap = 1
                for p in s & t:
                    overlap *= p
                key = s ^ t
                out[key] = out.get(key, Fraction(0)) + cs * ct * overlap
        return {k: c for k, c in out.items() if c != 0}

    def add(self, u, v):
        out = dict(u)
        for k, c in v.items():
            out[k] = out.get(k, Fraction(0)) + c
            if out[k] == 0:
                del out[k]
        return out

    def scale(self, u, c):
        return {} if c == 0 else {k: v * c for k, v in u.items()}

    def sqrt_elem(self, subset) -> dict:
        return {frozenset(subset): Fraction(1)}

    def theta(self) -> dict:
        """Sum of the square roots of the individual primes."""
        out = {}
        for p in self.primes:
            out[frozenset([p])] = Fraction(1)
        return out

    def eval_poly(self, poly: Poly, elem) -> dict:
        acc = {}
        for c in reversed(poly.coeffs):
            acc = self.mul(acc, elem)
            if c != 0:
                acc = self.add(acc, {frozenset(): Fraction(c)})
        return acc

    def power_basis_matrix(self, elem, n: int):
        """Columns: 1, elem, ..., elem**(n-1) over the subset basis."""
        cols = []
        cur = {frozenset(): Fraction(1)}
        for _ in range(n):
            cols.append(cur)
            cur = self.mul(cur, elem)
        subsets = sorted({s for col in cols for s in col},
                         key=lambda s: (len(s), sorted(s)))
        index = {s: i for i, s in enumerate(subsets)}
        matrix = [[Fraction(0)] * n for _ in subsets]
        for j, col in enumerate(cols):
            for s, c in col.items():
                matrix[index[s]][j] = c
        return matrix, index

    def in_power_basis(self, target, elem, n: int):
        """Coordinates of target in the power basis of elem, or None."""
        matrix, index = self.power_basis_matrix(elem, n)
        rows = len(matrix)
        rhs = [Fraction(0)] * rows
        for s, c in target.items():
            if s not in index:
                return None
            rhs[index[s]] = c
        aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
        pivots = []
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, rows) if aug[i][col] != 0), None)
            if piv is None:
                return None
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = 1 / aug[r][col]
            aug[r] = [x * inv for x in aug[r]]
            for i in range(rows):
                if i != r and aug[i][col] != 0:
                    factor = aug[i][col]
                    aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
            pivots.append(col)
            r += 1
            if r == rows:
                break
        sol = [Fraction(0)] * n
        for i, col in enumerate(pivots):
            sol[col] = aug[i][n]
        for i in range(r, rows):
            if aug[i][n] != 0:
                return None
        return sol


def multiquadratic_certificates(primes) -> dict[int, tuple[int, ...]]:
    """Ground-truth scaled roots f'(theta)*sqrt(delta) for every nonempty
    subset product delta, computed entirely in the subset algebra."""
    primes = tuple(primes)
    f = multiquadratic_minpoly(primes)
    alg = MultiquadraticAlgebra(primes)
    theta = alg.theta()
    n = f.degree
    fp_at_theta = alg.eval_poly(f.derivative(), theta)
    out = {}
    for mask in range(1, 1 << len(primes)):
        subset = [p for i, p in enumerate(primes) if (mask >> i) & 1]
        delta = 1
        for p in subset:
            delta *= p
        target = alg.mul(fp_at_theta, alg.sqrt_elem(subset))
        coords = alg.in_power_basis(target, theta, n)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise AssertionError("certificate construction failed")
        out[delta] = tuple(int(c) for c in coords)
    return out


def _check_primes(primes) -> tuple[int, ...]:
    """The primes as a tuple; ValueError unless they are distinct primes."""
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    return primes


def multiquadratic_minpoly(primes) -> Poly:
    """Defining polynomial of Q(sqrt p1, ..., sqrt pm), for distinct primes,
    via iterated composita, verified exactly against the subset algebra."""
    primes = _check_primes(primes)
    f = Poly([-primes[0], 0, 1])
    for p in primes[1:]:
        f = compositum_minpoly(f, Poly([-p, 0, 1]))
    alg = MultiquadraticAlgebra(primes)
    if alg.eval_poly(f, alg.theta()):
        raise AssertionError("compositum polynomial does not kill theta")
    return f


# -- cyclotomic polynomials -------------------------------------------------------


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    fd = factor_integer(n).factors
    if any(e > 1 for e in fd.values()):
        return 0
    return -1 if len(fd) % 2 else 1


def cyclotomic_poly(m: int) -> Poly:
    """The m-th cyclotomic polynomial, by Moebius inversion of X^d - 1."""
    num = Poly([1])
    den = Poly([1])
    for d in _divisors(m):
        mu = _moebius(m // d)
        factor = Poly([-1] + [0] * (d - 1) + [1])
        if mu == 1:
            num = num * factor
        elif mu == -1:
            den = den * factor
    q, r = num.divmod(den)
    if r:
        raise ArithmeticError("cyclotomic division left a remainder")
    return q.map_coeffs(int)


# coded ground truth: squarefree d whose quadratic field has discriminant
# dividing m (disc = d for d = 1 mod 4, else 4d)
CYCLOTOMIC_QUAD_TRUTH = {
    5: [5],
    7: [-7],
    8: [-1, 2, -2],
    12: [-1, 3, -3],
    15: [5, -3, -15],
    20: [-1, 5, -5],
    24: [-1, 2, -2, 3, -3, 6, -6],
}

# the two coded cyclic cubics used by the compositum recipes: conductors 63
# and 9 (certified by cross root tests; X^3 - 21X - 35 has no root in either
# of the conductor-7 and conductor-9 fields)
_CUBIC_COND63 = Poly([-35, -21, 0, 1])   # X^3 - 21X - 35
_CUBIC_COND9 = Poly([1, -3, 0, 1])       # X^3 - 3X + 1
# the cubic subfield of Q(zeta_7): X^3 - 21X + 7, the image of the classical
# X^3 + X^2 - 2X - 1 under the exact substitution X -> 3X + 1 and X -> -X
_CUBIC_COND7 = Poly([7, -21, 0, 1])

CYCLOTOMIC_CUBIC_TRUTH = {7: [_CUBIC_COND7]}


@dataclass
class CorpusEntry:
    poly: Poly
    quad: list[int] = dc_field(default_factory=list)
    cubic: list[Poly] = dc_field(default_factory=list)
    recipe: str = ""


def corpus_generate(kind: str, params: str) -> CorpusEntry:
    """Test polynomial with analytically known subfields.

    kinds: multiquadratic (params: comma-separated primes), cyclotomic
    (params: m from the coded table), cubic-compositum (params: tokens from
    {7, 9, q5}, e.g. '7,9' or '7,q5').  A kind or params outside these
    raise InputError.
    """
    if kind == "multiquadratic":
        primes = _integers(params)
        try:
            primes = _check_primes(primes)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        f = multiquadratic_minpoly(primes)
        truth = []
        for mask in range(1, 1 << len(primes)):
            d = 1
            for i, p in enumerate(primes):
                if (mask >> i) & 1:
                    d *= p
            truth.append(d)
        return CorpusEntry(f, quad=sorted(truth),
                           recipe=f"multiquadratic over primes {list(primes)}")
    if kind == "cyclotomic":
        ms = _integers(params)
        m = ms[0]
        if len(ms) > 1 or m not in CYCLOTOMIC_QUAD_TRUTH:
            raise InputError(f"no coded ground truth for m = {params}")
        f = cyclotomic_poly(m)
        return CorpusEntry(f, quad=list(CYCLOTOMIC_QUAD_TRUTH[m]),
                           cubic=list(CYCLOTOMIC_CUBIC_TRUTH.get(m, [])),
                           recipe=f"cyclotomic polynomial for m = {m}")
    if kind == "cubic-compositum":
        tokens = [t.strip().lower() for t in params.split(",")]
        return _cubic_compositum_entry(tokens)
    raise InputError(f"unknown corpus kind {kind!r}")


def _integers(params: str) -> list[int]:
    """The comma-separated integers of a corpus parameter string."""
    try:
        return [int(t) for t in params.split(",")]
    except ValueError:
        raise InputError(f"params {params!r} are not comma-separated integers") from None


def _cubic_compositum_entry(tokens) -> CorpusEntry:
    if tokens == ["7", "9"] or tokens == ["9", "7"]:
        # the two coded cubics generate distinct classes, so the compositum
        # is a C3 x C3 field with exactly four cyclic cubic subfields: the
        # two constituents plus the two mixed classes
        f = compositum_minpoly(_CUBIC_COND63, _CUBIC_COND9)
        basis7 = PlaceBasis(3, (7,))
        mixed1 = build_generator((1, 1), basis7).minpoly
        mixed2 = build_generator((1, 2), basis7).minpoly
        return CorpusEntry(
            f, cubic=[_CUBIC_COND9, _CUBIC_COND63, mixed1, mixed2],
            recipe="compositum of the two coded cyclic cubics (C3 x C3)")
    if sorted(tokens) == ["7", "q5"]:
        f = compositum_minpoly(_CUBIC_COND63, Poly([-5, 0, 1]))
        return CorpusEntry(f, quad=[5], cubic=[_CUBIC_COND63],
                           recipe="compositum of a coded cyclic cubic with Q(sqrt 5)")
    raise InputError(f"no coded cubic compositum for params {tokens}")
