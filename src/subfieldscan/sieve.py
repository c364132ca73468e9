"""Frobenius cycle-type constraints on subfield candidates, over F_l.

A quadratic (l = 2) or cyclic cubic (l = 3) candidate is an exponent
vector over F_l on a fixed place basis: of the discriminant, or of the
Kummer class over Q(zeta_3), whose slot generators the cubic basis carries
(PlaceBasis.generators).  A prime whose factor-degree pattern is known
constrains every such subfield at once: frobenius_row gives its F_l row,
and a candidate whose vector fails that row (vector_satisfies) is no
subfield.  That one rule gives every sieve row and every absence witness.
It takes nothing but q, the factor degrees of f mod q and the basis.
Its right-hand side is the Frobenius class of q (frobenius_class): 0
when q splits in every subfield of the kind, 1 when it is inert in every
quadratic one, None when the cycle type decides nothing, and then there
is no row; a row may be trivial (Row.trivial).  A cubic row's residue
classes are computed only at a prime that splits in every cyclic cubic
subfield.
The real place is a place too, and its Frobenius is complex conjugation.
When f has a real root, conjugation fixes that root, its cycle type has a
fixed point, and its class is 0: every quadratic subfield is real.
real_place_row gives that row, (1, 0, ..., 0 | 0), what frobenius_row
would give at R, once one exact evaluation f(x) < 0 proves a real root.
There is no cubic row: cyclic cubic fields are totally real.
Span, a span in reduced echelon form, is the one elimination over F_l:
the sieve of the scans builds the span of its rows once, and the scans
read their candidates from it with kernel_vectors, the one enumeration of
a solution space.  For l = 2 the rows carry their right-hand side as a
last column: the system is inconsistent when that column is a pivot, and
its solutions are the kernel vectors that are 1 there, truncated.  The
candidate walk keeps a second span, of the subfields it found, each with a
tag slot that names it (scan._walk): a Span holds vectors only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import legendre
from .eisenstein import EisensteinInt, OMEGA, cubic_residue_class, split_prime


@dataclass(frozen=True)
class PlaceBasis:
    """Ordered slots for exponent vectors.

    e = 2: slot 0 is the sign place (-1), slots 1.. are primes (2 always
    present).  e = 3: slot 0 is the cube-root-of-unity axis, slots 1.. are
    primes p = 1 (mod 3) with a fixed split prime element each.
    """

    e: int
    primes: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.primes) + 1

    @cached_property
    def generators(self) -> tuple[EisensteinInt, ...]:
        """e = 3 only: the slot generators in Z[w], computed once: w for the
        unit axis, then pi * conj(pi)**2 per prime, pi = split_prime(p)."""
        if self.e != 3:
            raise ValueError("slot generators belong to a cubic basis")
        pis = [split_prime(p) for p in self.primes]
        return (OMEGA, *(pi * pi.conj() * pi.conj() for pi in pis))

    def delta_of_vector(self, vec) -> int:
        """e = 2 only: the squarefree discriminant for an exponent vector."""
        d = -1 if vec[0] else 1
        for bit, p in zip(vec[1:], self.primes):
            if bit:
                d *= p
        return d


@dataclass(frozen=True)
class Row:
    coeffs: tuple[int, ...]
    rhs: int
    prime: int

    @property
    def trivial(self) -> bool:
        """All zero, right-hand side too: every vector satisfies the row."""
        return not (self.rhs or any(self.coeffs))


class Span:
    """A span of vectors over F_l (l = 2 or 3) in reduced echelon form.

    Every row is 1 at its pivot and 0 at the other pivots, so reduce maps
    all vectors of a coset of the span to one representative: 0 at the
    pivots and with first nonzero entry 1 (over F3, v and 2v reduce alike).
    """

    def __init__(self, ell: int, width: int):
        self.ell = ell
        self.width = width
        self.rows: dict[int, tuple[int, ...]] = {}  # pivot -> row

    def reduce(self, vec) -> tuple[int, ...]:
        """The canonical representative of vec modulo the span."""
        ell = self.ell
        v = [a % ell for a in vec]
        for pivot, row in self.rows.items():
            c = v[pivot]
            if c:
                v = [(a - c * b) % ell for a, b in zip(v, row)]
        return canonical_f3(v) if ell == 3 else tuple(v)

    def insert(self, vec) -> None:
        """Add vec to the span (no-op if already in it)."""
        v = self.reduce(vec)   # 1 at its first nonzero entry, the new pivot
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is None:
            return
        for other, row in list(self.rows.items()):
            c = row[pivot]
            if c:
                self.rows[other] = tuple((a - c * b) % self.ell for a, b in zip(row, v))
        self.rows[pivot] = v

    def kernel(self) -> list[tuple[int, ...]]:
        """A basis of the vectors orthogonal to every row: per free column,
        in order, the one that is 1 there and 0 at the other free columns."""
        out = []
        for free in range(self.width):
            if free in self.rows:
                continue
            v = [0] * self.width
            v[free] = 1
            for pivot, row in self.rows.items():
                v[pivot] = -row[free] % self.ell
            out.append(tuple(v))
        return out


def kernel_vectors(span: Span):
    """The nonzero vectors orthogonal to every row of span, one per class
    {v, 2v} over F3: the combinations of span.kernel() whose top
    coefficient is 1, in the base-l order of the lower ones, each with
    first nonzero entry 1 (canonical_f3; over F2 every vector has it)."""
    ell, kernel = span.ell, span.kernel()
    for top, k in enumerate(kernel):
        for low in range(ell**top):
            v = list(k)
            for i in range(top):
                c = low // ell**i % ell
                v = [(a + c * b) % ell for a, b in zip(v, kernel[i])]
            yield canonical_f3(v)


def frobenius_class(degrees: dict[int, int], n: int, ell: int) -> int | None:
    """The Frobenius class over F_l of a prime q at which f of degree n is
    squarefree with the given factor degrees, as the right-hand side of its
    row: 0 when q splits in every subfield of the kind (a factor degree
    prime to l), 1 when it is inert in every quadratic one (l = 2, and no
    sub-multiset of the degrees sums to n/2, so q splits in none), None
    when the cycle type decides nothing.  The degrees may come from a DDF
    stopped by class_decided(l): they hold a degree prime to l then, and
    the class is the full multiset's."""
    if any(d % ell for d in degrees):
        return 0
    if ell == 3:
        return None
    half = n // 2
    reachable = 1
    mask = (1 << (half + 1)) - 1
    for d, count in degrees.items():
        for _ in range(count):
            reachable |= (reachable << d) & mask
    return None if (reachable >> half) & 1 else 1


def class_decided(ell: int):
    """The stop rule for modp.ddf_degrees when only the class of the prime
    over F_l is asked (frobenius_class): a factor degree prime to l decides
    it, whatever the degrees still to come."""
    return lambda degrees, left: any(d % ell for d in degrees)


def frobenius_row(q: int, degrees: dict[int, int], n: int, basis: PlaceBasis) -> Row | None:
    """The F_l row (l = basis.e) of a prime q outside the basis at which f
    of degree n is squarefree and has the given factor degrees: None when
    the cycle type decides nothing, else the class (frobenius_class) as
    right-hand side, with the coefficient (1 - legendre(m, q)) / 2 per
    slot m for l = 2, and for l = 3 the cubic residue classes at q of the
    slot generators, all 0 (a trivial row) when every one is a cube there;
    q is neither 3 nor in the basis, so it divides no generator's norm (1
    or p**3).  The residue classes are computed only once the class is
    decided.  Nothing else goes in: the row is fixed by f and q alone."""
    rhs = frobenius_class(degrees, n, basis.e)
    if rhs is None:
        return None
    if basis.e == 2:
        coeffs = tuple((1 - legendre(m, q)) // 2 for m in (-1, *basis.primes))
    else:
        coeffs = tuple(cubic_residue_class(g, q) for g in basis.generators)
    return Row(coeffs, rhs, q)


# The points x = a / b that real_place_row tries, in order: 0, then k, -k,
# k - 1/2, 1/2 - k for k = 1, ..., 4.
REAL_PLACE_POINTS = ((0, 1), *((s * a, b) for k in range(1, 5)
                               for a, b in ((k, 1), (2 * k - 1, 2)) for s in (1, -1)))


def real_place_row(f, basis: PlaceBasis) -> tuple[Row, Fraction] | None:
    """(the row of the real place, x) for l = 2 and the first x in
    REAL_PLACE_POINTS at which the monic integral f is negative: f then has
    a real root above x, so the real place splits in every quadratic
    subfield.  The row is 1 on the sign slot, 0 on every prime slot, with
    right-hand side 0; its prime 0 names the real place.  None for a cubic
    basis, or when f is negative at no point tried.  The sign of f(a / b)
    is that of b**n f(a / b), an exact integer Horner sum."""
    if basis.e != 2:
        return None
    for a, b in REAL_PLACE_POINTS:
        value, power = 0, 1
        for c in reversed(f.coeffs):
            value = value * a + c * power
            power *= b
        if value < 0:
            return Row((1, *(0 for _ in basis.primes)), 0, 0), Fraction(a, b)
    return None


def canonical_f3(vec) -> tuple[int, ...]:
    """The representative of {v, 2v} whose first nonzero coordinate is 1."""
    lead = next((a for a in vec if a), None)
    if lead == 2:
        return tuple((2 * a) % 3 for a in vec)
    return tuple(vec)


def vector_satisfies(row: Row, vec, modulus: int) -> bool:
    return sum(c * v for c, v in zip(row.coeffs, vec)) % modulus == row.rhs % modulus
