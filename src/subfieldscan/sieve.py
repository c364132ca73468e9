"""Frobenius cycle-type constraints on subfield candidates, over F_l.

A quadratic (l = 2) or cyclic cubic (l = 3) candidate is an exponent
vector over F_l on a fixed place basis: of the discriminant, or of the
Kummer class over Q(zeta_3), whose slot generators the cubic basis carries
(PlaceBasis.generators).  A prime whose factor-degree pattern is known
constrains every such subfield at once: frobenius_row gives its F_l row,
and a candidate whose vector fails that row (vector_satisfies) is no
subfield.  That one rule gives every sieve row and every absence witness.
It takes nothing but q, the factor degrees of f mod q and the basis: it
decides the class (None for a prime that decides nothing) and makes the
row, which may be trivial (Row.trivial); a cubic row's residue classes
are computed only at a prime that splits in every cyclic cubic subfield.
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
from enum import Enum
from functools import cached_property

from .arith import legendre
from .eisenstein import EisensteinInt, OMEGA, cubic_residue_class, split_prime


class QuadClass(Enum):
    SPLIT = "split"          # splits in every quadratic subfield
    INERT = "inert"          # inert in every quadratic subfield
    NO_INFO = "no_info"


class CubicClass(Enum):
    SPLITS_ALL = "splits_in_all_cubic"
    NO_INFO = "no_info"


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


def classify_prime_quadratic(degrees: dict[int, int], n: int) -> QuadClass:
    """Split / inert classification from the factor-degree multiset mod p.

    An odd factor degree forces p to split in every quadratic subfield.  If
    no sub-multiset of the degrees sums to n/2, p cannot split in any, so it
    is inert in every quadratic subfield.  Otherwise no information.  The
    degrees may come from a DDF stopped by class_decided(2): they hold an
    odd degree then, and the class is the full multiset's.
    """
    if n % 2 != 0:
        raise ValueError("degree must be even")
    if any(d % 2 == 1 for d in degrees):
        return QuadClass.SPLIT
    half = n // 2
    reachable = 1
    mask = (1 << (half + 1)) - 1
    for d, count in degrees.items():
        for _ in range(count):
            reachable |= (reachable << d) & mask
    if (reachable >> half) & 1:
        return QuadClass.NO_INFO
    return QuadClass.INERT


def quad_constraint(p: int, cls: QuadClass, basis: PlaceBasis) -> Row:
    """The F2 row contributed by an odd prime with known classification.

    Coefficient for slot m is (1 - legendre(m, p)) / 2; right-hand side is
    0 for split, 1 for inert.  The row may be trivial (Row.trivial).
    """
    if cls == QuadClass.NO_INFO:
        raise ValueError("no constraint from an unclassified prime")
    if p in basis.primes:
        raise ValueError(f"{p} is in the place basis")
    coeffs = [(1 - legendre(-1, p)) // 2]
    for q in basis.primes:
        coeffs.append((1 - legendre(q, p)) // 2)
    return Row(tuple(coeffs), 0 if cls == QuadClass.SPLIT else 1, p)


def classify_prime_cubic(degrees: dict[int, int]) -> CubicClass:
    """A factor degree not divisible by 3 forces splitting in every cyclic
    cubic subfield; otherwise nothing can be concluded.  The degrees may
    come from a DDF stopped by class_decided(3)."""
    if any(d % 3 != 0 for d in degrees):
        return CubicClass.SPLITS_ALL
    return CubicClass.NO_INFO


def class_decided(ell: int):
    """The stop rule for modp.ddf_degrees when only the class of the prime
    over F_l is asked: a factor degree prime to l decides it (SPLIT for
    l = 2, SPLITS_ALL for l = 3), whatever the degrees still to come."""
    return lambda degrees, left: any(d % ell for d in degrees)


def cubic_constraint(q: int, basis: PlaceBasis) -> Row:
    """Homogeneous F3 row at a prime q that splits in all cubic subfields:
    the cubic residue classes of the slot generators at q, all 0 (a
    trivial row) when every generator is a cube there.  q is neither 3 nor
    in the basis, so it divides no generator's norm (1 or p**3)."""
    return Row(tuple(cubic_residue_class(g, q) for g in basis.generators), 0, q)


def frobenius_row(q: int, degrees: dict[int, int], n: int, basis: PlaceBasis) -> Row | None:
    """The F_l row (l = basis.e) of a prime q outside the basis at which f
    of degree n is squarefree and has the given factor degrees, which may
    come from a DDF stopped by class_decided(l): None when the cycle type
    decides nothing, else the row of the class it decides (SPLIT or INERT
    for l = 2, SPLITS_ALL for l = 3), which may be trivial.  Nothing else
    goes in: the row is fixed by f and q alone.  For l = 3 it does not
    depend on the degrees beyond the class, and its residue classes are
    computed only once the class is decided."""
    if basis.e == 2:
        cls = classify_prime_quadratic(degrees, n)
        return None if cls == QuadClass.NO_INFO else quad_constraint(q, cls, basis)
    if classify_prime_cubic(degrees) == CubicClass.NO_INFO:
        return None
    return cubic_constraint(q, basis)


def canonical_f3(vec) -> tuple[int, ...]:
    """The representative of {v, 2v} whose first nonzero coordinate is 1."""
    lead = next((a for a in vec if a), None)
    if lead == 2:
        return tuple((2 * a) % 3 for a in vec)
    return tuple(vec)


def vector_satisfies(row: Row, vec, modulus: int) -> bool:
    return sum(c * v for c, v in zip(row.coeffs, vec)) % modulus == row.rhs % modulus
