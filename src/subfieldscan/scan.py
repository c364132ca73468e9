"""Subfield scans: one algorithm over F_l, l = 2 (quadratic) or 3 (cyclic cubic).

A candidate is an exponent vector over F_l on a basis of the possibly
ramified places (sieve.py).  A scan validates f first (NumberField), bounds
the ramified primes, keeps one F_l row per prime whose Frobenius cycle type
is usable (sieve_rows) and walks the candidates the rows leave in increasing
size (_walk).  The sieve keeps the span of its rows and stops once that span
is full, once STABLE_PRIMES class-deciding primes in a row have not grown
it, or once it has spent on primes that decide nothing since the span
grew as many DDFs as a root test's prime selection may run: the rows a
longer walk would add then most likely change nothing, and a row missed
costs one failed root test, never a wrong answer.  It hands that
span over, and the candidates are read from it (sieve.kernel_vectors):
the rows are eliminated once per scan.  The walk keeps the span of the
found vectors: a candidate in it is a subfield by closure, one in the
coset of an excluded vector is excluded with it, and any other gets one
exact root test, followed on failure by a search for an absence
witness.  A witness is a prime whose Frobenius row
(sieve.frobenius_row) the candidate's exponent vector fails, for both
kinds: absence_witness is the one search, the sieve and it share one prime
walk (_frobenius_primes), and a witness search goes on from the last prime
the sieve walked; _Quad and _Cubic hold what differs between the two
kinds, _Kind what they share.

The prime walk computes only what a row or a witness needs: squarefreeness
mod q from disc(f), computed once per field unless it is too large to pay
for itself (NumberField.squarefree_mod); a DDF that stops at the first
factor degree deciding the class; and, for cubic scans, the residue classes
of the slot generators only at a prime that splits in every cyclic cubic
subfield (sieve.frobenius_row).  What a prime gives, its class and its row,
depends on f and q alone, the same for the sieve and a witness search.
The walk asks the field for the DDF stages (NumberField.ddf), which keeps
them: the root tests' prime selection, which splits the winner's stages
into the factors of f mod p, and a later witness search read them instead
of running the DDF again.

The twist closure works mod p**k, for the first odd prime p outside the
place basis at which f is squarefree (_Kind.ring).  A member of the span of
the found vectors gets its root from the roots y / f' of the direct finds
it comes from: sqrt(d1) * sqrt(d2) / k for l = 2, Lagrange resolvents of
their Galois conjugates for l = 3 (Cohen, GTM 138, 6.4; _Cubic.merge).
p**k exceeds 2**(B + 2) for every candidate's scaled_root_bits B, so its
scaled root is the centred lift of its residue.  check_invariants checks
it once, with every certificate, and raises if it fails.

Every positive entry in the report carries a certificate that passes
verify_certificate; exclusions are either witnessed by a Frobenius
constraint (certified) or reported as unproven.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

from . import modp
from .arith import factor_integer, iter_primes, legendre
from .config import ScanConfig
from .eisenstein import OMEGA, split_prime
from .kummer3 import CubicCandidate, build_generator, cubic_place_basis
from .nfroot import (PROVED, SELECT_PRIME_QUALIFYING, NumberField, RootCertificate,
                     find_root, scaled_root_bits, verify_certificate)
from .poly import Poly, normalize_input
from .ramify import candidate_ramified_primes
from .sieve import (CubicClass, PlaceBasis, QuadClass, Row, Span, canonical_f3, class_decided,
                    classify_prime_cubic, classify_prime_quadratic, frobenius_row,
                    kernel_vectors, vector_satisfies)

STATUS_PROVED = "proved"
STATUS_CERTIFIED_ABSENT = "certified_absent"
STATUS_UNPROVEN_ABSENT = "unproven_absent"
STATUS_TWIST_EXCLUDED = "twist_excluded"


@dataclass
class SubfieldEntry:
    certificate: RootCertificate
    delta: int | None = None
    minpoly: Poly | None = None
    status: str = STATUS_PROVED


@dataclass
class ExcludedEntry:
    status: str
    delta: int | None = None
    minpoly: Poly | None = None
    witness_prime: int | None = None


@dataclass
class SieveSummary:
    primes_used: list[int] = dc_field(default_factory=list)
    rows: int = 0
    solution_dim: int = 0
    inconsistent: bool = False


@dataclass
class ScanReport:
    kind: str                      # "quad" | "cubic"
    poly: Poly                     # normalized monic integral defining polynomial
    scale: int
    degree: int
    candidate_primes: list[int]
    gcd_value: int
    sieve: SieveSummary
    subfields: list[SubfieldEntry]
    excluded: list[ExcludedEntry]
    phase_ms: dict[str, int]
    direct_tests: int

    def has_unproven(self) -> bool:
        return any(e.status == STATUS_UNPROVEN_ABSENT for e in self.excluded)

    def check_invariants(self, field: NumberField | None = None) -> None:
        """Verify every certificate (the one check of a twist product's),
        every witness prime, and the group closure of the found quadratic
        set.  Witness primes get a full, gcd-checked DDF of their own."""
        if field is None:
            field = NumberField(self.poly)
        for e in self.subfields:
            h = Poly([-e.delta, 0, 1]) if e.delta is not None else e.minpoly
            if not verify_certificate(field, h, e.certificate):
                raise AssertionError(f"certificate fails for {e.delta or e.minpoly}")
        if self.kind == "quad":
            # the kernel of d1 * d2 is k1 * k2 / gcd(k1, k2)**2 for the
            # squarefree kernels k1, k2 of d1, d2: one factorization per delta
            deltas = {e.delta for e in self.subfields}
            kernels = {_squarefree_kernel(d) for d in deltas}
            for k1 in kernels:
                for k2 in kernels:
                    prod = k1 * k2 // math.gcd(k1, k2) ** 2
                    if prod != 1 and prod not in deltas:
                        raise AssertionError("found set is not twist-closed")
        for e in self.excluded:
            q = e.witness_prime
            if e.status != STATUS_CERTIFIED_ABSENT or q is None:
                continue
            degrees = modp.degree_counts(modp.ddf_degrees(field.f, q))
            if e.delta is not None:
                cls = classify_prime_quadratic(degrees, field.n)
                sym = legendre(e.delta, q)
                violated = ((cls == QuadClass.SPLIT and sym == -1)
                            or (cls == QuadClass.INERT and sym == 1))
                if not violated:
                    raise AssertionError(f"witness {q} does not exclude {e.delta}")
            elif e.minpoly is not None:
                # q splits in every cyclic cubic subfield, but not in the
                # candidate's field: its minimal polynomial X^3 - 3cX - t
                # stays irreducible.  That polynomial has discriminant
                # 81 v^2 for the class a = x + v w, yet a prime dividing v
                # is no witness: then a = x mod q and x^2 = N(a) = c^3, so
                # x = (x / c)^3 is a cube at q, and q splits there too.
                if classify_prime_cubic(degrees) != CubicClass.SPLITS_ALL:
                    raise AssertionError(f"witness {q} does not split in every cubic subfield")
                if not modp.squarefree_mod_p(e.minpoly, q) or modp.roots_mod_p(e.minpoly, q):
                    raise AssertionError(f"witness {q} does not exclude {e.minpoly}")


def _squarefree_kernel(d: int) -> int:
    fd = factor_integer(d)
    out = fd.sign
    for p, e in fd.factors.items():
        if e % 2:
            out *= p
    return out


# -- the prime walk and the sieve ------------------------------------------------


def _frobenius_primes(field: NumberField, basis: PlaceBasis, gcd_value: int, bound: int,
                      after: int = 0):
    """(q, factor degrees of f mod q) for the primes after < q <= bound,
    from 3 (l = basis.e = 2) or 5 (l = 3), that are not in the basis, do
    not divide gcd_value, and modulo which f is squarefree (NumberField.
    squarefree_mod).  The degrees come from the field, which keeps its DDF
    stages (NumberField.ddf): a DDF stops at the first degree that
    decides the class (sieve.class_decided), and a kept answer on which
    that rule holds is used as it is."""
    stop = class_decided(basis.e)
    for q in iter_primes(max(after + 1, 3 if basis.e == 2 else 5), bound):
        if q not in basis.primes and gcd_value % q and field.squarefree_mod(q):
            yield q, modp.degree_counts(field.ddf(q, stop)[0])


# The sieve stops after this many class-deciding primes in a row have left
# the span of its rows as it was.  While that span is short of the span of
# all rows up to the bound, each such prime enlarges it with probability
# about 1/2 or more (Chebotarev), so a stop that misses a row is about
# 2**-8 likely; it costs one failed root test, after which the witness
# search goes on from the prime where the sieve stopped.  The sieve's other
# stop, after SELECT_PRIME_QUALIFYING primes that decide nothing, bounds
# no such chance: see sieve_rows.
STABLE_PRIMES = 8


@dataclass
class SieveRows:
    """The rows sieve_rows kept, in prime order, their span (for l = 2
    with the right-hand side as last column), from which the scans read
    their candidates, and the last prime it walked (0: none)."""
    rows: list[Row]
    span: Span
    walked: int


def sieve_rows(field: NumberField, basis: PlaceBasis, gcd_value: int, bound: int) -> SieveRows:
    """The nontrivial F_l rows (l = basis.e) of the primes up to bound,
    walked in order until the span of the rows (with the right-hand side
    for l = 2) stops growing:

    - at once when it is full: for l = 2 the system is inconsistent, for
      l = 3 its kernel is 0, and no later row can change the solutions;
    - after STABLE_PRIMES class-deciding primes in a row (SPLIT or
      INERT for l = 2, SPLITS_ALL for l = 3) that leave it as it was,
      counting those whose row is trivial;
    - or once SELECT_PRIME_QUALIFYING primes that decide nothing have
      been walked since it last grew, and at least one class-deciding
      prime since then has left it as it was.  This is a ski rental
      counted in DDFs of f: each further prime costs one, and a row
      missed by stopping costs at most one failed root test, whose
      prime selection runs up to as many DDFs before it lifts anything.
      Unlike the stable count it bounds the cost of a miss, not its
      chance: where few primes decide the class (Galois groups of small
      exponent) it stops well before the bound and may leave out a row.
      The scan stays sound: a candidate the missed row would have ruled
      out fails its root test, and the witness search goes on from the
      prime where the sieve stopped.

    For l = 2 both counts wait while only the zero vector solves the
    rows: no candidate is left, and only an INERT prime, which may be
    rare, can still make the system inconsistent, as the report says.
    Otherwise the sieve walks on to the bound; a bound below the first
    prime (3 for l = 2, 5 for l = 3) keeps no row."""
    ell, width = basis.e, basis.width
    span = Span(ell, width + 1 if ell == 2 else width)
    rows: list[Row] = []
    stale = idle = 0
    full = False
    for q, degrees in _frobenius_primes(field, basis, gcd_value, bound):
        row = frobenius_row(q, degrees, field.n, basis)
        if row is None:
            idle += 1
        else:
            rank = len(span.rows)
            if not row.trivial:
                rows.append(row)
                span.insert((*row.coeffs, row.rhs) if ell == 2 else row.coeffs)
            stale = 0 if len(span.rows) > rank else stale + 1
            if ell == 2:
                full = width in span.rows
                if len(span.rows) == width and not any(r[width] for r in span.rows.values()):
                    stale = 0   # only 0 solves the rows: what is left to learn is inconsistency
            else:
                full = len(span.rows) == width
            if not stale:
                idle = 0
        if full or stale >= STABLE_PRIMES or (stale and idle >= SELECT_PRIME_QUALIFYING):
            return SieveRows(rows, span, q)
    return SieveRows(rows, span, bound)


# The witness searches walk the primes up to this bound; a candidate with
# no witness below it is reported as unproven_absent.
ABSENCE_PRIME_BOUND = 10_000


def absence_witness(field: NumberField, basis: PlaceBasis, gcd_value: int, vec,
                    after: int = 0) -> int | None:
    """The first prime above after whose Frobenius row the exponent vector
    vec over basis fails: at such a prime the candidate of vec cannot be a
    subfield.  None if no prime up to ABSENCE_PRIME_BOUND is a witness."""
    for q, degrees in _frobenius_primes(field, basis, gcd_value, ABSENCE_PRIME_BOUND, after):
        row = frobenius_row(q, degrees, field.n, basis)
        if row is not None and not vector_satisfies(row, vec, basis.e):
            return q
    return None


# -- the two kinds --------------------------------------------------------------


class _Kind:
    """What both kinds share: a span member's certificate, from the product
    of the scaled roots of the direct finds it comes from, mod p**k (see
    the module docstring).  Each prefix product is kept, so a member costs
    one product."""

    def __init__(self, field, cs):
        self.field, self.gcd_value, self.basis = field, cs.gcd_value, self.place_basis(cs)
        self.candidates, self.roots, self.conjugates = {}, {}, {}
        self.products: dict[tuple, tuple] = {}  # ((find, tag), ...) -> (tag-weighted sum, y)
        self._ring = None

    def ring(self):
        """(Z/p**k [X]/(f), p, 1/f' in it), built at the scan's first product;
        for l = 3, p divides neither 3 nor any v: h'(theta) is then a unit
        mod p, as its norm is a power of disc h = 81 v**2."""
        if self._ring is None:
            field = self.field
            bits = max(scaled_root_bits(field, self.h(v)) for v in self.candidates) + 2
            avoid = 3 * math.prod(c.v for c in self.candidates.values()) if self.ell == 3 else 1
            p = next(q for q in iter_primes(3) if q not in self.basis.primes
                     and avoid % q and field.squarefree_mod(q))
            m = p
            while m.bit_length() <= bits:
                m *= p
            ring = modp.QuotientRing(field.f.coeffs, m, field.barrett())
            self._ring = ring, p, ring.inverse(ring.element(field.fprime.coeffs), p)
        return self._ring

    def root(self, vec, y):
        """theta = y / f' mod p**k for the scaled root y of the candidate
        vec, computed once."""
        if vec not in self.roots:
            ring, _, fprime_inv = self.ring()
            self.roots[vec] = ring.mul(y, fprime_inv)
        return self.roots[vec]

    def member_certificate(self, vec, used):
        """The certificate of vec, the class of the tag-weighted sum of the
        vectors in used, the (vector, tag value, certificate) triples of the
        direct finds it comes from, in the order found.  Each step multiplies
        disjoint finds, so the root depends on the tagged set only."""
        ring = self.ring()[0]
        key, product = (), None
        for gvec, tag, cert in used:
            key += ((gvec, tag),)
            if key not in self.products:
                y = ring.element(cert.scaled_root)
                if product is None:
                    self.products[key] = gvec, y
                else:
                    total = tuple((a + tag * b) % self.ell for a, b in zip(product[0], gvec))
                    self.products[key] = total, self.merge(product, (gvec, y), total)
            product = self.products[key]
        if canonical_f3(product[0]) != vec:
            raise AssertionError("twist-product vector differs from the span member")
        return RootCertificate(tuple(modp.center_lift(product[1], ring.m)), self.h(vec))


class _Quad(_Kind):
    """l = 2: discriminant vectors.  The root test runs on the coset
    representative."""

    name, ell = "quad", 2
    test_representative = True
    place_basis = staticmethod(lambda cs: PlaceBasis(2, cs.all_finite_primes()))

    def solve(self, span):
        """(candidates in walk order, or None if the rows are inconsistent;
        the dimension of the solution space) from the span of the sieve's
        rows, whose last column is the right-hand side."""
        width = self.basis.width
        if width in span.rows:
            return None, 0
        delta = self.basis.delta_of_vector
        self.candidates = [v[:width] for v in kernel_vectors(span) if v[width] and any(v[:width])]
        self.candidates.sort(key=lambda v: (abs(delta(v)), delta(v) < 0))
        return self.candidates, len(span.kernel()) - 1

    def label(self, vec):
        return {"delta": self.basis.delta_of_vector(vec)}

    def h(self, vec):
        return Poly([-self.basis.delta_of_vector(vec), 0, 1])

    def merge(self, a, b, vec3):
        """The scaled root y1 sqrt(d2) / k of sqrt(d1) sqrt(d2) / k, for d3 =
        d1 d2 / k**2, from those of d1 and d2 (b is a direct find, so one
        product per member); p is not in the basis, so it divides no k."""
        d1, d2, d3 = (self.basis.delta_of_vector(v) for v in (a[0], b[0], vec3))
        ring = self.ring()[0]
        y = ring.mul(a[1], self.root(*b))
        return modp.scale(y, pow(math.isqrt(d1 * d2 // d3), -1, ring.m), ring.m)


class _Cubic(_Kind):
    """l = 3: Kummer classes, one per pair {v, 2v}.  The root test runs on
    the candidate itself."""

    name, ell = "cubic", 3
    test_representative = False
    place_basis = staticmethod(cubic_place_basis)

    def solve(self, span):
        """(candidates in walk order; the dimension of the kernel of the
        span of the sieve's rows, whose (3**dim - 1) / 2 classes are the
        candidates: kernel_vectors yields no zero vector, and every nonzero
        one gives a cubic field)."""
        for rep in kernel_vectors(span):
            cand = build_generator(rep, self.basis)
            self.candidates[cand.exponents] = cand
        cands = self.candidates
        order = sorted(cands, key=lambda v: (cands[v].c, abs(cands[v].t), cands[v].t))
        return order, len(span.kernel())

    def label(self, vec):
        return {"minpoly": self.candidates[vec].minpoly}

    def h(self, vec):
        return self.candidates[vec].minpoly

    def merge(self, a, b, total):
        """The root of the class a3 of total = vec1 + t * vec2 from the roots
        of the classes a1, a2 of vec1 and vec2.  With theta_i^(j) = w^j u_i +
        w^-j conj(u_i), u_i**3 = a_i (galois_conjugates), the resolvent D_j =
        sum_i theta1^(i) theta2^(j - i) is 3 (w^j U + w^-j conj(U)), U = u1
        u2; the conjugates in reverse order swap u_i and conj(u_i).  Exactly
        one of the four b = a1^(+-) a2^(+-) is a3 g**3 with g = g0 + g1 w in
        Q(w), and then theta3 = (g0 D_0 + g1 D_2) / (3 N(g))."""
        ring, p, _ = self.ring()
        m, vecs, conj = ring.m, (canonical_f3(a[0]), b[0], canonical_f3(total)), []
        for vec, y in zip(vecs, (a[1], b[1])):
            if vec not in self.conjugates:
                self.conjugates[vec] = galois_conjugates(ring, p, self.root(vec, y),
                                                         self.candidates[vec])
            conj.append(self.conjugates[vec])

        def exponents(vec, bar):   # of w, pi, conj(pi), ... in w**e0 prod (pi conj(pi)**2)**e
            pairs = ((2 * e, e) if bar else (e, 2 * e) for e in vec[1:])
            return [vec[0] * (1 + bar), *(x for pair in pairs for x in pair)]

        for flips in ((0, 0), (0, 1), (1, 0), (1, 1)):
            d = [x + y - z for x, y, z in zip(*map(exponents, vecs, flips + (0,)))]
            if any(x % 3 for x in d):
                continue
            g, den = OMEGA ** (d[0] // 3 % 3), 1   # g * den, in Z[w]
            for q, e, ebar in zip(self.basis.primes, d[1::2], d[2::2]):
                lift, pi = max(0, -e // 3, -ebar // 3), split_prime(q)   # 1 / pi = conj(pi) / q
                g, den = g * pi ** (e // 3 + lift) * pi.conj() ** (ebar // 3 + lift), den * q**lift
            t1, t2 = ([c[0], c[2], c[1]] if flip else c for c, flip in zip(conj, flips))
            s = []   # g0 D_0 + g1 D_2, one product per conjugate of theta1
            for i in range(3):
                mix = modp.add(modp.scale(t2[-i % 3], g.x, m), modp.scale(t2[2 - i], g.y, m), m)
                s = modp.add(s, ring.mul(t1[i], mix), m)
            y = ring.mul(s, ring.element(self.field.fprime.coeffs))
            return modp.scale(y, den * pow(3 * g.norm(), -1, m), m)
        raise AssertionError("no cube root of a twist-product class")


def galois_conjugates(ring, p, root, cand: CubicCandidate) -> list:
    """[theta, sigma theta, sigma^2 theta] in ring, modulo f and a power of
    p, for a root theta = u + c/u of cand's h = X^3 - 3cX - t, u**3 = a and
    sigma(u) = w u.  h'(theta) = (theta - sigma theta)(theta - sigma^2
    theta) = 3 (u^2 + c + c^2/u^2) and a - conj(a) = v (w - w^2) give
    (sigma theta - sigma^2 theta) h'(theta) = -9v."""
    m = ring.m
    hprime = modp.sub(modp.scale(ring.mul(root, root), 3, m), [3 * cand.c % m], m)
    delta = modp.scale(ring.inverse(hprime, p), 9 * cand.v, m)
    minus, half = [-c % m for c in root], (m + 1) // 2
    return [root, *(modp.scale(op(minus, delta, m), half, m) for op in (modp.sub, modp.add))]


# -- the scan and the candidate walk ------------------------------------------------


def quad_subfield_scan(f_raw: Poly, config: ScanConfig | None = None) -> ScanReport:
    """All quadratic subfields of Q[X]/(f_raw), with certificates."""
    return _scan(_Quad, f_raw, config or ScanConfig())


def cubic_subfield_scan(f_raw: Poly, config: ScanConfig | None = None) -> ScanReport:
    """All cyclic cubic subfields of Q[X]/(f_raw), with certificates."""
    return _scan(_Cubic, f_raw, config or ScanConfig())


def _scan(kind_type, f_raw: Poly, config: ScanConfig) -> ScanReport:
    phase_ms: dict[str, int] = {}
    t_start = time.perf_counter()

    def phase(name, t0):
        phase_ms[name] = int(1000 * (time.perf_counter() - t0))

    t0 = time.perf_counter()
    f, lam = normalize_input(f_raw)
    field = NumberField(f)
    phase("normalize", t0)
    report = ScanReport(kind=kind_type.name, poly=f, scale=lam, degree=f.degree,
                        candidate_primes=[], gcd_value=0, sieve=SieveSummary(),
                        subfields=[], excluded=[], phase_ms=phase_ms, direct_tests=0)
    if f.degree % kind_type.ell != 0:
        phase("total", t_start)
        return report

    t0 = time.perf_counter()
    cs = candidate_ramified_primes(field, kind_type.ell)
    phase("ramify", t0)
    kind = kind_type(field, cs)
    report.candidate_primes = list(kind.basis.primes)
    report.gcd_value = cs.gcd_value

    t0 = time.perf_counter()
    sieve = sieve_rows(field, kind.basis, cs.gcd_value, config.sieve_prime_bound)
    rows = sieve.rows
    candidates, dim = kind.solve(sieve.span)
    phase("sieve", t0)
    report.sieve = SieveSummary(primes_used=[r.prime for r in rows], rows=len(rows),
                                solution_dim=dim, inconsistent=candidates is None)
    if candidates is None:
        phase("total", t_start)
        return report

    t0 = time.perf_counter()
    report.subfields, report.excluded, report.direct_tests = _walk(
        kind, rows, candidates, sieve.walked)
    phase("tests", t0)
    phase("total", t_start)
    report.check_invariants(field)
    return report


def _walk(kind, rows: list[Row], candidates, walked: int):
    """Settle every candidate vector in order; returns the subfield entries,
    the excluded entries and the number of direct root tests.

    The sieve has walked every prime up to walked.  At such a prime a
    witness against a target is exactly a kept row that the target fails,
    and the walk tests the rows first (a cubic target lies in their kernel),
    so the witness search starts after walked.

    The span of the found vectors gives the k-th direct find a 1 in tag
    slot width + k (a find is independent of those before it, so there are
    at most width): a member reduces to 0 in the vector slots, and its tag
    slots name the finds it comes from and their coefficients, up to one
    common factor over F3."""
    field, width = kind.field, kind.basis.width
    span = Span(kind.ell, 2 * width)
    found: list[tuple[tuple[int, ...], RootCertificate]] = []  # direct finds, in order
    no_tags = (0,) * width

    def reduce(vec):
        """(vec modulo the found vectors, the (vector, tag value,
        certificate) triples of the finds a member comes from)"""
        r = span.reduce((*vec, *no_tags))
        return r[:width], [(g, tag, cert) for (g, cert), tag in zip(found, r[width:]) if tag]

    subfields: list[SubfieldEntry] = []
    excluded: list[ExcludedEntry] = []
    settled: list[tuple[tuple[int, ...], str, int | None]] = []  # (vector, status, witness)
    direct_tests = 0

    for vec in candidates:
        label = kind.label(vec)
        rep, used = reduce(vec)
        if not any(rep):
            subfields.append(SubfieldEntry(kind.member_certificate(vec, used), **label))
            continue
        outcome = next((s for s in settled if reduce(s[0])[0] == rep), None)
        if outcome is None:  # only inhomogeneous (F2) rows can reject a representative
            violated = next((r for r in rows if not vector_satisfies(r, rep, kind.ell)), None)
            if violated is not None:
                outcome = (rep, STATUS_CERTIFIED_ABSENT, violated.prime)
                settled.append(outcome)
        if outcome is None:
            target = rep if kind.test_representative else vec
            direct_tests += 1
            result = find_root(field, kind.h(target))
            if result.status == PROVED:
                span.insert((*target, *(int(k == len(found)) for k in range(width))))
                found.append((target, result.certificate))
                cert = (result.certificate if target == vec
                        else kind.member_certificate(vec, reduce(vec)[1]))
                subfields.append(SubfieldEntry(cert, **label))
                continue
            witness = absence_witness(field, kind.basis, kind.gcd_value, target, walked)
            outcome = (target, STATUS_CERTIFIED_ABSENT if witness else STATUS_UNPROVEN_ABSENT,
                       witness)
            settled.append(outcome)
        evec, status, witness = outcome
        if evec == vec:
            excluded.append(ExcludedEntry(status, witness_prime=witness, **label))
        else:
            excluded.append(ExcludedEntry(STATUS_TWIST_EXCLUDED, **label))
    return subfields, excluded, direct_tests


def absence_certificate_search(field: NumberField, target,
                               basis: PlaceBasis | None = None) -> ExcludedEntry:
    """Try to upgrade a not-found candidate to a certified absence.

    target is either a nonzero integer delta (quadratic candidate) or a
    CubicCandidate with its cubic place basis.  A delta is searched as its
    exponent-parity vector over its own basis, the primes of delta and 2.
    Returns an ExcludedEntry with status certified_absent and a witness
    prime, or unproven_absent when no prime up to ABSENCE_PRIME_BOUND is a
    witness.  A delta that is 0 or a square raises ValueError:
    Q(sqrt(delta)) is Q then, a subfield of every field, and no prime can
    witness its absence.
    """
    if isinstance(target, CubicCandidate):
        if basis is None:
            raise ValueError("cubic absence search needs the place basis")
        vec = target.exponents
        label = {"minpoly": target.minpoly}
    else:
        delta = int(target)
        if delta >= 0 and math.isqrt(delta) ** 2 == delta:
            raise ValueError(f"delta = {delta} is 0 or a square: Q(sqrt(delta)) is no "
                             "quadratic field")
        fd = factor_integer(delta)
        basis = PlaceBasis(2, tuple(sorted(fd.factors.keys() | {2})))
        vec = (int(delta < 0), *(fd.factors.get(p, 0) % 2 for p in basis.primes))
        label = {"delta": delta}
    witness = absence_witness(field, basis, 1, vec)
    status = STATUS_CERTIFIED_ABSENT if witness else STATUS_UNPROVEN_ABSENT
    return ExcludedEntry(status, witness_prime=witness, **label)
