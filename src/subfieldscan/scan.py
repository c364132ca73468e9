"""Subfield scan pipelines.

quad_subfield_scan finds every quadratic subfield of Q[X]/(f) and
cubic_subfield_scan every cyclic cubic one.  Both share the same outline:
normalize the input, compute the candidate ramified places, cut the
candidate space down with Frobenius constraints, then walk the surviving
candidates in increasing size running exact root tests, reusing previous
outcomes through twist closure (products of found subfields are subfields,
products of a found subfield with an excluded one are excluded).

Every positive entry in the report carries a certificate that passes
verify_certificate; exclusions are either witnessed by a Frobenius
constraint (certified) or reported as unproven.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import modp
from .arith import iter_primes, legendre
from .config import ScanConfig
from .eisenstein import EisensteinInt
from .errors import BadPrime, NotSquarefree, ZeroExponentVector
from .kummer3 import CubicCandidate, build_generator, cubic_place_basis
from .nfroot import (PROVED, NumberField, RootCertificate, find_root,
                     verify_certificate)
from .poly import Poly, normalize_input
from .ramify import candidate_ramified_primes
from .sieve import (CubicClass, PlaceBasis, QuadClass, canonical_f3,
                    classify_prime_cubic, classify_prime_quadratic,
                    cubic_basis_generators, cubic_constraint, quad_constraint,
                    solve_f2, solve_f3_kernel, vector_satisfies)

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
    seed: int

    def has_unproven(self) -> bool:
        return any(e.status == STATUS_UNPROVEN_ABSENT for e in self.excluded)

    def check_invariants(self, field: NumberField | None = None) -> None:
        """Re-verify every certificate, every quadratic witness prime, and
        the group closure of the found set."""
        if field is None:
            field = NumberField(self.poly)
        for e in self.subfields:
            h = Poly([-e.delta, 0, 1]) if e.delta is not None else e.minpoly
            if not verify_certificate(field, h, e.certificate):
                raise AssertionError(f"certificate fails for {e.delta or e.minpoly}")
        if self.kind == "quad":
            deltas = {e.delta for e in self.subfields}
            for d1 in deltas:
                for d2 in deltas:
                    if d1 != d2:
                        prod = _squarefree_kernel(d1 * d2)
                        if prod != 1 and prod not in deltas:
                            raise AssertionError("found set is not twist-closed")
            for e in self.excluded:
                if (e.status == STATUS_CERTIFIED_ABSENT and e.delta is not None
                        and e.witness_prime is not None):
                    q = e.witness_prime
                    cls = classify_prime_quadratic(modp.ddf_degrees(field.f, q), field.n)
                    sym = legendre(e.delta, q)
                    violated = ((cls == QuadClass.SPLIT and sym == -1)
                                or (cls == QuadClass.INERT and sym == 1))
                    if not violated:
                        raise AssertionError(f"witness {q} does not exclude {e.delta}")


def _squarefree_kernel(d: int) -> int:
    from .arith import factor_integer

    fd = factor_integer(d)
    out = fd.sign
    for p, e in fd.factors.items():
        if e % 2:
            out *= p
    return out


def _rng_for(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# -- quadratic pipeline ----------------------------------------------------------


class _F2Span:
    """Reduced-echelon span of proved exponent vectors, with enough
    bookkeeping to multiply the underlying square roots."""

    def __init__(self, field: NumberField, basis: PlaceBasis):
        self.field = field
        self.basis = basis
        self.entries: dict[int, tuple[tuple[int, ...], Poly]] = {}  # pivot -> (vec, x)

    def _merge(self, vec1, x1, vec2, x2):
        vec3 = tuple(a ^ b for a, b in zip(vec1, vec2))
        d1 = self.basis.delta_of_vector(vec1)
        d2 = self.basis.delta_of_vector(vec2)
        d3 = self.basis.delta_of_vector(vec3)
        k = math.isqrt(abs(d1 * d2 // d3))
        x3 = (x1 * x2) % self.field.f
        if k != 1:
            x3 = x3.scale(Fraction(1, k))
        return vec3, x3

    def reduce(self, vec):
        v = tuple(vec)
        for pivot in sorted(self.entries):
            if v[pivot]:
                bvec, _ = self.entries[pivot]
                v = tuple(a ^ b for a, b in zip(v, bvec))
        return v

    def reduce_with_product(self, vec):
        """(reduced vector, combo vector, combo sqrt) for the entries used."""
        v = tuple(vec)
        combo = tuple([0] * len(vec))
        x = Poly([1])
        for pivot in sorted(self.entries):
            if v[pivot]:
                bvec, bx = self.entries[pivot]
                v = tuple(a ^ b for a, b in zip(v, bvec))
                combo, x = self._merge(combo, x, bvec, bx)
        return v, combo, x

    def insert(self, vec, x):
        v, combo, cx = self.reduce_with_product(vec)
        if not any(v):
            return
        vx = x if not any(combo) else self._merge(vec, x, combo, cx)[1]
        pivot = next(i for i, a in enumerate(v) if a)
        for piv2 in list(self.entries):
            bvec, bx = self.entries[piv2]
            if bvec[pivot]:
                self.entries[piv2] = self._merge(bvec, bx, v, vx)
        self.entries[pivot] = (v, vx)


def _quad_sieve(f: Poly, basis: PlaceBasis, gcd_value: int, config: ScanConfig):
    """Collect usable F2 rows from primes with known cycle type."""
    n = f.degree
    skip = set(basis.primes)

    def row_for(q):
        try:
            degs = modp.ddf_degrees(f, q)
        except NotSquarefree:
            return None
        cls = classify_prime_quadratic(degs, n)
        if cls == QuadClass.NO_INFO:
            return None
        return quad_constraint(q, cls, basis)

    rows = []
    if config.sieve_max_rows <= 0:
        return rows
    for q in iter_primes(3, config.sieve_prime_bound):
        if q in skip or gcd_value % q == 0 or int(f.lc) % q == 0:
            continue
        row = row_for(q)
        if row is not None:
            rows.append(row)
            if len(rows) >= config.sieve_max_rows:
                break
    return rows


def _empty_report(kind, f, lam, seed, phase_ms, candidate_primes=(), gcd_value=0,
                  sieve=None):
    return ScanReport(kind=kind, poly=f, scale=lam, degree=f.degree,
                      candidate_primes=list(candidate_primes), gcd_value=gcd_value,
                      sieve=sieve or SieveSummary(), subfields=[], excluded=[],
                      phase_ms=phase_ms, direct_tests=0, seed=seed)


def quad_subfield_scan(f_raw: Poly, config: ScanConfig | None = None) -> ScanReport:
    """All quadratic subfields of Q[X]/(f_raw), with certificates."""
    config = config or ScanConfig()
    phase_ms: dict[str, int] = {}
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    f, lam = normalize_input(f_raw)
    phase_ms["normalize"] = int(1000 * (time.perf_counter() - t0))
    if f.degree % 2 != 0:
        phase_ms["total"] = int(1000 * (time.perf_counter() - t_start))
        return _empty_report("quad", f, lam, config.seed, phase_ms)

    field = NumberField(f)
    t0 = time.perf_counter()
    cs = candidate_ramified_primes(f, 2, config.factor_budget)
    phase_ms["ramify"] = int(1000 * (time.perf_counter() - t0))
    basis = PlaceBasis(2, cs.all_finite_primes())

    t0 = time.perf_counter()
    rows = _quad_sieve(f, basis, cs.gcd_value, config)
    solution = solve_f2(rows, basis.width)
    phase_ms["sieve"] = int(1000 * (time.perf_counter() - t0))
    sieve_summary = SieveSummary(
        primes_used=[r.prime for r in rows],
        rows=len(rows),
        solution_dim=len(solution.kernel) if not solution.inconsistent else 0,
        inconsistent=solution.inconsistent,
    )
    if solution.inconsistent:
        phase_ms["total"] = int(1000 * (time.perf_counter() - t_start))
        return _empty_report("quad", f, lam, config.seed, phase_ms,
                             basis.primes, cs.gcd_value, sieve_summary)

    candidates = [v for v in solution.enumerate() if any(v)]
    candidates.sort(key=lambda v: (abs(basis.delta_of_vector(v)),
                                   basis.delta_of_vector(v) < 0))

    t0 = time.perf_counter()
    span = _F2Span(field, basis)
    subfields: list[SubfieldEntry] = []
    excluded: list[ExcludedEntry] = []
    excluded_reps: list[tuple[tuple[int, ...], str, int | None]] = []
    direct_tests = 0

    for index, vec in enumerate(candidates):
        delta = basis.delta_of_vector(vec)
        v_red = span.reduce(vec)
        if not any(v_red):
            _, combo, x = span.reduce_with_product(vec)
            assert combo == vec
            cert = _certificate_from_rational(field, x, delta)
            subfields.append(SubfieldEntry(cert, delta=delta))
            continue
        matched = _match_excluded(span, excluded_reps, v_red, vec, delta)
        if matched is not None:
            excluded.append(matched)
            continue
        violated = next((r for r in rows if not vector_satisfies(r, v_red, 2)), None)
        if violated is not None:
            excluded_reps.append((v_red, STATUS_CERTIFIED_ABSENT, violated.prime))
            if v_red == vec:
                excluded.append(ExcludedEntry(STATUS_CERTIFIED_ABSENT, delta=delta,
                                              witness_prime=violated.prime))
            else:
                excluded.append(ExcludedEntry(STATUS_TWIST_EXCLUDED, delta=delta))
            continue
        # direct root test on the coset representative
        delta_red = basis.delta_of_vector(v_red)
        direct_tests += 1
        h = Poly([-delta_red, 0, 1])
        result = find_root(field, h, config, _rng_for(config.seed, index))
        if result.status == PROVED:
            x_red = field.to_rational_root(Poly(result.certificate.scaled_root))
            span.insert(v_red, x_red)
            if v_red == vec:
                subfields.append(SubfieldEntry(result.certificate, delta=delta))
            else:
                _, combo, x = span.reduce_with_product(vec)
                assert combo == vec
                cert = _certificate_from_rational(field, x, delta)
                subfields.append(SubfieldEntry(cert, delta=delta))
        else:
            witness = absence_witness_quad(field, delta_red, basis, cs.gcd_value, config)
            status = STATUS_CERTIFIED_ABSENT if witness else STATUS_UNPROVEN_ABSENT
            excluded_reps.append((v_red, status, witness))
            if v_red == vec:
                excluded.append(ExcludedEntry(status, delta=delta, witness_prime=witness))
            else:
                excluded.append(ExcludedEntry(STATUS_TWIST_EXCLUDED, delta=delta))
    phase_ms["tests"] = int(1000 * (time.perf_counter() - t0))
    phase_ms["total"] = int(1000 * (time.perf_counter() - t_start))

    report = ScanReport(kind="quad", poly=f, scale=lam, degree=f.degree,
                        candidate_primes=list(basis.primes), gcd_value=cs.gcd_value,
                        sieve=sieve_summary, subfields=subfields, excluded=excluded,
                        phase_ms=phase_ms, direct_tests=direct_tests, seed=config.seed)
    report.check_invariants(field)
    return report


def _match_excluded(span, excluded_reps, v_red, vec, delta):
    for evec, status, witness in excluded_reps:
        if span.reduce(evec) == v_red:
            if evec == vec:
                return ExcludedEntry(status, delta=delta, witness_prime=witness)
            return ExcludedEntry(STATUS_TWIST_EXCLUDED, delta=delta)
    return None


def _certificate_from_rational(field: NumberField, x: Poly, delta_or_minpoly) -> RootCertificate:
    """Scale an exact rational root by f' and check the result."""
    y = (x * field.fprime) % field.f
    if not y.is_integral():
        raise AssertionError("scaled twist-product root is not integral")
    h = Poly([-delta_or_minpoly, 0, 1]) if isinstance(delta_or_minpoly, int) else delta_or_minpoly
    cert = RootCertificate(tuple(int(c) for c in y.coeffs), h)
    if not verify_certificate(field, h, cert):
        raise AssertionError("twist-product certificate failed verification")
    return cert


AUTO_SUBFIELD = "auto_subfield"
AUTO_EXCLUDED = "auto_excluded"
NEEDS_TEST = "needs_test"


def twist_closure_step(found, excluded, candidate):
    """Closure decision for one candidate exponent vector over F2.

    found and excluded are lists of exponent vectors of previously proved
    and previously excluded candidates.  Returns (outcome, reduced) where
    outcome is AUTO_SUBFIELD, AUTO_EXCLUDED or NEEDS_TEST and reduced is
    the coset representative to test in the last case.  Subfield-ness is
    constant on cosets of the group generated by the found vectors.
    """
    width = len(candidate)
    entries: dict[int, tuple[int, ...]] = {}

    def reduce(vec):
        v = tuple(vec)
        for pivot in sorted(entries):
            if v[pivot]:
                v = tuple(a ^ b for a, b in zip(v, entries[pivot]))
        return v

    for g in found:
        v = reduce(g)
        if any(v):
            pivot = next(i for i in range(width) if v[i])
            for piv2 in list(entries):
                if entries[piv2][pivot]:
                    entries[piv2] = tuple(a ^ b for a, b in zip(entries[piv2], v))
            entries[pivot] = v
    v_red = reduce(candidate)
    if not any(v_red):
        return AUTO_SUBFIELD, None
    for e in excluded:
        if reduce(e) == v_red:
            return AUTO_EXCLUDED, None
    return NEEDS_TEST, v_red


def absence_certificate_search(field: NumberField, target, config: ScanConfig | None = None,
                               basis: PlaceBasis | None = None,
                               gcd_value: int = 1) -> ExcludedEntry:
    """Try to upgrade a not-found candidate to a certified absence.

    target is either a squarefree integer delta (quadratic candidate) or a
    CubicCandidate.  Returns an ExcludedEntry with status certified_absent
    and a witness prime, or unproven_absent when the prime bound runs out.
    """
    config = config or ScanConfig()
    if isinstance(target, CubicCandidate):
        if basis is None:
            raise ValueError("cubic absence search needs the place basis")
        gens = cubic_basis_generators(basis)
        witness = absence_witness_cubic(field, target, gens, basis, gcd_value, config)
        status = STATUS_CERTIFIED_ABSENT if witness else STATUS_UNPROVEN_ABSENT
        return ExcludedEntry(status, minpoly=target.minpoly, witness_prime=witness)
    delta = int(target)
    b = basis or PlaceBasis(2, ())
    witness = absence_witness_quad(field, delta, b, gcd_value, config)
    status = STATUS_CERTIFIED_ABSENT if witness else STATUS_UNPROVEN_ABSENT
    return ExcludedEntry(status, delta=delta, witness_prime=witness)


def absence_witness_quad(field: NumberField, delta: int, basis: PlaceBasis,
                         gcd_value: int, config: ScanConfig) -> int | None:
    """First prime whose cycle-type constraint contradicts Q(sqrt(delta))
    being a subfield; None if the bound is exhausted."""
    skip = set(basis.primes)
    for q in iter_primes(3, config.absence_prime_bound):
        if q in skip or gcd_value % q == 0 or int(field.f.lc) % q == 0:
            continue
        try:
            degs = modp.ddf_degrees(field.f, q)
        except NotSquarefree:
            continue
        cls = classify_prime_quadratic(degs, field.n)
        if cls == QuadClass.NO_INFO:
            continue
        sym = legendre(delta, q)
        if sym == 0:
            continue
        if cls == QuadClass.SPLIT and sym == -1:
            return q
        if cls == QuadClass.INERT and sym == 1:
            return q
    return None


# -- cubic pipeline ---------------------------------------------------------------


class _F3Span:
    def __init__(self, width: int):
        self.width = width
        self.entries: dict[int, tuple[int, ...]] = {}

    def reduce(self, vec):
        v = list(vec)
        for pivot in sorted(self.entries):
            if v[pivot]:
                row = self.entries[pivot]
                c = v[pivot]  # row has 1 at pivot
                v = [(a - c * b) % 3 for a, b in zip(v, row)]
        return tuple(v)

    def insert(self, vec):
        v = list(self.reduce(vec))
        if not any(v):
            return
        pivot = next(i for i, a in enumerate(v) if a)
        inv = pow(v[pivot], -1, 3)
        v = [a * inv % 3 for a in v]
        for piv2 in list(self.entries):
            row = self.entries[piv2]
            if row[pivot]:
                c = row[pivot]
                self.entries[piv2] = tuple((a - c * b) % 3 for a, b in zip(row, v))
        self.entries[pivot] = tuple(v)


def _cubic_sieve(f: Poly, basis: PlaceBasis, gcd_value: int,
                 generators: list[EisensteinInt], config: ScanConfig):
    skip = set(basis.primes)
    norms = [g.norm() for g in generators]

    def row_for(q):
        if any(n % q == 0 for n in norms):
            return None
        try:
            degs = modp.ddf_degrees(f, q)
        except NotSquarefree:
            return None
        if classify_prime_cubic(degs) != CubicClass.SPLITS_ALL:
            return None
        try:
            return cubic_constraint(q, basis, generators)
        except BadPrime:
            return None

    rows = []
    if config.sieve_max_rows <= 0:
        return rows
    for q in iter_primes(5, config.sieve_prime_bound):
        if q == 3 or q in skip or gcd_value % q == 0 or int(f.lc) % q == 0:
            continue
        row = row_for(q)
        if row is not None:
            rows.append(row)
            if len(rows) >= config.sieve_max_rows:
                break
    return rows


def cubic_subfield_scan(f_raw: Poly, config: ScanConfig | None = None) -> ScanReport:
    """All cyclic cubic subfields of Q[X]/(f_raw), with certificates."""
    config = config or ScanConfig()
    phase_ms: dict[str, int] = {}
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    f, lam = normalize_input(f_raw)
    phase_ms["normalize"] = int(1000 * (time.perf_counter() - t0))
    if f.degree % 3 != 0:
        phase_ms["total"] = int(1000 * (time.perf_counter() - t_start))
        return _empty_report("cubic", f, lam, config.seed, phase_ms)

    field = NumberField(f)
    t0 = time.perf_counter()
    cs = candidate_ramified_primes(f, 3, config.factor_budget)
    phase_ms["ramify"] = int(1000 * (time.perf_counter() - t0))
    basis, prime_pis = cubic_place_basis(cs)
    generators = cubic_basis_generators(basis)

    t0 = time.perf_counter()
    rows = _cubic_sieve(f, basis, cs.gcd_value, generators, config)
    reps = solve_f3_kernel(rows, basis.width)
    phase_ms["sieve"] = int(1000 * (time.perf_counter() - t0))
    sieve_summary = SieveSummary(primes_used=[r.prime for r in rows], rows=len(rows),
                                 solution_dim=_f3_kernel_dim(len(reps)),
                                 inconsistent=False)

    candidates: list[CubicCandidate] = []
    for rep in reps:
        try:
            candidates.append(build_generator(rep, prime_pis))
        except ZeroExponentVector:
            continue
    candidates.sort(key=lambda c: (c.c, abs(c.t), c.t))

    t0 = time.perf_counter()
    span = _F3Span(basis.width)
    subfields: list[SubfieldEntry] = []
    excluded: list[ExcludedEntry] = []
    excluded_reps: list[tuple[tuple[int, ...], str, int | None]] = []
    direct_tests = 0

    for index, cand in enumerate(candidates):
        v_red = canonical_f3(span.reduce(cand.exponents))
        if not any(v_red):
            # in the span of found subfields, so present by closure
            result = find_root(field, cand.minpoly, config, _rng_for(config.seed, index))
            if result.status != PROVED:
                raise AssertionError(f"no root found for {cand.minpoly}, which the "
                                     "found cubic subfields generate")
            subfields.append(SubfieldEntry(result.certificate, minpoly=cand.minpoly))
            continue
        match = None
        for evec, status, witness in excluded_reps:
            if canonical_f3(span.reduce(evec)) == v_red:
                match = (status, witness) if evec == cand.exponents else (STATUS_TWIST_EXCLUDED, None)
                break
        if match is not None:
            excluded.append(ExcludedEntry(match[0], minpoly=cand.minpoly, witness_prime=match[1]))
            continue
        direct_tests += 1
        result = find_root(field, cand.minpoly, config, _rng_for(config.seed, index))
        if result.status == PROVED:
            span.insert(cand.exponents)
            subfields.append(SubfieldEntry(result.certificate, minpoly=cand.minpoly))
        else:
            witness = absence_witness_cubic(field, cand, generators, basis, cs.gcd_value, config)
            status = STATUS_CERTIFIED_ABSENT if witness else STATUS_UNPROVEN_ABSENT
            excluded_reps.append((cand.exponents, status, witness))
            excluded.append(ExcludedEntry(status, minpoly=cand.minpoly, witness_prime=witness))
    phase_ms["tests"] = int(1000 * (time.perf_counter() - t0))
    phase_ms["total"] = int(1000 * (time.perf_counter() - t_start))

    report = ScanReport(kind="cubic", poly=f, scale=lam, degree=f.degree,
                        candidate_primes=list(basis.primes), gcd_value=cs.gcd_value,
                        sieve=sieve_summary, subfields=subfields, excluded=excluded,
                        phase_ms=phase_ms, direct_tests=direct_tests, seed=config.seed)
    report.check_invariants(field)
    return report


def _f3_kernel_dim(rep_count: int) -> int:
    dim = 0
    while (3**dim - 1) // 2 < rep_count:
        dim += 1
    return dim


def absence_witness_cubic(field: NumberField, cand: CubicCandidate,
                          generators, basis: PlaceBasis, gcd_value: int,
                          config: ScanConfig) -> int | None:
    """First prime that splits in all cyclic cubic subfields but at which the
    candidate class has a nonzero character sum."""
    from .eisenstein import cubic_residue_class

    skip = set(basis.primes)
    norms = [g.norm() for g in generators]
    for q in iter_primes(5, config.absence_prime_bound):
        if q == 3 or q in skip or gcd_value % q == 0 or int(field.f.lc) % q == 0:
            continue
        if any(n % q == 0 for n in norms):
            continue
        try:
            degs = modp.ddf_degrees(field.f, q)
        except NotSquarefree:
            continue
        if classify_prime_cubic(degs) != CubicClass.SPLITS_ALL:
            continue
        s = sum(e * cubic_residue_class(g, q) for e, g in zip(cand.exponents, generators)) % 3
        if s != 0:
            return q
    return None
