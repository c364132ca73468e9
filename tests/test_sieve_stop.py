"""The sieve stops once the span of its rows stops growing; it must lose
nothing the rows of every prime up to the bound would give."""

import types

import pytest

import subfieldscan.modp as modp
import subfieldscan.scan as scan_mod
from subfieldscan.config import ScanConfig
from subfieldscan.nfroot import NumberField
from subfieldscan.poly import Poly, compositum_minpoly, normalize_input
from subfieldscan.ramify import candidate_ramified_primes
from subfieldscan.sieve import PlaceBasis, Row, Span, frobenius_row, kernel_vectors
from subfieldscan.testkit import CYCLOTOMIC_QUAD_TRUTH, corpus_generate

CORPUS = ([("cyclotomic", str(m), "quad") for m in CYCLOTOMIC_QUAD_TRUTH]
          + [("cyclotomic", "7", "cubic")]
          + [("multiquadratic", p, "quad") for p in ("2,3", "2,3,5", "2,3,5,7")]
          + [("cubic-compositum", "7,9", "cubic"), ("cubic-compositum", "7,q5", "quad"),
             ("cubic-compositum", "7,q5", "cubic")])

# the generic S_k polynomials (coefficients from the constant term up) of
# the benchmark's generic-mix workload at seed 1, with the subfield planted
# in each compositum: x^2 - d, or a Shanks cubic x^3 - a x^2 - (a + 3) x - 1
GENERIC_PLANTED = [
    ("quad", (1, 3, 0, 4, 0, 2, 1), (3, 0, 1)),
    ("quad", (-1, 5, 3, 4, -5, 1, 3, -3, 1), (-5, 0, 1)),
    ("quad", (3, 3, -2, 1, -5, 2, 0, 4, 3, -2, 1), (7, 0, 1)),
    ("quad", (3, 1, 2, 0, 1, 0, -5, 3, 3, 4, 4, 0, 1), (-2, 0, 1)),
    ("cubic", (2, 4, -5, -2, 5, -3, 1), (-1, -2, 1, 1)),
    ("cubic", (3, 4, -3, -4, 3, -1, -5, 1), (-1, -4, -1, 1)),
]
GENERIC_EMPTY = [
    ("quad", (-3, 4, -4, -1, -4, 2, 1)),
    ("quad", (2, 2, 5, 1, -2, -4, 2, -5, 1)),
    ("quad", (1, 1, 4, -5, 2, -1, -2, 4, -4, 0, 1)),
    ("quad", (-5, -5, -5, 5, 3, -5, 1, 5, -2, 1, -5, 3, 1)),
    ("cubic", (-2, 2, 2, 3, -2, 0, 1)),
    ("cubic", (-2, 5, -2, 2, -1, -5, 1, 3, 5, 1)),
    # generic-mix fields of seeds 101, 106 and 107 whose rows leave only the
    # zero vector for 8 SPLIT primes or more before an INERT prime makes
    # them inconsistent
    ("quad", (5, 0, 5, -1, 1, 1, -2, 1, -4, 1, 5, 1, 1)),
    ("quad", (2, 3, -2, 3, -5, -2, -4, 1, -4, 0, 1)),
    ("quad", (-3, -2, 0, -4, -4, -3, -4, 2, -2, -3, 2, -1, 1)),
]


# the sieve bound of a default-config scan
BOUND = ScanConfig().sieve_prime_bound


def _setting(poly, scan):
    """(field, kind adapter) exactly as a default-config scan sets them up."""
    f, _ = normalize_input(poly)
    field = NumberField(f)
    kind_type = scan_mod._Quad if scan == "quad" else scan_mod._Cubic
    cs = candidate_ramified_primes(f, kind_type.ell)
    return field, kind_type(field, cs)


def _span(kind, rows=()):
    ell, width = kind.ell, kind.basis.width
    span = Span(ell, width + 1 if ell == 2 else width)
    for r in rows:
        _insert(span, r)
    return span


def _insert(span, row):
    span.insert((*row.coeffs, row.rhs) if span.ell == 2 else row.coeffs)


def _span_up_to(field, kind, bound):
    """The span of the rows of every prime up to bound; the walk ends once
    it is full."""
    span, width = _span(kind), kind.basis.width
    for q, degrees, cubic_row in scan_mod._frobenius_primes(field, kind.basis, kind.gcd_value,
                                                            bound):
        row = frobenius_row(q, degrees, field.n, kind.basis, cubic_row)
        if row is not None:
            _insert(span, row)
            if (width in span.rows) if kind.ell == 2 else len(span.rows) == width:
                break
    return span


def _cases():
    for kind, params, scan in CORPUS:
        yield pytest.param(corpus_generate(kind, params).poly, scan, id=f"{kind}-{params}-{scan}")
    for i, (scan, base, planted) in enumerate(GENERIC_PLANTED):
        poly = compositum_minpoly(Poly(list(planted)), Poly(list(base)))
        yield pytest.param(poly, scan, id=f"generic-{scan}-{i}")


@pytest.mark.parametrize("poly, scan", _cases())
def test_stopped_sieve_spans_every_row_up_to_the_bound(poly, scan):
    field, kind = _setting(poly, scan)
    sieve = scan_mod.sieve_rows(field, kind.basis, kind.gcd_value, BOUND)
    kept = _span(kind, sieve.rows).rows   # pivot -> row
    # the span the sieve hands to the scans is the span of its rows
    assert sieve.span.rows == kept
    assert kept == _span_up_to(field, kind, BOUND).rows


@pytest.mark.parametrize("kind, params, scan", [
    ("cyclotomic", "8", "quad"),          # every prime is NO_INFO or a trivial SPLIT
    ("cubic-compositum", "7,9", "cubic"), # no SPLITS_ALL prime gives a nonzero row
])
def test_sieve_without_rows_stops_early(monkeypatch, kind, params, scan):
    field, adapter = _setting(corpus_generate(kind, params).poly, scan)
    walk = list(scan_mod._frobenius_primes(field, adapter.basis, adapter.gcd_value, BOUND))
    # no prime below the bound gives a row, so a sieve that waits for rows
    # runs one DDF at each of these primes
    assert not any(frobenius_row(q, d, field.n, adapter.basis, r) for q, d, r in walk)
    calls = []

    def ddf_degrees(f, q, *args, **kwargs):
        calls.append(q)
        return real(f, q, *args, **kwargs)

    real = modp.ddf_degrees
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    # a fresh field: the walk above left its factor degrees in this one
    sieve = scan_mod.sieve_rows(NumberField(field.f), adapter.basis, adapter.gcd_value, BOUND)
    assert sieve.rows == [] and 0 < sieve.walked < BOUND
    assert max(calls) == sieve.walked
    assert 4 * len(calls) <= len(walk)


@pytest.mark.parametrize("scan, poly", [
    pytest.param(scan, poly, id=f"{scan}-S{len(poly) - 1}-{i}")
    for i, (scan, poly) in enumerate(GENERIC_EMPTY)])
def test_field_without_subfield_stops_at_the_row_that_empties_the_solutions(scan, poly):
    field, kind = _setting(Poly(list(poly)), scan)
    sieve = scan_mod.sieve_rows(field, kind.basis, kind.gcd_value, BOUND)
    assert sieve.walked == sieve.rows[-1].prime
    width = kind.basis.width
    before = _span(kind, sieve.rows[:-1])
    if scan == "quad":
        # inconsistent: the right-hand-side column is a pivot
        assert width not in before.rows
        assert width in sieve.span.rows
    else:
        assert list(kernel_vectors(before))
        assert list(kernel_vectors(sieve.span)) == []


def test_stable_count_restarts_when_the_span_grows(monkeypatch):
    # a made-up prime walk over F_3, width 4: every row grows the span or
    # repeats a row before it; NO_INFO primes (all degrees 3) do not count
    basis = PlaceBasis(3, (7, 13, 19))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    plan = ([units[0]] + [units[0], None] * 7 + [units[1]] + [units[1], None] * 7
            + [units[2]] + [units[1]] * 7 + [units[0]] + [units[3]])
    walk = [(q, {3: 2} if coeffs is None else {1: 6}, Row(coeffs or units[0], 0, q))
            for q, coeffs in zip(range(101, 1000, 2), plan)]
    monkeypatch.setattr(scan_mod, "_frobenius_primes", lambda *args, **kwargs: iter(walk))
    field = types.SimpleNamespace(n=6)
    sieve = scan_mod.sieve_rows(field, basis, 1, BOUND)
    # units[2] grows the span; the seven repeats of units[1] and the one of
    # units[0] after it make eight in a row, and the sieve stops there
    stop = plan.index(units[2]) + 8
    assert sieve.walked == walk[stop][0]
    assert [r.coeffs for r in sieve.rows] == [c for c in plan[:stop + 1] if c is not None]
