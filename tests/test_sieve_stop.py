"""The sieve stops once the span of its rows stops growing, or once it has
spent its budget of primes that decide nothing; on the fields below it
must lose nothing the rows of every prime up to the bound would give."""

import os
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import subfieldscan.modp as modp
import subfieldscan.scan as scan_mod
from subfieldscan.config import ScanConfig
from subfieldscan.nfroot import SELECT_PRIME_QUALIFYING, NumberField
from subfieldscan.poly import Poly, compositum_minpoly, normalize_input
from subfieldscan.ramify import candidate_ramified_primes
from subfieldscan.sieve import (REAL_PLACE_POINTS, PlaceBasis, Row, Span, frobenius_row,
                                kernel_vectors, real_place_row)
from subfieldscan.testkit import CYCLOTOMIC_QUAD_TRUTH, corpus_generate
from tests_poly_helpers import cyclic_cubic_compositum
from tests_sieve_helpers import value_at

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import QUAD, corpus_ops, generic_mix_ops  # noqa: E402

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
    # seed 102: the inert row at 173 that grows the span comes after 7 stale
    # class-deciding primes and 20 no-information ones; a budget of 25 that
    # counted every prime would stop at 157 and leave a solution too many
    ("quad", (-3, -2, 3, 1, -3, -3, 1), (3, 0, 1)),
]
GENERIC_EMPTY = [
    ("quad", (-3, 4, -4, -1, -4, 2, 1)),
    ("quad", (2, 2, 5, 1, -2, -4, 2, -5, 1)),
    ("quad", (1, 1, 4, -5, 2, -1, -2, 4, -4, 0, 1)),
    ("quad", (-5, -5, -5, 5, 3, -5, 1, 5, -2, 1, -5, 3, 1)),
    ("cubic", (-2, 2, 2, 3, -2, 0, 1)),
    ("cubic", (-2, 5, -2, 2, -1, -5, 1, 3, 5, 1)),
    # generic-mix fields of seeds 101, 106 and 107 whose rows leave only the
    # zero vector for 8 split primes or more before an inert prime makes
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
    return field, kind_type(field, candidate_ramified_primes(field, kind_type.ell).basis)


def _span(kind, rows=()):
    ell, width = kind.ell, kind.basis.width
    span = Span(ell, width + 1 if ell == 2 else width)
    for r in rows:
        _insert(span, r)
    return span


def _insert(span, row):
    span.insert((*row.coeffs, row.rhs) if span.ell == 2 else row.coeffs)


def _real_rows(field, kind):
    """The row of the real place, as a list of at most one row."""
    real = real_place_row(field.f, kind.basis)
    return [real[0]] if real else []


def _span_up_to(field, kind, bound):
    """The span of the real place's row and the rows of every prime up to
    bound; the walk ends once it is full."""
    span, width = _span(kind, _real_rows(field, kind)), kind.basis.width
    for q, degrees in scan_mod._frobenius_primes(field, kind.basis, bound):
        row = frobenius_row(q, degrees, field.n, kind.basis)
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
    # where few primes decide the class and the budget stops the sieve
    yield pytest.param(corpus_generate("multiquadratic", "2,3,5,7,11").poly, "quad",
                       id="multiquadratic-2,3,5,7,11-quad")
    yield pytest.param(cyclic_cubic_compositum((7, 13, 19)), "cubic", id="C3^3-7,13,19-cubic")


@pytest.mark.parametrize("poly, scan", _cases())
def test_stopped_sieve_spans_every_row_up_to_the_bound(poly, scan):
    field, kind = _setting(poly, scan)
    sieve = scan_mod.sieve_rows(field, kind.basis, BOUND)
    kept = _span(kind, _real_rows(field, kind) + sieve.rows).rows   # pivot -> row
    # the span the sieve hands to the scans is the span of its rows
    assert sieve.span.rows == kept
    assert kept == _span_up_to(field, kind, BOUND).rows


def test_scans_use_the_real_row_only_where_no_delta_is_negative(monkeypatch):
    # the corpus and generic-mix fields of the benchmark's seeds 1-3: where a
    # scan's sieve takes the real place's row, f is negative at its x and
    # the planted quadratic subfields are all real; a cubic basis never
    # gets the row
    calls = []

    def recording(f, basis):
        calls.append((f, basis, real_place_row(f, basis)))
        return calls[-1][2]

    monkeypatch.setattr(scan_mod, "real_place_row", recording)
    used = Counter()
    for seed in (1, 2, 3):
        for op in corpus_ops(seed) + generic_mix_ops(seed):
            calls.clear()
            run = scan_mod.quad_subfield_scan if op.kind == QUAD else scan_mod.cubic_subfield_scan
            report = run(Poly(list(op.poly)))
            [(f, basis, real)] = calls
            assert (basis.e == 2) == (op.kind == QUAD)
            used[op.kind, real is not None] += 1
            if real is not None:
                assert basis.e == 2 and value_at(f, real[1]) < 0
                assert all(d > 0 for d in op.truth)
                assert all(e.delta > 0 for e in report.subfields + report.excluded)
    assert used[QUAD, True] and used[QUAD, False] and not used["cubic", True]


@pytest.mark.parametrize("m", sorted(CYCLOTOMIC_QUAD_TRUTH))
def test_no_cyclotomic_field_gets_a_real_row(m):
    # Q(zeta_m) is totally imaginary: f is positive on R, shifted or not
    polys = [corpus_generate("cyclotomic", str(m)).poly]
    polys += [Poly(list(op.poly)) for op in corpus_ops(1)
              if op.label.startswith(f"cyclotomic:{m}:")]
    for f in polys:
        assert real_place_row(f, PlaceBasis(2, (2,))) is None
        assert all(value_at(f, Fraction(a, b)) > 0 for a, b in REAL_PLACE_POINTS)


@pytest.mark.parametrize("kind, params", [("multiquadratic", "2,3,5"),
                                          ("cubic-compositum", "7,q5")])
def test_no_row_below_the_first_prime(kind, params):
    # f has a real root, yet a sieve bound of 2 keeps neither the real
    # place's row nor a finite one: every candidate, negative ones too, is
    # left to the walk
    field, adapter = _setting(corpus_generate(kind, params).poly, "quad")
    real = real_place_row(field.f, adapter.basis)
    assert real and value_at(field.f, real[1]) < 0
    sieve = scan_mod.sieve_rows(field, adapter.basis, 2)
    assert sieve.rows == [] and sieve.span.rows == {}
    report = scan_mod.quad_subfield_scan(field.f, ScanConfig(sieve_prime_bound=2))
    assert report.sieve.solution_dim == adapter.basis.width
    assert any(e.delta < 0 for e in report.excluded)


@pytest.mark.skipif(not os.environ.get("SUBFIELDSCAN_STRETCH"),
                    reason="stretch run; set SUBFIELDSCAN_STRETCH=1 to enable")
@pytest.mark.parametrize("make, scan", [
    pytest.param(lambda: corpus_generate("multiquadratic", "2,3,5,7,11,13").poly, "quad",
                 id="multiquadratic-2,3,5,7,11,13-quad"),
    pytest.param(lambda: corpus_generate("multiquadratic", "2,3,5,7,11,13,17").poly, "quad",
                 id="multiquadratic-2,3,5,7,11,13,17-quad"),
    pytest.param(lambda: cyclic_cubic_compositum((7, 13, 19, 31)), "cubic",
                 id="C3^4-7,13,19,31-cubic"),
])
def test_stopped_sieve_spans_every_row_up_to_the_bound_at_scale(make, scan):
    # degrees 64, 128 and 81, where the budget stops the sieve; about 25 s
    test_stopped_sieve_spans_every_row_up_to_the_bound(make(), scan)


@pytest.mark.parametrize("kind, params, scan", [
    ("cyclotomic", "8", "quad"),          # every prime decides nothing or splits trivially
    ("cubic-compositum", "7,9", "cubic"), # no split prime gives a nonzero row
])
def test_sieve_without_rows_stops_early(monkeypatch, kind, params, scan):
    field, adapter = _setting(corpus_generate(kind, params).poly, scan)
    walk = list(scan_mod._frobenius_primes(field, adapter.basis, BOUND))
    # no prime below the bound gives a nontrivial row, so a sieve that waits
    # for rows runs one DDF at each of these primes
    rows = [frobenius_row(q, d, field.n, adapter.basis) for q, d in walk]
    assert all(row is None or row.trivial for row in rows)
    calls = []

    def ddf_degrees(f, q, *args, **kwargs):
        calls.append(q)
        return real(f, q, *args, **kwargs)

    real = modp.ddf_degrees
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    # a fresh field: the walk above left its factor degrees in this one
    sieve = scan_mod.sieve_rows(NumberField(field.f), adapter.basis, BOUND)
    assert sieve.rows == [] and 0 < sieve.walked < BOUND
    assert max(calls) == sieve.walked
    assert 4 * len(calls) <= len(walk)


@pytest.mark.parametrize("scan, poly", [
    pytest.param(scan, poly, id=f"{scan}-S{len(poly) - 1}-{i}")
    for i, (scan, poly) in enumerate(GENERIC_EMPTY)])
def test_field_without_subfield_stops_at_the_row_that_empties_the_solutions(scan, poly):
    field, kind = _setting(Poly(list(poly)), scan)
    sieve = scan_mod.sieve_rows(field, kind.basis, BOUND)
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


# x^2 + 1 has no real root, x^2 - 2 is negative at 0
NO_REAL_ROOT, REAL_ROOT = Poly([1, 0, 1]), Poly([-2, 0, 1])


def _made_up_sieve(monkeypatch, basis, plan, f=NO_REAL_ROOT):
    """sieve_rows over a made-up prime walk: None in plan is a prime that
    decides nothing, any other entry (coeffs, rhs) a class-deciding prime
    with that row (frobenius_row's two kinds of answer).  f gives the real
    place its row, or none."""
    walk = list(zip(range(101, 10_000, 2), plan))
    rows = {q: entry and Row(*entry, q) for q, entry in walk}
    monkeypatch.setattr(scan_mod, "_frobenius_primes",
                        lambda *args, **kwargs: ((q, {}) for q, _ in walk))
    monkeypatch.setattr(scan_mod, "frobenius_row", lambda q, *args: rows[q])
    sieve = scan_mod.sieve_rows(types.SimpleNamespace(n=0, f=f), basis, BOUND)
    return sieve, [q for q, _ in walk]


def test_stable_count_restarts_when_the_span_grows(monkeypatch):
    # a made-up prime walk over F_3, width 4: every row grows the span or
    # repeats a row before it; no-information primes (None) do not count
    basis = PlaceBasis(3, (7, 13, 19))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    plan = ([units[0]] + [units[0], None] * 7 + [units[1]] + [units[1], None] * 7
            + [units[2]] + [units[1]] * 7 + [units[0]] + [units[3]])
    sieve, primes = _made_up_sieve(monkeypatch, basis, [c and (c, 0) for c in plan])
    # units[2] grows the span; the seven repeats of units[1] and the one of
    # units[0] after it make eight in a row, and the sieve stops there
    stop = plan.index(units[2]) + 8
    assert sieve.walked == primes[stop]
    assert [r.coeffs for r in sieve.rows] == [c for c in plan[:stop + 1] if c is not None]


def test_budget_stops_after_as_many_no_information_primes_as_select_prime_takes(monkeypatch):
    # over F_3, width 4; None is a no-information prime
    basis = PlaceBasis(3, (7, 13, 19))
    units = [(tuple(int(i == j) for j in range(4)), 0) for i in range(4)]
    idle = [None] * (SELECT_PRIME_QUALIFYING - 1)
    # 30 no-information primes with no stale class-deciding prime since the span
    # grew; 24 after a stale one, then a growth that restarts the count;
    # a stale prime and the 25th no-information prime after that growth stop it
    plan = ([units[0]] + [None] * 30 + [units[1], units[1]] + idle + [units[2], units[2]]
            + idle + [None] * 5)
    sieve, primes = _made_up_sieve(monkeypatch, basis, plan)
    stop = len(plan) - 5
    assert sieve.walked == primes[stop]
    assert [r.coeffs for r in sieve.rows] == [units[i][0] for i in (0, 1, 1, 2, 2)]
    # the 30 no-information primes count once a stale prime comes: it stops there
    plan = [units[0]] + [None] * 30 + [units[0], units[1]]
    sieve, primes = _made_up_sieve(monkeypatch, basis, plan)
    assert sieve.walked == primes[31]


@pytest.mark.parametrize("f", [NO_REAL_ROOT, REAL_ROOT], ids=["no-real-root", "real-root"])
def test_real_row_stands_in_for_a_stale_prime(monkeypatch, f):
    # over F_2, width 4 with the right-hand side last: with the real place's
    # row in the span, the 25th no-information prime since the span last
    # grew stops the sieve, though no class-deciding prime has left the
    # span as it was; without it the sieve walks to the bound
    basis = PlaceBasis(2, (2, 3, 5))
    idle = [None] * (SELECT_PRIME_QUALIFYING - 1)
    plan = idle + [((0, 1, 0, 0), 0)] + idle + [((0, 0, 1, 0), 0)] + idle + [None, None]
    sieve, primes = _made_up_sieve(monkeypatch, basis, plan, f)
    assert sieve.walked == (primes[-2] if f is REAL_ROOT else BOUND)
    assert [r.coeffs for r in sieve.rows] == [(0, 1, 0, 0), (0, 0, 1, 0)]


@pytest.mark.parametrize("f", [NO_REAL_ROOT, REAL_ROOT], ids=["no-real-root", "real-root"])
def test_budget_waits_while_only_zero_solves_the_quadratic_rows(monkeypatch, f):
    # over F_2, width 2 with the right-hand side last: once the rows leave
    # only 0, no-information primes (None) and split primes that add
    # nothing do not stop the sieve, the real place's row or none; the
    # inert row that makes the system inconsistent does
    basis = PlaceBasis(2, (2,))
    plan = ([((1, 0), 0), ((0, 1), 0)] + ([None] * 20 + [((1, 1), 0)]) * 3
            + [None] * 30 + [((0, 0), 1), None])
    sieve, primes = _made_up_sieve(monkeypatch, basis, plan, f)
    assert sieve.walked == primes[len(plan) - 2]
    assert sieve.rows[-1].rhs == 1 and 2 in sieve.span.rows
