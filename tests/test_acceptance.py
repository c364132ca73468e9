"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The optional degree-128
stretch run is enabled by setting SUBFIELDSCAN_STRETCH=1 (it is not part
of the gate and takes much longer).
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from subfieldscan.arith import factor_integer
from subfieldscan.config import ScanConfig
from subfieldscan.lattice import lll_reduce
from subfieldscan.modp import (ddf_degrees, degree_counts, derivative, from_poly, mul, pdivmod,
                               pmod, split_stages, squarefree_mod_p, trim)
from subfieldscan.nfroot import (NumberField, RootCertificate, _lift_factors, _lift_root,
                                 find_root, integer_root, select_prime, verify_certificate)
from subfieldscan.poly import Poly, disc_poly, eth_root_coeffs
from subfieldscan.ramify import candidate_ramified_primes
from subfieldscan.scan import (STATUS_CERTIFIED_ABSENT, absence_certificate_search,
                               cubic_subfield_scan, quad_subfield_scan)
from subfieldscan.sieve import Row, canonical_f3, kernel_vectors, vector_satisfies
from subfieldscan.testkit import (CYCLOTOMIC_QUAD_TRUTH, corpus_generate,
                                  multiquadratic_certificates)
from subfieldscan.cli import canonical_report_bytes
from tests_lattice_helpers import gram_schmidt
from tests_poly_helpers import eth_root_newton, poly_from_power_sums, power_sums
from tests_sieve_helpers import f2_solutions, row_span

# ramified primes of the coded cyclic cubic fields; conductors certified by
# cross root tests (X^3-21X+7 has a proved root in Q(2cos(2pi/7)), the two
# conductor-63 polynomials have certified absences in both the conductor-7
# and conductor-9 fields)
CUBIC_CONDUCTOR_PRIMES = {
    (1, -3, 0, 1): {3},         # X^3 - 3X + 1, conductor 9
    (-35, -21, 0, 1): {3, 7},   # X^3 - 21X - 35, conductor 63
    (7, -21, 0, 1): {7},        # X^3 - 21X + 7, conductor 7
    (-98, -147, 0, 1): {3, 7},  # X^3 - 147X - 98, conductor 63
}


def _pass(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


def test_criterion_1_cyclotomic_suite():
    t0 = time.perf_counter()
    for m, truth in CYCLOTOMIC_QUAD_TRUTH.items():
        entry = corpus_generate("cyclotomic", str(m))
        rep = quad_subfield_scan(entry.poly)
        assert sorted(e.delta for e in rep.subfields) == sorted(truth), f"m={m}"
        assert rep.has_unproven() is False
        assert all(e.status == "proved" for e in rep.subfields)
        rep.check_invariants()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"cyclotomic suite took {elapsed:.2f}s"
    _pass(1, f"7 cyclotomic fields, exact truth sets, verified certificates "
             f"({elapsed:.2f}s < 5s)")


def test_criterion_2_multiquadratic_degree8():
    t0 = time.perf_counter()
    entry = corpus_generate("multiquadratic", "2,3,5")
    rep = quad_subfield_scan(entry.poly)
    elapsed = time.perf_counter() - t0
    assert sorted(e.delta for e in rep.subfields) == [2, 3, 5, 6, 10, 15, 30]
    assert rep.direct_tests == 3
    rep.check_invariants()
    assert elapsed < 30.0, f"degree-8 scan took {elapsed:.2f}s"
    _pass(2, f"degree 8: 7 subfields, exactly 3 direct tests ({elapsed:.2f}s < 30s)")


def test_criterion_3_multiquadratic_degree32():
    t0 = time.perf_counter()
    entry = corpus_generate("multiquadratic", "2,3,5,7,11")
    field = NumberField(entry.poly)
    # the 2^15-assignment case: the selected prime leaves more sign
    # choices than the 1024 an enumeration could afford
    config = ScanConfig()
    pdata = select_prime(field, Poly([-2, 0, 1]))
    assert 2 ** (pdata.r - 1) > 1024
    probe = find_root(field, Poly([-2, 0, 1]))
    # no integer root: the knapsack answered
    assert probe.status == "proved" and integer_root(Poly([-2, 0, 1])) is None

    rep = quad_subfield_scan(entry.poly, config)
    elapsed = time.perf_counter() - t0
    assert sorted(e.delta for e in rep.subfields) == sorted(entry.quad)
    assert len(rep.subfields) == 31
    assert rep.direct_tests == 5
    rep.check_invariants(field)
    assert elapsed < 600.0, f"degree-32 scan took {elapsed:.1f}s"
    _pass(3, f"degree 32: 31 subfields, 5 direct tests, knapsack over 2^15 choices "
             f"({elapsed:.1f}s < 600s)")


@pytest.mark.skipif(not os.environ.get("SUBFIELDSCAN_STRETCH"),
                    reason="stretch run; set SUBFIELDSCAN_STRETCH=1 to enable")
def test_criterion_4_stretch_degree128():
    t0 = time.perf_counter()
    entry = corpus_generate("multiquadratic", "2,3,5,7,11,13,17")
    rep = quad_subfield_scan(entry.poly)
    elapsed = time.perf_counter() - t0
    assert len(rep.subfields) == 127
    assert rep.direct_tests == 7
    assert sorted(e.delta for e in rep.subfields) == sorted(entry.quad)
    _pass(4, f"degree 128: 127 subfields, 7 direct tests ({elapsed:.0f}s)")


def test_criterion_5_cubic_suite():
    t0 = time.perf_counter()
    entry9 = corpus_generate("cubic-compositum", "7,9")
    rep9 = cubic_subfield_scan(entry9.poly)
    assert len(rep9.subfields) == 4
    assert {tuple(e.minpoly.coeffs) for e in rep9.subfields} == \
        {tuple(m.coeffs) for m in entry9.cubic}
    rep9.check_invariants()

    entry6 = corpus_generate("cubic-compositum", "7,q5")
    rep6 = cubic_subfield_scan(entry6.poly)
    assert len(rep6.subfields) == 1
    assert rep6.subfields[0].minpoly == entry6.cubic[0]
    rep6.check_invariants()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"cubic suite took {elapsed:.2f}s"
    _pass(5, f"degree 9 gives 4 cyclic cubics, degree 6 gives 1 ({elapsed:.2f}s < 60s)")


def _corpus_for_ramification():
    entries = [corpus_generate("cyclotomic", str(m)) for m in CYCLOTOMIC_QUAD_TRUTH]
    entries += [corpus_generate("multiquadratic", p) for p in ("2,3", "2,3,5", "2,3,5,7,11")]
    entries += [corpus_generate("cubic-compositum", "7,9"),
                corpus_generate("cubic-compositum", "7,q5")]
    return entries


def test_criterion_6_ramification_shortcut():
    entries = _corpus_for_ramification()
    factoring_time = 0.0
    for entry in entries:
        f = entry.poly
        for e in (2, 3):
            if f.degree % e != 0:
                continue
            cs = candidate_ramified_primes(NumberField(f), e)
            t0 = time.perf_counter()
            factor_integer(cs.gcd_value)
            factoring_time += time.perf_counter() - t0
            disc = disc_poly(f)
            for p in cs.tame_primes:
                assert disc % p == 0, f"{p} does not divide disc for {f}"
            cands = set(cs.tame_primes) | set(cs.wild_primes)
            if e == 2:
                for delta in entry.quad:
                    for p in factor_integer(delta).primes():
                        if p != 2:
                            assert p in cands, (f, delta, p)
            else:
                for minpoly in entry.cubic:
                    for p in CUBIC_CONDUCTOR_PRIMES[tuple(minpoly.coeffs)]:
                        if p != 2:
                            assert p in cands, (f, minpoly, p)
    assert factoring_time < 1.0, f"gcd factoring took {factoring_time:.3f}s"
    _pass(6, f"tame candidates divide disc(f); all truly ramified odd primes "
             f"covered; gcd factoring {factoring_time * 1000:.0f}ms < 1s")


def test_criterion_7a_eth_root_agreement():
    rng = random.Random(100)
    for _ in range(1000):
        e = rng.choice([2, 3, 5])
        n = rng.randint(1, 12 // e)
        g = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] + [1])
        f = g**e
        assert eth_root_coeffs(f, e) == g
        assert eth_root_newton(f, e) == g
    _pass("7a", "eth_root_coeffs and eth_root_newton agree on 1000 random cases")


def test_criterion_7b_newton_roundtrip():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 20)
        f = Poly([rng.randint(-9, 9) for _ in range(n)] + [1])
        assert poly_from_power_sums(power_sums(f, n)) == f
    _pass("7b", "Newton identities round-trip on random monic polynomials")


def test_criterion_7c_ddf_degree_sums():
    rng = random.Random(102)
    checked = 0
    while checked < 150:
        p = rng.choice([3, 5, 7, 11, 13, 101])
        f = Poly([rng.randint(-30, 30) for _ in range(rng.randint(2, 10))] + [1])
        if not squarefree_mod_p(f, p):
            continue
        stages = ddf_degrees(f, p)
        checked += 1
        degs = degree_counts(stages)
        assert sum(d * c for d, c in degs.items()) == f.degree
        factors = split_stages(stages, p)
        by_deg = {}
        for fac in factors:
            by_deg[len(fac) - 1] = by_deg.get(len(fac) - 1, 0) + 1
        assert by_deg == degs
    _pass("7c", "DDF degree multisets sum to deg(f) and match full factorization")


def test_criterion_7d_newton_lifts():
    # the lifts the root test runs: the factors of f mod p and the simple
    # roots of a polynomial, from F_p to Z/p^k
    rng = random.Random(103)
    checked = 0
    while checked < 60:
        p = rng.choice([3, 5, 7, 11])
        f = Poly([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))] + [1])
        if not squarefree_mod_p(f, p):
            continue
        factors = split_stages(ddf_degrees(f, p), p)
        if len(factors) < 2:
            continue
        checked += 1
        k = rng.randint(2, 7)
        m = p**k
        f_m, fp_m = from_poly(f, m), from_poly(f.derivative(), m)
        lifted = _lift_factors(NumberField(f), factors, p, k)
        assert len(lifted) == len(factors)
        product = [1]
        for i, g in enumerate(lifted):
            assert g[-1] == 1
            assert trim([c % p for c in g]) == factors[i]
            product = mul(product, g, m)
            # the knapsack column (f/g)*g' is f' modulo g and 0 modulo the others
            column = mul(pdivmod(f_m, g, m)[0], derivative(g, m), m)
            for j, g2 in enumerate(lifted):
                assert pmod(column, g2, m) == (pmod(fp_m, g2, m) if i == j else [])
        assert product == f_m
        for fac in factors:
            if len(fac) == 2:
                s = _lift_root(f, -fac[0], p, k)
                assert f.evaluate(s) % m == 0
    _pass("7d", "lifted factors and roots hold mod p^k on random instances")


def test_criterion_7e_lll_postconditions():
    rng = random.Random(104)
    done = 0
    while done < 50:
        n = rng.randint(2, 6)
        basis = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        try:
            red = lll_reduce(basis)
        except Exception:
            continue
        done += 1
        bstar, mu = gram_schmidt(red)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for i in range(1, n):
            lhs = (Fraction(3, 4) - mu[i][i - 1] ** 2) * sum(x * x for x in bstar[i - 1])
            assert lhs <= sum(x * x for x in bstar[i])
        # unimodular change of basis: reduced vectors lie in the original
        # lattice and vice versa (checked via exact solving)
        from tests_lattice_helpers import change_of_basis, det_fraction
        t = change_of_basis(basis, red)
        assert t is not None
        assert all(c.denominator == 1 for row in t for c in row)
        assert abs(det_fraction(t)) == 1
    _pass("7e", "LLL outputs size-reduced, Lovasz-satisfying, unimodular transforms")


def test_criterion_7f_certificates():
    primes = (2, 3, 5)
    entry = corpus_generate("multiquadratic", "2,3,5")
    field = NumberField(entry.poly)
    certs = multiquadratic_certificates(primes)
    for d, y in certs.items():
        h = Poly([-d, 0, 1])
        assert verify_certificate(field, h, RootCertificate(y, h))
        for i in range(len(y)):
            bad = list(y)
            bad[i] += 1
            assert not verify_certificate(field, h, RootCertificate(tuple(bad), h))
    _pass("7f", "certificate check accepts all 7 ground-truth roots and rejects "
               "every single-coefficient mutation")


def test_criterion_7g_linear_solvers():
    rng = random.Random(105)
    for _ in range(200):
        width = rng.randint(1, 12)
        rows = [Row(tuple(rng.randint(0, 1) for _ in range(width)), rng.randint(0, 1), 0)
                for _ in range(rng.randint(0, 6))]
        sols = f2_solutions(row_span(rows, 2, width), width)
        brute = {v for v in itertools.product((0, 1), repeat=width)
                 if all(vector_satisfies(r, v, 2) for r in rows)} if width <= 12 else None
        if sols is None:
            assert brute == set()
        else:
            got = set(sols)
            for v in got:
                assert all(vector_satisfies(r, v, 2) for r in rows)
            assert got == brute
    for _ in range(150):
        width = rng.randint(1, 5)
        rows = [Row(tuple(rng.randint(0, 2) for _ in range(width)), 0, 0)
                for _ in range(rng.randint(0, 4))]
        reps = list(kernel_vectors(row_span(rows, 3, width)))
        for v in reps:
            assert all(vector_satisfies(r, v, 3) for r in rows)
        brute = {canonical_f3(v) for v in itertools.product((0, 1, 2), repeat=width)
                 if any(v) and all(vector_satisfies(r, v, 3) for r in rows)}
        assert set(reps) == brute
    _pass("7g", "F2/F3 solution sets verified by substitution and brute force")


def test_criterion_7h_determinism():
    f = corpus_generate("multiquadratic", "2,3").poly
    blobs = {canonical_report_bytes(quad_subfield_scan(f, ScanConfig()))
             for _ in range(3)}
    assert len(blobs) == 1
    f9 = corpus_generate("cubic-compositum", "7,9").poly
    blobs = {canonical_report_bytes(cubic_subfield_scan(f9, ScanConfig()))
             for _ in range(2)}
    assert len(blobs) == 1
    _pass("7h", "byte-identical reports for fixed input and config")


def test_criterion_8_negative_certification():
    field = NumberField(Poly.from_desc([1, 0, 0, 0, 1]))
    entry = absence_certificate_search(field, 3)
    assert entry.status == STATUS_CERTIFIED_ABSENT
    assert entry.witness_prime == 17
    _pass(8, "Q[X]/(X^4+1), delta=3 certified absent with witness prime 17")
