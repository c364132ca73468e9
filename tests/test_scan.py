import os

import pytest
from hypothesis import given, settings, strategies as st

from subfieldscan import modp
from subfieldscan.config import ScanConfig
from subfieldscan.nfroot import NumberField, RootCertificate
from subfieldscan.poly import Poly
from subfieldscan.scan import (STATUS_CERTIFIED_ABSENT, STATUS_TWIST_EXCLUDED,
                               STATUS_UNPROVEN_ABSENT, absence_certificate_search, cubic_subfield_scan,
                               quad_subfield_scan)
from subfieldscan.sieve import Span
from subfieldscan.testkit import corpus_generate
from tests_poly_helpers import (cyclic_cubic_compositum, fprime_inverse_q, mixed_compositum,
                                rational_twist_product)

ZETA8 = Poly.from_desc([1, 0, 0, 0, 1])


def deltas(report):
    return sorted(e.delta for e in report.subfields)


def scaled(field, x):
    """The scaled root f' * x mod f of an element x of the field."""
    return (x * field.fprime) % field.f


@pytest.mark.parametrize("scan, f", [
    (quad_subfield_scan, Poly.from_desc([1, -1, -1, 1])),   # (x - 1)^2 (x + 1), odd degree
    (cubic_subfield_scan, Poly.from_desc([1, 0, -1]) ** 2),  # degree 4, prime to 3
])
def test_repeated_root_rejected_before_any_answer(scan, f):
    # the field is built before the degree decides that no subfield of the
    # kind can exist: an input with a repeated root gets no answer
    with pytest.raises(ValueError, match="repeated roots"):
        scan(f)


def test_zeta8_quad():
    rep = quad_subfield_scan(ZETA8)
    assert deltas(rep) == [-2, -1, 2]
    rep.check_invariants()
    field = NumberField(rep.poly)
    by_delta = {e.delta: e for e in rep.subfields}
    # certificates are f' times theta^2, theta -+ theta^3 up to root choice
    for d, expect in ((-1, Poly([0, 0, 1])), (2, Poly([0, 1, 0, -1])),
                      (-2, Poly([0, 1, 0, 1]))):
        y = Poly(by_delta[d].certificate.scaled_root)
        assert y in (scaled(field, expect), scaled(field, -expect))


def test_quadratic_field_itself():
    rep = quad_subfield_scan(Poly.from_desc([1, 0, -5]))
    assert deltas(rep) == [5]
    # non-squarefree radicand: Q[X]/(X^2+4) is Q(i)
    rep = quad_subfield_scan(Poly.from_desc([1, 0, 4]))
    assert deltas(rep) == [-1]


def test_multiquadratic_degree16():
    entry = corpus_generate("multiquadratic", "2,3,5,7")
    rep = quad_subfield_scan(entry.poly)
    assert deltas(rep) == entry.quad
    assert len(rep.subfields) == 15
    assert rep.direct_tests == 4


def test_sqrt2_sqrt3_field():
    rep = quad_subfield_scan(Poly.from_desc([1, 0, -10, 0, 1]))
    assert deltas(rep) == [2, 3, 6]
    field = NumberField(rep.poly)
    by_delta = {e.delta: e for e in rep.subfields}
    from fractions import Fraction

    sqrt2 = Poly([0, Fraction(-9, 2), 0, Fraction(1, 2)])   # (theta^3 - 9 theta)/2
    sqrt3 = Poly([0, Fraction(11, 2), 0, Fraction(-1, 2)])  # (11 theta - theta^3)/2
    y2 = Poly(by_delta[2].certificate.scaled_root)
    y3 = Poly(by_delta[3].certificate.scaled_root)
    assert y2 in (scaled(field, sqrt2), scaled(field, -sqrt2))
    assert y3 in (scaled(field, sqrt3), scaled(field, -sqrt3))


def test_multiquadratic_degree8_direct_test_economy():
    entry = corpus_generate("multiquadratic", "2,3,5")
    rep = quad_subfield_scan(entry.poly)
    assert deltas(rep) == entry.quad
    assert rep.direct_tests == 3
    assert not rep.excluded
    rep.check_invariants()


def test_scaled_input_same_field():
    from fractions import Fraction

    rep = quad_subfield_scan(Poly.from_desc([4, 0, -40, 0, 4]))
    assert deltas(rep) == [2, 3, 6]
    rep2 = quad_subfield_scan(Poly.from_desc([1, 0, Fraction(-5, 2), 0, Fraction(1, 16)]))
    assert rep2.scale > 1
    assert deltas(rep2) == [2, 3, 6]


def test_odd_degree_empty():
    rep = quad_subfield_scan(Poly.from_desc([1, 0, 0, -2]))
    assert rep.subfields == [] and rep.excluded == []


def test_unproven_without_sieve_then_certified_with(monkeypatch):
    import subfieldscan.scan as scan_mod

    phi12 = Poly.from_desc([1, 0, -1, 0, 1])
    # no sieve rows and no absence primes: false candidates stay unproven
    with monkeypatch.context() as m:
        m.setattr(scan_mod, "ABSENCE_PRIME_BOUND", 3)
        rep = quad_subfield_scan(phi12, ScanConfig(sieve_prime_bound=2))
    assert deltas(rep) == [-3, -1, 3]
    assert rep.has_unproven()
    statuses = {e.status for e in rep.excluded}
    assert STATUS_UNPROVEN_ABSENT in statuses
    # with the default absence search every exclusion is certified
    rep2 = quad_subfield_scan(phi12, ScanConfig(sieve_prime_bound=2))
    assert deltas(rep2) == [-3, -1, 3]
    assert not rep2.has_unproven()
    for e in rep2.excluded:
        assert e.status in (STATUS_CERTIFIED_ABSENT, STATUS_TWIST_EXCLUDED)
        if e.status == STATUS_CERTIFIED_ABSENT:
            assert e.witness_prime is not None
    # the sieve alone removes all false candidates
    rep3 = quad_subfield_scan(phi12)
    assert deltas(rep3) == [-3, -1, 3]
    assert rep3.excluded == []


def test_cubic_composites():
    entry = corpus_generate("cubic-compositum", "7,9")
    rep = cubic_subfield_scan(entry.poly)
    assert len(rep.subfields) == 4
    assert {tuple(e.minpoly.coeffs) for e in rep.subfields} == \
        {tuple(m.coeffs) for m in entry.cubic}
    rep.check_invariants()

    entry6 = corpus_generate("cubic-compositum", "7,q5")
    rep6 = cubic_subfield_scan(entry6.poly)
    assert len(rep6.subfields) == 1
    assert rep6.subfields[0].minpoly == entry6.cubic[0]


def _count_find_root(monkeypatch):
    """The (h, status) of every root test in L the scans run (find_root)."""
    import subfieldscan.scan as scan_mod

    calls, real = [], scan_mod.find_root

    def find_root(field, h, *args, **kwargs):
        result = real(field, h, *args, **kwargs)
        calls.append((h, result.status))
        return result

    monkeypatch.setattr(scan_mod, "find_root", find_root)
    return calls


def test_cubic_compositum_of_three_conductors(monkeypatch):
    # C3^3 of degree 27: 13 cyclic cubic subfields, 3 of them tested
    # directly, and those 3 are the only root tests in L: the other 10 are
    # twist products.  The scan's minimal polynomials are Kummer-normalised,
    # not the Gauss period cubics, so the count is what is compared.
    calls = _count_find_root(monkeypatch)
    rep = cubic_subfield_scan(cyclic_cubic_compositum((7, 13, 19)))
    assert len(rep.subfields) == 13 and rep.direct_tests == len(calls) == 3


@pytest.mark.skipif(not os.environ.get("SUBFIELDSCAN_STRETCH"),
                    reason="stretch run; set SUBFIELDSCAN_STRETCH=1 to enable")
def test_cubic_compositum_of_four_conductors(monkeypatch):
    # C3^4 of degree 81: each root test has 27 completions; 4 root tests in
    # L, and 36 twist products
    calls = _count_find_root(monkeypatch)
    rep = cubic_subfield_scan(cyclic_cubic_compositum((7, 13, 19, 31)))
    assert len(rep.subfields) == 40 and rep.direct_tests == len(calls) == 4


def test_mixed_compositum_of_degree_36(monkeypatch):
    # C3^2 x V4 (conductors 7 and 13, with sqrt 2 and sqrt 5; 48-bit
    # coefficients): the quadratic scan proves sqrt 2 and sqrt 5 by root
    # tests and gets sqrt 10 as a product; f has a real root, so the real
    # place's row leaves no negative delta to test; the cubic scan finds 4
    # cyclic cubic subfields from 2 root tests
    from subfieldscan.nfroot import PROVED

    calls = _count_find_root(monkeypatch)
    f = mixed_compositum((7, 13), (2, 5))
    assert f.degree == 36 and max(abs(c) for c in f.coeffs).bit_length() == 48
    rep = quad_subfield_scan(f)
    assert deltas(rep) == [2, 5, 10] and rep.direct_tests == len(calls) == 2
    assert all(e.delta > 0 for e in rep.subfields + rep.excluded)
    assert [h for h, status in calls if status == PROVED] == [Poly([-2, 0, 1]), Poly([-5, 0, 1])]
    del calls[:]
    rep = cubic_subfield_scan(f)
    assert len(rep.subfields) == 4 and rep.direct_tests == len(calls) == 2


@pytest.mark.skipif(not os.environ.get("SUBFIELDSCAN_STRETCH"),
                    reason="stretch run; set SUBFIELDSCAN_STRETCH=1 to enable")
def test_mixed_compositum_of_degree_72():
    # C3^2 x C2^3 (adding sqrt 13; 129-bit coefficients): the 7 quadratic
    # subfields, 4 of them twist products
    rep = quad_subfield_scan(mixed_compositum((7, 13), (2, 5, 13)))
    assert rep.degree == 72
    assert deltas(rep) == [2, 5, 10, 13, 26, 65, 130] and rep.direct_tests == 3


def test_cubic_span_member_without_root_is_an_error(monkeypatch):
    # in the C3 x C3 compositum the first two root tests find subfields that
    # generate the other two; a twist product that is no root raises (from
    # the scan's one check of every certificate) instead of becoming an
    # exclusion
    import subfieldscan.scan as scan_mod

    merge = scan_mod._Cubic.merge

    def corrupted_merge(self, a, b, total):
        return modp.add(merge(self, a, b, total), [1], self.ring()[0].m)

    monkeypatch.setattr(scan_mod._Cubic, "merge", corrupted_merge)
    entry = corpus_generate("cubic-compositum", "7,9")
    with pytest.raises(AssertionError, match="certificate fails"):
        cubic_subfield_scan(entry.poly)


@pytest.mark.parametrize("scan, kind, params, bound, where", [
    (quad_subfield_scan, "cyclotomic", "12", 10_000, "sieve_rows"),
    (quad_subfield_scan, "cyclotomic", "12", 2, "absence_witness"),
    (cubic_subfield_scan, "cyclotomic", "7", 10_000, "sieve_rows"),
    (cubic_subfield_scan, "cyclotomic", "7", 2, "absence_witness"),
])
def test_ddf_fault_reaches_the_caller(monkeypatch, scan, kind, params, bound, where):
    # an error from the DDF kernel is never read as "no information at this
    # prime": it must not change the rows or the witnesses.
    # The fault hits the factor degrees the prime walk asks the field for
    # (and keeps); the root tests' prime selection, which keeps none, works.
    real = NumberField.ddf

    def ddf(self, q, stop, keep=True):
        if keep:
            raise RuntimeError("kernel fault")
        return real(self, q, stop, keep)

    monkeypatch.setattr(NumberField, "ddf", ddf)
    with pytest.raises(RuntimeError, match="kernel fault") as info:
        scan(corpus_generate(kind, params).poly, ScanConfig(sieve_prime_bound=bound))
    assert where in [entry.name for entry in info.traceback]


@pytest.mark.parametrize("prime, reason", [
    (13, "does not split in every cubic subfield"),   # f mod 13 is irreducible
    (71, "does not exclude"),                         # x^3 - 3x + 1 has 3 roots mod 71
])
def test_check_invariants_rejects_a_wrong_cubic_witness(prime, reason):
    import dataclasses

    rep = cubic_subfield_scan(corpus_generate("cubic-compositum", "7,q5").poly,
                              ScanConfig(sieve_prime_bound=2))
    rep.check_invariants()
    index, entry = next((i, e) for i, e in enumerate(rep.excluded)
                        if e.status == STATUS_CERTIFIED_ABSENT)
    assert entry.minpoly == Poly([1, -3, 0, 1]) and entry.witness_prime == 23
    rep.excluded[index] = dataclasses.replace(entry, witness_prime=prime)
    with pytest.raises(AssertionError, match=reason):
        rep.check_invariants()


@pytest.mark.parametrize("scan, kind, params, bound, found, witnesses", [
    (quad_subfield_scan, "cyclotomic", "15", 31, 61, (121, 391, 9, 5, 3, 2)),
    (cubic_subfield_scan, "cubic-compositum", "7,q5", 2, 23, (3, 7, 25)),
])
def test_check_invariants_rejects_a_witness_that_is_no_usable_prime(scan, kind, params, bound,
                                                                   found, witnesses):
    # a loaded report's witness must be a prime q > l at which f is
    # squarefree: 121, 391, 9 and 25 are composite (121 and 391 pass the
    # Frobenius re-check as if prime), f mod 3, 5 or 7 has repeated factors
    # where they divide disc(f), and 2 (l = 2) and 3 (l = 3) are too small
    from subfieldscan.cli import report_from_dict, report_to_dict

    f = corpus_generate(kind, params).poly
    d = report_to_dict(scan(f, ScanConfig(sieve_prime_bound=bound)))
    entry = next(e for e in d["excluded"] if e.get("witness_prime"))
    assert entry["witness_prime"] == str(found)
    report_from_dict(d).check_invariants()
    for q in witnesses:
        entry["witness_prime"] = str(q)
        with pytest.raises(AssertionError, match=f"witness {q} is not a prime"):
            report_from_dict(d).check_invariants()


@pytest.mark.parametrize("scan, kind, params, bound, label", [
    (quad_subfield_scan, "cyclotomic", "15", 31, "delta"),
    (cubic_subfield_scan, "cubic-compositum", "7,q5", 2, "minpoly"),
])
def test_check_invariants_rejects_an_excluded_entry_without_candidate(scan, kind, params,
                                                                     bound, label):
    # a loaded excluded entry that names neither a delta nor a minimal
    # polynomial excludes nothing, witness or not
    import copy

    from subfieldscan.cli import report_from_dict, report_to_dict

    d = report_to_dict(scan(corpus_generate(kind, params).poly,
                            ScanConfig(sieve_prime_bound=bound)))
    statuses = {e["status"] for e in d["excluded"]}
    assert {STATUS_CERTIFIED_ABSENT, STATUS_TWIST_EXCLUDED} <= statuses
    for status in statuses:
        loaded = copy.deepcopy(d)
        entry = next(e for e in loaded["excluded"] if e["status"] == status)
        del entry[label]
        with pytest.raises(AssertionError, match="names no candidate"):
            report_from_dict(loaded).check_invariants()


def _entry(entries, **fields):
    return next(e for e in entries if all(e.get(k) == v for k, v in fields.items()))


def _drop_witness(d):
    del _entry(d["excluded"], delta="2")["witness_prime"]


def _witness_on_twist(d):
    _entry(d["excluded"], status=STATUS_TWIST_EXCLUDED)["witness_prime"] = "61"


def _bogus_status(d):
    _entry(d["excluded"], status=STATUS_TWIST_EXCLUDED)["status"] = "bogus"


def _certificate_on_excluded(d):
    _entry(d["excluded"], delta="2")["certificate"] = d["subfields"][0]["certificate"]


def _unproven_find(d):
    d["subfields"][0]["status"] = STATUS_UNPROVEN_ABSENT


def _find_with_witness(d):
    d["subfields"][0]["witness_prime"] = "61"


def _find_without_certificate(d):
    del d["subfields"][0]["certificate"]


def _find_without_delta(d):
    del d["subfields"][0]["delta"]


def _found_and_excluded(d):
    d["excluded"].append({"delta": "5", "status": STATUS_TWIST_EXCLUDED})


@pytest.mark.parametrize("edit, reason", [
    (_drop_witness, "certified_absent .* has witness prime None"),
    (_witness_on_twist, "twist_excluded .* has witness prime 61"),
    (_bogus_status, "has status bogus"),
    (_certificate_on_excluded, "or a certificate"),
    (_unproven_find, "is not proved"),
    (_find_with_witness, "is not proved"),
    (_find_without_certificate, "is not proved"),
    (_find_without_delta, "names no candidate"),
    (_found_and_excluded, "both found and excluded"),
])
def test_check_invariants_refuses_an_entry_that_claims_what_its_shape_denies(edit, reason):
    # Q(zeta_15) at bound 31 finds -3, 5 and -15 and excludes 2 with the
    # witness 61: a found entry is proved, with a certificate and no
    # witness; an excluded one has no certificate, one of the three
    # exclusion statuses, and a witness exactly when certified_absent; each
    # names a candidate (a found entry without one loads with its
    # certificate and no h); and no candidate is both
    import copy

    from subfieldscan.cli import report_from_dict, report_to_dict

    d = report_to_dict(quad_subfield_scan(corpus_generate("cyclotomic", "15").poly,
                                          ScanConfig(sieve_prime_bound=31)))
    assert _entry(d["excluded"], delta="2")["witness_prime"] == "61"
    assert _entry(d["subfields"], delta="5")
    report_from_dict(d).check_invariants()
    loaded = copy.deepcopy(d)
    edit(loaded)
    with pytest.raises(AssertionError, match=reason):
        report_from_dict(loaded).check_invariants()


def test_entry_h_is_the_candidate_polynomial():
    from subfieldscan.scan import Entry

    assert Entry(STATUS_TWIST_EXCLUDED, delta=-3).h == Poly([3, 0, 1])
    assert Entry(STATUS_TWIST_EXCLUDED, minpoly=Poly([1, -3, 0, 1])).h == Poly([1, -3, 0, 1])
    assert Entry(STATUS_TWIST_EXCLUDED).h is None


def _scaled_root(field, y):
    """The certificate vector of the scaled root y, padded to length n."""
    return tuple(y.coeffs) + (0,) * (field.n - len(y.coeffs))


@pytest.mark.parametrize("delta, root", [(0, 0), (1, 1), (4, 2)])
def test_check_invariants_rejects_a_found_delta_that_is_0_or_a_square(delta, root):
    # Q(sqrt(delta)) is Q: X^2 - delta has the rational root `root` in every
    # field, so its certificate root * f' passes verify_certificate, and a
    # found entry for it names no quadratic subfield; the refusal comes
    # before the closure check, which cannot factor 0
    from subfieldscan.nfroot import verify_certificate
    from subfieldscan.scan import STATUS_PROVED, Entry

    field = NumberField(ZETA8)
    rep = quad_subfield_scan(ZETA8)
    rep.check_invariants(field)
    h = Poly([-delta, 0, 1])
    cert = RootCertificate(_scaled_root(field, field.fprime.scale(root)), h)
    assert verify_certificate(field, h, cert)
    rep.subfields.append(Entry(STATUS_PROVED, delta=delta, certificate=cert))
    with pytest.raises(AssertionError, match="0 or a square"):
        rep.check_invariants(field)


def test_check_invariants_rejects_a_found_polynomial_that_defines_no_cyclic_cubic_field():
    # each forged entry's certificate passes verify_certificate: X^3 - 1 has
    # the root 1 in Q(zeta_7) but is reducible, and so is X^3 - X, root 0,
    # though its discriminant 4 is a positive square; X^3 - 2 has the root x
    # in Q(2^(1/3)) but discriminant -108, and X^3 - 4X + 1 the root x in
    # its own field but discriminant 229, so neither field is cyclic; X^2 + 7
    # has a root in Q(zeta_7) and X^4 + 1 in Q(zeta_8), of discriminant 16^2,
    # but neither is a cubic
    from subfieldscan.nfroot import verify_certificate
    from subfieldscan.scan import STATUS_PROVED, Entry

    zeta7, zeta8 = NumberField(corpus_generate("cyclotomic", "7").poly), NumberField(ZETA8)
    cbrt2, s3 = NumberField(Poly([-2, 0, 0, 1])), NumberField(Poly([1, -4, 0, 1]))
    [sqrt_m7] = [e.certificate for e in quad_subfield_scan(zeta7.f).subfields]
    assert sqrt_m7.h == Poly([7, 0, 1])
    forged = [(zeta7, Poly([-1, 0, 0, 1]), _scaled_root(zeta7, zeta7.fprime)),
              (zeta7, Poly([0, -1, 0, 1]), _scaled_root(zeta7, Poly())),
              (cbrt2, cbrt2.f, (6, 0, 0)),
              (s3, s3.f, (-3, 8, 0)),   # x f'(x) = 3x^3 - 4x = 8x - 3
              (zeta7, sqrt_m7.h, sqrt_m7.scaled_root),
              (zeta8, ZETA8, (-4, 0, 0, 0))]   # x f'(x) = 4x^4 = -4
    for field, h, y in forged:
        rep = cubic_subfield_scan(field.f)
        rep.check_invariants(field)
        cert = RootCertificate(y, h)
        assert verify_certificate(field, h, cert)
        rep.subfields.append(Entry(STATUS_PROVED, minpoly=h, certificate=cert))
        with pytest.raises(AssertionError, match="defines no cyclic cubic field"):
            rep.check_invariants(field)


SPLIT_PRIMES = (7, 13, 19, 31, 37, 43)


def test_prime_dividing_v_is_no_cubic_witness():
    # a = w (pi7 conj(pi7)^2) (pi13 conj(pi13)^2)^2 has w-coefficient
    # v = 2 * 7 * 13^2 * 19: its minimal polynomial has a double root mod
    # 19, and a is a cube at 19, so 19 cannot witness its absence
    from subfieldscan.eisenstein import cubic_residue_class
    from subfieldscan.kummer3 import build_generator
    from subfieldscan.modp import squarefree_mod_p
    from subfieldscan.sieve import PlaceBasis

    cand = build_generator((1, 1, 2), PlaceBasis(3, (7, 13)))
    assert cand.v == 2 * 7 * 13**2 * 19
    assert not squarefree_mod_p(cand.minpoly, 19)
    assert cubic_residue_class(cand.a, 19) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(SPLIT_PRIMES), min_size=1, max_size=3, unique=True),
       st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4))
def test_cubic_witness_recheck_agrees_with_the_residue_class(primes, exps):
    # check_invariants re-checks a cubic witness q by the candidate's
    # minimal polynomial (squarefree with no root mod q), the walk by the
    # class of a at q (nonzero): the two agree at every q >= 5 prime to c,
    # including the primes dividing v, where both say "no witness"
    from subfieldscan.arith import primes_up_to
    from subfieldscan.eisenstein import cubic_residue_class
    from subfieldscan.kummer3 import build_generator
    from subfieldscan.modp import roots_mod_p, squarefree_mod_p
    from subfieldscan.sieve import PlaceBasis

    exps = exps[:len(primes) + 1]
    if not any(e % 3 for e in exps):   # the zero vector, the trivial class
        return
    cand = build_generator(exps, PlaceBasis(3, tuple(primes)))
    for q in primes_up_to(400)[2:]:
        if cand.c % q == 0:
            continue
        inert = squarefree_mod_p(cand.minpoly, q) and not roots_mod_p(cand.minpoly, q)
        assert inert == (cubic_residue_class(cand.a, q) != 0), q


@pytest.mark.parametrize("scan, kind, params", [
    (quad_subfield_scan, "cyclotomic", "12"),
    (quad_subfield_scan, "multiquadratic", "2,3,5"),
    (cubic_subfield_scan, "cubic-compositum", "7,9"),
    (cubic_subfield_scan, "cubic-compositum", "7,q5"),
])
@pytest.mark.parametrize("bound", [10_000, 2])
def test_gcd_and_discriminant_walks_agree(monkeypatch, scan, kind, params, bound):
    # above nfroot.DISC_BITS_MAX the walks test squarefreeness by a gcd at
    # each prime instead of by disc(f); the reports are the same
    import subfieldscan.nfroot as nfroot
    from subfieldscan.cli import canonical_report_bytes

    f, config = corpus_generate(kind, params).poly, ScanConfig(sieve_prime_bound=bound)
    with_disc = canonical_report_bytes(scan(f, config))
    monkeypatch.setattr(nfroot, "DISC_BITS_MAX", 0)
    assert canonical_report_bytes(scan(f, config)) == with_disc


def test_found_root_is_not_inverted_unless_multiplied(monkeypatch):
    # one quadratic subfield: its square root is never multiplied by another,
    # so the scan never builds the ring mod p**k in which it inverts f'
    import subfieldscan.scan as scan_mod
    from subfieldscan.poly import compositum_minpoly

    def no_ring(self):
        raise AssertionError("the twist products' ring was built")

    monkeypatch.setattr(scan_mod._Kind, "ring", no_ring)
    f = compositum_minpoly(Poly.from_desc([1, 0, -5]), Poly.from_desc([1, 0, 0, -1, -1]))
    rep = quad_subfield_scan(f)
    assert deltas(rep) == [5] and rep.direct_tests == 1


def test_cubic_on_non_multiple_of_three():
    rep = cubic_subfield_scan(ZETA8)
    assert rep.subfields == []


def test_cubic_inside_cyclotomic7():
    entry = corpus_generate("cyclotomic", "7")
    rep = cubic_subfield_scan(entry.poly)
    assert len(rep.subfields) == 1
    assert rep.subfields[0].minpoly == entry.cubic[0]


def test_twist_closure_step_examples():
    # basis [-1, 2, 3]: a candidate in the span of the found vectors is a
    # subfield, one in the coset of an excluded vector is excluded, and any
    # other is tested through its coset representative
    v2, v3, v6 = (0, 1, 0), (0, 0, 1), (0, 1, 1)
    vm1, vm2, v5 = (1, 0, 0), (1, 1, 0), (0, 0, 1)
    span = Span(2, 3)
    for g in (v2, v3):
        span.insert(g)
    assert not any(span.reduce(v6))
    span = Span(2, 3)
    span.insert(v2)
    assert any(span.reduce(vm2)) and span.reduce(vm1) == span.reduce(vm2)
    span = Span(2, 3)
    assert span.reduce(v5) == v5


def test_cubic_sieve_bad_prime_reaches_the_caller(monkeypatch):
    # at a sieve prime the norm filter rules out every bad prime the cubic
    # character can raise, so one that does occur is a fault, not a skip
    import subfieldscan.sieve as sieve_mod

    def cubic_residue_class(a, q):
        raise ValueError(f"unsupported prime {q}")

    monkeypatch.setattr(sieve_mod, "cubic_residue_class", cubic_residue_class)
    with pytest.raises(ValueError, match="unsupported prime"):
        cubic_subfield_scan(corpus_generate("cyclotomic", "7").poly)


def test_absence_certificate_search():
    field = NumberField(ZETA8)
    entry = absence_certificate_search(field, 3)
    assert entry.status == STATUS_CERTIFIED_ABSENT
    assert entry.witness_prime == 17
    # a true subfield can never be witnessed absent
    entry = absence_certificate_search(field, 2)
    assert entry.status == STATUS_UNPROVEN_ABSENT and entry.witness_prime is None
    # sqrt(7) is not in Q(sqrt2, sqrt3, sqrt5): the sieve can certify it
    field8 = NumberField(corpus_generate("multiquadratic", "2,3,5").poly)
    entry = absence_certificate_search(field8, 7)
    assert entry.status == STATUS_CERTIFIED_ABSENT
    assert entry.witness_prime is not None


@pytest.mark.parametrize("kind, params", [
    ("cyclotomic", "12"), ("cyclotomic", "15"), ("multiquadratic", "2,3,5")])
def test_quad_witness_is_the_first_prime_where_split_or_inert_contradicts_legendre(
        monkeypatch, kind, params):
    # the Frobenius-row witness of a discriminant vector is the prime the
    # direct rule picks: q splits in every quadratic subfield while delta is
    # no square mod q, or q is inert in every one while delta is a square
    import itertools

    import subfieldscan.scan as scan_mod
    from subfieldscan.arith import legendre
    from subfieldscan.ramify import candidate_ramified_primes

    monkeypatch.setattr(scan_mod, "ABSENCE_PRIME_BOUND", 1_000)
    f = corpus_generate(kind, params).poly
    field = NumberField(f)
    basis = candidate_ramified_primes(field, 2).basis

    def split_or_inert(q):
        """1: a full DDF mod q has an odd factor degree, so q splits in
        every quadratic subfield; -1: no product of factors of f mod q
        has degree n/2, so q is inert in every one; 0: neither."""
        degrees = [d for d, c in modp.degree_counts(modp.ddf_degrees(f, q)).items()
                   for _ in range(c)]
        if any(d % 2 for d in degrees):
            return 1
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        return 0 if field.n // 2 in sums else -1

    classes = {q: split_or_inert(q)
               for q, _ in scan_mod._frobenius_primes(field, basis, 1_000)}

    def legendre_witness(delta):
        return next((q for q, cls in classes.items() if cls and legendre(delta, q) == -cls), None)

    witnesses = []
    for vec in itertools.product((0, 1), repeat=basis.width):
        if any(vec):
            expect = legendre_witness(basis.delta_of_vector(vec))
            assert scan_mod.absence_witness(field, basis, vec) == expect, vec
            witnesses.append(expect)
    # both outcomes occur: true subfields have no witness, the others one
    assert None in witnesses and any(witnesses)


@pytest.mark.parametrize("params", ["7", "7,q5", "7,9"])
def test_cubic_witness_is_the_first_splits_all_prime_where_the_minpoly_has_no_root(
        monkeypatch, params):
    # the Frobenius-row witness of a Kummer class is the prime the direct
    # rule picks: a full DDF says q splits in every cyclic cubic subfield,
    # while the class's minimal polynomial is squarefree with no root mod q
    import subfieldscan.scan as scan_mod
    from subfieldscan.arith import iter_primes
    from subfieldscan.eisenstein import cubic_residue_class
    from subfieldscan.kummer3 import build_generator
    from subfieldscan.ramify import candidate_ramified_primes
    from subfieldscan.sieve import kernel_vectors

    monkeypatch.setattr(scan_mod, "ABSENCE_PRIME_BOUND", 1_000)
    kind, params = ("cyclotomic", params) if params == "7" else ("cubic-compositum", params)
    entry = corpus_generate(kind, params)
    field = NumberField(entry.poly)
    basis = candidate_ramified_primes(field, 3).basis
    splits_all = [q for q in iter_primes(5, 1_000) if q not in basis.primes
                  and modp.squarefree_mod_p(field.f, q)
                  and any(d % 3 for d in modp.degree_counts(modp.ddf_degrees(field.f, q)))]

    def minpoly_witness(h, after):
        return next((q for q in splits_all if q > after
                     and modp.squarefree_mod_p(h, q) and not modp.roots_mod_p(h, q)), None)

    # the walks also start at primes where every slot generator is a cube:
    # their row is trivial, and no class has a witness there
    cubes = [q for q in splits_all
             if not any(cubic_residue_class(g, q) for g in basis.generators)]
    assert cubes
    first = []
    for vec in kernel_vectors(Span(3, basis.width)):
        h = build_generator(vec, basis).minpoly
        for after in (0, *(q - 1 for q in cubes[:3])):
            expect = minpoly_witness(h, after)
            assert scan_mod.absence_witness(field, basis, vec, after) == expect, (vec, after)
        first.append(minpoly_witness(h, 0))
    # exactly the true subfields have no witness
    assert first.count(None) == len(entry.cubic)


def test_cubic_residue_classes_only_at_primes_that_split_in_every_cubic_subfield(monkeypatch):
    # a prime's cubic row is made once its DDF says it splits in every
    # cyclic cubic subfield: one residue class per slot there, none at a
    # prime that decides nothing
    from collections import Counter

    import subfieldscan.scan as scan_mod
    import subfieldscan.sieve as sieve_mod
    from subfieldscan.arith import iter_primes
    from subfieldscan.ramify import candidate_ramified_primes
    from subfieldscan.sieve import frobenius_class

    f = corpus_generate("cubic-compositum", "7,9").poly
    field = NumberField(f)
    kind = scan_mod._Cubic(field, candidate_ramified_primes(field, 3).basis)
    walked = scan_mod.sieve_rows(field, kind.basis, ScanConfig().sieve_prime_bound).walked
    walk = [q for q in iter_primes(5, walked) if q not in kind.basis.primes
            and modp.squarefree_mod_p(f, q)]
    splits_all = [q for q in walk
                  if frobenius_class(modp.degree_counts(modp.ddf_degrees(f, q)), field.n, 3) == 0]
    assert 0 < len(splits_all) < len(walk)
    calls = []

    def cubic_residue_class(a, q):
        calls.append(q)
        return real(a, q)

    real = sieve_mod.cubic_residue_class
    monkeypatch.setattr(sieve_mod, "cubic_residue_class", cubic_residue_class)
    report = cubic_subfield_scan(f)
    assert len(report.subfields) == 4 and not report.excluded
    assert Counter(calls) == {q: kind.basis.width for q in splits_all}


@pytest.mark.parametrize("delta", [0, 1, 4, 9])
def test_absence_search_rejects_zero_and_squares(delta):
    # Q(sqrt(delta)) = Q for a square delta: a subfield of every field, which
    # the search used to certify absent from the S4 quartic x^4 - x - 1
    field = NumberField(Poly.from_desc([1, 0, 0, -1, -1]))
    with pytest.raises(ValueError, match="0 or a square"):
        absence_certificate_search(field, delta)


def test_determinism_same_seed():
    from subfieldscan.cli import canonical_report_bytes

    f = corpus_generate("multiquadratic", "2,3").poly
    rep1 = quad_subfield_scan(f, ScanConfig())
    rep2 = quad_subfield_scan(f, ScanConfig())
    assert canonical_report_bytes(rep1) == canonical_report_bytes(rep2)


def test_report_group_closure_checked():
    rep = quad_subfield_scan(corpus_generate("multiquadratic", "2,3").poly)
    rep.check_invariants()
    # tamper: drop one subfield so the closure fails
    rep.subfields.pop()
    with pytest.raises(AssertionError):
        rep.check_invariants()


def test_check_invariants_factors_each_found_delta_once(monkeypatch):
    # the twist-closure check takes each delta's squarefree kernel once and
    # forms the kernel of a product from two kernels, never factoring it
    import subfieldscan.scan as scan_mod

    rep = quad_subfield_scan(corpus_generate("multiquadratic", "2,3,5").poly)
    calls = []

    def factor_integer(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    real = scan_mod.factor_integer
    monkeypatch.setattr(scan_mod, "factor_integer", factor_integer)
    rep.check_invariants()
    assert len(rep.subfields) == 7
    assert sorted(calls) == deltas(rep)


def test_representative_testing_with_product_certificates():
    # Q(sqrt6, sqrt10) without sieve rows: the candidate list contains all
    # 31 vectors over [-1, 2, 3, 5].  When delta = 10 comes up, the found
    # span already contains 6, so its coset representative is 15; proving
    # 15 must yield a product certificate for 10 (sqrt10 = sqrt6*sqrt15/3).
    from subfieldscan.poly import compositum_minpoly

    f = compositum_minpoly(Poly.from_desc([1, 0, -6]), Poly.from_desc([1, 0, -10]))
    rep = quad_subfield_scan(f, ScanConfig(sieve_prime_bound=2))
    assert deltas(rep) == [6, 10, 15]
    rep.check_invariants()
    # every exclusion is certified or twist-derived, never unproven
    assert not rep.has_unproven()
    # and with the sieve on, the same field needs far fewer tests
    rep2 = quad_subfield_scan(f)
    assert deltas(rep2) == [6, 10, 15]
    assert rep2.direct_tests <= rep.direct_tests


@pytest.mark.parametrize("kind, params, products", [
    ("multiquadratic", "2,3,5,7", 11),
    ("cyclotomic", "24", 4),   # the negative deltas -1, -2, -3 and -6
])
def test_twist_closure_makes_one_product_per_member(monkeypatch, kind, params, products):
    # every subfield the walk does not test directly is a product of direct
    # finds, and costs exactly one product: its generator prefix is kept
    import subfieldscan.scan as scan_mod
    from subfieldscan.nfroot import PROVED

    merge, member_certificate, find_root = (scan_mod._Quad.merge,
                                           scan_mod._Quad.member_certificate,
                                           scan_mod.find_root)
    merges, members, finds = [], [], []

    def counting_merge(self, a, b, total):
        merges.append(1)
        return merge(self, a, b, total)

    def recording_member_certificate(self, vec, used):
        cert = member_certificate(self, vec, used)
        members.append((self, vec, used, cert))
        return cert

    def recording_find_root(field, h, *args, **kwargs):
        result = find_root(field, h, *args, **kwargs)
        if result.status == PROVED:
            finds.append((-h[0], result.certificate))
        return result

    monkeypatch.setattr(scan_mod._Quad, "merge", counting_merge)
    monkeypatch.setattr(scan_mod._Quad, "member_certificate", recording_member_certificate)
    monkeypatch.setattr(scan_mod, "find_root", recording_find_root)
    rep = quad_subfield_scan(corpus_generate(kind, params).poly)
    assert len(merges) == len(rep.subfields) - rep.direct_tests == products
    # each product certificate is the product over Q of its generators'
    # found certificates, multiplied in the order they were found
    certs = {e.delta: e.certificate for e in rep.subfields}
    for quad, vec, used, cert in members:
        delta = quad.basis.delta_of_vector
        named = [(delta(g), c) for g, tag, c in used]
        assert named == [f for f in finds if f in named] and {tag for _, tag, _ in used} == {1}
        assert cert == _rational_member_certificate(quad, vec, used)
        assert certs[delta(vec)] == cert


def _rational_member_certificate(quad, vec, used):
    """_Quad.member_certificate over Q: the products of the scaled roots of
    used in order, each dividing by f' through xgcd_q."""
    field, delta = quad.field, quad.basis.delta_of_vector
    inverse = fprime_inverse_q(field)
    (acc, _, cert), *rest = used
    y = Poly(cert.scaled_root)
    for g, _, c in rest:
        total = tuple(a ^ b for a, b in zip(acc, g))
        y = rational_twist_product(field, inverse, delta(acc), y, delta(g), Poly(c.scaled_root),
                                   delta(total))
        acc = total
    assert acc == vec
    return RootCertificate(y.coeffs, quad.h(vec))


@pytest.mark.parametrize("kind, params", [
    ("cyclotomic", "24"), ("multiquadratic", "2,3,5,7"), ("multiquadratic", "2,3,5,7,11,13")])
def test_p_adic_quadratic_products_equal_the_rational_ones(monkeypatch, kind, params):
    # a scaled root is unique, so the products mod p**k give the reports
    # byte for byte that the same products over Q give
    import subfieldscan.scan as scan_mod
    from subfieldscan.cli import canonical_report_bytes

    f = corpus_generate(kind, params).poly
    p_adic = canonical_report_bytes(quad_subfield_scan(f))
    monkeypatch.setattr(scan_mod._Quad, "member_certificate", _rational_member_certificate)
    assert canonical_report_bytes(quad_subfield_scan(f)) == p_adic


def test_each_certificate_is_verified_once(monkeypatch):
    # the scan's check_invariants is the one check of every certificate,
    # product or not; a root test checks its own through nfroot
    import subfieldscan.scan as scan_mod

    verify, checked = scan_mod.verify_certificate, []

    def counting_verify(field, h, cert):
        checked.append(h)
        return verify(field, h, cert)

    monkeypatch.setattr(scan_mod, "verify_certificate", counting_verify)
    rep = quad_subfield_scan(corpus_generate("multiquadratic", "2,3,5,7").poly)
    assert len(checked) == len(rep.subfields) == 15


@pytest.mark.parametrize("vec", [(1, 0), (0, 1), (1, 1), (1, 2), (0, 1, 2), (1, 1, 1)])
def test_galois_conjugates_take_u_to_w_u(vec):
    # in the cubic field of a Kummer class a, with theta = u + c/u for the
    # principal complex cube root u of a and w = exp(2 pi i / 3), the
    # conjugates are w^j u + w^-j c/u: compare the scaled conjugates,
    # centre-lifted from mod p**k and read in C
    import cmath

    from subfieldscan.kummer3 import build_generator
    from subfieldscan.nfroot import scaled_root_bits
    from subfieldscan.scan import galois_conjugates
    from subfieldscan.sieve import PlaceBasis

    cand = build_generator(vec, PlaceBasis(3, (7, 13)[:len(vec) - 1]))
    field = NumberField(cand.minpoly)
    p = next(q for q in (101, 103, 107, 109) if field.squarefree_mod(q) and cand.v % q)
    m = p ** (scaled_root_bits(field, cand.minpoly) + 2)   # more than 2**(B + 2)
    ring = modp.QuotientRing(field.f.coeffs, m)
    w = cmath.exp(2j * cmath.pi / 3)
    u = (cand.a.x + cand.a.y * w) ** (1 / 3)
    theta = u + cand.c / u
    fprime = field.fprime
    for j, root in enumerate(galois_conjugates(ring, p, [0, 1], cand)):
        y = Poly(modp.center_lift(ring.mul(root, modp.from_poly(fprime, m)), m))
        expect = w**j * u + cand.c / (w**j * u)
        assert abs(y.evaluate(theta) / fprime.evaluate(theta) - expect) < 1e-6


def test_sieve_rows_sound_for_true_quadratic_subfields():
    from subfieldscan.ramify import candidate_ramified_primes
    from subfieldscan.scan import sieve_rows
    from subfieldscan.sieve import vector_satisfies

    for kind, params in (("multiquadratic", "2,3,5"), ("cyclotomic", "24"),
                         ("cyclotomic", "15")):
        entry = corpus_generate(kind, params)
        field = NumberField(entry.poly)
        basis = candidate_ramified_primes(field, 2).basis
        rows = sieve_rows(field, basis, ScanConfig().sieve_prime_bound).rows
        # zero rows is legitimate (e.g. elementary abelian fields give no
        # usable constraints); generated rows must never exclude the truth
        for delta in entry.quad:
            vec = (int(delta < 0),) + tuple(int(delta % p == 0) for p in basis.primes)
            assert basis.delta_of_vector(vec) == delta
            for row in rows:
                assert vector_satisfies(row, vec, 2), (delta, row)


@pytest.mark.parametrize("kind, params, vec", [
    ("cyclotomic", "7", (1, 1)),
    ("cubic-compositum", "7,q5", (0, 1)),
])
def test_sieve_rows_sound_for_true_cubic_subfields(kind, params, vec):
    # vec is the class over [omega-axis, 7] of the field's one cubic
    # subfield; the sieve keeps rows here (none for the C3 x C3 field 7,9)
    # and the true class satisfies every one of them
    from subfieldscan.kummer3 import build_generator
    from subfieldscan.nfroot import PROVED, find_root
    from subfieldscan.ramify import candidate_ramified_primes
    from subfieldscan.scan import sieve_rows
    from subfieldscan.sieve import vector_satisfies

    entry = corpus_generate(kind, params)
    field = NumberField(entry.poly)
    basis = candidate_ramified_primes(field, 3).basis
    assert basis.primes == (7,)
    [cubic] = entry.cubic
    candidate = build_generator(vec, basis).minpoly
    assert find_root(NumberField(cubic), candidate).status == PROVED
    rows = sieve_rows(field, basis, 100_000).rows
    assert rows
    for row in rows:
        assert vector_satisfies(row, vec, 3), row


@pytest.mark.parametrize("kind, params, bound, witnesses", [
    ("cyclotomic", "15", 31, [61]),
    ("cubic-compositum", "7,q5", 13, [17]),   # the real row leaves out -2
])
def test_absence_search_starts_after_the_sieve(monkeypatch, kind, params, bound, witnesses):
    # with one sieve row (the sieve's primes end at bound) the walk needs
    # witnesses; every prime up to the sieve's last one has had its row
    # tested, so no absence DDF goes there
    import subfieldscan.modp as modp
    import subfieldscan.scan as scan_mod

    searching, absence_primes = [], []

    def ddf_degrees(f, q, *args, **kwargs):
        if searching:
            absence_primes.append(q)
        return real_ddf(f, q, *args, **kwargs)

    def absence_witness(*args, **kwargs):
        searching.append(True)
        try:
            return real_witness(*args, **kwargs)
        finally:
            searching.pop()

    real_ddf, real_witness = modp.ddf_degrees, scan_mod.absence_witness
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    monkeypatch.setattr(scan_mod, "absence_witness", absence_witness)
    report = quad_subfield_scan(corpus_generate(kind, params).poly,
                                ScanConfig(sieve_prime_bound=bound))
    assert report.sieve.rows == 1
    last = report.sieve.primes_used[-1]
    assert absence_primes and min(absence_primes) > last
    assert sorted(e.witness_prime for e in report.excluded
                  if e.status == STATUS_CERTIFIED_ABSENT) == witnesses


def test_absence_search_starts_after_a_stable_sieve(monkeypatch):
    # Q(zeta_8) gives no row: a prime decides nothing or splits completely with
    # a trivial row, so the default sieve stops on the stable count at a
    # prime that gives no row.  The first root test is made to fail, so the
    # walk searches for a witness against a true subfield: it finds none
    # below the bound, and walks no prime the sieve walked.
    import subfieldscan.modp as modp
    import subfieldscan.scan as scan_mod
    from subfieldscan.nfroot import NOT_FOUND, RootSearch

    searching, absence_primes, sieves = [], [], []

    def ddf_degrees(f, q, *args, **kwargs):
        if searching:
            absence_primes.append(q)
        return real_ddf(f, q, *args, **kwargs)

    def absence_witness(*args, **kwargs):
        searching.append(True)
        try:
            return real_witness(*args, **kwargs)
        finally:
            searching.pop()

    def sieve_rows(*args, **kwargs):
        sieves.append(real_sieve(*args, **kwargs))
        return sieves[-1]

    def find_root(field, h, **kwargs):
        return RootSearch(NOT_FOUND) if not absence_primes else real_find(field, h, **kwargs)

    real_ddf, real_witness = modp.ddf_degrees, scan_mod.absence_witness
    real_sieve, real_find = scan_mod.sieve_rows, scan_mod.find_root
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    monkeypatch.setattr(scan_mod, "absence_witness", absence_witness)
    monkeypatch.setattr(scan_mod, "sieve_rows", sieve_rows)
    monkeypatch.setattr(scan_mod, "find_root", find_root)
    config = ScanConfig()
    report = quad_subfield_scan(ZETA8, config)
    (sieve,) = sieves
    assert sieve.rows == [] and 0 < sieve.walked < config.sieve_prime_bound
    assert absence_primes and min(absence_primes) > sieve.walked
    assert [e.status for e in report.excluded] == [STATUS_UNPROVEN_ABSENT, STATUS_TWIST_EXCLUDED]
    assert deltas(report) == [2]
