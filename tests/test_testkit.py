import pytest

from subfieldscan.errors import InputError
from subfieldscan.nfroot import NumberField, RootCertificate, verify_certificate
from subfieldscan.poly import Poly, disc_poly
from subfieldscan.testkit import (CYCLOTOMIC_QUAD_TRUTH, MultiquadraticAlgebra,
                                  corpus_generate, cyclotomic_poly,
                                  multiquadratic_certificates, multiquadratic_minpoly)
from tests_poly_helpers import ramified_superset_bruteforce


def test_disc_examples():
    assert disc_poly(Poly.from_desc([1, 0, -2])) == 8
    assert disc_poly(Poly.from_desc([1, 0, -3, 1])) == 81


def test_ramified_superset_examples():
    assert ramified_superset_bruteforce(Poly.from_desc([1, 0, 0, 0, 1])) == {2}
    assert ramified_superset_bruteforce(Poly.from_desc([1, 0, -1, 0, 1])) == {2, 3}
    assert ramified_superset_bruteforce(Poly.from_desc([1, 0, -2])) == {2}


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(8) == Poly.from_desc([1, 0, 0, 0, 1])
    assert cyclotomic_poly(12) == Poly.from_desc([1, 0, -1, 0, 1])
    assert cyclotomic_poly(5) == Poly([1, 1, 1, 1, 1])
    phis = {m: cyclotomic_poly(m) for m in CYCLOTOMIC_QUAD_TRUTH}
    expected_deg = {5: 4, 7: 6, 8: 4, 12: 4, 15: 8, 20: 8, 24: 8}
    for m, f in phis.items():
        assert f.degree == expected_deg[m]
        assert f.is_monic() and f.is_integral()


def test_multiquadratic_algebra():
    alg = MultiquadraticAlgebra((2, 3))
    s2, s3 = alg.sqrt_elem([2]), alg.sqrt_elem([3])
    assert alg.mul(s2, s2) == {frozenset(): 2}
    prod = alg.mul(s2, s3)
    assert prod == {frozenset([2, 3]): 1}
    theta = alg.theta()
    f = multiquadratic_minpoly((2, 3))
    assert f == Poly.from_desc([1, 0, -10, 0, 1])
    assert alg.eval_poly(f, theta) == {}


def test_multiquadratic_certificates_verify():
    primes = (2, 3, 5)
    f = multiquadratic_minpoly(primes)
    field = NumberField(f)
    certs = multiquadratic_certificates(primes)
    assert len(certs) == 7
    for d, y in certs.items():
        h = Poly([-d, 0, 1])
        assert verify_certificate(field, h, RootCertificate(y, h))


def test_corpus_multiquadratic():
    entry = corpus_generate("multiquadratic", "2,3")
    assert entry.poly == Poly.from_desc([1, 0, -10, 0, 1])
    assert entry.quad == [2, 3, 6]
    with pytest.raises(ValueError):
        corpus_generate("multiquadratic", "2,2")
    with pytest.raises(ValueError):
        corpus_generate("multiquadratic", "2,9")


@pytest.mark.parametrize("primes, message", [((2, 4), "4 is not prime"),
                                             ((3, 3), "primes must be distinct")])
def test_multiquadratic_minpoly_checks_its_primes(primes, message):
    # (2, 4) would pass the compositum check and give the reducible
    # x^4 - 12x^2 + 4; corpus_generate reports the same check as an InputError
    with pytest.raises(ValueError, match=message):
        multiquadratic_minpoly(primes)
    with pytest.raises(InputError, match=message):
        corpus_generate("multiquadratic", ",".join(map(str, primes)))


def test_corpus_cyclotomic():
    entry = corpus_generate("cyclotomic", "12")
    assert entry.poly == Poly.from_desc([1, 0, -1, 0, 1])
    assert entry.quad == [-1, 3, -3]
    entry = corpus_generate("cyclotomic", "8")
    assert entry.quad == [-1, 2, -2]
    with pytest.raises(ValueError):
        corpus_generate("cyclotomic", "11")


def test_corpus_cubic():
    entry = corpus_generate("cubic-compositum", "7,9")
    assert entry.poly.degree == 9
    assert len(entry.cubic) == 4
    entry = corpus_generate("cubic-compositum", "7,q5")
    assert entry.poly.degree == 6
    assert entry.quad == [5] and len(entry.cubic) == 1
    with pytest.raises(ValueError):
        corpus_generate("cubic-compositum", "7,11")


def test_disc_nonzero_on_corpus():
    for kind, params in (("multiquadratic", "2,3"), ("multiquadratic", "2,3,5"),
                         ("cyclotomic", "8"), ("cubic-compositum", "7,9"),
                         ("cubic-compositum", "7,q5")):
        entry = corpus_generate(kind, params)
        assert disc_poly(entry.poly) != 0
