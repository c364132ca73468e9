import pytest

from subfieldscan.errors import InputIsPower, NotSquarefree
from subfieldscan.poly import Poly, eth_root_coeffs
from subfieldscan.ramify import candidate_ramified_primes
from subfieldscan.testkit import corpus_generate, multiquadratic_minpoly
from tests_poly_helpers import eth_root_newton, ramified_superset_bruteforce


def test_examples():
    cs = candidate_ramified_primes(Poly.from_desc([1, 0, 0, 0, 1]), 2)
    assert cs.gcd_value == 1 and cs.tame_primes == () and cs.wild_primes == (2,)
    assert cs.include_minus_one

    cs = candidate_ramified_primes(Poly.from_desc([1, 0, -1, 0, 1]), 2)
    assert cs.gcd_value == 3 and cs.tame_primes == (3,)

    cs = candidate_ramified_primes(Poly.from_desc([1, 0, -21, -35]), 3)
    assert cs.gcd_value == 7 and cs.tame_primes == (7,)
    assert cs.wild_primes == (3,) and not cs.include_minus_one


def test_power_input_rejected():
    f = Poly.from_desc([1, 0, 1]) ** 2
    with pytest.raises((InputIsPower, NotSquarefree)):
        candidate_ramified_primes(f, 2)


def test_non_squarefree_rejected():
    f = Poly.from_desc([1, 0, -2]) * Poly.from_desc([1, 0, -2])
    with pytest.raises(NotSquarefree):
        candidate_ramified_primes(f, 2)


def test_tame_primes_divide_disc():
    polys = [
        corpus_generate("cyclotomic", "8").poly,
        corpus_generate("cyclotomic", "12").poly,
        corpus_generate("cyclotomic", "15").poly,
        corpus_generate("multiquadratic", "2,3").poly,
        corpus_generate("multiquadratic", "2,3,5").poly,
    ]
    for f in polys:
        cs = candidate_ramified_primes(f, 2)
        disc_primes = ramified_superset_bruteforce(f)
        assert set(cs.tame_primes) <= disc_primes


def test_candidate_set_covers_true_ramified_primes():
    entry = corpus_generate("multiquadratic", "2,3,5")
    cs = candidate_ramified_primes(entry.poly, 2)
    cands = set(cs.tame_primes) | set(cs.wild_primes)
    for delta in entry.quad:
        for p in ramified_superset_bruteforce(Poly.from_desc([1, 0, -delta])):
            assert p in cands


def test_root_variant_independence():
    for f in (multiquadratic_minpoly((2, 3)), Poly.from_desc([1, 0, 0, 0, 1]),
              multiquadratic_minpoly((2, 3, 5))):
        assert eth_root_coeffs(f, 2) == eth_root_newton(f, 2)


def test_applies_to_full_degree():
    # e = deg f: the scan of a quadratic field itself
    cs = candidate_ramified_primes(Poly.from_desc([1, 0, -5]), 2)
    assert 5 in cs.tame_primes
