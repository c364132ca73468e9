import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from subfieldscan.arith import factor_integer
from subfieldscan.nfroot import NumberField
from subfieldscan.poly import Poly, eth_root_coeffs, is_squarefree_q
from subfieldscan.ramify import CandidateSet, candidate_ramified_primes
from subfieldscan.sieve import PlaceBasis
from subfieldscan.testkit import corpus_generate, multiquadratic_minpoly
from tests_poly_helpers import (eth_root_newton, numerator_gcd_reference,
                                ramified_superset_bruteforce, taylor_shift)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import corpus_ops, generic_mix_ops  # noqa: E402


def reference_set(f: Poly, e: int) -> CandidateSet:
    """The CandidateSet from the numerator gcd over Fractions: the tame
    primes of D and 2 for e = 2, the tame primes 1 mod 3 for e = 3."""
    d = numerator_gcd_reference(f, e)
    tame = [p for p in factor_integer(d).primes() if e % p] if d > 1 else []
    if e == 2:
        return CandidateSet(PlaceBasis(2, tuple(sorted({2, *tame}))), d)
    return CandidateSet(PlaceBasis(3, tuple(p for p in tame if p % 3 == 1)), d)


def test_examples():
    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, 0, 0, 1])), 2)
    assert cs.gcd_value == 1 and cs.basis == PlaceBasis(2, (2,))   # the sign slot, then 2

    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, -1, 0, 1])), 2)
    assert cs.gcd_value == 3 and cs.basis.primes == (2, 3)

    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, -21, -35])), 3)
    assert cs.gcd_value == 7 and cs.basis == PlaceBasis(3, (7,))   # the unit axis carries 3


# the field is the input gate: a repeated root is rejected before ramify runs
def test_power_input_rejected():
    f = Poly.from_desc([1, 0, 1]) ** 2
    with pytest.raises(ValueError, match="repeated roots"):
        NumberField(f)


def test_non_squarefree_rejected():
    f = Poly.from_desc([1, 0, -2]) * Poly.from_desc([1, 0, -2])
    with pytest.raises(ValueError, match="repeated roots"):
        NumberField(f)


def test_tame_primes_divide_disc():
    polys = [
        corpus_generate("cyclotomic", "8").poly,
        corpus_generate("cyclotomic", "12").poly,
        corpus_generate("cyclotomic", "15").poly,
        corpus_generate("multiquadratic", "2,3").poly,
        corpus_generate("multiquadratic", "2,3,5").poly,
    ]
    for f in polys:
        cs = candidate_ramified_primes(NumberField(f), 2)
        disc_primes = ramified_superset_bruteforce(f)
        assert set(cs.basis.primes) - {2} <= disc_primes


def test_candidate_set_covers_true_ramified_primes():
    entry = corpus_generate("multiquadratic", "2,3,5")
    cs = candidate_ramified_primes(NumberField(entry.poly), 2)
    cands = set(cs.basis.primes)
    for delta in entry.quad:
        for p in ramified_superset_bruteforce(Poly.from_desc([1, 0, -delta])):
            assert p in cands


def test_root_variant_independence():
    for f in (multiquadratic_minpoly((2, 3)), Poly.from_desc([1, 0, 0, 0, 1]),
              multiquadratic_minpoly((2, 3, 5))):
        assert eth_root_coeffs(f, 2) == eth_root_newton(f, 2)


def test_applies_to_full_degree():
    # e = deg f: the scan of a quadratic field itself
    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, -5])), 2)
    assert 5 in cs.basis.primes


def test_numerator_gcd_matches_fraction_route():
    # 60-bit coefficients up to degree 24 (e = 2) and 27 (e = 3), and their
    # Taylor shifts, whose root candidates have denominators; half of the
    # inputs are g**e + m*h with deg h < deg f - deg g, whose gcd is m
    # times the content of h, before and after the shift
    rng = random.Random(22)
    checked = 0
    for trial in range(60):
        e = rng.choice([2, 3])
        n = rng.randint(1, 12 if e == 2 else 9)
        if trial % 2:
            f = Poly([rng.randint(-2**60, 2**60) for _ in range(e * n)] + [1])
        else:
            m = rng.choice([5 * 7, 11 * 13 * 17, 2**5 * 3**4 * 1009])
            h = Poly([rng.randint(-2**20, 2**20) for _ in range((e - 1) * n)])
            f = Poly([rng.randint(-2**12, 2**12) for _ in range(n)] + [1]) ** e + h.scale(m)
        for fc in (f, taylor_shift(f, rng.choice([-3, -1, 1, 2, 7]))):
            if not is_squarefree_q(fc):
                continue
            d = candidate_ramified_primes(NumberField(fc), e).gcd_value
            assert d == numerator_gcd_reference(fc, e)
            if trial % 2 == 0:
                assert d == m * math.gcd(*h.coeffs)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidate_set_matches_reference_on_benchmark_inputs(seed):
    for op in corpus_ops(seed) + generic_mix_ops(seed):
        field = NumberField(Poly(list(op.poly)))
        for e in (2, 3):
            if field.n % e == 0:
                assert candidate_ramified_primes(field, e) == reference_set(field.f, e), op.label


@pytest.mark.parametrize("scan", ["quad_subfield_scan", "cubic_subfield_scan"])
def test_one_squarefree_test_per_scan(monkeypatch, scan):
    # NumberField is the one input gate: ramify trusts the field it is given,
    # and a scan whose degree the kind does not divide is gated too
    import subfieldscan
    import subfieldscan.poly as poly_mod

    calls = []

    def counted(f):
        calls.append(f)
        return is_squarefree_q(f)

    for name, mod in list(sys.modules.items()):
        if name.startswith("subfieldscan") and hasattr(mod, "is_squarefree_q"):
            monkeypatch.setattr(mod, "is_squarefree_q", counted)
    assert poly_mod.is_squarefree_q is counted
    for op in corpus_ops(1):
        calls.clear()
        getattr(subfieldscan, scan)(Poly(list(op.poly)))
        assert len(calls) == 1, op.label


def _primes_of_d_skipped(f: Poly, e: int) -> int:
    """Assert that f is no squarefree polynomial mod any prime q of D prime
    to e, so the scans' prime walk (NumberField.squarefree_mod) skips q;
    return how many such q there are."""
    field = NumberField(f)
    d = candidate_ramified_primes(field, e).gcd_value
    primes = [q for q in factor_integer(d).primes() if e % q] if d > 1 else []
    for q in primes:
        assert not field.squarefree_mod(q), (f, e, q)
    return len(primes)


@settings(max_examples=60, deadline=None)
@given(e=st.sampled_from([2, 3]), data=st.data())
def test_no_prime_of_d_prime_to_e_is_squarefree_mod_q(e, data):
    # f = g**e + m*h as in test_numerator_gcd_matches_fraction_route, and its
    # Taylor shift: f is G**e mod q at every prime q of D prime to e
    n = data.draw(st.integers(1, 4 if e == 2 else 3))
    g = Poly(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)) + [1])
    h = Poly(data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=(e - 1) * n)))
    m = data.draw(st.sampled_from([5 * 7, 11 * 13, 2 * 3 * 17, 3**2 * 29, 2**3 * 5 * 31]))
    f = g**e + h.scale(m)
    f = taylor_shift(f, data.draw(st.integers(-3, 3)))
    assume(h and is_squarefree_q(f))
    assert _primes_of_d_skipped(f, e)   # m has a prime factor prime to e


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_prime_of_d_prime_to_e_is_squarefree_on_benchmark_inputs(seed):
    checked = 0
    for op in corpus_ops(seed) + generic_mix_ops(seed):
        f = Poly(list(op.poly))
        for e in (2, 3):
            if f.degree % e == 0:
                checked += _primes_of_d_skipped(f, e)
    assert checked
