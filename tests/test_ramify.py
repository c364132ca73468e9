import math
import random
import sys
from pathlib import Path

import pytest

from subfieldscan.arith import factor_integer
from subfieldscan.nfroot import NumberField
from subfieldscan.poly import Poly, eth_root_coeffs, is_squarefree_q
from subfieldscan.ramify import CandidateSet, candidate_ramified_primes
from subfieldscan.testkit import corpus_generate, multiquadratic_minpoly
from tests_poly_helpers import (eth_root_newton, numerator_gcd_reference,
                                ramified_superset_bruteforce, taylor_shift)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import corpus_ops, generic_mix_ops  # noqa: E402


def reference_set(f: Poly, e: int) -> CandidateSet:
    """The CandidateSet from the numerator gcd over Fractions."""
    d = numerator_gcd_reference(f, e)
    tame = [p for p in factor_integer(d).primes() if e % p] if d > 1 else []
    return CandidateSet(e=e, tame_primes=tuple(sorted(tame)), wild_primes=(2,) if e == 2 else (3,),
                        include_minus_one=e == 2, gcd_value=d)


def test_examples():
    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, 0, 0, 1])), 2)
    assert cs.gcd_value == 1 and cs.tame_primes == () and cs.wild_primes == (2,)
    assert cs.include_minus_one

    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, -1, 0, 1])), 2)
    assert cs.gcd_value == 3 and cs.tame_primes == (3,)

    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, -21, -35])), 3)
    assert cs.gcd_value == 7 and cs.tame_primes == (7,)
    assert cs.wild_primes == (3,) and not cs.include_minus_one


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
        assert set(cs.tame_primes) <= disc_primes


def test_candidate_set_covers_true_ramified_primes():
    entry = corpus_generate("multiquadratic", "2,3,5")
    cs = candidate_ramified_primes(NumberField(entry.poly), 2)
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
    cs = candidate_ramified_primes(NumberField(Poly.from_desc([1, 0, -5])), 2)
    assert 5 in cs.tame_primes


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
