import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from subfieldscan import arith
from subfieldscan.arith import (factor_integer, is_probable_prime, legendre, primes_up_to,
                                sqrt_mod_prime)
from subfieldscan.errors import BudgetExceeded

PRIMES_1M = primes_up_to(100_000)


def test_factor_examples():
    assert factor_integer(12).factors == {2: 2, 3: 1}
    assert factor_integer(3969).factors == {3: 4, 7: 2}
    fi = factor_integer(1)
    assert fi.factors == {} and fi.sign == 1
    assert factor_integer(-12).sign == -1
    assert factor_integer(-12).value() == -12


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_factor_recombines_small():
    rng = random.Random(42)
    for _ in range(1500):
        n = rng.randrange(2, 1 << 48)
        fi = factor_integer(n)
        assert fi.value() == n
        assert all(is_probable_prime(p) for p in fi.factors)


def test_factor_recombines_large_within_budget(monkeypatch):
    # random 128-bit numbers; a budget-capped failure is acceptable, a wrong
    # factorization is not
    rng = random.Random(7)
    monkeypatch.setattr(arith, "RHO_ITERATION_CAP", 1 << 18)
    done = 0
    for _ in range(60):
        n = rng.randrange(1 << 100, 1 << 128)
        try:
            fi = factor_integer(n)
        except BudgetExceeded:
            continue
        assert fi.value() == n
        assert all(is_probable_prime(p) for p in fi.factors)
        done += 1
    assert done > 10


def test_primality_against_sieve():
    primes = set(primes_up_to(5000))
    for n in range(5000):
        assert is_probable_prime(n) == (n in primes)


def test_iter_primes_matches_sieve():
    # the lazy segmented sieve yields exactly the primes >= start, in order,
    # across window boundaries (256, 512, ... up to 2**16 numbers)
    for start, bound in ((2, 1000), (3, 10_000), (5, 50_000), (250, 2_000), (1_000, 1_000),
                         (7_919, 7_919), (65_000, 140_000), (-5, 30), (0, 1), (4, 4)):
        assert list(arith.iter_primes(start, bound)) == [
            p for p in primes_up_to(bound) if p >= start], (start, bound)
    # with no bound, against Miller-Rabin
    for start in (2, 3, 1_000, 99_990):
        got = list(itertools.islice(arith.iter_primes(start), 3_000))
        expect = itertools.islice((n for n in itertools.count(start) if is_probable_prime(n)),
                                  3_000)
        assert got == list(expect), start


def test_legendre_examples():
    assert legendre(2, 17) == 1
    assert legendre(-1, 3) == -1
    assert legendre(3, 3) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6),
       st.sampled_from([p for p in PRIMES_1M if p > 2]))
def test_legendre_multiplicative(a, b, p):
    assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_legendre_counts_residues():
    for p in (3, 5, 7, 11, 13):
        residues = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert (legendre(a, p) == 1) == (a in residues)


def test_sqrt_mod_prime():
    assert sqrt_mod_prime(2, 17) in (6, 11)
    assert sqrt_mod_prime(2, 5) is None
    assert sqrt_mod_prime(0, 13) == 0
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice([p for p in PRIMES_1M[2:500]])
        a = rng.randrange(1, p)
        s = sqrt_mod_prime(a, p)
        if s is not None:
            assert s * s % p == a % p
        else:
            assert legendre(a, p) == -1
