import random

import pytest
from hypothesis import given, settings, strategies as st

from subfieldscan.arith import primes_up_to
from subfieldscan.eisenstein import (OMEGA, EisensteinInt, cubic_residue_class,
                                     omega_residue, split_prime)

eis = st.builds(EisensteinInt,
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=-50, max_value=50))


def test_omega_relations():
    w = OMEGA
    assert w * w == EisensteinInt(-1, -1)
    assert w * w * w == EisensteinInt(1, 0)
    assert EisensteinInt(1, 0) + w + w * w == EisensteinInt(0, 0)
    assert w.norm() == 1 and w.trace() == -1


@settings(max_examples=300, deadline=None)
@given(eis, eis)
def test_norm_and_conj_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * b).conj() == a.conj() * b.conj()
    n = a.norm()
    assert a * a.conj() == EisensteinInt(n, 0)
    assert n >= 0


def test_split_prime_examples():
    assert split_prime(7) == EisensteinInt(3, 1)
    assert split_prime(13) == EisensteinInt(4, 1)
    with pytest.raises(ValueError, match="does not split"):
        split_prime(5)
    with pytest.raises(ValueError, match="does not split"):
        split_prime(3)


def test_split_prime_all_below_1e4():
    for p in primes_up_to(10_000):
        if p % 3 != 1:
            continue
        pi = split_prime(p)
        assert pi.norm() == p
        sigma = pi.conj()
        assert pi * sigma == EisensteinInt(p, 0)
        # non-associate: pi / conj(pi) is not a unit, i.e. conj * unit != pi
        units = [EisensteinInt(1, 0), EisensteinInt(-1, 0), OMEGA,
                 EisensteinInt(0, -1), OMEGA * OMEGA, (OMEGA * OMEGA) * -1]
        assert all(sigma * u != pi for u in units)


def test_omega_residue():
    assert omega_residue(7) == 2
    for q in (7, 13, 31, 103):
        w = omega_residue(q)
        assert (w * w + w + 1) % q == 0


def test_cubic_class_examples():
    assert cubic_residue_class(EisensteinInt(2, 0), 7) == 2
    assert cubic_residue_class(EisensteinInt(1, 0), 11) == 0
    assert cubic_residue_class(EisensteinInt(1, 0), 13) == 0
    assert cubic_residue_class(EisensteinInt(2, 0), 5) == 0
    # q = 5 is inert: w**((25 - 1) / 3) = w**8 = w**2 in F_25
    assert cubic_residue_class(OMEGA, 5) == 2
    with pytest.raises(ValueError, match="unsupported prime 3"):
        cubic_residue_class(EisensteinInt(2, 0), 3)
    with pytest.raises(ValueError, match="7 divides the norm"):
        cubic_residue_class(EisensteinInt(7, 0), 7)


@given(eis, st.integers(min_value=0, max_value=40), st.sampled_from([2, 5, 7, 101]))
def test_pow_with_a_modulus_reduces_the_power(a, e, q):
    power = a ** e
    assert pow(a, e, q) == EisensteinInt(power.x % q, power.y % q)


def test_cubic_class_additive_and_cubes():
    rng = random.Random(9)
    qs = [q for q in primes_up_to(300) if q not in (2, 3)]
    done = 0
    while done < 200:
        q = rng.choice(qs)
        a = EisensteinInt(rng.randint(-20, 20), rng.randint(-20, 20))
        b = EisensteinInt(rng.randint(-20, 20), rng.randint(-20, 20))
        if a.norm() % q == 0 or b.norm() % q == 0 or a.norm() == 0 or b.norm() == 0:
            continue
        done += 1
        ca, cb = cubic_residue_class(a, q), cubic_residue_class(b, q)
        assert cubic_residue_class(a * b, q) == (ca + cb) % 3
        cube = a * a * a
        assert cubic_residue_class(cube, q) == 0
