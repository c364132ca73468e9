import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from subfieldscan import modp
from subfieldscan.arith import primes_up_to
from subfieldscan.errors import NotCoprimeCofactor, NotSquarefree
from subfieldscan.poly import Poly, disc_poly
from subfieldscan.sieve import class_decided, classify_prime_cubic, classify_prime_quadratic


def rand_intpoly(rng, deg, bound=20):
    return Poly([rng.randint(-bound, bound) for _ in range(deg)] + [1])


def test_squarefree_examples():
    assert modp.squarefree_mod_p(Poly.from_desc([1, 0, -2]), 2) is False
    assert modp.squarefree_mod_p(Poly.from_desc([1, 0, -2]), 5) is True
    assert modp.squarefree_mod_p(Poly([0, 0, 1]), 7) is False


def test_ddf_examples():
    assert modp.ddf_degrees(Poly.from_desc([1, 0, 0, 0, 1]), 5) == {2: 2}
    assert modp.ddf_degrees(Poly.from_desc([1, 0, -2]), 3) == {2: 1}
    assert modp.ddf_degrees(Poly.from_desc([1, 0, -1]), 7) == {1: 2}
    with pytest.raises(NotSquarefree):
        modp.ddf_degrees(Poly.from_desc([1, 0, -2]), 2)


def test_factor_examples():
    rng = random.Random(0)
    fs = modp.factor_mod_p(Poly.from_desc([1, 0, 0, 0, 1]), 5, rng)
    assert fs == [[2, 0, 1], [3, 0, 1]]
    fs = modp.factor_mod_p(Poly.from_desc([1, 0, -1]), 7, rng)
    assert fs == [[1, 1], [6, 1]]
    fs = modp.factor_mod_p(Poly.from_desc([1, 0, -2]), 3, rng)
    assert fs == [[1, 0, 1]]  # x^2 - 2 = x^2 + 1 mod 3, irreducible


def test_ddf_and_factor_agree():
    rng = random.Random(1)
    primes = [p for p in primes_up_to(200) if p > 2]
    checked = 0
    while checked < 60:
        p = rng.choice(primes)
        f = rand_intpoly(rng, rng.randint(2, 9))
        try:
            degs = modp.ddf_degrees(f, p)
        except NotSquarefree:
            continue
        checked += 1
        assert sum(d * c for d, c in degs.items()) == f.degree
        factors = modp.factor_mod_p(f, p, rng)
        got = {}
        for fac in factors:
            got[len(fac) - 1] = got.get(len(fac) - 1, 0) + 1
        assert got == degs
        # product of factors reproduces f (monic) and each factor is irreducible
        prod = [1]
        for fac in factors:
            prod = modp.mul(prod, fac, p)
        assert prod == modp.monic(modp.from_poly(f, p), p)
        for fac in factors:
            sub = modp.ddf_degrees(Poly(fac), p)
            assert sub == {len(fac) - 1: 1}


def test_factor_gf2():
    rng = random.Random(2)
    f = Poly.from_desc([1, 0, 1, 1])  # irreducible mod 2? x^3+x+1 yes
    assert modp.factor_mod_p(f, 2, rng) == [[1, 1, 0, 1]]
    g = Poly.from_desc([1, 1, 0, 1])  # x^3+x^2+1 irreducible
    h = (f * g)
    fs = modp.factor_mod_p(h, 2, rng)
    assert sorted(fs) == sorted([[1, 1, 0, 1], [1, 0, 1, 1]])


def test_roots_examples():
    assert modp.roots_mod_p(Poly.from_desc([1, 0, -2]), 17) == {6, 11}
    assert modp.roots_mod_p(Poly.from_desc([1, 0, -2]), 5) == set()
    assert modp.roots_mod_p(Poly([0, 1]), 13) == {0}


def test_roots_match_bruteforce():
    rng = random.Random(3)
    for p in (3, 7, 31, 97, 499, 997):
        for _ in range(10):
            h = rand_intpoly(rng, rng.randint(1, 5))
            roots = modp.roots_mod_p(h, p)
            brute = {r for r in range(p) if modp.evaluate(modp.from_poly(h, p), r, p) == 0}
            assert roots == brute


def test_roots_large_prime_path():
    # exercises the gcd-with-x^p-x path (p >= 1000)
    p = 10007
    h = Poly.from_desc([1, 0, -2])  # 2 is a QR mod 10007?
    roots = modp.roots_mod_p(h, p)
    for r in roots:
        assert r * r % p == 2
    h2 = Poly.from_desc([1, -3, 2])  # roots 1, 2
    assert modp.roots_mod_p(h2, p) == {1, 2}


def test_hensel_examples():
    assert modp.hensel_lift_factor(Poly.from_desc([1, 0, -2]), [11, 1], 17, 2) == [45, 1]
    assert modp.hensel_lift_factor(Poly.from_desc([1, 0, 1]), [3, 1], 5, 2) == [18, 1]
    f = Poly.from_desc([1, 0, -2])
    whole = modp.hensel_lift_factor(f, [1, 0, 1], 3, 4)  # f mod 3 = x^2+1
    assert whole == modp.from_poly(f, 81)


def test_hensel_divides():
    rng = random.Random(4)
    count = 0
    while count < 40:
        p = rng.choice([3, 5, 7, 11, 13])
        f = rand_intpoly(rng, rng.randint(2, 6))
        try:
            factors = modp.factor_mod_p(f, p, rng)
        except NotSquarefree:
            continue
        if len(factors) < 2:
            continue
        count += 1
        k = rng.randint(2, 6)
        f1 = modp.hensel_lift_factor(f, factors[0], p, k)
        m = p**k
        q, r = modp.pdivmod(modp.from_poly(f, m), f1, m)
        assert r == []
        assert f1[-1] == 1
        assert modp.trim([c % p for c in f1]) == factors[0]


def test_hensel_rejects_noncoprime():
    f = Poly.from_desc([1, 0, -2]) * Poly.from_desc([1, 0, -2])
    with pytest.raises((NotCoprimeCofactor, ValueError)):
        modp.hensel_lift_factor(f, [11, 1], 17, 3)


# -- the packed quotient ring against the schoolbook reference ---------------------

SMALL_PRIMES = [5, 7, 11, 13, 101, 1009, 9973, 65521]


@st.composite
def prime_powers(draw):
    p = draw(st.sampled_from([2, 3, 5, 47, 9973]))
    return p ** draw(st.integers(min_value=1, max_value=600 // p.bit_length()))


moduli = st.one_of(st.sampled_from([2, 3]), st.sampled_from(SMALL_PRIMES), prime_powers())


def residues(m, size):
    """Reduced polynomials of length at most size: zero, constants, random
    ones, and the all-(m-1) worst case for the slot bound."""
    return st.one_of(st.just([]),
                     st.integers(min_value=1, max_value=m - 1).map(lambda c: [c]),
                     st.lists(st.integers(min_value=0, max_value=m - 1), max_size=size).map(modp.trim),
                     st.just([m - 1] * size))


@st.composite
def rings(draw, operands=2):
    m = draw(moduli)
    n = draw(st.integers(min_value=1, max_value=40))
    low = draw(st.one_of(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n),
                         st.just([m - 1] * n)))
    ring = modp.QuotientRing(low + [1], m)
    return (ring,) + tuple(draw(residues(m, n)) for _ in range(operands))


def schoolbook_pow(a, e, v, m):
    result, base = [1], modp.pmod(a, v, m)
    while e:
        if e & 1:
            result = modp.pmod(modp.mul(result, base, m), v, m)
        base = modp.pmod(modp.mul(base, base, m), v, m)
        e >>= 1
    return result


@settings(max_examples=300, deadline=None)
@given(rings())
def test_ring_mul_matches_schoolbook(case):
    ring, a, b = case
    assert ring.mul(a, b) == modp.pmod(modp.mul(a, b, ring.m), ring.v, ring.m)


@settings(max_examples=150, deadline=None)
@given(rings(operands=1), st.integers(min_value=0, max_value=600))
def test_ring_pow_matches_repeated_squaring(case, e):
    ring, a = case
    assert ring.pow(a, e) == schoolbook_pow(a, e, ring.v, ring.m)


@settings(max_examples=100, deadline=None)
@given(rings(operands=1), st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=90))
def test_ring_element_and_pow_reduce_long_input(case, a):
    ring, _ = case
    assert ring.element(a) == modp.pmod(modp.trim([c % ring.m for c in a]), ring.v, ring.m)
    assert ring.pow(a, 3) == schoolbook_pow(modp.trim([c % ring.m for c in a]), 3, ring.v, ring.m)


@settings(max_examples=100, deadline=None)
@given(rings())
def test_ring_compose_matches_horner(case):
    ring, a, b = case
    expect = []
    for c in reversed(a):
        expect = modp.add(modp.pmod(modp.mul(expect, b, ring.m), ring.v, ring.m), [c], ring.m)
    assert ring.compose(a, ring.power_table(b)) == expect


def test_ring_rejects_non_monic_modulus():
    for v in ([3, 2], [5], []):
        with pytest.raises(ValueError):
            modp.QuotientRing(v, 7)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3] + SMALL_PRIMES[:5]),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=16),
       st.randoms(use_true_random=False))
def test_ddf_matches_factor_degrees(p, low, rng):
    f = Poly(low + [1])
    try:
        degs = modp.ddf_degrees(f, p)
    except NotSquarefree:
        assume(False)
    factors = modp.factor_mod_p(f, p, rng)
    got = {}
    for fac in factors:
        got[len(fac) - 1] = got.get(len(fac) - 1, 0) + 1
    assert got == degs
    prod = [1]
    for fac in factors:
        prod = modp.mul(prod, fac, p)
    assert prod == modp.from_poly(f, p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=12),
       st.sampled_from(primes_up_to(200)))
def test_disc_decides_squarefree_and_stopped_ddf_keeps_the_class(low, q):
    # monic f of degree 2-12: q divides disc(f) exactly when f mod q has a
    # repeated factor, and a DDF stopped at the first degree prime to l
    # classifies q as the full one does
    f = Poly(low + [1])
    squarefree = modp.squarefree_mod_p(f, q)
    assert (disc_poly(f) % q == 0) == (not squarefree)
    assume(squarefree)
    full = modp.ddf_degrees(f, q)
    for ell in (2, 3):
        part = modp.ddf_degrees(f, q, stop=class_decided(ell))
        assert part.items() <= full.items()
        if ell == 2 and f.degree % 2 == 0:
            assert classify_prime_quadratic(part, f.degree) == \
                classify_prime_quadratic(full, f.degree)
        if ell == 3:
            assert classify_prime_cubic(part) == classify_prime_cubic(full)
