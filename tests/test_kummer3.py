import itertools
import random

import mpmath
import pytest

from subfieldscan.errors import ZeroExponentVector
from subfieldscan.kummer3 import build_generator, cubic_place_basis
from subfieldscan.nfroot import integer_root
from subfieldscan.poly import Poly, disc_poly
from subfieldscan.ramify import CandidateSet
from subfieldscan.sieve import PlaceBasis, Span, kernel_vectors


def test_conductor7_generator():
    cand = build_generator((0, 1), PlaceBasis(3, (7,)))
    assert (cand.a.x, cand.a.y) == (14, -7)
    assert cand.c == 7 and cand.t == 35 and cand.v == -7
    assert cand.minpoly == Poly.from_desc([1, 0, -21, -35])
    assert disc_poly(cand.minpoly) == 3969


def test_unit_axis_generator():
    cand = build_generator((1,), PlaceBasis(3, ()))
    assert cand.minpoly == Poly.from_desc([1, 0, -3, 1])
    assert cand.c == 1 and cand.t == -1
    assert disc_poly(cand.minpoly) == 81


def test_zero_vector_rejected():
    with pytest.raises(ZeroExponentVector):
        build_generator((0, 0), PlaceBasis(3, (7,)))


def test_candidate_invariants():
    rng = random.Random(0)
    split_primes = (7, 13, 19, 31, 37, 43)
    for _ in range(100):
        chosen = rng.sample(split_primes, k=rng.randint(1, 3))
        exps = [rng.randint(0, 2)] + [rng.randint(0, 2) for _ in chosen]
        if not any(exps):
            exps[0] = 1
        cand = build_generator(tuple(exps), PlaceBasis(3, tuple(chosen)))
        assert cand.a.norm() == cand.c**3
        assert disc_poly(cand.minpoly) == (9 * cand.v) ** 2


def test_no_nonzero_class_has_a_rational_root():
    # a nonzero exponent vector is no cube in Z[w], so X^3 - 3cX - t is
    # irreducible over Q: build_generator and the cubic walk need no check
    # for a rational root
    basis = PlaceBasis(3, (7, 13, 19, 31))
    vectors = [v for v in itertools.product(range(3), repeat=basis.width) if any(v)]
    assert len(vectors) == 242
    for v in vectors:
        assert integer_root(build_generator(v, basis).minpoly) is None, v


def test_emitted_polynomial_has_the_symmetric_root():
    # u + c/u with u a complex cube root of a must satisfy the cubic
    mpmath.mp.dps = 60
    rng = random.Random(1)
    split_primes = (7, 13, 19, 31)
    omega = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
    for _ in range(100):
        chosen = rng.sample(split_primes, k=rng.randint(1, 2))
        exps = [rng.randint(0, 2)] + [rng.randint(0, 2) for _ in chosen]
        if not any(exps):
            exps[0] = 1
        cand = build_generator(tuple(exps), PlaceBasis(3, tuple(chosen)))
        a = cand.a.x + cand.a.y * omega
        u = mpmath.power(a, mpmath.mpf(1) / 3)
        beta = u + cand.c / u
        residual = abs(beta**3 - 3 * cand.c * beta - cand.t)
        assert residual < mpmath.mpf(10) ** (-30)


def candidates(cs, width):
    """One candidate per representative of the unconstrained F3 space."""
    basis = cubic_place_basis(cs)
    return [build_generator(rep, basis) for rep in kernel_vectors(Span(3, width))]


def test_enumerate_examples():
    cs = CandidateSet(3, (7,), (3,), False, 7)
    cands = candidates(cs, 2)
    assert len(cands) == 4
    assert len({(c.c, c.t) for c in cands}) == 4

    cs = CandidateSet(3, (), (3,), False, 1)
    cands = candidates(cs, 1)
    assert len(cands) == 1
    assert cands[0].minpoly == Poly.from_desc([1, 0, -3, 1])

    cs = CandidateSet(3, (5,), (3,), False, 5)
    basis = cubic_place_basis(cs)
    assert basis.primes == ()  # 5 = 2 mod 3 discarded
    cands = candidates(cs, 1)
    assert len(cands) == 1


def test_distinct_classes_give_distinct_fields():
    # cross root tests: no candidate's cubic has a root in another's field
    from subfieldscan.nfroot import NOT_FOUND, PROVED, NumberField, find_root

    cs = CandidateSet(3, (7,), (3,), False, 7)
    cands = candidates(cs, 2)
    for i, ci in enumerate(cands):
        field = NumberField(ci.minpoly)
        for j, cj in enumerate(cands):
            res = find_root(field, cj.minpoly)
            assert res.status == (PROVED if i == j else NOT_FOUND)
