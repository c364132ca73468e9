import itertools
import random
from fractions import Fraction

import pytest

from subfieldscan.lattice import lll_reduce
from tests_lattice_helpers import change_of_basis, det_fraction as det_int, gram_schmidt


def norm2(v):
    return sum(x * x for x in v)


def assert_lll_conditions(reduced, delta=Fraction(3, 4)):
    bstar, mu = gram_schmidt(reduced)
    n = len(reduced)
    for i in range(n):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
    for i in range(1, n):
        lhs = (delta - mu[i][i - 1] ** 2) * sum(x * x for x in bstar[i - 1])
        rhs = sum(x * x for x in bstar[i])
        assert lhs <= rhs


def test_identity_unchanged():
    assert lll_reduce([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_unimodular_example():
    red = lll_reduce([[4, 3], [5, 4]])
    assert sorted(norm2(v) for v in red) == [1, 1]
    t = change_of_basis([[4, 3], [5, 4]], red)
    assert t is not None
    assert all(c.denominator == 1 for row in t for c in row)
    assert abs(det_int(t)) == 1


def test_near_orthogonal_stays_short():
    big = 5**40
    red = lll_reduce([[big, 0], [13, 1]])
    assert min(norm2(v) for v in red) <= 13 * 13 + 1


def test_dependent_basis_rejected():
    with pytest.raises(ValueError, match="dependent basis vectors"):
        lll_reduce([[1, 2], [2, 4]])


def test_random_lattices_invariants():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        basis = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        if det_int(basis) == 0:
            continue
        red = lll_reduce(basis)
        assert_lll_conditions(red)
        t = change_of_basis(basis, red)
        assert t is not None
        assert all(c.denominator == 1 for row in t for c in row)
        assert abs(det_int(t)) == 1


def test_first_vector_approximation():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 4)
        basis = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_int(basis) == 0:
            continue
        red = lll_reduce(basis)
        # brute-force shortest vector using small coefficients over the
        # reduced basis (near-orthogonal, so the box is sufficient)
        best = None
        for coeffs in itertools.product(range(-4, 5), repeat=n):
            if not any(coeffs):
                continue
            v = [sum(c * red[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
            q = norm2(v)
            best = q if best is None else min(best, q)
        assert norm2(red[0]) <= 2 ** (n - 1) * best
