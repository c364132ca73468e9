import math
import random
from fractions import Fraction

import pytest

from subfieldscan.errors import NotSquarefree
from subfieldscan.poly import (Poly, compositum_minpoly, disc_poly, eth_root_coeffs,
                               is_squarefree_q, normalize_input, resultant_int)
from subfieldscan.testkit import multiquadratic_minpoly
from tests_poly_helpers import (eth_root_newton, poly_from_power_sums, power_sums,
                                sylvester_resultant, xgcd_q)

X = Poly([0, 1])


def rand_poly(rng, deg, bound=8, monic=False):
    cs = [rng.randint(-bound, bound) for _ in range(deg)]
    cs.append(1 if monic else rng.choice([c for c in range(-bound, bound + 1) if c]))
    return Poly(cs)


def test_arithmetic_basics():
    a = Poly.from_desc([1, 2, 3])
    b = Poly.from_desc([1, -1])
    assert (a * b).coeffs == Poly.from_desc([1, 1, 1, -3]).coeffs
    q, r = a.divmod(b)
    assert q * b + r == a
    assert a.evaluate(2) == 11
    assert a.derivative() == Poly.from_desc([2, 2])


def test_large_product_matches_evaluation():
    rng = random.Random(11)
    a = Poly([rng.randint(-99, 99) for _ in range(150)] + [1])
    b = Poly([rng.randint(-99, 99) for _ in range(130)] + [1])
    prod = a * b
    # deg(prod) + 1 distinct points determine a polynomial of that degree
    assert prod.degree == 280
    assert all(prod.evaluate(x) == a.evaluate(x) * b.evaluate(x) for x in range(-140, 141))


def test_eth_root_coeffs_examples():
    assert eth_root_coeffs(Poly.from_desc([1, 6, 11, 6, 1]), 2) == Poly.from_desc([1, 3, 1])
    assert eth_root_coeffs(Poly.from_desc([1, 0, 0, 0, 1]), 2) == Poly.from_desc([1, 0, 0])
    assert eth_root_coeffs(Poly.from_desc([1, 3, 3, 1]), 3) == Poly.from_desc([1, 1])
    with pytest.raises(ValueError, match="not divisible by 2"):
        eth_root_coeffs(Poly.from_desc([1, 0, 0, -2]), 2)


def test_power_sums_examples():
    assert power_sums(Poly.from_desc([1, -3, 2]), 2) == [3, 5]
    assert power_sums(Poly([0, 0, 0, 1]), 3) == [0, 0, 0]
    assert power_sums(Poly.from_desc([1, 0, 1]), 2) == [0, -2]


def test_poly_from_power_sums_examples():
    assert poly_from_power_sums([3, 5]) == Poly.from_desc([1, -3, 2])
    assert poly_from_power_sums([0]) == X
    assert poly_from_power_sums([0, -2]) == Poly.from_desc([1, 0, 1])


def test_newton_roundtrip():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randint(1, 20)
        f = rand_poly(rng, n, monic=True)
        assert poly_from_power_sums(power_sums(f, n)) == f


def test_eth_root_agreement_and_recovery():
    rng = random.Random(3)
    for _ in range(250):
        e = rng.choice([2, 3, 5])
        n = rng.randint(1, 12 // e) if e > 2 else rng.randint(1, 6)
        g = rand_poly(rng, n, monic=True)
        f = g**e
        assert eth_root_coeffs(f, e) == g
        assert eth_root_newton(f, e) == g


def test_eth_root_newton_equals_coeffs_on_non_powers():
    rng = random.Random(4)
    for _ in range(100):
        e = rng.choice([2, 3])
        n = rng.randint(1, 12)
        f = rand_poly(rng, e * n, monic=True)
        assert eth_root_coeffs(f, e) == eth_root_newton(f, e)


def res(a: Poly, b: Poly) -> int:
    return resultant_int(a.coeffs, b.coeffs)


def test_resultant_examples():
    assert res(Poly.from_desc([1, 0, -2]), Poly.from_desc([1, 0, -3])) == 1
    g = Poly.from_desc([2, -1, 7])
    a = 4
    assert res(Poly.from_desc([1, -a]), g) == g.evaluate(a)
    assert res(Poly.from_desc([1, 0, -2]), Poly.from_desc([1, 0, -2])) == 0
    assert resultant_int([3, -1, 2], [5]) == 5**2
    with pytest.raises(ValueError):
        resultant_int([], [1, 1])


def test_resultant_properties():
    rng = random.Random(5)
    for _ in range(60):
        f = rand_poly(rng, rng.randint(1, 4))
        g = rand_poly(rng, rng.randint(1, 4))
        h = rand_poly(rng, rng.randint(1, 3))
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert res(f, g) == sign * res(g, f)
        assert res(f, g * h) == res(f, g) * res(f, h)
        assert res(f, g) == sylvester_resultant(f, g)


def test_resultant_matches_sylvester_to_degree_12():
    # non-monic operands, content above 1 and negative leading coefficients
    rng = random.Random(12)
    for _ in range(80):
        f = rand_poly(rng, rng.randint(1, 12), bound=50).scale(rng.choice([1, 1, 6, -4]))
        g = rand_poly(rng, rng.randint(1, 12), bound=50).scale(rng.choice([1, -1, 9, -10]))
        assert res(f, g) == sylvester_resultant(f, g)
        c = Poly([rng.choice([-7, -2, 3, 12])])          # a degree-0 operand
        assert res(f, c) == c[0] ** f.degree == sylvester_resultant(f, c)
        assert res(c, g) == c[0] ** g.degree
        shared = rand_poly(rng, rng.randint(1, 3))       # a shared root: 0
        assert res(f * shared, g * shared) == 0
        # a remainder of degree deg g - 2 or less: the PRS drops two degrees
        r = rand_poly(rng, rng.randint(0, g.degree - 2), bound=50) if g.degree > 1 else Poly([1])
        a = g * rand_poly(rng, rng.randint(1, 3), bound=50) + r
        assert res(a, g) == sylvester_resultant(a, g)
    # a = x*b + 7 is 7 at both roots of b, and its PRS ends after one step
    assert res(Poly([7, 1, 0, 3]), Poly([1, 0, 3])) == 3**3 * 7**2


def test_disc_poly():
    assert disc_poly(Poly.from_desc([1, 0, -2])) == 8
    assert disc_poly(Poly.from_desc([1, 0, -3, 1])) == 81
    assert disc_poly(Poly([0, 0, 1])) == 0


def test_disc_poly_degree_32_multiquadratic():
    # Q(sqrt 2, sqrt 3, sqrt 5, sqrt 7, sqrt 11), a 651-digit discriminant
    d = disc_poly(multiquadratic_minpoly((2, 3, 5, 7, 11)))
    pinned = {2: 1328, 3: 116, 5: 52, 7: 16, 11: 16, 13: 12, 17: 8, 43: 4, 59: 8, 67: 2,
              83: 8, 131: 4, 139: 8, 163: 2, 173: 4, 1997: 4, 2999: 4}
    assert d == math.prod(p**k for p, k in pinned.items())


def test_compositum_examples():
    r = compositum_minpoly(Poly.from_desc([1, 0, -2]), Poly.from_desc([1, 0, -3]))
    assert r == Poly.from_desc([1, 0, -10, 0, 1])
    h = Poly.from_desc([1, 4, -7, 2])
    shifted = compositum_minpoly(Poly.from_desc([1, -1]), h)
    # roots are beta + 1 for roots beta of h, i.e. h(X - 1)
    lin = Poly([-1, 1])
    expect = Poly()
    for k in range(h.degree + 1):
        if h[k]:
            expect = expect + lin**k * h[k]
    assert shifted == expect
    with pytest.raises(NotSquarefree):
        compositum_minpoly(Poly.from_desc([1, 0, -2]), Poly.from_desc([1, 0, -2]), shift=1)


def test_normalize_examples():
    f, lam = normalize_input(Poly.from_desc([1, 0, Fraction(-1, 4)]))
    assert f == Poly.from_desc([1, 0, -1]) and lam == 2
    f, lam = normalize_input(Poly.from_desc([1, 0, -7]))
    assert f == Poly.from_desc([1, 0, -7]) and lam == 1
    f, lam = normalize_input(Poly.from_desc([2, 0, -4]))
    assert f == Poly.from_desc([1, 0, -2]) and lam == 1


def test_normalize_root_scaling():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(2, 6)
        raw = Poly([Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
                   + [Fraction(rng.randint(1, 5))])
        f, lam = normalize_input(raw)
        assert f.is_monic() and f.is_integral()
        # f(lam * x) = lam^n * raw(x) / lc  for every root-free sample point
        for x in (Fraction(1, 3), Fraction(-2, 5), 2):
            lhs = f.evaluate(lam * x)
            rhs = lam**f.degree * raw.evaluate(x) / raw.lc
            assert lhs == rhs


def test_gcd_and_squarefree():
    f = Poly.from_desc([1, 0, -2])
    assert is_squarefree_q(f)
    assert not is_squarefree_q(f * f)
    g, s, t = xgcd_q(f, f.derivative())
    assert g.degree == 0 or g == Poly([1])
    assert s * f + t * f.derivative() == g
