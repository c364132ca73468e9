from hypothesis import given, settings, strategies as st

from subfieldscan.poly import Poly

coeff = st.one_of(st.integers(min_value=-40, max_value=40),
                  st.fractions(min_value=-10, max_value=10, max_denominator=6))
poly = st.lists(coeff, min_size=0, max_size=7).map(Poly)
nonzero_poly = poly.filter(bool)


@settings(max_examples=200, deadline=None)
@given(poly, poly, poly)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly() == a
    assert a * Poly([1]) == a


@settings(max_examples=200, deadline=None)
@given(poly, nonzero_poly)
def test_divmod_invariant(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert not r or r.degree < b.degree


@settings(max_examples=150, deadline=None)
@given(poly, st.integers(min_value=-5, max_value=5))
def test_evaluation_is_ring_hom(a, x):
    b = Poly([1, -2, 1])
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
