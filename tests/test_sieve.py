import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subfieldscan.arith import iter_primes
from subfieldscan.eisenstein import EisensteinInt, OMEGA, cubic_residue_class, split_prime
from subfieldscan.poly import Poly
from subfieldscan.sieve import (REAL_PLACE_POINTS, PlaceBasis, Row, Span, canonical_f3,
                                frobenius_class, frobenius_row, kernel_vectors, real_place_row,
                                vector_satisfies)
from tests_sieve_helpers import f2_solutions, row_span, value_at


def brute_force_f2(rows, width):
    sols = []
    for vec in itertools.product((0, 1), repeat=width):
        if all(vector_satisfies(r, vec, 2) for r in rows):
            sols.append(vec)
    return set(sols)


def test_frobenius_class_quadratic_examples():
    assert frobenius_class({1: 1, 3: 1}, 4, 2) == 0       # splits in every quadratic subfield
    assert frobenius_class({2: 2}, 4, 2) is None           # decides nothing
    assert frobenius_class({4: 3}, 12, 2) == 1             # inert in every one


def test_frobenius_class_quadratic_subset_sum_matches_bruteforce():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.choice([4, 6, 8, 10, 12])
        degs = {}
        left = n
        while left:
            d = rng.randint(1, left)
            degs[d] = degs.get(d, 0) + 1
            left -= d
        cls = frobenius_class(degs, n, 2)
        items = [d for d, c in degs.items() for _ in range(c)]
        reachable = set()
        for mask in range(1 << len(items)):
            reachable.add(sum(items[i] for i in range(len(items)) if (mask >> i) & 1))
        if any(d % 2 for d in degs):
            assert cls == 0
        elif n // 2 in reachable:
            assert cls is None
        else:
            assert cls == 1


def test_frobenius_row_quadratic_examples():
    # (1 - legendre(m, q)) / 2 on the slots -1 and 2, the class as rhs
    basis = PlaceBasis(2, (2,))
    row = frobenius_row(5, {4: 1}, 4, basis)
    assert row.coeffs == (0, 1) and row.rhs == 1 and row.prime == 5
    row = frobenius_row(3, {4: 1}, 4, basis)
    assert row.coeffs == (1, 1) and row.rhs == 1
    row = frobenius_row(17, {1: 1, 3: 1}, 4, basis)
    assert row.coeffs == (0, 0) and row.rhs == 0 and row.trivial


def test_f2_kernel_vectors_examples():
    span = row_span([Row((0, 1), 1, 5), Row((1, 1), 1, 3)], 2, 2)
    assert f2_solutions(span, 2) == [(0, 1)] and len(span.kernel()) - 1 == 0
    span = row_span([], 2, 2)
    assert len(span.kernel()) - 1 == 2
    assert len(set(f2_solutions(span, 2))) == 4
    span = row_span([Row((1, 0), 0, 3), Row((1, 0), 1, 5)], 2, 2)
    assert f2_solutions(span, 2) is None


def test_f2_kernel_vectors_match_bruteforce():
    rng = random.Random(1)
    for _ in range(150):
        width = rng.randint(1, 6)
        rows = [Row(tuple(rng.randint(0, 1) for _ in range(width)), rng.randint(0, 1), 0)
                for _ in range(rng.randint(0, 5))]
        sols = f2_solutions(row_span(rows, 2, width), width)
        brute = brute_force_f2(rows, width)
        if sols is None:
            assert brute == set()
        else:
            assert set(sols) == brute


def test_zero_vector_never_solves_inert_system():
    rng = random.Random(2)
    for _ in range(100):
        width = rng.randint(1, 5)
        rows = [Row(tuple(rng.randint(0, 1) for _ in range(width)), 1, 0)]
        sols = f2_solutions(row_span(rows, 2, width), width)
        if sols is not None:
            assert tuple([0] * width) not in set(sols)


def test_frobenius_class_cubic_examples():
    # a degree prime to 3 splits q in every cyclic cubic subfield; no
    # cubic class is inert in all of them
    assert frobenius_class({1: 1, 3: 1}, 4, 3) == 0
    assert frobenius_class({3: 3}, 9, 3) is None
    assert frobenius_class({6: 1, 3: 1}, 9, 3) is None


def test_frobenius_row_cubic_slot_values():
    assert cubic_residue_class(OMEGA, 7) == 2
    b7 = split_prime(7)
    gen = b7 * b7.conj() * b7.conj()
    assert cubic_residue_class(EisensteinInt(2, 0), 5) == 0
    basis = PlaceBasis(3, (7,))
    gens = basis.generators
    assert gens[0] == OMEGA and gens[1] == gen
    row = frobenius_row(13, {1: 3}, 3, basis)
    assert row.coeffs == (cubic_residue_class(OMEGA, 13), cubic_residue_class(gen, 13))
    assert row.rhs == 0 and row.prime == 13


def test_cubic_basis_owns_its_prime_elements():
    # one fixed pi of norm p per prime slot, computed once; the generators
    # are built from the same elements
    basis = PlaceBasis(3, (7, 13, 19))
    pis = basis.split_primes
    assert pis == tuple(split_prime(p) for p in basis.primes)
    assert [pi.norm() for pi in pis] == list(basis.primes)
    assert basis.split_primes is pis
    assert basis.generators == (OMEGA, *(pi * pi.conj() ** 2 for pi in pis))
    with pytest.raises(ValueError, match="cubic basis"):
        PlaceBasis(2, (2, 7)).split_primes


def test_a_cubic_scan_finds_each_prime_element_once(monkeypatch):
    # the twist products (scan._Cubic.merge) read the basis's elements, so
    # each is found once per scan: without sieve rows the C3 x C3 field of
    # conductors 7 and 9 gets 2 of its 4 subfields as products
    import subfieldscan.scan as scan_mod
    import subfieldscan.sieve as sieve_mod
    from subfieldscan.config import ScanConfig
    from subfieldscan.testkit import corpus_generate

    f, calls = corpus_generate("cubic-compositum", "7,9").poly, []

    def counted(p):
        calls.append(p)
        return split_prime(p)

    for mod in (sieve_mod, scan_mod):
        monkeypatch.setattr(mod, "split_prime", counted, raising=False)
    report = scan_mod.cubic_subfield_scan(f, ScanConfig(sieve_prime_bound=2))
    assert len(report.subfields) == 4 and report.direct_tests == 2
    assert calls == report.candidate_primes == [7]


def test_slot_generator_norms_are_one_or_the_cube_of_their_prime():
    # a walked prime is neither 3 nor in the basis, so it divides no norm
    # and cubic_residue_class never meets a generator it cannot classify
    basis = PlaceBasis(3, (7, 13, 19, 31, 37))
    norms = [g.norm() for g in basis.generators]
    assert norms == [1] + [p**3 for p in basis.primes]


def test_frobenius_row_tells_a_trivial_row_from_no_information():
    # a class-deciding prime gives a row even when it is all zero; a prime
    # whose cycle type decides nothing gives None
    basis2 = PlaceBasis(2, (2,))
    assert frobenius_row(17, {1: 1, 3: 1}, 4, basis2).trivial           # split, 2 = 6^2 mod 17
    assert frobenius_row(5, {4: 1}, 4, basis2) == Row((0, 1), 1, 5)       # inert
    assert frobenius_row(17, {2: 2}, 4, basis2) is None                   # decides nothing
    basis3 = PlaceBasis(3, (7,))
    cubes = next(q for q in iter_primes(5, 10_000)
                 if q != 7 and not any(cubic_residue_class(g, q) for g in basis3.generators))
    assert frobenius_row(cubes, {1: 3}, 3, basis3) == Row((0, 0), 0, cubes)
    assert frobenius_row(cubes, {1: 3}, 3, basis3).trivial
    assert frobenius_row(cubes, {3: 1}, 3, basis3) is None


def test_real_place_row_is_the_first_listed_point_where_f_is_negative():
    basis = PlaceBasis(2, (2, 3))
    row = Row((1, 0, 0), 0, 0)
    assert real_place_row(Poly([-2, 0, 1]), basis) == (row, 0)
    # (x - 2)(x - 3) is 0 at 2 and 3 and negative between: first at 5/2
    assert real_place_row(Poly([6, -5, 1]), basis) == (row, Fraction(5, 2))
    assert real_place_row(Poly([6, 5, 1]), basis) == (row, Fraction(-5, 2))
    # x^2 + 1 has no real root; (x - 4)(x - 5) is negative only above 4
    assert real_place_row(Poly([1, 0, 1]), basis) is None
    assert real_place_row(Poly([20, -9, 1]), basis) is None
    assert max(abs(Fraction(a, b)) for a, b in REAL_PLACE_POINTS) == 4
    # the row is frobenius_row's at R: a fixed point gives class 0, and
    # (1 - sign(m)) / 2 per slot m
    assert row.rhs == frobenius_class({1: 1, 3: 1}, 4, 2)


def test_real_place_row_is_exact_where_floats_are_not():
    # x^2 - (B + 2) x + B is B at 0 and -1 at 1, which floats round to 0
    big = 2**200
    f = Poly([big, -(big + 2), 1])
    assert value_at(f, Fraction(1)) == -1
    assert (1.0 + float(-(big + 2))) + float(big) == 0
    assert real_place_row(f, PlaceBasis(2, (2,))) == (Row((1, 0), 0, 0), 1)


def test_real_place_row_never_for_a_cubic_basis():
    # x^3 - 2 is negative at 0, yet cyclic cubic fields have no sign slot
    assert real_place_row(Poly([-2, 0, 0, 1]), PlaceBasis(3, (7,))) is None
    assert real_place_row(Poly([-1, -2, 1, 1]), PlaceBasis(3, (7,))) is None


def test_f3_kernel_vectors_examples():
    reps = list(kernel_vectors(row_span([], 3, 2)))
    assert reps == [(1, 0), (0, 1), (1, 1), (1, 2)]
    reps = list(kernel_vectors(row_span([Row((1, 0), 0, 7), Row((0, 1), 0, 13)], 3, 2)))
    assert reps == []
    reps = list(kernel_vectors(row_span([Row((1, 2), 0, 7)], 3, 2)))
    # kernel of x + 2y = 0 is spanned by (1, 1)
    assert reps == [(1, 1)]


def test_f3_kernel_vectors_match_bruteforce():
    rng = random.Random(3)
    for _ in range(150):
        width = rng.randint(1, 4)
        rows = [Row(tuple(rng.randint(0, 2) for _ in range(width)), 0, 0)
                for _ in range(rng.randint(0, 3))]
        reps = list(kernel_vectors(row_span(rows, 3, width)))
        brute = set()
        for vec in itertools.product((0, 1, 2), repeat=width):
            if any(vec) and all(vector_satisfies(r, vec, 3) for r in rows):
                brute.add(canonical_f3(vec))
        assert set(reps) == brute
        assert len(reps) == len(set(reps))


def span_members(ell, width, gens):
    members = set()
    for coeffs in itertools.product(range(ell), repeat=len(gens)):
        v = [0] * width
        for c, g in zip(coeffs, gens):
            v = [(a + c * b) % ell for a, b in zip(v, g)]
        members.add(tuple(v))
    return members


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=8), st.data())
def test_span_reduce_matches_bruteforce(ell, width, data):
    vectors = st.tuples(*[st.integers(min_value=0, max_value=ell - 1)] * width)
    gens = data.draw(st.lists(vectors, max_size=5))
    span = Span(ell, width)
    for g in gens:
        span.insert(g)
    members = span_members(ell, width, gens)
    u = data.draw(vectors)
    if data.draw(st.booleans()):
        # often a vector of the same coset as u, up to a scalar
        c = data.draw(st.integers(min_value=1, max_value=ell - 1))
        m = data.draw(st.sampled_from(sorted(members)))
        v = tuple((c * a + b) % ell for a, b in zip(u, m))
    else:
        v = data.draw(vectors)
    for w in (u, v):
        rep = span.reduce(w)
        assert (not any(rep)) == (w in members)
        assert all(rep[p] == 0 for p in span.rows)
        assert next((a for a in rep if a), 1) == 1
    same_coset = any(tuple((a - c * b) % ell for a, b in zip(u, v)) in members
                     for c in range(1, ell))
    assert (span.reduce(u) == span.reduce(v)) == same_coset
    kernel = span.kernel()
    assert ell ** (width - len(kernel)) == len(members)
    assert all(sum(a * b for a, b in zip(k, g)) % ell == 0 for k in kernel for g in gens)
