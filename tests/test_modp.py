import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from subfieldscan import modp
from subfieldscan.arith import primes_up_to
from subfieldscan.errors import NotSquarefree
from subfieldscan.poly import Poly, disc_poly
from subfieldscan.sieve import class_decided, frobenius_class
from tests_poly_helpers import factor_mod_p


def rand_intpoly(rng, deg, bound=20):
    return Poly([rng.randint(-bound, bound) for _ in range(deg)] + [1])


def factorize(f, p):
    """The library's factorization of f mod p: a DDF, then its split."""
    return modp.split_stages(modp.ddf_degrees(f, p), p)


def degrees(f, p):
    return modp.degree_counts(modp.ddf_degrees(f, p))


def test_squarefree_examples():
    assert modp.squarefree_mod_p(Poly.from_desc([1, 0, -2]), 2) is False
    assert modp.squarefree_mod_p(Poly.from_desc([1, 0, -2]), 5) is True
    assert modp.squarefree_mod_p(Poly([0, 0, 1]), 7) is False


def test_ddf_examples():
    assert modp.ddf_degrees(Poly.from_desc([1, 0, 0, 0, 1]), 5) == {2: [1, 0, 0, 0, 1]}
    assert degrees(Poly.from_desc([1, 0, 0, 0, 1]), 5) == {2: 2}
    assert degrees(Poly.from_desc([1, 0, -2]), 3) == {2: 1}
    assert degrees(Poly.from_desc([1, 0, -1]), 7) == {1: 2}
    # x (x + 1) (x^3 + x + 1) mod 2
    assert modp.ddf_degrees(Poly.from_desc([1, 1, 1, 0, 1, 0]), 2) == {1: [0, 1, 1], 3: [1, 1, 0, 1]}


def test_factor_examples():
    fs = factorize(Poly.from_desc([1, 0, 0, 0, 1]), 5)
    assert fs == [[2, 0, 1], [3, 0, 1]]
    fs = factorize(Poly.from_desc([1, 0, -1]), 7)
    assert fs == [[1, 1], [6, 1]]
    fs = factorize(Poly.from_desc([1, 0, -2]), 3)
    assert fs == [[1, 0, 1]]  # x^2 - 2 = x^2 + 1 mod 3, irreducible


def test_ddf_and_factor_agree():
    rng = random.Random(1)
    primes = [p for p in primes_up_to(200) if p > 2]
    checked = 0
    while checked < 60:
        p = rng.choice(primes)
        f = rand_intpoly(rng, rng.randint(2, 9))
        if not modp.squarefree_mod_p(f, p):
            continue
        stages = modp.ddf_degrees(f, p)
        checked += 1
        degs = modp.degree_counts(stages)
        assert sum(d * c for d, c in degs.items()) == f.degree
        fs = modp.split_stages(stages, p)
        got = {}
        for fac in fs:
            got[len(fac) - 1] = got.get(len(fac) - 1, 0) + 1
        assert got == degs
        # product of factors reproduces f (monic) and each factor is irreducible
        prod = [1]
        for fac in fs:
            prod = modp.mul(prod, fac, p)
        assert prod == modp.monic(modp.from_poly(f, p), p)
        for fac in fs:
            assert degrees(Poly(fac), p) == {len(fac) - 1: 1}


def test_factor_gf2():
    f = Poly.from_desc([1, 0, 1, 1])  # irreducible mod 2? x^3+x+1 yes
    assert factorize(f, 2) == [[1, 1, 0, 1]]
    g = Poly.from_desc([1, 1, 0, 1])  # x^3+x^2+1 irreducible
    h = (f * g)
    fs = factorize(h, 2)
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


# -- the packed products against the schoolbook reference --------------------------

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


@st.composite
def near_the_short_cutoff(draw, m):
    """Full-length operands whose term count len(a) * len(b) lies near
    MUL_SHORT_TERMS, on either side of mul's choice of path."""
    la = draw(st.integers(min_value=1, max_value=16))
    near = modp.MUL_SHORT_TERMS // la
    lb = draw(st.integers(min_value=max(1, near - 2), max_value=near + 2))
    digits = st.integers(min_value=0, max_value=m - 1)
    a, b = (draw(st.lists(digits, min_size=k - 1, max_size=k - 1)) + [m - 1] for k in (la, lb))
    return a, b


@settings(max_examples=300, deadline=None)
@given(moduli, st.data())
def test_mul_matches_the_convolution(m, data):
    # short products are sums of term products, longer ones packed
    a, b = data.draw(st.one_of(st.tuples(residues(m, 40), residues(m, 40)),
                               near_the_short_cutoff(m)))
    conv = [sum(a[i] * b[t - i] for i in range(len(a)) if 0 <= t - i < len(b)) % m
            for t in range(len(a) + len(b) - 1)]
    assert modp.mul(a, b, m) == modp.trim(conv)


def reference_divmod(a, b, m):
    """Schoolbook division that reduces every coefficient at every step."""
    inv, db = pow(b[-1], -1, m), len(b) - 1
    q, r = [0] * max(0, len(a) - db), list(a)
    for i in range(len(a) - 1 - db, -1, -1):
        t = q[i] = r[i + db] * inv % m
        for j, c in enumerate(b):
            r[i + j] = (r[i + j] - t * c) % m
    return modp.trim(q), modp.trim(r[:db])


@st.composite
def divisions(draw):
    """(a, b, m): a reduced dividend, of a degree below deg b or not, and
    a divisor b that is monic or has another unit leading coefficient, mod
    a prime or a prime power."""
    m = draw(moduli)
    db = draw(st.integers(min_value=0, max_value=30))
    units = st.integers(min_value=1, max_value=m - 1).filter(lambda c: math.gcd(c, m) == 1)
    lead = draw(st.one_of(st.just(1), units))
    b = draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=db, max_size=db)) + [lead]
    a = draw(st.one_of(residues(m, db), residues(m, 70)))
    return a, b, m


@settings(max_examples=300, deadline=None)
@given(divisions())
def test_pdivmod_matches_the_reduced_schoolbook_division(case):
    # pdivmod reduces only the coefficient that fixes each quotient term
    a, b, m = case
    q, r = modp.pdivmod(a, b, m)
    assert (q, r) == reference_divmod(a, b, m)
    assert modp.add(modp.mul(q, b, m), r, m) == modp.trim(list(a)) and len(r) < len(b)


def test_invert_is_the_inverse_modulo_b():
    rng = random.Random(7)
    inverted = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 101, 65521])
        b = [rng.randrange(p) for _ in range(rng.randint(1, 12))] + [1]
        a = modp.trim([rng.randrange(p) for _ in range(rng.randint(1, 20))])
        if modp.gcd(a, b, p) != [1]:
            with pytest.raises(ValueError):
                modp.invert(a, b, p)
            continue
        u = modp.invert(a, b, p)
        assert modp.deg(u) < modp.deg(b)
        assert modp.pmod(modp.mul(a, u, p), b, p) == [1]
        inverted += 1
    assert inverted > 150


def test_ring_inverse_lifts_the_inverse_mod_p_to_the_ring_modulus():
    # Newton's iteration from invert's answer mod p gives a^-1 mod p**k for
    # every k, odd or even, including k = 1
    rng = random.Random(11)
    lifted = 0
    for _ in range(200):
        p = rng.choice([3, 5, 7, 101])
        v = [rng.randrange(-50, 50) for _ in range(rng.randint(1, 10))] + [1]
        ring = modp.QuotientRing(v, p ** rng.randint(1, 40))
        a = ring.element([rng.randrange(ring.m) for _ in range(rng.randint(1, 12))])
        if modp.gcd(modp.trim([c % p for c in a]), [c % p for c in ring.v], p) != [1]:
            continue
        assert ring.mul(a, ring.inverse(a, p)) == [1]
        lifted += 1
    assert lifted > 100


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


def horner(a, b, v, m):
    out = []
    for c in reversed(a):
        out = modp.add(modp.pmod(modp.mul(out, b, m), v, m), [c], m)
    return out


@settings(max_examples=200, deadline=None)
@given(moduli, st.lists(st.integers(min_value=-2**70, max_value=2**70), min_size=1, max_size=40),
       st.data())
def test_ring_with_the_integer_barrett_constant_matches_pdivmod(m, low, data):
    # the constant of a monic integer v, reduced mod m, is the ring's own
    v = low + [1]
    schoolbook = modp.QuotientRing(v, m)
    ring = modp.QuotientRing(v, m, modp.barrett_constant(v))
    n = len(low)
    mu = modp.pdivmod([0] * (2 * n - 1) + [1], ring.v, m)[0]
    assert modp.trim([c % m for c in modp.barrett_constant(v)]) == mu
    a, b = data.draw(residues(m, n)), data.draw(residues(m, n))
    e = data.draw(st.integers(min_value=0, max_value=400))
    assert ring.mul(a, b) == schoolbook.mul(a, b) == modp.pmod(modp.mul(a, b, m), ring.v, m)
    assert ring.pow(a, e) == schoolbook.pow(a, e) == schoolbook_pow(a, e, ring.v, m)


@st.composite
def xpow_cases(draw):
    p = draw(st.sampled_from([2, 3] + SMALL_PRIMES[:5]))
    m = p ** draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=30))
    low = draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n))
    e = draw(st.one_of(st.integers(min_value=0, max_value=n), st.just(n - 1), st.just(n),
                       st.integers(min_value=n + 1, max_value=10**9)))
    return modp.QuotientRing(low + [1], m), e


@settings(max_examples=300, deadline=None)
@given(xpow_cases())
def test_xpow_matches_pow_of_x(case):
    ring, e = case
    assert ring.xpow(e) == ring.pow([0, 1], e) == schoolbook_pow([0, 1], e, ring.v, ring.m)


@settings(max_examples=40, deadline=None)
@given(rings())
def test_chunked_compose_matches_horner_for_every_table_length(case):
    ring, a, b = case
    expect = horner(a, b, ring.v, ring.m)
    short = None
    for k in range(1, ring.n + 1):
        table = ring.power_table(b, k)
        assert len(table) == k + 1
        assert ring.compose(a, table) == expect
        if short is not None:   # a shorter table grown to this length
            assert ring.compose(a, ring.power_table(b, k, short)) == expect
        short = table


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 101, 1009, 1013]),
       st.integers(min_value=1, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6), st.sampled_from(["any", "double", "nonresidue"]))
def test_quadratic_roots_match_brute_force(p, a, b, c, shape):
    if shape == "double":        # a (x + b)^2: discriminant 0 mod p
        h = Poly([a * b * b, 2 * a * b, a])
    elif shape == "nonresidue":  # a (x^2 - t) for the least non-residue t
        t = next(t for t in range(2, p) if pow(t, (p - 1) // 2, p) == p - 1)
        h = Poly([-a * t, 0, a])
    else:
        h = Poly([c, b, a])
    hb = modp.from_poly(h, p)
    assume(hb)
    brute = {r for r in range(p) if modp.evaluate(hb, r, p) == 0}
    assert modp.roots_mod_p(h, p) == brute


@pytest.mark.parametrize("desc", [
    [1, 0, -3, 1],              # cyclic: three roots or none
    [1, -1, -1, -1],            # S3: one root at most primes
    [1, 0, -3, 2],              # (x - 1)^2 (x + 2): a double root
    [1, -6, 11, -6],            # (x - 1)(x - 2)(x - 3): three roots everywhere
    [251, 7, 0, 5],             # drops to a quadratic mod 251
    [1, 0, 0, 0, 1],            # x^4 + 1: four roots iff p = 1 mod 8
    [1, 0, -5, 0, 6],           # (x^2 - 2)(x^2 - 3)
    [257, -3, 8, 1, -9],        # drops to a cubic mod 257
    [3, 11, -2, 0, 0],          # x^2 (3x^2 + 11x - 2): zero is a root
])
def test_cubic_and_quartic_roots_match_brute_force(desc):
    # the gcd path takes over from trying every residue at p = 250; both
    # must give the same set on either side of the switch
    h = Poly.from_desc(desc)
    for p in primes_up_to(1000):
        hb = modp.from_poly(h, p)
        assert modp.roots_mod_p(h, p) == {r for r in range(p) if modp.evaluate(hb, r, p) == 0}, p


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3] + SMALL_PRIMES[:5]),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=16))
def test_ddf_matches_factor_degrees(p, low):
    f = Poly(low + [1])
    assume(modp.squarefree_mod_p(f, p))
    stages = modp.ddf_degrees(f, p)
    fs = modp.split_stages(stages, p)
    got = {}
    for fac in fs:
        got[len(fac) - 1] = got.get(len(fac) - 1, 0) + 1
    assert got == modp.degree_counts(stages)
    prod = [1]
    for fac in fs:
        prod = modp.mul(prod, fac, p)
    assert prod == modp.from_poly(f, p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 31, 257]),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=16),
       st.booleans())
def test_split_of_the_ddf_stages_is_the_reference_factorization(p, low, barrett):
    # the library factors f mod p one way: the stages of one DDF, with or
    # without the field's Barrett constant, split; the reference runs its
    # own gcd(f, f') test and DDF, and both draw from the stream seeded by p
    f = Poly(low + [1])
    try:
        expect = factor_mod_p(f, p)
    except NotSquarefree:
        assume(False)
    mu = modp.barrett_constant(low + [1]) if barrett else None
    assert modp.split_stages(modp.ddf_degrees(f, p, barrett=mu), p) == expect


@pytest.mark.parametrize("p", [2, 3, 31, 257])
def test_split_equal_degree_gives_the_same_factors_under_any_stream(p):
    # several factors of one degree, whose order only the sort fixes: the
    # stream a split draws from changes its steps, not its factors, so no
    # caller chooses one (split_stages seeds it with p)
    groups = {1: [[-a % p, 1] for a in range(min(p, 5))]}
    if p == 2:
        groups[3] = [[1, 1, 0, 1], [1, 0, 1, 1]]
    f = [1]
    for d, factors in groups.items():
        g = [1]
        for fac in factors:
            g = modp.mul(g, fac, p)
        f = modp.mul(f, g, p)
        splits = [sorted(modp._split_equal_degree(g, d, p, random.Random(seed)))
                  for seed in (p, 987654)]
        assert len(factors) >= 2 and splits[0] == splits[1] == sorted(factors)
    expect = sorted((fac for factors in groups.values() for fac in factors),
                    key=lambda a: (len(a), tuple(reversed(a))))
    assert factorize(Poly(f), p) == expect


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
    stages = modp.ddf_degrees(f, q)
    full = modp.degree_counts(stages)
    for ell in (2, 3):
        part_stages = modp.ddf_degrees(f, q, stop=class_decided(ell))
        assert part_stages.items() <= stages.items()
        part = modp.degree_counts(part_stages)
        assert frobenius_class(part, f.degree, ell) == frobenius_class(full, f.degree, ell)


# -- the fused Euclid and the one-ring DDF against plain references -----------------


def reference_divmod(a, b, p):
    """Schoolbook division with remainder over F_p, quotient kept."""
    inv = pow(b[-1], -1, p)
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):
        t = r[-1] * inv % p
        shift = len(r) - len(b)
        q[shift] = t
        for i, c in enumerate(b):
            r[shift + i] = (r[shift + i] - t * c) % p
        while r and r[-1] == 0:
            r.pop()
    return q, r


def reference_gcd(a, b, p):
    """Plain Euclid, then made monic."""
    while b:
        a, b = b, reference_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


GCD_PRIMES = [2, 3, 5, 7, 101, 10007]


@st.composite
def gcd_operands(draw):
    """Reduced operands of degree 0-30 (or zero): unrelated pairs, equal
    degrees, constants, pairs with a planted common factor, and an even
    and an odd polynomial."""
    p = draw(st.sampled_from(GCD_PRIMES))
    coeffs = st.integers(min_value=0, max_value=p - 1)

    def poly(min_deg, max_deg):
        n = draw(st.integers(min_value=min_deg, max_value=max_deg))
        return modp.trim(draw(st.lists(coeffs, min_size=n + 1, max_size=n + 1)) or [1])

    kind = draw(st.sampled_from(["random", "equal", "constant", "zero", "planted", "in x^2"]))
    if kind == "random":
        a, b = poly(0, 30), poly(0, 30)
    elif kind == "in x^2":
        # A(x^2) and x*B(x^2): every quotient has a zero constant term
        a = [c for ai in poly(0, 15) for c in (ai, 0)][:-1]
        b = [c for bi in poly(0, 14) for c in (0, bi)]
    elif kind == "equal":
        n = draw(st.integers(min_value=0, max_value=30))
        a = draw(st.lists(coeffs, min_size=n, max_size=n)) + [draw(coeffs.filter(bool))]
        b = draw(st.lists(coeffs, min_size=n, max_size=n)) + [draw(coeffs.filter(bool))]
    elif kind == "constant":
        a, b = poly(0, 30), [draw(coeffs.filter(bool))]
    elif kind == "zero":
        a, b = poly(0, 30), []
    else:
        common = poly(1, 10)
        a, b = modp.mul(common, poly(0, 20), p), modp.mul(common, poly(0, 20), p)
    if draw(st.booleans()):
        a, b = b, a
    return a, b, p


@settings(max_examples=600, deadline=None)
@given(gcd_operands())
def test_gcd_matches_reference_euclid(case):
    a, b, p = case
    g = modp.gcd(a, b, p)
    assert g == reference_gcd(a, b, p)
    for h in (a, b):
        if h:
            assert g[-1] == 1 and reference_divmod(h, g, p)[1] == []
    assert modp.gcd([], [], p) == []


def reference_ddf(fb, p):
    """Distinct-degree factorization reducing modulo the shrinking v."""
    v, w, d, out = list(fb), [0, 1], 0, []
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        w = schoolbook_pow(w, p, v, p)
        g = reference_gcd(modp.sub(w, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((d, g))
            v = reference_divmod(v, g, p)[0]
            w = reference_divmod(w, v, p)[1]
    if len(v) > 1:
        out.append((len(v) - 1, v))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=24))
def test_ddf_keeps_one_ring_and_matches_shrinking_reference(p, low):
    f = Poly(low + [1])
    assume(modp.squarefree_mod_p(f, p))
    fb = modp.monic(modp.from_poly(f, p), p)
    built = []

    class CountedRing(modp.QuotientRing):
        def __init__(self, v, m, barrett=None):
            built.append(v)
            super().__init__(v, m, barrett)

    original = modp.QuotientRing
    modp.QuotientRing = CountedRing
    try:
        stages = list(modp._ddf_stages(fb, p))
    finally:
        modp.QuotientRing = original
    assert built == [fb]
    assert stages == reference_ddf(fb, p)
    prod = [1]
    for _, g in stages:
        prod = modp.mul(prod, g, p)
    assert prod == fb
