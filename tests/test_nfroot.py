import random
from collections import Counter

import pytest

from subfieldscan import modp
from subfieldscan.arith import primes_up_to
from subfieldscan.errors import NoPrimeFound, NotSquarefree
from subfieldscan.modp import ddf_degrees, degree_counts, roots_mod_p, squarefree_mod_p
from subfieldscan.nfroot import (NOT_FOUND, PROVED, NumberField, PrimeData, RootCertificate,
                                 find_root, integer_root, knapsack_precision, knapsack_size,
                                 scaled_root_bits, select_prime, verify_certificate)
from subfieldscan.poly import Poly, compositum_minpoly
from subfieldscan.testkit import (CYCLOTOMIC_QUAD_TRUTH, corpus_generate,
                                  multiquadratic_certificates, multiquadratic_minpoly)
from tests_poly_helpers import factor_mod_p, taylor_shift

ZETA8 = Poly.from_desc([1, 0, 0, 0, 1])
Y2M2 = Poly.from_desc([1, 0, -2])


def scaled(field, x):
    """The scaled root f' * x mod f of an element x of the field."""
    return (x * field.fprime) % field.f


def test_select_prime_conditions():
    field = NumberField(ZETA8)
    pd = select_prime(field, Y2M2)
    assert pd.p % 2 == 1
    assert squarefree_mod_p(field.f, pd.p)
    assert len(pd.roots) == 2
    for s in pd.roots:
        assert (s * s - 2) % pd.p == 0
    # 3 must have been rejected (2 is a non-residue mod 3)
    assert pd.p != 3 and pd.p != 2
    # the chosen prime minimizes the factor count among qualifying primes;
    # 7 qualifies with r = 2, 17 qualifies with r = 4
    assert pd.p == 7 and pd.r == 2
    assert sum(degree_counts(ddf_degrees(field.f, 17)).values()) == 4
    assert len(roots_mod_p(Y2M2, 17)) == 2


def exhaustive_select_prime(field, h, first_at_most_deg_h=True):
    """The selection rule with nothing skipped: a full, gcd-checked DDF at
    each qualifying prime, up to the first with r <= deg h or else the 25th,
    then the least (r, p).  Without first_at_most_deg_h, the 25-prime rule:
    the least (r, p) among the first 25 qualifying primes."""
    qualifying = []
    for p in primes_up_to(50_000)[1:]:
        roots = roots_mod_p(h, p)
        if len(roots) != h.degree:
            continue
        try:
            r = sum(degree_counts(ddf_degrees(field.f, p)).values())
        except NotSquarefree:
            continue
        qualifying.append((r, p, tuple(sorted(roots))))
        if len(qualifying) >= 25 or (first_at_most_deg_h and r <= h.degree):
            break
    _, p, roots = min(qualifying)
    return PrimeData(p, tuple(tuple(fac) for fac in factor_mod_p(field.f, p)), roots)


S4_QUARTIC = Poly.from_desc([1, 0, 0, -1, -1])   # Galois group S4


@pytest.mark.parametrize("kind, params, hs", [
    ("cyclotomic", "8", [Y2M2, Poly.from_desc([1, 0, 1]), Poly.from_desc([1, 0, -3])]),
    ("cyclotomic", "7", [Poly.from_desc([1, 0, 7]), Poly.from_desc([1, 1, -2, -1])]),
    ("cyclotomic", "15", [Poly.from_desc([1, 0, -5]), Poly.from_desc([1, 0, 15])]),
    ("multiquadratic", "2,3,5", [Poly.from_desc([1, 0, -30]), Poly.from_desc([1, 0, -7])]),
    ("cubic-compositum", "7,9", [Poly.from_desc([1, 0, -3, 1]), Poly.from_desc([1, 0, -2])]),
    ("cubic-compositum", "7,q5", [Poly.from_desc([1, 0, -5]), Poly.from_desc([1, 1, -2, -1])]),
    # fields whose factors mod p have mixed degrees, so that a DDF can be
    # abandoned with degree left
    ("S4", "", [Y2M2, Poly.from_desc([1, 0, 3]), Poly.from_desc([1, 0, -7])]),
    ("S4 with sqrt5", "", [Poly.from_desc([1, 0, -5]), Poly.from_desc([1, 0, 11])]),
    ("S5", "", [Y2M2, Poly.from_desc([1, 0, 1]), Poly.from_desc([1, 1, -2, -1])]),
])
def test_select_prime_matches_exhaustive_rule(kind, params, hs):
    # the pruned DDFs, the kept factor degrees and the discriminant test
    # pick the same prime, roots and factors as the plain rule
    f = {"S4": S4_QUARTIC,
         "S4 with sqrt5": compositum_minpoly(Poly.from_desc([1, 0, -5]), S4_QUARTIC),
         "S5": Poly.from_desc([1, 0, 0, 0, -1, -1])}.get(kind)
    field = NumberField(f or corpus_generate(kind, params).poly)
    for h in hs:
        assert select_prime(field, h) == exhaustive_select_prime(field, h), h


def _true_subfields():
    """(field, h) for every subfield of every corpus field: x^2 - d for
    its quadratic ones, the minimal polynomial of its cubic ones."""
    plan = [("cyclotomic", str(m)) for m in CYCLOTOMIC_QUAD_TRUTH]
    plan += [("multiquadratic", p) for p in ("2,3", "2,3,5", "2,3,5,7")]
    plan += [("cubic-compositum", "7,9"), ("cubic-compositum", "7,q5")]
    for kind, params in plan:
        entry = corpus_generate(kind, params)
        field = NumberField(entry.poly)
        for h in [Poly([-d, 0, 1]) for d in entry.quad] + entry.cubic:
            yield field, h


def test_early_stop_picks_the_25_prime_rules_prime_for_true_subfields():
    # an h with a root in L has r >= deg h at every qualifying prime, so the
    # first prime with r = deg h is the least (r, p) of the first 25
    for field, h in _true_subfields():
        for p in primes_up_to(300)[1:]:
            if len(roots_mod_p(h, p)) == h.degree and squarefree_mod_p(field.f, p):
                assert sum(degree_counts(ddf_degrees(field.f, p)).values()) >= h.degree, \
                    (field.f, h, p)
        chosen = select_prime(field, h)
        assert chosen == exhaustive_select_prime(field, h) == \
            exhaustive_select_prime(field, h, first_at_most_deg_h=False), h


def test_select_prime_pool_exhaustion(monkeypatch):
    import subfieldscan.nfroot as nfroot

    monkeypatch.setattr(nfroot, "SELECT_PRIME_BOUND", 6)
    field = NumberField(ZETA8)
    with pytest.raises(NoPrimeFound):
        select_prime(field, Y2M2)


def test_theta_itself():
    field = NumberField(Poly.from_desc([1, 0, -2]))
    res = find_root(field, Y2M2)
    assert res.status == PROVED
    y = Poly(res.certificate.scaled_root)
    assert y in (scaled(field, Poly([0, 1])), scaled(field, Poly([0, -1])))


def test_zeta8_sqrt2():
    field = NumberField(ZETA8)
    res = find_root(field, Y2M2)
    assert res.status == PROVED
    y = Poly(res.certificate.scaled_root)
    expect = Poly([0, 1, 0, -1])  # theta - theta^3
    assert y in (scaled(field, expect), scaled(field, -expect))


@pytest.mark.parametrize("h, root", [
    (Poly.from_desc([1, 0, 0, -8]), 2),
    (Poly.from_desc([1, 0, -4]), -2),
    (Poly.from_desc([1, -3, 2]), 1),
])
def test_integer_roots_are_answered_directly(monkeypatch, h, root):
    # no prime is selected: the certificate is the root times f'
    import subfieldscan.nfroot as nfroot

    def no_selection(*args, **kwargs):
        raise AssertionError("select_prime was called")

    monkeypatch.setattr(nfroot, "select_prime", no_selection)
    field = NumberField(ZETA8)
    res = find_root(field, h)
    assert res.status == PROVED and verify_certificate(field, h, res.certificate)
    assert res.certificate.scaled_root == tuple(root * c for c in field.fprime.coeffs)


def test_fewer_completions_than_deg_h_prove_absence(monkeypatch):
    # f = x^4 - x - 1 is irreducible mod 5 (r = 1), where x^2 - 11 splits:
    # sqrt(11) is not in L, and no lattice is built to say so
    import subfieldscan.nfroot as nfroot

    def no_lattice(*args, **kwargs):
        raise AssertionError("root_knapsack was called")

    monkeypatch.setattr(nfroot, "root_knapsack", no_lattice)
    field = NumberField(S4_QUARTIC)
    h = Poly.from_desc([1, 0, -11])
    assert select_prime(field, h).r == 1
    assert find_root(field, h).status == NOT_FOUND


def test_zeta8_sqrt3_absent():
    field = NumberField(ZETA8)
    res = find_root(field, Poly.from_desc([1, 0, -3]))
    assert res.status == NOT_FOUND


def test_select_prime_propagates_errors(monkeypatch):
    # a fault in the DDF of a qualifying prime reaches find_root's caller
    # from select_prime, not as a skipped prime
    def broken(f, p, *args, **kwargs):
        raise RuntimeError("bug in ddf_degrees")

    field = NumberField(ZETA8)
    monkeypatch.setattr(modp, "ddf_degrees", broken)
    with pytest.raises(RuntimeError, match="bug in ddf_degrees") as info:
        find_root(field, Y2M2)
    assert "select_prime" in [entry.name for entry in info.traceback]


BIG_COEFFICIENTS = Poly([3 * 2**2600, 3 * 2**2600, 0, 0, 0, 0, 0, 0, 1])


@pytest.mark.parametrize("f, uses_disc", [
    (multiquadratic_minpoly((2, 3, 5)), True),
    # x^8 + c x + c: Hadamard bound of disc(f) about 37 500 bits
    (BIG_COEFFICIENTS, False),
])
def test_squarefree_mod_computes_a_small_discriminant_once(monkeypatch, f, uses_disc):
    import subfieldscan.nfroot as nfroot

    calls = []

    def disc_poly(g):
        calls.append(g)
        return nfroot_disc_poly(g)

    nfroot_disc_poly = nfroot.disc_poly
    monkeypatch.setattr(nfroot, "disc_poly", disc_poly)
    field = NumberField(f)
    for p in primes_up_to(300):
        assert field.squarefree_mod(p) == squarefree_mod_p(f, p), p
    assert not field.squarefree_mod(3)
    assert len(calls) == (1 if uses_disc else 0)


def test_number_field_computes_the_barrett_constant_once(monkeypatch):
    from subfieldscan.scan import quad_subfield_scan

    calls = []
    real = modp.barrett_constant

    def counted(v):
        calls.append(v)
        return real(v)

    def ddf_degrees(g, q, stop=None, barrett=None):
        stopped.append((stop is not None, barrett))
        return real_ddf(g, q, stop, barrett)

    stopped, real_ddf = [], modp.ddf_degrees
    monkeypatch.setattr(modp, "barrett_constant", counted)
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    f = corpus_generate("cyclotomic", "12").poly
    # the sieve, the root tests' prime selection and their lifting rings
    assert quad_subfield_scan(f).direct_tests > 0
    assert len(calls) == 1
    # the prime walks and select_prime, which give a stop rule, pass it
    assert stopped and all(b is not None for s, b in stopped if s)
    field = NumberField(f)
    mu = field.barrett()
    for m in (5, 13, 10007, 3**40):
        fm = modp.from_poly(f, m)
        assert modp.trim([c % m for c in mu]) == modp.pdivmod([0] * 7 + [1], fm, m)[0]
    assert field.barrett() is mu
    assert len(calls) == 2


def assert_matches_oracle(primes, deltas=None):
    """find_root proves x^2 - d for each d and returns the testkit's
    independently built certificate up to sign."""
    field = NumberField(multiquadratic_minpoly(primes))
    certs = multiquadratic_certificates(primes)
    for d in deltas or sorted(certs):
        h = Poly([-d, 0, 1])
        res = find_root(field, h)
        # no integer root: the knapsack answered
        assert res.status == PROVED and integer_root(h) is None, d
        assert verify_certificate(field, res.certificate.h, res.certificate)
        expect = certs[d]
        assert res.certificate.scaled_root in (expect, tuple(-c for c in expect)), d


def test_knapsack_degree8_all_subfields():
    assert_matches_oracle((2, 3, 5))
    r7 = find_root(NumberField(multiquadratic_minpoly((2, 3, 5))), Poly.from_desc([1, 0, -7]))
    assert r7.status == NOT_FOUND


def test_knapsack_degree16_all_subfields():
    # sqrt 15 is tested at a prime with r = 8 completions, where the
    # leading coefficients alone cannot tell two 0/1 choices apart
    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7)))
    assert select_prime(field, Poly([-15, 0, 1])).r == 8
    assert_matches_oracle((2, 3, 5, 7))


def test_knapsack_degree32_subfields():
    assert_matches_oracle((2, 3, 5, 7, 11), deltas=(5, 77, 2310))


def test_knapsack_degree64_root_tests():
    # Q(sqrt 2, ..., sqrt 13): the factor tree has 32 leaves
    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7, 11, 13)))
    h = Poly([-2, 0, 1])
    res = find_root(field, h)
    assert res.status == PROVED and verify_certificate(field, h, res.certificate)
    assert find_root(field, Poly([1, 0, 1])).status == NOT_FOUND


@pytest.mark.parametrize("h", [Poly([-30, 0, 1]), Poly([1, 0, 1]), Poly([-4, 0, 1])])
def test_find_root_ignores_its_config_and_needs_no_rng(h):
    # the benchmark harness still calls find_root(field, h, ScanConfig(), rng);
    # both are ignored
    from subfieldscan.config import ScanConfig

    field = NumberField(multiquadratic_minpoly((2, 3, 5)))
    expect = find_root(field, h)
    assert find_root(field, h, ScanConfig(), random.Random(0)) == expect
    assert find_root(field, h, ScanConfig(sieve_prime_bound=2), random.Random(9)) == expect


def test_knapsack_size():
    # few columns with many bits: c * (s - 16) covers the dimension times
    # its bit length, and 16 more bits per column are the guard
    for nvar in (1, 7, 15, 31, 52, 63):
        for n in (2, 8, 32, 81, 128):
            c, s = knapsack_size(n, nvar)
            assert 1 <= c <= min(n, 10) and s >= 32, (n, nvar)
            assert c * (s - 16) >= (nvar + 1 + c) * nvar.bit_length(), (n, nvar)


def test_knapsack_size_at_the_corpus_and_stretch_sizes():
    # degree 32 (16 completions): a dimension-18 lattice whose widest
    # columns have 36 bits plus the 16 guard bits; degree 128 (64
    # completions) and the degree-81 cubic (27 completions)
    assert knapsack_size(32, 15) == (2, 52)
    assert knapsack_size(128, 63) == (8, 70)
    assert knapsack_size(81, 52) == (7, 68)
    assert knapsack_size(2, 1) == (2, 32)


def test_scaled_root_bound_covers_every_certificate():
    # B bounds the certificate of every subfield of the corpus fields and
    # of Q(sqrt 2, ..., sqrt 11)
    checked = 0
    for field, h in _true_subfields():
        res = find_root(field, h)
        assert res.status == PROVED, h
        top = max(abs(c) for c in res.certificate.scaled_root)
        assert scaled_root_bits(field, h) >= top.bit_length(), (field.f, h)
        checked += 1
    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7, 11)))
    for d, cert in multiquadratic_certificates((2, 3, 5, 7, 11)).items():
        h = Poly([-d, 0, 1])
        assert verify_certificate(field, h, RootCertificate(cert, h))
        assert scaled_root_bits(field, h) >= max(abs(c) for c in cert).bit_length(), d
        checked += 1
    assert checked > 31


def _count_reductions(monkeypatch):
    import subfieldscan.nfroot as nfroot

    calls = []
    real_lll = nfroot.lll_reduce

    def lll_reduce(basis):
        calls.append(len(basis))
        return real_lll(basis)

    monkeypatch.setattr(nfroot, "lll_reduce", lll_reduce)
    return calls


@pytest.mark.parametrize("h, status, reductions",
                         [(Poly([-30, 0, 1]), PROVED, 1), (Poly([1, 0, 1]), NOT_FOUND, 3)])
def test_one_reduction_per_knapsack_root_test(monkeypatch, h, status, reductions):
    # one precision, one lattice, one lll_reduce when the root is there
    # (sqrt 30); when it is not (sqrt -1), one per width of the feed: 16,
    # 24 and 32 bits, and nothing after the last
    calls = _count_reductions(monkeypatch)
    field = NumberField(multiquadratic_minpoly((2, 3, 5)))
    assert select_prime(field, h).r >= 2
    res = find_root(field, h)
    assert res.status == status and integer_root(h) is None
    assert len(calls) == reductions


def test_a_lattice_too_thin_to_answer_is_carried_to_a_wider_width(monkeypatch):
    # at degree 32, 2 columns of 8 bits cannot isolate the 0/1 vector of
    # 15 indicators: a feed of that one width answers not_found after one
    # reduction, with no second lattice; a feed of 8 and then 16 bits
    # proves the same root at its carried second width
    import subfieldscan.nfroot as nfroot

    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7, 11)))
    h = Poly([-2, 0, 1])
    expect = find_root(field, h)
    assert expect.status == PROVED
    monkeypatch.setattr(nfroot, "knapsack_size", lambda n, nvar: (2, 8))
    calls = _count_reductions(monkeypatch)
    assert find_root(field, h).status == NOT_FOUND
    assert calls == [18]
    monkeypatch.setattr(nfroot, "FEED_FIRST_BITS", 8)
    monkeypatch.setattr(nfroot, "knapsack_size", lambda n, nvar: (2, 16))
    calls.clear()
    assert find_root(field, h) == expect
    assert calls == [18, 18]


# The subfields of Q(sqrt 2, ..., sqrt 11), written with X -> X + c, whose
# feed (widths 16, 24, 32, 40, 48, 52) needs its second lattice; the others
# prove at the first, as do all of degree 16 (widths 16, 24, 32).
SECOND_WIDTH_32 = {0: {10, 22, 30, 35, 42, 55, 66, 330, 385, 1155},
                   1: {3, 11, 21, 22, 70, 165, 210, 231, 2310},
                   -2: {3, 14, 21, 22, 30, 33, 42, 105, 210, 231, 330, 770, 2310}}


def test_corpus_size_subfields_prove_at_the_first_lattice(monkeypatch):
    # the last widths are a guard: every quadratic subfield of the fields
    # of degree 16 and 32, each written three ways, proves in its one
    # lift's feed at its first or second width
    import subfieldscan.nfroot as nfroot

    calls = _count_reductions(monkeypatch)
    attempts = []
    real_attempt = nfroot._knapsack_attempt
    monkeypatch.setattr(nfroot, "_knapsack_attempt",
                        lambda *args: attempts.append(args[-1]) or real_attempt(*args))
    checked = 0
    for params in ("2,3,5,7", "2,3,5,7,11"):
        entry = corpus_generate("multiquadratic", params)
        for c in (0, 1, -2):
            field = NumberField(taylor_shift(entry.poly, c))
            for d in entry.quad:
                calls.clear()
                attempts.clear()
                res = find_root(field, Poly([-d, 0, 1]))
                second = params == "2,3,5,7,11" and d in SECOND_WIDTH_32[c]
                assert res.status == PROVED and len(calls) == 1 + second, (params, c, d)
                assert attempts == [[16, 24, 32] if params == "2,3,5,7"
                                    else [16, 24, 32, 40, 48, 52]]
                checked += 1
    assert checked == 3 * (15 + 31)


# perfbench's mq32-root targets, the 15 subfields of Q(sqrt 2, ..., sqrt 11)
# whose root test selects p = 19 (16 completions), by the feed width that
# proves them
MQ32_FIRST_WIDTH = (5, 6, 7, 11, 77, 210, 462, 2310)
MQ32_SECOND_WIDTH = (30, 35, 42, 55, 66, 330, 385)


def test_mq32_targets_prove_at_their_pinned_width(monkeypatch):
    # one dimension-18 reduction at 16 bits, or a second one at 24
    calls = _count_reductions(monkeypatch)
    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7, 11)))
    for d in MQ32_FIRST_WIDTH + MQ32_SECOND_WIDTH:
        h = Poly([-d, 0, 1])
        assert select_prime(field, h).p == 19
        calls.clear()
        res = find_root(field, h)
        assert res.status == PROVED and verify_certificate(field, h, res.certificate), d
        assert calls == [18] * (1 + (d in MQ32_SECOND_WIDTH)), d


def test_isolation_is_not_monotone_in_the_width():
    # sqrt 77 at p = 19: one lattice of 18 bits misses the root that 16
    # and 24 bits find, so the feed's widths are pinned, not searched
    import subfieldscan.nfroot as nfroot

    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7, 11)))
    h = Poly([-77, 0, 1])
    pdata = select_prime(field, h)
    for widths, status in (([16], PROVED), ([18], NOT_FOUND), ([24], PROVED)):
        assert nfroot._knapsack_attempt(field, h, pdata, 2, widths).status == status, widths


def test_the_feed_carries_each_reduced_basis_exactly(monkeypatch):
    # x^2 - 13 has no root in Q(sqrt 2, ..., sqrt 11), so root_knapsack's
    # feed runs all its widths, up to the guard width s, and builds one
    # fresh lattice, the first.  Each later one is the reduced basis before
    # it, T * (fresh basis at the old width), carried to T * (fresh basis
    # at the new width): T unimodular, Gram determinant 2**(2 * c * width).
    import subfieldscan.nfroot as nfroot
    from tests_lattice_helpers import change_of_basis, det_fraction

    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7, 11)))
    h = Poly([-13, 0, 1])
    pdata = select_prime(field, h)
    c, s = knapsack_size(field.n, pdata.r - 1)
    assert (pdata.r, c, s) == (16, 2, 52)
    bits, built, reduced_in, reduced_out = {}, [], [], []

    def fraction_bits(sums, width, m):
        bits.setdefault(width, []).append(real_bits(sums, width, m))
        return bits[width][-1]

    def lll_reduce(basis):
        reduced_in.append(basis)
        reduced_out.append(real_lll(basis))
        return reduced_out[-1]

    def knapsack_basis(columns, width):
        built.append(width)
        return real_basis(columns, width)

    real_bits, real_lll = nfroot._fraction_bits, nfroot.lll_reduce
    real_basis = nfroot._knapsack_basis
    monkeypatch.setattr(nfroot, "_fraction_bits", fraction_bits)
    monkeypatch.setattr(nfroot, "lll_reduce", lll_reduce)
    monkeypatch.setattr(nfroot, "_knapsack_basis", knapsack_basis)
    assert nfroot.root_knapsack(field, h, pdata).status == NOT_FOUND
    widths = list(bits)
    assert widths == [16, 24, 32, 40, 48, s] and built == [16]
    fresh = [real_basis(bits[w], w) for w in widths]
    assert len(reduced_in) == len(widths) and reduced_in[0] == fresh[0]
    for i in range(1, len(widths)):
        t = change_of_basis(fresh[i - 1], reduced_out[i - 1])
        assert all(x.denominator == 1 for row in t for x in row)
        assert abs(det_fraction(t)) == 1
        carried = [[sum(x * row[j] for x, row in zip(trow, fresh[i]))
                    for j in range(len(fresh[i][0]))] for trow in t]
        assert reduced_in[i] == carried, widths[i]
        gram = [[sum(x * y for x, y in zip(u, v)) for v in carried] for u in carried]
        assert det_fraction(gram) == 2 ** (2 * c * widths[i])
    off = [row[:] for row in reduced_out[0]]
    off[3][-1] += 1
    with pytest.raises(ArithmeticError):
        nfroot._carry_basis(off, bits[16], 16, bits[24], 24)


def test_knapsack_lifts_once_to_the_bound_precision(monkeypatch):
    # every root lifts to the one k that knapsack_precision takes from B
    import subfieldscan.nfroot as nfroot

    lifted = []

    def lift_root(h, s0, p, k):
        lifted.append(k)
        return real_lift(h, s0, p, k)

    real_lift = nfroot._lift_root
    monkeypatch.setattr(nfroot, "_lift_root", lift_root)
    field = NumberField(multiquadratic_minpoly((2, 3, 5)))
    h = Poly([-30, 0, 1])
    pdata = select_prime(field, h)
    _, s = knapsack_size(field.n, pdata.r - 1)
    k = knapsack_precision(field, h, pdata.p, s)
    assert (pdata.p, s, k) == (7, 32, 26)
    bits = scaled_root_bits(field, h) + field.n.bit_length() + s + 8
    assert k > 1 and pdata.p ** (k - 1) < 2 ** bits <= pdata.p ** k
    assert find_root(field, h).status == PROVED
    assert set(lifted) == {k}


def reference_columns(field, pdata, k):
    """f' * e_i mod (f, p^k) for the completions i >= 2, from the CRT
    idempotents: e_i = c * c^-1 mod p with c = f/g_i and its inverse in
    F_p[x]/(g_i) = F_(p^d) (Fermat), then Newton e -> 3e^2 - 2e^3."""
    p = pdata.p
    f_p = modp.from_poly(field.f, p)
    columns = []
    for g in pdata.factors[1:]:
        c = modp.pdivmod(f_p, list(g), p)[0]
        inverse = modp.QuotientRing(g, p).pow(c, p ** (len(g) - 1) - 2)
        e, j = modp.pmod(modp.mul(c, inverse, p), f_p, p), 1
        while j < k:
            j = min(2 * j, k)
            m = p**j
            f_m = modp.from_poly(field.f, m)
            e2 = modp.pmod(modp.mul(e, e, m), f_m, m)
            e3 = modp.pmod(modp.mul(e2, e, m), f_m, m)
            e = modp.sub(modp.scale(e2, 3, m), modp.scale(e3, 2, m), m)
        columns.append(modp.pmod(modp.mul(modp.from_poly(field.fprime, m), e, m), f_m, m))
    return columns


def _prime_data(f, h, p):
    return PrimeData(p, tuple(tuple(g) for g in factor_mod_p(f, p)),
                     tuple(sorted(roots_mod_p(h, p))))


S4_SQRT5 = compositum_minpoly(Poly.from_desc([1, 0, -5]), S4_QUARTIC)


@pytest.mark.parametrize("f, h, p, r, k", [
    (multiquadratic_minpoly((2, 3, 5)), Poly([-30, 0, 1]), 7, 4, 26),
    (multiquadratic_minpoly((2, 3, 5, 7, 11)), Poly([-5, 0, 1]), 19, 16, 39),
    # factors of degrees 1, 1, 3, 3 and 1, 1, 1, 1, 2, 2
    (S4_SQRT5, Poly([-5, 0, 1]), 11, 4, 20),
    (S4_SQRT5, Poly([-5, 0, 1]), 79, 6, 11),
    (corpus_generate("cubic-compositum", "7,9").poly, Poly.from_desc([1, 0, -3, 1]), 17, 3, 19),
])
def test_knapsack_columns_equal_f_prime_times_the_idempotents(monkeypatch, f, h, p, r, k):
    # the lattice gets (s_j - s_1) * (f/g_i) * g_i' for the lifted factors
    # g_i, byte for byte the (s_j - s_1) * f' * e_i of the idempotents
    import subfieldscan.nfroot as nfroot

    field = NumberField(f)
    pdata = _prime_data(f, h, p)
    _, s = knapsack_size(field.n, (pdata.r - 1) * (h.degree - 1))
    assert pdata.r == r and knapsack_precision(field, h, p, s) == k
    m = p**k
    roots = [nfroot._lift_root(h, s0, p, k) for s0 in pdata.roots]
    y0 = modp.scale(modp.from_poly(field.fprime, m), roots[0], m)
    expect = [y0] + [modp.scale(col, sj - roots[0], m)
                     for col in reference_columns(field, pdata, k) for sj in roots[1:]]
    vectors = []

    def weighted_sums(vec, weights, m):
        vectors.append(vec)
        return real_sums(vec, weights, m)

    real_sums = nfroot._weighted_sums
    monkeypatch.setattr(nfroot, "_weighted_sums", weighted_sums)
    assert nfroot.root_knapsack(field, h, pdata).status == PROVED
    assert vectors == expect


def test_cubic_root():
    f = compositum_minpoly(Poly.from_desc([1, 0, -21, -35]), Poly.from_desc([1, 0, -5]))
    field = NumberField(f)
    res = find_root(field, Poly.from_desc([1, 0, -21, -35]))
    assert res.status == PROVED
    res2 = find_root(field, Poly.from_desc([1, 0, -3, 1]))
    assert res2.status == NOT_FOUND


def test_cubic_roots_over_three_completions():
    # C3 x C3: each cubic subfield is tested at a prime with r = 3
    # completions, so two indicator bits per completion, at most one set
    entry = corpus_generate("cubic-compositum", "7,9")
    field = NumberField(entry.poly)
    for h in entry.cubic:
        assert select_prime(field, h).r >= 3
        res = find_root(field, h)
        assert res.status == PROVED and verify_certificate(field, h, res.certificate)


def test_verify_certificate_tampering():
    field = NumberField(ZETA8)
    res = find_root(field, Y2M2)
    cert = res.certificate
    assert verify_certificate(field, Y2M2, cert)
    for i in range(len(cert.scaled_root)):
        bad = list(cert.scaled_root)
        bad[i] += 1
        assert not verify_certificate(field, Y2M2, RootCertificate(tuple(bad), Y2M2))
    # certificate checked against the wrong polynomial
    assert not verify_certificate(field, Poly.from_desc([1, 0, -3]), cert)


def test_newton_lift_invariant():
    from subfieldscan.nfroot import _lift_root

    h = Poly.from_desc([1, 0, -2])
    for k in (2, 4, 8, 16):
        s = _lift_root(h, 6, 17, k)
        assert (s * s - 2) % 17**k == 0


def test_ddf_stages_are_kept_per_prime(monkeypatch):
    # the field answers from what it kept when the entry is complete or the
    # caller's stop rule holds on it, and runs the DDF again otherwise
    from subfieldscan.sieve import class_decided

    calls = []

    def ddf_degrees(g, q, stop=None, barrett=None):
        calls.append(q)
        return real_ddf(g, q, stop, barrett)

    def counts(entry):
        return degree_counts(entry[0]), entry[1]

    real_ddf = modp.ddf_degrees
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    field = NumberField(S4_QUARTIC)
    # mod 11 the degrees are 1 and 3: the class rule for l = 2 stops at 1
    first = field.ddf(11, class_decided(2))
    assert counts(first) == ({1: 1}, 3)
    assert field.ddf(11, class_decided(2)) is first
    assert counts(field.ddf(11, lambda degrees, left: sum(degrees.values()) >= 1)) == ({1: 1}, 3)
    assert calls == [11]
    # a rule that does not hold on the entry: the DDF runs again, and its
    # complete answer replaces the entry and answers every later rule
    full = field.ddf(11, lambda degrees, left: False)
    assert counts(full) == ({1: 1, 3: 1}, 0)
    assert full[0] == real_ddf(S4_QUARTIC, 11)
    assert field.ddf(11, class_decided(3)) is full
    assert calls == [11, 11]
    # an answer that is not kept is computed at every call
    for _ in range(2):
        assert counts(field.ddf(13, lambda degrees, left: False, keep=False)) == \
            ({1: 1, 3: 1}, 0)
    assert calls == [11, 11, 13, 13]


@pytest.mark.parametrize("f, h, sieve", [
    (S4_SQRT5, Poly([-5, 0, 1]), False),   # not Galois: the selection's own DDF decides p
    (ZETA8, Y2M2, True),                   # Galois: the sieve's kept DDF at p = 7 decides it
], ids=["not-galois", "sieve-kept"])
def test_a_root_test_factors_f_mod_p_by_the_ddf_that_chose_p(monkeypatch, f, h, sieve):
    # the factors of f mod p are the split of the stages of the DDF that
    # chose p: no gcd(f, f') test mod p and no DDF outside ddf_degrees
    import subfieldscan.scan as scan_mod
    from subfieldscan.config import ScanConfig
    from subfieldscan.ramify import candidate_ramified_primes

    field = NumberField(f)
    pd = select_prime(field, h)
    if sieve:
        kind = scan_mod._Quad(field, candidate_ramified_primes(field, 2))
        walked = scan_mod.sieve_rows(field, kind.basis, kind.gcd_value,
                                     ScanConfig().sieve_prime_bound).walked
        assert pd.p <= walked
    squarefree, stages, ddf = [], [], []

    def squarefree_mod_p(g, q):
        squarefree.append(q)
        return real_squarefree(g, q)

    def ddf_stages(fb, q, barrett=None):
        stages.append(q)
        return real_stages(fb, q, barrett)

    def ddf_degrees(g, q, stop=None, barrett=None):
        ddf.append(q)
        return real_ddf(g, q, stop, barrett)

    real_squarefree, real_stages, real_ddf = (modp.squarefree_mod_p, modp._ddf_stages,
                                              modp.ddf_degrees)
    monkeypatch.setattr(modp, "squarefree_mod_p", squarefree_mod_p)
    monkeypatch.setattr(modp, "_ddf_stages", ddf_stages)
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    assert find_root(field, h).status == PROVED
    assert squarefree == [] and stages == ddf
    assert (pd.p not in ddf) if sieve else (ddf[-1] == pd.p)


def test_root_tests_on_one_field_repeat_their_work(monkeypatch):
    # select_prime reads the kept factor degrees but keeps none of its own,
    # so a root test runs the same DDFs whatever ran on the field before
    calls = []

    def ddf_degrees(g, q, stop=None, barrett=None):
        calls.append(q)
        return real_ddf(g, q, stop, barrett)

    real_ddf = modp.ddf_degrees
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    field = NumberField(multiquadratic_minpoly((2, 3, 5, 7)))
    runs = []
    for _ in range(2):
        calls.clear()
        assert find_root(field, Poly([-15, 0, 1])).status == PROVED
        runs.append(list(calls))
    assert runs[0] and runs[0] == runs[1]


# DDFs a corpus scan runs twice, all at primes above the last prime its
# sieve walked: the root tests' prime selection walks on past the sieve's
# stop, and select_prime keeps nothing of its own
DDF_REPEATS_ABOVE_SIEVE = {("cyclotomic", "24"): 14, ("multiquadratic", "2,3,5"): 6}


def test_corpus_scans_run_no_ddf_twice_up_to_the_sieve_stop(monkeypatch):
    # the sieve, the witness searches and the root tests' prime selection
    # share each field's factor degrees; check_invariants runs DDFs of its
    # own at witness primes, and none of these scans has one
    import subfieldscan.scan as scan_mod

    calls, walked = [], []

    def ddf_degrees(g, q, stop=None, barrett=None):
        calls.append((g.coeffs, q))
        return real_ddf(g, q, stop, barrett)

    def sieve_rows(*args):
        sieve = real_sieve(*args)
        walked.append(sieve.walked)
        return sieve

    real_ddf, real_sieve = modp.ddf_degrees, scan_mod.sieve_rows
    monkeypatch.setattr(modp, "ddf_degrees", ddf_degrees)
    monkeypatch.setattr(scan_mod, "sieve_rows", sieve_rows)
    plan = [("cyclotomic", str(m), scan_mod.quad_subfield_scan) for m in CYCLOTOMIC_QUAD_TRUTH]
    plan += [("cyclotomic", "7", scan_mod.cubic_subfield_scan)]
    plan += [("multiquadratic", p, scan_mod.quad_subfield_scan) for p in ("2,3", "2,3,5", "2,3,5,7")]
    plan += [("cubic-compositum", "7,9", scan_mod.cubic_subfield_scan),
             ("cubic-compositum", "7,q5", scan_mod.quad_subfield_scan),
             ("cubic-compositum", "7,q5", scan_mod.cubic_subfield_scan)]
    for kind, params, scan in plan:
        calls.clear()
        walked.clear()
        report = scan(corpus_generate(kind, params).poly)
        assert report.direct_tests > 0 and calls and len(walked) == 1, (kind, params)
        repeats = {call: k - 1 for call, k in Counter(calls).items() if k > 1}
        assert all(q > walked[0] for _, q in repeats), (kind, params)
        assert sum(repeats.values()) == DDF_REPEATS_ABOVE_SIEVE.get((kind, params), 0), \
            (kind, params)
