"""Seeded inputs and their ground truth, one generator per workload.

Each generator returns plain data (integer coefficient tuples, integer d
values and truth sets); only the generated polynomials and d values reach
the library under test.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import intpoly as ip

QUAD, CUBIC, ROOT_TEST = "quad", "cubic", "root"


@dataclass(frozen=True)
class Op:
    """One timed operation: a scan of `poly`, or a root test of x**2 - d.

    truth is, by kind:
      quad  -- the sorted tuple of squarefree discriminants of the subfields
      cubic -- ("exact", minpolys) with the exact set of minimal polynomials,
               or ("count", n) when only the number of cyclic cubic subfields
               is known (the found generator may differ from the planted one)
      root  -- (d, scaled root) with the certificate expected up to sign
    """

    kind: str
    label: str
    poly: tuple[int, ...]
    truth: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], list[Op]]


# -- corpus -------------------------------------------------------------------------

CORPUS_SHIFTS = (-1, 1)


def corpus_ops(seed: int) -> list[Op]:
    """The ground-truth fields of degree 4-16, each shifted x -> x + c.

    The shift changes every coefficient but not the field, so the coded
    truth still holds.  Each operation draws its own c from the seed.
    """
    from subfieldscan.testkit import CYCLOTOMIC_QUAD_TRUTH, corpus_generate

    rng = random.Random(seed)
    plan = [("cyclotomic", str(m), QUAD) for m in CYCLOTOMIC_QUAD_TRUTH]
    plan += [("cyclotomic", "7", CUBIC)]
    plan += [("multiquadratic", p, QUAD) for p in ("2,3", "2,3,5", "2,3,5,7")]
    plan += [("cubic-compositum", "7,9", CUBIC), ("cubic-compositum", "7,q5", QUAD),
             ("cubic-compositum", "7,q5", CUBIC)]
    ops = []
    for kind, params, scan in plan:
        entry = corpus_generate(kind, params)
        c = rng.choice(CORPUS_SHIFTS)
        poly = tuple(ip.taylor_shift([int(x) for x in entry.poly.coeffs], c))
        if scan == QUAD:
            truth = tuple(sorted(entry.quad))
        else:
            truth = ("exact", tuple(sorted(tuple(int(x) for x in m.coeffs) for m in entry.cubic)))
        ops.append(Op(scan, f"{kind}:{params}:{scan}:c={c}", poly, truth))
    return ops


# -- generic-mix ----------------------------------------------------------------------

# Shanks' simplest cubic x^3 - a x^2 - (a + 3) x - 1 is cyclic for every a,
# of conductor a^2 + 3a + 9 when that is prime.
def _shanks(a: int) -> tuple[int, ...]:
    return (-1, -(a + 3), -a, 1)


# A field table is mostly fields without subfields, so a pass scans two
# certified S_k fields per (scan, k) slot and one compositum per planted
# slot.  The median operation is then a no-subfield scan, not the gap
# between the two kinds.  Each planted slot keeps its subfield fixed, so
# the seed changes the generic field and not the ramified primes: x^2 - d
# for d below, and the cyclic cubics of conductor 7 and 13.  The
# conductor-9 cubic is left to corpus: no prime ever gives it a sieve row,
# so one such scan runs DDF at every prime below the sieve bound.
GENERIC_EMPTY = ((QUAD, 6), (QUAD, 8), (QUAD, 10), (QUAD, 12), (CUBIC, 6), (CUBIC, 9))
GENERIC_PLANTED = (
    (QUAD, 6, -3), (QUAD, 8, 5), (QUAD, 10, -7), (QUAD, 12, 2),
    (CUBIC, 6, _shanks(-1)), (CUBIC, 7, _shanks(1)),
)

_CERT_PRIMES = 400


def _primes(count: int) -> list[int]:
    out, n = [], 3
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 2
    return out


def symmetric_generic(k: int, rng: random.Random) -> tuple[int, ...]:
    """A random monic degree-k polynomial whose Galois group is certified S_k.

    Frobenius cycle types prove it: a k-cycle (f irreducible mod p, so
    irreducible over Q), a (k-1)-cycle (so the group is 2-transitive, hence
    primitive) and a cycle type 2 + odd parts (whose odd power is a
    transposition); a primitive group with a transposition is S_k.  Such a
    field has no proper subfield at all.
    """
    primes = _primes(_CERT_PRIMES)
    while True:
        f = [rng.randint(-5, 5) for _ in range(k)] + [1]
        if f[0] == 0:
            continue
        seen = set()
        for p in primes:
            degs = ip.factor_degrees_mod_p(f, p)
            if degs is None:
                continue
            if degs == [k]:
                seen.add("k")
            elif degs == [1, k - 1]:
                seen.add("k-1")
            elif degs.count(2) == 1 and all(d % 2 for d in degs if d != 2):
                seen.add("2")
            if len(seen) == 3:
                return tuple(f)


def generic_mix_ops(seed: int) -> list[Op]:
    """Generic S_k fields (no subfield), and composita of such a field with
    one planted x^2 - d or cyclic cubic (exactly that one subfield).

    The compositum, generated by alpha + s*beta for a root alpha of the
    generic polynomial and beta of the planted one, comes from the
    library's compositum_minpoly: its result is fixed by the inputs, and
    the truth comes from the planted subfield, not from the library.
    """
    from subfieldscan.errors import NotSquarefree
    from subfieldscan.poly import Poly, compositum_minpoly

    rng = random.Random(seed)
    ops = []
    for scan, k in GENERIC_EMPTY + GENERIC_EMPTY:
        truth = () if scan == QUAD else ("count", 0)
        ops.append(Op(scan, f"S{k}:{scan}", symmetric_generic(k, rng), truth))
    for scan, k, planted in GENERIC_PLANTED:
        base = Poly(list(symmetric_generic(k, rng)))
        if scan == QUAD:
            sub = Poly([-planted, 0, 1])
            label, truth = f"S{k}(sqrt{planted}):{scan}", (planted,)
        else:
            sub = Poly(list(planted))
            label, truth = f"S{k}*C3{planted}:{scan}", ("count", 1)
        for s in (1, 2, 3, 4):
            try:
                poly = compositum_minpoly(sub, base, shift=s)
                break
            except NotSquarefree:  # alpha + s*beta generates less; try the next s
                continue
        else:
            raise RuntimeError("no primitive element found for the compositum")
        ops.append(Op(scan, label, tuple(int(c) for c in poly.coeffs), truth))
    return ops


# -- mq32-root ------------------------------------------------------------------------

MQ32_PRIMES = (2, 3, 5, 7, 11)
# The 15 of the 31 subfields whose root test selects the prime 19.  The
# lattice that find_root reduces depends only on f, that prime and the
# lifted factor, so every seed reduces the same lattice (dimension 32) and
# the seed changes the target and the certificate, not the amount of work.
MQ32_DISCS = (5, 6, 7, 11, 30, 35, 42, 55, 66, 77, 210, 330, 385, 462, 2310)


def mq32_ops(seed: int) -> list[Op]:
    """One root test of x^2 - d in Q(sqrt 2, sqrt 3, sqrt 5, sqrt 7, sqrt 11)."""
    from subfieldscan.testkit import multiquadratic_certificates, multiquadratic_minpoly

    d = random.Random(seed).choice(MQ32_DISCS)
    f = tuple(int(c) for c in multiquadratic_minpoly(MQ32_PRIMES).coeffs)
    cert = multiquadratic_certificates(MQ32_PRIMES)[d]
    return [Op(ROOT_TEST, f"mq32:x^2-{d}", f, (d, tuple(cert)))]


WORKLOADS = {
    "corpus": Workload(
        "corpus",
        "abelian ground-truth fields: many subfields, most sieve primes give no "
        "information, twist closure settles most candidates, root tests are combinatorial",
        corpus_ops),
    "generic-mix": Workload(
        "generic-mix",
        "the common case of a field table: high sieve yield, at most one cheap root "
        "test, and the no-subfield path",
        generic_mix_ops),
    "mq32-root": Workload(
        "mq32-root",
        "the one input where the lattice strategy engages by default: LLL and Babai "
        "take nearly all the time, DDF and the sieve almost none",
        mq32_ops),
}
