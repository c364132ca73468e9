"""Independent checks of every answer, with the benchmark's own arithmetic.

A scan passes when its found set equals the truth, every certificate
satisfies the root identity (re-checked with intpoly, not with the
library's verify_certificate), and every quadratic witness prime really
contradicts the excluded candidate.  A root test passes when it proves the
root with a certificate equal, up to sign, to the one built from the
multiquadratic subset algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import intpoly as ip
from .workloads import CUBIC, QUAD, Op


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    unproven: int      # unproven_absent entries
    decided: int       # candidates with a final status


def _ints(values) -> list[int] | None:
    """values as ints, or None when one of them is not an integer."""
    out = [int(c) for c in values]
    return out if all(c == i for c, i in zip(values, out)) else None


def _is_odd_prime(q) -> bool:
    return isinstance(q, int) and q > 2 and all(q % k for k in range(2, isqrt(q) + 1))


def _quad_witness_holds(f: list[int], delta: int, q: int) -> bool:
    """q is an odd prime not dividing delta, q splits in every quadratic
    subfield (an odd factor degree) or in none (no factor degrees sum to
    n/2), and Q(sqrt delta) disagrees."""
    if not _is_odd_prime(q) or delta % q == 0:
        return False
    degs = ip.factor_degrees_mod_p(f, q)
    if degs is None:
        return False
    half = (len(f) - 1) // 2
    if any(d % 2 for d in degs):
        split = True
    else:
        sums = {0}
        for d in degs:
            sums |= {s + d for s in sums}
        if half in sums:
            return False
        split = False
    symbol = pow(delta % q, (q - 1) // 2, q)
    return (split and symbol == q - 1) or (not split and symbol == 1)


def check_scan(op: Op, report) -> Verdict:
    f = list(op.poly)
    unproven = sum(1 for e in report.excluded if e.status == "unproven_absent")
    decided = len(report.subfields) + len(report.excluded)

    def fail(reason):
        return Verdict(False, f"{op.label}: {reason}", unproven, decided)

    if _ints(report.poly.coeffs) != f or report.scale != 1:
        return fail("the report is about another polynomial")
    for e in report.subfields:
        if e.status != "proved":
            return fail(f"found entry with status {e.status}")
        h = [-e.delta, 0, 1] if op.kind == QUAD else _ints(e.minpoly.coeffs)
        if h is None or _ints(e.certificate.h.coeffs) != h:
            return fail("certificate is for another polynomial h")
        y = _ints(e.certificate.scaled_root)
        if y is None or not ip.certificate_holds(f, h, y):
            return fail(f"certificate fails for {h}")
    if op.kind == QUAD:
        found = tuple(sorted(e.delta for e in report.subfields))
        if found != op.truth:
            return fail(f"found {found}, truth {op.truth}")
        for e in report.excluded:
            if (e.status == "certified_absent" and e.witness_prime is not None
                    and not _quad_witness_holds(f, e.delta, e.witness_prime)):
                return fail(f"witness {e.witness_prime} does not exclude {e.delta}")
    else:
        mode, want = op.truth
        minpolys = [tuple(_ints(e.minpoly.coeffs)) for e in report.subfields]
        if mode == "exact" and tuple(sorted(minpolys)) != want:
            return fail(f"found {sorted(minpolys)}, truth {want}")
        if mode == "count" and (len(minpolys) != want
                                or not all(ip.cubic_is_cyclic(list(m)) for m in minpolys)):
            return fail(f"found {minpolys}, truth {want} cyclic cubic subfields")
    return Verdict(True, "", unproven, decided)


def check_root(op: Op, result) -> Verdict:
    d, expected = op.truth
    if result.status != "proved":
        return Verdict(False, f"{op.label}: status {result.status}", 0, 1)
    y = _ints(result.certificate.scaled_root)
    if y is None or not ip.certificate_holds(list(op.poly), [-d, 0, 1], y):
        return Verdict(False, f"{op.label}: certificate fails", 0, 1)
    y += [0] * (len(expected) - len(y))
    if tuple(y) != expected and tuple(-c for c in y) != expected:
        return Verdict(False, f"{op.label}: certificate differs from the subset algebra", 0, 1)
    return Verdict(True, "", 0, 1)


def check(op: Op, result) -> Verdict:
    if op.kind in (QUAD, CUBIC):
        return check_scan(op, result)
    return check_root(op, result)
