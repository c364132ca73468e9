"""Cyclic cubic subfields via Kummer classes over Z[w], w = zeta_3.

Run with: python3 demos/cubic_subfields_tour.py
"""

from subfieldscan import cubic_subfield_scan
from subfieldscan.cli import render_poly
from subfieldscan.eisenstein import split_prime
from subfieldscan.kummer3 import build_generator
from subfieldscan.poly import disc_poly
from subfieldscan.sieve import PlaceBasis
from subfieldscan.testkit import corpus_generate, cyclotomic_poly


def main():
    print("A cyclic cubic field corresponds to a class a in Z[w] modulo cubes")
    print("with conj(a) = a^2 (mod cubes); its minimal polynomial is")
    print("X^3 - 3cX - Tr(a) with c^3 = Norm(a).\n")

    pi = split_prime(7)
    print(f"prime 7 splits as pi * conj(pi) with pi = {pi.x} + {pi.y}w")
    basis = PlaceBasis(3, (7,))  # slot generators w and pi * conj(pi)^2
    for exps in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        cand = build_generator(exps, basis)
        print(f"  class w^{exps[0]} * (pi*conj(pi)^2)^{exps[1]}: "
              f"a = {cand.a.x}{cand.a.y:+d}w, minpoly {render_poly(cand.minpoly)}, "
              f"disc {disc_poly(cand.minpoly)} = {9 * abs(cand.v)}^2")

    print("\n=== scan of the degree-9 compositum (C3 x C3) ===")
    entry = corpus_generate("cubic-compositum", "7,9")
    report = cubic_subfield_scan(entry.poly)
    print(f"field: {render_poly(entry.poly)}")
    for e in report.subfields:
        print(f"  cyclic cubic subfield: {render_poly(e.minpoly)}")
    print(f"{len(report.subfields)} subfields from {report.direct_tests} direct root tests")
    report.check_invariants()

    print("\n=== scan of Q(zeta_7), degree 6 ===")
    report = cubic_subfield_scan(cyclotomic_poly(7))
    for e in report.subfields:
        print(f"  cyclic cubic subfield: {render_poly(e.minpoly)} (conductor 7)")
    for e in report.excluded:
        extra = f", witness prime {e.witness_prime}" if e.witness_prime else ""
        print(f"  excluded: {render_poly(e.minpoly)} ({e.status}{extra})")


if __name__ == "__main__":
    main()
