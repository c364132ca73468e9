"""Stretch target: the 127 quadratic subfields of a degree-128 field.

Q(sqrt2, ..., sqrt17) has Galois group C2^7, so 127 quadratic subfields of
which only 7 ever need a direct root test; twist closure multiplies out
the other 120.  The ramified-prime shortcut is instant, and the Frobenius
sieve takes about 0.1 s: f(1) < 0 gives it the real place's row, which
says that every quadratic subfield is real, so it stops after the primes
up to 241 instead of walking thousands of primes that decide nothing.
The expensive phase is the root test.  Its best prime, p = 47, splits the
field into 64 completions of degree 2, so the knapsack that picks a root
per completion has 63 unknowns.  knapsack_size gives them 8 columns of at
most 70 bits, a dimension-72 lattice: one root test lifts the 64 factors
of f once and feeds LLL 16, 24, 32, 40 and then 48 bits per column, where
the 0/1 solution stands out, in about 2-2.5 s.  The full scan takes about
18 s (CPython 3.11, one core of a 2-core Xeon, two single runs): the 7
root tests 16 s, the 120 twist products about 2 s, and the final check of
all 127 certificates 0.6 s.

Run with: python3 demos/stretch_degree128.py            (cheap phases only)
          python3 demos/stretch_degree128.py --full     (the whole scan, about 20 s)
"""

import sys
import time

from subfieldscan import NumberField, candidate_ramified_primes, quad_subfield_scan
from subfieldscan.testkit import corpus_generate


def main(full: bool):
    t0 = time.perf_counter()
    entry = corpus_generate("multiquadratic", "2,3,5,7,11,13,17")
    print(f"built and verified the degree-{entry.poly.degree} polynomial "
          f"({time.perf_counter() - t0:.1f}s)")
    print(f"ground truth: {len(entry.quad)} quadratic subfields")

    t0 = time.perf_counter()
    field = NumberField(entry.poly)
    print(f"NumberField checked the polynomial squarefree ({time.perf_counter() - t0:.2f}s)")

    t0 = time.perf_counter()
    cs = candidate_ramified_primes(field, 2)
    print(f"ramified-prime shortcut ({time.perf_counter() - t0:.2f}s): "
          f"basis primes {list(cs.basis.primes)}, gcd has "
          f"{len(str(cs.gcd_value))} digits")
    truth_primes = {p for d in entry.quad for p in (2, 3, 5, 7, 11, 13, 17) if d % p == 0}
    assert truth_primes <= set(cs.basis.primes)
    print("every truly ramified prime is in the candidate set")

    if not full:
        print("\n(pass --full to run the complete scan, about 20 s; see the "
              "module docstring for where the time goes)")
        return

    t0 = time.perf_counter()
    report = quad_subfield_scan(entry.poly)
    dt = time.perf_counter() - t0
    print(f"scan finished in {dt:.0f} s: {len(report.subfields)} proved, "
          f"{len(report.excluded)} excluded, {report.direct_tests} direct tests")


if __name__ == "__main__":
    main("--full" in sys.argv)
