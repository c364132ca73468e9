"""The ramified-prime shortcut versus factoring the discriminant.

Every prime that is tamely (totally) ramified in a degree-e cyclic
subfield divides the gcd of the numerators of f - g**e, where g is the
degree-(n/e) candidate e-th root of f.  That gcd is tiny compared to
disc(f), so the place basis of the candidates costs almost nothing.  The
shortcut takes the NumberField of f, whose constructor has already checked
that f is monic, integral and squarefree.

Run with: python3 demos/ramified_primes_shortcut.py
"""

import time

from subfieldscan import NumberField, candidate_ramified_primes
from subfieldscan.poly import disc_poly, eth_root_coeffs
from subfieldscan.testkit import corpus_generate


def main():
    entry = corpus_generate("multiquadratic", "2,3,5,7,11")
    f = entry.poly
    print(f"degree-{f.degree} field of sqrt(2)+sqrt(3)+sqrt(5)+sqrt(7)+sqrt(11)\n")

    g = eth_root_coeffs(f, 2)
    print(f"square-root candidate g has degree {g.degree}")

    t0 = time.perf_counter()
    field = NumberField(f)
    print(f"NumberField(f) checked f squarefree ({(time.perf_counter() - t0) * 1000:.1f} ms)")

    t0 = time.perf_counter()
    cs = candidate_ramified_primes(field, 2)
    dt_gcd = time.perf_counter() - t0
    print(f"numerator gcd: {cs.gcd_value}")
    print(f"place basis: {cs.basis.width} slots, the real place (-1) and the primes "
          f"{list(cs.basis.primes)} (2 always)")
    print(f"shortcut time: {dt_gcd * 1000:.1f} ms\n")

    t0 = time.perf_counter()
    d = disc_poly(f)
    dt_disc = time.perf_counter() - t0
    print(f"disc(f) has {len(str(abs(d)))} digits "
          f"(computing it alone took {dt_disc * 1000:.0f} ms;")
    print("factoring a number that size is the cost the shortcut avoids)")
    for p in cs.basis.primes:
        assert p == 2 or d % p == 0
    print("every odd prime of the basis, a prime of the gcd, divides disc(f), as it must")


if __name__ == "__main__":
    main()
