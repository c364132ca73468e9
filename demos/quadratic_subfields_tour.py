"""Tour of the quadratic subfield scan on three classic fields.

Run with: python3 demos/quadratic_subfields_tour.py
"""

from subfieldscan import Poly, quad_subfield_scan
from subfieldscan.cli import parse_poly, render_poly


def show(f_text):
    f = parse_poly(f_text)
    print(f"\n=== {f_text} (degree {f.degree}) ===")
    report = quad_subfield_scan(f)
    print(f"candidate primes {report.candidate_primes}, numerator gcd {report.gcd_value}")
    if report.sieve.inconsistent:
        print(f"sieve found contradictory constraints after {report.sieve.rows} rows:")
        print("  no quadratic subfield exists (certified, no root test needed)")
    else:
        print(f"sieve used {report.sieve.rows} rows, leaving a solution space of "
              f"dimension {report.sieve.solution_dim}")
    for entry in report.subfields:
        y = Poly(entry.certificate.scaled_root)
        print(f"  Q(sqrt({entry.delta})) is a subfield; f'(theta) * sqrt({entry.delta}) = "
              f"{render_poly(y)} at x = theta, a root of f")
    for entry in report.excluded:
        extra = f", witness prime {entry.witness_prime}" if entry.witness_prime else ""
        print(f"  delta = {entry.delta} excluded ({entry.status}{extra})")
    print(f"direct root tests: {report.direct_tests} "
          f"(twist closure settled the remaining "
          f"{len(report.subfields) + len(report.excluded) - report.direct_tests})")
    report.check_invariants()
    print("all certificates re-verified")


if __name__ == "__main__":
    # the 8th cyclotomic field: three quadratic subfields
    show("x^4 + 1")
    # Q(sqrt2 + sqrt3): the subfields multiply out of two found ones
    show("x^4 - 10*x^2 + 1")
    # a field with NO quadratic subfield: the sieve alone can prove it
    show("x^4 + x + 1")
