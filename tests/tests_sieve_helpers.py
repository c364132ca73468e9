"""The sieve's span of a list of rows, and the F2 solutions read from it,
shared by the solver tests; f(x) over Q, for the real place's row."""

from fractions import Fraction

from subfieldscan.sieve import Span, kernel_vectors


def row_span(rows, ell, width):
    """The span of the rows over F_l, as sieve_rows builds it: for l = 2 the
    right-hand side is the last column."""
    span = Span(ell, width + 1 if ell == 2 else width)
    for r in rows:
        span.insert((*r.coeffs, r.rhs) if ell == 2 else r.coeffs)
    return span


def f2_solutions(span, width):
    """The solutions of an F2 system from its span, zero vector included,
    or None when the right-hand-side column is a pivot (inconsistent)."""
    if width in span.rows:
        return None
    return [v[:width] for v in kernel_vectors(span) if v[width]]


def value_at(f, x) -> Fraction:
    """f(x) for a rational x, term by term over Q."""
    return sum(Fraction(c) * Fraction(x) ** i for i, c in enumerate(f.coeffs))
