"""Run configuration shared by the scan pipelines and the CLI.

ScanConfig holds the one setting the CLI exposes: the largest prime the
Frobenius sieve walks (--sieve-bound).  The sieve stops earlier once its
rows stop growing their span (scan.sieve_rows); the witness searches walk
the primes up to scan.ABSENCE_PRIME_BOUND.  Each root test lifts once, to
a precision k that nfroot.root_knapsack takes from a bound on the
certificate's coefficients.  Nothing else is set, and there is no seed:
the only randomness, Cantor-Zassenhaus splitting mod p, draws from a
stream seeded by p inside modp, and what a prime gives a scan depends on f
and p alone, so a report depends on the input and this bound alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScanConfig:
    sieve_prime_bound: int = 10_000
