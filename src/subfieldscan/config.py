"""Run configuration shared by the scan pipelines and the CLI.

ScanConfig holds the two settings the CLI exposes: the seed of the root
tests' rng (--seed) and the largest prime the Frobenius sieve walks
(--sieve-bound).  Each root test lifts once, to a precision k that
nfroot.root_knapsack takes from a bound on the certificate's
coefficients.  The sieve stops earlier once its rows stop growing their span
(scan.sieve_rows); the witness searches walk the primes up to
scan.ABSENCE_PRIME_BOUND.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScanConfig:
    seed: int = 0
    sieve_prime_bound: int = 10_000
