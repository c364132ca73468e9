"""Run configuration shared by the scan pipelines and the CLI.

ScanConfig holds the three settings the CLI exposes: the seed of the root
tests' rng (--seed), the largest prime the Frobenius sieve walks
(--sieve-bound) and a cap on the p-adic precision of the root tests
(--max-precision).  The sieve stops earlier once its rows stop growing
their span (scan.sieve_rows); the witness searches walk the primes up to
scan.ABSENCE_PRIME_BOUND.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScanConfig:
    seed: int = 0
    sieve_prime_bound: int = 10_000
    max_precision: int | None = None       # cap on p-adic digits, overrides the heuristic

    def precision_schedule(self, p: int, n: int) -> list[int]:
        """Doubling p-adic precision targets 32, 64, ... up to a cap.

        The heuristic cap makes p**k exceed 10**(12.5 * n); certificate
        coefficient growth scales with the field degree, and a failed check
        at the cap is reported as unproven rather than retried forever.
        """
        if self.max_precision is not None:
            cap = max(1, self.max_precision)
        else:
            need = max(32, math.ceil(12.5 * n / math.log10(p)))
            cap = 32
            while cap < need:
                cap *= 2
        ks = []
        k = min(32, cap)
        while True:
            ks.append(k)
            if k >= cap:
                return ks
            k = min(2 * k, cap)
