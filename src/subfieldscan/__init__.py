"""Quadratic and cyclic cubic subfields of number fields.

Given a monic defining polynomial f, the scans locate every quadratic
subfield Q(sqrt(delta)) and every cyclic cubic subfield of Q[X]/(f) by
bounding the possibly ramified primes with a cheap gcd shortcut, cutting
the candidate space with Frobenius cycle-type constraints, and settling
each survivor with an exact root test that emits an independently
verifiable certificate.
"""

from .config import ScanConfig
from .nfroot import NumberField, RootCertificate, find_root, verify_certificate
from .poly import Poly, compositum_minpoly, normalize_input
from .ramify import CandidateSet, candidate_ramified_primes
from .scan import (ScanReport, absence_certificate_search, cubic_subfield_scan,
                   quad_subfield_scan)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "NumberField",
    "Poly",
    "RootCertificate",
    "ScanConfig",
    "ScanReport",
    "absence_certificate_search",
    "candidate_ramified_primes",
    "compositum_minpoly",
    "cubic_subfield_scan",
    "find_root",
    "normalize_input",
    "quad_subfield_scan",
    "verify_certificate",
]
