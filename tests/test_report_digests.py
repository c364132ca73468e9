"""Pinned canonical reports of a few cheap corpus scans.

Kernel work (packing, reduction, prime selection) and the candidate walk
must not change a single byte of a report: the same rows, candidates,
certificates, witnesses and test counts.  The digests below are SHA-256 of
canonical_report_bytes.  The default-configuration ones were taken before
the packed quotient-ring kernel replaced the schoolbook products; the ones
with a configuration were taken before the quadratic and cubic scans were
merged into one walk over F_l, and cover its other paths:

  cyclotomic 12 without sieve rows     certified_absent and twist_excluded
  ... and absence primes up to 3       unproven_absent
  compositum of x^2-6 and x^2-10       9 direct tests on coset
                                       representatives, product certificates
  cubic-compositum 7,9 without rows    2 subfields found by closure
  cubic-compositum 7,q5 without rows   certified, twisted and (with absence
                                       primes up to 5) unproven cubic entries

The last two were taken before the prime walks learned to skip primes by
the discriminant, to stop the DDF at the stage that decides the class and
to skip cubic primes whose residue classes are all 0, and before found
square roots were kept as certificates until a product needs them:

  cubic-compositum 7,9                 no prime gives a row: every cubic
                                       prime is skipped or has a full DDF
  S4 quartic x^4-x-1 with sqrt(5)      one found root that nothing multiplies

The last three were taken before the witness searches learned to start
after the last prime the sieve walked:

  cyclotomic 15 with one sieve row      a witness above the sieve's prime
  cubic-compositum 7,q5 with one row    two witnesses above it
  cyclotomic 7 cubic with two rows      cubic rows cut short

The eight default-configuration digests were re-pinned when the sieve
learned to stop once the span of its rows stops growing, instead of
walking on to 40 rows: those reports keep 6 to 11 of the 40 rows, and only
sieve.rows and sieve.primes_used changed, the new primes a prefix of the
old ones.  The rows left out add nothing to the span, so the solutions,
the walk and every certificate and witness stayed the same.

The sieve has no row cap any more, so the cases above set its prime bound
instead, with the same reports: 2 (below every sieve prime) for no rows,
and 31, 13 and 29 for the one- and two-row cases, the primes up to the
last row kept.  Absence primes up to 3 or 5 lower scan.ABSENCE_PRIME_BOUND.

A change that means to alter reports must say why and update them.
"""

import hashlib

import pytest

import subfieldscan.scan as scan_mod
from subfieldscan.cli import canonical_report_bytes
from subfieldscan.config import ScanConfig
from subfieldscan.poly import Poly, compositum_minpoly
from subfieldscan.scan import cubic_subfield_scan, quad_subfield_scan
from subfieldscan.testkit import corpus_generate

NO_ROWS = {"sieve_prime_bound": 2}

GOLDEN = [
    ("cyclotomic", "5", "quad", {}, "05ac36d87b57a3352092e13f9394dc53e99aa5a46df7d62957605f050f2d6f8a"),
    ("cyclotomic", "7", "quad", {}, "eed6798683cbcfb0aca5450c230162903812fce7b8e6f685d71bf34f38894a38"),
    ("cyclotomic", "7", "cubic", {}, "5cb5b33086b8d94bab2877c4c1734cf1d2ada21131d490efedd1e25aeff32ea0"),
    ("cyclotomic", "12", "quad", {}, "c428445523d7263981b7d11d15637405287f7ee2b031ccc5dcfd548345fc9f33"),
    ("cubic-compositum", "7,q5", "quad", {}, "0272671fd1d7e4ad9a27ea096d61036f430a13fb7f8bf684ba23e690b8eb7872"),
    ("cubic-compositum", "7,q5", "cubic", {}, "b86e09aa5d527aaef564fd6910e6fdfb74fb87210c82542f66b7d385776ba51b"),
    ("multiquadratic", "2,3,5", "quad", {}, "95789943c7d61f6da24574e0c9fe61a4aea9253ab9532ad7798433f3c59f1c54"),
    ("cyclotomic", "12", "quad", NO_ROWS,
     "b1769216d55f4e8899fb56ac2006b013573edca19e10f4f64091a7a6ce0963a4"),
    ("cyclotomic", "12", "quad", {**NO_ROWS, "ABSENCE_PRIME_BOUND": 3},
     "f86e0aa1e643264deb6f87189148ca2b32ebc7a12cdaf31b8ca0710a745443eb"),
    ("multiquadratic", "2,3,5", "quad", NO_ROWS,
     "aeab31de36e8856dcb7c49b250379ee82e18d04563b721d5886619c117c2ee8b"),
    ("compositum", "6,10", "quad", NO_ROWS,
     "85817b16c4b7663b47814b2e2d089dea8caf57a7a74cf95c4058124a2ea5060f"),
    ("cubic-compositum", "7,9", "cubic", NO_ROWS,
     "7a972028c5913b348b7cdad3996929366a741908d035a9c1775caa5d3bf8db6f"),
    ("cubic-compositum", "7,q5", "cubic", NO_ROWS,
     "556c4a49641ed49c654d89bb7f8e211b2371a263a608408e31ea3bcb4da36ace"),
    ("cubic-compositum", "7,q5", "cubic", {**NO_ROWS, "ABSENCE_PRIME_BOUND": 5},
     "0217068ed4ac9f0591a5c33eb80d9574e8437cb2762041e7e430325980e408a6"),
    ("cubic-compositum", "7,9", "cubic", {},
     "7a972028c5913b348b7cdad3996929366a741908d035a9c1775caa5d3bf8db6f"),
    ("s4-compositum", "5", "quad", {},
     "82ea34740e702e808e3d5a5aef4b29810d4892eeaf8931f9e6385a9bd1f292ed"),
    ("cyclotomic", "15", "quad", {"sieve_prime_bound": 31},
     "30a847f6e760b85bbcd33f3b876061dd3dedc65a3dc9058c3ce5bb94ee868868"),
    ("cubic-compositum", "7,q5", "quad", {"sieve_prime_bound": 13},
     "3945e3b2194c15378def0d327f824b2c7ce4bb0528c0e48280ee93c28c99d411"),
    ("cyclotomic", "7", "cubic", {"sieve_prime_bound": 29},
     "df61b6b64c2ab2379728bbfc5d229b83adf2a774b9274bede20f026e01f05049"),
]

# x^4 - x - 1 has Galois group S4 (discriminant -283): its field has no
# proper subfield, so the compositum with Q(sqrt(d)) has exactly one
# quadratic subfield
S4_QUARTIC = Poly.from_desc([1, 0, 0, -1, -1])


def _case_id(kind, params, scan, config, digest):
    settings = ",".join(f"{k}={v}" for k, v in config.items())
    return "-".join(part for part in (kind, params, scan, settings, digest) if part)


def _poly(kind, params):
    if kind == "compositum":
        a, b = (int(d) for d in params.split(","))
        return compositum_minpoly(Poly.from_desc([1, 0, -a]), Poly.from_desc([1, 0, -b]))
    if kind == "s4-compositum":
        return compositum_minpoly(Poly.from_desc([1, 0, -int(params)]), S4_QUARTIC)
    return corpus_generate(kind, params).poly


@pytest.mark.parametrize("kind, params, scan, config, digest",
                         [pytest.param(*case, id=_case_id(*case)) for case in GOLDEN])
def test_report_digest_is_pinned(monkeypatch, kind, params, scan, config, digest):
    config = dict(config)
    if "ABSENCE_PRIME_BOUND" in config:
        monkeypatch.setattr(scan_mod, "ABSENCE_PRIME_BOUND", config.pop("ABSENCE_PRIME_BOUND"))
    run = quad_subfield_scan if scan == "quad" else cubic_subfield_scan
    report = run(_poly(kind, params), ScanConfig(**config))
    assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == digest
