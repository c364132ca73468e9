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

All nineteen were re-pinned once more when the seed left the scan
(schema_version 2).  Each new report was checked field by field against
the old one: it equals the old report's dict with stats.seed deleted and
schema_version set to 2, and nothing else moved.

The last two were taken before the twist closure named each product's
direct finds in the walk's span instead of merging roots into the span's
rows, and cover its products:

  multiquadratic 2,3,5,7,11            26 products of 5 direct finds
  cyclotomic 24                        the negative deltas -1, -2, -3, -6,
                                       where the sign of a product root
                                       could depend on how it is multiplied

Three were re-pinned when the sieve learned to stop after as many
primes that decide nothing, since its span last grew, as a root test's
prime selection may walk (scan.sieve_rows).  Each new report was checked
field by field against the old one: only sieve.rows and sieve.primes_used
moved, and the new primes are a prefix of the old ones:

  cyclotomic 12                        6 rows -> 4 (13 to 109)
  multiquadratic 2,3,5                 7 rows -> 2 (71 and 191)
  multiquadratic 2,3,5,7,11            7 rows -> 2 (479 and 1151)

Two were re-pinned when the twist products of both kinds moved to one
prime power (scan._Kind): a cubic span member's certificate is now built
from the direct finds' roots by Lagrange resolvents instead of a root test
of its own, and may name another root of the same minimal polynomial.
Each new report was checked field by field against the old one: only the
certificates of the two mixed members moved (now 8 and 7 coefficients,
trimmed of trailing zeros like every product certificate, where a root
test pads them to 9), and
the found, excluded and status sets stayed the same:

  cubic-compositum 7,9                  with and without sieve rows

Five were re-pinned when the sieve learned the row of the real place
(sieve.real_place_row): f < 0 at 0 or 1 in each, so every quadratic
subfield is real, and that row sits in the sieve's span without a prime.
Each new report was checked field by field against the old one.  In
four only sieve.rows and sieve.primes_used moved, the new primes a
prefix of the old ones:

  cubic-compositum 7,q5                10 rows -> 9 (13 to 47)
  multiquadratic 2,3,5                 2 rows -> 1 (71)
  multiquadratic 2,3,5,7,11            2 rows -> 0
  S4 quartic x^4-x-1 with sqrt(5)      11 rows -> 8 (7 to 79)

In the fifth the real row removes the negative deltas from the
candidates: -2 and -5 leave the excluded list, the solution dimension
falls from 2 to 1 and the direct tests from 3 to 2; delta 2 keeps its
witness 17:

  cubic-compositum 7,q5 quad, bound 13

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
    ("cyclotomic", "5", "quad", {}, "7a2a32a5f167830a917770b9b0c11ee24fba44bb29bdb1f4688543bc3749210e"),
    ("cyclotomic", "7", "quad", {}, "b90a8e02e21a31d3a3fedbf4d23c0688d458ed259551b5115198cdd96550aeea"),
    ("cyclotomic", "7", "cubic", {}, "0ea0e5823887f4188cd77fbb83f3e91a9e9e073714b6a11825719ce4ba39457f"),
    ("cyclotomic", "12", "quad", {}, "107f48106e3cc621efb6051e4ab18d00c1d345194be9bdb64a376c4c88631b63"),
    ("cubic-compositum", "7,q5", "quad", {}, "d5c01afe5b093fcdc39f213b5250f76f7225fd8e0f5757dc4010977c5fa871c7"),
    ("cubic-compositum", "7,q5", "cubic", {}, "c7a56de0e9cd613d82aaf685fea22fb095d91e7b44d5be7439269e6b1103d518"),
    ("multiquadratic", "2,3,5", "quad", {}, "a8b77d49635d09b5e054961c283a1b62631870a9adf3317bfe5b39d816082aad"),
    ("cyclotomic", "12", "quad", NO_ROWS,
     "79ffd2450ac604749b7b1a87d532653de89e42eb87076bb61fb12305d58e2e8d"),
    ("cyclotomic", "12", "quad", {**NO_ROWS, "ABSENCE_PRIME_BOUND": 3},
     "bcc809d9b24b61519b2399a7cf635c62a63a25d783d107cc1031ac6c1d4f88e8"),
    ("multiquadratic", "2,3,5", "quad", NO_ROWS,
     "cd312980166b6457f45856587886cd01f07b29e0da34f4541ad3e857b03341b3"),
    ("compositum", "6,10", "quad", NO_ROWS,
     "deebe61b4660fc90f066fe2dd255d725885deb0b78f60244eef8ae5a01c5dde7"),
    ("cubic-compositum", "7,9", "cubic", NO_ROWS,
     "24e7309179b4f9c3a7a1ca94e046c187b5e91542b9db5ddff00ef64e7cd948f1"),
    ("cubic-compositum", "7,q5", "cubic", NO_ROWS,
     "43c4b3580ded78e0a3eb19a7bd219d400577c0bfd6299a69d0068d4eb7c7e31c"),
    ("cubic-compositum", "7,q5", "cubic", {**NO_ROWS, "ABSENCE_PRIME_BOUND": 5},
     "8ff1cead27567e5da4f87c1318d4eb1b970db64d5b4c89522e796d339ccccfbc"),
    ("cubic-compositum", "7,9", "cubic", {},
     "24e7309179b4f9c3a7a1ca94e046c187b5e91542b9db5ddff00ef64e7cd948f1"),
    ("s4-compositum", "5", "quad", {},
     "a39f1837c01ebd76191e3af472d52a6d6007624e264a8dd4d401b51a53772a0a"),
    ("cyclotomic", "15", "quad", {"sieve_prime_bound": 31},
     "732c709af1478bf7c73f57e294cd156257f94ae0b0016805c00f9e79d9c8bb27"),
    ("cubic-compositum", "7,q5", "quad", {"sieve_prime_bound": 13},
     "9650bbc09b31be8fc410a92b1ec6a56bdb5a9d1ec52a97c255ab08c4a46371fd"),
    ("cyclotomic", "7", "cubic", {"sieve_prime_bound": 29},
     "d74bb607730bf2cdba6e91ff9b139b0d53cca31bcb09f723f43fa3838edc4c92"),
    ("multiquadratic", "2,3,5,7,11", "quad", {},
     "579f1fb468f2f5e41c8cd5be5d1f4f2cd8d1fa0f9a1dfe9a7dbf173b6413faa6"),
    ("cyclotomic", "24", "quad", {},
     "f2e419eb0c10871f4ec3625356534d69cdffef81683d410fbf030ed5e6b5da81"),
]

# x^4 - x - 1 has Galois group S4 (discriminant -283): its field has no
# proper subfield, so the compositum with Q(sqrt(d)) has exactly one
# quadratic subfield
S4_QUARTIC = Poly.from_desc([1, 0, 0, -1, -1])


def _case_id(kind, params, scan, config, digest):
    # the digest stays out of the id, so a re-pin keeps every case's name
    settings = ",".join(f"{k}={v}" for k, v in config.items())
    return "-".join(part for part in (kind, params, scan, settings) if part)


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
