"""Pinned canonical reports of a few cheap corpus scans.

Kernel work (packing, reduction, prime selection) must not change a single
byte of a report: the same rows, candidates, certificates and witnesses.
The digests below are SHA-256 of canonical_report_bytes with the default
configuration; they were taken before the packed quotient-ring kernel
replaced the schoolbook products, and it reproduces them.  A change that
means to alter reports must say why and update them.
"""

import hashlib

import pytest

from subfieldscan.cli import canonical_report_bytes
from subfieldscan.scan import cubic_subfield_scan, quad_subfield_scan
from subfieldscan.testkit import corpus_generate

GOLDEN = [
    ("cyclotomic", "5", "quad", "03c5911b6f712651da90cf08ea6bbf9c27a80d4be76b5e36af2db26bc541ebf1"),
    ("cyclotomic", "7", "quad", "197f7b7737132e70ebc85c076a76fb0cf7d30574eceee88f59661660fcaff674"),
    ("cyclotomic", "7", "cubic", "e82c05b5b97ec42d1e808f100c5a080ee91bf03540d7ea3af11f76ca71b15add"),
    ("cyclotomic", "12", "quad", "387aef2e99908ac6cf1fc1454eeb4a7d3639258f3a698de5af1b93f2c286e7a4"),
    ("cubic-compositum", "7,q5", "quad", "18290bdb70de4f1af03209f4579e3ece8bfeab88bb367b778f30ae0dd5bd0e0c"),
    ("cubic-compositum", "7,q5", "cubic", "11febda0f3894ac88e83ffc6c5717375996a29e27fc6e47745efe4ad283b461b"),
    ("multiquadratic", "2,3,5", "quad", "08fc958f0899d9b607784a75fcabdc3bdb856b053dc9b480c15cca4cb53a446b"),
]


@pytest.mark.parametrize("kind, params, scan, digest", GOLDEN)
def test_report_digest_is_pinned(kind, params, scan, digest):
    run = quad_subfield_scan if scan == "quad" else cubic_subfield_scan
    report = run(corpus_generate(kind, params).poly)
    assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == digest
