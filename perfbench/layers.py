"""Which library calls the traced run wraps, and the per-layer metrics.

The library is wrapped from outside at its public functions (plus two
private lifting classes of nfroot); the scan reports' own `phase_ms` and
sieve summaries supply the sieve time and row counts.  Layer times are raw
seconds that leave out the speed probe's handler, except sieve.s and
scan.closure.s, which come from phase_ms and include it (about 1%).  Any
metric whose unit is count, bits or ratio is derived from counts only and
must repeat exactly for the same seed.
"""

from __future__ import annotations

from .trace import END, NAME, OP, PARENT, START, Tracer

SCAN_OPS = ("scan.quad_subfield_scan", "scan.cubic_subfield_scan")
WALK_CHILDREN = ("nfroot.find_root", "scan.absence_witness", "nfroot.verify_certificate")


def _ddf_hook(tracer, rec, args, result):
    f, q = args[0], args[1]
    key = (tuple(f.coeffs), q)
    seen = tracer.op_state().setdefault("ddf_pairs", set())
    if key in seen:
        tracer.counts["ddf_repeats"] += 1
    seen.add(key)


def _ramify_hook(tracer, rec, args, result):
    tracer.note_max("ramify.gcd_bits_max", int(result.gcd_value).bit_length())


def _lll_hook(tracer, rec, args, result):
    basis = args[0]
    tracer.note_max("lattice.lll.dim_max", len(basis))
    tracer.note_max("lattice.lll.entry_bits_max",
                    max((abs(int(x)).bit_length() for row in basis for x in row), default=0))


def _find_root_hook(tracer, rec, args, result):
    if result.status == "proved":
        tracer.counts["find_root_proved"] += 1
        y = tuple(int(c) for c in result.certificate.scaled_root)
        tracer.op_state().setdefault("root_certs", set()).update({y, tuple(-c for c in y)})


# (target below the package, span name, hook, metrics that need it);
# cubic_residue_class is only counted, since it is cheap and called often
_SIEVE = ("sieve.ddf_calls", "sieve.yield", "scan.closure.s", "scan.closure.products")
WRAPPED = (
    ("scan.quad_subfield_scan", "scan.quad_subfield_scan", None, _SIEVE),
    ("scan.cubic_subfield_scan", "scan.cubic_subfield_scan", None, _SIEVE),
    ("scan.absence_witness_quad", "scan.absence_witness", None,
     ("scan.absence.calls", "scan.absence.s")),
    ("scan.absence_witness_cubic", "scan.absence_witness", None,
     ("scan.absence.calls", "scan.absence.s")),
    ("scan.ScanReport.check_invariants", "scan.check_invariants", None, ("scan.invariants.s",)),
    ("ramify.candidate_ramified_primes", "ramify.candidate_ramified_primes", _ramify_hook,
     ("ramify.s", "ramify.gcd_bits_max")),
    ("modp.ddf_degrees", "modp.ddf_degrees", _ddf_hook,
     ("modp.ddf.calls", "modp.ddf.s", "modp.ddf.repeat_share", "sieve.ddf_calls", "sieve.yield")),
    ("modp.factor_mod_p", "modp.factor_mod_p", None, ("modp.factor.calls", "modp.factor.s")),
    ("modp.HenselLift.lift_to", "modp.hensel", None, ("modp.hensel.s",)),
    ("nfroot.find_root", "nfroot.find_root", _find_root_hook,
     ("nfroot.find_root.calls", "nfroot.find_root.s", "nfroot.proved_share", "nfroot.attempts",
      "scan.closure.products")),
    ("nfroot.select_prime", "nfroot.select_prime", None, ("nfroot.select_prime.s",)),
    ("nfroot.verify_certificate", "nfroot.verify_certificate", None,
     ("nfroot.verify.calls", "nfroot.verify.s", "nfroot.attempts")),
    ("nfroot._IdempotentLift.lift_to", "nfroot.lift", None, ("nfroot.lift.s",)),
    ("nfroot._ScalarRootLift.lift_to", "nfroot.lift", None, ("nfroot.lift.s",)),
    ("lattice.lll_reduce", "lattice.lll_reduce", _lll_hook,
     ("lattice.lll.calls", "lattice.lll.s", "lattice.lll.dim_max", "lattice.lll.entry_bits_max")),
    ("lattice.babai_nearest", "lattice.babai_nearest", None, ("lattice.babai.s",)),
)
COUNTED = (("eisenstein.cubic_residue_class", "eisenstein.residue.calls"),)

# per-layer metric -> (unit, better)
PER_LAYER = {
    "modp.ddf.calls": ("count", "lower"),
    "modp.ddf.s": ("s", "lower"),
    "modp.ddf.repeat_share": ("ratio", "lower"),
    "sieve.s": ("s", "lower"),
    "sieve.ddf_calls": ("count", "lower"),
    "sieve.rows": ("count", "lower"),
    "sieve.yield": ("ratio", "higher"),
    "eisenstein.residue.calls": ("count", "lower"),
    "lattice.lll.calls": ("count", "lower"),
    "lattice.lll.s": ("s", "lower"),
    "lattice.lll.dim_max": ("count", "lower"),
    "lattice.lll.entry_bits_max": ("bits", "lower"),
    "lattice.babai.s": ("s", "lower"),
    "nfroot.attempts": ("count", "lower"),
    "nfroot.find_root.calls": ("count", "lower"),
    "nfroot.find_root.s": ("s", "lower"),
    "nfroot.select_prime.s": ("s", "lower"),
    "nfroot.proved_share": ("ratio", "higher"),
    "nfroot.lift.s": ("s", "lower"),
    "modp.factor.calls": ("count", "lower"),
    "modp.factor.s": ("s", "lower"),
    "modp.hensel.s": ("s", "lower"),
    "scan.closure.products": ("count", "higher"),
    "scan.closure.s": ("s", "lower"),
    "scan.absence.calls": ("count", "lower"),
    "scan.absence.s": ("s", "lower"),
    "scan.invariants.s": ("s", "lower"),
    "nfroot.verify.calls": ("count", "lower"),
    "nfroot.verify.s": ("s", "lower"),
    "ramify.s": ("s", "lower"),
    "ramify.gcd_bits_max": ("bits", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
DETERMINISTIC_UNITS = ("count", "bits", "ratio")
# metrics read from the scan reports' phase_ms -> the phase key
PHASES = {"sieve.s": "sieve", "scan.closure.s": "tests"}


def install(tracer: Tracer) -> None:
    for target, name, hook, _ in WRAPPED:
        tracer.install(target, name, hook)
    for target, name in COUNTED:
        tracer.install(target, name, spans=False)


def per_layer_metrics(tracer: Tracer, reports: dict) -> dict[str, float]:
    """Per-layer values of one traced pass; reports maps each scan's
    operation id to its report, whose phase_ms and sieve summary it reads."""
    calls, seconds = tracer.totals()
    spans = tracer.spans
    in_sieve = sum(1 for rec in spans
                   if rec[NAME] == "modp.ddf_degrees" and rec[PARENT] >= 0
                   and spans[rec[PARENT]][NAME] in SCAN_OPS)
    attempts = sum(1 for i, rec in enumerate(spans)
                   if rec[NAME] == "nfroot.verify_certificate"
                   and tracer.has_ancestor(i, "nfroot.find_root"))
    # self time of the candidate walk: the report's "tests" phase minus the
    # wrapped calls made directly from it
    kids = tracer.children()
    walk_s = 0.0
    for i, rec in enumerate(spans):
        report = reports.get(rec[OP]) if rec[NAME] in SCAN_OPS else None
        if report is not None and PHASES["scan.closure.s"] in report.phase_ms:
            covered = sum(spans[c][END] - spans[c][START] for c in kids[i]
                          if spans[c][NAME] in WALK_CHILDREN)
            walk_s += max(0.0, report.phase_ms[PHASES["scan.closure.s"]] / 1000 - covered)
    # a found quadratic subfield whose certificate no root test of its scan
    # returned was settled by a twist-closure product
    products = 0
    for op_id, report in reports.items():
        if report.kind == "quad":
            direct = tracer.per_op.get(op_id, {}).get("root_certs", set())
            products += sum(1 for e in report.subfields
                            if tuple(int(c) for c in e.certificate.scaled_root) not in direct)
    sieve_rows = sum(r.sieve.rows for r in reports.values())
    ddf_calls = calls["modp.ddf_degrees"]
    roots = calls["nfroot.find_root"]
    return {
        "modp.ddf.calls": ddf_calls,
        "modp.ddf.s": seconds.get("modp.ddf_degrees", 0.0),
        "modp.ddf.repeat_share": tracer.counts["ddf_repeats"] / ddf_calls if ddf_calls else 0.0,
        "sieve.s": sum(r.phase_ms.get(PHASES["sieve.s"], 0) for r in reports.values()) / 1000,
        "sieve.ddf_calls": in_sieve,
        "sieve.rows": sieve_rows,
        "sieve.yield": sieve_rows / in_sieve if in_sieve else 0.0,
        "eisenstein.residue.calls": tracer.counts["eisenstein.residue.calls"],
        "lattice.lll.calls": calls["lattice.lll_reduce"],
        "lattice.lll.s": seconds.get("lattice.lll_reduce", 0.0),
        "lattice.lll.dim_max": tracer.maxes.get("lattice.lll.dim_max", 0),
        "lattice.lll.entry_bits_max": tracer.maxes.get("lattice.lll.entry_bits_max", 0),
        "lattice.babai.s": seconds.get("lattice.babai_nearest", 0.0),
        "nfroot.attempts": attempts,
        "nfroot.find_root.calls": roots,
        "nfroot.find_root.s": seconds.get("nfroot.find_root", 0.0),
        "nfroot.select_prime.s": seconds.get("nfroot.select_prime", 0.0),
        "nfroot.proved_share": tracer.counts["find_root_proved"] / roots if roots else 0.0,
        "nfroot.lift.s": seconds.get("nfroot.lift", 0.0),
        "modp.factor.calls": calls["modp.factor_mod_p"],
        "modp.factor.s": seconds.get("modp.factor_mod_p", 0.0),
        "modp.hensel.s": seconds.get("modp.hensel", 0.0),
        "scan.closure.products": products,
        "scan.closure.s": walk_s,
        "scan.absence.calls": calls["scan.absence_witness"],
        "scan.absence.s": seconds.get("scan.absence_witness", 0.0),
        "scan.invariants.s": seconds.get("scan.check_invariants", 0.0),
        "nfroot.verify.calls": calls["nfroot.verify_certificate"],
        "nfroot.verify.s": seconds.get("nfroot.verify_certificate", 0.0),
        "ramify.s": seconds.get("ramify.candidate_ramified_primes", 0.0),
        "ramify.gcd_bits_max": tracer.maxes.get("ramify.gcd_bits_max", 0),
    }


def absent_metrics(absent_targets: list[str], reports: dict) -> list[str]:
    """Metrics whose layer is gone: a wrapped target that no longer exists,
    or a phase_ms key that no scan report has."""
    gone = {m for target, _, _, metrics in WRAPPED if target in absent_targets for m in metrics}
    gone |= {name for target, name in COUNTED if target in absent_targets}
    gone |= {m for m, key in PHASES.items()
             if reports and not any(key in r.phase_ms for r in reports.values())}
    return [m for m in PER_LAYER if m in gone]
