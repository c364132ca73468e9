"""Command-line interface, polynomial text parsing, and JSON reports.

Subcommands: quad, cubic (the scans), certify (re-verify a report's
certificates), corpus (emit test polynomials with ground-truth sidecars).

All integers in report JSON are serialized as decimal strings so values
beyond 53 bits survive every JSON implementation.  Exit codes: 0 complete,
1 an invalid certificate (certify), 2 complete with unproven absences,
3 input error (one line "input error: ..." on stderr): a file that cannot
be read, a polynomial or corpus parameter that the input gate refuses
(errors.InputError: the parser, normalize_input, NumberField,
testkit.corpus_generate), certify's JSON that is not a report, or a usage
error of the command line; 4 an exhausted budget (errors.BudgetExceeded:
factoring, splitting, prime selection).  Any other exception is a fault
of the library, not of the input: it reaches the caller with its
traceback, and python exits 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .config import ScanConfig
from .errors import BudgetExceeded, InputError, PolyParseError
from .nfroot import NumberField, RootCertificate, verify_certificate
from .poly import Poly, normalize_input
from .scan import (ExcludedEntry, ScanReport, SieveSummary, SubfieldEntry,
                   cubic_subfield_scan, quad_subfield_scan)
from . import testkit

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_UNPROVEN = 2
EXIT_INPUT_ERROR = 3
EXIT_BUDGET = 4


# -- polynomial text ----------------------------------------------------------

# The parser refuses an exponent above this, before it builds the dense
# coefficient list: far above the degree-128 stretch field, and far below
# the memory that x^(10^9) would ask for.
MAX_DEGREE = 4096

_TERM_RE = re.compile(r"""
    (?P<coeff>[0-9]+(?:/[0-9]+)?)?          # optional coefficient
    (?:\s*\*\s*)?                            # optional *
    (?P<var>[A-Za-z])?                       # optional variable
    (?:\^(?P<exp>[0-9]+))?                   # optional power
""", re.VERBOSE)


def parse_poly(text: str) -> Poly:
    """Parse either an expression in one variable (x or X) or a whitespace
    separated descending coefficient line.  An expression's exponents are
    at most MAX_DEGREE."""
    if not isinstance(text, str):
        raise TypeError(f"a polynomial is a string, not {type(text).__name__}")
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial")
    if not re.search(r"[A-Za-z]", text):
        parts = text.split()
        if len(parts) > 1 or "/" in text:
            coeffs = []
            for tok in parts:
                try:
                    coeffs.append(Fraction(tok))
                except (ValueError, ZeroDivisionError) as exc:
                    raise PolyParseError(f"bad coefficient {tok!r}") from exc
            return Poly.from_desc(coeffs)
    return _parse_expression(text)


def _parse_expression(text: str) -> Poly:
    terms: dict[int, Fraction] = {}
    var_seen = None
    pos = 0
    sign = 1
    expect_term = True
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "+":
            if expect_term and sign == 1 and not terms and pos != 0:
                raise PolyParseError("unexpected '+'", pos)
            pos += 1
            expect_term = True
            continue
        if ch == "-":
            sign = -sign
            pos += 1
            expect_term = True
            continue
        if not expect_term:
            raise PolyParseError("missing operator between terms", pos)
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise PolyParseError(f"cannot parse near {text[pos:pos+10]!r}", pos)
        coeff_s, var, exp_s = m.group("coeff"), m.group("var"), m.group("exp")
        if coeff_s is None and var is None:
            raise PolyParseError(f"cannot parse near {text[pos:pos+10]!r}", pos)
        if var is not None:
            if var not in ("x", "X"):
                raise PolyParseError(f"unexpected variable {var!r}", pos)
            if var_seen is None:
                var_seen = var
        elif exp_s is not None:
            raise PolyParseError("exponent without variable", pos)
        try:
            exp = 0 if var is None else int(exp_s or 1)
            coeff = Fraction(coeff_s) if coeff_s is not None else Fraction(1)
        except ZeroDivisionError:
            raise PolyParseError(f"zero denominator in {coeff_s!r}", pos) from None
        except ValueError as exc:   # past Python's limit on integer digits
            raise PolyParseError(str(exc), pos) from None
        if exp > MAX_DEGREE:
            raise PolyParseError(f"exponent {exp} above the degree cap {MAX_DEGREE}", pos)
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
        sign = 1
        expect_term = False
        pos = m.end()
    if expect_term:
        raise PolyParseError("dangling operator or no terms found")
    top = max(terms)
    return Poly([terms.get(i, Fraction(0)) for i in range(top + 1)])


def render_poly(p: Poly) -> str:
    """Human-readable expression, descending powers, inverse of parse_poly."""
    if not p:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if i == 0:
            body = str(mag)
        else:
            xpart = "x" if i == 1 else f"x^{i}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def read_poly_file(path: str) -> Poly:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise PolyParseError(f"{path} is not text ({exc.reason})") from None
    lines = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise PolyParseError(f"no polynomial found in {path}")
    return parse_poly(" ".join(lines))


# -- report JSON ----------------------------------------------------------------


def _cert_to_dict(cert: RootCertificate) -> dict:
    return {"scaled_root": [str(c) for c in cert.scaled_root], "scaling": "fprime"}


def _cert_from_dict(d: dict, h: Poly) -> RootCertificate:
    return RootCertificate(tuple(int(s) for s in d["scaled_root"]), h)


def _entry_h(entry_dict: dict) -> Poly:
    if "delta" in entry_dict:
        return Poly([-int(entry_dict["delta"]), 0, 1])
    return parse_poly(entry_dict["minpoly"])


def report_to_dict(report: ScanReport, include_timings: bool = True) -> dict:
    subfields = []
    for e in report.subfields:
        d = {}
        if e.delta is not None:
            d["delta"] = str(e.delta)
        else:
            d["minpoly"] = render_poly(e.minpoly)
        d["certificate"] = _cert_to_dict(e.certificate)
        d["status"] = e.status
        subfields.append(d)
    excluded = []
    for e in report.excluded:
        d = {}
        if e.delta is not None:
            d["delta"] = str(e.delta)
        elif e.minpoly is not None:
            d["minpoly"] = render_poly(e.minpoly)
        d["status"] = e.status
        if e.witness_prime is not None:
            d["witness_prime"] = str(e.witness_prime)
        excluded.append(d)
    stats = {"direct_tests": str(report.direct_tests)}
    stats["phase_ms"] = ({k: str(v) for k, v in report.phase_ms.items()}
                         if include_timings else {})
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "input": {"poly": render_poly(report.poly), "degree": str(report.degree),
                  "scale": str(report.scale)},
        "candidate_primes": [str(p) for p in report.candidate_primes],
        "gcd_value": str(report.gcd_value),
        "sieve": {
            "primes_used": [str(p) for p in report.sieve.primes_used],
            "rows": str(report.sieve.rows),
            "solution_dim": str(report.sieve.solution_dim),
            "inconsistent": report.sieve.inconsistent,
        },
        "subfields": subfields,
        "excluded": excluded,
        "stats": stats,
    }


def report_from_dict(d: dict) -> ScanReport:
    """The report of a schema 1 or 2 dict.  Schema 2 dropped the seed from
    the stats, where it changed no answer; a schema-1 report's seed is
    ignored."""
    subfields = []
    for e in d["subfields"]:
        h = _entry_h(e)
        entry = SubfieldEntry(
            certificate=_cert_from_dict(e["certificate"], h),
            delta=int(e["delta"]) if "delta" in e else None,
            minpoly=parse_poly(e["minpoly"]) if "minpoly" in e else None,
            status=e["status"],
        )
        subfields.append(entry)
    excluded = []
    for e in d["excluded"]:
        excluded.append(ExcludedEntry(
            status=e["status"],
            delta=int(e["delta"]) if "delta" in e else None,
            minpoly=parse_poly(e["minpoly"]) if "minpoly" in e else None,
            witness_prime=int(e["witness_prime"]) if "witness_prime" in e else None,
        ))
    sieve = SieveSummary(
        primes_used=[int(p) for p in d["sieve"]["primes_used"]],
        rows=int(d["sieve"]["rows"]),
        solution_dim=int(d["sieve"]["solution_dim"]),
        inconsistent=bool(d["sieve"]["inconsistent"]),
    )
    return ScanReport(
        kind=d["kind"],
        poly=parse_poly(d["input"]["poly"]),
        scale=int(d["input"]["scale"]),
        degree=int(d["input"]["degree"]),
        candidate_primes=[int(p) for p in d["candidate_primes"]],
        gcd_value=int(d["gcd_value"]),
        sieve=sieve,
        subfields=subfields,
        excluded=excluded,
        phase_ms={k: int(v) for k, v in d["stats"].get("phase_ms", {}).items()},
        direct_tests=int(d["stats"]["direct_tests"]),
    )


def report_json(report: ScanReport, include_timings: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_timings), indent=2) + "\n"


def canonical_report_bytes(report: ScanReport) -> bytes:
    """Serialization with wall-clock noise removed; byte-identical for an
    identical input and ScanConfig."""
    return json.dumps(report_to_dict(report, include_timings=False),
                      sort_keys=True, separators=(",", ":")).encode()


# -- subcommands ------------------------------------------------------------------


def _add_scan_args(sp):
    sp.add_argument("-i", "--input", required=True, help="polynomial file")
    sp.add_argument("--json", help="write the JSON report here")
    sp.add_argument("--sieve-bound", type=int, default=10_000,
                    help="the largest prime the Frobenius sieve walks; it stops "
                         "earlier once its rows stop adding information")


def _run_scan(args) -> int:
    scan_fn = quad_subfield_scan if args.command == "quad" else cubic_subfield_scan
    report = scan_fn(read_poly_file(args.input), ScanConfig(sieve_prime_bound=args.sieve_bound))
    text = report_json(report)
    if args.json:
        Path(args.json).write_text(text)
    _print_summary(report)
    return EXIT_UNPROVEN if report.has_unproven() else EXIT_OK


def _print_summary(report: ScanReport):
    name = "quadratic" if report.kind == "quad" else "cyclic cubic"
    print(f"{name} subfields of degree-{report.degree} field "
          f"(scale {report.scale}, candidate primes {report.candidate_primes}, "
          f"gcd {report.gcd_value})")
    print(f"sieve: {report.sieve.rows} rows from primes up to "
          f"{report.sieve.primes_used[-1] if report.sieve.primes_used else '-'}; "
          f"solution dimension {report.sieve.solution_dim}"
          + ("; inconsistent (no subfield exists)" if report.sieve.inconsistent else ""))
    for e in report.subfields:
        label = f"delta = {e.delta}" if e.delta is not None else render_poly(e.minpoly)
        print(f"  subfield: {label}  [{e.status}]")
    for e in report.excluded:
        label = f"delta = {e.delta}" if e.delta is not None else (
            render_poly(e.minpoly) if e.minpoly is not None else "?")
        extra = f" (witness prime {e.witness_prime})" if e.witness_prime else ""
        print(f"  excluded: {label}  [{e.status}]{extra}")
    print(f"found {len(report.subfields)}, excluded {len(report.excluded)}, "
          f"direct root tests {report.direct_tests}, "
          f"total {report.phase_ms.get('total', 0)} ms")


def _certificate_entries(data) -> list[dict]:
    """The entry objects of a report, of a list of entries or of one entry."""
    if isinstance(data, dict) and "subfields" in data:
        data = data["subfields"]
    entries = data if isinstance(data, list) else [data]
    if not all(isinstance(e, dict) for e in entries):
        raise ValueError("expected a report, an entry object or a list of entry objects")
    return entries


def _cmd_certify(args) -> int:
    field = NumberField(normalize_input(read_poly_file(args.input))[0])
    try:
        entries = _certificate_entries(json.loads(Path(args.cert).read_text()))
    except ValueError as exc:   # not JSON, or JSON of the wrong shape
        return _input_error(exc)
    bad = 0
    for i, e in enumerate(entries):
        try:
            h = _entry_h(e)
            cert = _cert_from_dict(e["certificate"], h)
        except (KeyError, TypeError, ValueError, OverflowError):   # an entry of the wrong shape
            ok = False
        else:
            ok = verify_certificate(field, h, cert)
        label = e.get("delta") or e.get("minpoly") or f"entry {i}"
        print(f"  certificate for {label}: {'VALID' if ok else 'INVALID'}")
        bad += 0 if ok else 1
    if bad:
        print(f"{bad} invalid certificate(s)", file=sys.stderr)
        return 1
    print(f"all {len(entries)} certificate(s) valid")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    entry = testkit.corpus_generate(args.kind, args.params)
    poly_text = render_poly(entry.poly)
    sidecar = {
        "poly": poly_text,
        "quad": [str(d) for d in entry.quad],
        "cubic": [render_poly(m) for m in entry.cubic],
        "recipe": entry.recipe,
    }
    if args.output:
        Path(args.output).write_text(poly_text + "\n")
        Path(args.output + ".truth.json").write_text(json.dumps(sidecar, indent=2) + "\n")
        print(f"wrote {args.output} and {args.output}.truth.json")
    else:
        print(poly_text)
        print(json.dumps(sidecar, indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (an unknown or malformed flag, a
    missing argument) exit EXIT_INPUT_ERROR with one "input error: ..."
    line, not argparse's 2, which is EXIT_UNPROVEN.  Subcommand parsers are
    of the same class."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"input error: {self.prog}: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="subfieldscan",
        description="Quadratic and cyclic cubic subfields of number fields, "
                    "with verifiable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("quad", help="find all quadratic subfields")
    _add_scan_args(sp)
    sp = sub.add_parser("cubic", help="find all cyclic cubic subfields")
    _add_scan_args(sp)

    sp = sub.add_parser("certify", help="re-verify certificates from a report")
    sp.add_argument("-i", "--input", required=True, help="polynomial file")
    sp.add_argument("--cert", required=True, help="report or certificate JSON")

    sp = sub.add_parser("corpus", help="emit a test polynomial with ground truth")
    sp.add_argument("--kind", required=True,
                    choices=["multiquadratic", "cyclotomic", "cubic-compositum"])
    sp.add_argument("--params", required=True,
                    help="multiquadratic: prime list '2,3,5'; cyclotomic: m; "
                         "cubic-compositum: conductor list like '7,9' or '7,q5'")
    sp.add_argument("-o", "--output", help="polynomial file to write")

    args = parser.parse_args(argv)
    command = {"quad": _run_scan, "cubic": _run_scan, "certify": _cmd_certify,
               "corpus": _cmd_corpus}[args.command]
    try:
        return command(args)
    except (InputError, OSError) as exc:
        return _input_error(exc)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def _input_error(exc: Exception) -> int:
    print(f"input error: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
