import json
import random
import sys
from fractions import Fraction

import pytest

from subfieldscan.cli import (EXIT_BUDGET, EXIT_INPUT_ERROR, EXIT_OK, EXIT_UNPROVEN, MAX_DEGREE,
                              main, canonical_report_bytes, parse_poly, render_poly,
                              report_from_dict, report_json, report_to_dict)
from subfieldscan.config import ScanConfig
from subfieldscan.errors import PolyParseError
from subfieldscan.poly import Poly
from subfieldscan.scan import cubic_subfield_scan, quad_subfield_scan


def test_parse_examples():
    assert parse_poly("x^4 - 10*x^2 + 1") == Poly.from_desc([1, 0, -10, 0, 1])
    assert parse_poly("1 0 -10 0 1") == Poly.from_desc([1, 0, -10, 0, 1])
    with pytest.raises(PolyParseError, match="unexpected variable"):
        parse_poly("x^2 + y")


def test_parse_variants():
    assert parse_poly("X^2-2") == Poly.from_desc([1, 0, -2])
    assert parse_poly("x") == Poly([0, 1])
    assert parse_poly("-x^2 + 3x") == Poly.from_desc([-1, 3, 0])
    assert parse_poly("1/2*x^2 - 1/3") == Poly([Fraction(-1, 3), 0, Fraction(1, 2)])
    assert parse_poly("5") == Poly([5])
    assert parse_poly("2 0 -4") == Poly.from_desc([2, 0, -4])
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("x^")
    with pytest.raises(PolyParseError):
        parse_poly("x^2 -")
    with pytest.raises(PolyParseError):
        parse_poly("-")
    # a term needs an operator before it: none of these is silently a sum
    for text in ("x2 + 1", "x^2 3", "3x^2x", "x^2 - 3 x", "1/2 x"):
        with pytest.raises(PolyParseError, match="missing operator"):
            parse_poly(text)


def test_parse_render_roundtrip():
    rng = random.Random(8)
    for _ in range(1000):
        deg = rng.randint(0, 8)
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(deg)]
        coeffs.append(Fraction(rng.randint(1, 20)))
        p = Poly(coeffs)
        assert parse_poly(render_poly(p)) == p


def test_report_json_roundtrip():
    rep = quad_subfield_scan(Poly.from_desc([1, 0, 0, 0, 1]))
    d = json.loads(report_json(rep))
    rep2 = report_from_dict(d)
    assert rep2 == rep
    crep = cubic_subfield_scan(Poly.from_desc([1, 0, -21, -35]))
    d = json.loads(report_json(crep))
    assert report_from_dict(d) == crep


def test_integers_as_strings():
    rep = quad_subfield_scan(Poly.from_desc([1, 0, 0, 0, 1]))
    d = report_to_dict(rep)
    assert d["schema_version"] == 2
    assert isinstance(d["gcd_value"], str)
    assert all(isinstance(p, str) for p in d["candidate_primes"])
    for e in d["subfields"]:
        assert isinstance(e["delta"], str)
        assert all(isinstance(c, str) for c in e["certificate"]["scaled_root"])
        assert e["certificate"]["scaling"] == "fprime"
    assert isinstance(d["stats"]["direct_tests"], str)


def test_cli_quad(tmp_path, capsys):
    poly_file = tmp_path / "zeta8.txt"
    poly_file.write_text("x^4 + 1\n")
    out_json = tmp_path / "report.json"
    code = main(["quad", "-i", str(poly_file), "--json", str(out_json)])
    assert code == EXIT_OK
    data = json.loads(out_json.read_text())
    assert sorted(int(e["delta"]) for e in data["subfields"]) == [-2, -1, 2]
    text = capsys.readouterr().out
    assert "delta = -1" in text


def test_cli_cubic(tmp_path, capsys):
    poly_file = tmp_path / "f9.txt"
    # degree-9 compositum with four cyclic cubic subfields
    from subfieldscan.cli import render_poly
    from subfieldscan.testkit import corpus_generate

    entry = corpus_generate("cubic-compositum", "7,9")
    poly_file.write_text(render_poly(entry.poly) + "\n")
    out_json = tmp_path / "report.json"
    code = main(["cubic", "-i", str(poly_file), "--json", str(out_json)])
    assert code == EXIT_OK
    data = json.loads(out_json.read_text())
    assert len(data["subfields"]) == 4
    assert all("minpoly" in e for e in data["subfields"])
    assert main(["certify", "-i", str(poly_file), "--cert", str(out_json)]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("kind, params, line", [
    ("multiquadratic", "2,3,5,7", "sieve: no finite prime gave a row; solution dimension 4"),
    ("cyclotomic", "12", "sieve: 4 rows from primes up to 109; solution dimension 2"),
])
def test_cli_summary_names_the_last_row_prime_or_says_there_is_none(tmp_path, capsys, kind,
                                                                    params, line):
    # Q(sqrt 2, sqrt 3, sqrt 5, sqrt 7) is totally real: the real place's
    # row cuts its candidates and no finite prime gives a row
    from subfieldscan.testkit import corpus_generate

    poly_file = tmp_path / "f.txt"
    poly_file.write_text(render_poly(corpus_generate(kind, params).poly) + "\n")
    assert main(["quad", "-i", str(poly_file)]) == EXIT_OK
    text = capsys.readouterr().out
    assert line + "\n" in text
    assert "up to -" not in text


def test_cli_certify_accepts_and_rejects(tmp_path, capsys):
    poly_file = tmp_path / "zeta8.txt"
    poly_file.write_text("x^4 + 1\n")
    out_json = tmp_path / "report.json"
    assert main(["quad", "-i", str(poly_file), "--json", str(out_json)]) == EXIT_OK
    assert main(["certify", "-i", str(poly_file), "--cert", str(out_json)]) == EXIT_OK
    data = json.loads(out_json.read_text())
    flipped = int(data["subfields"][0]["certificate"]["scaled_root"][1]) ^ 1
    data["subfields"][0]["certificate"]["scaled_root"][1] = str(flipped)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["certify", "-i", str(poly_file), "--cert", str(bad)]) != EXIT_OK
    capsys.readouterr()


def test_cli_certify_every_bit_position(tmp_path, capsys):
    poly_file = tmp_path / "f.txt"
    poly_file.write_text("x^4 - 10*x^2 + 1\n")
    out_json = tmp_path / "report.json"
    assert main(["quad", "-i", str(poly_file), "--json", str(out_json)]) == EXIT_OK
    base = json.loads(out_json.read_text())
    rng = random.Random(0)
    for _ in range(12):
        data = json.loads(out_json.read_text())
        entry = rng.choice(data["subfields"])
        idx = rng.randrange(len(entry["certificate"]["scaled_root"]))
        val = int(entry["certificate"]["scaled_root"][idx])
        bit = 1 << rng.randrange(max(val.bit_length(), 1) + 1)
        entry["certificate"]["scaled_root"][idx] = str(val ^ bit)
        bad = tmp_path / "mut.json"
        bad.write_text(json.dumps(data))
        assert main(["certify", "-i", str(poly_file), "--cert", str(bad)]) != EXIT_OK
    capsys.readouterr()


def test_cli_corpus(tmp_path, capsys):
    out = tmp_path / "mq.txt"
    assert main(["corpus", "--kind", "multiquadratic", "--params", "2,3",
                 "-o", str(out)]) == EXIT_OK
    truth = json.loads((tmp_path / "mq.txt.truth.json").read_text())
    assert truth["quad"] == ["2", "3", "6"]
    assert main(["corpus", "--kind", "multiquadratic", "--params", "2,3,5",
                 "-o", str(tmp_path / "mq8.txt")]) == EXIT_OK
    truth8 = json.loads((tmp_path / "mq8.txt.truth.json").read_text())
    assert len(truth8["quad"]) == 7
    assert parse_poly(truth8["poly"]).degree == 8
    assert main(["corpus", "--kind", "cyclotomic", "--params", "8",
                 "-o", str(tmp_path / "c8.txt")]) == EXIT_OK
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x^2 + y\n")
    assert main(["quad", "-i", str(bad)]) == EXIT_INPUT_ERROR
    missing = tmp_path / "missing.txt"
    assert main(["quad", "-i", str(missing)]) == EXIT_INPUT_ERROR
    const = tmp_path / "const.txt"
    const.write_text("7\n")
    assert main(["quad", "-i", str(const)]) == EXIT_INPUT_ERROR
    phi12 = tmp_path / "phi12.txt"
    phi12.write_text("x^4 - x^2 + 1\n")
    code = main(["quad", "-i", str(phi12), "--sieve-bound", "2"])
    assert code == EXIT_OK  # absences all certified by default bound
    capsys.readouterr()


def test_stalled_split_exits_as_a_budget_failure(tmp_path, capsys, monkeypatch):
    # a Cantor-Zassenhaus split that stops before a factor falls out is a
    # bounded search running out, not an input error
    import subfieldscan.modp as modp_mod

    poly_file = tmp_path / "c12.txt"
    assert main(["corpus", "--kind", "cyclotomic", "--params", "12",
                 "-o", str(poly_file)]) == EXIT_OK
    monkeypatch.setattr(modp_mod, "_CZ_RETRY_CAP", 0)
    assert main(["quad", "-i", str(poly_file)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: equal-degree splitting stalled")


def test_unproven_exit_code(tmp_path, capsys, monkeypatch):
    # no sieve rows and a tiny absence bound leaves unproven exclusions
    phi12 = tmp_path / "phi12.txt"
    phi12.write_text("x^4 - x^2 + 1\n")
    import subfieldscan.scan as scan_mod

    monkeypatch.setattr(scan_mod, "ABSENCE_PRIME_BOUND", 3)
    code = main(["quad", "-i", str(phi12), "--sieve-bound", "2"])
    assert code == EXIT_UNPROVEN
    capsys.readouterr()


def test_canonical_bytes_exclude_timings():
    rep1 = quad_subfield_scan(Poly.from_desc([1, 0, 0, 0, 1]), ScanConfig())
    rep2 = quad_subfield_scan(Poly.from_desc([1, 0, 0, 0, 1]), ScanConfig())
    assert canonical_report_bytes(rep1) == canonical_report_bytes(rep2)


def test_report_from_dict_reads_a_schema_1_report_and_ignores_its_seed():
    rep = cubic_subfield_scan(Poly.from_desc([1, 1, -2, -1]))
    d = report_to_dict(rep)
    d["schema_version"] = 1
    d["stats"]["seed"] = "7"
    assert report_from_dict(d) == rep


def test_scan_reads_no_seed_from_the_environment(tmp_path, capsys, monkeypatch):
    poly_file = tmp_path / "f.txt"
    poly_file.write_text("x^4 + 1\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["quad", "-i", str(poly_file), "--json", str(out1)]) == EXIT_OK
    # a value the CLI once refused as an input error now changes nothing
    monkeypatch.setenv("SUBFIELD_SCAN_SEED", "abc")
    assert main(["quad", "-i", str(poly_file), "--json", str(out2)]) == EXIT_OK
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert "seed" not in d2["stats"]
    for d in (d1, d2):
        d["stats"]["phase_ms"] = {}
    assert d1 == d2
    capsys.readouterr()


def _one_input_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["0", "x - 1", "x^4 + 2*x^2 + 1", "x^2 + 1/0"])
def test_certify_rejects_a_bad_polynomial(tmp_path, capsys, text):
    # zero, degree below 2, a repeated root, a zero denominator
    poly_file, cert = tmp_path / "f.txt", tmp_path / "c.json"
    poly_file.write_text(text + "\n")
    cert.write_text("[]")
    assert main(["certify", "-i", str(poly_file), "--cert", str(cert)]) == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no limit on integer digits")
@pytest.mark.parametrize("command", ["quad", "certify"])
@pytest.mark.parametrize("text", ["x^2 - " + "7" * 5000, "x^" + "7" * 5000 + " - 2"],
                         ids=["coefficient", "exponent"])
def test_an_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys, command, text):
    # int() refuses more than sys.get_int_max_str_digits() digits with a
    # ValueError; the parser reports it as a PolyParseError
    poly_file, cert = tmp_path / "f.txt", tmp_path / "c.json"
    poly_file.write_text(text + "\n")
    cert.write_text("[]")
    args = ["--cert", str(cert)] if command == "certify" else []
    assert main([command, "-i", str(poly_file), *args]) == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)


@pytest.mark.parametrize("command", ["quad", "certify"])
def test_an_exponent_above_the_degree_cap_is_an_input_error(tmp_path, capsys, command):
    # the parser refuses x^(10^9) before it builds 10^9 + 1 dense coefficients
    poly_file, cert = tmp_path / "f.txt", tmp_path / "c.json"
    poly_file.write_text("x^1000000000 - 2\n")
    cert.write_text("[]")
    args = ["--cert", str(cert)] if command == "certify" else []
    assert main([command, "-i", str(poly_file), *args]) == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)
    assert parse_poly(f"x^{MAX_DEGREE} - 2").degree == MAX_DEGREE
    with pytest.raises(PolyParseError, match="degree cap"):
        parse_poly(f"x^{MAX_DEGREE + 1} - 2")


def test_quad_rejects_a_repeated_root_of_odd_degree(tmp_path, capsys):
    # (x - 1)^2 (x + 1): no quadratic subfield can exist, yet the input is
    # checked before any answer
    poly_file = tmp_path / "f.txt"
    poly_file.write_text("x^3 - x^2 - x + 1\n")
    assert main(["quad", "-i", str(poly_file)]) == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)


@pytest.mark.parametrize("data", ['[1, 2]', '{"subfields": ["x"]}', '"abc"',
                                  '{"subfields": 5}', '7'])
def test_certify_rejects_json_of_the_wrong_shape(tmp_path, capsys, data):
    poly_file, cert = tmp_path / "f.txt", tmp_path / "c.json"
    poly_file.write_text("x^4 + 1\n")
    cert.write_text(data)
    assert main(["certify", "-i", str(poly_file), "--cert", str(cert)]) == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)


@pytest.mark.parametrize("entry", [
    {"minpoly": 5, "certificate": {"scaled_root": ["0", "1", "0", "1"]}},
    {"delta": ["2"], "certificate": {"scaled_root": ["0", "1", "0", "1"]}},
    {"delta": "2", "certificate": "x"},
    {"delta": "2", "certificate": {"scaled_root": 5}},
    {"delta": "2", "certificate": {"scaled_root": [None]}},
    {"minpoly": "3", "certificate": {"scaled_root": ["0", "1", "0", "1"]}},   # degree 0
])
def test_certify_marks_an_entry_of_the_wrong_type_invalid(tmp_path, capsys, entry):
    # like an entry with a missing field: INVALID, exit 1
    poly_file, cert = tmp_path / "f.txt", tmp_path / "c.json"
    poly_file.write_text("x^4 + 1\n")
    cert.write_text(json.dumps([entry]))
    assert main(["certify", "-i", str(poly_file), "--cert", str(cert)]) == 1
    assert "INVALID" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["quad", "-i", "f.txt", "--sieve-bound", "x"],   # a malformed flag value
    ["quad", "--sieve-bound", "5"],                  # no -i
    ["certify", "-i", "f.txt"],                      # no --cert
    ["cubic", "-i", "f.txt", "--seed", "1"],         # an unknown flag
    ["scan", "-i", "f.txt"],                         # an unknown subcommand
])
def test_usage_error_exits_as_an_input_error(capsys, argv):
    # argparse's own exit code, 2, is EXIT_UNPROVEN: a script would read a
    # mistyped flag as a finished scan
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)


def test_quad_flags(capsys):
    import re

    with pytest.raises(SystemExit) as exc:
        main(["quad", "--help"])
    assert exc.value.code == EXIT_OK
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--input", "--json", "--sieve-bound"}


def _corpus_file(tmp_path, kind, params):
    path = tmp_path / "f.txt"
    assert main(["corpus", "--kind", kind, "--params", params, "-o", str(path)]) == EXIT_OK
    return path


def test_a_fault_in_the_hensel_tree_reaches_the_caller(tmp_path, capsys, monkeypatch):
    # past the input gate a ValueError is a fault of the library: it is not
    # reported as an input error (exit 3) but reaches the caller
    import subfieldscan.modp as modp_mod

    poly_file = _corpus_file(tmp_path, "cyclotomic", "12")

    def invert(a, b, p):
        raise ValueError("not invertible: a and b have a common factor")

    monkeypatch.setattr(modp_mod, "invert", invert)
    with pytest.raises(ValueError, match="not invertible"):
        main(["quad", "-i", str(poly_file)])
    assert "input error" not in capsys.readouterr().err


def test_a_fault_in_the_cubic_character_reaches_the_caller(tmp_path, capsys, monkeypatch):
    import subfieldscan.sieve as sieve_mod

    poly_file = _corpus_file(tmp_path, "cyclotomic", "7")

    def cubic_residue_class(a, q):
        raise ValueError(f"unsupported prime {q}")

    monkeypatch.setattr(sieve_mod, "cubic_residue_class", cubic_residue_class)
    with pytest.raises(ValueError, match="unsupported prime"):
        main(["cubic", "-i", str(poly_file)])
    assert "input error" not in capsys.readouterr().err


def test_prime_selection_out_of_primes_exits_as_a_budget_failure(tmp_path, capsys, monkeypatch):
    import subfieldscan.nfroot as nfroot

    poly_file = _corpus_file(tmp_path, "cyclotomic", "12")
    capsys.readouterr()
    monkeypatch.setattr(nfroot, "SELECT_PRIME_BOUND", 3)
    assert main(["quad", "-i", str(poly_file)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err == "budget exceeded: no usable prime below 3\n"


@pytest.mark.parametrize("kind, params", [
    ("cyclotomic", "abc"), ("cyclotomic", "9"), ("cyclotomic", "8,12"),
    ("multiquadratic", "2,2"), ("multiquadratic", "2,4"), ("multiquadratic", ""),
    ("cubic-compositum", "7,11"),
])
def test_corpus_rejects_bad_params(capsys, kind, params):
    assert main(["corpus", "--kind", kind, "--params", params]) == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)


def test_an_unreadable_polynomial_file_is_an_input_error(tmp_path, capsys):
    poly_file = tmp_path / "f.bin"
    poly_file.write_bytes(b"\xff\xfe x^2 + 1\n")
    assert main(["quad", "-i", str(poly_file)]) == EXIT_INPUT_ERROR
    assert _one_input_error_line(capsys)
