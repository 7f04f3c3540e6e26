import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import typing

import numpy as np
import pytest

from biquat import cli, oracle, roots
from biquat.algebra import (
    Biquaternion,
    PureUnit,
    biquat_mul,
    square_residual,
    term_table,
    unit_biquaternion,
)
from biquat.cli import (
    EXAMPLE2_SUMMANDS,
    ParseError,
    format_coefficients,
    main,
    parse_biquaternion,
    parse_coefficients,
)
from biquat.oracle import (
    LatticeSpec,
    lattice_search,
    sample_perpendicular,
    sample_unit_pure,
)
from biquat.roots import (
    ImaginaryUnit,
    Nontrivial,
    TheoremViolationError,
    UnitPure,
    classify_root,
    make_nontrivial_root,
)
from oracles import child_env

SQRT2_ROOT = "0 1.4142135623730951 0 0 0 0 1 0"
HUGE_INT_JSON = f'{{"qr": [{10 ** 400}, 0, 0, 0], "qi": [0, 0, 0, 0]}}'
# more digits than int() converts (4300 by default); str(10 ** 4999) raises too
LONG_INT = "1" + "0" * 4999
LONG_INT_JSON = f'{{"qr": [{LONG_INT}, 0, 0, 0], "qi": [0, 0, 0, 0]}}'
NESTED_JSON = '{"qr": ' + "[" * 1000 + "]" * 1000 + ', "qi": [0, 0, 0, 0]}'
# no root (a = 1, v = jI): given a faked residual of 0 it fails both family checks
VIOLATION = "1 0 0 0 0 0 1 0"
# a Newton landing point from i plus 1e-8 noise: nontrivial with d ~ 8e-9
NEAR_EDGE_ROOT = ("-2.1579911336757013e-16 0.99999999999999978 -4.1306354927455362e-09 "
                  "-2.4414673865489566e-08 -7.2448577554509977e-17 8.1645160024345963e-17 "
                  "-3.2542283384283497e-09 7.738066187071598e-09")


def _fake_zero_residual(monkeypatch, text):
    """Let the coefficients of ``text`` pass the residual test, so that the
    family checks, which that test keeps out of reach, run on a non-root."""
    bad, real = tuple(parse_coefficients(text)), roots.square_residual
    monkeypatch.setattr(roots, "square_residual",
                        lambda c: 0.0 if tuple(c) == bad else real(c))


def test_parse_text_form():
    q = parse_biquaternion(SQRT2_ROOT)
    assert q.coefficients() == (0, math.sqrt(2), 0, 0, 0, 0, 1, 0)
    assert parse_biquaternion("0 0 0 0 0 0 0 0") == Biquaternion.from_scalar(0.0)


def test_parse_structured_form():
    q = parse_biquaternion('{"qr": [1, 2, 3, 4], "qi": [5, 6, 7, 8]}')
    assert q.coefficients() == (1, 2, 3, 4, 5, 6, 7, 8)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="expected 8 numbers, got 3"):
        parse_biquaternion("1 2 3")
    with pytest.raises(ParseError, match="token 4"):
        parse_biquaternion("1 2 3 spam 5 6 7 8")
    with pytest.raises(ParseError, match="token 2.*not finite"):
        parse_biquaternion("1 inf 3 4 5 6 7 8")
    with pytest.raises(ParseError, match=re.escape('"qi"[1]: true is not a number')):
        parse_biquaternion('{"qr": [1, 2, 3, 4], "qi": [5, true, 7, 8]}')
    # an entry that is not a number is spelled as JSON, not quoted like a token
    with pytest.raises(ParseError, match=re.escape('"qr"[1]: "2" is not a number')):
        parse_biquaternion('{"qr": [1, "2", 0, 0], "qi": [0, 0, 0, 0]}')
    with pytest.raises(ParseError, match=re.escape('"qr"[0]: null is not a number')):
        parse_biquaternion('{"qr": [null, 0, 0, 0], "qi": [0, 0, 0, 0]}')
    # a list or an object is named by its type
    with pytest.raises(ParseError, match=re.escape('"qi"[3]: a list is not a number')):
        parse_biquaternion('{"qr": [0, 0, 0, 0], "qi": [0, 0, 0, [1, {"a": false}]]}')
    with pytest.raises(ParseError, match=re.escape('"qi"[0]: a list is not a number')):
        parse_biquaternion(f'{{"qr": [0, 0, 0, 0], "qi": [[{LONG_INT}], 0, 0, 0]}}')
    with pytest.raises(ParseError, match=re.escape('"qr"[2]: an object is not a number')):
        parse_biquaternion('{"qr": [0, 0, {"a": 1}, 0], "qi": [0, 0, 0, 0]}')
    with pytest.raises(ParseError, match="keys"):
        parse_biquaternion('{"qr": [1, 2, 3, 4]}')
    # json alone keeps a repeated key's last value; the form has each key once
    with pytest.raises(ParseError, match=re.escape('invalid JSON: repeated key "qr"')):
        parse_biquaternion('{"qr": [1, 2, 3, 4], "qi": [1, 2, 3, 4], "qr": [1, 1, 1, 1]}')
    with pytest.raises(ParseError, match="4 numbers"):
        parse_biquaternion('{"qr": [1, 2], "qi": [5, 6, 7, 8]}')
    with pytest.raises(ParseError, match="JSON"):
        parse_biquaternion("{ not json }")
    # a JSON number is read from its source text, as a text token is
    with pytest.raises(ParseError, match=re.escape('"qr"[0]: \'Infinity\' is not finite')):
        parse_biquaternion('{"qr": [Infinity, 0, 0, 0], "qi": [0, 0, 0, 0]}')
    with pytest.raises(ParseError, match=re.escape(f'"qr"[0]: \'{10 ** 400}\' is not finite')):
        parse_biquaternion(HUGE_INT_JSON)
    with pytest.raises(ParseError, match=re.escape(f'"qr"[0]: \'{LONG_INT}\' is not finite')):
        parse_biquaternion(LONG_INT_JSON)
    # nesting deeper than the interpreter's recursion limit: json cannot decode it
    with pytest.raises(ParseError, match="^invalid JSON: maximum recursion depth"):
        parse_biquaternion(NESTED_JSON)
    # float reads digit grouping and non-ASCII digits; the format has neither
    with pytest.raises(ParseError, match=re.escape("token 1: '1_0' is not a number")):
        parse_biquaternion("1_0 0 0 0 0 0 0 0")
    with pytest.raises(ParseError, match=re.escape("token 3: '\u0661' is not a number")):
        parse_biquaternion("0 0 \u0661 0 0 0 0 0")
    with pytest.raises(ParseError, match=re.escape("token 8: '\uff17' is not a number")):
        parse_biquaternion("0 0 0 0 0 0 0 \uff17")
    # non-ASCII whitespace still separates ASCII tokens
    assert parse_biquaternion("1\u20030 0 0 0 0 0\u00a00") == Biquaternion.from_scalar(1.0)


def test_format_parse_closure():
    rng = np.random.default_rng(200)
    for _ in range(200):
        q = Biquaternion.from_coefficients(*rng.uniform(-100, 100, 8))
        assert parse_biquaternion(format_coefficients(q)) == q


def test_square_golden(capsys):
    assert main(["square", "1 0 0 0 0 0 0 0"]) == 0
    assert capsys.readouterr().out == "1 0 0 0 0 0 0 0\n"
    assert main(["square", SQRT2_ROOT]) == 0
    assert capsys.readouterr().out == "-1.0000000000000004 0 0 0 0 0 0 0\n"


def test_square_json(capsys):
    assert main(["square", "--json", "1 0 0 0 0 0 0 0"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "qr": [1.0, 0.0, 0.0, 0.0], "qi": [0.0, 0.0, 0.0, 0.0]}


def test_classify_root_exits_zero(capsys):
    assert main(["classify", SQRT2_ROOT]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nontrivial mu=(1 0 0) nu=(0 1 0) t=0.88137358701954305")
    assert "residual=" in out


def test_classify_not_a_root_exits_one(capsys):
    assert main(["classify", "1 0 0 0 0 0 0 0"]) == 1
    assert capsys.readouterr().out == "not-a-root residual=2\n"
    # finite input whose square overflows: a verdict, not a usage error
    assert main(["classify", "1e200 0 0 0 0 0 0 0"]) == 1
    assert capsys.readouterr().out == "not-a-root residual=inf\n"
    assert main(["classify", "1e200 0 0 0 0 0 0 inf"]) == 2
    assert capsys.readouterr().out == "parse-error (token 8: 'inf' is not finite)\n"


@pytest.mark.parametrize("command", ["classify", "square", "table"])
def test_huge_json_integer_is_a_usage_error(capsys, command):
    for text in (HUGE_INT_JSON, LONG_INT_JSON):
        assert main([command, text]) == 2
        captured = capsys.readouterr()
        # classify writes the message as the line's record, the others to stderr
        message, other = ((captured.out, captured.err) if command == "classify"
                          else (captured.err, captured.out))
        prefix = "parse-error (" if command == "classify" else "error: "
        assert other == ""
        assert message.startswith(prefix + '"qr"[0]: \'1000') and "is not finite" in message


def test_classify_json(capsys):
    assert main(["classify", "--json", SQRT2_ROOT]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["family"] == "nontrivial"
    assert record["mu"] == [1.0, 0.0, 0.0]
    assert record["nu"] == [0.0, 1.0, 0.0]
    assert record["t"] == pytest.approx(math.asinh(1.0))
    assert record["residual"] <= 1e-12


def test_classify_batch_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(f"{SQRT2_ROOT}\n\n1 0 0 0 0 0 0 0\n"))
    assert main(["classify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("nontrivial")
    assert lines[1].startswith("not-a-root")


def test_classify_all_degenerate_families(capsys):
    assert main(["classify", "0 0 0 1 0 0 0 0", "0 0 0 0 -1 0 0 0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("unit-pure mu=(0 0 1)")
    assert lines[1].startswith("imaginary-unit sign=-1")


def test_classify_subnormal_vector_parts(capsys):
    # within 1e-323 of I and of i; a vector part of subnormal modulus still
    # normalizes to a unit direction
    assert main(["classify", "0 5e-324 5e-324 0 1 0 0 0", "0 1 0 0 0 5e-324 5e-324 0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("imaginary-unit sign=+1 residual=")
    assert lines[1].startswith("unit-pure mu=(1 0 0) residual=")


def test_make_root_output_classifies(capsys):
    assert main(["make-root", "--mu", "1 0 0", "--nu", "0 1 0",
                 "--t", "0.881373587019543"]) == 0
    out = capsys.readouterr().out.strip()
    q = parse_biquaternion(out)
    assert isinstance(classify_root(q), Nontrivial)
    assert q.coefficients()[1] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_make_root_rejects_bad_directions(capsys):
    assert main(["make-root", "--mu", "1 1 0", "--nu", "0 1 0", "--t", "1"]) == 2
    assert "unit" in capsys.readouterr().err
    assert main(["make-root", "--mu", "1 0 0",
                 "--nu", "0.7071067811865475 0.7071067811865475 0",
                 "--t", "1"]) == 2
    assert "perpendicular" in capsys.readouterr().err
    assert main(["make-root", "--mu", "1 0", "--nu", "0 1 0", "--t", "1"]) == 2
    assert capsys.readouterr().err == "error: mu: expected 3 numbers, got 2\n"
    assert main(["make-root", "--mu", "1 x 0", "--nu", "0 1 0", "--t", "1"]) == 2
    assert capsys.readouterr().err == "error: mu token 2: 'x' is not a number\n"
    assert main(["make-root", "--mu", "1 0 0", "--nu", "0 1 inf", "--t", "1"]) == 2
    assert capsys.readouterr().err == "error: nu token 3: 'inf' is not finite\n"
    assert main(["make-root", "--mu", "\u0661 0 0", "--nu", "0 1 0", "--t", "1"]) == 2
    assert capsys.readouterr().err == "error: mu token 1: '\u0661' is not a number\n"
    assert main(["make-root", "--mu", "1 0 0", "--nu", "0 1_0 0", "--t", "1"]) == 2
    assert capsys.readouterr().err == "error: nu token 2: '1_0' is not a number\n"


def test_make_root_rejects_overflowing_t(capsys):
    assert main(["make-root", "--mu", "1 0 0", "--nu", "0 1 0", "--t", "1000"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_sample_rejects_negative_count(capsys):
    assert main(["sample", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count" in captured.err


@pytest.mark.parametrize("t_max", ["nan", "inf", "0"])
def test_sample_rejects_bad_t_max(capsys, t_max):
    assert main(["sample", "--t-max", t_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: t_max must be finite and positive, "
                            f"got {float(t_max)!r}\n")


@pytest.mark.parametrize("t_max", ["nan", "-1", "0", "inf"])
def test_sample_rejects_bad_t_max_without_drawing(capsys, t_max):
    assert main(["sample", "--t-max", t_max, "--count", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: t_max must be finite and positive, "
                            f"got {float(t_max)!r}\n")


@pytest.mark.parametrize("seed", ["0", "7"])
def test_sample_rejects_t_max_whose_cosh_overflows(capsys, seed):
    # a usage error before any draw; it used to depend on the seed
    assert main(["sample", "--t-max", "800", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: t_max must be at most acosh(DBL_MAX) = "
                            "710.4758600739439, got 800.0\n")


def test_sample_is_deterministic(capsys):
    assert main(["sample", "--seed", "42", "--count", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--seed", "42", "--count", "5"]) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert len(lines) == 5
    for line in lines:
        assert isinstance(classify_root(parse_biquaternion(line)), Nontrivial)


def test_sample_json_matches_text(capsys):
    assert main(["sample", "--seed", "42", "--count", "2", "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main(["sample", "--seed", "42", "--count", "2"]) == 0
    texts = capsys.readouterr().out.splitlines()
    for record, text in zip(records, texts):
        q = parse_biquaternion(text)
        assert record["qr"] + record["qi"] == list(q.coefficients())


def test_convert_labels(capsys):
    assert main(["convert", "1 2 0 0 3 0 0 -4"]) == 0
    assert capsys.readouterr().out == "w=1+3I x=2+0I y=0+0I z=0-4I\n"
    # a negative zero keeps its sign in a real part and prints "+0I" as an imaginary one
    assert main(["convert", "-0.0 0 0 0 0 0 -0.0 0"]) == 0
    assert capsys.readouterr().out == "w=-0+0I x=0+0I y=0+0I z=0+0I\n"
    assert main(["convert", "--json", "1 2 0 0 3 0 0 -4"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "w": [1.0, 3.0], "x": [2.0, 0.0], "y": [0.0, 0.0], "z": [0.0, -4.0]}


def test_table_command(capsys):
    assert main(["table", "0 1.4142135623730951 0 0 0 0 0 0",
                 "0 0 0 0 0 0 1 0", "--digits", "6"]) == 0
    out = capsys.readouterr().out
    assert "total: -1" in out
    assert "kI" in out
    # finite summands whose products or total overflow: no partial table on stdout
    for summands in (["1e200 0 0 0 0 0 0 0"], ["1e308 0 0 0 0 0 0 0"] * 2,
                     ["1.2e154 0 0 0 0 0 0 0"] * 2):   # finite products, total inf
        assert main(["table", *summands]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a product or the total of these summands "
                                "overflows a double\n")


def test_table_json(capsys):
    parts = [unit_biquaternion(s) for s in EXAMPLE2_SUMMANDS]
    assert main(["table", "--json", *(format_coefficients(p) for p in parts)]) == 0
    record = json.loads(capsys.readouterr().out)
    table = term_table(parts)
    assert list(record) == ["parts", "entries", "total"]
    assert record["parts"] == [list(p.coefficients()) for p in table.parts]
    assert record["entries"] == [[list(e.coefficients()) for e in row]
                                 for row in table.entries]
    assert record["total"] == list(table.total.coefficients()) == [-1.0] + [0.0] * 7


def test_table_stdin_and_empty(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 0 0 0 0 0 0\n"))
    assert main(["table"]) == 0
    assert "total: -1" in capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["table"]) == 2
    assert "summand" in capsys.readouterr().err


def test_lattice_command(capsys):
    assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0",
                 "--bound", "0.5", "--step", "0.25"]) == 1
    assert "0 hits" in capsys.readouterr().out
    assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "scanned 83521 points at tolerance 1.0000000000000001e-09: 8 hits, 0 violations",
        "hit a=0 b=-1.25 c=0 d=-0.75 residual=0 family=nontrivial",
        "hit a=0 b=-1.25 c=0 d=0.75 residual=0 family=nontrivial",
        "hit a=0 b=-1 c=0 d=0 residual=0 family=unit-pure",
        "hit a=0 b=0 c=-1 d=0 residual=0 family=imaginary-unit",
        "hit a=0 b=0 c=1 d=0 residual=0 family=imaginary-unit",
        "hit a=0 b=1 c=0 d=0 residual=0 family=unit-pure",
        "hit a=0 b=1.25 c=0 d=-0.75 residual=0 family=nontrivial",
        "hit a=0 b=1.25 c=0 d=0.75 residual=0 family=nontrivial"]
    assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scanned"] == 17 ** 4
    assert len(report["hits"]) == 8
    assert report["violations"] == []
    families = [h["family"] for h in report["hits"]]
    assert families.count("nontrivial") == 4


def test_lattice_rejects_bad_grid(capsys):
    for bound, step in (("1", "0.3"), ("1e-10", "1"), ("2.0000000001", "1")):
        assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0",
                     "--bound", bound, "--step", step]) == 2
        assert "integer" in capsys.readouterr().err
    assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0", "--bound", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_lattice_overflowing_grid_is_an_empty_census(capsys):
    # the squared residuals of the nonzero points overflow; no traceback
    assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0",
                 "--bound", "1e100", "--step", "1e100"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("scanned 81 points") and "0 hits" in captured.out
    assert captured.err == ""


def test_lattice_violation_exits_three(monkeypatch, capsys):
    # a census hit that fails classification is reported, never counted as a hit
    bad = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)   # a = c = d = 0, b = 1: q = i
    real = oracle.classify_coefficients

    def classify(coeffs, tol):
        if tuple(coeffs) == bad:
            raise TheoremViolationError(Biquaternion.from_coefficients(*bad), 0.0,
                                        ["injected failure"])
        return real(coeffs, tol)

    monkeypatch.setattr(oracle, "classify_coefficients", classify)
    message = ("point (0.0, 1.0, 0.0, 0.0): root classification inconsistency: "
               "residual 0.0 passes but injected failure")
    report = lattice_search(LatticeSpec(1.0, 0.5, PureUnit(1, 0, 0), PureUnit(0, 1, 0)))
    assert report.violations == (message,)
    assert [(h.a, h.b, h.c, h.d) for h in report.hits] == [
        (0.0, -1.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 1.0, 0.0)]
    argv = ["lattice", "--mu", "1 0 0", "--nu", "0 1 0", "--bound", "1", "--step", "0.5"]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert out.startswith("scanned 625 points at tolerance 1.0000000000000001e-09: "
                          "3 hits, 1 violations\n")
    assert out.endswith(f"violation: {message}\n")
    assert main(argv + ["--json"]) == 3
    assert json.loads(capsys.readouterr().out)["violations"] == [message]


def test_verify_examples(capsys):
    assert main(["verify-examples"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS example") for line in lines)


def test_verify_examples_json(capsys):
    assert main(["verify-examples", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["example"] for r in results] == [1, 2, 3]
    assert all(r["passed"] for r in results)
    assert all(r["max_error"] <= 1e-12 for r in results)


def test_classify_theorem_violation_exits_three(monkeypatch, capsys):
    _fake_zero_residual(monkeypatch, VIOLATION)
    assert main(["classify", VIOLATION]) == 3
    out = capsys.readouterr().out
    assert main(["classify", VIOLATION, "--json"]) == 3
    record = json.loads(capsys.readouterr().out)
    assert record == {"family": "theorem-violation", "residual": 0.0,
                      "failures": ["|w| = 1.0 > tol", "|v.v - 1| = 2.0 > tol"]}
    # the text line carries the same residual and failures
    assert out == "theorem-violation residual=0 (|w| = 1.0 > tol; |v.v - 1| = 2.0 > tol)\n"


@pytest.mark.parametrize("as_json", [False, True])
def test_violation_in_a_stream_is_one_more_verdict(monkeypatch, capsys, as_json):
    # a theorem violation is one more verdict line: the lines after it are
    # still classified, and the run exits 3 over the not-a-root's 1
    _fake_zero_residual(monkeypatch, VIOLATION)
    flags = ["--json"] if as_json else []
    lines = [VIOLATION, SQRT2_ROOT, "1 0 0 0 0 0 0 0"]
    expected = []
    for text, code in zip(lines, (3, 0, 1)):
        assert main(["classify", *flags, text]) == code
        expected.append(capsys.readouterr().out)
    code, out, err = _run(monkeypatch, capsys, ["classify", *flags], lines)
    assert (code, err) == (3, "")
    assert out == "".join(expected)
    families = ["theorem-violation", "nontrivial", "not-a-root"]
    if as_json:
        assert [json.loads(line)["family"] for line in out.splitlines()] == families
    else:
        assert [line.split()[0] for line in out.splitlines()] == families


def test_every_verdict_has_a_wire_form():
    # a new family cannot reach classify without a name and fields to print
    kinds = (*typing.get_args(roots.RootClassification), TheoremViolationError)
    assert set(cli._VERDICTS) == set(kinds)
    assert [cli._VERDICTS[kind][0] for kind in kinds] == [
        "nontrivial", "unit-pure", "imaginary-unit", "not-a-root", "theorem-violation"]


def test_newton_landing_point_near_the_edge_is_nontrivial(capsys):
    # its decomposed nu is 1e-8 off perpendicular, which the residual
    # (5.4e-16) cannot see; it is reported projected off mu
    assert main(["classify", NEAR_EDGE_ROOT]) == 0
    assert capsys.readouterr().out.startswith("nontrivial mu=(")
    assert main(["classify", NEAR_EDGE_ROOT, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["family"] == "nontrivial" and 8e-9 < record["t"] < 9e-9
    mu, nu = PureUnit(*record["mu"]), PureUnit(*record["nu"])
    q = make_nontrivial_root(mu, nu, record["t"])
    assert square_residual(q) <= 1e-15
    assert main(["make-root", "--mu", " ".join(map(repr, record["mu"])),
                 "--nu", " ".join(map(repr, record["nu"])), "--t", repr(record["t"])]) == 0


def test_usage_errors_exit_two(monkeypatch, capsys):
    assert main(["classify", "1 2 3"]) == 2
    assert capsys.readouterr() == ("parse-error (expected 8 numbers, got 3)\n", "")
    lattice = ["lattice", "--mu", "1 0 0", "--nu", "0 1 0"]
    for argv in (["classify", "--tol", "inf", "1 2 3 0 0 0 0 0"],
                 ["classify", "--tol", "nan", "1 0 0 0 0 0 0 0"],
                 ["make-root", "--mu", "1 0 0", "--nu", "1 0 0", "--t", "1", "--tol", "nan"],
                 lattice + ["--tol", "nan"],
                 lattice + ["--tol", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite and" in captured.err
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["classify", "--tol", "nan"]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_digits_flag(capsys):
    assert main(["square", SQRT2_ROOT, "--digits", "3"]) == 0
    assert capsys.readouterr().out == "-1 0 0 0 0 0 0 0\n"
    assert main(["square", SQRT2_ROOT, "--digits", "0"]) == 0
    assert capsys.readouterr().out == "-1 0 0 0 0 0 0 0\n"


def test_negative_digits_is_a_usage_error(monkeypatch, capsys):
    pair = ["--mu", "1 0 0", "--nu", "0 1 0"]
    for argv in (["square"], ["square", SQRT2_ROOT], ["classify"], ["classify", SQRT2_ROOT],
                 ["convert"], ["table"], ["make-root", *pair, "--t", "1"], ["sample"],
                 ["lattice", *pair]):
        for digits, message in (("-1", "must be nonnegative, got -1"),
                                ("x", "invalid int value: 'x'")):
            monkeypatch.setattr("sys.stdin", io.StringIO(""))
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--digits", digits])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: argument --digits: {message}\n")
    # verify-examples prints no numbers to format, so it takes no --digits
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-examples", "--digits", "3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --digits 3\n")


def test_unformattable_digits_is_a_usage_error(monkeypatch, capsys):
    # % takes a precision up to C's INT_MAX; a larger --digits is refused while
    # parsing, before stdin is read, whether stdin is empty or not
    pair = ["--mu", "1 0 0", "--nu", "0 1 0"]
    for argv in (["classify"], ["square"], ["lattice", *pair]):
        for text in ("", SQRT2_ROOT + "\n"):
            stdin = io.StringIO(text)
            monkeypatch.setattr("sys.stdin", stdin)
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--digits", "99999999999"])
            assert excinfo.value.code == 2
            assert stdin.tell() == 0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(
                "error: argument --digits: precision too big, got 99999999999\n")


def test_square_overflow_is_reported(capsys):
    assert main(["square", OVERFLOW_LINE]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the square of this input overflows a double\n"
    # finite entries whose square is just below DBL_MAX are still a finite square
    assert main(["square", "1.3e154 2e153 0 0 0 0 0 0"]) == 0


def test_finite_tokens_whose_sum_overflows(capsys):
    # each token is finite, so the parser accepts the line; its square overflows
    line = "1e308 1e308 0 0 0 0 0 0"
    assert main(["classify", line]) == 1
    assert capsys.readouterr().out == "not-a-root residual=inf\n"
    assert main(["square", line]) == 2
    assert capsys.readouterr().err == "error: the square of this input overflows a double\n"
    assert main(["convert", line]) == 0
    assert capsys.readouterr().out == "w=1e+308+0I x=1e+308+0I y=0+0I z=0+0I\n"


def test_commands_without_oracle_do_not_load_numpy():
    code = textwrap.dedent("""
        import contextlib, io, sys
        import biquat, biquat.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert biquat.cli.main(["classify", "0 1.4142135623730951 0 0 0 0 1 0"]) == 0
            assert biquat.cli.main(["square", "1 2 3 4 5 6 7 8"]) == 0
            assert biquat.cli.main(["convert", "1 2 3 4 5 6 7 8"]) == 0
            assert biquat.cli.main(["make-root", "--mu", "1 0 0", "--nu", "0 1 0",
                                    "--t", "1"]) == 0
            assert biquat.cli.main(["table", "0 1 0 0 0 0 0 0", "0 0 0 0 0 0 1 0"]) == 0
            assert biquat.cli.main(["verify-examples"]) == 0
        assert "numpy" not in sys.modules, "numpy was loaded"
        missing = [name for name in biquat.__all__ if getattr(biquat, name, None) is None]
        assert not missing, missing
        from biquat import lattice_search, refine_root
        assert lattice_search is biquat.oracle.lattice_search
        assert refine_root is biquat.oracle.refine_root
        print("ok")
    """)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=child_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


OVERFLOW_LINE = "1e200 0 0 0 0 0 0 0"


def _seeded_stream():
    """Seeded (text, Biquaternion) pairs, shuffled: every family, both signs
    of I and non-roots; the first line is in the JSON form."""
    rng = np.random.default_rng(4242)
    qs = []
    for _ in range(150):
        mu = sample_unit_pure(rng)
        qs.append(make_nontrivial_root(mu, sample_perpendicular(mu, rng),
                                       5.0 * (1.0 - rng.random())))
    for _ in range(40):
        u = sample_unit_pure(rng)
        qs.append(Biquaternion.from_coefficients(0.0, u.x, u.y, u.z, 0.0, 0.0, 0.0, 0.0))
    for sign in (1.0, -1.0) * 10:
        qs.append(Biquaternion.from_coefficients(0.0, 0.0, 0.0, 0.0, sign, 0.0, 0.0, 0.0))
    for _ in range(90):
        qs.append(Biquaternion.from_coefficients(*rng.uniform(-10.0, 10.0, 8)))
    order = rng.permutation(len(qs))
    pairs = [(" ".join(repr(v) for v in qs[k].coefficients()), qs[k]) for k in order]
    c = pairs[0][1].coefficients()
    pairs[0] = (json.dumps({"qr": list(c[:4]), "qi": list(c[4:])}), pairs[0][1])
    return pairs


def _expected_classify(q, digits, as_json):
    def g(v):
        return format(v, f".{digits}g")

    result, residual = classify_root(q), square_residual(q)
    if isinstance(result, Nontrivial):
        mu, nu = result.mu, result.nu
        record = {"family": "nontrivial", "mu": [mu.x, mu.y, mu.z],
                  "nu": [nu.x, nu.y, nu.z], "t": result.t}
        text = (f"nontrivial mu=({g(mu.x)} {g(mu.y)} {g(mu.z)}) "
                f"nu=({g(nu.x)} {g(nu.y)} {g(nu.z)}) t={g(result.t)}")
    elif isinstance(result, UnitPure):
        mu = result.mu
        record = {"family": "unit-pure", "mu": [mu.x, mu.y, mu.z]}
        text = f"unit-pure mu=({g(mu.x)} {g(mu.y)} {g(mu.z)})"
    elif isinstance(result, ImaginaryUnit):
        record = {"family": "imaginary-unit", "sign": result.sign}
        text = f"imaginary-unit sign={result.sign:+d}"
    else:
        record = {"family": "not-a-root"}
        text = "not-a-root"
    if as_json:
        return json.dumps({**record, "residual": residual})
    return f"{text} residual={g(residual)}"


def _expected_square(q, digits, as_json):
    c = biquat_mul(q, q).coefficients()
    if as_json:
        return json.dumps({"qr": list(c[:4]), "qi": list(c[4:])})
    return " ".join(format(v, f".{digits}g") for v in c)


def _run(monkeypatch, capsys, argv, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("digits", [17, 5])
def test_stream_output_matches_library(monkeypatch, capsys, digits, as_json):
    pairs = _seeded_stream()
    flags = ["--digits", str(digits)] + (["--json"] if as_json else [])

    texts = [text for text, _ in pairs] + [OVERFLOW_LINE]
    qs = [q for _, q in pairs] + [Biquaternion.from_coefficients(1e200, 0, 0, 0, 0, 0, 0, 0)]
    code, out, err = _run(monkeypatch, capsys, ["classify", *flags], texts)
    assert (code, err) == (1, "")
    assert out.splitlines() == [_expected_classify(q, digits, as_json) for q in qs]
    assert out.splitlines()[-1].startswith('{"family": "not-a-root", "residual": Infinity'
                                           if as_json else "not-a-root residual=inf")

    code, out, err = _run(monkeypatch, capsys, ["square", *flags], texts[:-1])
    assert (code, err) == (0, "")
    assert out.splitlines() == [_expected_square(q, digits, as_json) for q in qs[:-1]]


@pytest.mark.parametrize("as_json", [False, True])
def test_a_violation_outranks_a_bad_line(monkeypatch, capsys, as_json):
    # the exit code is the largest over the lines: 3 for a theorem violation
    # over 2 for a malformed line, whichever comes first
    _fake_zero_residual(monkeypatch, VIOLATION)
    flags = ["--json"] if as_json else []
    for lines in ([VIOLATION, "1 2 3"], ["1 2 3", VIOLATION], ["1 2 3", "1 0 0 0 0 0 0 0"]):
        code, out, err = _run(monkeypatch, capsys, ["classify", *flags], lines)
        assert (code, err) == (3 if VIOLATION in lines else 2, "")
        assert len(out.splitlines()) == 2


def test_only_a_parse_error_is_a_record(monkeypatch, capsys):
    # any other error still ends the run after the lines before it
    real = cli.classify_coefficients

    def classify(c, tol):
        if c[0] == 7.0:
            raise ValueError("not a parse error")
        return real(c, tol)

    monkeypatch.setattr(cli, "classify_coefficients", classify)
    code, out, err = _run(monkeypatch, capsys, ["classify"],
                          [SQRT2_ROOT, "7 0 0 0 0 0 0 0", SQRT2_ROOT])
    assert (code, err) == (2, "error: not a parse error\n")
    assert out == _expected_classify(parse_biquaternion(SQRT2_ROOT), 17, False) + "\n"


def test_lines_before_a_bad_line_are_printed(monkeypatch, capsys):
    # classify writes a parse-error record in a malformed line's place,
    # classifies the lines after it, and exits 2 over a not-a-root's 1
    pairs = _seeded_stream()[:40]
    texts = [text for text, _ in pairs]
    for as_json in (False, True):
        flags = ["--json"] if as_json else []
        expected = [_expected_classify(q, 17, as_json) for _, q in pairs]
        for bad, where, message in ((25, "1 2 3", "expected 8 numbers, got 3"),
                                    (10, "1 2 spam 4 5 6 7 8", "token 3: 'spam' is not a number"),
                                    (0, "1 nan 3 4 5 6 7 8", "token 2: 'nan' is not finite")):
            lines = texts[:bad] + [where] + texts[bad:]
            code, out, err = _run(monkeypatch, capsys, ["classify", *flags], lines)
            assert (code, err) == (2, "")
            record = (json.dumps({"family": "parse-error", "error": message}) if as_json
                      else f"parse-error ({message})")
            assert out.splitlines() == expected[:bad] + [record] + expected[bad:]

    # `square` stops at a finite line whose square overflows, after the lines before it
    code, out, err = _run(monkeypatch, capsys, ["square"], texts[:30] + [OVERFLOW_LINE] + texts)
    assert code == 2
    assert out.splitlines() == [_expected_square(q, 17, False) for _, q in pairs[:30]]
    assert err == "error: the square of this input overflows a double\n"


@pytest.mark.parametrize("command", ["classify", "square", "convert", "table"])
def test_deeply_nested_json_is_a_usage_error(monkeypatch, capsys, command):
    # the lines before it are written, then exit 2, not a traceback and exit 1;
    # classify writes its parse-error record in the line's place
    code, out, err = _run(monkeypatch, capsys, [command], [SQRT2_ROOT, NESTED_JSON])
    assert code == 2
    if command == "classify":
        first, second = out.splitlines()
        assert first == _expected_classify(parse_biquaternion(SQRT2_ROOT), 17, False)
        assert second.startswith("parse-error (invalid JSON: ") and err == ""
    else:
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def _stream_text(lines):
    texts = [text for text, _ in _seeded_stream()]
    return "".join(f"{texts[n % len(texts)]}\n" for n in range(lines))


def test_stdin_commands_work_in_constant_memory(monkeypatch):
    # 20k lines read and written one at a time: the input and the output
    # (each over 1 MB of text) are never held whole
    text = _stream_text(20_000)
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr("sys.stdout", devnull)
        for command, expected_code in (("classify", 1), ("square", 0)):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            tracemalloc.start()
            try:
                code = main([command])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == expected_code
            assert peak < 1_000_000, (command, peak)


@pytest.mark.parametrize("argv", [["classify"], ["square"], ["sample", "--count", "100000"]],
                         ids=["classify", "square", "sample"])
def test_closed_output_pipe_exits_quietly(tmp_path, argv):
    stdin_path = tmp_path / "stream.txt"
    stdin_path.write_text(_stream_text(20_000))
    with stdin_path.open() as stdin:
        proc = subprocess.Popen([sys.executable, "-m", "biquat", *argv], stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env())
        assert proc.stdout.readline()
        proc.stdout.close()    # the reader goes away, as `| head -1` does
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")
