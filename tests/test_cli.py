import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import biquat
from biquat.algebra import Biquaternion, biquat_mul, square_residual
from biquat.cli import (
    ParseError,
    format_coefficients,
    main,
    parse_biquaternion,
)
from biquat.oracle import sample_perpendicular, sample_unit_pure
from biquat.roots import (
    ImaginaryUnit,
    Nontrivial,
    UnitPure,
    classify_root,
    make_nontrivial_root,
)

SQRT2_ROOT = "0 1.4142135623730951 0 0 0 0 1 0"


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
    with pytest.raises(ParseError, match='"qi"\\[1\\]'):
        parse_biquaternion('{"qr": [1, 2, 3, 4], "qi": [5, true, 7, 8]}')
    with pytest.raises(ParseError, match="keys"):
        parse_biquaternion('{"qr": [1, 2, 3, 4]}')
    with pytest.raises(ParseError, match="4 numbers"):
        parse_biquaternion('{"qr": [1, 2], "qi": [5, 6, 7, 8]}')
    with pytest.raises(ParseError, match="JSON"):
        parse_biquaternion("{ not json }")


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
    assert "not finite" in capsys.readouterr().err


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


def test_make_root_rejects_overflowing_t(capsys):
    assert main(["make-root", "--mu", "1 0 0", "--nu", "0 1 0", "--t", "1000"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_sample_rejects_negative_count(capsys):
    assert main(["sample", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count" in captured.err


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
    assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0",
                 "--bound", "1", "--step", "0.3"]) == 2
    assert "integer" in capsys.readouterr().err
    assert main(["lattice", "--mu", "1 0 0", "--nu", "0 1 0", "--bound", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


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


def test_classify_theorem_violation_exits_three(capsys):
    # near-root with non-perpendicular directions: a sloppy tolerance lets
    # the residual pass while the family checks fail
    b, d = math.cosh(0.3), math.sinh(0.3)
    coeffs = (0, b, 0, 0, 0, d * 0.3, d * math.sqrt(1 - 0.09), 0)
    text = format_coefficients(Biquaternion.from_coefficients(*coeffs))
    assert main(["classify", text, "--tol", "0.25"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("theorem-violation")
    assert "dot" in out
    assert main(["classify", text, "--tol", "0.25", "--json"]) == 3
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["family", "residual", "failures"]
    assert record["family"] == "theorem-violation"
    assert record["residual"] == square_residual(parse_biquaternion(text))
    [failure] = record["failures"]
    assert failure.startswith("|dot(mu, nu)| = ") and failure.endswith(" > tol")
    # the text line carries the same residual and failures
    assert out == (f"theorem-violation residual={record['residual']!r} "
                   f"({failure})\n")


def test_usage_errors_exit_two(monkeypatch, capsys):
    assert main(["classify", "1 2 3"]) == 2
    assert "expected 8 numbers" in capsys.readouterr().err
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
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--digits", "-1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --digits: must be nonnegative, got -1\n")
    # verify-examples prints no numbers to format, so it takes no --digits
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-examples", "--digits", "3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --digits 3\n")


def test_square_overflow_is_reported(capsys):
    assert main(["square", OVERFLOW_LINE]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the square of this input overflows a double\n"
    # finite entries whose sum overflows are still a finite square
    assert main(["square", "1.3e154 2e153 0 0 0 0 0 0"]) == 0


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
        assert "numpy" not in sys.modules, "numpy was loaded"
        missing = [name for name in biquat.__all__ if getattr(biquat, name, None) is None]
        assert not missing, missing
        from biquat import lattice_search, refine_root
        assert lattice_search is biquat.oracle.lattice_search
        assert refine_root is biquat.oracle.refine_root
        print("ok")
    """)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=_child_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def _child_env():
    """The environment for a child Python that imports this checkout's biquat."""
    src = str(Path(biquat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        src, os.environ.get("PYTHONPATH")))))


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


def test_lines_before_a_bad_line_are_printed(monkeypatch, capsys):
    pairs = _seeded_stream()[:40]
    texts = [text for text, _ in pairs]
    for bad, where in ((25, "1 2 3"), (10, "1 2 spam 4 5 6 7 8"), (0, "1 nan 3 4 5 6 7 8")):
        lines = texts[:bad] + [where] + texts[bad:]
        code, out, err = _run(monkeypatch, capsys, ["classify"], lines)
        assert code == 2
        assert out.splitlines() == [_expected_classify(q, 17, False) for _, q in pairs[:bad]]
        assert err.startswith("error: ") and err.count("\n") == 1

    # a finite line whose square overflows stops `square` the same way
    code, out, err = _run(monkeypatch, capsys, ["square"], texts[:30] + [OVERFLOW_LINE] + texts)
    assert code == 2
    assert out.splitlines() == [_expected_square(q, 17, False) for _, q in pairs[:30]]
    assert err == "error: the square of this input overflows a double\n"


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
                                env=_child_env())
        assert proc.stdout.readline()
        proc.stdout.close()    # the reader goes away, as `| head -1` does
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")
