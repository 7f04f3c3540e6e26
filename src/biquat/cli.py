"""Command-line surface.

Subcommands: square, classify, make-root, sample, convert, table,
lattice, verify-examples. Biquaternions travel as eight whitespace
separated numbers in canonical coefficient order, or as a JSON object
{"qr": [4 numbers], "qi": [4 numbers]}; numbers are printed with 17
significant digits by default so that output re-parses losslessly.

Exit codes: 0 success (or: is a root / hits found); 1 not-a-root or an
empty census; 2 usage error; 3 an internal theorem-violation finding;
141 (128 + SIGPIPE) stdout was closed early, as ``| head`` does. classify
writes a malformed line's parse-error record in its place and goes on; it
exits with the largest code of its lines, a malformed line counting 2.

numpy (through ``oracle``) is imported only by sample and lattice.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .algebra import (
    DEFAULT_TOL,
    Biquaternion,
    PureUnit,
    biquat_mul,
    check_tolerance,
    format_terms,
    mul_coefficients,
    term_table,
    unit_biquaternion,
)
from .roots import (
    ImaginaryUnit,
    Nontrivial,
    NotRoot,
    TheoremViolationError,
    UnitPure,
    classify_coefficients,
    make_nontrivial_root,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_BROKEN_PIPE = 141   # 128 + SIGPIPE


class ParseError(ValueError):
    """Malformed wire-format input; the message locates the bad token."""


def _number(tok: str, where: str) -> float:
    """The wire format's number: a finite ASCII token that ``float`` reads,
    without a digit-grouping "_"; ``where`` prefixes the error messages."""
    try:
        if not tok.isascii() or "_" in tok:   # float reads these; the output never writes them
            raise ValueError
        value = float(tok)
    except ValueError:
        raise ParseError(f"{where}: {tok!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: {tok!r} is not finite")
    return value


class _Token(str):
    """The source text of a JSON number, ``NaN`` and ``Infinity`` included."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; json alone would keep a repeated key's last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"invalid JSON: repeated key {json.dumps(key)}")
        obj[key] = value
    return obj


# built once: json.loads with hooks builds a new decoder on every call
_JSON_DECODER = json.JSONDecoder(parse_float=_Token, parse_int=_Token, parse_constant=_Token,
                                 object_pairs_hook=_unique_keys)


def _parse_numbers(text: str, count: int, name: str = "") -> list[float]:
    """``count`` finite numbers from ``text``; ``name`` prefixes the error messages."""
    tokens = text.split()
    if len(tokens) != count:
        message = f"expected {count} numbers, got {len(tokens)}"
        raise ParseError(f"{name}: {message}" if name else message)
    try:
        values = list(map(float, tokens))
        # a non-finite entry makes the sum non-finite; "_" or non-ASCII text goes below
        if text.isascii() and "_" not in text and math.isfinite(sum(values)):
            return values
    except ValueError:
        pass
    # locate the bad token; there is none after non-ASCII whitespace or a sum that overflowed
    where = f"{name} token" if name else "token"
    return [_number(tok, f"{where} {pos}") for pos, tok in enumerate(tokens, start=1)]


def parse_coefficients(text: str) -> list[float]:
    """Parse the 8-number text form or the {"qr": [...], "qi": [...]} form.

    Returns the 8 finite coefficients in canonical order. Both forms read a
    number by ``_number``; a JSON number by its source text, so ``-0`` is
    negative zero and an integer of any length reads as ``float`` reads its
    digits, as in the text form.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = _JSON_DECODER.decode(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deep
            raise ParseError(f"invalid JSON: {exc}") from None
        if set(obj) != {"qr", "qi"}:
            raise ParseError('structured form requires exactly the keys "qr" and "qi"')
        coeffs = []
        for key in ("qr", "qi"):
            part = obj[key]
            if not isinstance(part, list) or len(part) != 4:
                raise ParseError(f'"{key}" must be a list of 4 numbers')
            for pos, entry in enumerate(part):
                if not isinstance(entry, _Token):   # a string, true, false, null, list or object
                    # spelled as JSON; a list or object may hold _Tokens, so it is named
                    spelled = ({list: "a list", dict: "an object"}.get(type(entry))
                               or json.dumps(entry))
                    raise ParseError(f'"{key}"[{pos}]: {spelled} is not a number')
                coeffs.append(_number(entry, f'"{key}"[{pos}]'))
        return coeffs
    return _parse_numbers(stripped, 8)


def parse_biquaternion(text: str) -> Biquaternion:
    """Parse the 8-number text form or the {"qr": [...], "qi": [...]} form."""
    return Biquaternion.from_coefficients(*parse_coefficients(text))


def parse_pure_unit(text: str, name: str) -> PureUnit:
    values = _parse_numbers(text, 3, name)   # its ParseError carries the name already
    try:
        return PureUnit(*values)
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from None


def _coefficients_template(digits: int) -> str:
    # "%.<digits>g" formats a float exactly as format(v, ".<digits>g") does
    return " ".join([f"%.{digits}g"] * 8)


def format_coefficients(q: Biquaternion, digits: int = 17) -> str:
    return _coefficients_template(digits) % q.coefficients()


def _coefficients_formatter(args):
    """The run's output line for 8 coefficients: JSON {"qr", "qi"} or text."""
    if args.json:
        return lambda c: json.dumps({"qr": list(c[:4]), "qi": list(c[4:])})
    return _coefficients_template(args.digits).__mod__


def _inputs(args):
    return args.biquaternion or (line for line in map(str.strip, sys.stdin) if line)


def _cmd_square(args) -> int:
    line = _coefficients_formatter(args)
    write = sys.stdout.write
    for text in _inputs(args):
        c = parse_coefficients(text)
        sq = mul_coefficients(c, c)
        if not math.isfinite(sum(sq)) and not all(map(math.isfinite, sq)):
            raise ValueError("the square of this input overflows a double")
        write(line(sq) + "\n")
    return EXIT_OK


# Each verdict's wire form, in text and JSON alike: its output name, then its
# fields in output order. _fields gives their values in that order.
_VERDICTS = {Nontrivial: ("nontrivial", "mu", "nu", "t"), UnitPure: ("unit-pure", "mu"),
             ImaginaryUnit: ("imaginary-unit", "sign"), NotRoot: ("not-a-root",),
             TheoremViolationError: ("theorem-violation",)}
_DIRECTIONS = ("mu", "nu")   # the fields written as their three numbers
_PARSE_ERROR = "parse-error"   # the record of a malformed classify line


def _fields(result) -> tuple:
    """A verdict's field values in ``_VERDICTS`` order, a direction as its three numbers."""
    kind = type(result)
    if kind is Nontrivial:
        mu, nu = result.mu, result.nu
        return (mu.x, mu.y, mu.z, nu.x, nu.y, nu.z, result.t)
    if kind is UnitPure:
        mu = result.mu
        return (mu.x, mu.y, mu.z)
    if kind is ImaginaryUnit:
        return (result.sign,)
    return ()


def _classification_record(result, residual: float | None) -> dict:
    """The JSON record of a verdict: its name, its fields, the residual, and
    for a theorem violation its failures; a ParseError's is its message."""
    if type(result) is ParseError:
        return {"family": _PARSE_ERROR, "error": str(result)}
    name, *fields = _VERDICTS[type(result)]
    values = iter(_fields(result))
    record = {"family": name}
    for field in fields:
        record[field] = ([next(values), next(values), next(values)] if field in _DIRECTIONS
                         else next(values))
    record["residual"] = residual
    if type(result) is TheoremViolationError:
        record["failures"] = list(result.failures)
    return record


def _classification_templates(digits: int) -> dict:
    """One text template per verdict: its name, its fields, the residual, and
    for a theorem violation its failures."""
    g = f"%.{digits}g"
    forms = dict.fromkeys(_DIRECTIONS, f"({g} {g} {g})") | {"t": g, "sign": "%+d"}
    templates = {kind: " ".join([name, *(f"{f}={forms[f]}" for f in fields), f"residual={g}"])
                 for kind, (name, *fields) in _VERDICTS.items()}
    templates[TheoremViolationError] += " (%s)"
    return templates


def _classification_line(templates: dict, result, residual: float | None) -> str:
    kind = type(result)
    if kind is ParseError:
        return f"{_PARSE_ERROR} ({result})"
    if kind is TheoremViolationError:
        return templates[kind] % (residual, "; ".join(result.failures))
    return templates[kind] % (*_fields(result), residual)


def _classification_formatter(args):
    """The run's output line for a verdict and its residual: JSON or text."""
    if args.json:
        return lambda result, residual: json.dumps(_classification_record(result, residual))
    return functools.partial(_classification_line, _classification_templates(args.digits))


def _cmd_classify(args) -> int:
    check_tolerance("tol", args.tol)   # also when there are no input lines
    line = _classification_formatter(args)
    write = sys.stdout.write
    code = EXIT_OK
    for text in _inputs(args):
        try:
            result, residual = classify_coefficients(parse_coefficients(text), args.tol)
        except TheoremViolationError as exc:   # a verdict too, written like the others
            result, residual = exc, exc.residual
            code = EXIT_VIOLATION
        except ParseError as exc:   # a record in the line's place; the run goes on
            result, residual = exc, None
            code = max(code, EXIT_USAGE)
        write(line(result, residual) + "\n")
        if type(result) is NotRoot:
            code = max(code, EXIT_NEGATIVE)
    return code


def _cmd_make_root(args) -> int:
    check_tolerance("tol", args.tol, allow_zero=True)
    mu = parse_pure_unit(args.mu, "mu")
    nu = parse_pure_unit(args.nu, "nu")
    root = make_nontrivial_root(mu, nu, args.t, perp_tol=args.tol)
    print(_coefficients_formatter(args)(root.coefficients()))
    return EXIT_OK


def _cmd_sample(args) -> int:
    import numpy as np

    from .oracle import check_t_max, sample_root

    if args.count < 0:
        raise ParseError(f"--count must be nonnegative, got {args.count}")
    check_t_max(args.t_max)   # before any draw, whatever the seed and count
    line = _coefficients_formatter(args)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.count):
        print(line(sample_root(rng, args.t_max).coefficients()))
    return EXIT_OK


def _cmd_convert(args) -> int:
    g = f"%.{args.digits}g"
    template = " ".join(f"{name}={g}%s{g}I" for name in "wxyz")
    write = sys.stdout.write
    for text in _inputs(args):
        parts = parse_biquaternion(text).complex_components()
        if args.json:
            write(json.dumps({name: [z.real, z.imag]
                              for name, z in zip("wxyz", parts)}) + "\n")
        else:
            write(template % tuple(v for z in parts for v in (
                z.real, "-" if z.imag < 0 else "+", abs(z.imag))) + "\n")
    return EXIT_OK


def _cmd_table(args) -> int:
    parts = [parse_biquaternion(t) for t in _inputs(args)]
    if not parts:
        raise ParseError("table needs at least one summand")
    try:   # the summands are finite, so only an overflowing product or sum fails
        table = term_table(parts)
        total = table.total
    except ValueError:
        raise ValueError(
            "a product or the total of these summands overflows a double") from None
    if args.json:
        print(json.dumps({
            "parts": [list(p.coefficients()) for p in table.parts],
            "entries": [[list(e.coefficients()) for e in row] for row in table.entries],
            "total": list(total.coefficients()),
        }))
    else:
        print(table.render(args.digits))
        print(f"total: {format_terms(total, args.digits)}")
    return EXIT_OK


def _cmd_lattice(args) -> int:
    from .oracle import LatticeSpec, lattice_search

    spec = LatticeSpec(args.bound, args.step,
                       parse_pure_unit(args.mu, "mu"), parse_pure_unit(args.nu, "nu"))
    report = lattice_search(spec, args.tol)
    if args.json:
        print(json.dumps({
            "scanned": report.scanned,
            "tolerance": report.tolerance,
            "hits": [{"a": h.a, "b": h.b, "c": h.c, "d": h.d,
                      "residual": h.residual,
                      "family": _VERDICTS[type(h.classification)][0]}
                     for h in report.hits],
            "violations": list(report.violations),
        }))
    else:
        g = f"%.{args.digits}g"
        print(f"scanned {report.scanned} points at tolerance {g % report.tolerance}: "
              f"{len(report.hits)} hits, {len(report.violations)} violations")
        hit = f"hit a={g} b={g} c={g} d={g} residual={g} family=%s"
        for h in report.hits:
            family = _VERDICTS[type(h.classification)][0]
            print(hit % (h.a, h.b, h.c, h.d, h.residual, family))
        for message in report.violations:
            print(f"violation: {message}")
    if report.violations:
        return EXIT_VIOLATION
    return EXIT_OK if report.hits else EXIT_NEGATIVE


# Worked examples: sqrt(2)i + jI; (i+j+k) + (j-k)I as unit summands with their
# product table; 3 nu + 2 sqrt(2) mu I (nu = (j-k)/sqrt(2), mu = (i+j+k)/sqrt(3)).
EXAMPLE1_INPUT = "0 1.4142135623730951 0 0 0 0 1 0"
EXAMPLE2_SUMMANDS = ("i", "j", "k", "jI", "-kI")
EXAMPLE2_TABLE = (
    ("-1", "k", "-j", "kI", "jI"),
    ("-k", "-1", "i", "-I", "-iI"),
    ("j", "-i", "-1", "-iI", "I"),
    ("-kI", "-I", "iI", "1", "i"),
    ("-jI", "iI", "I", "-i", "1"),
)
EXAMPLE3_SUMMANDS = (
    "0 0 2.1213203435596424 -2.1213203435596424 0 0 0 0",
    "0 0 0 0 0 1.6329931618554523 1.6329931618554523 1.6329931618554523",
)
_EXAMPLE_TOL = 1e-12   # the largest coefficient error of a passing example


def _square_through_wire(parts: list[Biquaternion]) -> Biquaternion:
    # sum -> format -> parse -> square -> format -> re-parse; 17 digits are lossless
    q = parse_biquaternion(format_coefficients(sum(parts[1:], parts[0])))
    return parse_biquaternion(format_coefficients(biquat_mul(q, q), 17))


def run_examples() -> list[tuple[str, bool, float]]:
    """Run the three worked examples; returns (description, passed, max error).

    Each one's square through the wire format and its term table's total must
    be -1, and its named table entries (row, column) as given."""
    minus_one = Biquaternion.from_scalar(-1.0)
    examples = (
        ("square of sqrt(2)i + jI is -1", [parse_biquaternion(EXAMPLE1_INPUT)], {}),
        ("square of (i+j+k) + (j-k)I is -1 and its 5x5 term table matches entry for "
         "entry with total -1", [unit_biquaternion(s) for s in EXAMPLE2_SUMMANDS],
         {(r, c): unit_biquaternion(symbol) for r, row in enumerate(EXAMPLE2_TABLE)
          for c, symbol in enumerate(row)}),
        ("square of 3nu + 2sqrt(2)mu I is -1 with diagonal terms -9 and +8",
         [parse_biquaternion(t) for t in EXAMPLE3_SUMMANDS],
         {(0, 0): Biquaternion.from_scalar(-9.0), (1, 1): Biquaternion.from_scalar(8.0)}),
    )
    results = []
    for description, parts, entries in examples:
        table = term_table(parts)
        checks = [(_square_through_wire(parts), minus_one), (table.total, minus_one),
                  *((table.entries[r][c], want) for (r, c), want in entries.items())]
        err = max(abs(g - w) for got, want in checks
                  for g, w in zip(got.coefficients(), want.coefficients()))
        results.append((description, err <= _EXAMPLE_TOL, err))
    return results


def _cmd_verify_examples(args) -> int:
    results = run_examples()
    if args.json:
        print(json.dumps({"results": [
            {"example": n, "description": desc, "passed": ok, "max_error": err}
            for n, (desc, ok, err) in enumerate(results, start=1)]}))
    else:
        for n, (desc, ok, err) in enumerate(results, start=1):
            status = "PASS" if ok else "FAIL"
            print(f"{status} example {n}: {desc} (max error {err:.2e})")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_NEGATIVE


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    try:   # % takes a precision up to C's INT_MAX
        f"%.{value}g" % 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {value}") from None
    return value


def _add_common(sub, *, tol="", digits=True):
    if tol:   # what --tol bounds
        sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                         help=f"{tol} (default 1e-9)")
    if digits:
        sub.add_argument("--digits", type=_digits, default=17,
                         help="significant digits in output (default 17)")
    sub.add_argument("--json", action="store_true",
                     help="structured output mirroring the text output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquat",
        description="Biquaternion square roots of -1: construct, classify, verify.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("square", help="square a biquaternion")
    _add_common(sub)
    sub.set_defaults(func=_cmd_square)

    sub = subs.add_parser("classify", help="classify against the root families")
    _add_common(sub, tol="absolute tolerance")
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("make-root", help="construct cosh(t) mu + sinh(t) nu I")
    sub.add_argument("--mu", required=True, help="3 numbers, unit length")
    sub.add_argument("--nu", required=True,
                     help="3 numbers, unit length, perpendicular to mu")
    sub.add_argument("--t", type=float, required=True, help="hyperbolic parameter")
    _add_common(sub, tol="largest |dot(mu, nu)| accepted, 0 allowed")
    sub.set_defaults(func=_cmd_make_root)

    sub = subs.add_parser("sample", help="sample random nontrivial roots")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--count", type=int, default=1, help="number of roots")
    sub.add_argument("--t-max", type=float, default=5.0,
                     help="t drawn uniformly from (0, t-max] (default 5)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_sample)

    sub = subs.add_parser("convert",
                          help="re-print in the complex-components labeling")
    _add_common(sub)
    sub.set_defaults(func=_cmd_convert)

    sub = subs.add_parser("table", help="pairwise product table of summands")
    _add_common(sub)
    sub.set_defaults(func=_cmd_table)

    sub = subs.add_parser("lattice",
                          help="census of roots over an (a, b, c, d) grid")
    sub.add_argument("--mu", required=True, help="3 numbers, unit length")
    sub.add_argument("--nu", required=True, help="3 numbers, unit length")
    sub.add_argument("--bound", type=float, default=2.0,
                     help="coefficients range over [-bound, bound] (default 2)")
    sub.add_argument("--step", type=float, default=0.25,
                     help="grid spacing (default 0.25)")
    _add_common(sub, tol="absolute tolerance")
    sub.set_defaults(func=_cmd_lattice)

    sub = subs.add_parser("verify-examples",
                          help="run the three worked examples end to end")
    _add_common(sub, digits=False)
    sub.set_defaults(func=_cmd_verify_examples)

    # the commands that read biquaternions: as arguments or, without any, stdin lines
    inputs = (None, "8 numbers or JSON; omitted: read lines from stdin")
    summands = ("summand", "each summand as 8 numbers or JSON; omitted: stdin lines")
    for name, (metavar, help_text) in (("square", inputs), ("classify", inputs),
                                       ("convert", inputs), ("table", summands)):
        subs.choices[name].add_argument("biquaternion", nargs="*", metavar=metavar,
                                        help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Python writes a piped stdout 8 KiB at a time, which slowed `classify`
    # and `square` 10-15% end to end against 64 KiB (a pipe's capacity)
    if sys.stdout is sys.__stdout__ and not sys.stdout.isatty():
        sys.stdout = open(sys.stdout.fileno(), "w", 1 << 16, sys.stdout.encoding,
                          sys.stdout.errors, closefd=False)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout to devnull keeps the flush at exit quiet (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
