"""Command-line surface.

Subcommands: square, classify, make-root, sample, convert, table,
lattice, verify-examples. Biquaternions travel as eight whitespace
separated numbers in canonical coefficient order, or as a JSON object
{"qr": [4 numbers], "qi": [4 numbers]}; numbers are printed with 17
significant digits by default so that output re-parses losslessly.

Exit codes: 0 success (or: is a root / hits found); 1 not-a-root or an
empty census; 2 usage error; 3 an internal theorem-violation finding.

numpy (through ``oracle``) is imported only by sample, table, lattice
and verify-examples.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .algebra import (
    COMPLEX_COMPONENTS,
    Biquaternion,
    PureUnit,
    biquat_mul,
    check_tolerance,
    convert_view,
    mul_coefficients,
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


class ParseError(ValueError):
    """Malformed wire-format input; the message locates the bad token."""


def _parse_number(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{where}: {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: {token!r} is not finite")
    return value


def parse_coefficients(text: str) -> list[float]:
    """Parse the 8-number text form or the {"qr": [...], "qi": [...]} form.

    Returns the 8 finite coefficients in canonical order.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or set(obj) != {"qr", "qi"}:
            raise ParseError('structured form requires exactly the keys "qr" and "qi"')
        coeffs = []
        for key in ("qr", "qi"):
            part = obj[key]
            if not isinstance(part, list) or len(part) != 4:
                raise ParseError(f'"{key}" must be a list of 4 numbers')
            for pos, entry in enumerate(part):
                if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                    raise ParseError(f'"{key}"[{pos}]: {entry!r} is not a number')
                if not math.isfinite(entry):
                    raise ParseError(f'"{key}"[{pos}]: {entry!r} is not finite')
                coeffs.append(float(entry))
        return coeffs

    tokens = stripped.split()
    if len(tokens) != 8:
        raise ParseError(f"expected 8 numbers, got {len(tokens)}")
    try:
        values = [float(tok) for tok in tokens]
        if math.isfinite(sum(values)):    # a non-finite entry makes the sum non-finite
            return values
    except ValueError:
        pass
    # locate the bad token (or accept finite values whose sum overflowed)
    return [_parse_number(tok, f"token {pos + 1}") for pos, tok in enumerate(tokens)]


def parse_biquaternion(text: str) -> Biquaternion:
    """Parse the 8-number text form or the {"qr": [...], "qi": [...]} form."""
    return Biquaternion.from_coefficients(*parse_coefficients(text))


def parse_pure_unit(text: str, name: str) -> PureUnit:
    tokens = text.strip().split()
    if len(tokens) != 3:
        raise ParseError(f"{name}: expected 3 numbers, got {len(tokens)}")
    values = [_parse_number(tok, f"{name} token {pos + 1}")
              for pos, tok in enumerate(tokens)]
    try:
        return PureUnit(*values)
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from None


def _fmt(value: float, digits: int) -> str:
    return format(value, f".{digits}g")


def _coefficients_template(digits: int) -> str:
    # "%.<digits>g" formats a float exactly as format(v, ".<digits>g") does
    return " ".join([f"%.{digits}g"] * 8)


def format_coefficients(q: Biquaternion, digits: int = 17) -> str:
    return _coefficients_template(digits) % q.coefficients()


def _coeff_lists(c) -> dict:
    return {"qr": list(c[:4]), "qi": list(c[4:])}


def _inputs(args) -> list[str]:
    if args.biquaternion:
        return list(args.biquaternion)
    return [line for line in (raw.strip() for raw in sys.stdin) if line]


class _ChunkedOutput:
    """Output lines written to stdout a chunk at a time.

    Leaving the ``with`` block writes the pending lines, also when it
    raises, so a bad input line still follows every line before it.
    """

    CHUNK_LINES = 1000

    def __init__(self):
        self._lines = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.flush()

    def add(self, line: str) -> None:
        self._lines.append(line)
        if len(self._lines) >= self.CHUNK_LINES:
            self.flush()

    def flush(self) -> None:
        if self._lines:
            self._lines.append("")
            sys.stdout.write("\n".join(self._lines))
            self._lines.clear()


def _cmd_square(args) -> int:
    template = _coefficients_template(args.digits)
    with _ChunkedOutput() as out:
        for text in _inputs(args):
            c = parse_coefficients(text)
            sq = mul_coefficients(c, c)
            if not math.isfinite(sum(sq)):
                Biquaternion.from_coefficients(*sq)   # raises if the square overflowed
            out.add(json.dumps(_coeff_lists(sq)) if args.json else template % sq)
    return EXIT_OK


def _classification_record(result) -> dict:
    """The JSON record of a classification, without its residual."""
    if isinstance(result, Nontrivial):
        return {"family": "nontrivial",
                "mu": [result.mu.x, result.mu.y, result.mu.z],
                "nu": [result.nu.x, result.nu.y, result.nu.z],
                "t": result.t}
    if isinstance(result, UnitPure):
        return {"family": "unit-pure", "mu": [result.mu.x, result.mu.y, result.mu.z]}
    if isinstance(result, ImaginaryUnit):
        return {"family": "imaginary-unit", "sign": result.sign}
    return {"family": "not-a-root"}


def _classification_templates(digits: int) -> dict:
    """One text template per family; each takes its fields, then the residual."""
    g = f"%.{digits}g"
    pure = f"({g} {g} {g})"
    return {Nontrivial: f"nontrivial mu={pure} nu={pure} t={g} residual={g}",
            UnitPure: f"unit-pure mu={pure} residual={g}",
            ImaginaryUnit: f"imaginary-unit sign=%+d residual={g}",
            NotRoot: f"not-a-root residual={g}"}


def _classification_line(templates: dict, result, residual: float) -> str:
    kind = type(result)
    if kind is Nontrivial:
        mu, nu = result.mu, result.nu
        values = (mu.x, mu.y, mu.z, nu.x, nu.y, nu.z, result.t, residual)
    elif kind is UnitPure:
        mu = result.mu
        values = (mu.x, mu.y, mu.z, residual)
    elif kind is ImaginaryUnit:
        values = (result.sign, residual)
    else:
        values = (residual,)
    return templates[kind] % values


def _cmd_classify(args) -> int:
    check_tolerance("tol", args.tol)   # also when there are no input lines
    templates = _classification_templates(args.digits)
    code = EXIT_OK
    with _ChunkedOutput() as out:
        for text in _inputs(args):
            try:
                result, residual = classify_coefficients(parse_coefficients(text), args.tol)
            except TheoremViolationError as exc:
                if args.json:
                    out.add(json.dumps({"family": "theorem-violation",
                                        "residual": exc.residual,
                                        "failures": list(exc.failures)}))
                else:
                    out.add(f"theorem-violation residual={_fmt(exc.residual, args.digits)} "
                            f"({'; '.join(exc.failures)})")
                code = max(code, EXIT_VIOLATION)
                continue
            if args.json:
                record = _classification_record(result)
                record["residual"] = residual
                out.add(json.dumps(record))
            else:
                out.add(_classification_line(templates, result, residual))
            if type(result) is NotRoot:
                code = max(code, EXIT_NEGATIVE)
    return code


def _cmd_make_root(args) -> int:
    check_tolerance("tol", args.tol, allow_zero=True)
    mu = parse_pure_unit(args.mu, "mu")
    nu = parse_pure_unit(args.nu, "nu")
    root = make_nontrivial_root(mu, nu, args.t, perp_tol=args.tol)
    if args.json:
        print(json.dumps(_coeff_lists(root.coefficients())))
    else:
        print(format_coefficients(root, args.digits))
    return EXIT_OK


def _cmd_sample(args) -> int:
    import numpy as np

    from .oracle import sample_root

    if args.count < 0:
        raise ParseError(f"--count must be nonnegative, got {args.count}")
    rng = np.random.default_rng(args.seed)
    for _ in range(args.count):
        root = sample_root(rng, args.t_max)
        if args.json:
            print(json.dumps(_coeff_lists(root.coefficients())))
        else:
            print(format_coefficients(root, args.digits))
    return EXIT_OK


def _cmd_convert(args) -> int:
    d = args.digits
    with _ChunkedOutput() as out:
        for text in _inputs(args):
            view = convert_view(parse_biquaternion(text), COMPLEX_COMPONENTS)
            parts = (("w", view.w), ("x", view.x), ("y", view.y), ("z", view.z))
            if args.json:
                out.add(json.dumps({name: [comp.re, comp.im] for name, comp in parts}))
            else:
                out.add(" ".join(
                    f"{name}={_fmt(comp.re, d)}{'-' if comp.im < 0 else '+'}"
                    f"{_fmt(abs(comp.im), d)}I" for name, comp in parts))
    return EXIT_OK


def _cmd_table(args) -> int:
    from .oracle import format_terms, term_table

    texts = _inputs(args)
    if not texts:
        raise ParseError("table needs at least one summand")
    parts = [parse_biquaternion(t) for t in texts]
    table = term_table(parts)
    if args.json:
        print(json.dumps({
            "parts": [list(p.coefficients()) for p in table.parts],
            "entries": [[list(e.coefficients()) for e in row] for row in table.entries],
            "total": list(table.total.coefficients()),
        }))
    else:
        print(table.render(args.digits))
        print(f"total: {format_terms(table.total, args.digits)}")
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
                      "family": _classification_record(h.classification)["family"]}
                     for h in report.hits],
            "violations": list(report.violations),
        }))
    else:
        print(f"scanned {report.scanned} points at tolerance "
              f"{_fmt(report.tolerance, args.digits)}: {len(report.hits)} hits, "
              f"{len(report.violations)} violations")
        for h in report.hits:
            family = _classification_record(h.classification)["family"]
            print(f"hit a={_fmt(h.a, args.digits)} b={_fmt(h.b, args.digits)} "
                  f"c={_fmt(h.c, args.digits)} d={_fmt(h.d, args.digits)} "
                  f"residual={_fmt(h.residual, args.digits)} family={family}")
        for message in report.violations:
            print(f"violation: {message}")
    if report.violations:
        return EXIT_VIOLATION
    return EXIT_OK if report.hits else EXIT_NEGATIVE


# The three worked examples, end to end through parse -> compute -> format.
# Coefficient strings are exact double literals of the constructions
# sqrt(2)i + jI, (i+j+k) + (j-k)I, and 3*(j-k)/sqrt(2) + 2*sqrt(2)*(i+j+k)/sqrt(3)*I.
_EXAMPLE1_INPUT = "0 1.4142135623730951 0 0 0 0 1 0"
_EXAMPLE2_INPUT = "0 1 1 1 0 0 1 -1"
_EXAMPLE2_PARTS = (
    "0 1 0 0 0 0 0 0",    # i
    "0 0 1 0 0 0 0 0",    # j
    "0 0 0 1 0 0 0 0",    # k
    "0 0 0 0 0 0 1 0",    # jI
    "0 0 0 0 0 0 0 -1",   # -kI
)
_EXAMPLE2_TABLE = (
    ("-1", "k", "-j", "kI", "jI"),
    ("-k", "-1", "i", "-I", "-iI"),
    ("j", "-i", "-1", "-iI", "I"),
    ("-kI", "-I", "iI", "1", "i"),
    ("-jI", "iI", "I", "-i", "1"),
)
_EXAMPLE3_PARTS = (
    "0 0 2.1213203435596424 -2.1213203435596424 0 0 0 0",
    "0 0 0 0 0 1.6329931618554523 1.6329931618554523 1.6329931618554523",
)
_EXAMPLE3_INPUT = ("0 0 2.1213203435596424 -2.1213203435596424 "
                   "0 1.6329931618554523 1.6329931618554523 1.6329931618554523")

_UNIT_INDEX = {"1": 0, "i": 1, "j": 2, "k": 3, "I": 4, "iI": 5, "jI": 6, "kI": 7}


def _unit_biquaternion(symbol: str) -> Biquaternion:
    sign = 1.0
    if symbol.startswith("-"):
        sign, symbol = -1.0, symbol[1:]
    coeffs = [0.0] * 8
    coeffs[_UNIT_INDEX[symbol]] = sign
    return Biquaternion.from_coefficients(*coeffs)


def _max_error(got: Biquaternion, expected: Biquaternion) -> float:
    return max(abs(g - e) for g, e in zip(got.coefficients(), expected.coefficients()))


def _square_through_wire(text: str) -> Biquaternion:
    # parse -> square -> format -> re-parse; 17 digits keeps the wire lossless
    q = parse_biquaternion(text)
    return parse_biquaternion(format_coefficients(biquat_mul(q, q), 17))


def run_examples(tol: float = 1e-12) -> list[tuple[str, bool, float]]:
    """Run the three worked examples; returns (description, passed, max error)."""
    from .oracle import term_table

    minus_one = Biquaternion.from_scalar(-1.0)
    results = []

    err = _max_error(_square_through_wire(_EXAMPLE1_INPUT), minus_one)
    results.append(("square of sqrt(2)i + jI is -1", err <= tol, err))

    err = _max_error(_square_through_wire(_EXAMPLE2_INPUT), minus_one)
    table = term_table([parse_biquaternion(t) for t in _EXAMPLE2_PARTS])
    for row, expected_row in zip(table.entries, _EXAMPLE2_TABLE):
        for entry, symbol in zip(row, expected_row):
            err = max(err, _max_error(entry, _unit_biquaternion(symbol)))
    err = max(err, _max_error(table.total, minus_one))
    results.append(("square of (i+j+k) + (j-k)I is -1 and its 5x5 term table "
                    "matches entry for entry with total -1", err <= tol, err))

    err = _max_error(_square_through_wire(_EXAMPLE3_INPUT), minus_one)
    table = term_table([parse_biquaternion(t) for t in _EXAMPLE3_PARTS])
    err = max(err, _max_error(table.entries[0][0], Biquaternion.from_scalar(-9.0)))
    err = max(err, _max_error(table.entries[1][1], Biquaternion.from_scalar(8.0)))
    err = max(err, _max_error(table.total, minus_one))
    results.append(("square of 3nu + 2sqrt(2)mu I is -1 with diagonal terms "
                    "-9 and +8", err <= tol, err))
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


def _add_common(sub, *, tol=False, digits=True):
    if tol:
        sub.add_argument("--tol", type=float, default=1e-9,
                         help="absolute tolerance (default 1e-9)")
    if digits:
        sub.add_argument("--digits", type=int, default=17,
                         help="significant digits in output (default 17)")
    sub.add_argument("--json", action="store_true",
                     help="structured output mirroring the text output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquat",
        description="Biquaternion square roots of -1: construct, classify, verify.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("square", help="square a biquaternion")
    sub.add_argument("biquaternion", nargs="*",
                     help="8 numbers or JSON; omitted: read lines from stdin")
    _add_common(sub)
    sub.set_defaults(func=_cmd_square)

    sub = subs.add_parser("classify", help="classify against the root families")
    sub.add_argument("biquaternion", nargs="*",
                     help="8 numbers or JSON; omitted: read lines from stdin")
    _add_common(sub, tol=True)
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("make-root", help="construct cosh(t) mu + sinh(t) nu I")
    sub.add_argument("--mu", required=True, help="3 numbers, unit length")
    sub.add_argument("--nu", required=True,
                     help="3 numbers, unit length, perpendicular to mu")
    sub.add_argument("--t", type=float, required=True, help="hyperbolic parameter")
    _add_common(sub, tol=True)
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
    sub.add_argument("biquaternion", nargs="*",
                     help="8 numbers or JSON; omitted: read lines from stdin")
    _add_common(sub)
    sub.set_defaults(func=_cmd_convert)

    sub = subs.add_parser("table", help="pairwise product table of summands")
    sub.add_argument("biquaternion", nargs="*", metavar="summand",
                     help="each summand as 8 numbers or JSON; omitted: stdin lines")
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
    _add_common(sub, tol=True)
    sub.set_defaults(func=_cmd_lattice)

    sub = subs.add_parser("verify-examples",
                          help="run the three worked examples end to end")
    _add_common(sub)
    sub.set_defaults(func=_cmd_verify_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
