"""The operations one benchmark cycle runs, each with its correctness check.

``run(before_sample)`` calls ``before_sample()`` ahead of each timed
sample and returns the samples of one pass, as (work items, seconds)
pairs, and the number of failed operations. ``unit`` names the
host-speed unit that scales the operation's rate (see hostspeed.py). Every operation
runs the same inputs on each pass, so a pass whose output equals an
output already checked is known correct without checking it again.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference
from inputs import CENSUS_PAIRS, StreamInput

from biquat import oracle, roots
from biquat.algebra import Biquaternion, PureUnit

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


def family_of(classification) -> str:
    """The family label of a classification, as the stream labels spell it."""
    if isinstance(classification, roots.Nontrivial):
        return "nontrivial"
    if isinstance(classification, roots.UnitPure):
        return "unit-pure"
    if isinstance(classification, roots.ImaginaryUnit):
        return f"imaginary-unit sign={classification.sign:+d}"
    return "not-a-root"


class CliOp:
    """`biquat <command>` in a fresh interpreter, fed the stream on stdin.

    ``classify`` must print each line's constructed family and exit 1
    (the stream holds non-roots); ``square`` must print q*q matching the
    complex-components reference and exit 0.
    """

    unit = "python"

    def __init__(self, command: str, stream: StreamInput, env: dict, root: Path,
                 repeat: int = 1):
        self.command = command
        self.repeat = repeat        # processes (timed samples) per pass
        self.metric = f"{command}_lines_per_s"
        self.stream = stream
        self.items = len(stream.labels)
        self.attempted = self.items * repeat
        self.env = env
        self.root = root
        self._verified = None

    def _spawn(self, argv):
        return subprocess.run(argv, input=self.stream.text, capture_output=True,
                              text=True, env=self.env, cwd=self.root,
                              timeout=CHILD_TIMEOUT_S)

    def run(self, before_sample=lambda: None) -> tuple[list, int]:
        samples, failures = [], 0
        for _ in range(self.repeat):
            before_sample()
            start = perf_counter()
            proc = self._spawn([sys.executable, "-m", "biquat", self.command])
            samples.append((self.items, perf_counter() - start))
            failures += self.check(proc.returncode, proc.stdout)
        return samples, failures

    def run_traced(self, tracer) -> int:
        failures = 0
        for _ in range(self.repeat):
            proc = self._spawn([sys.executable, str(HERE / "traced_cli.py"), self.command])
            try:
                tracer.merge(json.loads(proc.stderr.splitlines()[-1]))
            except (IndexError, ValueError):
                pass                # a crashed command fails its check below
            failures += self.check(proc.returncode, proc.stdout)
        return failures

    def check(self, code: int, stdout: str) -> int:
        """Number of failed lines; a wrong exit code fails at least one."""
        if stdout == self._verified and code == self._expected_code():
            return 0
        lines = stdout.splitlines()
        failures = abs(len(lines) - self.items)
        for k, line in enumerate(lines[:self.items]):
            if not self._line_ok(k, line):
                failures += 1
        if code != self._expected_code():
            failures = max(failures, 1)
        if failures == 0:
            self._verified = stdout
        return min(failures, self.items)

    def _expected_code(self) -> int:
        if self.command == "square":
            return 0
        return 1 if "not-a-root" in self.stream.labels else 0

    def _line_ok(self, k: int, line: str) -> bool:
        if self.command == "classify":
            return line.startswith(self.stream.labels[k] + " ")
        coeffs = self.stream.coefficients[k]
        try:
            got = [float(tok) for tok in line.split()]
        except ValueError:
            return False
        tol = reference.square_tolerance(coeffs)
        return len(got) == 8 and all(
            abs(g - e) <= tol for g, e in zip(got, reference.square(coeffs)))


class _InProcessOp:
    def run_traced(self, tracer) -> int:
        # The caller installs the tracer's spans around in-process calls.
        return self.run()[1]


class CensusOp(_InProcessOp):
    """`lattice_search` over the perpendicular and the skew direction pair.

    Each scan must report no violations, scan every grid point, and hit
    exactly the points of the exact census with the expected families.
    """

    metric = "census_points_per_s"
    unit = "numpy"

    def __init__(self, bound: float, step: float, repeat: int = 1):
        self.specs = [oracle.LatticeSpec(bound, step, PureUnit(*p.mu), PureUnit(*p.nu))
                      for p in CENSUS_PAIRS] * repeat
        self.expected = [reference.census_hits(bound, step, p) for p in CENSUS_PAIRS] * repeat
        self.points = (2 * round(bound / step) + 1) ** 4
        self.attempted = len(self.specs)
        self.hits = 0

    def run(self, before_sample=lambda: None) -> tuple[list, int]:
        samples, reports = [], []
        for spec in self.specs:
            before_sample()
            start = perf_counter()
            reports.append(oracle.lattice_search(spec))
            samples.append((self.points, perf_counter() - start))
        return samples, self.check(reports)

    def check(self, reports) -> int:
        self.hits = sum(len(r.hits) for r in reports[:len(CENSUS_PAIRS)])
        failures = 0
        for report, expected in zip(reports, self.expected):
            found = {(Fraction(h.a), Fraction(h.b), Fraction(h.c), Fraction(h.d)):
                     family_of(h.classification) for h in report.hits}
            if (report.violations or report.scanned != self.points
                    or len(found) != len(report.hits) or found != expected):
                failures += 1
        return failures


class ProbeOp(_InProcessOp):
    """Newton completeness probe: `refine_root`, then `classify_root`.

    Each perturbed root must refine to residual <= 1e-12 (measured by the
    complex-components reference, with its roundoff slack) and classify
    into a family.
    """

    metric = "probe_roots_per_s"
    unit = "python"
    TARGET = 1e-12
    CHUNK = 50          # roots per timed sample

    def __init__(self, rows):
        self.inputs = [Biquaternion.from_coefficients(*row) for row in rows]
        self.items = self.attempted = len(self.inputs)
        self._verified = None

    def run(self, before_sample=lambda: None) -> tuple[list, int]:
        samples, results = [], []
        for first in range(0, self.items, self.CHUNK):
            chunk = self.inputs[first:first + self.CHUNK]
            before_sample()
            start = perf_counter()
            for q in chunk:
                try:
                    refined = oracle.refine_root(q)
                    results.append((refined, roots.classify_root(refined)))
                except (oracle.NonConvergenceError, roots.TheoremViolationError,
                        ValueError):
                    results.append(None)
            samples.append((len(chunk), perf_counter() - start))
        return samples, self.check(results)

    def check(self, results) -> int:
        key = [None if r is None else (r[0].coefficients(), family_of(r[1]))
               for r in results]
        if key == self._verified:
            return 0
        failures = 0
        for item in key:
            if (item is None or item[1] == "not-a-root"
                    or reference.residual(item[0])
                    > self.TARGET + reference.residual_slack(item[0])):
                failures += 1
        if failures == 0:
            self._verified = key
        return failures
