"""Spans around the library's public functions, recorded from outside.

A span name is wrapped where its caller looks it up: ``biquat_mul`` is
patched in the namespaces of ``algebra``, ``roots``, ``oracle`` and
``cli`` under the single span name ``algebra.biquat_mul``, so a call
nests under whichever traced caller made it. A span's self time is its
duration minus the time of the spans nested directly inside it.

Spans are aggregated in memory (calls, total and self seconds, counts per
enclosing span name, and durations of chosen names) and read out when
the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). A name a later library version no
# longer has is skipped and listed in ``Tracer.missing``.
LIBRARY_SPANS = (
    ("biquat.algebra", "quat_mul", "algebra.quat_mul"),
    ("biquat.algebra", "biquat_mul", "algebra.biquat_mul"),
    ("biquat.roots", "biquat_mul", "algebra.biquat_mul"),
    ("biquat.oracle", "biquat_mul", "algebra.biquat_mul"),
    ("biquat.cli", "biquat_mul", "algebra.biquat_mul"),
    ("biquat.roots", "decompose", "roots.decompose"),
    ("biquat.roots", "constraint_residuals", "roots.constraint_residuals"),
    ("biquat.oracle", "constraint_residuals", "roots.constraint_residuals"),
    ("biquat.roots", "classify_root", "roots.classify_root"),
    ("biquat.oracle", "classify_root", "roots.classify_root"),
    ("biquat.cli", "classify_root", "roots.classify_root"),
    ("biquat.oracle", "lattice_search", "oracle.lattice_search"),
    ("biquat.oracle", "refine_root", "oracle.refine_root"),
    ("numpy.linalg", "lstsq", "numpy.linalg.lstsq"),
    ("biquat.cli", "parse_biquaternion", "cli.parse_biquaternion"),
    # The command bodies: their self time is the CLI's own output work.
    ("biquat.cli", "_cmd_classify", "cli.output"),
    ("biquat.cli", "_cmd_square", "cli.output"),
)


class Tracer:
    def __init__(self, durations_of=()):
        self.durations_of = frozenset(durations_of)
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)   # only for names in durations_of
        self.nested = Counter()          # "outer>inner" -> calls of inner under outer
        self.missing = []
        self._stack = []                 # [name, seconds of direct children]

    def wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            for outer in {frame[0] for frame in stack}:
                self.nested[f"{outer}>{name}"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if name in self.durations_of:
                    self.durations[name].append(elapsed)

        return traced

    @contextlib.contextmanager
    def installed(self, spans=LIBRARY_SPANS):
        """Patch every span in ``spans`` for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name in spans:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, original))
                undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Aggregates in JSON form (without per-call durations)."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_s": dict(self.self_s), "nested": dict(self.nested),
                "missing": self.missing}

    def merge(self, summary: dict) -> None:
        """Add the aggregates another process reported with ``summary``."""
        self.calls.update(summary["calls"])
        self.nested.update(summary["nested"])
        for key in ("total", "self_s"):
            for name, seconds in summary[key].items():
                getattr(self, key)[name] += seconds
        self.missing.extend(m for m in summary["missing"] if m not in self.missing)
