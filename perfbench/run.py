"""biquat benchmark: one closed-loop client, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream|census|probe --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

A cycle runs four operations back to back, each waiting for the one
before it: `biquat classify` and `biquat square` on a seeded stdin
stream, `lattice_search` over two direction pairs, and Newton refinement
of perturbed roots. The workload decides which operations run at full
size; the others run at a small companion size, so that every run
reports every metric. Cycles repeat until ``--seconds`` is spent; each
rate is the run's throughput (work items over the summed time of the
timed samples: one per CLI process, lattice scan or 50-root probe chunk),
and set-up time the mean of one fresh start before each operation. Every
result is scaled to a reference host speed measured through the run
(hostspeed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run. The last stdout line is the
result object; the two lines before it record the environment and the
raw figures behind the metrics. See
perfbench/README.md for the metric -> layer -> workload map.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse                                          # noqa: E402
import json                                              # noqa: E402
import platform                                          # noqa: E402
import resource                                          # noqa: E402
import subprocess                                        # noqa: E402
import sys                                               # noqa: E402
from pathlib import Path                                 # noqa: E402
from time import perf_counter                            # noqa: E402

import hostspeed                                         # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919        # not used while tuning; reserved for gain claims

# Per-operation input sizes: lines of the stdin stream and CLI processes
# per command and pass, lattice grid (bound, step) per direction pair and
# scans of each pair per pass, perturbed roots per probe pass. Companion
# streams and grids are small, so a pass repeats them for more samples.
FULL = {"lines": 20_000, "cli_repeat": 1, "grid": (3.5, 0.125), "grid_repeat": 1,
        "roots": 2_000}
COMPANION = {"lines": 2_000, "cli_repeat": 3, "grid": (2.0, 0.125), "grid_repeat": 2,
             "roots": 400}
SMOKE = {"lines": 200, "cli_repeat": 1, "grid": (1.0, 0.25), "grid_repeat": 1, "roots": 20}
OWN_SIZES = {"stream": ("lines", "cli_repeat"), "census": ("grid", "grid_repeat"),
             "probe": ("roots",)}

PER_LAYER_UNITS = {
    "failed_ratio": "ratio",
    "import.biquat_s": "s",
    "import.numpy_s": "s",
    "import.numpy_loaded_by_cli": "flag",
    "algebra.biquat_mul.calls": "count",
    "algebra.biquat_mul.self_s": "s",
    "algebra.quat_mul.calls": "count",
    "roots.classify_root.calls": "count",
    "roots.classify_root.self_s": "s",
    "roots.constraint_residuals.self_s": "s",
    "roots.decompose.calls": "count",
    "cli.parse_biquaternion.self_s": "s",
    "cli.output.self_s": "s",
    "oracle.lattice_search.self_s": "s",
    "oracle.lattice_search.hits": "count",
    "oracle.refine_root.samples": "count",
    "oracle.refine_root.p50_ms": "ms",
    "oracle.refine_root.p99_ms": "ms",
    "oracle.refine_root.products_per_call": "count",
    "oracle.refine_root.lstsq_per_call": "count",
    **{f"micro.{name}_us": "us" for name in (
        "algebra.Quaternion", "algebra.quat_mul", "algebra.biquat_mul", "roots.decompose",
        "roots.constraint_residuals", "roots.classify_root", "roots.make_nontrivial_root",
        "oracle.sample_root", "oracle.refine_root", "oracle.lattice_search", "cli.classify")},
    **{f"acceptance.c{c}_s": "s" for c in (4, 5, 6, 7, 8, 9)},
    "trace.overhead_s": "s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "classify_lines_per_s": "1/s",
    "square_lines_per_s": "1/s",
    "census_points_per_s": "1/s",
    "probe_roots_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OWN_SIZES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _sizes(workload: str, size: str) -> dict:
    if size == "smoke":
        return dict(SMOKE)
    sizes = dict(COMPANION)
    sizes.update((key, FULL[key]) for key in OWN_SIZES[workload])
    return sizes


def _environment(args, sizes) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"                          # a checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "sizes": sizes,
    }


def _setup_start(workload: str, env: dict) -> tuple[float, bool]:
    """One fresh-interpreter start-up: its wall time, and whether it went wrong."""
    if workload == "stream":
        argv = [sys.executable, "-m", "biquat", "classify"]     # on empty stdin
    else:
        argv = [sys.executable, "-c", "import biquat"]
    start = perf_counter()
    proc = subprocess.run(argv, input="", capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    return perf_counter() - start, proc.returncode != 0 or proc.stdout != ""


def _cycles(ops, seconds: float, run) -> list[float]:
    """Run cycles of ``ops`` until the next one would overrun ``seconds``.

    Returns the wall time of each cycle; at least one cycle runs.
    """
    deadline = perf_counter() + seconds
    walls = []
    while True:
        start = perf_counter()
        for op in ops:
            run(op)
        now = perf_counter()
        walls.append(now - start)
        if now + walls[-1] > deadline:
            return walls


def _timed_run(args, ops, env):
    # Set-up starts are spread through the run, one before each operation,
    # so that they see the same host phases as the operations.
    _, failed = _setup_start(args.workload, env)               # warms caches
    attempted = 1
    setup_times = []
    work = {op.metric: [0, 0.0] for op in ops}                 # items, seconds
    host = hostspeed.HostSpeed()

    def run(op):
        nonlocal attempted, failed
        host.sample()
        seconds, bad = _setup_start(args.workload, env)
        setup_times.append(seconds)
        op_samples, failures = op.run(host.sample)
        for items, seconds in op_samples:
            work[op.metric][0] += items
            work[op.metric][1] += seconds
        attempted += 1 + op.attempted
        failed += bad + failures

    cycles = len(_cycles(ops, args.seconds, run))
    raw = {"setup_s": sum(setup_times) / len(setup_times),
           **{metric: items / seconds for metric, (items, seconds) in work.items()}}
    slowdown = {kind: host.slowdown(kind) for kind in host.unit_times}
    values = {"setup_s": raw["setup_s"] / slowdown["python"]}
    values.update((op.metric, raw[op.metric] * slowdown[op.unit]) for op in ops)
    usage = resource.RUSAGE_CHILDREN if args.workload == "stream" else resource.RUSAGE_SELF
    values["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    detail = {"cycles": cycles, "setup_starts": len(setup_times),
              "host_slowdown": slowdown, "host_units": len(host.unit_times["python"]),
              "raw": raw, "work": work}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, attempted, failed, detail


def _traced_run(args, ops, env):
    import layers
    from tracing import Tracer

    metrics = {**layers.import_metrics(env, ROOT), **layers.micro_metrics(env, ROOT),
               **layers.acceptance_metrics(env, ROOT)}
    attempted = failed = 0

    def run_untraced(op):
        nonlocal attempted, failed
        failed += op.run()[1]
        attempted += op.attempted

    def run_traced(op):
        nonlocal attempted, failed
        failed += op.run_traced(tracer)
        attempted += op.attempted

    # One untraced cycle first: its wall time is the base of the overhead.
    untraced_s = _cycles(ops, 0.0, run_untraced)[0]
    tracer = Tracer(durations_of=("oracle.refine_root",))
    with tracer.installed():
        walls = _cycles(ops, max(args.seconds - untraced_s, 0.0), run_traced)
    cycles = len(walls)
    metrics.update(per_layer_metrics(tracer, cycles, ops))
    metrics["trace.overhead_s"] = walls[0] - untraced_s
    metrics["failed_ratio"] = failed / attempted
    detail = {"traced_cycles": cycles, "untraced_cycle_s": untraced_s,
              "untraced_names": tracer.missing}
    return ({name: {"value": metrics[name], "unit": unit}
             for name, unit in PER_LAYER_UNITS.items()}, attempted, failed, detail)


def per_layer_metrics(tracer, cycles: int, ops) -> dict:
    """Per-cycle span totals, counts and Newton statistics from ``tracer``."""
    calls, self_s, nested = tracer.calls, tracer.self_s, tracer.nested
    refine = sorted(tracer.durations["oracle.refine_root"])
    refine_calls = max(calls["oracle.refine_root"], 1)
    census = next(op for op in ops if op.metric == "census_points_per_s")
    return {
        "algebra.biquat_mul.calls": calls["algebra.biquat_mul"] / cycles,
        "algebra.biquat_mul.self_s": self_s["algebra.biquat_mul"] / cycles,
        "algebra.quat_mul.calls": calls["algebra.quat_mul"] / cycles,
        "roots.classify_root.calls": calls["roots.classify_root"] / cycles,
        "roots.classify_root.self_s": self_s["roots.classify_root"] / cycles,
        "roots.constraint_residuals.self_s": self_s["roots.constraint_residuals"] / cycles,
        "roots.decompose.calls": calls["roots.decompose"] / cycles,
        "cli.parse_biquaternion.self_s": self_s["cli.parse_biquaternion"] / cycles,
        "cli.output.self_s": self_s["cli.output"] / cycles,
        "oracle.lattice_search.self_s": self_s["oracle.lattice_search"] / cycles,
        "oracle.lattice_search.hits": census.hits,
        "oracle.refine_root.samples": len(refine),
        "oracle.refine_root.p50_ms": _percentile(refine, 0.50) * 1e3,
        "oracle.refine_root.p99_ms": _percentile(refine, 0.99) * 1e3,
        "oracle.refine_root.products_per_call":
            nested["oracle.refine_root>algebra.biquat_mul"] / refine_calls,
        "oracle.refine_root.lstsq_per_call":
            nested["oracle.refine_root>numpy.linalg.lstsq"] / refine_calls,
    }


def _percentile(ordered, share: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(int(share * len(ordered)), len(ordered) - 1)]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "biquat" / "__init__.py").is_file():
        print(f"error: no biquat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import numpy as np

    import biquat
    import inputs
    import ops as op_types

    if not Path(biquat.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported biquat from {biquat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    sizes = _sizes(args.workload, args.size)
    stream_rng, probe_rng = (np.random.default_rng(s)
                             for s in np.random.SeedSequence(args.seed).spawn(2))
    stream = inputs.stream_input(stream_rng, sizes["lines"])
    ops = [op_types.CliOp("classify", stream, env, ROOT, sizes["cli_repeat"]),
           op_types.CliOp("square", stream, env, ROOT, sizes["cli_repeat"]),
           op_types.CensusOp(*sizes["grid"], sizes["grid_repeat"]),
           op_types.ProbeOp(inputs.probe_input(probe_rng, sizes["roots"]))]

    measure = _traced_run if args.trace else _timed_run
    metrics, attempted, failed, detail = measure(args, ops, env)
    print(json.dumps({"env": _environment(args, sizes)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
