"""One benchmark process, started by run.py.

The process imports dae2ode from the checkout's ``src``, builds the
workload's population, runs one untimed warm-up operation and prints
``READY``; run.py takes the time from its launch to that line as the set-up
time.  The host slowdown is measured at the start and at the end of the
set-up, and reported with the result, so that run.py can correct the set-up
time with it.  It then runs the closed loop in whole passes over the population,
each pass in an order drawn from ``--seed`` and ``--part``, stopping at the
end of the pass nearest to ``--seconds``, and prints one ``RESULT <json>``
line.

With ``--trace 1`` every operation runs twice, untraced and traced, in
alternating order, so that the trace overhead is measured on the same inputs;
the gates check the untraced result.  Spans are written to ``out/`` beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_package():
    """Import dae2ode from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dae2ode

    if not Path(dae2ode.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dae2ode imported from {dae2ode.__file__}, not from {src}")
    return dae2ode


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy and scipy ship, where found."""
    import scipy

    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[Path(path).name] = int(getattr(lib, symbol)())
                    break
    return found


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# The host's CPU speed alternates between two levels, for seconds to minutes
# at a time, and the slow level hurts interpreter-bound code more than BLAS
# (README.md).  A fixed kernel timed right before and after each operation
# measures the host's slowdown, and run.py divides the operation's time by
# it.  The kernel's matrix size is the workload's (`Workload.reference_dim`),
# so that it mixes interpreter and BLAS work alike.  FULL_SPEED_S holds the
# kernel's time at full speed on the 2-core machine of BASELINE.json.
FULL_SPEED_S = {6: 0.0033, 80: 0.0045}

# Set-up (interpreter start, imports, small inputs) is interpreter-bound, so
# its slowdown is measured with the small kernel, whatever the workload.
SETUP_DIM = 6


def _kernel_seconds(x, v) -> float:
    t0 = time.perf_counter()
    for _ in range(1000):
        v = x @ v
        v /= np.linalg.norm(v)
    return time.perf_counter() - t0


def host_slowdown(dim: int) -> float:
    """Median time of three runs of 1000 matrix-vector products and norms
    of size ``dim``, over its full-speed time."""
    x = np.linspace(-1.0, 1.0, dim * dim).reshape(dim, dim) / dim
    runs = sorted(_kernel_seconds(x, np.ones(dim)) for _ in range(3))
    return runs[1] / FULL_SPEED_S[dim]


def _done(index: int, cycle: int, elapsed: float, seconds: float) -> bool:
    """Stop at the end of the pass that ends nearest to ``seconds``."""
    if index % cycle:
        return False
    per_pass = elapsed / (index // cycle)
    return elapsed + 0.5 * per_pass >= seconds


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run whole passes; return ``[input, seconds, host slowdown around it]``
    per operation and the failed gates.  With a tracer, each operation also
    runs traced, under a ``bench.op`` span, before or after the untraced run
    in turn, and its time goes to ``traced_latencies_s``."""
    latencies, traced, failures = [], [], []

    def timed(inp, span):
        slow = host_slowdown(wl.reference_dim)
        with span:
            t0 = time.perf_counter()
            try:
                result, raised = wl.run(inp), None
            except Exception as exc:  # an unexpected exception is a failed operation
                result, raised = None, [f"raised {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
        return result, raised, dt, 0.5 * (slow + host_slowdown(wl.reference_dim))

    def plain(index, key, inp):
        result, raised, dt, slow = timed(inp, contextlib.nullcontext())
        latencies.append([key, dt, slow])
        failed = raised or _gates(wl, inp, result)
        if failed:
            failures.append({"op": index, "input": key, "gates": failed})

    def with_spans(index, key, inp):
        _, _, dt, slow = timed(inp, tracer.span("bench.op"))
        traced.append([key, dt, slow])

    start = time.perf_counter()
    index = 0
    while True:
        key, inp = wl.next_input(index)
        runs = (plain,) if tracer is None else (plain, with_spans)[:: 1 if index % 2 else -1]
        for run in runs:
            run(index, key, inp)
        index += 1
        if _done(index, wl.cycle, time.perf_counter() - start, seconds):
            break
    report = {"latencies_s": latencies, "failures": failures}
    if tracer is not None:
        report["traced_latencies_s"] = traced
        report["layers"] = {**summarize(tracer.spans, "bench.op"), **tracer.counts}
        report["spans"] = len(tracer.spans)
    return report


def _gates(wl, inp, result) -> list[str]:
    try:
        return wl.check(inp, result)
    except Exception as exc:  # a gate that cannot be evaluated has failed
        return [f"gate raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0, help="process number within the run")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_slowdown = host_slowdown(SETUP_DIM)
    _import_package()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload]((args.seed, args.part), work_dir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        wl.run(wl.warmup_input())
        setup_slowdown = 0.5 * (setup_slowdown + host_slowdown(SETUP_DIM))
        print("READY", flush=True)

        report = measure(wl, args.seconds, tracer)
        if tracer is not None:
            span_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.dump(span_file)
            report["span_file"] = str(span_file.relative_to(ROOT))
        report["setup_slowdown"] = setup_slowdown
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["env"] = environment()
        print("RESULT " + json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
