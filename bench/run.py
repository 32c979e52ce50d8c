"""Benchmark of the dae2ode package: one workload, or all of them, for a seed.

    python3 bench/run.py --workload heat_demo --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 1

Run from the root of a checkout; the package is imported from its ``src``.
Each workload runs in fresh worker processes (worker.py), one caller at a
time, with OpenBLAS limited to one thread.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer table of a traced run and
its overhead against the same operations untraced.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the metrics are those BENCHMARK.json names.
The exit code is nonzero, and no JSON line is printed, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_TIMEOUT_S = 170.0

# Each run measures in this many fresh processes, one after the other, each
# for a share of the run.  Every process adds a set-up sample, and process
# effects such as memory layout are averaged over them.
PROCESSES = 3

# One BLAS thread (README.md, Steadiness) and a fixed string hash, so that
# dictionary layouts do not differ from one process to the next.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class WorkerFailed(RuntimeError):
    pass


def _spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker, killed after ``timeout`` seconds; return (seconds from
    launch to READY, its report)."""
    env = dict(os.environ, **WORKER_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = None
        results = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                results.append(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or len(results) != 1:
        raise WorkerFailed(f"worker {args} exited with code {code} and {len(results)} results")
    return ready, json.loads(results[0])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure in PROCESSES workers (one when tracing) and merge their reports."""
    parts = 1 if trace else PROCESSES
    merged: dict = {"processes": parts, "setup_samples_s": [], "latencies_s": [], "failures": [],
                    "peak_rss_mb": 0.0}
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    for part in range(parts):
        ready, report = _spawn(["--workload", name, "--seed", str(seed), "--part", str(part),
                                "--seconds", str(seconds / parts), "--trace", str(int(trace))],
                               max(deadline - time.perf_counter(), 1.0))
        offset = len(merged["latencies_s"])
        merged["setup_samples_s"].append(ready / report.pop("setup_slowdown"))
        merged["failures"] += [{**f, "op": f["op"] + offset} for f in report.pop("failures")]
        merged["latencies_s"] += report.pop("latencies_s")
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], report.pop("peak_rss_mb"))
        merged.update(report)
    merged["slowdown"] = statistics.median(slow for _, _, slow in merged["latencies_s"])
    return merged


def per_input(samples: list[list[float]]) -> list[float]:
    """Each input's median time over the passes, sorted.  A sample is
    ``[input, seconds, host slowdown]``; its time is seconds / slowdown."""
    times: dict[int, list[float]] = {}
    for key, seconds, slow in samples:
        times.setdefault(key, []).append(seconds / slow)
    return sorted(statistics.median(v) for v in times.values())


def percentile(sorted_values: list[float], p: float) -> float:
    """The ``p``-th percentile, interpolated linearly between samples."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def tail_percentile(min_samples: int) -> float:
    """The highest percentile with at least ten samples beyond it in every
    run, and at least the median.

    Each worker runs at least one whole pass, so a run has at least
    processes * inputs samples.  The percentile is fixed by that floor
    rather than by the run's own count: with the count, the tail would jump
    from one input to the next as the number of passes changes.
    """
    return max(50.0, 100.0 * (1.0 - 10.0 / min_samples))


def end_to_end(report: dict) -> dict:
    samples = report["latencies_s"]
    op_ms = sorted(1e3 * seconds / slow for _, seconds, slow in samples)
    by_input = per_input(samples)
    inputs = len(by_input)
    p = tail_percentile(report["processes"] * inputs)
    tail_ms = percentile(op_ms, p)
    beyond = sum(t > tail_ms for t in op_ms)
    ops = len(samples)
    setups = report["setup_samples_s"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "note": f"median of {len(setups)} processes, each over its set-up's"
                            " host slowdown"},
        "ops_per_s": {"value": inputs / sum(by_input), "unit": "1/s",
                      "note": f"one pass over {inputs} inputs at their median times"},
        "op_ms.p50": {"value": statistics.median(op_ms), "unit": "ms",
                      "note": f"{ops} operations"},
        "op_ms.tail": {"value": tail_ms, "unit": "ms",
                       "note": f"p{p:.1f} of {ops} operations, {beyond} beyond"},
        "fail_ratio": {"value": len(report["failures"]) / ops, "unit": "1",
                       "note": f"{len(report['failures'])} of {ops} operations"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB",
                        "note": "largest over the processes"},
    }


def per_layer(report: dict) -> dict:
    """Per-operation means of the traced run, plus the trace overhead: the
    traced time over the untraced time of the same inputs.  Self times are
    divided by the run's median host slowdown."""
    ops = len(report["traced_latencies_s"])
    slowdown = report["slowdown"]
    out = {k: v / ops / (slowdown if k.endswith("_s") else 1.0)
           for k, v in report["layers"].items()}
    traced = per_input(report["traced_latencies_s"])
    plain = per_input(report["latencies_s"])
    out["trace.overhead_ratio"] = sum(traced) / sum(plain)
    out["trace.untraced_op_s"] = sum(plain) / len(plain)
    out["bench.ops"] = ops
    return out


def _print_metrics(name: str, metrics: dict) -> None:
    print(f"== {name}: end-to-end (tracing off)")
    for key, m in metrics.items():
        print(f"  {key:<12} {m['value']:>14.6g} {m['unit']:<4} ({m['note']})")


def _print_layers(name: str, layers: dict) -> None:
    ops = layers["bench.ops"]
    traced = layers["bench.op.wall_s"]
    ratio = layers["trace.overhead_ratio"]
    print(f"== {name}: per layer, traced run, means per operation over {ops:.0f} operations")
    print(f"  traced op {1e3 * traced:.3f} ms on average; traced / untraced time {ratio:.4f}")
    rows = sorted((k for k in layers if k.endswith(".self_s")), key=lambda k: -layers[k])
    for key in rows:
        base = key[: -len(".self_s")]
        calls = layers.get(f"{base}.calls")
        share = 100.0 * layers[key] / traced if traced else 0.0
        extra = f"  calls {calls:.6g}" if calls is not None else ""
        print(f"  {key:<48} {1e3 * layers[key]:11.4f} ms {share:6.2f}%{extra}")
    for key in sorted(k for k in layers if not k.endswith((".self_s", ".calls", "wall_s"))):
        print(f"  {key:<48} {layers[key]:14.6g}")


def _print_failures(name: str, report: dict) -> None:
    for f in report["failures"]:
        print(f"  FAILED {name} op {f['op']} (input {f['input']}): {'; '.join(f['gates'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    selected = names if args.workload == "all" else [args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    attempted = failed = 0
    metrics = {}
    env_printed = False
    for name in selected:
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"dae2ode benchmark: {exc}", file=sys.stderr)
            return 1
        if not env_printed:
            print("environment: " + json.dumps(report["env"]))
            env_printed = True
        e2e = end_to_end(report)
        _print_metrics(name, e2e)
        print(f"  host slowdown {report['slowdown']:.3f} (median over operations);"
              " each operation's time is divided by its own")
        values = {k: m["value"] for k, m in e2e.items()}
        if args.trace:
            layers = per_layer(report)
            _print_layers(name, layers)
            print(f"  spans written to {report['span_file']}")
            values = layers
        _print_failures(name, report)
        attempted += len(report["latencies_s"])
        failed += len(report["failures"])
        prefix = "" if len(selected) == 1 else f"{name}."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
