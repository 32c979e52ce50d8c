"""Repeat the benchmark over several seeds and write the medians to a file.

    python3 bench/baseline.py --seeds 1-10 --out bench/BASELINE.json

Every workload of BENCHMARK.json runs once per seed with tracing off, for
its ``run_seconds``, and once with tracing on for the first seed.  The file
records the environment and, per workload and end-to-end metric, every
value, the median, the quartiles (``statistics.quantiles`` with n=4) and the
interquartile range as a share of the median, plus the per-layer metrics of
the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV_PREFIX = "environment: "


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    out = {"run_seconds": seconds, "seeds": seeds, "environment": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, lines = _run(workload, seed, seconds, 0)
            if out["environment"] is None:
                env = next(line for line in lines if line.startswith(ENV_PREFIX))
                out["environment"] = json.loads(env[len(ENV_PREFIX):])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name], "values": vals}
            print(f"  {name:<12} median {statistics.median(vals):.6g}  spread {spread:.4f}"
                  f"  bound {bounds[name]}", flush=True)
        traced, _ = _run(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
