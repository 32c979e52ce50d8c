"""Tests of the benchmark itself: gates, span arithmetic, rebinding.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dae2ode  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from workloads import HEAT_TABLE_N40, WORKLOADS, HeatDemo, LqFinite, Structure  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _first_op(cls, seed=3, tmp_path="."):
    wl = cls(seed, str(tmp_path))
    inp = wl.population[0]
    return wl, inp, wl.run(inp)


class TestGates:
    def test_lq_finite_perturbed_cost_fails(self, tmp_path):
        wl, inp, sol = _first_op(LqFinite, tmp_path=tmp_path)
        assert wl.check(inp, sol) == []
        bad = dataclasses.replace(sol, cost=sol.cost * (1.0 + 1e-3) + 1e-3)
        assert wl.check(inp, bad) == ["cost = trajectory_cost(terminal=True)"]

    def test_lq_finite_gates_scale_with_the_trajectory(self, tmp_path):
        class Seed99(LqFinite):
            POPULATION_SEED = 99
            POPULATION = 14

        wl = Seed99(0, str(tmp_path))
        inp = wl.population[13]
        sol = wl.run(inp)
        defect = max(np.max(np.abs(sol.traj.u[i] - sol.K_f_samples[i] @ sol.traj.x[i]))
                     for i in range(sol.grid.shape[0]))
        assert defect > 1e-8 and np.max(np.abs(sol.traj.u)) > 1e11
        assert wl.check(inp, sol) == []

    def test_structure_perturbed_realization_fails(self, tmp_path):
        wl, inp, result = _first_op(Structure, tmp_path=tmp_path)
        assert wl.check(inp, result) == []
        assoc, report, wong, other, TKU, imp, stab = result
        other = dataclasses.replace(other, D_l=other.D_l + 1e-3)
        failed = wl.check(inp, (assoc, report, wong, other, TKU, imp, stab))
        assert failed == ["feedback equivalence residual"]

    def test_heat_table_digit_change_fails(self, tmp_path):
        wl = HeatDemo(1, str(tmp_path))
        text = "\n".join(HEAT_TABLE_N40) + "\nwrote out\n"
        assert wl.check(40, (0, text)) == []
        assert wl.check(40, (0, text.replace("J_g = 9.5813", "J_g = 9.5812"))) == [
            "N=40 table digits"
        ]
        assert wl.check(60, (0, text.replace("J_T = 3.9601", "J_T = 3.9900"))) == [
            "J_T within 1% of J_e"
        ]
        assert wl.check(80, (2, "")) == ["exit code 2"]

    def test_corrupted_result_raises_fail_ratio(self, tmp_path):
        class Corrupted(LqFinite):
            POPULATION = 2

            def run(self, inp):
                sol = super().run(inp)
                return dataclasses.replace(sol, cost=2.0 * sol.cost + 1.0)

        report = worker.measure(Corrupted(3, str(tmp_path)), seconds=0.0)
        report.update(processes=1, setup_samples_s=[1.0], peak_rss_mb=1.0, slowdown=1.0)
        metrics = run.end_to_end(report)
        assert metrics["fail_ratio"]["value"] == 1.0
        assert report["failures"][0]["gates"] == ["cost = trajectory_cost(terminal=True)"]

    def test_exception_counts_as_failure(self, tmp_path):
        class Raising(LqFinite):
            POPULATION = 2

            def run(self, inp):
                raise dae2ode.NonFiniteP("injected")

        report = worker.measure(Raising(3, str(tmp_path)), seconds=0.0)
        assert [(f["op"], f["gates"]) for f in report["failures"]] == [
            (op, ["raised NonFiniteP: injected"]) for op in (0, 1)
        ]
        assert sorted(f["input"] for f in report["failures"]) == [0, 1]


class TestTail:
    def test_ten_samples_beyond_the_tail_in_the_smallest_run(self):
        ops = [float(k) for k in range(3 * 45)]
        p = run.tail_percentile(len(ops))
        assert sum(t > run.percentile(ops, p) for t in ops) >= 10
        assert p > 90.0

    def test_tail_is_never_below_the_median(self):
        assert run.tail_percentile(3 * 3) == 50.0
        assert run.percentile([1.0, 2.0, 4.0], 50.0) == 2.0


class TestSpans:
    def test_self_times_of_synthetic_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 1.5, 2.0, 1],
            ["c", 5.0, 9.0, 0],
        ]
        assert self_times(spans) == [3.0, 2.5, 0.5, 4.0]

    def test_self_times_sum_to_root_duration(self, tracer, tmp_path):
        wl = Structure(5, str(tmp_path))
        with tracer.span("bench.op"):
            wl.run(wl.population[0])
        root = tracer.spans[0]
        assert root[0] == "bench.op" and root[3] == -1
        assert len(tracer.spans) > 100
        total = sum(self_times(tracer.spans))
        assert total == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-12)
        layers = summarize(tracer.spans, "bench.op")
        by_layer = sum(v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
        assert by_layer + layers["bench.op.self_s"] == pytest.approx(layers["bench.op.wall_s"])


class TestRebinding:
    def test_simulate_reached_through_verify_associated(self, tracer, tmp_path):
        wl = Structure(5, str(tmp_path))
        with tracer.span("bench.op"):
            wl.run(wl.population[0])
        layers = summarize(tracer.spans, "bench.op")
        assert layers["odesys.simulate.calls"] > 0
        assert layers["associate.lift_solution.calls"] > 0
        assert tracer.counts["odesys.simulate.samples"] > 0
        assert layers["dae.wong_limit.iterations"] > 0

    def test_no_module_keeps_an_original(self):
        simulate = dae2ode.odesys.simulate
        originals = {id(f) for mod in _package_modules() for f in vars(mod).values()
                     if inspect.isfunction(f) and f.__module__.startswith("dae2ode.")
                     and f.__name__ in getattr(sys.modules[f.__module__], "__all__", ())}
        t = Tracer()
        names = t.install()
        try:
            assert "cli.main" in names and "odesys.simulate" in names
            assert dae2ode.cli.simulate_ode is dae2ode.odesys.simulate is dae2ode.simulate
            assert dae2ode.odesys.simulate.__wrapped__ is simulate
            for mod in _package_modules():
                for attr, value in vars(mod).items():
                    assert id(value) not in originals, f"{mod.__name__}.{attr} not rebound"
        finally:
            t.uninstall()
        assert dae2ode.cli.simulate_ode is simulate and dae2ode.odesys.simulate is simulate


def _package_modules():
    return [m for k, m in sys.modules.items() if k == "dae2ode" or k.startswith("dae2ode.")]


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "structure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
