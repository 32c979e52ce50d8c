"""The package surface the benchmark calls.

``bench/workloads.py`` calls public functions of the package and reads
result fields by name.  Each workload here runs its warm-up input and the
first input of its population through ``run``, and every gate of ``check``
must pass, so that a changed signature or field fails the test suite, not
only a benchmark run.  No tracer is installed.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_gates_pass(tmp_path, name):
    wl = WORKLOADS[name](0, str(tmp_path))
    for inp in (wl.warmup_input(), wl.population[0]):
        assert wl.check(inp, wl.run(inp)) == []
