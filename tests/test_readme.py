"""Every example in the README must actually run and print what it claims."""

import json
import re
from pathlib import Path

from dae2ode.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_python_example_prints_documented_cost(capsys):
    block = _blocks("python")[0]
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.strip().splitlines()[0].startswith("120.7106781")


def test_problem_json_example_drives_check_and_lq(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(json.loads(_blocks("json")[0])))

    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "impulse_controllable: true, stabilizable: true, dim V(E,A,B): 2\n"

    assert main(["lq-infinite", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "cost: 120.71067811865477"


def test_heat_demo_prints_documented_table(tmp_path, capsys):
    assert main(["heat-demo", "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    for line in (
        "J_e = 3.9380",
        "J_dae = 3.8917",
        "J_T = 3.9601",
        "J_g = 9.5813",
        "J_T_g = 5.5515",
        "max_replay_error = 0.001311",
    ):
        assert line in out
