"""Every example in the README must actually run and print what it claims."""

import dataclasses
import importlib
import inspect
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


def _resolves(module, name: str) -> bool:
    """Whether ``name`` is an attribute of ``module``, or an attribute or
    dataclass field of a class that the module defines or imports."""
    if hasattr(module, name):
        return True
    classes = [obj for obj in vars(module).values() if inspect.isclass(obj)]
    return any(
        hasattr(cls, name)
        or (dataclasses.is_dataclass(cls) and name in {f.name for f in dataclasses.fields(cls)})
        for cls in classes
    )


def test_modules_table_names_resolve():
    # A name a deletion leaves in the table is caught here; each part of a
    # dotted name must resolve on its own.
    section = README.read_text().split("## Modules", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(dae2ode\.\w+)` +\|(.*)\|$", section, flags=re.M)
    assert len(rows) == 8
    stale = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]*)`", contents):
            assert re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name), name
            stale += [f"{module_name}: {name}" for part in name.split(".") if not _resolves(module, part)]
    assert not stale, stale
