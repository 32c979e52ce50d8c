"""Command-line interface and the text/CSV/JSON interchange formats."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dae2ode
from dae2ode import Trajectory, associate, behavior_residual
from dae2ode.cli import main
from dae2ode.heat import HeatConfig, run_heat_benchmark
from dae2ode.matio import (
    _format_rows,
    format_matrix,
    format_trajectory,
    load_matrix,
    load_problem,
    load_trajectory,
    parse_matrix,
    parse_trajectory,
)

from conftest import example_one, power_of_two_scaling, random_dae

EX1 = {
    "E": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    "B": [[1.0], [0.0]],
}


def write_problem(path, body: dict) -> str:
    path.write_text(json.dumps(body))
    return str(path)


def ex1_problem(tmp_path, **extra) -> str:
    body = dict(EX1)
    body.update(extra)
    return write_problem(tmp_path / "problem.json", body)


def constrained_problem(tmp_path, **extra) -> str:
    body = {
        "E": [[1.0, 0.0], [0.0, 0.0]],
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "B": [[0.0], [1.0]],
    }
    body.update(extra)
    return write_problem(tmp_path / "constrained.json", body)


class TestCheck:
    def test_worked_example_line(self, tmp_path, capsys):
        rc = main(["check", ex1_problem(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "impulse_controllable: true, stabilizable: true, dim V(E,A,B): 2\n"


class TestStartUp:
    def test_check_loads_no_scipy_subpackage_but_linalg(self, tmp_path):
        # Each of these would add to the start-up of every command.
        unwanted = ["integrate", "optimize", "sparse", "spatial", "fft", "special"]
        script = (
            "import sys\n"
            "import dae2ode\n"
            "from dae2ode import cli\n"
            f"assert cli.main(['check', {ex1_problem(tmp_path)!r}]) == 0\n"
            f"print([n for n in {unwanted!r} if 'scipy.' + n in sys.modules])\n"
        )
        src = str(Path(dae2ode.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


class TestAssociate:
    def test_verifies_worked_example(self, tmp_path, capsys):
        rc = main(["associate", ex1_problem(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified: true" in out
        assert "realization_ok: true" in out

    def test_prints_exact_checks(self, tmp_path, capsys):
        rc = main(["associate", ex1_problem(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "consistency_ok: true" in out
        assert float(out.split("identity_residual: ")[1].split()[0]) <= 1e-12

    def test_out_dir_matches_library(self, tmp_path, capsys):
        # The worked example, a system with n_hat = 0 (C_l is 3 x 0) and one
        # with no free input (B_l is 1 x 0, D_l is 2 x 0).
        for tag, body in (
            ("ex1", EX1),
            ("no_state", {"E": [[0.0, 0.0]], "A": [[1.0, 1.0]], "B": [[1.0]]}),
            ("no_input", {"E": [[1.0], [0.0]], "A": [[-0.5], [0.4]], "B": [[0.3], [1.0]]}),
        ):
            out_dir = tmp_path / tag
            path = write_problem(tmp_path / f"{tag}.json", body)
            rc = main(["associate", path, "--out-dir", str(out_dir)])
            capsys.readouterr()
            assert rc == 0
            assoc = associate(load_problem(path).dae)
            for name, M in (
                ("A_l", assoc.A_l),
                ("B_l", assoc.B_l),
                ("C_l", assoc.C_l),
                ("D_l", assoc.D_l),
                ("M", assoc.M),
            ):
                assert np.array_equal(load_matrix(out_dir / f"{name}.txt"), M)


    def test_norm_past_the_cube_of_the_largest_double_is_reported(self, tmp_path, capsys):
        # ||A_l|| = 1e120: the round trip's amplitude (1 + ||.||)^-3 is below
        # the smallest double, and the report is printed all the same.
        body = {"E": np.eye(2).tolist(), "A": [[-1e120, 0.0], [0.0, -1.0]], "B": [[1.0], [0.0]]}
        path = write_problem(tmp_path / "p.json", body)
        rc = main(["associate", path])
        captured = capsys.readouterr()
        assert rc in (0, 1)
        assert "verified: " in captured.out
        assert "Traceback" not in captured.err


class TestLqInfinite:
    def test_zero_start(self, tmp_path, capsys):
        path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]])
        rc = main(["lq-infinite", path, "--z", "0,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cost: 0\n" in out

    def test_worked_example_cost(self, tmp_path, capsys):
        path = ex1_problem(
            tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], Q0=np.eye(2).tolist(), z=[1.0, 7.0]
        )
        rc = main(["lq-infinite", path])
        out = capsys.readouterr().out
        assert rc == 0
        cost = float(out.strip().splitlines()[-1].split("cost: ")[1])
        assert cost == pytest.approx(50.0 * (1.0 + np.sqrt(2.0)), rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = ex1_problem(
            tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], z=[1.0, 7.0]
        )
        dirs = (tmp_path / "run1", tmp_path / "run2")
        for d in dirs:
            assert main(["lq-infinite", path, "--out-dir", str(d)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == ["K1.txt", "K2.txt", "K_f.txt", "K_z.txt", "P.txt", "trajectory.csv"]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_missing_weights(self, tmp_path, capsys):
        rc = main(["lq-infinite", ex1_problem(tmp_path), "--z", "1,7"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Q" in err

    def test_not_stabilizable_exit_code(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "bad.json",
            {"E": [[1.0]], "A": [[1.0]], "B": [[0.0]], "Q": [[1.0]], "R": [[1.0]]},
        )
        rc = main(["lq-infinite", path, "--z", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "not stabilizable" in err


class TestLqFinite:
    def test_cost_and_output_files(self, tmp_path, capsys):
        path = ex1_problem(
            tmp_path,
            Q=np.eye(3).tolist(),
            R=[[1.0]],
            Q0=np.eye(2).tolist(),
            z=[1.0, 7.0],
            t1=1.5,
        )
        out_dir = tmp_path / "fin"
        rc = main(["lq-finite", path, "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        cost = float(out.strip().splitlines()[-1].split("cost: ")[1])
        assert cost == pytest.approx(118.70729811246628, rel=1e-9)
        traj = load_trajectory(out_dir / "trajectory.csv")
        assert traj.x.shape == (2001, 3)
        assert traj.u.shape == (2001, 1)
        P = load_matrix(out_dir / "P.txt")
        assert P.shape == (2, 2)
        assert np.allclose(P, P.T)

    def test_missing_horizon(self, tmp_path, capsys):
        path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], z=[1.0, 7.0])
        rc = main(["lq-finite", path])
        err = capsys.readouterr().err
        assert rc == 1
        assert "t1" in err


class TestSimulate:
    def test_inconsistent_value_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", constrained_problem(tmp_path), "--z", "0,1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "inconsistent" in err

    def test_trajectory_solves_the_equations(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        rc = main(
            [
                "simulate",
                ex1_problem(tmp_path),
                "--z",
                "1,7",
                "--horizon",
                "1.0",
                "--out-dir",
                str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "samples: 1001" in out
        traj = load_trajectory(out_dir / "trajectory.csv")
        assert behavior_residual(example_one(), traj) <= 1e-5
        assert np.allclose(traj.x[0][:2], [1.0, 7.0], atol=1e-12)


@pytest.mark.parametrize("command", ["simulate", "lq-infinite"])
def test_negative_steps_is_a_usage_error(tmp_path, capsys, command):
    # --steps -1 asks for a grid with no samples, which simulate refuses.
    path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]])
    rc = main([command, path, "--z", "1,7", "--steps", "-1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "dae2ode: simulation requires at least one time sample\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("lq-finite", "--t1", "t1 must be positive and finite"),
        ("lq-infinite", "--horizon", "the sampling horizon T_sim must be finite"),
        ("simulate", "--horizon", "--horizon must be finite"),
    ],
    ids=["lq_finite_t1", "lq_infinite_horizon", "simulate_horizon"],
)
def test_non_finite_horizon_is_a_usage_error(tmp_path, capsys, command, flag, message, value):
    # Refused before any grid is built, so no overflow or warning escapes.
    path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], z=[1.0, 7.0])
    rc = main([command, path, flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"dae2ode: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, message",
    [
        ("lq-infinite", "the sampling horizon T_sim must be positive"),
        ("simulate", "--horizon must be positive"),
    ],
    ids=["lq_infinite", "simulate"],
)
def test_non_positive_horizon_is_named(tmp_path, capsys, command, message, value):
    # Named before a grid is built, not as a grid that fails to increase.
    path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], z=[1.0, 7.0])
    rc = main([command, path, "--horizon", value])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"dae2ode: {message}\n"


def test_terminal_weight_of_another_size_is_named(tmp_path, capsys):
    # Q0 weighs E x(t1), two rows on the worked example; 3 x 3 is a usage error.
    path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], Q0=np.eye(3).tolist())
    rc = main(["lq-finite", path, "--z", "1,7", "--t1", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("dae2ode: Q0")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["lq-infinite", "lq-finite"])
def test_weights_that_split_n_plus_m_otherwise_are_named(tmp_path, capsys, command):
    # n + m = 4 on the worked example, but n = 3: a 2 x 2 Q and a 2 x 2 R
    # are a usage error, not a cost.
    path = ex1_problem(
        tmp_path,
        Q=np.eye(2).tolist(),
        R=(2.0 * np.eye(2)).tolist(),
        Q0=np.eye(2).tolist(),
        z=[1.0, 7.0],
        t1=1.0,
    )
    rc = main([command, path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("dae2ode: weights are for signal dimensions n=2, m=2")
    assert "Q must be 3 x 3 and R 1 x 1" in captured.err
    assert "Traceback" not in captured.err


def test_package_error_exits_1(tmp_path, capsys):
    # Instance 62 of the power-of-two population of seed 0 has no friend
    # within the residual bound, so associate raises ResidualTooLarge.
    rng = np.random.default_rng(0)
    for _ in range(63):
        dae = random_dae(rng)
        S, T = power_of_two_scaling(dae.c, rng), power_of_two_scaling(dae.n, rng)
    body = {"E": S @ dae.E @ T, "A": S @ dae.A @ T, "B": S @ dae.B}
    path = write_problem(tmp_path / "p.json", {k: v.tolist() for k, v in body.items()})
    rc = main(["associate", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "dae2ode: no friend for basis vector 0: residual 1.031e+00\n"


def test_failed_schur_form_is_a_package_error(tmp_path, capsys, monkeypatch):
    # No input reaches either mode, so the stabilizability test orders the
    # Schur form of all of A_l; a failure there is named, not a usage error.
    odesys = importlib.import_module("dae2ode.odesys")

    def failing(H, select=None):
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")

    monkeypatch.setattr(odesys, "_schur", failing)
    path = write_problem(
        tmp_path / "p.json",
        {"E": [[1.0, 0.0], [0.0, 1.0]], "A": [[-1.0, 0.0], [0.0, 2.0]], "B": [[0.0], [0.0]]},
    )
    rc = main(["check", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "dae2ode: stabilizability_subspace: no ordered Schur form of the unreached block: "
        "Leading eigenvalues do not satisfy sort condition.\n"
    )


@pytest.mark.parametrize("command", ["simulate", "lq-infinite", "lq-finite"])
def test_missing_initial_value_is_a_usage_error(tmp_path, capsys, command):
    path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], t1=1.0)
    rc = main([command, path])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == 'dae2ode: no initial value: pass --z or add "z" to the problem file\n'


@pytest.mark.parametrize("command", ["simulate", "lq-infinite", "lq-finite"])
def test_wrong_length_z_is_a_usage_error(tmp_path, capsys, command):
    # All three take z through the same consistent-start check.
    path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], t1=1.0)
    rc = main([command, path, "--z", "1,7,3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "dae2ode: z must have length 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lq-finite", "{problem}", "--t1", "1", "--steps", "100000000000"],
        ["heat-demo", "--N", "6", "--Nu", "4", "--mode", "3", "--T", "1e15"],
    ],
    ids=["lq_finite_steps", "heat_demo_horizon"],
)
def test_allocation_failure_is_reported_not_raised(tmp_path, argv):
    # A 2.91 TiB P stack and a 6.94 EiB time grid.  The child's address
    # space is capped at 3 GiB, so the allocation fails whatever the host's
    # overcommit policy.  One thread per BLAS and OpenMP runtime keeps
    # their arenas from using up the cap before the package is imported.
    resource = pytest.importorskip("resource")

    def cap_address_space():
        limit = 3 * 2**30
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    problem = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], z=[1.0, 7.0])
    argv = [a.replace("{problem}", problem) for a in argv]
    argv += ["--out-dir", str(tmp_path / "out")]
    src = str(Path(dae2ode.__file__).resolve().parent.parent)
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(threads, "1"))
    run = subprocess.run(
        [sys.executable, "-m", "dae2ode.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_address_space,
    )
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("dae2ode: out of memory: ")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["lq-infinite", "lq-finite", "simulate"])
class TestNonFiniteInitialValue:
    """A non-finite z is malformed input (exit 1), not an inconsistent value."""

    def test_flag(self, tmp_path, capsys, command, value):
        path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], t1=1.0)
        rc = main([command, path, "--z", f"{value},1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "non-finite" in err

    def test_problem_file(self, tmp_path, capsys, command, value):
        path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]], t1=1.0, z=[float(value), 1.0])
        rc = main([command, path])
        err = capsys.readouterr().err
        assert rc == 1
        assert "non-finite" in err


class TestTol:
    """--tol is the relative singular-value cutoff of the rank decisions about
    the realization, and nothing else."""

    def test_simulate_membership_is_not_the_rank_cutoff(self, tmp_path, capsys):
        # z lies 1e-10 off im(E C_s) = span(e1), inside the fixed membership
        # tolerance; a tighter rank cutoff must not make it inconsistent.
        path = write_problem(
            tmp_path / "p.json",
            {
                "E": [[1.0, 0.0], [0.0, 0.0]],
                "A": [[-1.0, 0.0], [0.0, 1.0]],
                "B": [[0.0], [0.0]],
            },
        )
        for tol in ([], ["--tol", "1e-12"]):
            assert main(["simulate", path, "--z", "1,1e-10", "--steps", "10", *tol]) == 0
        capsys.readouterr()

    def test_lq_infinite_restriction_reads_the_cutoff(self, tmp_path, capsys):
        # The unstable mode x1 is reached only through B's entry 1e-10, so the
        # reachable subspace is R^2 at the default cutoff and span(B) at 1e-8.
        eye = [[1.0, 0.0], [0.0, 1.0]]
        path = write_problem(
            tmp_path / "weak.json",
            {
                "E": eye,
                "A": [[1.0, 0.0], [0.0, -1.0]],
                "B": [[1e-10], [1.0]],
                "Q": eye,
                "R": [[1.0]],
            },
        )
        flags = ["--tol", "1e-8", "--horizon", "1", "--steps", "10"]
        assert main(["lq-infinite", path, "--z", "1,0", *flags]) == 2
        assert "not stabilizable" in capsys.readouterr().err
        out_dir = tmp_path / "stable"
        rc = main(["lq-infinite", path, "--z", "0,1", *flags, "--out-dir", str(out_dir)])
        assert rc == 0
        capsys.readouterr()
        # The one-dimensional stable part: p^2 + 2p - 1 = 0.
        P = load_matrix(out_dir / "P.txt")
        assert P.shape == (1, 1)
        assert P[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-9)

    def test_associate_verifies_at_the_cutoff(self, tmp_path, capsys, monkeypatch):
        # E's singular value 1e-6 is a zero at --tol 1e-4: the realization
        # treats x2 as algebraic, and so must the Wong limit it is checked
        # against.  The rule sees the ranks of E (twice: associate's and
        # verify_associated's) and of E C_s; ``rank`` sees D_l's.
        module = importlib.import_module("dae2ode.associate")
        seen = []

        def spy(name):
            fn = getattr(module, name)

            def call(*args):
                seen.append((name, args[-1]))
                return fn(*args)

            return call

        for name in ("_rank_from_singular_values", "rank", "wong_limit"):
            monkeypatch.setattr(module, name, spy(name))
        path = write_problem(
            tmp_path / "p.json",
            {
                "E": [[1.0, 0.0], [0.0, 1e-6]],
                "A": [[-1.0, 0.0], [0.0, -1.0]],
                "B": [[0.0], [0.0]],
            },
        )
        rc = main(["associate", path, "--tol", "1e-4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "consistency_ok: true" in out
        assert sorted(seen) == (
            [("_rank_from_singular_values", 1e-4)] * 3
            + [("rank", 1e-4)]
            + [("wong_limit", 1e-4)]
        )


class TestUsageErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not valid json")
        rc = main(["check", str(path)])
        assert rc == 1
        assert "dae2ode:" in capsys.readouterr().err

    def test_missing_member(self, tmp_path, capsys):
        path = write_problem(tmp_path / "nob.json", {"E": [[1.0]], "A": [[1.0]]})
        rc = main(["check", str(path)])
        assert rc == 1

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["check", str(tmp_path / "absent.json")])
        assert rc == 1

    def test_unknown_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", ex1_problem(tmp_path), "--nope"])
        assert exc.value.code == 1

    def test_check_rejects_out_dir(self, tmp_path, capsys):
        # check writes no file, so it takes no --out-dir
        with pytest.raises(SystemExit) as exc:
            main(["check", ex1_problem(tmp_path), "--out-dir", str(tmp_path / "d")])
        assert exc.value.code == 1
        assert "--out-dir" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_associate_rejects_seed(self, tmp_path, capsys):
        # the one simulated round trip draws from a fixed seed
        with pytest.raises(SystemExit) as exc:
            main(["associate", ex1_problem(tmp_path), "--seed", "3"])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_bad_vector_flag(self, tmp_path, capsys):
        path = ex1_problem(tmp_path, Q=np.eye(3).tolist(), R=[[1.0]])
        rc = main(["lq-infinite", path, "--z", "1,spam"])
        assert rc == 1


class TestHeatDemo:
    def test_small_run_writes_all_outputs(self, tmp_path, capsys):
        args = ["heat-demo", "--N", "6", "--Nu", "4", "--mode", "3", "--T", "1.5"]
        out_dir = tmp_path / "demo"
        rc = main(args + ["--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max_replay_error" in out
        assert f"wrote {out_dir}" in out

        cost_lines = (out_dir / "costs.txt").read_text().strip().splitlines()
        assert len(cost_lines) == 5
        parsed = dict(line.split(" = ") for line in cost_lines)
        assert set(parsed) == {"J_e", "J_dae", "J_T", "J_g", "J_T_g"}
        for value in parsed.values():
            float(value)

        errors = (out_dir / "errors.csv").read_text().splitlines()
        assert errors[0] == "t,e_sol,e_sim,e_g,e_sim_g"
        assert len(errors) == 1502

        for name, shape in (
            ("E", (6, 12)),
            ("A", (6, 12)),
            ("B", (6, 4)),
            ("Q", (12, 12)),
            ("R", (4, 4)),
            ("Q0", (6, 6)),
            ("gram", (6, 6)),
            ("stiffness", (6, 6)),
            ("sine_overlap", (6, 6)),
            ("eig_A", (6, 6)),
            ("eig_B", (6, 4)),
        ):
            assert load_matrix(out_dir / f"{name}.txt").shape == shape

        rerun = tmp_path / "demo2"
        assert main(args + ["--out-dir", str(rerun)]) == 0
        capsys.readouterr()
        for name in ("costs.txt", "errors.csv", "gram.txt", "sine_overlap.txt"):
            assert (out_dir / name).read_bytes() == (rerun / name).read_bytes()

    def test_every_config_flag_reaches_the_config(self, tmp_path, capsys):
        # Each value differs from its HeatConfig default and moves the cost
        # table or makes the config invalid, so a flag whose dest missed its
        # field would show here.
        out_dir = tmp_path / "demo"
        flags = ["--N", "12", "--Nu", "10", "--mu", "0.02", "--c", "0.05", "--lambda", "3",
                 "--mode", "5", "--T", "1", "--quad-order", "30", "--out-dir", str(out_dir)]
        assert main(["heat-demo", *flags]) == 0
        capsys.readouterr()
        cfg = HeatConfig(N=12, N_u=10, mu=0.02, c=0.05, lam=3.0, mode=5, T=1.0, quad_order=30)
        costs = run_heat_benchmark(cfg).costs
        want = "".join(f"{key} = {value:.4f}\n" for key, value in costs.items())
        assert (out_dir / "costs.txt").read_text() == want

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        rc = main(
            ["heat-demo", "--N", "4", "--Nu", "9", "--out-dir", str(tmp_path / "x")]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "flags, message",
        [(["--N", "12"], "N_u = 35 must not exceed N = 12"),
         (["--N", "12", "--Nu", "10"], "mode = 34 must lie in 1..12")],
        ids=["default_N_u", "default_mode"],
    )
    def test_refused_config_states_its_values(self, tmp_path, capsys, flags, message):
        # A default the user never set is named with its value, so a
        # smaller N shows which other flag has to follow it.
        assert main(["heat-demo", *flags, "--out-dir", str(tmp_path / "x")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"dae2ode: {message}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--T", "inf", "T"), ("--lambda", "nan", "lam"), ("--c", "inf", "c"),
         ("--mu", "nan", "mu"), ("--quad-order", "1000000000", "quad_order")],
    )
    def test_unusable_value_names_its_field(self, tmp_path, capsys, flag, value, field):
        # Each is refused by HeatConfig before any model is built; the last
        # asked for a billion quadrature nodes.
        args = ["heat-demo", "--N", "6", "--Nu", "4", "--mode", "3", "--T", "1", flag, value]
        assert main([*args, "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"dae2ode: {field} must ")
        assert not (tmp_path / "x").exists()


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestMatio:
    @given(
        M=arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matrix_round_trip_is_exact(self, M):
        assert np.array_equal(parse_matrix(format_matrix(M)), M)

    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        rows=st.integers(2, 6),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_trajectory_round_trip_is_exact(self, n, m, rows, data):
        steps = data.draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=10.0),
                min_size=rows - 1,
                max_size=rows - 1,
            )
        )
        times = np.concatenate([[0.0], np.cumsum(steps)])
        x = data.draw(arrays(np.float64, (rows, n), elements=finite_floats))
        u = data.draw(arrays(np.float64, (rows, m), elements=finite_floats))
        traj = Trajectory(times, x, u)
        back = parse_trajectory(format_trajectory(traj))
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.x, traj.x)
        assert np.array_equal(back.u, traj.u)

    def test_row_formatter_matches_per_element_format(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.797e308]
        rng = np.random.default_rng(31)
        M = np.vstack([
            np.array(special).reshape(2, 4),
            rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4)),
        ])
        for sep in (" ", ","):
            expected = [sep.join(format(v, ".17g") for v in row) for row in M]
            assert _format_rows(M, sep) == expected
        assert _format_rows(np.zeros((2, 0)), ",") == ["", ""]

    def test_matrix_header_must_match_body(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2\n3 4\n5 6")
        with pytest.raises(ValueError):
            parse_matrix("2 3\n1 2 3\n4 5")

    def test_trajectory_header_counts_columns(self):
        text = "t,x1,x2,u1\n0,1,2,3\n1,4,5,6"
        traj = parse_trajectory(text)
        assert traj.x.shape == (2, 2)
        assert traj.u.shape == (2, 1)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_trajectory_with_a_non_finite_time_is_refused(self, bad):
        # np.diff(t) <= 0 is False next to a NaN, so the order check alone
        # let such a grid through.
        with pytest.raises(ValueError, match="^time samples must be finite$"):
            parse_trajectory(f"t,x1,u1\n0,1,1\n{bad},1,1\n2,1,1\n")
        with pytest.raises(ValueError, match="^time samples must be finite$"):
            Trajectory([0.0, float(bad)], np.ones((2, 1)), np.ones((2, 1)))

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda tmp: format_matrix(np.zeros((2, 2, 2))), "^expected a matrix, got ndim=3$"),
            (lambda tmp: parse_matrix(" \n"), "^empty matrix text$"),
            (lambda tmp: parse_matrix("2\n1 2"), "^matrix header must be 'rows cols', got '2'$"),
            (lambda tmp: load_problem(write_problem(tmp / "p.json", dict(EX1, E=[1.0, 0.0]))),
             '^"E" must be an array of row arrays$'),
            (lambda tmp: load_problem(write_problem(tmp / "p.json", [EX1])),
             "^problem file must be a JSON object$"),
            (lambda tmp: parse_trajectory("t,x1,u1\n"),
             "^trajectory CSV needs a header and at least one row$"),
            (lambda tmp: parse_trajectory("s,x1,u1\n0,1,1"),
             '^trajectory CSV header must start with "t"$'),
            (lambda tmp: parse_trajectory("t,x1,v1\n0,1,1"),
             "^unrecognized trajectory header 't,x1,v1'$"),
            (lambda tmp: parse_trajectory("t,x1,u1\n0,1"),
             "^trajectory rows do not match the header width$"),
        ],
        ids=["format_ndim", "empty_matrix", "matrix_header", "problem_matrix",
             "problem_not_object", "trajectory_rows", "trajectory_t", "trajectory_header",
             "trajectory_width"],
    )
    def test_malformed_text_is_refused_by_name(self, tmp_path, read, message):
        with pytest.raises(ValueError, match=message):
            read(tmp_path)

    def test_problem_defaults(self, tmp_path):
        path = write_problem(
            tmp_path / "p.json",
            {
                "E": EX1["E"],
                "A": EX1["A"],
                "B": EX1["B"],
                "Q": np.eye(3).tolist(),
                "R": [[1.0]],
                "z": [1.0, 7.0],
            },
        )
        problem = load_problem(path)
        assert problem.weights is not None
        assert np.array_equal(problem.weights.Q0, np.zeros((2, 2)))
        assert problem.z.shape == (2,)
        assert problem.t1 is None

    def test_problem_requires_paired_weights(self, tmp_path):
        path = write_problem(
            tmp_path / "q_only.json",
            {"E": EX1["E"], "A": EX1["A"], "B": EX1["B"], "Q": np.eye(3).tolist()},
        )
        with pytest.raises(ValueError):
            load_problem(path)
