"""Command-line front end.

One executable, subcommand style::

    dae2ode associate problem.json [--tol T] [--out-dir DIR]
    dae2ode check problem.json [--tol T]
    dae2ode lq-finite problem.json [--tol T] [--z V] [--t1 T] [--steps K] [--out-dir DIR]
    dae2ode lq-infinite problem.json [--tol T] [--z V] [--horizon T] [--steps K]
                        [--out-dir DIR]
    dae2ode simulate problem.json [--tol T] [--z V] [--horizon T] [--steps K]
                     [--out-dir DIR]
    dae2ode heat-demo [--N ...] [--Nu ...] [--mu ...] [--c ...] [--lambda ...]
                      [--mode ...] [--T ...] [--quad-order ...] [--out-dir DIR]

Problem files are JSON objects with members "E", "A", "B" and optional
"Q", "R", "Q0", "z", "t1" (see `dae2ode.matio`).  Matrices are emitted in
the matrix text format, trajectories as CSV.  Runs are deterministic for
fixed flags.  --tol is the relative singular-value cutoff of every rank
decision (default max(rows, cols) * machine epsilon); it reaches
`associate`, which records it on the realization for every later decision,
and the impulse-controllability test, and nothing else.

Exit codes: 0 success; 1 parse, shape, or usage error, or a request too
large for memory; 2 the problem is not behaviorally stabilizable; 3 the
initial value is not consistent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .associate import associate, lift_solution, verify_associated
from .dae import Trajectory, impulse_controllable, pencil_stabilizability_test
from .errors import Dae2OdeError, InconsistentInitialState, NotStabilizable
from .heat import HeatConfig, run_heat_benchmark
from .lq import _internal_start, finite_horizon, infinite_horizon
from .matio import (
    _format_rows,
    format_matrix,
    format_trajectory,
    load_problem,
    save_matrix,
    save_trajectory,
)
from .odesys import simulate as simulate_ode  # noqa: F401  bench/ looks it up here

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dae2ode", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_cmd(
        name: str, help_: str, z: bool = False, writes: bool = True
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("problem", help="problem JSON file")
        p.add_argument(
            "--tol", type=float, default=None, help="relative singular-value cutoff"
        )
        if writes:
            p.add_argument("--out-dir", default=None, help="directory for output files")
        if z:
            p.add_argument("--z", default=None, help="initial value Ex(0), comma-separated")
            p.add_argument("--steps", type=int, default=None, help="time grid steps")
        return p

    add_problem_cmd("associate", "construct and verify the associated ODE system")
    check_help = "report impulse controllability, stabilizability, dim V(E,A,B)"
    add_problem_cmd("check", check_help, writes=False)

    p = add_problem_cmd("lq-finite", "finite-horizon LQ optimal control", z=True)
    p.add_argument("--t1", type=float, default=None, help="horizon (overrides problem t1)")

    p = add_problem_cmd("lq-infinite", "infinite-horizon LQ optimal control", z=True)
    p.add_argument("--horizon", type=float, default=None, help="trajectory sampling horizon")

    p = add_problem_cmd("simulate", "zero-input behavior solution from a consistent value", z=True)
    p.add_argument("--horizon", type=float, default=10.0, help="simulation horizon")

    # Each flag's dest is its HeatConfig field, and a flag left unset stays
    # out of the namespace, so HeatConfig alone holds the defaults.
    p = sub.add_parser(
        "heat-demo",
        help="heat-equation benchmark: cost table and error curves",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--N", type=int, help="Galerkin dimension")
    p.add_argument("--Nu", dest="N_u", type=int, help="number of actuated modes")
    p.add_argument("--mu", type=float, help="error-channel weight")
    p.add_argument("--c", type=float, help="diffusion coefficient")
    p.add_argument("--lambda", dest="lam", type=float, help="initial amplitude")
    p.add_argument("--mode", type=int, help="initial eigenmode index")
    p.add_argument("--T", type=float, help="simulation horizon")
    p.add_argument(
        "--quad-order",
        type=int,
        help="Gauss-Legendre nodes for actuator moments (default N+2; see docs)",
    )
    p.add_argument("--out-dir", default="heat_demo_out", help="directory for output files")
    return parser


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"could not parse vector {text!r}: {exc}") from exc


def _require_z(args, problem) -> np.ndarray:
    if args.z is not None:
        return _parse_vector(args.z)
    if problem.z is not None:
        return problem.z
    raise ValueError("no initial value: pass --z or add \"z\" to the problem file")


def _require_weights(problem):
    if problem.weights is None:
        raise ValueError('problem file must define "Q" and "R" for LQ subcommands')
    return problem.weights


def _emit_matrix(name: str, M, out_dir: Path | None) -> None:
    if out_dir is None:
        sys.stdout.write(f"{name}\n{format_matrix(M)}\n")
    else:
        save_matrix(out_dir / f"{name}.txt", M)


def _emit_trajectory(name: str, traj: Trajectory, out_dir: Path | None) -> None:
    if out_dir is None:
        sys.stdout.write(f"{name}\n{format_trajectory(traj)}\n")
    else:
        save_trajectory(out_dir / f"{name}.csv", traj)


def _prepare_out_dir(args) -> Path | None:
    if getattr(args, "out_dir", None) is None:
        return None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_associate(args) -> int:
    problem = load_problem(args.problem)
    assoc = associate(problem.dae, tol=args.tol)
    out_dir = _prepare_out_dir(args)
    for name, M in (
        ("A_l", assoc.A_l),
        ("B_l", assoc.B_l),
        ("C_l", assoc.C_l),
        ("D_l", assoc.D_l),
        ("M", assoc.M),
    ):
        _emit_matrix(name, M, out_dir)
    report = verify_associated(problem.dae, assoc)
    print(f"input_maps_ok: {str(report.input_maps_ok).lower()}")
    print(f"ed_s_zero: {str(report.ed_s_zero).lower()}")
    print(f"ec_s_full_rank: {str(report.ec_s_full_rank).lower()}")
    print(f"state_map_ok: {str(report.state_map_ok).lower()}")
    print(f"state_dim_bound_ok: {str(report.state_dim_bound_ok).lower()}")
    print(f"identity_residual: {report.identity_residual:.3e}")
    print(f"consistency_ok: {str(report.consistency_ok).lower()}")
    print(f"max_lift_residual: {report.max_lift_residual:.3e}")
    print(f"realization_ok: {str(report.realization_ok).lower()}")
    print(f"verified: {str(report.ok).lower()}")
    return 0 if report.ok else 1


def _cmd_check(args) -> int:
    problem = load_problem(args.problem)
    assoc = associate(problem.dae, tol=args.tol)
    imp = impulse_controllable(problem.dae, tol=args.tol)
    stab = pencil_stabilizability_test(problem.dae, assoc)
    dim = assoc.consistency_set.dim
    print(
        f"impulse_controllable: {str(imp).lower()}, "
        f"stabilizable: {str(stab).lower()}, "
        f"dim V(E,A,B): {dim}"
    )
    return 0


def _cmd_lq_finite(args) -> int:
    problem = load_problem(args.problem)
    w = _require_weights(problem)
    z = _require_z(args, problem)
    t1 = args.t1 if args.t1 is not None else problem.t1
    if t1 is None:
        raise ValueError("no horizon: pass --t1 or add \"t1\" to the problem file")
    assoc = associate(problem.dae, tol=args.tol)
    sol = finite_horizon(problem.dae, assoc, w, z, t1, steps=args.steps)
    out_dir = _prepare_out_dir(args)
    _emit_matrix("P", sol.P_terminal, out_dir)
    _emit_matrix("K_f_initial", sol.K_f_samples[0], out_dir)
    _emit_matrix("K2", sol.K2, out_dir)
    _emit_trajectory("trajectory", sol.traj, out_dir)
    print(f"cost: {sol.cost:.17g}")
    return 0


def _cmd_lq_infinite(args) -> int:
    problem = load_problem(args.problem)
    w = _require_weights(problem)
    z = _require_z(args, problem)
    assoc = associate(problem.dae, tol=args.tol)
    sol = infinite_horizon(problem.dae, assoc, w, z, T_sim=args.horizon, steps=args.steps)
    out_dir = _prepare_out_dir(args)
    _emit_matrix("P", sol.P, out_dir)
    _emit_matrix("K_f", sol.K_f, out_dir)
    _emit_matrix("K_z", sol.K_z, out_dir)
    _emit_matrix("K1", sol.K1, out_dir)
    _emit_matrix("K2", sol.K2, out_dir)
    _emit_trajectory("trajectory", sol.traj, out_dir)
    print(f"cost: {sol.cost:.17g}")
    return 0


def _cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    z = _require_z(args, problem)
    assoc = associate(problem.dae, tol=args.tol)
    v0 = _internal_start(assoc, z)
    if not np.isfinite(args.horizon):
        raise ValueError("--horizon must be finite")
    steps = args.steps if args.steps is not None else 1000
    times = np.linspace(0.0, args.horizon, steps + 1)
    traj = lift_solution(assoc, v0, None, times)
    out_dir = _prepare_out_dir(args)
    _emit_trajectory("trajectory", traj, out_dir)
    print(f"samples: {len(times)}")
    return 0


def _cmd_heat_demo(args) -> int:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}
    cfg = HeatConfig(**flags)
    bench = run_heat_benchmark(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cost_lines = [
        f"J_e = {bench.costs['J_e']:.4f}",
        f"J_dae = {bench.costs['J_dae']:.4f}",
        f"J_T = {bench.costs['J_T']:.4f}",
        f"J_g = {bench.costs['J_g']:.4f}",
        f"J_T_g = {bench.costs['J_T_g']:.4f}",
    ]
    (out / "costs.txt").write_text("\n".join(cost_lines) + "\n")

    header = "t,e_sol,e_sim,e_g,e_sim_g"
    rows = _format_rows(bench.curves, ",")
    (out / "errors.csv").write_text("\n".join([header] + rows) + "\n")

    models = bench.models
    for name, M in (
        ("E", models.dae.E),
        ("A", models.dae.A),
        ("B", models.dae.B),
        ("Q", models.weights.Q),
        ("R", models.weights.R),
        ("Q0", models.weights.Q0),
        ("gram", models.gram),
        ("stiffness", models.stiffness),
        ("sine_overlap", models.sine_overlap),
        ("eig_A", models.eig_A),
        ("eig_B", models.eig_B),
    ):
        save_matrix(out / f"{name}.txt", M)

    for line in cost_lines:
        print(line)
    print(f"max_replay_error = {bench.max_replay_error:.6f}")
    print(f"wrote {out}")
    return 0


_DISPATCH = {
    "associate": _cmd_associate,
    "check": _cmd_check,
    "lq-finite": _cmd_lq_finite,
    "lq-infinite": _cmd_lq_infinite,
    "simulate": _cmd_simulate,
    "heat-demo": _cmd_heat_demo,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except NotStabilizable as exc:
        print(f"dae2ode: not stabilizable: {exc}", file=sys.stderr)
        return 2
    except InconsistentInitialState as exc:
        print(f"dae2ode: inconsistent initial value: {exc}", file=sys.stderr)
        return 3
    except Dae2OdeError as exc:
        print(f"dae2ode: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"dae2ode: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"dae2ode: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
