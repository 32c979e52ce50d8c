"""Rectangular DAE-LTI systems realized as outputs of ODE-LTI systems."""

from .associate import (
    AssociatedOdeLti,
    AssociationReport,
    StabilizableRestriction,
    associate,
    feedback_equivalence,
    lift_solution,
    project_solution,
    verify_associated,
)
from .dae import (
    DaeLti,
    Trajectory,
    behavior_residual,
    impulse_controllable,
    wong_limit,
)
from .errors import (
    ConstraintViolated,
    Dae2OdeError,
    InconsistentInitialState,
    NonFiniteP,
    NoStabilizingStart,
    NotEquivalent,
    NotStabilizable,
    OrderedSchurFailed,
    ResidualTooLarge,
)
from .heat import (
    HeatBenchmark,
    HeatConfig,
    HeatModels,
    build_heat_models,
    dae_lq_pipeline,
    eigenbasis_reference,
    error_curves,
    lift_and_simulate_closed_loop,
    naive_galerkin_baseline,
    run_heat_benchmark,
)
from .lq import (
    FiniteHorizonSolution,
    InfiniteHorizonSolution,
    LqWeights,
    closed_loop_replay,
    finite_horizon,
    infinite_horizon,
    is_behaviorally_stabilizable,
    solve_are,
    solve_dre,
    spectral_abscissa,
    trajectory_cost,
)
from .matio import (
    Problem,
    load_matrix,
    load_problem,
    load_trajectory,
    save_matrix,
    save_trajectory,
)
from .odesys import OdeLti, simulate, stabilizability_subspace, weakly_unobservable
from .subspaces import Subspace, image, kernel, pinv, preimage, rank

__version__ = "0.1.0"
