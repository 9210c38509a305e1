"""Randomized one-step ODE solvers under noisy right-hand-side oracles.

Three integrators (explicit Euler, implicit Euler, two-stage Runge-Kutta)
evaluate the field at a uniformly random point inside each step, optionally
through a perturbed, evaluation-counted oracle.  The analysis layer measures
sup-norm errors against reference solutions over seeded Monte Carlo batches
and derives quantile multipliers, tail curves, confidence bands and
convergence slopes.  The ``randode`` command line drives the experiments.
"""

from .analysis import (
    BatchCell,
    ConfidenceBand,
    ErrorBatch,
    QuantileEstimate,
    ReferenceSolution,
    SlopeFit,
    TailCurve,
    Workers,
    build_reference_B,
    confidence_band,
    convergence_slope,
    derive_cell_seed,
    fit_loglog_slope,
    reference_for,
    run_batch,
    run_cells,
    sup_error,
    tail_curve,
    xi_hat,
)
from .exceptions import (
    ConvergenceError,
    DomainError,
    NumericalError,
    ReferenceSolutionError,
)
from .noise import (
    DeltaRule,
    NoiseModel,
    NoisyOracle,
    exact_info,
    parse_delta_rule,
    verify_noise_bound,
)
from .problems import (
    ClassParams,
    IvpSpec,
    check_class_membership,
    eval_rhs,
    exact_solution_A,
    make_problem,
    one_norm,
    radius_ee,
    radius_rk,
)
from .schemes import (
    Grid,
    SchemeKind,
    Trajectory,
    gamma_of,
    martingale_diagnostic,
    run_explicit_euler,
    run_implicit_euler,
    run_rk2,
    run_scheme,
    scheme_from_name,
)

__version__ = "0.1.0"
