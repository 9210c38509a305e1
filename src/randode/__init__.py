"""Randomized one-step ODE solvers under noisy right-hand-side oracles.

Three integrators (explicit Euler, implicit Euler, two-stage Runge-Kutta)
evaluate the field at a uniformly random point inside each step, optionally
through a perturbed, evaluation-counted oracle.  The analysis layer measures
sup-norm errors against reference solutions over seeded Monte Carlo batches
and derives quantile multipliers, tail curves, confidence bands and
convergence slopes.  The ``randode`` command line drives the experiments.

Importing the package imports none of its submodules, and so not numpy: each
name of ``__all__`` is looked up in its submodule on first use
(``randode.run_batch`` or ``from randode import run_batch``), as is each
submodule (``randode.analysis``).  The library leaves numpy's BLAS threading
as numpy sets it; only the command line (:mod:`randode.cli`) runs it on one
thread.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each exported name.
_EXPORTS = {
    "analysis": (
        "BatchCell", "ConfidenceBand", "ErrorBatch", "QuantileEstimate",
        "ReferenceSolution", "SlopeFit", "TailCurve", "build_reference_B",
        "confidence_band", "convergence_slope", "derive_cell_seed", "fit_loglog_slope",
        "reference_for", "run_batch", "run_rows", "sup_error", "tail_curve", "xi_hat",
    ),
    "exceptions": (
        "ConvergenceError", "DomainError", "NumericalError", "ReferenceSolutionError",
        "WorkerError",
    ),
    "noise": (
        "DeltaRule", "NoiseModel", "NoisyOracle", "exact_info", "parse_delta_rule",
        "verify_noise_bound",
    ),
    "problems": (
        "ClassParams", "IvpSpec", "check_class_membership", "eval_rhs", "exact_solution_A",
        "make_problem", "one_norm", "radius_ee", "radius_rk",
    ),
    "schemes": (
        "Grid", "SchemeKind", "Trajectory", "gamma_of", "martingale_diagnostic",
        "run_explicit_euler", "run_implicit_euler", "run_rk2", "run_scheme",
        "scheme_from_name",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# cli is reachable as randode.cli but left out of ``import *``: importing it
# sets the command line's BLAS thread default
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted([*_SOURCE, *_EXPORTS])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
