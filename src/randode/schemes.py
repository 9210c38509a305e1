"""The three randomized one-step integrators and their piecewise-linear output.

Each scheme advances on the uniform grid t_j = a + j h and evaluates the
noisy oracle at a uniformly random intermediate point theta_j drawn per step
from the oracle's grid stream.  The continuous output is the linear
interpolant of the node values.

Each scheme is written once and steps either one replication (a
:class:`NoisyOracle`, state shape (d,)) or a whole chunk of replications (a
:class:`ChunkOracle`, state shape (m, 1), one row per replication) with the
same elementwise arithmetic, so the two give bitwise-identical nodes.
"""

from __future__ import annotations

import csv
import dataclasses
import enum

import numpy as np

from .exceptions import ConvergenceError, DomainError, NumericalError
from .noise import ChunkOracle, NoisyOracle
from .problems import d_exact_solution_A, exact_solution_A


class SchemeKind(enum.Enum):
    EXPLICIT_EULER = "ee"
    IMPLICIT_EULER = "ie"
    RUNGE_KUTTA2 = "rk"


SCHEME_NAMES = tuple(k.value for k in SchemeKind)


def scheme_from_name(name: str) -> SchemeKind:
    try:
        return SchemeKind(name.strip().lower())
    except ValueError:
        raise DomainError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}") from None


def gamma_of(s: SchemeKind, rho: float) -> float:
    """Convergence exponent of the scheme at time-regularity rho.

    Euler variants: min(rho + 1/2, 1).  Two-stage Runge-Kutta:
    min(rho, 1) + 1/2 (the usable time regularity saturates at 1).
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    if s is SchemeKind.RUNGE_KUTTA2:
        return min(rho, 1.0) + 0.5
    return min(rho + 0.5, 1.0)


def write_csv(path, header, rows):
    """Write a header row and data rows; floats as repr, which round-trips them exactly."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


@dataclasses.dataclass(frozen=True)
class Grid:
    """Uniform knots plus the random evaluation points of one run.

    ``taus`` has shape (n,) for one replication and (n, m, 1) for a chunk,
    so ``taus[j - 1]`` is step j's draw of every row.
    """

    n: int
    h: float
    knots: np.ndarray   # (n+1,)
    taus: np.ndarray

    def theta(self, j: int):
        """Step j's evaluation point theta_j = t_{j-1} + tau_j h in [t_{j-1}, t_j)."""
        return self.knots[j - 1] + self.h * self.taus[j - 1]


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Node values of one scheme run plus its linear interpolant."""

    scheme: SchemeKind
    grid: Grid
    nodes: np.ndarray   # (n+1, d); a chunk of m replications: (m, n+1, 1)
    eval_count: int

    @property
    def a(self) -> float:
        return float(self.grid.knots[0])

    @property
    def b(self) -> float:
        return float(self.grid.knots[-1])

    def at(self, t: float) -> np.ndarray:
        """Interpolant value at one time; exact at knots."""
        if t < self.a or t > self.b:
            raise DomainError(f"t={t} outside [{self.a}, {self.b}]")
        return self.dense(np.array([t]))[0]

    def dense(self, ts) -> np.ndarray:
        """Interpolant values at many times, shape (len(ts), d)."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.a or ts.max() > self.b):
            raise DomainError("evaluation time outside the trajectory interval")
        out = np.empty((ts.shape[0], self.nodes.shape[1]))
        for k in range(self.nodes.shape[1]):
            out[:, k] = np.interp(ts, self.grid.knots, self.nodes[:, k])
        return out

    def write_csv(self, path):
        """Write (t_j, node coordinates) rows."""
        d = self.nodes.shape[1]
        write_csv(path, ["t"] + [f"x{k}" for k in range(d)],
                  np.column_stack([self.grid.knots, self.nodes]))


def _check_finite(values, step: int, replication: int):
    """Raise NumericalError for the first row of values that holds a non-finite value.

    values has shape (steps, d) for one replication or (m, steps, d) for the
    rows replication, replication + 1, ...; its step k is scheme step step + k.
    """
    if np.isfinite(values).all():
        return
    finite = np.isfinite(values).all(axis=-1).reshape(-1, values.shape[-2])
    row = int(np.argmin(finite.all(axis=1)))
    step += int(np.argmin(finite[row]))
    raise NumericalError(f"replication {replication + row}: non-finite node value at "
                         f"step {step}", step=step, replication=replication + row)


def _start(oracle, n: int, taus):
    """The run's grid, initial state and node array, node 0 filled."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if taus is None:
        taus = oracle.draw_taus(n)
    else:
        taus = np.asarray(taus, dtype=float)
        if taus.shape != (n,):
            raise DomainError(f"taus override must have shape ({n},)")
    a, b = oracle.base.a, oracle.base.b
    h = (b - a) / n
    g = Grid(n=n, h=h, knots=a + h * np.arange(n + 1), taus=taus)
    w = oracle.eta_tilde.copy()
    nodes = np.empty(w.shape[:-1] + (n + 1, w.shape[-1]))
    nodes[..., 0, :] = w
    return g, w, nodes


def run_explicit_euler(oracle: NoisyOracle | ChunkOracle, n: int, taus=None) -> Trajectory:
    """W_j = W_{j-1} + h f~(theta_j, W_{j-1}); one oracle call per step."""
    g, w, nodes = _start(oracle, n, taus)
    for j in range(1, n + 1):
        w = w + g.h * oracle.noisy_eval(g.theta(j), w)
        nodes[..., j, :] = w
    _check_finite(nodes, 0, oracle.replication_index)
    return Trajectory(SchemeKind.EXPLICIT_EULER, g, nodes, oracle.eval_count)


def run_rk2(oracle: NoisyOracle | ChunkOracle, n: int, taus=None) -> Trajectory:
    """Two-stage step: a tau-scaled stage at t_{j-1}, then the update at theta_j.

    Two oracle calls per step; the stage values are transient.
    """
    g, v, nodes = _start(oracle, n, taus)
    for j in range(1, n + 1):
        t0, htau = g.knots[j - 1], g.h * g.taus[j - 1]
        stage = v + htau * oracle.noisy_eval(t0, v)
        v = v + g.h * oracle.noisy_eval(t0 + htau, stage)  # at theta_j
        nodes[..., j, :] = v
    _check_finite(nodes, 0, oracle.replication_index)
    return Trajectory(SchemeKind.RUNGE_KUTTA2, g, nodes, oracle.eval_count)


def run_implicit_euler(oracle: NoisyOracle | ChunkOracle, n: int, tol: float = 1e-12,
                       max_iter: int = 100, taus=None) -> Trajectory:
    """U_j = U_{j-1} + h f~(theta_j, U_j), solved by fixed-point iteration.

    Requires the contraction margin h (L + delta) < 1, with L the problem's
    Lipschitz constant.  Iteration starts at U_{j-1} and stops once successive
    iterates differ by at most tol in one-norm, which leaves a residual of at
    most tol (1 + q) / (1 - q) with q = h (L + delta).  Every inner iteration
    is one oracle evaluation.  Note that the per-call-fresh noise classes
    ("ee", "rk") re-randomize the map between iterations and may prevent
    convergence below the noise scale; the "ie" class keeps f~ fixed.

    On a chunk every row iterates until it converges and is then frozen at
    that iterate, so each row gets exactly its own replication's result.  A
    ConvergenceError names the first replication still iterating.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    g, u, nodes = _start(oracle, n, taus)
    q = g.h * (oracle.base.class_params.L + oracle.model.delta)
    if not q < 1.0:
        raise DomainError(f"contraction margin violated: h(L + delta) = {q} >= 1")
    for j in range(1, n + 1):
        theta = g.theta(j)
        cur = u
        active = np.ones(u.shape[:-1], dtype=bool)
        for _ in range(max_iter):
            nxt = np.where(active[..., None], u + g.h * oracle.noisy_eval(theta, cur), cur)
            _check_finite(nxt[..., None, :], j, oracle.replication_index)
            active &= np.sum(np.abs(nxt - cur), axis=-1) > tol
            cur = nxt
            if not active.any():
                break
        else:
            i = oracle.replication_index + int(np.argmax(active.reshape(-1)))
            raise ConvergenceError(f"replication {i}: fixed point did not converge at "
                                   f"step {j}", step=j, replication=i)
        u = cur
        nodes[..., j, :] = u
    return Trajectory(SchemeKind.IMPLICIT_EULER, g, nodes, oracle.eval_count)


def run_scheme(oracle: NoisyOracle | ChunkOracle, scheme: SchemeKind, n: int, taus=None,
               ie_tol: float = 1e-12, ie_max_iter: int = 100) -> Trajectory:
    if scheme is SchemeKind.EXPLICIT_EULER:
        return run_explicit_euler(oracle, n, taus=taus)
    if scheme is SchemeKind.RUNGE_KUTTA2:
        return run_rk2(oracle, n, taus=taus)
    return run_implicit_euler(oracle, n, tol=ie_tol, max_iter=ie_max_iter, taus=taus)


# ---------------------------------------------------------------------------
# Local quadrature-error diagnostic


@dataclasses.dataclass(frozen=True)
class MartingaleDiagnostic:
    """Monte Carlo summary of the per-step local quadrature error.

    For each step, the error is the exact increment of the solution minus
    h times its derivative at the random evaluation point.  It has
    conditional mean zero, which ``step_means`` estimates; ``max_abs`` is the
    largest magnitude seen across steps and replications.
    """

    n: int
    reps: int
    step_means: np.ndarray
    step_ses: np.ndarray
    max_abs: float

    @property
    def max_standardized(self) -> float:
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(self.step_ses > 0, np.abs(self.step_means) / self.step_ses, 0.0)
        return float(np.max(z))


def martingale_diagnostic(n: int, reps: int, seed, solution=exact_solution_A,
                          derivative=d_exact_solution_A, a: float = 0.0,
                          b: float = 1.0) -> MartingaleDiagnostic:
    """Estimate E[increment - h z'(theta)] per step over fresh theta draws.

    Defaults to test problem A, whose solution and derivative are analytic.
    """
    if n < 1 or reps < 2:
        raise DomainError("need n >= 1 and reps >= 2")
    h = (b - a) / n
    knots = a + h * np.arange(n + 1)
    increments = np.asarray(solution(knots[1:])) - np.asarray(solution(knots[:-1]))
    rng = np.random.default_rng(seed)
    thetas = knots[:-1][None, :] + h * rng.random((reps, n))
    e = increments[None, :] - h * np.asarray(derivative(thetas))
    means = e.mean(axis=0)
    ses = e.std(axis=0, ddof=1) / np.sqrt(reps)
    return MartingaleDiagnostic(n=n, reps=reps, step_means=means, step_ses=ses,
                                max_abs=float(np.max(np.abs(e))))
