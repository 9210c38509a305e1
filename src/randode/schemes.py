"""The three randomized one-step integrators and their piecewise-linear output.

Each scheme advances on the uniform grid t_j = a + j h, whose last knot is b
(``np.linspace``'s knots), and evaluates the noisy oracle at a uniformly
random intermediate point theta_j drawn per step from the oracle's grid
stream.  The continuous output is the linear interpolant of the node values.

Each scheme is written once and steps a :class:`ChunkOracle`: a whole chunk
of replications (state shape (k, m, d), one row per replication in each of
k delta columns) or one replication (its :class:`NoisyOracle` view, state
shape (d,)) with the same elementwise arithmetic, so the two give
bitwise-identical nodes.  Every run is streamed: it draws its taus one
block of ``_BLOCK_STEPS`` steps at a time, announcing the scheme's oracle
evaluations per step, steps each block into one reused node block, and
computes a block's evaluation times in one array op (:meth:`_Run.blocks`).
A node sink, ``sink(j0, nodes)``, is called with each block as soon as it
is stepped, so a chunk run holds one block of nodes and tapes whatever n
is.  Without a sink, the run copies every block into the nodes of its
:class:`Trajectory`.
"""

from __future__ import annotations

import csv
import dataclasses
import enum

import numpy as np

from .exceptions import ConvergenceError, DomainError, NumericalError, _check_counts
from .noise import _BLOCK_ELEMS, ChunkOracle, NoiseModel
from .problems import IvpSpec, d_exact_solution_A, exact_solution_A

#: steps of one block of a chunk run: its tapes hold this many steps of every
#: row at a time
_BLOCK_STEPS = 256
#: the fewest steps of a run's sub-block, and so of a sup-error kernel block
_MIN_SINK_STEPS = 8


def _block_steps(values_per_step: int) -> int:
    """Steps of a run's sub-block, of a sup-error kernel block and of a reference lookup
    block: about _BLOCK_ELEMS values."""
    return max(_MIN_SINK_STEPS, _BLOCK_ELEMS // values_per_step)


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
    if not rho > 0:  # NaN too
        raise DomainError(f"rho must be positive, got {rho!r}")
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
    """The uniform knots of one run, ``np.linspace(a, b, n + 1)``."""

    n: int
    h: float
    knots: np.ndarray   # (n+1,)


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Node values of one scheme run plus its linear interpolant."""

    scheme: SchemeKind
    grid: Grid
    nodes: np.ndarray   # (n+1, d); a chunk: (n+1, k, m, d); None when a node sink took them
    eval_count: int
    failures: list = None  # with a node sink: per column, its error or None (_Run.failures)

    @property
    def a(self) -> float:
        return float(self.grid.knots[0])

    @property
    def b(self) -> float:
        return float(self.grid.knots[-1])

    def at(self, t: float) -> np.ndarray:
        """Interpolant value at one time; exact at knots."""
        if not self.a <= t <= self.b:  # NaN too
            raise DomainError(f"t={t} outside [{self.a}, {self.b}]")
        return self.dense(np.array([t]))[0]

    def dense(self, ts) -> np.ndarray:
        """Interpolant values at many times, shape (len(ts), d)."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and not (ts.min() >= self.a and ts.max() <= self.b):  # NaN too
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


class _Run:
    """One scheme run: its grid, and its nodes stepped in blocks into one reused node block.

    The taus are drawn a tape block of ``_BLOCK_STEPS`` steps at a time,
    announcing ``evals_per_step`` oracle evaluations a step, and
    ``sink(j0, nodes)`` is called with every block, nodes j0 .. j0 + steps
    of every row, once it is stepped.  Without a sink, the run's own sink
    copies every block into the (n + 1, ...) nodes of its trajectory.

    Each row's first failure is recorded, and the run goes on; rows are
    independent, so each delta column's failure is its lowest failing
    replication's (:meth:`failures`).  A run without a sink raises the
    first of them once the last block is stepped.
    """

    def __init__(self, oracle, n: int, sink, evals_per_step: int = 1):
        _check_counts(n=n)
        a, b = oracle.base.a, oracle.base.b
        self.grid = Grid(n=n, h=(b - a) / n, knots=np.linspace(a, b, n + 1))
        self.oracle = oracle
        self.evals_per_step = evals_per_step
        self._sub = _block_steps(oracle.eta_tilde.size)
        self.block = min(n, _BLOCK_STEPS, self._sub)  # steps of the longest block
        self.nodes = np.empty((self.block + 1,) + oracle.eta_tilde.shape)
        # every node of a run without a sink, or None
        self.kept = np.empty((n + 1,) + oracle.eta_tilde.shape) if sink is None else None
        self.sink = self._keep if sink is None else sink
        rows = oracle.eta_tilde[..., 0].size
        # per row: first failing step (n + 1 while it has none), and whether it did not converge
        self._failed, self._stuck = np.full(rows, n + 1), np.zeros(rows, dtype=bool)

    def _keep(self, j0: int, nodes):
        self.kept[j0:j0 + nodes.shape[0]] = nodes

    def fail(self, rows, steps, stuck: bool = False):
        """Record a failure at steps for the flagged rows, unless they failed earlier."""
        rows = np.reshape(rows, -1)
        new = rows & (steps < self._failed)
        self._failed[new], self._stuck[new] = np.broadcast_to(steps, rows.shape)[new], stuck

    def failures(self) -> list:
        """Per delta column, its lowest failing replication's error, or None.

        A NumericalError at that row's first non-finite node or stage, or a
        ConvergenceError, naming the replication and step.
        """
        k = self.oracle.eta_tilde.shape[0] if self.oracle.eta_tilde.ndim == 3 else 1
        out = []
        for failed, stuck in zip(self._failed.reshape(k, -1), self._stuck.reshape(k, -1)):
            row = int(np.argmax(failed <= self.grid.n))  # the lowest failing replication
            i, j = self.oracle.replication_index + row, int(failed[row])
            if j > self.grid.n:
                out.append(None)
            elif stuck[row]:
                out.append(ConvergenceError(f"replication {i}: fixed point did not converge at "
                                            f"step {j}", step=j, replication=i))
            else:
                out.append(NumericalError(f"replication {i}: non-finite value at step {j}",
                                          step=j, replication=i))
        return out

    def blocks(self):
        """Yield (j0, htaus, thetas, nodes) per block: step j = j0 + k fills nodes[k], with
        htaus[k - 1] = h tau_j and its evaluation point thetas[k - 1] = t_{j-1} + h tau_j.

        A block's times are computed in one array op each, shaped as the
        taus: (steps,) for one replication, (steps, m, 1) for a chunk.  Taus
        are drawn per tape block of ``_BLOCK_STEPS`` steps, each stepped in
        sub-blocks of :func:`_block_steps` steps, so the node block stays
        small however many rows a state has.  Each block is checked for
        non-finite nodes once stepped, then handed to the sink.  Without a
        sink, the first failing column's error (:meth:`failures`) is raised
        after the last block.
        """
        n, h, knots = self.grid.n, self.grid.h, self.grid.knots
        last = self.oracle.eta_tilde
        for t0 in range(0, n, _BLOCK_STEPS):
            tape_steps = min(_BLOCK_STEPS, n - t0)
            taus = self.oracle.draw_taus(tape_steps, self.evals_per_step)
            for j0 in range(t0, t0 + tape_steps, self._sub):
                steps = min(self._sub, t0 + tape_steps - j0)
                nodes = self.nodes[:steps + 1]
                nodes[0] = last
                htaus = h * taus[j0 - t0:j0 - t0 + steps]
                left = knots[j0:j0 + steps].reshape((steps,) + (1,) * (htaus.ndim - 1))
                yield j0, htaus, left + htaus, nodes
                last = nodes[steps]
                self.check(nodes[1:], j0)
                self.sink(j0, nodes)
        if self.kept is not None and (self._failed <= n).any():
            raise next(exc for exc in self.failures() if exc is not None)

    def check(self, values, j0: int):
        """Record each row's first non-finite value among values, steps j0 + 1, j0 + 2, ..."""
        # min and max are NaN or infinite iff some value is, and make no temporaries
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            ok = np.isfinite(values).all(axis=-1).reshape(values.shape[0], -1)
            self.fail(~ok.all(axis=0), j0 + 1 + np.argmin(ok, axis=0))

    def result(self, scheme: SchemeKind) -> Trajectory:
        return Trajectory(scheme, self.grid, self.kept, self.oracle.eval_count,
                          None if self.kept is not None else self.failures())


def run_explicit_euler(oracle: ChunkOracle, n: int, sink=None) -> Trajectory:
    """W_j = W_{j-1} + h f~(theta_j, W_{j-1}); one oracle call per step."""
    run = _Run(oracle, n, sink)
    h = run.grid.h
    for _, _, thetas, nodes in run.blocks():
        w = nodes[0]
        for k in range(1, nodes.shape[0]):
            w = np.add(w, h * oracle.noisy_eval(thetas[k - 1], w), out=nodes[k])
    return run.result(SchemeKind.EXPLICIT_EULER)


def run_rk2(oracle: ChunkOracle, n: int, sink=None) -> Trajectory:
    """Two-stage step: a tau-scaled stage at t_{j-1}, then the update at theta_j.

    Two oracle calls per step.  A block's stages are written into one reused
    buffer and checked with the block: a row whose stage is non-finite
    records a NumericalError at that step, as a node does, even if the
    update maps it back to a finite node.
    """
    run = _Run(oracle, n, sink, evals_per_step=2)
    h, knots = run.grid.h, run.grid.knots
    stages = np.empty((run.block,) + oracle.eta_tilde.shape)
    for j0, htaus, thetas, nodes in run.blocks():
        v = nodes[0]
        for k in range(1, nodes.shape[0]):
            stage = np.add(v, htaus[k - 1] * oracle.noisy_eval(knots[j0 + k - 1], v),
                           out=stages[k - 1])
            v = np.add(v, h * oracle.noisy_eval(thetas[k - 1], stage), out=nodes[k])
        run.check(stages[:nodes.shape[0] - 1], j0)
    return run.result(SchemeKind.RUNGE_KUTTA2)


def implicit_euler_refusal(base: IvpSpec, model: NoiseModel, n: int):
    """The DomainError that implicit Euler refuses model's noise on base with, or None.

    Fresh ``ee``/``rk`` noise would redraw the map on every fixed-point
    iteration, and n steps must keep the contraction margin h (L + delta) < 1.
    """
    if model.fresh:
        return DomainError(f"implicit Euler needs exact or ie noise, not fresh {model.kind}")
    q = (base.b - base.a) / n * (base.class_params.L + model.delta) if n >= 1 else 0.0
    if not q < 1.0:
        return DomainError(f"contraction margin violated: h(L + delta) = {q} >= 1")
    return None


def run_implicit_euler(oracle: ChunkOracle, n: int, tol: float = 1e-12,
                       max_iter: int = 100, sink=None) -> Trajectory:
    """U_j = U_{j-1} + h f~(theta_j, U_j), solved by fixed-point iteration.

    Requires the contraction margin h (L + delta) < 1, with L the problem's
    Lipschitz constant.  Iteration starts at U_{j-1} and stops once successive
    iterates differ by at most tol in one-norm, which leaves a residual of at
    most tol (1 + q) / (1 - q) with q = h (L + delta).  Every inner iteration
    is one oracle evaluation.  The noisy field must be fixed (``exact`` or ``ie``
    noise); fresh ``ee``/``rk`` noise raises DomainError before anything is drawn.

    On a chunk every row iterates until it converges and is then frozen at
    that iterate, so each row gets exactly its own replication's result.  A
    row whose iterate is non-finite records a NumericalError at that step
    and stays at its previous node; a row still iterating after ``max_iter``
    iterations records a ConvergenceError and goes on from its last iterate.
    The other rows keep stepping, and each column fails with its lowest
    failing replication's error (:meth:`_Run.failures`).
    """
    if not tol > 0:  # NaN too
        raise DomainError("tol must be positive")
    _check_counts(max_iter=max_iter)
    refusal = implicit_euler_refusal(oracle.base, oracle.model, n)
    if refusal is not None:
        raise refusal
    run = _Run(oracle, n, sink)
    h = run.grid.h
    for j0, _, thetas, nodes in run.blocks():
        u = nodes[0]
        for k in range(1, nodes.shape[0]):
            j = j0 + k
            theta = thetas[k - 1]
            cur = u
            active = np.ones(u.shape[:-1], dtype=bool)
            for _ in range(max_iter):
                nxt = np.where(active[..., None], u + h * oracle.noisy_eval(theta, cur), cur)
                if not np.isfinite(nxt).all():  # such a row fails at step j, stopped at U_{j-1}
                    finite = np.isfinite(nxt).all(axis=-1)
                    run.fail(~finite, j)
                    nxt, active = np.where(finite[..., None], nxt, u), active & finite
                active &= np.sum(np.abs(nxt - cur), axis=-1) > tol
                cur = nxt
                if not active.any():
                    break
            else:
                run.fail(active, j, stuck=True)
            u = cur
            nodes[k] = u
    return run.result(SchemeKind.IMPLICIT_EULER)


def run_scheme(oracle: ChunkOracle, scheme: SchemeKind, n: int, sink=None) -> Trajectory:
    if scheme is SchemeKind.EXPLICIT_EULER:
        return run_explicit_euler(oracle, n, sink=sink)
    if scheme is SchemeKind.RUNGE_KUTTA2:
        return run_rk2(oracle, n, sink=sink)
    return run_implicit_euler(oracle, n, sink=sink)


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
    _check_counts(n=n)
    _check_counts(2, reps=reps)
    h, knots = (b - a) / n, np.linspace(a, b, n + 1)
    increments = np.asarray(solution(knots[1:])) - np.asarray(solution(knots[:-1]))
    rng = np.random.default_rng(seed)
    thetas = knots[:-1][None, :] + h * rng.random((reps, n))
    e = increments[None, :] - h * np.asarray(derivative(thetas))
    means = e.mean(axis=0)
    ses = e.std(axis=0, ddof=1) / np.sqrt(reps)
    return MartingaleDiagnostic(n=n, reps=reps, step_means=means, step_ses=ses,
                                max_abs=float(np.max(np.abs(e))))
