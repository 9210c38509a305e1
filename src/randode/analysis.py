"""Sup-norm error measurement and Monte Carlo statistics over scheme runs.

The central object is an :class:`ErrorBatch`: N independent replications of
the sup-norm error of one (scheme, problem, n, noise) cell, sorted ascending.
From a batch we derive the order-statistic multiplier estimate
(:func:`xi_hat`), empirical exceedance curves (:func:`tail_curve`) and
log-log convergence slopes (:func:`convergence_slope`).  Confidence bands
around a single run are built by :func:`confidence_band`.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import pickle
import tempfile
import warnings

import numpy as np

from .exceptions import DomainError, ReferenceSolutionError
from .noise import _BLOCK_ELEMS, ChunkOracle, NoiseModel, exact_info, make_oracle
from .problems import IvpSpec, exact_solution_A
from .schemes import SchemeKind, Trajectory, run_scheme, write_csv

_WILSON_Z = 1.959963984540054  # two-sided 95%


# ---------------------------------------------------------------------------
# Reference solutions


@dataclasses.dataclass(frozen=True)
class ReferenceSolution:
    """Either an analytic map t -> z(t) or a dense cached grid with linear lookup."""

    kind: str  # "analytic" | "cached-dense"
    d: int
    fn: object = None
    vectorized: bool = True
    grid_ts: np.ndarray = None
    grid_values: np.ndarray = None
    provenance: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def analytic(cls, fn, d: int = 1, vectorized: bool = True, provenance=None):
        return cls(kind="analytic", d=d, fn=fn, vectorized=vectorized,
                   provenance=provenance or {})

    @classmethod
    def cached_dense(cls, grid_ts, grid_values, provenance=None):
        grid_values = np.asarray(grid_values, dtype=float)
        if grid_values.ndim == 1:
            grid_values = grid_values[:, None]
        return cls(kind="cached-dense", d=grid_values.shape[1],
                   grid_ts=np.asarray(grid_ts, dtype=float),
                   grid_values=grid_values, provenance=provenance or {})

    def values_at(self, ts) -> np.ndarray:
        """Reference values at the given times, shape (len(ts), d)."""
        ts = np.asarray(ts, dtype=float)
        if self.kind == "analytic":
            if self.vectorized:
                out = np.asarray(self.fn(ts), dtype=float)
            else:
                out = np.asarray([self.fn(t) for t in ts], dtype=float)
            if out.ndim == 1:
                out = out[:, None]
        else:
            lo, hi = self.grid_ts[0], self.grid_ts[-1]
            if ts.size and (ts.min() < lo - 1e-12 or ts.max() > hi + 1e-12):
                raise ReferenceSolutionError(
                    f"reference only covers [{lo}, {hi}]")
            out = np.empty((ts.shape[0], self.d))
            for k in range(self.d):
                out[:, k] = np.interp(ts, self.grid_ts, self.grid_values[:, k])
        if not np.all(np.isfinite(out)):
            raise ReferenceSolutionError("reference produced non-finite values")
        return out


# ---------------------------------------------------------------------------
# Sup-norm error


def _interior_offsets(h: float, subsamples: int) -> np.ndarray:
    return h * np.arange(1, subsamples + 1) / (subsamples + 1)


def _reference_grids(ref: ReferenceSolution, knots: np.ndarray, dt: np.ndarray):
    """Reference values at the knots and at every interior offset."""
    ref_knots = ref.values_at(knots)
    ref_int = np.empty((dt.shape[0], knots.shape[0] - 1, ref_knots.shape[1]))
    for k, off in enumerate(dt):
        ref_int[k] = ref.values_at(knots[:-1] + off)
    return ref_knots, ref_int


def _scratch(buf: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous array of the given shape over the front of a flat buffer."""
    return buf[:math.prod(shape)].reshape(shape)


def _sup_error_kernel(nodes: np.ndarray, h: float, ref_knots: np.ndarray,
                      ref_int: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Max one-norm deviation over knots and interior offsets.

    ``nodes`` has shape (M, n+1, d); returns (M,).  This is the frozen
    evaluation rule shared by :func:`sup_error` and the batched runner, so
    the two produce bitwise-identical results.  The interior value at offset
    dt[k] of step j is nodes[j-1] + dt[k] * slope_j, with slope_j =
    (nodes[j] - nodes[j-1]) / h, rounded in that order.

    Rows are taken in blocks of about ``_BLOCK_ELEMS`` node values (at least
    one row).  Every deviation of a block is written into one reused scratch
    array, so the kernel needs O(block) memory whatever M and n are, and its
    working set stays in cache.
    """
    M, n1, d = nodes.shape
    rows = max(1, min(M, _BLOCK_ELEMS // (n1 * d)))
    slope_buf = np.empty(rows * (n1 - 1) * d)
    dev_buf = np.empty(rows * n1 * d)
    sum_buf = np.empty(rows * n1) if d > 1 else None
    row_max = np.empty(rows)
    err = np.empty(M)

    def max_norm(dev, out):
        """Per row, the largest one-norm of dev (b, width, d), into out."""
        np.abs(dev, out=dev)
        norms = dev[..., 0] if d == 1 else np.sum(dev, axis=2,
                                                  out=_scratch(sum_buf, dev.shape[:2]))
        return np.max(norms, axis=1, out=out)

    for r0 in range(0, M, rows):
        block = nodes[r0:r0 + rows]
        b = block.shape[0]
        out = err[r0:r0 + b]
        max_norm(np.subtract(block, ref_knots, out=_scratch(dev_buf, block.shape)), out)
        slopes = np.subtract(block[:, 1:], block[:, :-1],
                             out=_scratch(slope_buf, (b, n1 - 1, d)))
        np.divide(slopes, h, out=slopes)
        dev = _scratch(dev_buf, slopes.shape)
        for k in range(dt.shape[0]):
            np.multiply(dt[k], slopes, out=dev)
            np.add(block[:, :-1], dev, out=dev)
            np.subtract(dev, ref_int[k], out=dev)
            np.maximum(out, max_norm(dev, row_max[:b]), out=out)
    return err


def sup_error(tr: Trajectory, ref: ReferenceSolution, subsamples_per_step: int = 8) -> float:
    """Sup over knots and equispaced interior points of ||ref(t) - run(t)||.

    Interior points sit at offsets k/(subsamples_per_step+1) of each
    subinterval, k = 1..subsamples_per_step.
    """
    if subsamples_per_step < 1:
        raise DomainError("subsamples_per_step must be >= 1")
    knots = tr.grid.knots
    dt = _interior_offsets(tr.grid.h, subsamples_per_step)
    ref_knots, ref_int = _reference_grids(ref, knots, dt)
    return float(_sup_error_kernel(tr.nodes[None, :, :], tr.grid.h, ref_knots, ref_int, dt)[0])


# ---------------------------------------------------------------------------
# Monte Carlo batches


@dataclasses.dataclass(frozen=True)
class BatchCell:
    """Labels identifying one Monte Carlo cell."""

    problem: str
    scheme: SchemeKind
    n: int
    noise_kind: str
    delta: float
    delta_label: str = ""


@dataclasses.dataclass(frozen=True)
class ErrorBatch:
    """Sorted sup-norm errors of N independent replications of one cell."""

    cell: BatchCell
    errors: np.ndarray
    master_seed: object
    N: int

    def write_csv(self, path):
        write_csv(path, ["rank", "error"], zip(range(1, self.N + 1), self.errors))


def _chunk_errors_vectorized(problem: IvpSpec, scheme: SchemeKind, n: int,
                             noise: NoiseModel, master_seed, lo: int, hi: int,
                             dt, ref_knots, ref_int, perturb_eta: bool,
                             ie_tol: float, ie_max_iter: int) -> np.ndarray:
    """All replication errors in [lo, hi) from one scheme run over the chunk's rows."""
    evals = 2 * n if scheme is SchemeKind.RUNGE_KUTTA2 else n
    tr = run_scheme(ChunkOracle(problem, noise, master_seed, lo, hi, evals, perturb_eta),
                    scheme, n, ie_tol=ie_tol, ie_max_iter=ie_max_iter)
    return _sup_error_kernel(tr.nodes, tr.grid.h, ref_knots, ref_int, dt)


def _chunk_errors_scalar(problem: IvpSpec, scheme: SchemeKind, n: int,
                         noise: NoiseModel, master_seed, lo: int, hi: int,
                         dt, ref_knots, ref_int, perturb_eta: bool,
                         ie_tol: float, ie_max_iter: int) -> np.ndarray:
    """The replication errors in [lo, hi), one scheme run per replication."""
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        oracle = make_oracle(problem, noise, master_seed, i, perturb_eta=perturb_eta)
        tr = run_scheme(oracle, scheme, n, ie_tol=ie_tol, ie_max_iter=ie_max_iter)
        out[i - lo] = _sup_error_kernel(tr.nodes[None], tr.grid.h, ref_knots, ref_int, dt)[0]
    return out


def _batch_task(args):
    batched, problem, scheme, n, noise, master_seed, lo, *rest = args
    run = _chunk_errors_vectorized if batched else _chunk_errors_scalar
    return lo, run(problem, scheme, n, noise, master_seed, lo, *rest)


def run_batch(problem: IvpSpec, reference: ReferenceSolution, scheme: SchemeKind,
              n: int, noise: NoiseModel, N: int, master_seed, *,
              parallelism: int = 1, subsamples_per_step: int = 8,
              perturb_eta: bool = False, ie_tol: float = 1e-12,
              ie_max_iter: int = 100, chunk_size: int = 8192,
              delta_label: str = "") -> ErrorBatch:
    """N independent replications of the cell's sup-norm error, sorted.

    Replication i draws from streams keyed by (master_seed, i), so the result
    is bitwise-identical for fixed (cell, N, master_seed) at any parallelism
    or chunk partition.  Cells on one-dimensional problems with vectorizable
    right-hand sides run batched, a chunk of replications per scheme run,
    except implicit Euler under fresh (``ee``/``rk``) noise, whose iterations
    draw a varying number of values; everything else runs replication by
    replication.  Both routes give bitwise-identical errors.  A right-hand
    side that cannot be pickled (a lambda or closure) runs its chunks
    serially, with a RuntimeWarning, whatever the parallelism.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if subsamples_per_step < 1:
        raise DomainError("subsamples_per_step must be >= 1")
    h = (problem.b - problem.a) / n
    knots = problem.a + h * np.arange(n + 1)
    dt = _interior_offsets(h, subsamples_per_step)
    ref_knots, ref_int = _reference_grids(reference, knots, dt)

    batched = (problem.d == 1 and problem.rhs_vectorized
               and not (scheme is SchemeKind.IMPLICIT_EULER and noise.fresh))

    tasks = []
    for lo in range(0, N, chunk_size):
        hi = min(lo + chunk_size, N)
        tasks.append((batched, problem, scheme, n, noise, master_seed, lo, hi,
                      dt, ref_knots, ref_int, perturb_eta, ie_tol, ie_max_iter))

    errors = np.empty(N)
    pooled = parallelism > 1 and len(tasks) > 1
    if pooled:
        try:
            pickle.dumps(tasks[0])
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            warnings.warn(f"running the chunks serially: they cannot be sent to worker "
                          f"processes ({exc})", RuntimeWarning, stacklevel=2)
            pooled = False
    if pooled:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            for lo, chunk in pool.map(_batch_task, tasks):
                errors[lo:lo + chunk.shape[0]] = chunk
    else:
        for task in tasks:
            lo, chunk = _batch_task(task)
            errors[lo:lo + chunk.shape[0]] = chunk

    cell = BatchCell(problem=problem.name or "custom", scheme=scheme, n=n,
                     noise_kind=noise.kind, delta=noise.delta,
                     delta_label=delta_label or repr(noise.delta))
    return ErrorBatch(cell=cell, errors=np.sort(errors), master_seed=master_seed, N=N)


# ---------------------------------------------------------------------------
# Quantile statistic, tail curves, bands


@dataclasses.dataclass(frozen=True)
class QuantileEstimate:
    """Order-statistic estimate of the band multiplier at level 1 - epsilon."""

    epsilon: float
    xi_hat: float
    denom: float


def order_statistic_index(epsilon: float, N: int) -> int:
    """1-based index ceil((1 - epsilon) N), guarded against float fuzz."""
    target = (1.0 - epsilon) * N
    return int(math.ceil(target - 1e-9))


def xi_hat(batch: ErrorBatch, epsilon: float, gamma: float) -> QuantileEstimate:
    """r_{ceil((1-eps)N):N} divided by max(n^-gamma, delta)."""
    if batch.N < 1 or batch.errors.size < 1:
        raise DomainError("empty batch")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    idx = order_statistic_index(epsilon, batch.N)
    if idx < 1 or idx > batch.N:
        raise DomainError(f"order statistic index {idx} out of range [1, {batch.N}]")
    denom = max(float(batch.cell.n) ** -gamma, batch.cell.delta)
    return QuantileEstimate(epsilon=epsilon, xi_hat=float(batch.errors[idx - 1]) / denom,
                            denom=denom)


def wilson_interval(count: int, n: int, z: float = _WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclasses.dataclass(frozen=True)
class TailCurve:
    """Empirical P(error > xi * max(h^gamma, delta)) along a xi grid."""

    xis: np.ndarray
    probs: np.ndarray
    N: int
    wilson_low: np.ndarray
    wilson_high: np.ndarray

    def write_csv(self, path):
        write_csv(path, ["xi", "prob", "wilson_low", "wilson_high"],
                  zip(self.xis, self.probs, self.wilson_low, self.wilson_high))


def tail_curve(batch: ErrorBatch, gamma: float, xi_grid) -> TailCurve:
    """Exceedance fraction per xi, with Wilson interval bounds."""
    xis = np.asarray(xi_grid, dtype=float)
    if np.any(np.diff(xis) < 0):
        raise DomainError("xi_grid must be sorted ascending")
    denom = max(float(batch.cell.n) ** -gamma, batch.cell.delta)
    # errors are sorted: count above threshold via binary search
    counts = batch.N - np.searchsorted(batch.errors, xis * denom, side="right")
    probs = counts / batch.N
    lows = np.empty_like(probs)
    highs = np.empty_like(probs)
    for i, c in enumerate(counts):
        lows[i], highs[i] = wilson_interval(int(c), batch.N)
    return TailCurve(xis=xis, probs=probs, N=batch.N, wilson_low=lows, wilson_high=highs)


@dataclasses.dataclass(frozen=True)
class ConfidenceBand:
    """A symmetric band of fixed one-norm radius around one run's interpolant."""

    trajectory: Trajectory
    radius: float
    xi: float
    epsilon: float
    ts: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def write_csv(self, path):
        d = self.center.shape[1]
        cols = ["t"]
        for tag in ("lower", "upper", "center"):
            cols += [f"{tag}{k}" if d > 1 else tag for k in range(d)]
        write_csv(path, cols, np.column_stack([self.ts, self.lower, self.upper, self.center]))

    def write_svg(self, path, reference: "ReferenceSolution" = None, title: str = ""):
        """Standalone band plot; optionally overlays a reference curve (d = 1)."""
        from .svgplot import write_band_svg
        ref_vals = reference.values_at(self.ts)[:, 0] if reference is not None else None
        write_band_svg(path, self.ts, self.lower[:, 0], self.upper[:, 0],
                       self.center[:, 0], reference=ref_vals, title=title)


def confidence_band(tr: Trajectory, gamma: float, delta: float, xi_eps: float,
                    grid_points: int = 201, epsilon: float = float("nan")) -> ConfidenceBand:
    """Band of half-width xi_eps * max(h^gamma, delta) around the interpolant."""
    if xi_eps < 0:
        raise DomainError("xi must be nonnegative")
    if grid_points < 2:
        raise DomainError("grid_points must be >= 2")
    radius = xi_eps * max(tr.grid.h ** gamma, delta)
    ts = np.linspace(tr.a, tr.b, grid_points)
    center = tr.dense(ts)
    return ConfidenceBand(trajectory=tr, radius=radius, xi=xi_eps, epsilon=epsilon,
                          ts=ts, center=center, lower=center - radius,
                          upper=center + radius)


# ---------------------------------------------------------------------------
# Convergence slopes


@dataclasses.dataclass(frozen=True)
class SlopeFit:
    """OLS slope of log(mean error) against log(n), with a 95% interval."""

    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float
    ns: tuple
    mean_errors: tuple


def fit_loglog_slope(ns, mean_errors) -> SlopeFit:
    ns = np.asarray(ns, dtype=float)
    means = np.asarray(mean_errors, dtype=float)
    if ns.shape != means.shape or ns.size < 2:
        raise DomainError("need matching arrays of at least two ladder points")
    if np.any(means <= 0):
        raise DomainError("degenerate (zero) errors cannot be fit on a log scale")
    x = np.log(ns)
    y = np.log(means)
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    dof = ns.size - 2
    if dof > 0:
        resid = y - (intercept + slope * x)
        s2 = float(np.sum(resid**2) / dof)
        stderr = math.sqrt(s2 / sxx)
        from scipy.stats import t as _t
        half = float(_t.ppf(0.975, dof)) * stderr
    else:
        stderr, half = 0.0, 0.0
    return SlopeFit(slope=slope, intercept=intercept, stderr=stderr,
                    ci_low=slope - half, ci_high=slope + half,
                    ns=tuple(int(v) for v in ns), mean_errors=tuple(float(v) for v in means))


def convergence_slope(problem: IvpSpec, reference: ReferenceSolution, scheme: SchemeKind,
                      ns, N: int, master_seed, noise: NoiseModel = None,
                      **batch_kwargs) -> SlopeFit:
    """Slope of log(mean sup-error) vs log(n) over a doubling ladder.

    Each ladder point runs its own batch of N replications; cells at
    different n use distinct seed keys derived from the master seed.
    """
    ns = [int(v) for v in ns]
    if len(ns) < 3:
        raise DomainError("need at least 3 ladder points")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise DomainError("ladder points must double")
    noise = noise or exact_info()
    means = []
    for n in ns:
        batch = run_batch(problem, reference, scheme, n, noise, N,
                          derive_cell_seed(master_seed, scheme, problem.name or "custom", n),
                          **batch_kwargs)
        means.append(float(batch.errors.mean()))
    return fit_loglog_slope(ns, means)


_SCHEME_IDS = {SchemeKind.EXPLICIT_EULER: 1, SchemeKind.IMPLICIT_EULER: 2,
               SchemeKind.RUNGE_KUTTA2: 3}
_PROBLEM_IDS = {"A": 1, "B": 2}


def derive_cell_seed(master_seed, scheme: SchemeKind, problem_name: str, n: int) -> int:
    """Stable per-cell seed from (master, scheme, problem, n); delta excluded.

    Excluding delta couples the draws of same-n cells across noise budgets, so
    budget sweeps are variance-reduced and equal-delta columns tie exactly.
    """
    pid = _PROBLEM_IDS.get(problem_name)
    if pid is None:
        pid = int(hashlib.sha256(problem_name.encode()).hexdigest()[:8], 16)
    ss = np.random.SeedSequence(master_seed, spawn_key=(_SCHEME_IDS[scheme], pid, int(n)))
    return int.from_bytes(ss.generate_state(4).tobytes(), "little")


# ---------------------------------------------------------------------------
# Cached dense reference for problem B


REF_MAGIC = b"RANDODE-REF-1\n"
DEFAULT_REF_STEPS = 2_000_000


def _rk4_dense_B(n_ref: int) -> np.ndarray:
    """Classical fourth-order one-step values of problem B on n_ref steps."""
    h = 1.0 / n_ref
    sin = math.sin
    z = 1.0
    out = np.empty(n_ref + 1)
    out[0] = z
    for j in range(n_ref):
        k1 = sin(z * z)
        y = z + 0.5 * h * k1
        k2 = sin(y * y)
        y = z + 0.5 * h * k2
        k3 = sin(y * y)
        y = z + h * k3
        k4 = sin(y * y)
        z += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j + 1] = z
    return out


def default_ref_cache(n_ref: int = DEFAULT_REF_STEPS) -> str:
    """The reference cache file: under $RANDODE_CACHE_DIR, else ~/.cache/randode."""
    base = os.environ.get("RANDODE_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "randode")
    return os.path.join(base, f"refB_rk4_{n_ref}.bin")


def _write_reference(path, header: dict, values: np.ndarray):
    """Write the cache file atomically: readers see the old file or the whole new one."""
    payload = values.astype("<f8").tobytes()
    header = dict(header, sha256=hashlib.sha256(payload).hexdigest())
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(REF_MAGIC)
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_reference(path) -> tuple:
    """The cache file's header and values, checked against the header's checksum.

    The values are read into a writeable array: ``np.interp`` copies a
    read-only one (such as ``np.frombuffer`` of bytes) on every call.
    """
    with open(path, "rb") as fh:
        if fh.read(len(REF_MAGIC)) != REF_MAGIC:
            raise ValueError("bad magic")
        header = json.loads(fh.readline().decode())
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size % 8:
            raise ValueError("payload is not a whole number of float64 values")
        values = np.empty(size // 8, dtype="<f8")
        if fh.readinto(memoryview(values).cast("B")) != size:
            raise ValueError("payload shorter than the file")
    if hashlib.sha256(memoryview(values)).hexdigest() != header.get("sha256"):
        raise ValueError("checksum mismatch")
    return header, values


def build_reference_B(n_ref: int = DEFAULT_REF_STEPS, cache_path=None) -> ReferenceSolution:
    """Dense deterministic reference for problem B, persisted to cache_path.

    cache_path defaults to :func:`default_ref_cache`.  Recomputes (and
    rewrites the cache) when the file is missing, corrupt, or was built with
    different parameters.
    """
    if n_ref < 100_000:
        raise DomainError("n_ref must be >= 1e5")
    cache_path = cache_path or default_ref_cache(n_ref)
    want = {"problem": "B", "method": "rk4", "n_ref": int(n_ref), "a": 0.0, "b": 1.0, "d": 1}
    if os.path.exists(cache_path):
        try:
            header, values = _read_reference(cache_path)
            if all(header.get(k) == v for k, v in want.items()) and values.shape == (n_ref + 1,):
                ts = np.linspace(0.0, 1.0, n_ref + 1)
                return ReferenceSolution.cached_dense(ts, values, provenance=header)
        except (ValueError, json.JSONDecodeError, OSError):
            pass  # fall through to recompute
    values = _rk4_dense_B(n_ref)
    os.makedirs(os.path.dirname(os.path.abspath(cache_path)), exist_ok=True)
    _write_reference(cache_path, want, values)
    header, values = _read_reference(cache_path)
    ts = np.linspace(0.0, 1.0, n_ref + 1)
    return ReferenceSolution.cached_dense(ts, values, provenance=dict(header))


def reference_for(problem: IvpSpec, cache_path=None,
                  n_ref: int = DEFAULT_REF_STEPS) -> ReferenceSolution:
    """The canonical reference of a built-in test problem."""
    if problem.name == "A":
        return ReferenceSolution.analytic(exact_solution_A, d=1,
                                          provenance={"problem": "A", "method": "analytic"})
    if problem.name == "B":
        return build_reference_B(n_ref=n_ref, cache_path=cache_path)
    raise DomainError(f"no canonical reference for problem {problem.name!r}")


__all__ = [
    "BatchCell", "ConfidenceBand", "ErrorBatch", "QuantileEstimate",
    "ReferenceSolution", "SlopeFit", "TailCurve", "build_reference_B",
    "confidence_band", "convergence_slope", "default_ref_cache", "derive_cell_seed",
    "fit_loglog_slope", "order_statistic_index",
    "reference_for", "run_batch", "sup_error", "tail_curve", "wilson_interval",
    "xi_hat",
]
