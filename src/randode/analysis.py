"""Sup-norm error measurement and Monte Carlo statistics over scheme runs.

The central object is an :class:`ErrorBatch`: N independent replications of
the sup-norm error of one (scheme, problem, n, noise) cell, sorted ascending.
From a batch we derive the order-statistic multiplier estimate
(:func:`xi_hat`), empirical exceedance curves (:func:`tail_curve`) and
log-log convergence slopes (:func:`convergence_slope`).  Confidence bands
around a single run are built by :func:`confidence_band`.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import errno
import json
import math
import os
import sys
import warnings

import numpy as np

from .exceptions import DomainError, ReferenceSolutionError, WorkerError, _check_counts
from .noise import ChunkOracle, NoiseModel, NoisyOracle, exact_info
from .problems import IvpSpec, exact_solution_A
from .schemes import (SchemeKind, Trajectory, _block_steps, implicit_euler_refusal, run_scheme,
                      write_csv)

_WILSON_Z = 1.959963984540054  # two-sided 95%


# ---------------------------------------------------------------------------
# Reference solutions


@dataclasses.dataclass(frozen=True)
class ReferenceSolution:
    """Either an analytic map t -> z(t) or dense values on a uniform grid with linear lookup:
    an (n + 1, d) array (:meth:`cached_dense`) or a cache file read a slice at a time.  A table
    row's grids are looked up a block of steps at a time (:func:`_reference_grids`)."""

    kind: str  # "analytic" | "cached-dense"
    d: int
    fn: object = None
    a: float = None
    b: float = None
    grid_values: object = None  # an (n + 1, d) array, or a _CacheValues
    provenance: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def analytic(cls, fn, d: int = 1, provenance=None):
        """fn maps an array of times to the values there, shape (len(ts),) or (len(ts), d)."""
        return cls(kind="analytic", d=d, fn=fn, provenance=provenance or {})

    @classmethod
    def cached_dense(cls, a, b, grid_values, provenance=None):
        """Values at the n + 1 knots of [a, b] that ``np.linspace(a, b, n + 1)`` gives.

        Knot j is ``j * ((b - a) / n) + a`` for j < n, and knot n is b; the
        knots are implied, so only the values are held.
        """
        grid_values = np.asarray(grid_values, dtype=float)
        if grid_values.ndim == 1:
            grid_values = grid_values[:, None]
        return cls(kind="cached-dense", d=grid_values.shape[1], a=float(a), b=float(b),
                   grid_values=grid_values, provenance=provenance or {})

    def values_at(self, ts) -> np.ndarray:
        """Reference values at the given times, shape (len(ts), d)."""
        ts = np.asarray(ts, dtype=float)
        if self.kind == "analytic":
            out = np.asarray(self.fn(ts), dtype=float)
            out = out[:, None] if out.ndim == 1 else out
        else:
            lo, hi = self.a, self.b
            if ts.size and not (ts.min() >= lo - 1e-12 and ts.max() <= hi + 1e-12):
                raise ReferenceSolutionError(f"reference only covers [{lo}, {hi}]")
            out = self._interp(ts)
        if out.shape != (len(ts), self.d):
            raise ReferenceSolutionError(f"reference values of shape {out.shape}, d = {self.d}")
        if not np.all(np.isfinite(out)):
            raise ReferenceSolutionError("reference produced non-finite values")
        return out

    def _knots(self, j: np.ndarray) -> np.ndarray:
        """Knot j (float indices), as ``np.linspace`` computes it."""
        n = self.grid_values.shape[0] - 1
        return np.where(j < n, j * ((self.b - self.a) / n) + self.a, self.b)

    def _interp(self, ts: np.ndarray) -> np.ndarray:
        """``np.interp`` over the implied knots, bit for bit, for times in [a, b] ± 1e-12.

        Times outside [a, b] are clamped to the end values, as ``np.interp``
        clamps them.  j starts from its estimate and is corrected by exact
        comparisons with the knots to the largest j < n with knot j <= t, the
        interval ``np.interp``'s binary search finds; the value there is
        ``np.interp``'s, in its rounding order.
        """
        a, b, v = self.a, self.b, self.grid_values
        n = v.shape[0] - 1
        t = np.clip(ts, a, b)
        j = np.clip(np.floor((t - a) * (n / (b - a))), 0, n - 1)
        while (down := self._knots(j) > t).any():
            j[down] -= 1
        while (up := (j < n - 1) & (self._knots(j + 1) <= t)).any():
            j[up] += 1
        j = j.astype(np.intp)  # integers below 2**53: the same knots
        vals = v[np.concatenate([j, j + 1, [n]])]  # one read of the values
        x0, x1 = self._knots(j)[:, None], self._knots(j + 1)[:, None]
        v0, v1 = vals[:j.size], vals[j.size:-1]
        out = (v1 - v0) / (x1 - x0) * (t[:, None] - x0) + v0
        at_knot = t == x0[:, 0]
        out[at_knot] = v0[at_knot]
        out[t == b] = vals[-1]
        return out


# ---------------------------------------------------------------------------
# Sup-norm error


def _interior_offsets(h: float, subsamples: int) -> np.ndarray:
    return h * np.arange(1, subsamples + 1) / (subsamples + 1)


def _reference_grids(ref: ReferenceSolution, knots: np.ndarray, dt: np.ndarray):
    """Reference values at the m + 1 knots, (m + 1, d), and at every interior offset, (K, m, d).

    The grids are allocated once and filled a block of steps at a time (:func:`_block_steps`
    of a step's K + 1 times and their values): one ``values_at`` call a block, on knot j,
    j + dt_1, ..., j + dt_K for each step j, in t order, then one on knot m.  So the lookup
    holds the grids and one block's temporaries at any m, and the blocks read a cached
    reference's file once, in ascending order.  Each value equals a lookup of its time alone,
    bit for bit.
    """
    m, K, d = knots.shape[0] - 1, dt.shape[0], ref.d
    ref_knots, ref_int = np.empty((m + 1, d)), np.empty((K, m, d))
    steps = _block_steps((K + 1) * (d + 1))  # a step's times and values
    for j0 in range(0, m, steps):
        j1 = min(j0 + steps, m)
        ts = np.empty((j1 - j0, K + 1))
        ts[:, 0] = knots[j0:j1]
        np.add(knots[j0:j1, None], dt, out=ts[:, 1:])
        vals = ref.values_at(ts.reshape(-1)).reshape(j1 - j0, K + 1, d)
        ref_knots[j0:j1] = vals[:, 0]
        ref_int[:, j0:j1] = vals[:, 1:].transpose(1, 0, 2)
    ref_knots[m] = ref.values_at(knots[m:])[0]
    return ref_knots, ref_int


def _scratch(buf: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous array of the given shape over the front of a flat buffer."""
    return buf[:math.prod(shape)].reshape(shape)


#: the pruning bound's rounding margin, in units of d u (u the unit roundoff)
_MARGIN_ULPS = 64
_U = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def _step_terms(ref_knots: np.ndarray, ref_int: np.ndarray, theta: np.ndarray):
    """Per step j of a block: c_j = max_k ||(1 - theta_k) R_{j-1} + theta_k R_j -
    ref_int[k, j]||_1, the chord's largest deviation from the reference, and Rt_j =
    max(||R_{j-1}||_1, ||R_j||_1) + c_j, which bounds the one-norm of every reference
    value of the step."""
    th = theta[:, None, None]
    chord = (1.0 - th) * ref_knots[:-1] + th * ref_knots[1:]
    c = np.sum(np.abs(chord - ref_int), axis=2).max(axis=0)
    at_knots = np.sum(np.abs(ref_knots), axis=1)
    return c, np.maximum(at_knots[:-1], at_knots[1:]) + c


def _kernel_buffers(steps: int, M: int, d: int, K: int) -> tuple:
    """The kernel's scratch for blocks of up to steps steps of M rows and K offsets: slopes,
    deviations (at least the K offsets' deviations and references of one pair, for the
    gathered pass), their one-norms (d > 1), the live flags and one value a row."""
    dev = np.empty(max((steps + 1) * M, 2 * K) * d)
    return (np.empty(steps * M * d), dev, np.empty(dev.size // d) if d > 1 else None,
            np.empty(steps * M, dtype=bool), np.empty(M))


def _sup_error_kernel(nodes: np.ndarray, h: float, ref_knots: np.ndarray,
                      ref_int: np.ndarray, dt: np.ndarray, err: np.ndarray = None,
                      scratch: dict = None) -> np.ndarray:
    """Max one-norm deviation over knots and interior offsets, folded into ``err``.

    ``nodes`` has shape (n+1, M, d), step-major; returns (M,): ``err``
    itself, updated in place, when it is given (a running max), else a new
    array.  This is the frozen evaluation rule shared by :func:`sup_error`
    and the batched runner, so the two produce bitwise-identical results.
    The interior value at offset dt[k] of step j is nodes[j-1] + dt[k] *
    slope_j, with slope_j = (nodes[j] - nodes[j-1]) / h, rounded in that
    order.

    Steps are taken in blocks of ``schemes._block_steps(M d)`` steps, the
    run's sub-blocks, so each block a sink gets is one kernel block: a
    contiguous slab of every row, in reused scratch of O(block) size.  A
    block repeats the previous block's last knot; max is exact, so that
    changes nothing.  ``scratch``, a dict that a caller passes to every call
    of one run, keeps that scratch from one call to the next.

    **Certified pruning.**  A block folds its knot deviations D_j first.
    Max is exact, so an interior deviation that cannot exceed its row's
    running max E, which is at most the row's final max, cannot change the
    result.  With theta_k = dt[k] / h, the interior value minus the
    reference is (1 - theta_k)(x_{j-1} - R_{j-1}) + theta_k (x_j - R_j) +
    (chord - ref), so in exact arithmetic every interior deviation of step
    j is at most P + c_j, with P = max(D_{j-1}, D_j) and c_j the chord's
    largest deviation from the reference, which does not depend on the row
    (:func:`_step_terms`; it also gives Rt_j, a bound on the one-norm of
    each of the step's reference values).  A (step, row) pair is evaluated
    only when

        P + c_j + kappa (Rt_j + (1 + h) tiny) > min((1 - kappa) E, lim),
        kappa = ``_MARGIN_ULPS`` d u

    with u the unit roundoff and tiny the smallest normal number.  Below
    that its computed deviations cannot exceed E, by the standard model
    fl(a op b) = (a op b)(1 + e), |e| <= u (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., ch. 2-3):

    * each node is within P of its reference in one-norm, so
      ||x_{j-1}|| + ||x_j|| <= 2 (P + Rt_j);
    * an interior value's five rounded operations (the slope's subtraction
      and division, the product with dt[k], the sum, the subtraction of the
      reference) err by at most 5.01 u (|x_{j-1}| + |x_j|) + u |e| a
      component, and the one-norm's d - 1 additions by a factor 1 + (d - 1) u;
    * the computed D_j are low by at most a factor 1 - d u, and the
      computed c_j by at most (d + 1) u c_j + 6.2 u Rt_j (theta_k, 1 -
      theta_k, the two products, the sum and the subtraction), with c_j <=
      Rt_j;

    so a computed interior deviation is at most P + c_j + (4.1 d + 18.4) u
    (P + Rt_j).  The test's own roundings (the sums, the product with
    kappa and the scaling of E) cost at most 3.1 u (E + Rt_j), and P <= E,
    because E includes the block's knots: kappa = 64 d u covers (4.1 d +
    21.5) u for every d >= 1.  The (1 + h) tiny term covers underflow: a
    multiplication or division that underflows errs by up to half the
    smallest subnormal, at most 5 d times a deviation, each scaled by at
    most dt[k] < h; additions and subtractions are exact there.  The
    standard model also needs no overflow: lim = min(h, 1) max_float / (16
    d) keeps every intermediate of a pruned pair finite, and a block whose
    Rt_j exceeds lim is evaluated whole.  A row whose E is inf or NaN, from
    non-finite nodes (a failed run, whose maxima are discarded), has no
    live pair, and it stays inf or NaN.  The test is per pair, so one row's
    non-finite nodes change no other row's test and no block's pass.

    A block with more than ``1 / _DENSE_SHARE`` of its pairs live takes the
    dense pass over every pair; one with fewer evaluates the live pairs
    only, gathered (:func:`_fold_live`).  The count is the block's own, so
    rows whose errors grow with t, which keep many pairs live, pay for the
    test and nothing else.
    """
    n1, M, d = nodes.shape
    steps = max(1, min(n1 - 1, _block_steps(M * d)))
    shape = (M, d, dt.shape[0])
    scratch = {} if scratch is None else scratch
    bufs = scratch.get(shape)
    if bufs is None or bufs[0].size < steps * M * d:
        bufs = scratch[shape] = _kernel_buffers(steps, *shape)
    slope_buf, dev_buf, sum_buf, live_buf, row_buf = bufs
    err = np.zeros(M) if err is None else err
    kappa = _MARGIN_ULPS * d * _U
    theta = dt / h
    # no intermediate of a pruned pair's interior values can overflow below this
    finite_lim = min(h, 1.0) * np.finfo(float).max / (16 * d)
    tiny = (1.0 + h) * _TINY

    def norms(dev):
        """The one-norms of dev's rows (..., d), through the reused scratch."""
        np.abs(dev, out=dev)
        return dev[..., 0] if d == 1 else np.sum(dev, axis=-1,
                                                 out=_scratch(sum_buf, dev.shape[:-1]))

    for s0 in range(0, n1 - 1, steps):
        s1 = min(s0 + steps, n1 - 1)
        S = s1 - s0
        knots = nodes[s0:s1 + 1]
        dev = norms(np.subtract(knots, ref_knots[s0:s1 + 1, None],
                                out=_scratch(dev_buf, knots.shape)))
        np.maximum(err, np.max(dev, axis=0, out=row_buf), out=err)
        c, rt = _step_terms(ref_knots[s0:s1 + 1], ref_int[:, s0:s1], theta)
        below = np.multiply(err, 1.0 - kappa, out=row_buf)
        np.minimum(below, finite_lim, out=below, where=below < np.inf)
        bound = np.maximum(dev[:-1], dev[1:], out=_scratch(slope_buf, (S, M)))
        np.add(bound, (c + kappa * (rt + tiny))[:, None], out=bound)
        live = np.greater(bound, below, out=_scratch(live_buf, (S, M)))
        count = np.count_nonzero(live)
        if count * _DENSE_SHARE > S * M or not rt.max() <= finite_lim:
            slopes = np.subtract(nodes[s0 + 1:s1 + 1], nodes[s0:s1],
                                 out=_scratch(slope_buf, (S, M, d)))
            np.divide(slopes, h, out=slopes)
            dev = _scratch(dev_buf, slopes.shape)
            for k in range(dt.shape[0]):
                np.multiply(dt[k], slopes, out=dev)
                np.add(nodes[s0:s1], dev, out=dev)
                np.subtract(dev, ref_int[k, s0:s1, None], out=dev)
                np.maximum(err, np.max(norms(dev), axis=0, out=row_buf), out=err)
        elif count:
            _fold_live(nodes[s0:s1 + 1], h, ref_int[:, s0:s1], dt, live, err,
                       slope_buf, dev_buf, norms)
    return err


#: a block takes the dense pass when more than 1 / _DENSE_SHARE of its pairs are live: a
#: gathered pair costs three to five dense ones, so the gathered pass stops paying near a
#: quarter of the pairs, and up to there its scratch fits in the dense pass's
_DENSE_SHARE = 4


def _fold_live(knots, h, ref_int, dt, live, err, slope_buf, dev_buf, norms):
    """Fold the interior deviations of a block's live (step, row) pairs into err.

    ``knots`` (S+1, M, d) are the block's nodes and ``live`` (S, M) flags
    the pairs.  Each value is rounded as the dense pass rounds it; the
    gathered pairs and their deviations are held in the kernel's scratch.
    """
    M, d = knots.shape[1:]
    idx = np.flatnonzero(live)
    L = idx.size
    flat = knots.reshape(-1, d)
    # mode "clip" writes straight into out (the indices are in range); flat[M:] is
    # every pair's second node
    x0 = np.take(flat, idx, axis=0, out=_scratch(slope_buf, (L, d)), mode="clip")
    slopes = np.take(flat[M:], idx, axis=0, out=_scratch(slope_buf[L * d:], (L, d)), mode="clip")
    np.subtract(slopes, x0, out=slopes)
    np.divide(slopes, h, out=slopes)
    best = _scratch(slope_buf[2 * L * d:], (L,))
    step, row = np.divmod(idx, M, out=(idx, _scratch(slope_buf[(2 * d + 1) * L:].view(np.intp),
                                                      (L,))))
    # every offset of a group of pairs at once: its deviations and their references
    K = dt.shape[0]
    group = dev_buf.size // (2 * K * d)
    for g0 in range(0, L, group):
        g = slice(g0, min(g0 + group, L))
        shape = (K, g.stop - g0, d)
        dev = np.multiply(dt[:, None, None], slopes[g], out=_scratch(dev_buf, shape))
        np.add(x0[g], dev, out=dev)
        np.subtract(dev, np.take(ref_int, step[g], axis=1, mode="clip",
                                 out=_scratch(dev_buf[dev.size:], shape)), out=dev)
        np.max(norms(dev), axis=0, out=best[g])
    np.maximum.at(err, row, best)


def sup_error(tr: Trajectory, ref: ReferenceSolution, subsamples_per_step: int = 8) -> float:
    """Sup over knots and equispaced interior points of ||ref(t) - run(t)||.

    Interior points sit at offsets k/(subsamples_per_step+1) of each
    subinterval, k = 1..subsamples_per_step.
    """
    _check_counts(subsamples_per_step=subsamples_per_step)
    if ref.d != tr.nodes.shape[1]:
        raise DomainError(f"the reference has d = {ref.d}, the run d = {tr.nodes.shape[1]}")
    dt = _interior_offsets(tr.grid.h, subsamples_per_step)
    ref_knots, ref_int = _reference_grids(ref, tr.grid.knots, dt)
    return float(_sup_error_kernel(tr.nodes[:, None], tr.grid.h, ref_knots, ref_int, dt)[0])


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
    span: float = 1.0  # b - a


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
                             deltas=None) -> list:
    """Per column, the replication errors in [lo, hi) from one scheme run over the chunk's rows,
    or the column's failure.

    The run has one column per delta of ``noise``'s kind (default: ``noise.delta``
    alone) on shared draws (:class:`ChunkOracle`), and is streamed: tapes, nodes
    and the error fold hold one block of steps, so memory does not grow with n.
    The run calls its node sink with each block, nodes j0 .. j0 + steps of
    every row, step-major; a block's first node is the previous block's last.
    So every knot deviation and interior value is computed from the same
    nodes as over the whole run, and max is exact: a column's errors equal
    :func:`_sup_error_kernel` over all n + 1 nodes bit for bit.  A failed
    column's rows may be non-finite; its maxima are discarded for the error
    of its lowest failing replication, the one its own run raises.
    """
    oracle = ChunkOracle(problem, noise, master_seed, lo, hi, perturb_eta, deltas)
    h = (problem.b - problem.a) / n
    errors, scratch = np.zeros(oracle.eta_tilde.shape[:-1]), {}

    def fold(j0, nodes):
        steps = nodes.shape[0] - 1
        with np.errstate(invalid="ignore"):  # inf - inf in the rows of a failed column
            _sup_error_kernel(nodes.reshape(steps + 1, -1, nodes.shape[-1]), h,
                              ref_knots[j0:j0 + steps + 1], ref_int[:, j0:j0 + steps], dt,
                              errors.reshape(-1), scratch)

    failures = run_scheme(oracle, scheme, n, sink=fold).failures
    return [err if exc is None else exc for err, exc in zip(errors, failures)]


def _chunk_errors_scalar(problem: IvpSpec, scheme: SchemeKind, n: int,
                         noise: NoiseModel, master_seed, lo: int, hi: int,
                         dt, ref_knots, ref_int, perturb_eta: bool) -> np.ndarray:
    """The replication errors in [lo, hi), one :class:`NoisyOracle` run per replication:
    the specification the tests hold :func:`_chunk_errors_vectorized` to."""
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        tr = run_scheme(NoisyOracle(problem, noise, master_seed, i, perturb_eta), scheme, n)
        out[i - lo] = _sup_error_kernel(tr.nodes[:, None], tr.grid.h, ref_knots, ref_int, dt)[0]
    return out


def _batch_task(task) -> list:
    """One chunk of a group of columns, as one scheme run: per column, its errors or failure."""
    return _chunk_errors_vectorized(*task)


def _column_groups(columns: dict) -> list:
    """Split a row's columns, {index: noise}, into runs on shared draws: (run model, indices).

    What a column draws depends on its noise kind and on whether its delta
    is 0, never on the delta's value, so the columns of one kind share every
    draw.  A delta 0 column draws nothing and its perturbation is 0, so it
    joins the first run.  A run's model is its kind with the largest delta.
    """
    kinds = {}
    for c, noise in columns.items():
        kinds.setdefault(noise.kind if noise.delta > 0.0 else None, []).append(c)
    zeros = kinds.pop(None, [])
    groups = [(NoiseModel(kind, max(columns[c].delta for c in cols)), cols)
              for kind, cols in kinds.items()]
    if zeros:
        model, cols = groups[0] if groups else (exact_info(), [])
        groups[:1] = [(model, sorted(cols + zeros))]
    return groups


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, from the function that calls this one, of the first
    frame outside this module and the ``contextlib`` frames that enter its context managers:
    the line of the caller's code that led to the warning."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") in (__name__, "contextlib"):
        frame, level = frame.f_back, level + 1
    return level


@contextlib.contextmanager
def _chunk_map(tasks: list, parallelism: int):
    """``_batch_task`` over the tasks, lazily and in order, and the exception a dead worker
    raises (``()``, none, when serial): the builtin map when ``parallelism`` is 1, there
    are fewer than 2 tasks, or the platform has no ``os.fork`` (with a RuntimeWarning that
    names the caller's line), else :func:`randode.pool.forked_map` over
    ``min(parallelism, len(tasks))`` forked workers, which run ``_batch_task`` as the
    module holds it now.  Exit kills the running tasks and reaps every worker.
    """
    size = min(parallelism, len(tasks))
    if size > 1 and not hasattr(os, "fork"):
        warnings.warn("running the chunks serially: this platform cannot fork worker "
                      "processes", RuntimeWarning, stacklevel=_caller_stacklevel())
        size = 1
    if size <= 1:
        yield map(_batch_task, tasks), ()
        return
    from .pool import WorkerDied, forked_map  # here, not at module level: only a pool needs it

    results = forked_map(_batch_task, tasks, size)
    try:
        yield results, WorkerDied
    finally:
        results.close()


def _chunk_bounds(N: int, chunk_size: int, parallelism: int) -> list:
    """Contiguous (lo, hi) chunks of [0, N), in order, for ``parallelism`` workers.

    The ceil(N / chunk_size) chunks of at most ``chunk_size`` are rounded up to
    a multiple of w = min(parallelism, that count), and N is split evenly over
    them (bounds N i // count), so no worker waits on a short last chunk.
    Only at chunk_size 1 can a chunk be empty; it is dropped.
    """
    N, chunk_size = int(N), int(chunk_size)
    count = -(-N // chunk_size)
    w = min(parallelism, count)
    count = w * -(-count // w)
    bounds = [N * i // count for i in range(count + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def run_rows(problem: IvpSpec, reference: ReferenceSolution, scheme: SchemeKind, rows, *,
             parallelism: int = 1, subsamples_per_step: int = 8, perturb_eta: bool = False,
             chunk_size: int = 8192):
    """The cells of table rows ``[(n, noises, N, master_seed), ...]``, yielded a row at a time:
    the one Monte Carlo runner.

    Entry c of a row is the :class:`ErrorBatch` of column ``noises[c]``: the
    sorted errors of N replications, bitwise those of one
    :class:`NoisyOracle` run per replication, at any parallelism or chunk
    partition; or the NumericalError, ConvergenceError or DomainError of its
    lowest failing replication.  A row's cells share a master seed, so they
    read the same grid draws, and columns of one noise kind read the same
    noise draws; only the delta factor differs.  So the columns run
    together, one chunk of replications at a time, as one scheme run with k
    columns (:class:`ChunkOracle`), and each column's failure is read from
    that run.  A column that implicit Euler refuses joins no run; any other
    exception out of a run propagates.  Every row is planned first, and then
    all of the rows' chunks run as one map (:func:`_chunk_map`), so with
    ``parallelism`` > 1 one pool of forked workers serves every row and no
    row waits for the one before it; the workers inherit the tasks, so a
    lambda or closure right-hand side runs pooled too.  A row's plan is
    dropped as it is consumed, and its cells are the rows of one (k, N) array
    sorted in place, so the generator keeps no row it has yielded.  Closing
    the generator starts no further chunk and kills the running ones; a
    dead worker raises :class:`WorkerError`.
    """
    _check_counts(parallelism=parallelism, subsamples_per_step=subsamples_per_step,
                  chunk_size=chunk_size)
    if reference.d != problem.d:
        raise DomainError(f"the reference has d = {reference.d}, the problem d = {problem.d}")
    plans, tasks = collections.deque(), []
    for n, noises, N, master_seed in rows:
        _check_counts(n=n, N=N)
        h, knots = (problem.b - problem.a) / n, np.linspace(problem.a, problem.b, n + 1)
        dt = _interior_offsets(h, subsamples_per_step)
        ref_knots, ref_int = _reference_grids(reference, knots, dt)
        cells = [implicit_euler_refusal(problem, noise, n)
                 if scheme is SchemeKind.IMPLICIT_EULER else None for noise in noises]
        groups = _column_groups({c: noise for c, noise in enumerate(noises) if cells[c] is None})
        chunks = [(lo, hi, model, cols) for lo, hi in _chunk_bounds(N, chunk_size, parallelism)
                  for model, cols in groups]
        plans.append((n, noises, N, master_seed, cells, chunks))
        tasks += [(problem, scheme, n, model, master_seed, lo, hi, dt, ref_knots, ref_int,
                   perturb_eta, [noises[c].delta for c in cols]) for lo, hi, model, cols in chunks]
    with _chunk_map(tasks, parallelism) as (results, broken):
        while plans:
            n, noises, N, master_seed, cells, chunks = plans.popleft()
            errors = np.empty((len(noises), N))
            for lo, hi, _, cols in chunks:  # in order of lo, so a column keeps its lowest failure
                try:
                    outs = next(results)
                except broken as exc:
                    raise WorkerError(f"a pool worker died running replications [{lo}, {hi}) "
                                      f"of the n = {n} row") from exc
                for c, out in zip(cols, outs):
                    if not isinstance(out, Exception):
                        errors[c, lo:hi] = out
                    elif cells[c] is None:
                        cells[c] = out
            errors.sort(axis=1)
            for c, noise in enumerate(noises):
                if cells[c] is None:
                    cell = BatchCell(problem=problem.name or "custom", scheme=scheme, n=n,
                                     noise_kind=noise.kind, delta=noise.delta,
                                     span=problem.b - problem.a)
                    cells[c] = ErrorBatch(cell=cell, errors=errors[c], master_seed=master_seed,
                                          N=N)
            yield cells


def run_batch(problem: IvpSpec, reference: ReferenceSolution, scheme: SchemeKind,
              n: int, noise: NoiseModel, N: int, master_seed, *,
              parallelism: int = 1, subsamples_per_step: int = 8,
              perturb_eta: bool = False, chunk_size: int = 8192) -> ErrorBatch:
    """N independent replications of one cell's sup-norm error, sorted: :func:`run_rows` with
    one row of one column, whose failure it raises.

    Replication i draws from streams keyed by (master_seed, i), so the result
    is bitwise-identical for fixed (cell, N, master_seed) at any parallelism
    or chunk partition.
    """
    ((batch,),) = run_rows(problem, reference, scheme, [(n, [noise], N, master_seed)],
                           parallelism=parallelism, subsamples_per_step=subsamples_per_step,
                           perturb_eta=perturb_eta, chunk_size=chunk_size)
    if isinstance(batch, Exception):
        raise batch
    return batch


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


def error_scale(n: int, span: float, gamma: float, delta: float) -> float:
    """The error scale max(h^gamma, delta) of n steps of h = span / n, with h^gamma taken as
    span^gamma n^-gamma: on a unit span that is n^-gamma bit for bit.  A scale that
    overflows or underflows to 0 is refused: errors cannot be divided by it."""
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma!r}")
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta!r}")
    try:
        scale = max(span ** gamma * float(n) ** -gamma, delta)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise DomainError(f"the error scale of n = {n}, span {span!r}, gamma {gamma!r} and "
                          f"delta {delta!r} is {scale!r}, not a positive finite float")
    return scale


def xi_hat(batch: ErrorBatch, epsilon: float, gamma: float) -> QuantileEstimate:
    """r_{ceil((1-eps)N):N} divided by the cell's :func:`error_scale`."""
    if batch.N < 1 or batch.errors.size < 1:
        raise DomainError("empty batch")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    idx = order_statistic_index(epsilon, batch.N)
    if idx < 1 or idx > batch.N:
        raise DomainError(f"order statistic index {idx} out of range [1, {batch.N}]")
    denom = error_scale(batch.cell.n, batch.cell.span, gamma, batch.cell.delta)
    return QuantileEstimate(epsilon=epsilon, xi_hat=float(batch.errors[idx - 1]) / denom,
                            denom=denom)


def wilson_interval(count: int, n: int, z: float = _WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    _check_counts(n=n)
    if not 0 <= count <= n:
        raise DomainError(f"count must be in [0, {n}], got {count}")
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
    if not (np.all(np.isfinite(xis)) and np.all(np.diff(xis) >= 0)):
        raise DomainError("xi_grid must be finite and sorted ascending")
    denom = error_scale(batch.cell.n, batch.cell.span, gamma, batch.cell.delta)
    # errors are sorted: count above threshold via binary search
    counts = batch.N - np.searchsorted(batch.errors, xis * denom, side="right")
    probs = counts / batch.N
    lows, highs = np.array([wilson_interval(int(c), batch.N) for c in counts]).reshape(-1, 2).T
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
    """Band of half-width xi_eps * error_scale(n, b - a, gamma, delta) around the interpolant."""
    if not 0.0 <= xi_eps < math.inf:
        raise DomainError("xi must be finite and nonnegative")
    _check_counts(2, grid_points=grid_points)
    radius = xi_eps * error_scale(tr.grid.n, tr.b - tr.a, gamma, delta)
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
    ladder = np.stack([ns, means])
    if not np.all((ladder > 0) & (ladder < math.inf)):  # NaN too
        raise DomainError("step counts and errors must be > 0 and finite to be fit on a log scale")
    x = np.log(ns)
    y = np.log(means)
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    if not sxx > 0:
        raise DomainError(f"the step counts {ns.tolist()} are all equal: no slope fits them")
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

    Each ladder point is a row of one column and N replications, and the
    ladder runs as one :func:`run_rows` call; cells at different n use
    distinct seed keys derived from the master seed.
    """
    ns = [int(v) for v in ns]
    if len(ns) < 3:
        raise DomainError("need at least 3 ladder points")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise DomainError("ladder points must double")
    noise = noise or exact_info()
    rows = [(n, [noise], N, derive_cell_seed(master_seed, scheme, problem.name or "custom", n))
            for n in ns]
    means = []
    for (batch,) in list(run_rows(problem, reference, scheme, rows, **batch_kwargs)):
        if isinstance(batch, Exception):
            raise batch
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
        import hashlib  # here, not at module level: the built-in problems need no hash

        pid = int(hashlib.sha256(problem_name.encode()).hexdigest()[:8], 16)
    try:
        ss = np.random.SeedSequence(master_seed, spawn_key=(_SCHEME_IDS[scheme], pid, int(n)))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad master seed {master_seed!r}: {exc}") from None
    return int.from_bytes(ss.generate_state(4).tobytes(), "little")


# ---------------------------------------------------------------------------
# Cached dense reference for problem B


REF_MAGIC = b"RANDODE-REF-1\n"
DEFAULT_REF_STEPS = 2_000_000
MIN_REF_STEPS = 100_000


def _rk4_dense_B(n_ref: int) -> np.ndarray:
    """Classical fourth-order one-step values of problem B on n_ref steps."""
    # imported here, not at module level: loading this extension module
    # raises the peak RSS of commands that never build a reference
    import array

    h = 1.0 / n_ref
    # Python groups 0.5 * h * k1 as (0.5 * h) * k1: the same doubles, hoisted
    half_h, sixth_h = 0.5 * h, h / 6.0
    sin = math.sin
    z = 1.0
    out = array.array("d", [z])
    append = out.append
    for _ in range(n_ref):
        k1 = sin(z * z)
        y = z + half_h * k1
        k2 = sin(y * y)
        y = z + half_h * k2
        k3 = sin(y * y)
        y = z + h * k3
        k4 = sin(y * y)
        z += sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        append(z)
    return np.frombuffer(out, dtype=float)


def default_ref_cache(n_ref: int = DEFAULT_REF_STEPS) -> str:
    """The reference cache file: under $RANDODE_CACHE_DIR, else ~/.cache/randode."""
    base = os.environ.get("RANDODE_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "randode")
    return os.path.join(base, f"refB_rk4_{n_ref}.bin")


def _write_reference(path, header: dict, values) -> None:
    """Write the cache file atomically: readers see the old file or the whole new one.  The
    payload is the little-endian values' own buffer (no copy on a little-endian machine), the
    header carries its sha256, and the file gets mode 0o666 less the umask, as any new file does.
    ``values`` is an array or a function that computes it, called only once the path is known
    not to be a directory and the temporary file beside it is open: an unusable path fails
    before the compute.
    """
    import hashlib  # here and in _CacheValues, not at module level: only the cache hashes

    if os.path.isdir(path) and not os.path.islink(path):  # os.replace would refuse it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    # O_EXCL with mode 0o666: the umask applies, where tempfile.mkstemp forces 0o600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            values = values() if callable(values) else values
            payload = memoryview(np.ascontiguousarray(values, dtype="<f8")).cast("B")
            header = dict(header, sha256=hashlib.sha256(payload).hexdigest())
            fh.write(REF_MAGIC)
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_READ_BYTES = 1 << 20  # the one buffer through which a cache file's values are read


class _CacheValues:
    """The (n + 1, 1) values of a verified cache file, read from the file at each lookup: an
    integer index array reads the file's slices of one buffer (``_READ_BYTES``) that hold an
    index, in one ascending pass.  The file must be the one verified (device, inode, size,
    mtime) or, verified again, hold the same sha256; else, or if it is gone, a lookup raises
    ReferenceSolutionError."""

    def __init__(self, path):
        self.path, self._identity = os.path.abspath(path), None
        with open(self.path, "rb") as fh:
            self._verify(fh)
        self.shape = ((self._identity[2] - self._offset) // 8, 1)

    def _verify(self, fh) -> None:
        """Unless the open file is the one verified: check its magic, header, whole float64
        values and their sha256, streamed through one buffer, and record its identity."""
        import hashlib  # here and in _write_reference, not at module level: only the cache hashes

        st = os.fstat(fh.fileno())
        if (identity := (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)) == self._identity:
            return
        if fh.read(len(REF_MAGIC)) != REF_MAGIC:
            raise ValueError("bad magic")
        header, offset = json.loads(fh.readline().decode()), fh.tell()
        if (st.st_size - offset) % 8:
            raise ValueError("payload is not a whole number of float64 values")
        digest, buf = hashlib.sha256(), memoryview(bytearray(_READ_BYTES))
        while size := fh.readinto(buf):
            digest.update(buf[:size])
        if digest.hexdigest() != header.get("sha256"):
            raise ValueError("checksum mismatch")
        if self._identity and header["sha256"] != self.header["sha256"]:
            raise ValueError("replaced by a file of other values")
        self.header, self._offset, self._identity = header, offset, identity

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        out, size = np.empty(idx.size), _READ_BYTES // 8
        try:
            with open(self.path, "rb", buffering=0) as fh:  # reads only the bytes asked for
                self._verify(fh)
                order = np.argsort(idx // size, kind="stable")  # the indices of each slice
                slices = np.split(order, np.flatnonzero(np.diff(idx[order] // size)) + 1)
                buf = np.empty(min(size, idx.max() - idx.min() + 1), dtype="<f8")
                for sel in slices:
                    at = idx[sel]
                    first = at.min()
                    piece = buf[:at.max() - first + 1]
                    fh.seek(self._offset + 8 * int(first))
                    if fh.readinto(piece) != piece.nbytes:
                        raise ValueError("payload shorter than the file")
                    out[sel] = piece[at - first]
        except (OSError, ValueError) as exc:
            raise ReferenceSolutionError(f"reference cache {self.path}: {exc}") from exc
        return out[:, None]


def _read_reference(path, want: dict) -> ReferenceSolution:
    """The reference of the verified cache file at path (:class:`_CacheValues`), whose
    values stay in the file; ValueError unless its header and size match want."""
    values = _CacheValues(path)
    if {k: values.header.get(k) for k in want} != want or values.shape[0] != want["n_ref"] + 1:
        raise ValueError("built with other parameters")
    return ReferenceSolution(kind="cached-dense", d=1, a=want["a"], b=want["b"],
                             grid_values=values, provenance=values.header)


def build_reference_B(n_ref: int = DEFAULT_REF_STEPS, cache_path=None) -> ReferenceSolution:
    """Dense deterministic reference for problem B, persisted to cache_path.

    cache_path defaults to :func:`default_ref_cache`.  Recomputes (and rewrites the cache)
    when the file is missing, corrupt, or was built with different parameters; raises
    ReferenceSolutionError if it cannot write it, before computing when the path is a
    directory or no file can be made beside it (:func:`_write_reference`).  The values, on the
    uniform grid of [0, 1] with n_ref steps, stay in the verified file, built or loaded
    (:func:`_read_reference`).
    """
    if n_ref < MIN_REF_STEPS:
        raise DomainError(f"n_ref must be >= {MIN_REF_STEPS}")
    cache_path = cache_path or default_ref_cache(n_ref)
    want = {"problem": "B", "method": "rk4", "n_ref": int(n_ref), "a": 0.0, "b": 1.0, "d": 1}
    with contextlib.suppress(ValueError, OSError):  # missing, corrupt or other parameters
        return _read_reference(cache_path, want)
    try:
        os.makedirs(os.path.dirname(os.path.abspath(cache_path)), exist_ok=True)
        _write_reference(cache_path, want, lambda: _rk4_dense_B(n_ref))
        return _read_reference(cache_path, want)
    except (ValueError, OSError) as exc:
        raise ReferenceSolutionError(f"cannot use the reference cache {cache_path}: {exc}") from exc


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
    "error_scale", "fit_loglog_slope", "order_statistic_index", "reference_for",
    "run_batch", "run_rows", "sup_error", "tail_curve", "wilson_interval", "xi_hat",
]
