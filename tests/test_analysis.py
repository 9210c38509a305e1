import contextlib
import dataclasses
import functools
import io
import itertools
import os
import stat
import tempfile
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randode import (
    ClassParams,
    ConvergenceError,
    DomainError,
    IvpSpec,
    NoiseModel,
    NoisyOracle,
    NumericalError,
    ReferenceSolution,
    ReferenceSolutionError,
    SchemeKind,
    WorkerError,
    build_reference_B,
    check_class_membership,
    confidence_band,
    convergence_slope,
    derive_cell_seed,
    exact_info,
    fit_loglog_slope,
    run_batch,
    run_explicit_euler,
    run_implicit_euler,
    run_rk2,
    sup_error,
    tail_curve,
    xi_hat,
)
from randode import analysis, schemes
from randode.analysis import default_ref_cache, order_statistic_index, wilson_interval
from randode.noise import NOISE_KINDS, ChunkOracle, derive_streams

from conftest import (children, constant_field_problem, problem_A_in, ref_A_in,
                      zero_field_problem)

EE = SchemeKind.EXPLICIT_EULER
RK = SchemeKind.RUNGE_KUTTA2
IE = SchemeKind.IMPLICIT_EULER


class TestSupError:
    def test_linear_solution_measures_zero(self):
        # constant field: exact solution is linear, interpolant reproduces it
        p = constant_field_problem()
        o = NoisyOracle(p, exact_info(), 0, 0)
        tr = run_explicit_euler(o, 7)
        ref = ReferenceSolution.analytic(lambda t: 1.0 + 0.25 * np.asarray(t))
        assert sup_error(tr, ref, subsamples_per_step=7) <= 1e-14

    def test_chord_versus_parabola(self):
        # linear interpolant of t^2 deviates by h^2/4, attained mid-interval
        p = zero_field_problem()
        n = 8
        o = NoisyOracle(p, exact_info(), 0, 0)
        tr = run_explicit_euler(o, n)
        tr.nodes[:, 0] = tr.grid.knots**2
        ref = ReferenceSolution.analytic(lambda t: np.asarray(t) ** 2)
        h = 1.0 / n
        # odd subsample count puts a point on each midpoint
        assert abs(sup_error(tr, ref, subsamples_per_step=7) - h * h / 4.0) <= 1e-12

    def test_single_seed_magnitude(self, problem_A, ref_A):
        o = NoisyOracle(problem_A, exact_info(), 42, 0)
        tr = run_explicit_euler(o, 1000)
        e = sup_error(tr, ref_A)
        assert 0.0 < e < 0.05

    @pytest.mark.parametrize("subsamples", [0, 2.5])
    def test_subsamples_validated(self, problem_A, ref_A, subsamples):
        # run_rows's rule: an integer >= 1
        o = NoisyOracle(problem_A, exact_info(), 42, 0)
        tr = run_explicit_euler(o, 4)
        with pytest.raises(DomainError, match="must be >= 1 and an integer"):
            sup_error(tr, ref_A, subsamples_per_step=subsamples)

    def test_reference_of_another_d_rejected(self, problem_A, ref_A):
        # a d = 1 reference on a d = 3 run, and a two-column reference on problem A
        p3 = problem_A_in(3)
        tr = run_explicit_euler(NoisyOracle(p3, exact_info(), 0, 0), 4)
        with pytest.raises(DomainError):
            sup_error(tr, ref_A)
        with pytest.raises(DomainError):
            run_batch(p3, ref_A, EE, 4, exact_info(), 8, 0)
        two = ReferenceSolution.cached_dense(0.0, 1.0, np.ones((11, 2)))
        with pytest.raises(DomainError):
            run_batch(problem_A, two, EE, 4, exact_info(), 8, 0)

    def test_reference_values_of_the_wrong_shape_raise(self):
        # declared d = 3, but its fn gives one value per time
        ref = ReferenceSolution.analytic(np.exp, d=3)
        with pytest.raises(ReferenceSolutionError):
            ref.values_at([0.0, 0.5])
        with pytest.raises(ReferenceSolutionError):
            sup_error(run_explicit_euler(NoisyOracle(problem_A_in(3), exact_info(), 0, 0), 4),
                      ref)

    def test_uncovered_reference_raises(self, problem_A):
        ref = ReferenceSolution.cached_dense(0.0, 0.5, np.zeros(100))
        o = NoisyOracle(problem_A, exact_info(), 42, 0)
        tr = run_explicit_euler(o, 4)
        with pytest.raises(ReferenceSolutionError):
            sup_error(tr, ref)


def unblocked_sup_error_kernel(nodes, h, ref_knots, ref_int, dt):
    """The specification of analysis._sup_error_kernel: whole-array temporaries.

    nodes is row-major, (M, n+1, d); the kernel takes them step-major.
    """
    slopes = (nodes[:, 1:, :] - nodes[:, :-1, :]) / h
    err = np.sum(np.abs(nodes - ref_knots[None, :, :]), axis=2).max(axis=1)
    for k in range(dt.shape[0]):
        vals = nodes[:, :-1, :] + dt[k] * slopes
        dev = np.sum(np.abs(vals - ref_int[None, k, :, :]), axis=2).max(axis=1)
        err = np.maximum(err, dev)
    return err


def _kernel_inputs(M, n, d, subsamples, seed):
    rng = np.random.default_rng(seed)
    h = 1.0 / n
    dt = analysis._interior_offsets(h, subsamples)
    nodes = 1.0 + np.cumsum(rng.standard_normal((M, n + 1, d)) * h, axis=1)
    ref_knots = 1.0 + rng.standard_normal((n + 1, d)) * 0.1
    ref_int = 1.0 + rng.standard_normal((subsamples, n, d)) * 0.1
    return nodes, h, ref_knots, ref_int, dt


def _near_chord_inputs(M, n, d, subsamples, scale, node_dev, ref_dev, seed):
    """Kernel inputs (nodes row-major) near the pruning bound, all of magnitude scale: a
    reference within ref_dev (relative) of its knots' chords and nodes within node_dev of it."""
    rng = np.random.default_rng(seed)
    h = 1.0 / n
    dt = analysis._interior_offsets(h, subsamples)
    theta = (dt / h)[:, None, None]
    ref_knots = scale * (1.0 + 0.5 * rng.random((n + 1, d)))
    chord = (1.0 - theta) * ref_knots[:-1] + theta * ref_knots[1:]
    ref_int = chord + scale * ref_dev * rng.standard_normal(chord.shape)
    nodes = ref_knots + scale * node_dev * rng.standard_normal((M, n + 1, d))
    return nodes, h, ref_knots, ref_int, dt


def _interior_sup_inputs(M, n, d, subsamples):
    """Nodes equal to the reference t^4 (times 1, 2, ... per component) at every knot but the
    first, which row r raises by r * 1e-6: the chord's deviation from t^4 grows with t, so
    every row's sup sits at an interior offset of the last step."""
    h = 1.0 / n
    dt = analysis._interior_offsets(h, subsamples)
    knots = h * np.arange(n + 1)
    scale = np.arange(1.0, d + 1.0)
    ref_knots = knots[:, None] ** 4 * scale
    ref_int = (knots[:-1][None, :] + dt[:, None])[..., None] ** 4 * scale
    nodes = np.repeat(ref_knots[None], M, axis=0)
    nodes[:, 0] += 1e-6 * np.arange(M)[:, None]
    return nodes, h, ref_knots, ref_int, dt


def _step_major(nodes):
    return np.ascontiguousarray(nodes.transpose(1, 0, 2))


def _kernel_blocks(elems):
    """Kernel blocks of elems // (M d) steps and at least one (the real ones if elems is None)."""
    if elems is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(schemes, _BLOCK_ELEMS=elems, _MIN_SINK_STEPS=1)


class TestSupErrorKernel:
    @given(M=st.integers(1, 40), n=st.integers(1, 60), d=st.sampled_from([1, 3]),
           subsamples=st.integers(1, 9), block=st.sampled_from([None, 1, 5, 64, 700]),
           seed=st.integers(0, 2**32 - 1))
    @example(M=1, n=33_000, d=1, subsamples=2, block=None, seed=1)  # n + 1 > the real block
    @example(M=3, n=11_000, d=3, subsamples=3, block=None, seed=2)
    @example(M=2, n=7, d=3, subsamples=8, block=30, seed=3)  # five steps a block, then two
    @settings(max_examples=80, deadline=None)
    def test_blocked_matches_unblocked(self, M, n, d, subsamples, block, seed):
        nodes, *rest = _kernel_inputs(M, n, d, subsamples, seed)
        step_major = np.ascontiguousarray(nodes.transpose(1, 0, 2))
        with _kernel_blocks(block):
            got = analysis._sup_error_kernel(step_major, *rest)
        assert np.array_equal(got, unblocked_sup_error_kernel(nodes, *rest))

    def test_scratch_is_o_block(self):
        # 200 rows of n = 5000 make 163-step blocks, the last one of 110 steps
        assert schemes._block_steps(200) == 163 and 5000 % 163 == 110
        nodes, *rest = args = _kernel_inputs(200, 5000, 1, 8, 0)
        want = unblocked_sup_error_kernel(*args)
        step_major = np.ascontiguousarray(nodes.transpose(1, 0, 2))
        tracemalloc.start()
        try:
            got = analysis._sup_error_kernel(step_major, *rest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        block_bytes = 8 * schemes._BLOCK_ELEMS
        assert peak <= 4 * block_bytes  # two scratch blocks and small change
        assert peak * 10 < 8 * 200 * 5000  # one (m, n) array

    @given(M=st.integers(1, 30), n=st.integers(1, 40), d=st.sampled_from([1, 3]),
           subsamples=st.integers(1, 9), block=st.sampled_from([None, 1, 5, 64, 700]),
           scale=st.integers(-300, 8).map(lambda e: 10.0 ** e),
           node_dev=st.sampled_from([0.0, 1e-16, 4e-16, 1e-13, 1e-6, 1e-2]),
           ref_dev=st.sampled_from([0.0, 1e-16, 1e-10, 1e-3]),
           start=st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]), seed=st.integers(0, 2**32 - 1))
    @example(M=3, n=40, d=1, subsamples=8, block=None, scale=1e-300, node_dev=1e-16,
             ref_dev=1e-16, start=None, seed=0)  # subnormal deviations
    @example(M=2, n=40, d=3, subsamples=8, block=5, scale=1e8, node_dev=4e-16, ref_dev=0.0,
             start=1.0, seed=1)  # deviations of an ulp or two, and a running max they tie
    @settings(max_examples=150, deadline=None)
    def test_pruned_matches_unblocked(self, M, n, d, subsamples, block, scale, node_dev,
                                      ref_dev, start, seed):
        # with and without a running max to start from, the kernel folds max(err, the
        # specification) into it, however close the deviations come to its pruning bound
        nodes, *rest = _near_chord_inputs(M, n, d, subsamples, scale, node_dev, ref_dev, seed)
        want = unblocked_sup_error_kernel(nodes, *rest)
        err = None if start is None else start * want
        if err is not None:
            want = np.maximum(err, want)
        with _kernel_blocks(block):
            got = analysis._sup_error_kernel(_step_major(nodes), *rest, err)
        assert np.array_equal(got, want)
        assert err is None or got is err

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("block", [None, 5])
    def test_sup_at_an_interior_point(self, d, block):
        nodes, *rest = _interior_sup_inputs(4, 50, d, 7)
        want = unblocked_sup_error_kernel(nodes, *rest)
        knot_max = np.sum(np.abs(nodes - rest[1]), axis=2).max(axis=1)
        assert (want > 100 * knot_max).all()
        with _kernel_blocks(block):
            got = analysis._sup_error_kernel(_step_major(nodes), *rest)
        assert np.array_equal(got, want)

    def test_pruning_needs_the_chord_term(self):
        # row r > 0 has its knot max, r * 1e-6, at its first knot: without c_j the pairs of
        # every other step are pruned, and the sup at the last step's interior is missed
        nodes, *rest = _interior_sup_inputs(8, 50, 1, 7)
        step_terms = analysis._step_terms

        def no_chord(*args):
            c, rt = step_terms(*args)
            return np.zeros_like(c), rt

        want = unblocked_sup_error_kernel(nodes, *rest)
        with mock.patch.object(analysis, "_step_terms", no_chord):
            got = analysis._sup_error_kernel(_step_major(nodes), *rest)
        assert np.array_equal(got[1:], 1e-6 * np.arange(1, 8)) and (got[1:] < want[1:]).all()

    def test_pruning_needs_the_rounding_margin(self):
        # one step whose knots both sit 1e-10 above a reference equal to its chord, so
        # c_j = 0: in exact arithmetic every interior deviation is 1e-10, but the
        # computed ones exceed the computed knot deviations by a few ulps
        h = 0.1
        dt = analysis._interior_offsets(h, 8)
        theta = dt / h
        ref_knots = np.array([[1.3], [1.6]])
        ref_int = ((1.0 - theta) * 1.3 + theta * 1.6)[:, None, None]
        nodes = (ref_knots + 1e-10)[None]
        args = (h, ref_knots, ref_int, dt)
        want = unblocked_sup_error_kernel(nodes, *args)
        assert want[0] > np.abs(nodes[0] - ref_knots).max()
        assert np.array_equal(analysis._sup_error_kernel(_step_major(nodes), *args), want)
        with mock.patch.object(analysis, "_MARGIN_ULPS", 0):
            got = analysis._sup_error_kernel(_step_major(nodes), *args)
        assert got[0] == np.abs(nodes[0] - ref_knots).max() < want[0]


def _per_replication(p, ref, scheme, n, noise, N, seed, perturb_eta):
    """The specification of run_batch's errors: one NoisyOracle run per replication, sorted."""
    h = (p.b - p.a) / n
    dt = analysis._interior_offsets(h, 8)
    ref_knots, ref_int = analysis._reference_grids(ref, p.a + h * np.arange(n + 1), dt)
    return np.sort(analysis._chunk_errors_scalar(p, scheme, n, noise, seed, 0, N, dt, ref_knots,
                                                 ref_int, perturb_eta))


class TwoArgsError(Exception):
    """Pickled as TwoArgsError(message), which its __init__ refuses: pickle writes it but
    cannot read it back."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _logged_batch_task(log):
    """_batch_task that logs each chunk's n, lo and start time to log, and sleeps 0.3 s
    first for n != 10."""
    untraced = analysis._batch_task

    def logged(task):
        with open(log, "a") as fh:
            fh.write(f"{task[2]} {task[5]} {time.monotonic()}\n")
        if task[2] != 10:
            time.sleep(0.3)
        return untraced(task)
    return logged


class TestRunBatch:
    def test_zero_field_zero_errors(self):
        p = zero_field_problem()
        ref = ReferenceSolution.analytic(lambda t: np.ones_like(np.asarray(t, dtype=float)))
        b = run_batch(p, ref, EE, 5, exact_info(), 100, 0)
        assert np.all(b.errors == 0.0)

    def test_errors_sorted_and_sized(self, problem_A, ref_A):
        b = run_batch(problem_A, ref_A, EE, 10, exact_info(), 257, 3, chunk_size=100)
        assert b.N == 257 and b.errors.shape == (257,)
        assert np.all(np.diff(b.errors) >= 0.0)

    def test_bitwise_identical_across_parallelism(self, problem_A, ref_A):
        kw = dict(chunk_size=128)
        b1 = run_batch(problem_A, ref_A, EE, 10, exact_info(), 512, 99, parallelism=1, **kw)
        b2 = run_batch(problem_A, ref_A, EE, 10, exact_info(), 512, 99, parallelism=2, **kw)
        assert np.array_equal(b1.errors, b2.errors)
        # 3 chunks of 100 serially; for 2 workers they become 4 of 75
        assert len(analysis._chunk_bounds(300, 128, 2)) == 4
        b3 = run_batch(problem_A, ref_A, EE, 10, exact_info(), 300, 99, parallelism=1, **kw)
        b4 = run_batch(problem_A, ref_A, EE, 10, exact_info(), 300, 99, parallelism=2, **kw)
        assert np.array_equal(b3.errors, b4.errors)

    def test_bitwise_identical_across_chunking(self, problem_A, ref_A):
        b1 = run_batch(problem_A, ref_A, RK, 9, NoiseModel("rk", 0.01), 100, 5, chunk_size=7)
        b2 = run_batch(problem_A, ref_A, RK, 9, NoiseModel("rk", 0.01), 100, 5, chunk_size=100)
        assert np.array_equal(b1.errors, b2.errors)

    @pytest.mark.parametrize("kind,delta,scheme", [
        (kind, delta, scheme) for scheme in (EE, RK)
        for kind, delta in (("exact", 0.0), ("ee", 0.02), ("rk", 0.02), ("ie", 0.02))
    ] + [("exact", 0.0, IE), ("ie", 0.02, IE)])
    def test_fast_path_matches_scalar_path(self, problem_A, problem_B, ref_A, ref_B,
                                           scheme, kind, delta):
        noise = NoiseModel(kind, delta)
        n = 64 if scheme is IE else 11  # implicit Euler on B needs h (L + delta) < 1
        # d = 9 crosses numpy's 8-wide pairwise-sum unroll in the one-norms
        cases = [(problem_A, ref_A), (problem_B, ref_B)] + [(problem_A_in(d), ref_A_in(d))
                                                            for d in (3, 9)]
        for (p, ref), perturb_eta in itertools.product(cases, (False, True)):
            want = _per_replication(p, ref, scheme, n, noise, 32, 77, perturb_eta)
            # both rhs flavours; the real block size, and blocks of 3 and 5
            # steps that put block edges inside the run
            for vectorized, steps in itertools.product((True, False),
                                                       (schemes._BLOCK_STEPS, 3, 5)):
                with mock.patch.object(schemes, "_BLOCK_STEPS", steps):
                    got = run_batch(dataclasses.replace(p, rhs_vectorized=vectorized), ref,
                                    scheme, n, noise, 32, 77, chunk_size=13,
                                    perturb_eta=perturb_eta)
                assert np.array_equal(got.errors, want)

    @given(scheme=st.sampled_from([EE, RK, IE]), kind=st.sampled_from(NOISE_KINDS),
           delta=st.floats(0.0, 0.1), n=st.integers(3, 40), seed=st.integers(0, 2**64),
           chunk_size=st.integers(1, 12), perturb_eta=st.booleans(),
           block_steps=st.sampled_from([None, 3, 5]), d=st.sampled_from([1, 3, 9]),
           vectorized=st.booleans())
    @example(scheme=EE, kind="ee", delta=5e-324, n=3, seed=0, chunk_size=1, perturb_eta=False,
             block_steps=None, d=3, vectorized=False)  # a subnormal delta is refused
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_per_replication(self, scheme, kind, delta, n, seed, chunk_size,
                                            perturb_eta, block_steps, d, vectorized):
        if kind != "exact" and _subnormal(delta):
            with pytest.raises(DomainError, match="subnormal"):
                NoiseModel(kind, delta)
            return
        noise = NoiseModel(kind, 0.0 if kind == "exact" else delta)
        p, ref = problem_A_in(d, vectorized), ref_A_in(d)
        with mock.patch.object(schemes, "_BLOCK_STEPS", block_steps or schemes._BLOCK_STEPS):
            got = _cell_or_error(functools.partial(run_batch, p, ref, scheme, n, noise, 12, seed,
                                                   chunk_size=chunk_size,
                                                   perturb_eta=perturb_eta))
        want = _cell_or_error(functools.partial(_per_replication, p, ref, scheme, n, noise, 12,
                                                seed, perturb_eta))
        if isinstance(want, Exception):  # implicit Euler under fresh noise
            assert type(got) is type(want)
            assert getattr(got, "replication", None) == getattr(want, "replication", None)
        else:
            assert np.array_equal(got.errors, want)

    def test_one_route_for_every_d_and_rhs(self, problem_A, ref_A):
        # the per-replication runner is the tests' specification only
        spec = mock.patch.object(analysis, "_chunk_errors_scalar",
                                 side_effect=AssertionError("per-replication route taken"))
        with spec:
            run_batch(problem_A_in(3), ref_A_in(3), RK, 10, NoiseModel("ee", 1e-3), 20, 7,
                      chunk_size=8)
            run_batch(dataclasses.replace(problem_A, rhs_vectorized=False), ref_A, IE, 10,
                      NoiseModel("ie", 1e-3), 20, 7, chunk_size=8)

    def test_pool_has_at_most_one_worker_a_chunk(self, problem_A, ref_A, forks):
        kw = dict(chunk_size=100)
        pooled = run_batch(problem_A, ref_A, EE, 10, exact_info(), 300, 4, parallelism=64, **kw)
        assert len(forks) == 3
        serial = run_batch(problem_A, ref_A, EE, 10, exact_info(), 300, 4, **kw)
        assert np.array_equal(pooled.errors, serial.errors)

    @pytest.mark.parametrize("Ns", [(200, 400), (400, 200)])
    def test_one_pool_sized_once_for_all_rows(self, problem_A, ref_A, Ns, forks):
        # rows of 2 and 4 chunks at parallelism 4, in either order: one run_rows call
        # forks one pool of 4 workers, all of them reaped by its end
        kw = dict(chunk_size=100)
        rows = [(10, [exact_info()], N, 4) for N in Ns]
        pooled = list(analysis.run_rows(problem_A, ref_A, EE, rows, parallelism=4, **kw))
        assert len(forks) == 4 and children() == []
        for N, (batch,) in zip(Ns, pooled):
            serial = run_batch(problem_A, ref_A, EE, 10, exact_info(), N, 4, **kw)
            assert np.array_equal(batch.errors, serial.errors)

    def test_closing_early_cancels_the_queued_chunks(self, problem_A, ref_A, tmp_path):
        # a real pool of 2 workers; every chunk logs its row and start time.  The first
        # row's 2 chunks are quick and the others take 0.3 s, so the close comes once
        # both workers have started a slow one; it kills them, and no chunk starts after
        log = tmp_path / "chunks.log"
        logged = _logged_batch_task(log)

        rows = [(10, [exact_info()], 20, 1)] + [(n, [exact_info()], 40, 1) for n in (11, 12, 13)]
        with mock.patch.object(analysis, "_batch_task", logged):
            cells = analysis.run_rows(problem_A, ref_A, EE, rows, parallelism=2, chunk_size=10)
            (first,) = next(cells)
            deadline = time.monotonic() + 60
            while len(log.read_text().splitlines()) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            closed = time.monotonic()
            cells.close()
        starts = [line.split() for line in log.read_text().splitlines()]
        assert sum(float(t) > closed for _, _, t in starts) == 0
        assert len(starts) == 4
        want = run_batch(problem_A, ref_A, EE, 10, exact_info(), 20, 1, chunk_size=10)
        assert np.array_equal(first.errors, want.errors)

    def test_closing_early_starts_no_chunk_beyond_the_submitted(self, problem_A, ref_A,
                                                                 tmp_path, forks):
        # the rows above through 2 forked workers: when both have started a slow chunk
        # of the second row, the close sends no further chunk and kills the two running,
        # so every chunk that ever starts started before the close, and none ends after
        log, ends = tmp_path / "chunks.log", tmp_path / "ends.log"
        logged = _logged_batch_task(log)

        def ended(task):
            out = logged(task)
            with open(ends, "a") as fh:
                fh.write(f"{task[2]} {task[5]}\n")
            return out

        rows = [(10, [exact_info()], 20, 1)] + [(n, [exact_info()], 40, 1) for n in (11, 12, 13)]
        with mock.patch.object(analysis, "_batch_task", ended):
            cells = analysis.run_rows(problem_A, ref_A, EE, rows, parallelism=2, chunk_size=10)
            (first,) = next(cells)
            deadline = time.monotonic() + 60
            while len(log.read_text().splitlines()) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            at_close = log.read_text()
            cells.close()
        assert len(forks) == 2 and children() == []
        started = sorted(line.rsplit(" ", 1)[0] for line in at_close.splitlines())
        assert started == ["10 0", "10 10", "11 0", "11 10"]
        time.sleep(0.5)  # the killed chunks would end by now
        assert log.read_text() == at_close
        assert sorted(ends.read_text().splitlines()) == ["10 0", "10 10"]
        want = run_batch(problem_A, ref_A, EE, 10, exact_info(), 20, 1, chunk_size=10)
        assert np.array_equal(first.errors, want.errors)

    def test_dead_worker_is_named_after_the_chunks_before_it(self, problem_A, ref_A):
        # the n = 11 row's second chunk kills its worker 0.3 s in, after the first one is
        # back; the caller is away meanwhile, so the pool has seen the death before the
        # caller asks; the error still names the chunk that died, not the one before it
        untraced = analysis._batch_task

        def dying(task):
            if task[2] == 11 and task[5] == 10:
                time.sleep(0.3)
                os._exit(1)
            return untraced(task)

        rows = [(10, [exact_info()], 20, 1), (11, [exact_info()], 40, 1)]
        with mock.patch.object(analysis, "_batch_task", dying):
            cells = analysis.run_rows(problem_A, ref_A, EE, rows, parallelism=2, chunk_size=10)
            next(cells)
            time.sleep(1.0)
            with pytest.raises(WorkerError, match=r"\[10, 20\) of the n = 11 row"):
                next(cells)

    @given(N=st.integers(1, 20_000), chunk_size=st.integers(1, 3000),
           parallelism=st.integers(1, 16))
    @example(N=3, chunk_size=1, parallelism=2)  # 4 chunks of [0, 3) would leave one empty
    @example(N=10_000, chunk_size=8192, parallelism=1)
    @settings(max_examples=200, deadline=None)
    def test_chunks_split_n_evenly(self, N, chunk_size, parallelism):
        chunks = analysis._chunk_bounds(N, chunk_size, parallelism)
        assert chunks[0][0] == 0 and chunks[-1][1] == N
        assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(chunks, chunks[1:]))
        sizes = [hi - lo for lo, hi in chunks]
        assert 1 <= min(sizes) and max(sizes) <= chunk_size and max(sizes) - min(sizes) <= 1
        # a multiple of the workers a row can use, but for one-replication chunks
        assert len(chunks) % min(parallelism, -(-N // chunk_size)) == 0 or len(chunks) == N

    def test_benchmark_rows_keep_their_chunks(self):
        # one pool of 2 workers over 2 full chunks; a serial row of N <= 8192 is one chunk;
        # the paper's n >= 1000 rows (N = 1e4) split 5000 + 5000, not 8192 + 1808
        assert analysis._chunk_bounds(16384, 8192, 2) == [(0, 8192), (8192, 16384)]
        assert analysis._chunk_bounds(1500, 8192, 1) == [(0, 1500)]
        assert analysis._chunk_bounds(10_000, 8192, 2) == [(0, 5000), (5000, 10_000)]

    def test_closure_rhs_runs_pooled(self, forks):
        # through each entry point: the forked workers inherit the tasks, so a lambda
        # or closure rhs is never pickled and runs in the pool, with no warning
        k = 0.5
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1), rhs=lambda t, x: -k * x,
                    class_params=ClassParams(K=1.0, L=k, rho=1.5), name="closure",
                    rhs_vectorized=True)
        ref = ReferenceSolution.analytic(lambda t: np.exp(-k * np.asarray(t)))
        noise = NoiseModel("ee", 0.01)
        kw = dict(chunk_size=10, parallelism=2)
        serial = run_batch(p, ref, EE, 8, noise, 20, 3, chunk_size=10)
        pooled = {
            "run_batch": lambda: run_batch(p, ref, EE, 8, noise, 20, 3, **kw),
            "run_rows": lambda: list(analysis.run_rows(p, ref, EE, [(8, [noise], 20, 3)],
                                                       **kw))[0][0],
        }
        for entry, run in pooled.items():
            del forks[:]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = run()
            assert len(forks) == 2, entry
            assert np.array_equal(serial.errors, batch.errors), entry

    def test_without_fork_the_chunks_run_serially(self, problem_A, ref_A, monkeypatch):
        # with a warning that names the caller's line, here, not one in randode
        kw = dict(chunk_size=10)
        serial = run_batch(problem_A, ref_A, EE, 8, exact_info(), 40, 3, **kw)
        monkeypatch.delattr(os, "fork")
        pooled = {
            "run_batch": lambda: run_batch(problem_A, ref_A, EE, 8, exact_info(), 40, 3,
                                           parallelism=2, **kw),
            "run_rows": lambda: list(analysis.run_rows(problem_A, ref_A, EE,
                                                       [(8, [exact_info()], 40, 3)],
                                                       parallelism=2, **kw))[0][0],
        }
        for entry, run in pooled.items():
            with pytest.warns(RuntimeWarning, match="serially") as record:
                batch = run()
            assert [w.filename for w in record] == [__file__], entry
            assert np.array_equal(serial.errors, batch.errors), entry

    @pytest.mark.parametrize("end", ["done", "closed", "dead worker"])
    def test_pooled_run_leaves_no_process_or_descriptor(self, problem_A, ref_A, forks, end):
        # however run_rows ends, every worker is reaped (no child, no zombie) and every
        # pipe closed
        untraced = analysis._batch_task

        def dying(task):
            if task[2] == 11 and task[5] == 10:
                os._exit(1)
            return untraced(task)

        rows = [(10, [exact_info()], 20, 1), (11, [exact_info()], 40, 1)]
        fds = sorted(os.listdir("/proc/self/fd"))
        with mock.patch.object(analysis, "_batch_task", dying if end == "dead worker"
                               else untraced):
            cells = analysis.run_rows(problem_A, ref_A, EE, rows, parallelism=2, chunk_size=10)
            if end == "done":
                assert len(list(cells)) == 2
            elif end == "closed":
                next(cells)
                cells.close()
            else:
                with pytest.raises(WorkerError, match=r"\[10, 20\) of the n = 11 row"):
                    list(cells)
        assert len(forks) == 2 and children() == []
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_rhs_error_is_raised_pooled_as_serially(self):
        def rhs(t, x):
            if np.any(t > 0.5):
                raise ValueError("rhs refuses t > 0.5")
            return -x

        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1), rhs=rhs,
                    class_params=ClassParams(K=1.0, L=1.0, rho=1.5), name="raising",
                    rhs_vectorized=True)
        ref = ReferenceSolution.analytic(lambda t: np.exp(-np.asarray(t)))
        for parallelism in (1, 2):
            with pytest.raises(ValueError, match="rhs refuses t > 0.5"):
                run_batch(p, ref, EE, 8, exact_info(), 40, 3, chunk_size=10,
                          parallelism=parallelism)

    @pytest.mark.parametrize("unsendable", ["local class", "no rebuild"])
    def test_exception_that_cannot_be_sent_back_is_a_worker_error(self, unsendable):
        # a chunk's exception that pickle cannot write, or cannot read back, comes back
        # as WorkerError naming its type, not as a hang or a dead worker
        class Local(Exception):
            pass

        def rhs(t, x):
            if unsendable == "local class":
                raise Local("unsendable")
            raise TwoArgsError("unsendable", 3)

        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1), rhs=rhs,
                    class_params=ClassParams(K=1.0, L=1.0, rho=1.5), name="raising",
                    rhs_vectorized=True)
        ref = ReferenceSolution.analytic(lambda t: np.exp(-np.asarray(t)))
        name = "Local" if unsendable == "local class" else "TwoArgsError"
        with pytest.raises(WorkerError, match=f"could not send back the {name} it raised"):
            run_batch(p, ref, EE, 8, exact_info(), 40, 3, chunk_size=10, parallelism=2)

    def test_no_worker_waits_on_an_earlier_chunk(self, problem_A, ref_A, tmp_path):
        # the n = 11 row's one chunk sleeps 0.3 s; meanwhile the other worker runs the
        # n = 10 row's chunks, each of whose results (9000 errors, 72 kB) is more than
        # a pipe holds, one after another: none waits until the slow chunk is back
        log = tmp_path / "chunks.log"
        rows = [(11, [exact_info()], 9000, 1), (10, [exact_info()], 36_000, 1)]
        with mock.patch.object(analysis, "_batch_task", _logged_batch_task(log)):
            list(analysis.run_rows(problem_A, ref_A, EE, rows, parallelism=2,
                                   chunk_size=9000))
        starts = {(n, lo): float(t) for n, lo, t in map(str.split, log.read_text().splitlines())}
        assert len(starts) == 5
        assert starts[("10", "18000")] < starts[("11", "0")] + 0.3

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_non_finite_node_names_its_replication(self, vectorized):
        # the field is infinite beyond t = 0.9: with n = 1 a replication
        # fails exactly when its tau exceeds 0.9
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1),
                    rhs=lambda t, x: np.where(np.asarray(t) > 0.9, np.inf, 0.0 * x),
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="spike",
                    rhs_vectorized=vectorized)
        ref = ReferenceSolution.analytic(np.ones_like)
        first = next(i for i in range(64) if derive_streams(7, i)[0].random() > 0.9)
        assert first >= 7  # lies past the first chunk
        with pytest.raises(NumericalError) as info:
            run_batch(p, ref, EE, 1, exact_info(), 64, 7, chunk_size=7)
        assert info.value.replication == first and info.value.step == 1

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_non_finite_rk_stage_names_its_replication(self, vectorized):
        # the field is infinite at t = 0 and 0 at any state beyond 1e300, so
        # every row's first stage is infinite and every node stays finite:
        # the stage fails the run as the per-call rhs check fails it
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1),
                    rhs=lambda t, x: np.where(np.abs(x) > 1e300, 0.0,
                                              np.where(np.asarray(t) == 0.0, np.inf, 0.0)),
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="stage",
                    rhs_vectorized=vectorized)
        ref = ReferenceSolution.analytic(np.ones_like)
        want = _cell_or_error(functools.partial(_per_replication, p, ref, RK, 4, exact_info(),
                                                8, 1, False))
        got = _cell_or_error(functools.partial(run_batch, p, ref, RK, 4, exact_info(), 8, 1))
        assert type(want) is NumericalError and want.replication == 0
        assert type(got) is type(want) and got.replication == want.replication
        assert got.step == 1

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_non_finite_names_lowest_replication_across_blocks(self, vectorized):
        # a step whose tau exceeds 0.8 lifts the state by about 1, and the
        # field is infinite from state 2.5 on, so a row's first non-finite
        # node comes one step after its second lift; in blocks of 5 steps
        # the lowest failing replication fails in a later block than a
        # higher one, and must still be the one named
        n, seed, N = 40, 3, 16
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1),
                    rhs=lambda t, x: np.where(x >= 2.5, np.inf,
                                              np.where(np.asarray(t) * n % 1.0 > 0.8, n, 0.0)),
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="lifts",
                    rhs_vectorized=vectorized)
        h = 1.0 / n
        knots = h * np.arange(n + 1)
        first = {}
        for i in range(N):
            theta = knots[:-1] + h * derive_streams(seed, i)[0].random(n)
            lifts = np.flatnonzero(theta * n % 1.0 > 0.8) + 1
            if lifts.size > 1 and lifts[1] < n:
                first[i] = int(lifts[1]) + 1
        low = min(first)
        assert any(i > low and (step - 1) // 5 < (first[low] - 1) // 5
                   for i, step in first.items())
        with mock.patch.object(schemes, "_BLOCK_STEPS", 5), \
                pytest.raises(NumericalError) as info:
            run_batch(p, ReferenceSolution.analytic(np.ones_like), EE, n, exact_info(), N, seed)
        assert info.value.replication == low and info.value.step == first[low]

    def test_chunk_memory_does_not_grow_with_n(self, problem_A, ref_A):
        def traced_peak(n):
            h = 1.0 / n
            dt = analysis._interior_offsets(h, 8)
            ref_knots, ref_int = analysis._reference_grids(ref_A, h * np.arange(n + 1), dt)
            tracemalloc.start()
            try:
                analysis._chunk_errors_vectorized(problem_A, RK, n, NoiseModel("rk", 1e-3), 5,
                                                  0, 512, dt, ref_knots, ref_int, False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(5000) <= 1.5 * traced_peak(500)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_non_converged_fixed_point_names_its_replication(self, vectorized):
        # beyond t = 0.9 the field is -x and, with n = 1, the fixed-point map
        # u -> 1 - u cycles between 1 and 0; elsewhere it converges at once
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1),
                    rhs=lambda t, x: np.where(np.asarray(t) > 0.9, -x, 0.0 * x),
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="cycle",
                    rhs_vectorized=vectorized)
        ref = ReferenceSolution.analytic(np.ones_like)
        first = next(i for i in range(64) if derive_streams(7, i)[0].random() > 0.9)
        assert first >= 7  # lies past the first chunk
        with pytest.raises(ConvergenceError) as info:
            run_batch(p, ref, IE, 1, exact_info(), 64, 7, chunk_size=7)
        assert info.value.replication == first and info.value.step == 1

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("chunk_size", [1, 16])
    @pytest.mark.parametrize("field", ["inf", "cycle"])
    def test_implicit_euler_failure_names_lowest_replication(self, field, chunk_size,
                                                             vectorized):
        # where t n mod 1 > 0.9 the field is infinite (a non-finite iterate) or
        # -n x, whose fixed-point map u -> u_prev - u cycles; replication 2
        # meets such a step first (step 1), but replication 0 fails too, at
        # step 18, and the lowest failing replication must be the one named,
        # whatever the chunk partition
        n, seed, N = 40, 3, 16

        def rhs(t, x):
            spike = np.asarray(t) * n % 1.0 > 0.9
            return np.where(spike, np.inf if field == "inf" else -n * x, 0.0 * x)

        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1), rhs=rhs,
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="spikes",
                    rhs_vectorized=vectorized)
        ref = ReferenceSolution.analytic(np.ones_like)
        error = NumericalError if field == "inf" else ConvergenceError
        with pytest.raises(error) as info:
            run_batch(p, ref, IE, n, exact_info(), N, seed, chunk_size=chunk_size)
        assert type(info.value) is error
        assert (info.value.replication, info.value.step) == (0, 18)

    @pytest.mark.parametrize("kind", ["ee", "rk"])
    @pytest.mark.parametrize("route", ["per-call", "chunk"])
    def test_implicit_euler_rejects_fresh_noise(self, problem_A, route, kind):
        # fresh noise would redraw the map on every fixed-point iteration
        noise = NoiseModel(kind, 1e-3)
        if route == "per-call":
            oracle = NoisyOracle(problem_A, noise, 7, 5)
        else:
            oracle = ChunkOracle(problem_A, noise, 7, 5, 9)
        with pytest.raises(DomainError, match=f"not fresh {kind}"):
            run_implicit_euler(oracle, 10)
        assert oracle.eval_count == 0
        if route == "per-call":  # nor was a grid draw taken
            assert oracle.draw_taus(1)[0] == derive_streams(7, 5)[0].random()

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_fresh_noise_implicit_euler_batch_rejected(self, problem_A, ref_A, vectorized):
        p = dataclasses.replace(problem_A, rhs_vectorized=vectorized)
        with pytest.raises(DomainError, match="not fresh ee"):
            run_batch(p, ref_A, IE, 10, NoiseModel("ee", 1e-3), 20, 7, chunk_size=7)
        # delta 0 is no noise at all, so that cell runs
        run_batch(p, ref_A, IE, 10, NoiseModel("ee", 0.0), 20, 7, chunk_size=7)

    def test_fresh_noise_implicit_euler_batch_draws_no_tape(self, problem_A, ref_A):
        # a whole noise tape of this chunk would be 5000 x 8192 float64 values
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="not fresh ee"):
                run_batch(problem_A, ref_A, IE, 5000, NoiseModel("ee", 1e-3), 8192, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_implicit_euler_batch(self, problem_A, ref_A):
        b = run_batch(problem_A, ref_A, IE, 64, exact_info(), 20, 11)
        assert np.all(b.errors > 0.0) and np.all(b.errors < 0.1)

    def test_cell_metadata(self, problem_A, ref_A):
        b = run_batch(problem_A, ref_A, EE, 10, NoiseModel("ee", 0.1), 100, 1)
        assert b.cell.problem == "A" and b.cell.scheme is EE
        assert b.cell.noise_kind == "ee" and b.cell.delta == 0.1

    def test_batch_csv(self, problem_A, ref_A, tmp_path):
        b = run_batch(problem_A, ref_A, EE, 10, exact_info(), 10, 1)
        path = tmp_path / "batch.csv"
        b.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rank,error" and len(lines) == 11


def _subnormal(delta) -> bool:
    return 0.0 < delta < np.finfo(float).tiny


def _cell_or_error(run):
    """What run() returns, or the cell failure it raises."""
    try:
        return run()
    except (NumericalError, ConvergenceError, DomainError) as exc:
        return exc


def _assert_same_cells(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
            assert getattr(g, "replication", None) == getattr(w, "replication", None)
            assert getattr(g, "step", None) == getattr(w, "step", None)
        else:
            assert isinstance(g, analysis.ErrorBatch)
            assert g.cell == w.cell and g.N == w.N and g.master_seed == w.master_seed
            assert np.array_equal(g.errors, w.errors)


_COLUMN = st.tuples(st.sampled_from(NOISE_KINDS),
                    st.sampled_from([0.0, 0.0, 1e-3, 2e-3]) | st.floats(0.0, 0.1))


class TestRunCells:
    @given(scheme=st.sampled_from([EE, RK, IE]), columns=st.lists(_COLUMN, min_size=1, max_size=4),
           one_kind=st.booleans(), n=st.integers(1, 45), seed=st.integers(0, 2**64),
           chunk_size=st.integers(1, 12), perturb_eta=st.booleans(),
           vectorized=st.sampled_from([True, True, True, False]),
           parallelism=st.sampled_from([1, 1, 1, 1, 1, 2]),
           block_steps=st.sampled_from([None, 3, 5, 20]),
           block_elems=st.sampled_from([None, 24, 200]), d=st.sampled_from([1, 1, 3]))
    @example(scheme=IE, columns=[("exact", 0.0), ("ee", 1e-3), ("ee", 2e-3)], one_kind=True,
             n=10, seed=7, chunk_size=5, perturb_eta=False, vectorized=True, parallelism=1,
             block_steps=None, block_elems=None, d=1)
    @example(scheme=RK, columns=[("rk", 0.0), ("rk", 0.02), ("rk", 0.05)], one_kind=True,
             n=45, seed=3, chunk_size=12, perturb_eta=True, vectorized=True, parallelism=2,
             block_steps=20, block_elems=24, d=1)  # sub-block edges at 8 and 16, tape edges at 20
    @example(scheme=EE, columns=[("ee", 0.0), ("ee", 0.02), ("ee", 0.05)], one_kind=True,
             n=45, seed=3, chunk_size=12, perturb_eta=True, vectorized=False, parallelism=1,
             block_steps=20, block_elems=24, d=3)
    @settings(max_examples=60, deadline=None)
    def test_row_equals_its_cells(self, scheme, columns, one_kind, n, seed, chunk_size,
                                  perturb_eta, vectorized, parallelism, block_steps,
                                  block_elems, d):
        kinds = [columns[0][0] if one_kind else kind for kind, _ in columns]
        deltas = [0.0 if kind == "exact" else delta for kind, (_, delta) in zip(kinds, columns)]
        if any(map(_subnormal, deltas)):
            with pytest.raises(DomainError, match="subnormal"):
                [NoiseModel(kind, delta) for kind, delta in zip(kinds, deltas)]
            return
        noises = [NoiseModel(kind, delta) for kind, delta in zip(kinds, deltas)]
        p, ref = problem_A_in(d, vectorized), ref_A_in(d)
        kw = dict(chunk_size=chunk_size, perturb_eta=perturb_eta, parallelism=parallelism)
        with mock.patch.object(schemes, "_BLOCK_STEPS", block_steps or schemes._BLOCK_STEPS), \
                mock.patch.object(schemes, "_BLOCK_ELEMS", block_elems or schemes._BLOCK_ELEMS):
            (got,) = analysis.run_rows(p, ref, scheme, [(n, noises, 12, seed)], **kw)
            want = [_cell_or_error(functools.partial(run_batch, p, ref, scheme, n, noise, 12,
                                                     seed, **kw))
                    for noise in noises]
        _assert_same_cells(got, want)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_rows_equal_their_own_runs(self, problem_A, ref_A, parallelism):
        # rows of different n, N and columns (an ie-refused column, a delta 0 one)
        # through one map: each row is its own serial run_rows call, bit for bit
        rows = [(10, [exact_info(), NoiseModel("ee", 1e-3), NoiseModel("ie", 1e-3)], 37, 5),
                (23, [NoiseModel("ie", 2e-3), NoiseModel("ie", 0.0)], 50, 6),
                (7, [NoiseModel("ie", 5e-4)], 21, 9)]
        got = list(analysis.run_rows(problem_A, ref_A, IE, rows, parallelism=parallelism,
                                     chunk_size=16))
        assert len(got) == len(rows)
        for row, cells in zip(rows, got):
            (alone,) = analysis.run_rows(problem_A, ref_A, IE, [row], chunk_size=16)
            _assert_same_cells(cells, alone)
        assert type(got[0][1]) is DomainError

    def test_implicit_euler_row_under_fresh_noise(self, problem_A, ref_A):
        # the noisy columns are refused and join no run: the delta 0 column
        # computes, each noisy one fails with run_batch's own error
        noises = [exact_info(), NoiseModel("ee", 1e-3), NoiseModel("ee", 2e-3)]
        (got,) = analysis.run_rows(problem_A, ref_A, IE, [(10, noises, 20, 7)], chunk_size=7)
        exact = run_batch(problem_A, ref_A, IE, 10, exact_info(), 20, 7)
        assert np.array_equal(got[0].errors, exact.errors)
        for noise, cell in zip(noises[1:], got[1:]):
            with pytest.raises(DomainError) as info:
                run_batch(problem_A, ref_A, IE, 10, noise, 20, 7)
            assert type(cell) is DomainError and str(cell) == str(info.value)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_failing_columns_come_out_of_the_row_run(self, vectorized):
        # the field is infinite off a 1e-2 band around 1, and 0 beyond 1e300,
        # so a row fails the step after its noise takes it off the band: the
        # columns of one run fail in different replications (one in the
        # second chunk) and steps, or not at all
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1),
                    rhs=lambda t, x: np.where(np.abs(x) > 1e300, 0.0,
                                              np.where(np.abs(x - 1.0) > 1e-2, np.inf, 0.0)),
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="band",
                    rhs_vectorized=vectorized)
        ref = ReferenceSolution.analytic(np.ones_like)
        noises = [exact_info(), NoiseModel("rk", 0.5), NoiseModel("rk", 0.03),
                  NoiseModel("rk", 1e-3)]
        want = [_cell_or_error(functools.partial(run_batch, p, ref, EE, 4, noise, 16, 5,
                                                 chunk_size=8))
                for noise in noises]
        assert [type(w) for w in want] == [analysis.ErrorBatch, NumericalError,
                                           NumericalError, analysis.ErrorBatch]
        assert [(w.replication, w.step) for w in want[1:3]] == [(0, 4), (15, 3)]
        with mock.patch.object(analysis, "run_scheme", wraps=schemes.run_scheme) as runs:
            (got,) = analysis.run_rows(p, ref, EE, [(4, noises, 16, 5)], chunk_size=8)
        assert runs.call_count == 2  # one run per row chunk
        _assert_same_cells(got, want)

    def test_failing_column_leaves_an_interior_sup_alone(self):
        # the band field above and a reference 1 + 1e-3 t, plus 0.25 at one interior
        # offset of step 30 only: the exact column's nodes stay at 1, so its sup is there,
        # in the run's one block, where the rk 0.5 column's rows go non-finite; the
        # block's few live pairs are gathered
        n = 40
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1),
                    rhs=lambda t, x: np.where(np.abs(x) > 1e300, 0.0,
                                              np.where(np.abs(x - 1.0) > 1e-2, np.inf, 0.0)),
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="band",
                    rhs_vectorized=True)
        h = 1.0 / n
        spike = (h * np.arange(n + 1))[29] + analysis._interior_offsets(h, 8)[3]
        ref = ReferenceSolution.analytic(
            lambda t: 1.0 + 1e-3 * np.asarray(t) + 0.25 * (np.asarray(t) == spike))
        noises = [exact_info(), NoiseModel("rk", 0.5), NoiseModel("rk", 1e-3)]
        with mock.patch.object(analysis, "_fold_live", wraps=analysis._fold_live) as gathered:
            (got,) = analysis.run_rows(p, ref, EE, [(n, noises, 16, 5)], chunk_size=8)
        assert gathered.call_count == 2  # one block in each row chunk
        want = [_cell_or_error(functools.partial(run_batch, p, ref, EE, n, noise, 16, 5,
                                                 chunk_size=8))
                for noise in noises]
        assert [type(w) for w in want] == [analysis.ErrorBatch, NumericalError,
                                           analysis.ErrorBatch]
        assert np.all(want[0].errors == ref.values_at([spike])[0, 0] - 1.0)
        _assert_same_cells(got, want)

    def test_contraction_margin_refuses_its_column_only(self, problem_B, ref_B):
        # problem B has L = 50, so at n = 51 delta 1 breaks h (L + delta) < 1
        noises = [exact_info(), NoiseModel("ie", 1.0)]
        (got,) = analysis.run_rows(problem_B, ref_B, IE, [(51, noises, 20, 7)], chunk_size=8)
        want = [_cell_or_error(functools.partial(run_batch, problem_B, ref_B, IE, 51, noise,
                                                 20, 7, chunk_size=8))
                for noise in noises]
        assert type(want[1]) is DomainError and "contraction margin" in str(want[1])
        _assert_same_cells(got, want)

    @pytest.mark.parametrize("kw", [dict(chunk_size=0), dict(chunk_size=-3),
                                    dict(parallelism=0), dict(parallelism=-2),
                                    dict(chunk_size=2.5), dict(parallelism=1.5),
                                    dict(N=20.0), dict(n=10.0)],
                             ids=["chunk0", "chunk-3", "par0", "par-2",
                                  "chunk2.5", "par1.5", "N20.0", "n10.0"])
    def test_bad_chunk_size_or_parallelism_rejected(self, problem_A, ref_A, kw):
        kw = {"n": 10, "N": 20, **kw}
        n, N = kw.pop("n"), kw.pop("N")
        with pytest.raises(DomainError, match="must be >= 1"):
            run_batch(problem_A, ref_A, EE, n, exact_info(), N, 1, **kw)
        with pytest.raises(DomainError, match="must be >= 1"):
            next(analysis.run_rows(problem_A, ref_A, EE, [(n, [exact_info()] * 2, N, 1)], **kw))

    def test_numpy_integer_sizes_accepted(self, problem_A, ref_A):
        want = run_batch(problem_A, ref_A, EE, 10, exact_info(), 20, 1, chunk_size=8)
        got = run_batch(problem_A, ref_A, EE, np.int64(10), exact_info(), np.int32(20), 1,
                        chunk_size=np.int64(8), parallelism=np.int64(1))
        assert np.array_equal(got.errors, want.errors)

    def test_one_kernel_block_per_sink_block(self, problem_A, ref_A):
        # three ee columns of 2048 rows hold 6144 values a step, so at n = 20 the run
        # hands its sink blocks of 8, 8 and 4 steps; the kernel takes each one whole
        # (_step_terms runs once a kernel block) and folds all of its knots first
        row = [exact_info(), NoiseModel("ee", 1e-3), NoiseModel("ee", 2e-3)]
        with mock.patch.object(analysis, "_sup_error_kernel",
                               wraps=analysis._sup_error_kernel) as sink_calls, \
                mock.patch.object(analysis, "_step_terms",
                                  wraps=analysis._step_terms) as kernel_blocks:
            next(analysis.run_rows(problem_A, ref_A, EE, [(20, row, 2048, 3)]))
        assert sink_calls.call_count == 3
        assert kernel_blocks.call_count == sink_calls.call_count

    def test_no_columns_no_cells(self, problem_A, ref_A):
        assert list(analysis.run_rows(problem_A, ref_A, EE, [(10, [], 20, 1)])) == [[]]

    def test_a_raising_rhs_propagates(self):
        # only a run's own failures become cells; anything else stops the row
        def rhs(t, x):
            raise DomainError("outside the field's domain")

        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1), rhs=rhs,
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="raising",
                    rhs_vectorized=True)
        with pytest.raises(DomainError, match="field's domain"):
            next(analysis.run_rows(p, ReferenceSolution.analytic(np.ones_like), EE,
                                   [(4, [exact_info(), NoiseModel("ee", 1e-3)], 8, 1)]))

    @pytest.mark.parametrize("n", [100, 5000])
    def test_row_chunk_memory_is_that_of_one_cell(self, problem_A, ref_A, n):
        # the draws are shared and the nodes come in sub-blocks, so three
        # columns need little more than one
        row = [exact_info(), NoiseModel("ee", 1e-3), NoiseModel("ee", 2e-3)]
        next(analysis.run_rows(problem_A, ref_A, EE, [(1, row, 2, 3)]))  # first-call imports

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        three = traced_peak(lambda: next(analysis.run_rows(problem_A, ref_A, EE,
                                                           [(n, row, 2048, 3)])))
        one = traced_peak(lambda: run_batch(problem_A, ref_A, EE, n, row[2], 2048, 3))
        assert three <= 1.2 * one

    def test_rows_hold_nothing_of_the_rows_yielded(self, problem_A, ref_A):
        # the default ee columns at n = 10, each row consumed and dropped as it comes: a
        # row's plan is dropped once it is consumed, its cells are views of its (k, N)
        # errors sorted in place, and nothing else of it stays, so four equal rows peak as
        # one does, within less than a row's k N doubles
        noises = [exact_info()] + [NoiseModel("ee", delta)
                                   for delta in (10**-1.1, 0.1, 10**-0.9, 2e-3, 1e-4)]
        row = (10, noises, 20_000, 3)

        def traced_peak(rows):
            tracemalloc.start()
            try:
                rows_run = analysis.run_rows(problem_A, ref_A, EE, rows, chunk_size=4096)
                assert list(map(len, rows_run)) == [len(noises)] * len(rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak([(10, noises, 20, 3)])  # first-call imports
        one, four = traced_peak([row]), traced_peak([row] * 4)
        assert four < one + len(noises) * 20_000 * 8


class TestXiHat:
    def test_hand_example(self, problem_A):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 1, "exact", 0.0)
        batch = ErrorBatch(cell, np.array([1.0, 2.0, 3.0, 4.0]), 0, 4)
        q = xi_hat(batch, 0.25, gamma=0.0)  # denom = max(1^0, 0) = 1
        assert q.xi_hat == 3.0 and q.denom == 1.0

    def test_equal_errors(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "exact", 0.0)
        batch = ErrorBatch(cell, np.full(50, 0.7), 0, 50)
        for eps in (0.5, 0.1, 0.02):
            assert xi_hat(batch, eps, gamma=1.0).xi_hat == pytest.approx(7.0)

    def test_delta_enters_denominator(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "ee", 0.5)
        batch = ErrorBatch(cell, np.linspace(0.1, 1.0, 10), 0, 10)
        q = xi_hat(batch, 0.1, gamma=1.0)
        assert q.denom == 0.5  # max(0.1, 0.5)

    def test_empty_batch_rejected(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "exact", 0.0)
        with pytest.raises(DomainError):
            xi_hat(ErrorBatch(cell, np.array([]), 0, 0), 0.05, 1.0)

    def test_epsilon_validated(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "exact", 0.0)
        batch = ErrorBatch(cell, np.array([1.0]), 0, 1)
        with pytest.raises(DomainError):
            xi_hat(batch, 0.0, 1.0)
        with pytest.raises(DomainError):
            xi_hat(batch, 1.0, 1.0)

    def test_order_statistic_index_robust(self):
        assert order_statistic_index(0.05, 100_000) == 95_000
        assert order_statistic_index(0.25, 4) == 3
        assert order_statistic_index(0.05, 10_000) == 9_500
        assert order_statistic_index(0.3, 7) == 5  # ceil(4.9)


class TestTailCurve:
    def _batch(self, errors, n=10, delta=0.0):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, n, "exact" if delta == 0 else "ee", delta)
        return ErrorBatch(cell, np.sort(np.asarray(errors, dtype=float)), 0, len(errors))

    def test_endpoints(self):
        batch = self._batch(np.linspace(0.01, 0.2, 100))
        curve = tail_curve(batch, 1.0, [0.0, 100.0])
        assert curve.probs[0] == 1.0  # all errors exceed 0
        assert curve.probs[-1] == 0.0

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        batch = self._batch(rng.exponential(0.1, size=1000))
        curve = tail_curve(batch, 1.0, np.linspace(0.0, 5.0, 40))
        assert np.all(np.diff(curve.probs) <= 0.0)
        assert np.all((curve.probs >= 0) & (curve.probs <= 1))
        assert np.all(curve.wilson_low <= curve.probs + 1e-12)
        assert np.all(curve.probs <= curve.wilson_high + 1e-12)

    def test_unsorted_grid_rejected(self):
        batch = self._batch([0.1, 0.2])
        with pytest.raises(DomainError):
            tail_curve(batch, 1.0, [1.0, 0.5])

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_grid_rejected(self, grid):
        # a NaN compares false both ways, so an order test alone lets it through
        with pytest.raises(DomainError):
            tail_curve(self._batch([0.1, 0.2]), 1.0, grid)

    def test_consistent_with_quantile(self, problem_A, ref_A):
        batch = run_batch(problem_A, ref_A, EE, 20, exact_info(), 4000, 21)
        q = xi_hat(batch, 0.05, 1.0)
        curve = tail_curve(batch, 1.0, [q.xi_hat])
        assert curve.wilson_low[0] <= 0.05 <= curve.wilson_high[0]

    def test_csv(self, tmp_path):
        batch = self._batch(np.linspace(0.01, 0.2, 50))
        curve = tail_curve(batch, 1.0, np.linspace(0, 3, 5))
        path = tmp_path / "tail.csv"
        curve.write_csv(path)
        assert path.read_text().startswith("xi,prob,wilson_low,wilson_high")


@pytest.mark.parametrize("run", [
    lambda: schemes.run_scheme(NoisyOracle(problem_A_in(1), exact_info(), 0, 0), EE, 10.0),
    lambda: schemes.martingale_diagnostic(10.5, 100, 0),
    lambda: schemes.martingale_diagnostic(10, 2.5, 0),
    lambda: check_class_membership(problem_A_in(1), 2.5),
    lambda: run_implicit_euler(NoisyOracle(problem_A_in(1), exact_info(), 0, 0), 10,
                               max_iter=2.5),
    lambda: wilson_interval(1, 0),
    lambda: IvpSpec(a=0.0, b=1.0, d=1.0, eta=np.ones(1), rhs=np.sin,
                    class_params=ClassParams(K=2.0, L=1.0, rho=1.5)),
], ids=["run_scheme-n", "martingale-n", "martingale-reps", "membership-samples",
        "implicit-euler-max_iter", "wilson-n0", "ivp-d"])
def test_a_count_that_is_not_an_integer_of_its_least_value_is_a_domain_error(run):
    # every integer count goes through one check: a float, or a count below its least value
    with pytest.raises(DomainError, match="and an integer"):
        run()


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 100)
    # standard Wilson score interval for 5/100 at z = 1.96
    assert lo == pytest.approx(0.0215, abs=2e-3)
    assert hi == pytest.approx(0.1118, abs=2e-3)
    assert wilson_interval(0, 10)[0] == 0.0


@pytest.mark.parametrize("count", [-1, 11, np.nan])
def test_wilson_interval_count_outside_its_range_is_a_domain_error(count):
    # sqrt of a negative p(1 - p) would raise an untyped ValueError
    with pytest.raises(DomainError, match=r"count must be in \[0, 10\]"):
        wilson_interval(count, 10)


class TestConfidenceBand:
    def test_radius_arithmetic(self, problem_A):
        o = NoisyOracle(problem_A, NoiseModel("ee", 1.0 / 25.0), 3, 0)
        tr = run_explicit_euler(o, 25)
        band = confidence_band(tr, gamma=1.0, delta=1.0 / 25.0, xi_eps=3.0)
        assert band.radius == pytest.approx(0.12, abs=1e-12)
        band_rk = confidence_band(tr, gamma=1.5, delta=25.0**-1.5, xi_eps=5.9)
        assert band_rk.radius == pytest.approx(5.9 * 25.0**-1.5, abs=1e-12)
        assert band_rk.radius == pytest.approx(0.0472, abs=1e-4)

    def test_zero_xi_degenerates_to_trajectory(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 25)
        band = confidence_band(tr, 1.0, 0.0, 0.0, grid_points=11)
        assert np.array_equal(band.lower, band.center)
        assert np.array_equal(band.upper, band.center)

    def test_envelopes_offset_by_radius(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 25)
        band = confidence_band(tr, 1.0, 0.0, 2.0, grid_points=31)
        assert np.allclose(band.upper - band.center, band.radius)
        assert np.allclose(band.center - band.lower, band.radius)

    def test_csv_columns(self, problem_A, tmp_path):
        o = NoisyOracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 5)
        band = confidence_band(tr, 1.0, 0.0, 1.0, grid_points=7)
        path = tmp_path / "band.csv"
        band.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,lower,upper,center"
        assert len(lines) == 8

    def test_negative_xi_rejected(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 5)
        with pytest.raises(DomainError):
            confidence_band(tr, 1.0, 0.0, -1.0)

    @pytest.mark.parametrize("grid_points", [2.5, 1, np.float64(3.0), "3"])
    def test_grid_points_must_be_an_integer_of_at_least_2(self, problem_A, grid_points):
        tr = run_explicit_euler(NoisyOracle(problem_A, exact_info(), 3, 0), 5)
        with pytest.raises(DomainError, match="integer >= 2"):
            confidence_band(tr, 1.0, 0.0, 1.0, grid_points=grid_points)
        assert confidence_band(tr, 1.0, 0.0, 1.0, grid_points=np.int64(2)).ts.shape == (2,)

    def test_nan_xi_rejected(self, problem_A):
        tr = run_explicit_euler(NoisyOracle(problem_A, exact_info(), 3, 0), 5)
        with pytest.raises(DomainError):
            confidence_band(tr, 1.0, 0.0, float("nan"))

    def test_band_from_xi_hat_reproduces_the_order_statistic(self):
        # z' = z on [0, 2]: h = 2 / n, so the scale is max(h^gamma, delta), not n^-gamma
        p = IvpSpec(a=0.0, b=2.0, d=1, eta=np.array([1.0]), rhs=lambda t, x: x,
                    class_params=ClassParams(K=1.0, L=1.0, rho=1.5), name="exp02",
                    rhs_vectorized=True)
        ref = ReferenceSolution.analytic(np.exp)
        batch = run_batch(p, ref, EE, 50, exact_info(), 2000, 8)
        q = xi_hat(batch, 0.05, 1.0)
        assert q.denom == 2.0 / 50
        tr = run_explicit_euler(NoisyOracle(p, exact_info(), 8, 0), 50)
        band = confidence_band(tr, 1.0, 0.0, q.xi_hat)
        assert band.radius == batch.errors[order_statistic_index(0.05, 2000) - 1]


def _unit_batch(delta=0.0):
    from randode.analysis import BatchCell, ErrorBatch
    return ErrorBatch(BatchCell("A", EE, 10, "ee", delta), np.linspace(0.1, 1.0, 10), 0, 10)


_BAD_SCALES = [(np.nan, 0.0), (np.inf, 0.0), (-1.0, 0.0), (1.0, np.nan), (1.0, -0.5),
               (1.0, 2.0)]


class TestErrorScale:
    def test_unit_span_is_n_to_the_minus_gamma(self):
        for n in (7, 49, 5000):
            for gamma in (1.0, 1.5, 0.75):
                assert analysis.error_scale(n, 1.0, gamma, 0.0) == float(n) ** -gamma
        assert analysis.error_scale(10, 2.0, 1.0, 0.0) == 0.2
        assert analysis.error_scale(10, 1.0, 1.0, 0.5) == 0.5

    @pytest.mark.parametrize("gamma,delta", _BAD_SCALES)
    def test_xi_hat_and_tail_curve_reject_bad_scales(self, gamma, delta):
        with pytest.raises(DomainError):
            xi_hat(_unit_batch(delta), 0.05, gamma)
        with pytest.raises(DomainError):
            tail_curve(_unit_batch(delta), gamma, [0.0, 1.0])

    @pytest.mark.parametrize("n,span,gamma", [(10, 1e10, 40.0), (10**6, 1.0, 60.0)],
                             ids=["overflow", "underflow"])
    def test_scale_that_is_not_positive_and_finite_refused(self, n, span, gamma):
        # span^gamma overflows Python floats; n^-gamma underflows to a zero scale
        with pytest.raises(DomainError, match="not a positive finite float"):
            analysis.error_scale(n, span, gamma, 0.0)

    def test_xi_hat_refuses_a_zero_scale(self):
        from randode.analysis import BatchCell, ErrorBatch
        batch = ErrorBatch(BatchCell("A", EE, 10**6, "exact", 0.0), np.linspace(0.1, 1.0, 10),
                           0, 10)
        with pytest.raises(DomainError, match="not a positive finite float"):
            xi_hat(batch, 0.05, 60.0)

    @pytest.mark.parametrize("gamma,delta,xi", [g_d + (1.0,) for g_d in _BAD_SCALES]
                             + [(1.0, 0.0, np.inf)])
    def test_confidence_band_rejects_bad_scales(self, problem_A, gamma, delta, xi):
        tr = run_explicit_euler(NoisyOracle(problem_A, exact_info(), 3, 0), 5)
        with pytest.raises(DomainError):
            confidence_band(tr, gamma, delta, xi)


class TestSlopes:
    def test_exact_power_law(self):
        ns = [64, 128, 256, 512, 1024]
        means = [3.0 * n**-1.0 for n in ns]
        fit = fit_loglog_slope(ns, means)
        assert abs(fit.slope - (-1.0)) <= 1e-12
        assert fit.ci_low <= fit.slope <= fit.ci_high

    def test_zero_errors_rejected(self):
        with pytest.raises(DomainError):
            fit_loglog_slope([10, 20, 40], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("ns,means", [([10, 20, 40], [1.0, np.nan, 0.3]),
                                          ([0, 20, 40], [1.0, 0.5, 0.3]),
                                          ([-10, 20, 40], [1.0, 0.5, 0.3])],
                             ids=["nan-mean", "n0", "n-negative"])
    def test_nan_error_or_nonpositive_n_rejected(self, ns, means):
        # a NaN mean compares false both ways and would fit slope = nan
        with pytest.raises(DomainError, match="must be > 0"):
            fit_loglog_slope(ns, means)

    @pytest.mark.parametrize("ns,means,message", [
        ([4, 4, 4], [1.0, 0.5, 0.3], "all equal"),
        ([10, 20, 40], [1.0, np.inf, 0.3], "finite"),
    ], ids=["repeated-n", "inf-mean"])
    def test_ladder_that_fits_no_slope_rejected(self, ns, means, message):
        # no line fits equal step counts (sxx = 0), nor a mean error that is not finite
        with pytest.raises(DomainError, match=message):
            fit_loglog_slope(ns, means)

    def test_ladder_validation(self, problem_A, ref_A):
        with pytest.raises(DomainError):
            convergence_slope(problem_A, ref_A, EE, [10, 20], 10, 0)
        with pytest.raises(DomainError):
            convergence_slope(problem_A, ref_A, EE, [10, 20, 30], 10, 0)

    def test_explicit_euler_slope_on_A(self, problem_A, ref_A):
        fit = convergence_slope(problem_A, ref_A, EE, [64, 128, 256, 512, 1024], 64, 17)
        assert -1.15 <= fit.slope <= -0.85


class TestCachedDenseLookup:
    """The implied-grid lookup is np.interp over np.linspace's knots, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(interval=st.sampled_from([(0.0, 1.0), (0.0, 0.5)]),
           size=st.integers(2, 100_001),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-300, 1.0, 1e300]),
           drawn=st.lists(st.floats(-1e-12, 1.0 + 1e-12), max_size=20),
           lead=st.lists(st.floats(-1e300, 1e300), max_size=8))
    @example(interval=(0.0, 1.0), size=2, seed=0, scale=1.0, drawn=[], lead=[-0.0, -0.0])
    @example(interval=(0.0, 0.5), size=100_001, seed=1, scale=1.0, drawn=[0.5 + 1e-12],
             lead=[-0.0, 1.0, 0.0])
    def test_equals_np_interp(self, interval, size, seed, scale, drawn, lead):
        a, b = interval
        rng = np.random.default_rng(seed)
        values = scale * rng.standard_normal(size)
        # drawn values (signed zeros among them) on the first knots, each looked up
        lead = lead[:size]
        values[:len(lead)] = lead
        grid = np.linspace(a, b, size)
        knots = np.concatenate([grid[:len(lead) + 1], grid[rng.integers(0, size, 500)]])
        band = 1e-12 * rng.random(50)
        ts = np.concatenate([
            rng.uniform(a, b, 500), knots, np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf), [a, b], a - band, b + band,
            [t for t in drawn if a - 1e-12 <= t <= b + 1e-12],
        ])
        ts = ts[(ts >= a - 1e-12) & (ts <= b + 1e-12)]
        got = ReferenceSolution.cached_dense(a, b, values).values_at(ts)
        assert got.shape == (ts.shape[0], 1)
        want = np.interp(ts, grid, values)
        assert np.array_equal(got[:, 0].view(np.int64), want.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(interval=st.sampled_from([(0.0, 1.0), (0.0, 0.5)]),
           size=st.integers(2, 100_001),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-300, 1.0, 1e300]),
           drawn=st.lists(st.floats(-1e-12, 1.0 + 1e-12), max_size=20),
           lead=st.lists(st.floats(-1e300, 1e300), max_size=8))
    @example(interval=(0.0, 1.0), size=2, seed=0, scale=1.0, drawn=[], lead=[-0.0, -0.0])
    @example(interval=(0.0, 0.5), size=100_001, seed=1, scale=1.0, drawn=[0.5 + 1e-12],
             lead=[-0.0, 1.0, 0.0])
    def test_loaded_equals_np_interp(self, interval, size, seed, scale, drawn, lead):
        # test_equals_np_interp's cases, the values read from a cache file of them
        from randode import analysis
        a, b = interval
        rng = np.random.default_rng(seed)
        values = scale * rng.standard_normal(size)
        lead = lead[:size]
        values[:len(lead)] = lead
        grid = np.linspace(a, b, size)
        knots = np.concatenate([grid[:len(lead) + 1], grid[rng.integers(0, size, 500)]])
        band = 1e-12 * rng.random(50)
        ts = np.concatenate([
            rng.uniform(a, b, 500), knots, np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf), [a, b], a - band, b + band,
            [t for t in drawn if a - 1e-12 <= t <= b + 1e-12],
        ])
        ts = ts[(ts >= a - 1e-12) & (ts <= b + 1e-12)]
        header = {"problem": "B", "method": "rk4", "n_ref": size - 1, "a": a, "b": b, "d": 1}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ref.bin")
            analysis._write_reference(path, header, values)
            got = analysis._read_reference(path, header).values_at(ts)
        assert got.shape == (ts.shape[0], 1)
        want = np.interp(ts, grid, values)
        assert np.array_equal(got[:, 0].view(np.int64), want.view(np.int64))

    # 3640 steps are two whole lookup blocks at d = 1, and 5000 end in a partial one
    @pytest.mark.parametrize("n", [7, 1000, 3640, 5000])
    def test_one_lookup_per_row_equals_one_per_offset(self, ref_A, ref_B, n):
        # the knots and every interior offset, a block of steps at a time, bitwise as K + 1 calls
        from randode import analysis
        knots = np.linspace(0.0, 1.0, n + 1)
        dt = analysis._interior_offsets(1.0 / n, 8)
        for ref in (ref_A, ref_B):
            ref_knots, ref_int = analysis._reference_grids(ref, knots, dt)
            assert np.array_equal(ref_knots.view(np.int64), ref.values_at(knots).view(np.int64))
            for k, off in enumerate(dt):
                want = ref.values_at(knots[:-1] + off)
                assert np.array_equal(ref_int[k].view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("t", [np.nan, -2e-12, 1.0 + 2e-12])
    def test_nan_or_uncovered_time_raises(self, t):
        ref = ReferenceSolution.cached_dense(0.0, 1.0, np.arange(11.0))
        with pytest.raises(ReferenceSolutionError):
            ref.values_at([0.5, t])


class TestReferenceB:
    def test_initial_value(self, ref_B):
        assert ref_B.values_at([0.0])[0, 0] == 1.0

    def test_build_pinned(self, tmp_path):
        path = tmp_path / "ref.bin"
        pinned = "7ae1b6fe5cd0d319199d90aef09a42d46d5131270505ebe887ca54ef3d0ea140"
        for _ in range(2):  # built, then loaded from the cache
            assert build_reference_B(100_000, path).provenance["sha256"] == pinned

    def test_cached_load_holds_one_buffer(self, ref_B, ref_B_cache):
        # the values stay in the file: loading the 2e6-step cache (16 MB) streams it
        # through one buffer, and a row's lookup holds little beyond the row's grids
        from randode import analysis
        tracemalloc.start()
        try:
            ref = build_reference_B(2_000_000, ref_B_cache)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            knots = np.linspace(0.0, 1.0, 5001)
            ref_knots, ref_int = analysis._reference_grids(
                ref, knots, analysis._interior_offsets(1 / 5000, 8))
            row_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_peak <= 2 * 2**20
        # about ten arrays of the row's size (times, indices, values), and the one buffer
        assert row_peak <= 12 * (ref_knots.nbytes + ref_int.nbytes) + analysis._READ_BYTES

    def test_row_lookup_memory_does_not_grow_with_n(self, ref_A, ref_B):
        # a row's grids are filled a block of steps at a time: at n = 50,000 the lookup holds
        # the grids (3.4 MB), the cache's read buffer and a few arrays of one block's times
        from randode import analysis
        n = 50_000
        knots = np.linspace(0.0, 1.0, n + 1)
        dt = analysis._interior_offsets(1 / n, 8)
        for ref, read_buffer in ((ref_A, 0), (ref_B, analysis._READ_BYTES)):
            tracemalloc.start()
            try:
                ref_knots, ref_int = analysis._reference_grids(ref, knots, dt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            block_bytes = 8 * schemes._BLOCK_ELEMS
            assert peak <= ref_knots.nbytes + ref_int.nbytes + read_buffer + 12 * block_bytes

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
    def test_cache_file_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "ref.bin"
        old = os.umask(umask)
        try:
            build_reference_B(100_000, path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "r1.bin", tmp_path / "r2.bin"
        build_reference_B(100_000, p1)
        build_reference_B(100_000, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cache_reused_and_metadata_checked(self, tmp_path):
        path = tmp_path / "ref.bin"
        r1 = build_reference_B(100_000, path)
        stamp = path.stat().st_mtime_ns
        r2 = build_reference_B(100_000, path)
        assert path.stat().st_mtime_ns == stamp  # untouched on hit
        ts = np.linspace(0.0, 1.0, 200_001)  # every knot and every midpoint
        assert np.array_equal(r1.values_at(ts), r2.values_at(ts))
        end = r2.values_at([1.0])
        r3 = build_reference_B(120_000, path)  # different build params: rewritten
        assert r3.provenance["n_ref"] == 120_000 and r3.grid_values.shape == (120_001, 1)
        assert r3.values_at([1.0])[0, 0] != end[0, 0]
        with pytest.raises(ReferenceSolutionError, match="other values"):
            r2.values_at([1.0])  # its file now holds other values

    def test_corrupt_cache_recomputed(self, tmp_path):
        path = tmp_path / "ref.bin"
        build_reference_B(100_000, path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        ref = build_reference_B(100_000, path)
        assert ref.values_at([0.0])[0, 0] == 1.0
        # file was repaired
        data2 = path.read_bytes()
        assert data2[-5] != data[-5]

    def test_truncated_cache_recomputed(self, tmp_path):
        path = tmp_path / "ref.bin"
        build_reference_B(100_000, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])  # the payload is no longer whole float64 values
        ref = build_reference_B(100_000, path)
        assert path.read_bytes() == whole
        assert ref.grid_values.shape == (100_001, 1)

    def test_built_and_loaded_values_bitwise_equal(self, tmp_path):
        # a built reference reads the file it wrote, as a loaded one does: both are
        # the in-memory lookup of the computed values at every knot and midpoint
        from randode import analysis
        path = tmp_path / "ref.bin"
        ts = np.linspace(0.0, 1.0, 200_001)
        held = ReferenceSolution.cached_dense(0.0, 1.0, analysis._rk4_dense_B(100_000))
        want = held.values_at(ts).view(np.int64)
        for _ in range(2):  # built, then loaded from the cache
            ref = build_reference_B(100_000, path)
            assert isinstance(ref.grid_values, analysis._CacheValues)
            assert np.array_equal(ref.values_at(ts).view(np.int64), want)

    def test_scalar_lookup_reads_three_values(self, ref_B, monkeypatch):
        # v[j] and v[j + 1] in one read, v[n] in another: 24 bytes, at any n_ref
        from randode import analysis
        reads = []

        class Counting(io.FileIO):
            def readinto(self, buf):
                reads.append(super().readinto(buf))
                return reads[-1]

        monkeypatch.setattr(analysis, "open", lambda path, mode, **kw: Counting(path, "r"),
                            raising=False)
        ref_B.values_at([0.3])
        assert reads == [16, 8]

    def test_replaced_cache_is_verified_again(self, tmp_path):
        # a lookup reads the file it verified: a replacement must hold the same values
        from randode import analysis
        path = tmp_path / "ref.bin"
        ref = build_reference_B(100_000, path)
        want = ref.values_at([0.0, 0.5, 1.0])
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        (tmp_path / "corrupt").write_bytes(bytes(data))
        os.replace(tmp_path / "corrupt", path)
        with pytest.raises(ReferenceSolutionError, match="checksum mismatch"):
            ref.values_at([0.5])
        analysis._write_reference(path, {"n_ref": 100_000}, np.zeros(100_001))
        with pytest.raises(ReferenceSolutionError, match="other values"):
            ref.values_at([0.5])
        build_reference_B(100_000, path)  # a fresh build of the same values: accepted
        assert np.array_equal(ref.values_at([0.0, 0.5, 1.0]), want)
        path.unlink()
        with pytest.raises(ReferenceSolutionError, match="No such file"):
            ref.values_at([0.5])

    def test_interrupted_write_keeps_old_cache(self, tmp_path, monkeypatch):
        from randode import analysis
        path = tmp_path / "ref.bin"
        build_reference_B(100_000, path)
        before = path.read_bytes()

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(analysis.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            build_reference_B(120_000, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["ref.bin"]  # no temp file left

    def test_default_cache_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDODE_CACHE_DIR", str(tmp_path / "cache"))
        assert default_ref_cache(100_000) == str(tmp_path / "cache" / "refB_rk4_100000.bin")
        ref = build_reference_B(100_000)
        assert (tmp_path / "cache" / "refB_rk4_100000.bin").is_file()
        assert ref.provenance["n_ref"] == 100_000

    def test_n_ref_floor(self, tmp_path):
        with pytest.raises(DomainError):
            build_reference_B(10_000, tmp_path / "r.bin")

    def test_agrees_with_randomized_solver(self, problem_B, ref_B):
        # independent route: a randomized Runge-Kutta run at moderate depth
        o = NoisyOracle(problem_B, exact_info(), 4, 0)
        tr = run_rk2(o, 20_000)
        end = ref_B.values_at([1.0])[0, 0]
        assert abs(tr.nodes[-1, 0] - end) <= 1e-5


class TestSeedDerivation:
    def test_cells_differ_by_coordinates(self):
        s1 = derive_cell_seed(1, EE, "A", 10)
        assert derive_cell_seed(1, EE, "A", 10) == s1
        assert derive_cell_seed(1, EE, "A", 20) != s1
        assert derive_cell_seed(1, RK, "A", 10) != s1
        assert derive_cell_seed(1, EE, "B", 10) != s1
        assert derive_cell_seed(2, EE, "A", 10) != s1

    def test_custom_problem_names_hashable(self):
        assert derive_cell_seed(1, EE, "mine", 10) == derive_cell_seed(1, EE, "mine", 10)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(DomainError, match="master seed"):
            derive_cell_seed(-1, EE, "A", 10)


@pytest.mark.slow
def test_quantile_stabilizes_in_n(problem_A, ref_A):
    # with delta at or below the scheme rate, the multiplier settles as n grows
    rules = [("0", 0.0), ("n^-1.1", None), ("n^-1", None)]
    for label, fixed in rules:
        vals = {}
        for n in (2000, 5000):
            delta = fixed if fixed is not None else float(n) ** -(1.1 if label == "n^-1.1" else 1.0)
            noise = NoiseModel("ee", delta) if delta > 0 else exact_info()
            batch = run_batch(problem_A, ref_A, EE, n, noise, 10_000,
                              derive_cell_seed(123, EE, "A", n), parallelism=2)
            vals[n] = xi_hat(batch, 0.05, 1.0).xi_hat
        assert abs(vals[2000] - vals[5000]) <= 0.15, label
