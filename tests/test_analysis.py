import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from randode import (
    ClassParams,
    ConvergenceError,
    DomainError,
    IvpSpec,
    NoiseModel,
    NumericalError,
    ReferenceSolution,
    ReferenceSolutionError,
    SchemeKind,
    build_reference_B,
    confidence_band,
    convergence_slope,
    derive_cell_seed,
    exact_info,
    fit_loglog_slope,
    make_oracle,
    run_batch,
    run_explicit_euler,
    run_implicit_euler,
    run_rk2,
    sup_error,
    tail_curve,
    xi_hat,
)
from randode import analysis
from randode.analysis import default_ref_cache, order_statistic_index, wilson_interval
from randode.noise import NOISE_KINDS, ChunkOracle, derive_streams

from conftest import constant_field_problem, zero_field_problem

EE = SchemeKind.EXPLICIT_EULER
RK = SchemeKind.RUNGE_KUTTA2
IE = SchemeKind.IMPLICIT_EULER


class TestSupError:
    def test_linear_solution_measures_zero(self):
        # constant field: exact solution is linear, interpolant reproduces it
        p = constant_field_problem()
        o = make_oracle(p, exact_info(), 0, 0)
        tr = run_explicit_euler(o, 7)
        ref = ReferenceSolution.analytic(lambda t: 1.0 + 0.25 * np.asarray(t))
        assert sup_error(tr, ref, subsamples_per_step=7) <= 1e-14

    def test_chord_versus_parabola(self):
        # linear interpolant of t^2 deviates by h^2/4, attained mid-interval
        p = zero_field_problem()
        n = 8
        o = make_oracle(p, exact_info(), 0, 0)
        tr = run_explicit_euler(o, n)
        tr.nodes[:, 0] = tr.grid.knots**2
        ref = ReferenceSolution.analytic(lambda t: np.asarray(t) ** 2)
        h = 1.0 / n
        # odd subsample count puts a point on each midpoint
        assert abs(sup_error(tr, ref, subsamples_per_step=7) - h * h / 4.0) <= 1e-12

    def test_single_seed_magnitude(self, problem_A, ref_A):
        o = make_oracle(problem_A, exact_info(), 42, 0)
        tr = run_explicit_euler(o, 1000)
        e = sup_error(tr, ref_A)
        assert 0.0 < e < 0.05

    def test_subsamples_validated(self, problem_A, ref_A):
        o = make_oracle(problem_A, exact_info(), 42, 0)
        tr = run_explicit_euler(o, 4)
        with pytest.raises(DomainError):
            sup_error(tr, ref_A, subsamples_per_step=0)

    def test_uncovered_reference_raises(self, problem_A):
        ref = ReferenceSolution.cached_dense(np.linspace(0.0, 0.5, 100), np.zeros(100))
        o = make_oracle(problem_A, exact_info(), 42, 0)
        tr = run_explicit_euler(o, 4)
        with pytest.raises(ReferenceSolutionError):
            sup_error(tr, ref)


def unblocked_sup_error_kernel(nodes, h, ref_knots, ref_int, dt):
    """The specification of analysis._sup_error_kernel: whole-array temporaries."""
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


class TestSupErrorKernel:
    @given(M=st.integers(1, 40), n=st.integers(1, 60), d=st.sampled_from([1, 3]),
           subsamples=st.integers(1, 9), block=st.sampled_from([None, 1, 5, 64, 700]),
           seed=st.integers(0, 2**32 - 1))
    @example(M=1, n=33_000, d=1, subsamples=2, block=None, seed=1)  # n + 1 > the real block
    @example(M=3, n=11_000, d=3, subsamples=3, block=None, seed=2)
    @example(M=7, n=4, d=3, subsamples=8, block=30, seed=3)  # two rows a block, last one alone
    @settings(max_examples=80, deadline=None)
    def test_blocked_matches_unblocked(self, M, n, d, subsamples, block, seed):
        args = _kernel_inputs(M, n, d, subsamples, seed)
        with mock.patch.object(analysis, "_BLOCK_ELEMS", block or analysis._BLOCK_ELEMS):
            got = analysis._sup_error_kernel(*args)
        assert np.array_equal(got, unblocked_sup_error_kernel(*args))

    def test_scratch_is_o_block(self):
        # 200 rows of n = 5000 make six-row blocks, the last one of two rows
        args = _kernel_inputs(200, 5000, 1, 8, 0)
        want = unblocked_sup_error_kernel(*args)
        tracemalloc.start()
        try:
            got = analysis._sup_error_kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        block_bytes = 8 * analysis._BLOCK_ELEMS
        assert peak <= 4 * block_bytes  # two scratch blocks and small change
        assert peak * 10 < 8 * 200 * 5000  # one (m, n) array


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
        for (p, ref), perturb_eta in itertools.product(
                ((problem_A, ref_A), (problem_B, ref_B)), (False, True)):
            fast = run_batch(p, ref, scheme, n, noise, 32, 77, chunk_size=13,
                             perturb_eta=perturb_eta)
            slow = run_batch(dataclasses.replace(p, rhs_vectorized=False), ref, scheme, n,
                             noise, 32, 77, perturb_eta=perturb_eta)
            assert np.array_equal(fast.errors, slow.errors)

    @given(scheme=st.sampled_from([EE, RK, IE]), kind=st.sampled_from(NOISE_KINDS),
           delta=st.floats(0.0, 0.1), n=st.integers(3, 40), seed=st.integers(0, 2**64),
           chunk_size=st.integers(1, 12), perturb_eta=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_per_replication(self, problem_A, ref_A, scheme, kind, delta, n,
                                            seed, chunk_size, perturb_eta):
        noise = NoiseModel(kind, 0.0 if kind == "exact" else delta)
        assume(not (scheme is IE and noise.fresh))  # that cell runs per replication anyway
        per_rep = dataclasses.replace(problem_A, rhs_vectorized=False)
        batched = run_batch(problem_A, ref_A, scheme, n, noise, 12, seed,
                            chunk_size=chunk_size, perturb_eta=perturb_eta)
        single = run_batch(per_rep, ref_A, scheme, n, noise, 12, seed, perturb_eta=perturb_eta)
        assert np.array_equal(batched.errors, single.errors)

    def test_closure_rhs_runs_serially_under_parallelism(self):
        k = 0.5
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1), rhs=lambda t, x: -k * x,
                    class_params=ClassParams(K=1.0, L=k, rho=1.5), name="closure",
                    rhs_vectorized=True)
        ref = ReferenceSolution.analytic(lambda t: np.exp(-k * np.asarray(t)))
        noise = NoiseModel("ee", 0.01)
        serial = run_batch(p, ref, EE, 8, noise, 20, 3, chunk_size=10)
        with pytest.warns(RuntimeWarning, match="serially"):
            pooled = run_batch(p, ref, EE, 8, noise, 20, 3, chunk_size=10, parallelism=2)
        assert np.array_equal(serial.errors, pooled.errors)

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
        assert info.value.replication == first
        if vectorized:
            assert info.value.step == 1

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

    @pytest.mark.parametrize("route", ["per-call", "chunk"])
    def test_fresh_noise_implicit_euler_names_its_replication(self, problem_A, route):
        # fresh ee noise redraws the map on every iteration, so it never converges
        noise = NoiseModel("ee", 1e-3)
        if route == "per-call":
            oracle = make_oracle(problem_A, noise, 7, 5)
        else:
            oracle = ChunkOracle(problem_A, noise, 7, 5, 9, evals=10 * 100)
        with pytest.raises(ConvergenceError, match="replication 5") as info:
            run_implicit_euler(oracle, 10, max_iter=100)
        assert info.value.replication == 5 and info.value.step == 1

    def test_implicit_euler_batch(self, problem_A, ref_A):
        b = run_batch(problem_A, ref_A, IE, 64, exact_info(), 20, 11)
        assert np.all(b.errors > 0.0) and np.all(b.errors < 0.1)

    def test_cell_metadata(self, problem_A, ref_A):
        b = run_batch(problem_A, ref_A, EE, 10, NoiseModel("ee", 0.1), 100, 1,
                      delta_label="n^-1")
        assert b.cell.problem == "A" and b.cell.scheme is EE
        assert b.cell.delta == 0.1 and b.cell.delta_label == "n^-1"

    def test_batch_csv(self, problem_A, ref_A, tmp_path):
        b = run_batch(problem_A, ref_A, EE, 10, exact_info(), 10, 1)
        path = tmp_path / "batch.csv"
        b.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rank,error" and len(lines) == 11


class TestXiHat:
    def test_hand_example(self, problem_A):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 1, "exact", 0.0, "0")
        batch = ErrorBatch(cell, np.array([1.0, 2.0, 3.0, 4.0]), 0, 4)
        q = xi_hat(batch, 0.25, gamma=0.0)  # denom = max(1^0, 0) = 1
        assert q.xi_hat == 3.0 and q.denom == 1.0

    def test_equal_errors(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "exact", 0.0, "0")
        batch = ErrorBatch(cell, np.full(50, 0.7), 0, 50)
        for eps in (0.5, 0.1, 0.02):
            assert xi_hat(batch, eps, gamma=1.0).xi_hat == pytest.approx(7.0)

    def test_delta_enters_denominator(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "ee", 0.5, "0.5")
        batch = ErrorBatch(cell, np.linspace(0.1, 1.0, 10), 0, 10)
        q = xi_hat(batch, 0.1, gamma=1.0)
        assert q.denom == 0.5  # max(0.1, 0.5)

    def test_empty_batch_rejected(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "exact", 0.0, "0")
        with pytest.raises(DomainError):
            xi_hat(ErrorBatch(cell, np.array([]), 0, 0), 0.05, 1.0)

    def test_epsilon_validated(self):
        from randode.analysis import BatchCell, ErrorBatch
        cell = BatchCell("A", EE, 10, "exact", 0.0, "0")
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
        cell = BatchCell("A", EE, n, "exact" if delta == 0 else "ee", delta, "")
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


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 100)
    # standard Wilson score interval for 5/100 at z = 1.96
    assert lo == pytest.approx(0.0215, abs=2e-3)
    assert hi == pytest.approx(0.1118, abs=2e-3)
    assert wilson_interval(0, 10)[0] == 0.0


class TestConfidenceBand:
    def test_radius_arithmetic(self, problem_A):
        o = make_oracle(problem_A, NoiseModel("ee", 1.0 / 25.0), 3, 0)
        tr = run_explicit_euler(o, 25)
        band = confidence_band(tr, gamma=1.0, delta=1.0 / 25.0, xi_eps=3.0)
        assert band.radius == pytest.approx(0.12, abs=1e-12)
        band_rk = confidence_band(tr, gamma=1.5, delta=25.0**-1.5, xi_eps=5.9)
        assert band_rk.radius == pytest.approx(5.9 * 25.0**-1.5, abs=1e-12)
        assert band_rk.radius == pytest.approx(0.0472, abs=1e-4)

    def test_zero_xi_degenerates_to_trajectory(self, problem_A):
        o = make_oracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 25)
        band = confidence_band(tr, 1.0, 0.0, 0.0, grid_points=11)
        assert np.array_equal(band.lower, band.center)
        assert np.array_equal(band.upper, band.center)

    def test_envelopes_offset_by_radius(self, problem_A):
        o = make_oracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 25)
        band = confidence_band(tr, 1.0, 0.0, 2.0, grid_points=31)
        assert np.allclose(band.upper - band.center, band.radius)
        assert np.allclose(band.center - band.lower, band.radius)

    def test_csv_columns(self, problem_A, tmp_path):
        o = make_oracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 5)
        band = confidence_band(tr, 1.0, 0.0, 1.0, grid_points=7)
        path = tmp_path / "band.csv"
        band.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,lower,upper,center"
        assert len(lines) == 8

    def test_negative_xi_rejected(self, problem_A):
        o = make_oracle(problem_A, exact_info(), 3, 0)
        tr = run_explicit_euler(o, 5)
        with pytest.raises(DomainError):
            confidence_band(tr, 1.0, 0.0, -1.0)


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

    def test_ladder_validation(self, problem_A, ref_A):
        with pytest.raises(DomainError):
            convergence_slope(problem_A, ref_A, EE, [10, 20], 10, 0)
        with pytest.raises(DomainError):
            convergence_slope(problem_A, ref_A, EE, [10, 20, 30], 10, 0)

    def test_explicit_euler_slope_on_A(self, problem_A, ref_A):
        fit = convergence_slope(problem_A, ref_A, EE, [64, 128, 256, 512, 1024], 64, 17)
        assert -1.15 <= fit.slope <= -0.85


class TestReferenceB:
    def test_initial_value(self, ref_B):
        assert ref_B.values_at([0.0])[0, 0] == 1.0

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
        assert np.array_equal(r1.grid_values, r2.grid_values)
        r3 = build_reference_B(120_000, path)  # different build params: rewritten
        assert r3.grid_ts.shape == (120_001,)

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

    def test_loaded_values_writeable_and_contiguous(self, tmp_path):
        # np.interp copies a read-only or strided table on every call
        path = tmp_path / "ref.bin"
        for _ in range(2):  # built, then loaded from the cache
            column = build_reference_B(100_000, path).grid_values[:, 0]
            assert column.flags.writeable and column.flags.c_contiguous

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
        o = make_oracle(problem_B, exact_info(), 4, 0)
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
