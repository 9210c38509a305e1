import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randode import (
    ClassParams,
    ConvergenceError,
    DomainError,
    IvpSpec,
    NoiseModel,
    NoisyOracle,
    NumericalError,
    SchemeKind,
    exact_info,
    gamma_of,
    martingale_diagnostic,
    run_batch,
    run_explicit_euler,
    run_implicit_euler,
    run_rk2,
    run_scheme,
    scheme_from_name,
    sup_error,
)
from randode import noise as noise_module
from randode import schemes
from randode.noise import ChunkOracle

from conftest import FixedTauOracle, decay_problem, problem_A_in, zero_field_problem

EE = SchemeKind.EXPLICIT_EULER
IE = SchemeKind.IMPLICIT_EULER
RK = SchemeKind.RUNGE_KUTTA2


class TestGamma:
    def test_reported_exponents(self):
        assert gamma_of(EE, 1.5) == 1.0
        assert gamma_of(IE, 1.5) == 1.0
        assert gamma_of(RK, 1.5) == 1.5

    def test_low_regularity(self):
        assert gamma_of(EE, 0.25) == 0.75
        assert gamma_of(RK, 0.5) == 1.0

    def test_rho_validated(self):
        with pytest.raises(DomainError):
            gamma_of(EE, 0.0)

    def test_nan_rho_rejected(self):
        for scheme in (EE, IE, RK):
            with pytest.raises(DomainError, match="rho must be positive"):
                gamma_of(scheme, float("nan"))


def test_scheme_from_name():
    assert scheme_from_name("ee") is EE
    assert scheme_from_name("RK") is RK
    with pytest.raises(DomainError):
        scheme_from_name("euler5")


class TestHandExamples:
    def test_explicit_euler_one_step(self, problem_A):
        # h=1, theta=0.5, f=2*0.5*1=1 -> node 1 + 1 = 2
        o = FixedTauOracle(problem_A, exact_info(), 0, 0)
        tr = run_explicit_euler(o, 1)
        assert abs(tr.nodes[1, 0] - 2.0) <= 1e-14

    def test_rk_one_step(self, problem_A):
        # stage at t=0 has zero field, so the stage equals eta and the
        # update reduces to the Euler value
        o = FixedTauOracle(problem_A, exact_info(), 0, 0)
        tr = run_rk2(o, 1)
        assert abs(tr.nodes[1, 0] - 2.0) <= 1e-14

    def test_zero_field_all_schemes_constant(self):
        p = zero_field_problem()
        for run in (run_explicit_euler, run_rk2, run_implicit_euler):
            o = NoisyOracle(p, exact_info(), 3, 0)
            tr = run(o, 13)
            assert np.array_equal(tr.nodes, np.ones((14, 1)))

    def test_implicit_euler_matches_linear_closed_form(self):
        # f = -x: each implicit step solves U (1 + h) = U_prev
        p = decay_problem()
        o = NoisyOracle(p, exact_info(), 0, 0)
        tr = run_implicit_euler(o, 2, tol=1e-12)
        assert abs(tr.nodes[1, 0] - 1.0 / 1.5) <= 1e-10
        assert abs(tr.nodes[2, 0] - 1.0 / 2.25) <= 1e-10


class TestImplicitEuler:
    def test_contraction_precondition(self, problem_B):
        # problem B carries L = 50, so n must exceed 50
        o = NoisyOracle(problem_B, exact_info(), 0, 0)
        with pytest.raises(DomainError):
            run_implicit_euler(o, 40)

    def test_max_iter_exhaustion(self):
        p = decay_problem()
        o = NoisyOracle(p, exact_info(), 0, 0)
        with pytest.raises(ConvergenceError) as err:
            run_implicit_euler(o, 2, tol=1e-12, max_iter=2)
        assert err.value.step == 1

    def test_inner_differences_contract(self, problem_A):
        # successive fixed-point iterates shrink by at least the factor h(L+delta)
        p = problem_A
        n, h = 8, 1.0 / 8
        o = NoisyOracle(p, exact_info(), 4, 0)
        theta = 0.4
        base = np.array([1.3])
        diffs = []
        cur = base
        for _ in range(8):
            nxt = base + h * o.noisy_eval(theta, cur)
            diffs.append(float(np.abs(nxt - cur).sum()))
            cur = nxt
        nonzero = [d for d in diffs if d > 1e-13]
        ratios = [b / a for a, b in zip(nonzero, nonzero[1:])]
        assert ratios and all(r <= 0.5 + 1e-9 for r in ratios)

    def test_accuracy_against_analytic_solution(self, problem_A, ref_A):
        o = NoisyOracle(problem_A, exact_info(), 11, 0)
        tr = run_implicit_euler(o, 10_000)
        assert sup_error(tr, ref_A) < 1e-3


class TestTrajectory:
    def test_knot_exactness_and_linearity(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 5, 0)
        tr = run_explicit_euler(o, 4)
        for j, t in enumerate(tr.grid.knots):
            assert np.array_equal(tr.at(t), tr.nodes[j])
        mid = 0.5 * (tr.grid.knots[1] + tr.grid.knots[2])
        expected = 0.5 * (tr.nodes[1] + tr.nodes[2])
        assert tr.at(mid) == pytest.approx(expected, abs=1e-14)

    def test_simple_segment(self):
        p = zero_field_problem()
        o = NoisyOracle(p, exact_info(), 0, 0)
        tr = run_explicit_euler(o, 1)
        tr.nodes[:] = [[0.0], [2.0]]
        assert tr.at(0.25)[0] == pytest.approx(0.5, abs=1e-15)

    def test_domain_checked(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 5, 0)
        tr = run_explicit_euler(o, 4)
        with pytest.raises(DomainError):
            tr.at(1.5)

    def test_nan_time_rejected(self, problem_A):
        # NaN compares false both ways, so a bounds test alone returned a NaN value
        tr = run_explicit_euler(NoisyOracle(problem_A, exact_info(), 5, 0), 4)
        with pytest.raises(DomainError):
            tr.at(float("nan"))
        with pytest.raises(DomainError):
            tr.dense([0.5, np.nan])

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_interpolant_between_bracketing_nodes(self, t):
        p = zero_field_problem()
        o = NoisyOracle(p, exact_info(), 1, 0)
        tr = run_explicit_euler(o, 5)
        rng = np.random.default_rng(0)
        tr.nodes[:, 0] = rng.normal(size=6)
        v = tr.at(t)[0]
        j = min(int(t * 5), 4)
        lo = min(tr.nodes[j, 0], tr.nodes[j + 1, 0])
        hi = max(tr.nodes[j, 0], tr.nodes[j + 1, 0])
        assert lo - 1e-12 <= v <= hi + 1e-12

    def test_grid_thetas_inside_subintervals(self, problem_A):
        # step j evaluates its stage at t_{j-1}, then its update at theta_j
        o = NoisyOracle(problem_A, exact_info(), 123, 0, record_samples=True)
        knots = run_rk2(o, 50).grid.knots
        ts = np.array([t for t, _, _ in o.samples])
        assert np.array_equal(ts[0::2], knots[:-1])
        assert np.all(ts[1::2] >= knots[:-1])
        assert np.all(ts[1::2] < knots[1:])

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_last_knot_is_b(self, problem_A, scheme):
        # at n = 49, a + 49 h rounds to 0.9999999999999999: the last knot must be b itself
        tr = run_scheme(NoisyOracle(problem_A, exact_info(), 5, 0), scheme, 49)
        assert tr.b == problem_A.b == 1.0
        assert np.array_equal(tr.at(1.0), tr.nodes[-1])
        assert np.array_equal(tr.grid.knots[:-1], np.arange(49) * tr.grid.h + problem_A.a)

    def test_csv_roundtrip(self, problem_A, tmp_path):
        o = NoisyOracle(problem_A, exact_info(), 5, 0)
        tr = run_explicit_euler(o, 4)
        path = tmp_path / "tr.csv"
        tr.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x0"
        assert len(rows) == 6
        assert float(rows[1].split(",")[1]) == 1.0


class TestNodeSink:
    """A chunk run calls ``sink(j0, nodes)`` with each stepped block, in one reused buffer."""

    @staticmethod
    def _run(oracle, scheme, n, min_steps=None):
        calls = []

        def sink(j0, nodes):
            calls.append((j0, nodes, nodes.copy()))

        with mock.patch.object(schemes, "_BLOCK_STEPS", 5), \
                mock.patch.object(schemes, "_BLOCK_ELEMS", 24), \
                mock.patch.object(schemes, "_MIN_SINK_STEPS",
                                  min_steps or schemes._MIN_SINK_STEPS):
            tr = run_scheme(oracle, scheme, n, sink=sink)
        assert tr.nodes is None
        return calls, tr.failures

    @pytest.mark.parametrize("scheme", [EE, RK, IE])
    @pytest.mark.parametrize("min_steps,starts", [
        (None, [0, 5, 10, 15, 20]),  # tape blocks of 5 steps
        (1, [0, 3, 5, 8, 10, 13, 15, 18, 20]),  # 24 values over 8 rows: 3 steps a sub-block
    ])
    def test_blocks_reassemble_the_run(self, scheme, min_steps, starts):
        p, n, seed, lo, hi = problem_A_in(1), 23, 5, 3, 11
        noise = NoiseModel("ie" if scheme is IE else scheme.value, 0.01)
        oracle = ChunkOracle(p, noise, seed, lo, hi)
        calls, failures = self._run(oracle, scheme, n, min_steps=min_steps)
        assert failures == [None]
        assert [j0 for j0, _, _ in calls] == starts
        end = 0
        for j0, buf, block in calls:
            assert j0 == end and np.shares_memory(buf, calls[0][1])
            if j0:
                assert np.array_equal(block[0], last)
            end, last = j0 + block.shape[0] - 1, block[-1]
        assert end == n
        nodes = np.concatenate([calls[0][2][:1]] + [block[1:] for _, _, block in calls])
        for i in range(lo, hi):
            want = run_scheme(NoisyOracle(p, noise, seed, i), scheme, n).nodes
            assert np.array_equal(nodes[:, 0, i - lo], want)

    @pytest.mark.parametrize("scheme,rhs", [
        # infinite from t = 0.5 on: node 21 is every row's first non-finite node
        (EE, lambda t, x: np.where(np.asarray(t) >= 0.5, np.inf, np.zeros_like(x))),
        # infinite at t = 0.5 and 0 beyond 1e300: step 21's stage is infinite in
        # every row, and every node stays finite
        (RK, lambda t, x: np.where(np.abs(x) > 1e300, 0.0,
                                   np.where(np.asarray(t) == 0.5, np.inf, 0.0))),
    ], ids=["ee-node", "rk-stage"])
    def test_every_block_after_a_failure(self, scheme, rhs):
        # with n = 40, step 21 lies in the block of steps 21 .. 25
        p = IvpSpec(a=0.0, b=1.0, d=1, eta=np.ones(1), rhs=rhs,
                    class_params=ClassParams(K=1.0, L=0.0, rho=1.5), name="wall",
                    rhs_vectorized=True)
        oracle = ChunkOracle(p, exact_info(), 2, 4, 12)
        calls, (failure,) = self._run(oracle, scheme, 40)
        assert [j0 for j0, _, _ in calls] == list(range(0, 40, 5))
        assert all(np.isfinite(block).all() for _, _, block in calls[:4])
        assert np.isfinite(calls[4][2]).all() == (scheme is RK)
        assert type(failure) is NumericalError
        assert (failure.replication, failure.step) == (4, 21)
        with pytest.raises(NumericalError) as info:  # a run without a sink raises it
            run_scheme(ChunkOracle(p, exact_info(), 2, 4, 12), scheme, 40)
        assert str(info.value) == str(failure)


class TestBlockTimesAndFactors:
    """A run computes a block's evaluation times, and its oracle a run of noise factors,
    in one array op each."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("route", ["one", "chunk"])
    @pytest.mark.parametrize("scheme", [EE, RK, IE])
    def test_nodes_do_not_depend_on_the_blocks(self, scheme, route, d):
        # tape blocks of 5 steps, sub-blocks of 3 (one replication: 24 values a sub-block)
        # and noise runs of a unit or a few give the nodes of the default blocks bit for
        # bit, on one replication's (n,) taus and on a chunk's (n, m, 1) taus
        p, n, seed = problem_A_in(d), 23, 5
        noise = NoiseModel("ie" if scheme is IE else scheme.value, 0.01)

        def nodes():
            if route == "one":
                oracle = NoisyOracle(p, noise, seed, 3, perturb_eta=True)
            else:
                oracle = ChunkOracle(p, noise, seed, 3, 11, perturb_eta=True,
                                     deltas=[0.0, 0.004, 0.01])
            return run_scheme(oracle, scheme, n).nodes

        want = nodes()
        with mock.patch.object(schemes, "_BLOCK_STEPS", 5), \
                mock.patch.object(schemes, "_BLOCK_ELEMS", 24), \
                mock.patch.object(schemes, "_MIN_SINK_STEPS", 1), \
                mock.patch.object(noise_module, "_BLOCK_ELEMS", 20):
            got = nodes()
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("scheme", [EE, RK])
def test_one_run_holds_its_nodes_and_one_block(problem_A, scheme):
    # a one-replication run keeps its n + 1 nodes and knots; its taus, noise units
    # and node block are drawn and stepped a block at a time, whatever n is.  A
    # short run first leaves one-off allocations out of the measured one.
    noise = NoiseModel(scheme.value, 0.01)
    run_scheme(NoisyOracle(problem_A, noise, 3, 1), scheme, 300)
    tracemalloc.start()
    try:
        tr = run_scheme(NoisyOracle(problem_A, noise, 3, 0), scheme, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - tr.nodes.nbytes - tr.grid.knots.nbytes <= 128 * 1024


class TestSchemeAccuracy:
    def test_explicit_euler_mean_error_small(self, problem_A, ref_A):
        batch = run_batch(problem_A, ref_A, EE, 1000, exact_info(), 100, 2024)
        assert batch.errors.mean() < 0.02

    def test_rk_error_ratio_shows_three_halves_order(self, problem_B, ref_B):
        b1 = run_batch(problem_B, ref_B, RK, 100_000, exact_info(), 16, 77)
        b2 = run_batch(problem_B, ref_B, RK, 200_000, exact_info(), 16, 78)
        ratio = b2.errors.mean() / b1.errors.mean()
        expected = 2.0 ** -1.5
        assert abs(ratio / expected - 1.0) <= 0.25


class TestMartingaleDiagnostic:
    def test_means_within_four_standard_errors(self):
        diag = martingale_diagnostic(10, 100_000, seed=2)
        assert diag.max_standardized <= 4.0

    def test_constant_derivative_is_exact(self):
        c = 0.5  # dyadic so every product below is exact
        diag = martingale_diagnostic(8, 100, seed=0,
                                     solution=lambda t: c * np.asarray(t),
                                     derivative=lambda t: np.full_like(np.asarray(t, float), c))
        assert diag.max_abs == 0.0
        assert np.all(diag.step_means == 0.0)

    def test_max_scales_with_step_size(self):
        d10 = martingale_diagnostic(10, 50_000, seed=5)
        d20 = martingale_diagnostic(20, 50_000, seed=6)
        ratio = d20.max_abs / d10.max_abs
        expected = 2.0 ** -(1.5 + 1.0)  # reported rho of the test problems
        assert abs(ratio / expected - 1.0) <= 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            martingale_diagnostic(0, 100, 0)
