"""Acceptance gate: the end-to-end quantitative targets at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy cells use two worker processes; results are
seed-deterministic at any parallelism.
"""

import math

import numpy as np
import pytest

from randode import (
    NoiseModel,
    NoisyOracle,
    SchemeKind,
    derive_cell_seed,
    exact_info,
    run_batch,
    run_explicit_euler,
    run_implicit_euler,
    run_rk2,
    convergence_slope,
    martingale_diagnostic,
    xi_hat,
)

from randode.noise import ChunkOracle

from conftest import FixedTauOracle, decay_problem

EE = SchemeKind.EXPLICIT_EULER
IE = SchemeKind.IMPLICIT_EULER
RK = SchemeKind.RUNGE_KUTTA2

MASTER = 12345
EPS = 0.05
WORKERS = 2

pytestmark = pytest.mark.acceptance


def report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def cell_xi(problem, ref, scheme, n, delta, N, gamma, kind=None, parallelism=1):
    noise = exact_info() if delta == 0.0 else NoiseModel(kind or scheme.value, delta)
    batch = run_batch(problem, ref, scheme, n, noise, N,
                      derive_cell_seed(MASTER, scheme, problem.name, n),
                      parallelism=parallelism, chunk_size=4096)
    return xi_hat(batch, EPS, gamma).xi_hat


@pytest.fixture(scope="module")
def batch_ee_A_100(problem_A, ref_A):
    return run_batch(problem_A, ref_A, EE, 100, exact_info(), 100_000,
                     derive_cell_seed(MASTER, EE, "A", 100), parallelism=WORKERS,
                     chunk_size=4096)


class TestCriterion1TableReproduction:
    def test_ee_A_column(self, problem_A, ref_A, batch_ee_A_100):
        expected = {10: 2.29, 100: 2.04, 1000: 1.89}
        got = {
            10: cell_xi(problem_A, ref_A, EE, 10, 0.0, 100_000, 1.0),
            100: xi_hat(batch_ee_A_100, EPS, 1.0).xi_hat,
            1000: cell_xi(problem_A, ref_A, EE, 1000, 0.0, 100_000, 1.0,
                          parallelism=WORKERS),
        }
        ok = all(abs(got[n] - expected[n]) <= 0.05 for n in expected)
        report(1, "noise-free quantile column, explicit Euler on A", ok,
               ", ".join(f"n={n}: {got[n]:.4f} vs {expected[n]}+-0.05" for n in expected))
        assert ok

    def test_rk_A_cells(self, problem_A, ref_A):
        expected = {10: 4.78, 1000: 5.81}
        got = {n: cell_xi(problem_A, ref_A, RK, n, 0.0, 100_000, 1.5,
                          parallelism=WORKERS if n >= 1000 else 1)
               for n in expected}
        ok = all(abs(got[n] - expected[n]) <= 0.10 for n in expected)
        report(1, "noise-free quantile cells, Runge-Kutta on A", ok,
               ", ".join(f"n={n}: {got[n]:.4f} vs {expected[n]}+-0.10" for n in expected))
        assert ok

    def test_ee_B_cell(self, problem_B, ref_B):
        got = cell_xi(problem_B, ref_B, EE, 10, 0.0, 100_000, 1.0)
        ok = abs(got - 0.166) <= 0.01
        report(1, "noise-free quantile cell, explicit Euler on B", ok,
               f"n=10: {got:.4f} vs 0.166+-0.01")
        assert ok

    def test_rk_B_cell(self, problem_B, ref_B):
        got = cell_xi(problem_B, ref_B, RK, 10, 0.0, 100_000, 1.5)
        ok = abs(got - 0.485) <= 0.02
        report(1, "noise-free quantile cell, Runge-Kutta on B", ok,
               f"n=10: {got:.4f} vs 0.485+-0.02")
        assert ok


class TestCriterion2DeltaInteraction:
    def test_matched_budget_maximizes_quantile(self, problem_A, ref_A):
        rules = [("0", lambda n: 0.0),
                 ("n^-1.1", lambda n: float(n) ** -1.1),
                 ("n^-1", lambda n: float(n) ** -1.0),
                 ("n^-0.9", lambda n: float(n) ** -0.9),
                 ("2e-3", lambda n: 2e-3),
                 ("1e-4", lambda n: 1e-4)]
        failures = []
        table = {}
        for n in (10, 20, 50, 100, 200, 500):
            row = {label: cell_xi(problem_A, ref_A, EE, n, fn(n), 30_000, 1.0,
                                  kind="ee", parallelism=WORKERS)
                   for label, fn in rules}
            table[n] = row
            top = row["n^-1"]
            if any(top < v for label, v in row.items() if label != "n^-1"):
                failures.append(n)
        ok = not failures
        report(2, "budget delta = n^-1 maximizes the quantile at each n", ok,
               "rows 10..500: " + ("all maximal" if ok else f"violated at n={failures}"))
        assert ok

    def test_oversized_budget_sits_below_noise_free(self, problem_A, ref_A):
        n = 5000
        base = cell_xi(problem_A, ref_A, EE, n, 0.0, 10_000, 1.0, parallelism=WORKERS)
        over = cell_xi(problem_A, ref_A, EE, n, float(n) ** -0.9, 10_000, 1.0,
                       kind="ee", parallelism=WORKERS)
        ok = over < base
        report(2, "budget delta = n^-0.9 at n=5000 sits strictly below noise-free", ok,
               f"{over:.4f} < {base:.4f}")
        assert ok


class TestCriterion3ConvergenceOrders:
    LADDER = [64, 128, 256, 512, 1024]

    @pytest.mark.parametrize("scheme,lo,hi,N", [
        (EE, -1.15, -0.85, 256),
        (IE, -1.15, -0.85, 100),
        (RK, -1.65, -1.35, 256),
    ])
    def test_slopes(self, problem_A, problem_B, ref_A, ref_B, scheme, lo, hi, N):
        oks = []
        details = []
        for p, ref in ((problem_A, ref_A), (problem_B, ref_B)):
            fit = convergence_slope(p, ref, scheme, self.LADDER, N, MASTER)
            oks.append(lo <= fit.slope <= hi)
            details.append(f"{p.name}: {fit.slope:.3f}")
        ok = all(oks)
        report(3, f"log-log order slope of {scheme.value} in [{lo}, {hi}]", ok,
               "; ".join(details))
        assert ok


class TestCriterion4MartingaleDiagnostic:
    def test_step_means_consistent_with_zero(self):
        diag = martingale_diagnostic(10, 100_000, seed=MASTER)
        ok = diag.max_standardized <= 4.0
        report(4, "per-step local error means within 4 standard errors of zero", ok,
               f"max |mean|/se = {diag.max_standardized:.2f} over {diag.n} steps")
        assert ok


class TestCriterion5SubGaussianQuantileGrowth:
    def test_quantile_ratios(self, batch_ee_A_100):
        q05 = xi_hat(batch_ee_A_100, 0.05, 1.0).xi_hat
        checks = []
        for eps in (0.01, 0.001):
            ratio = xi_hat(batch_ee_A_100, eps, 1.0).xi_hat / q05
            bound = math.sqrt(math.log(eps) / math.log(0.05)) + 0.35
            checks.append((eps, ratio, bound, ratio <= bound))
        ok = all(c[-1] for c in checks)
        report(5, "sub-Gaussian growth of quantile ratios", ok,
               "; ".join(f"eps={e}: {r:.3f} <= {b:.3f}" for e, r, b, _ in checks))
        assert ok


class TestCriterion6BandCoverage:
    def test_empirical_coverage(self, problem_A, ref_A):
        n, xi = 25, 3.0
        delta = 1.0 / n
        radius = xi * max(float(n) ** -1.0, delta)
        batch = run_batch(problem_A, ref_A, EE, n, NoiseModel("ee", delta), 10_000,
                          derive_cell_seed(MASTER, EE, "A", n), parallelism=WORKERS)
        exceed = float(np.mean(batch.errors > radius))
        limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / batch.N)
        ok = exceed <= limit
        report(6, "coverage of the xi=3 band (explicit Euler on A, n=25)", ok,
               f"exceedance {exceed:.4f} <= {limit:.4f}, radius {radius}")
        assert ok


class TestCriterion7DeterminismAndOracles:
    def test_bitwise_batches_at_any_parallelism(self, problem_A, ref_A):
        kw = dict(chunk_size=256)
        b1 = run_batch(problem_A, ref_A, EE, 10, NoiseModel("ee", 0.01), 2000,
                       MASTER, parallelism=1, **kw)
        b2 = run_batch(problem_A, ref_A, EE, 10, NoiseModel("ee", 0.01), 2000,
                       MASTER, parallelism=2, **kw)
        ok = np.array_equal(b1.errors, b2.errors)
        report(7, "bitwise-identical batches at parallelism 1 vs 2", ok,
               f"N={b1.N}")
        assert ok

    def test_hand_derived_one_step_values(self, problem_A):
        o = FixedTauOracle(problem_A, exact_info(), 0, 0)
        ee = float(run_explicit_euler(o, 1).nodes[1, 0])
        o = FixedTauOracle(problem_A, exact_info(), 0, 0)
        rk = float(run_rk2(o, 1).nodes[1, 0])
        ok = abs(ee - 2.0) <= 1e-14 and abs(rk - 2.0) <= 1e-14
        report(7, "hand-derived one-step values (Euler and Runge-Kutta)", ok,
               f"ee={ee!r}, rk={rk!r}")
        assert ok

    def test_implicit_euler_linear_field(self):
        p = decay_problem()
        o = NoisyOracle(p, exact_info(), 0, 0)
        tr = run_implicit_euler(o, 2, tol=1e-12)
        err = max(abs(tr.nodes[1, 0] - 1.0 / 1.5), abs(tr.nodes[2, 0] - 1.0 / 2.25))
        ok = err <= 1e-10
        report(7, "implicit Euler matches the linear-field closed form", ok,
               f"max deviation {err:.2e} <= 1e-10")
        assert ok

    def test_reference_cross_check(self, problem_B, ref_B):
        # replication 0 as a one-row chunk: the same nodes as NoisyOracle's
        # run, bit for bit, in a third of the time
        o = ChunkOracle(problem_B, exact_info(), 314159, 0, 1)
        tr = run_rk2(o, 1_000_000)
        gap = abs(tr.nodes[-1, 0, 0, 0] - ref_B.values_at([1.0])[0, 0])
        ok = gap <= 1e-6
        report(7, "deterministic reference vs randomized Runge-Kutta at n=1e6", ok,
               f"|difference at t=1| = {gap:.2e} <= 1e-6")
        assert ok
