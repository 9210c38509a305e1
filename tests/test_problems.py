import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randode import (
    ClassParams,
    DomainError,
    IvpSpec,
    NumericalError,
    check_class_membership,
    eval_rhs,
    exact_solution_A,
    make_problem,
    one_norm,
    radius_ee,
    radius_rk,
)

E = math.e


def test_one_norm():
    assert one_norm([1.0, -2.0, 3.0]) == 6.0
    assert one_norm(np.array([-0.5])) == 0.5


class TestIvpSpec:
    def test_interval_must_be_ordered(self):
        with pytest.raises(DomainError):
            IvpSpec(a=1.0, b=0.0, d=1, eta=np.array([0.0]), rhs=lambda t, x: x,
                    class_params=ClassParams(K=1, L=1, rho=1.0))

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0)])
    def test_interval_must_be_finite(self, a, b):
        # b = inf used to build, then fail at run time with a numpy warning
        with pytest.raises(DomainError, match="finite"):
            IvpSpec(a=a, b=b, d=1, eta=np.array([0.0]), rhs=lambda t, x: -x,
                    class_params=ClassParams(K=1, L=1, rho=1.0))

    def test_eta_must_respect_growth_constant(self):
        with pytest.raises(DomainError):
            IvpSpec(a=0.0, b=1.0, d=1, eta=np.array([3.0]), rhs=lambda t, x: x,
                    class_params=ClassParams(K=1, L=1, rho=1.0))

    def test_eta_shape_checked(self):
        with pytest.raises(DomainError):
            IvpSpec(a=0.0, b=1.0, d=2, eta=np.array([1.0]), rhs=lambda t, x: x,
                    class_params=ClassParams(K=5, L=1, rho=1.0))

    def test_class_params_validated(self):
        with pytest.raises(DomainError):
            ClassParams(K=-1.0, L=0.0, rho=1.0)
        with pytest.raises(DomainError):
            ClassParams(K=1.0, L=0.0, rho=0.0)
        with pytest.raises(DomainError):
            ClassParams(K=1.0, L=0.0, rho=1.0, R=-2.0)

    @pytest.mark.parametrize("name", ["K", "L", "rho", "R"])
    def test_nan_class_parameter_rejected(self, name):
        # NaN fails every comparison, so each bound must be a positive one
        params = dict(K=1.0, L=1.0, rho=1.5, R=10.0)
        with pytest.raises(DomainError, match=name):
            ClassParams(**{**params, name: math.nan})

    @pytest.mark.parametrize("radius", [radius_ee, radius_rk])
    def test_nan_growth_constant_has_no_radius(self, radius):
        with pytest.raises(DomainError, match="K"):
            radius(math.nan, 0.0, 1.0)


class TestEvalRhs:
    def test_problem_A_values(self):
        p = make_problem("A")
        assert eval_rhs(p, 0.5, [2.0]) == pytest.approx(2.0, abs=1e-14)
        assert eval_rhs(p, 1.0, [E]) == pytest.approx(2.0 * E, abs=1e-12)

    def test_problem_B_value_at_origin(self):
        # the field of B is sin(x^2): zero at x = 0, one at x^2 = pi/2
        p = make_problem("B")
        assert eval_rhs(p, 0.3, [0.0]) == pytest.approx(0.0, abs=1e-15)
        assert eval_rhs(p, 0.0, [math.sqrt(math.pi / 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_output_raises(self):
        p = dataclasses.replace(make_problem("A"), rhs=lambda t, x: np.full_like(x, np.inf))
        with pytest.raises(NumericalError):
            eval_rhs(p, 0.5, [1.0])


class TestExactSolutionA:
    def test_values(self):
        assert exact_solution_A(0.0) == 1.0
        assert exact_solution_A(1.0) == pytest.approx(E, abs=1e-12)
        assert exact_solution_A(0.5) == pytest.approx(1.2840254166877414, abs=1e-14)

    def test_ode_residual_at_1e6_resolution(self):
        # complex-step derivative at resolution 1e-6; plain central differences
        # are rounding-limited above 1e-10 at this step size
        ts = np.linspace(0.0, 1.0, 257)
        h = 1e-6
        deriv = np.imag(np.exp((ts + 1j * h) ** 2)) / h
        residual = np.abs(deriv - 2.0 * ts * exact_solution_A(ts))
        assert residual.max() <= 1e-10


class TestRadii:
    def test_radius_ee_frozen_values(self):
        assert radius_ee(0.0, 0.0, 1.0) == pytest.approx(2.0 * E - 1.0, abs=1e-12)
        assert radius_ee(2.0, 0.0, 1.0) == pytest.approx(4.0 * E**3 + 1.0, abs=1e-10)
        assert radius_ee(1.0, 0.0, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_radius_rk_frozen_values(self):
        assert radius_rk(1.0, 0.0, 1.0) == pytest.approx(3.0 + 4.0 * (2.0 * E**2 - 1.0), abs=1e-10)
        assert radius_rk(1.0, 0.0, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_radius_rk_direct_evaluation(self):
        K, w = 2.0, 1.0
        first = K * (1 + w) * (1 + math.exp(K * w) * (1 + K * w))
        second = (K + w * (1 + K)
                  + (1 / K + 1) * (1 + K * w) * (math.exp(K * w * (1 + K * w)) * (1 + K) - 1))
        assert radius_rk(2.0, 0.0, 1.0) == pytest.approx(max(first, second), abs=1e-10)

    def test_radius_rk_rejects_zero_K(self):
        with pytest.raises(DomainError):
            radius_rk(0.0, 0.0, 1.0)

    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_radius_ee_monotone(self, k1, k2, w1, w2):
        klo, khi = sorted((k1, k2))
        wlo, whi = sorted((w1, w2))
        assert radius_ee(klo, 0.0, wlo) <= radius_ee(khi, 0.0, whi) + 1e-12

    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_radius_rk_monotone(self, k1, k2, w1, w2):
        klo, khi = sorted((k1, k2))
        wlo, whi = sorted((w1, w2))
        assert radius_rk(klo, 0.0, wlo) <= radius_rk(khi, 0.0, whi) + 1e-12


class TestMembership:
    def test_problem_A_growth_bound_holds(self):
        report = check_class_membership(make_problem("A"), sample_count=3000, rng_seed=1)
        assert report.growth.passed
        assert report.growth.observed <= 2.0

    def test_problem_B_passes_at_defaults(self):
        report = check_class_membership(make_problem("B"), sample_count=3000, rng_seed=1)
        assert report.growth.observed <= 1.0
        assert report.passed

    def test_problem_A_passes_with_L_at_least_observed(self):
        p = make_problem("A")
        first = check_class_membership(p, sample_count=2000, rng_seed=3)
        bumped = dataclasses.replace(
            p, class_params=dataclasses.replace(
                p.class_params,
                L=max(first.time_regularity.observed, first.space_lipschitz.observed) * 1.01))
        assert check_class_membership(bumped, sample_count=2000, rng_seed=3).passed

    def test_understated_K_fails_with_witness(self):
        p = make_problem("A")
        lying = dataclasses.replace(p, class_params=ClassParams(K=0.1, L=p.class_params.L,
                                                                rho=1.5, R=p.class_params.R),
                                    eta=np.array([0.1]))
        report = check_class_membership(lying, sample_count=2000, rng_seed=0)
        assert not report.growth.passed
        t, x = report.growth.witness
        assert one_norm(lying.rhs(t, x)) / (1.0 + one_norm(x)) > 0.1

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            check_class_membership(make_problem("A"), sample_count=0)


def test_make_problem_names():
    assert make_problem("A").name == "A"
    assert make_problem("b").name == "B"
    with pytest.raises(DomainError):
        make_problem("C")
