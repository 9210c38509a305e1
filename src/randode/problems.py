"""Initial value problems, their class parameters, and the built-in test problems.

An :class:`IvpSpec` bundles the interval [a, b], the dimension, the initial
value and the right-hand side f together with the class parameters
(K, L, rho, R) the caller asserts for it.  The norm used throughout the
package is the one-norm (sum of absolute coordinates).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .exceptions import DomainError, NumericalError, _check_counts

#: Sampling radius used by the membership audit when R is infinite.
R_CAP = 100.0


def one_norm(x) -> float:
    """Sum of absolute coordinates."""
    return float(np.sum(np.abs(np.asarray(x, dtype=float))))


@dataclasses.dataclass(frozen=True)
class ClassParams:
    """Growth/regularity parameters asserted for a right-hand side.

    K bounds ``||f(t,x)|| <= K(1+||x||)`` and the initial value; L is the
    Hoelder/Lipschitz constant on the ball B(eta, R); rho the time-regularity
    exponent.  R may be ``math.inf``.
    """

    K: float
    L: float
    rho: float
    R: float = math.inf

    def __post_init__(self):
        # positive comparisons, so that NaN fails each
        if not (self.K >= 0 and self.L >= 0):
            raise DomainError(f"K and L must be nonnegative, got {self.K!r} and {self.L!r}")
        if not self.rho > 0:
            raise DomainError(f"rho must be positive, got {self.rho!r}")
        if not self.R >= 0:
            raise DomainError(f"R must be in [0, inf], got {self.R!r}")


@dataclasses.dataclass(frozen=True)
class IvpSpec:
    """An initial value problem z' = f(t, z) on [a, b], z(a) = eta.

    ``rhs`` maps (t, x) with x of shape (d,) to a vector of shape (d,).
    ``rhs_vectorized`` asserts that ``rhs`` also accepts arrays of times and
    states that broadcast together, elementwise, and only says how a Monte
    Carlo chunk (:mod:`randode.analysis`) calls it: once for the whole chunk,
    with times of shape (m, 1) (one time in a Runge-Kutta stage) and states
    of shape (k, m, d), rather than once per row.
    """

    a: float
    b: float
    d: int
    eta: np.ndarray
    rhs: Callable
    class_params: ClassParams
    name: str = ""
    rhs_vectorized: bool = False

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise DomainError("need finite a and b with b > a")
        _check_counts(d=self.d)
        eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        if eta.shape != (self.d,):
            raise DomainError(f"eta must have shape ({self.d},)")
        object.__setattr__(self, "eta", eta)
        if one_norm(eta) > self.class_params.K:
            raise DomainError("||eta|| exceeds the growth constant K")


def eval_rhs(p: IvpSpec, t: float, x) -> np.ndarray:
    """Evaluate f(t, x) exactly (uncounted).

    Raises NumericalError if the output is not finite.
    """
    out = np.atleast_1d(np.asarray(p.rhs(t, np.asarray(x, dtype=float)), dtype=float))
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"rhs returned a non-finite value at t={t}")
    return out


# ---------------------------------------------------------------------------
# Built-in test problems


def _rhs_A(t, x):
    return 2.0 * t * x


def _rhs_B(t, x):
    return np.sin(x * x)


def exact_solution_A(t):
    """Exact solution exp(t^2) of problem A, vectorized over t."""
    return np.exp(np.asarray(t, dtype=float) ** 2)


def d_exact_solution_A(t):
    """Derivative 2 t exp(t^2) of the problem-A solution."""
    t = np.asarray(t, dtype=float)
    return 2.0 * t * np.exp(t**2)


def radius_ee(K: float, a: float, b: float) -> float:
    """Localization radius for the explicit Euler scheme's problem class."""
    if not K >= 0:  # NaN too
        raise DomainError("K must be nonnegative")
    if b < a:
        raise DomainError("need b >= a")
    w = b - a
    return max(
        (K + 2.0) * math.exp((K + 1.0) * w) + K - 1.0,
        K * (1.0 + w) * math.exp(K * w) + K,
    )


def radius_rk(K: float, a: float, b: float) -> float:
    """Localization radius for the two-stage Runge-Kutta scheme's problem class.

    Undefined for K = 0 (the closed form contains 1/K).
    """
    if not K > 0:  # NaN too
        raise DomainError("radius_rk requires K > 0")
    w = b - a
    first = K * (1.0 + w) * (1.0 + math.exp(K * w) * (1.0 + K * w))
    second = (
        K
        + w * (1.0 + K)
        + (1.0 / K + 1.0) * (1.0 + K * w) * (math.exp(K * w * (1.0 + K * w)) * (1.0 + K) - 1.0)
    )
    return max(first, second)


def make_problem(tag: str) -> IvpSpec:
    """Return test problem "A" (z' = 2tz) or "B" (z' = sin(z^2)) on [0, 1], z(0)=1."""
    tag = tag.strip().upper()
    if tag == "A":
        return IvpSpec(
            a=0.0,
            b=1.0,
            d=1,
            eta=np.array([1.0]),
            rhs=_rhs_A,
            class_params=ClassParams(K=2.0, L=2.0, rho=1.5, R=radius_ee(2.0, 0.0, 1.0)),
            name="A",
            rhs_vectorized=True,
        )
    if tag == "B":
        return IvpSpec(
            a=0.0,
            b=1.0,
            d=1,
            eta=np.array([1.0]),
            rhs=_rhs_B,
            class_params=ClassParams(K=1.0, L=50.0, rho=1.5, R=radius_ee(1.0, 0.0, 1.0)),
            name="B",
            rhs_vectorized=True,
        )
    raise DomainError(f"unknown test problem {tag!r} (expected 'A' or 'B')")


# ---------------------------------------------------------------------------
# Membership audit


@dataclasses.dataclass(frozen=True)
class ConditionReport:
    """Largest sampled ratio for one class condition, with its witness point."""

    observed: float
    bound: float
    witness: tuple
    passed: bool


@dataclasses.dataclass(frozen=True)
class MembershipReport:
    """Sampled evidence for the growth and regularity conditions.

    This is a falsifier, not a prover: ``passed`` means no sampled point
    violated the stated (K, L); it does not certify membership.
    """

    growth: ConditionReport        # ||f(t,x)|| <= K (1 + ||x||)
    time_regularity: ConditionReport   # ||f(t,x) - f(s,x)|| <= L |t-s|^rho
    space_lipschitz: ConditionReport   # ||f(t,x) - f(t,y)|| <= L ||x-y||
    sample_count: int
    rng_seed: int

    @property
    def passed(self) -> bool:
        return self.growth.passed and self.time_regularity.passed and self.space_lipschitz.passed


def _sample_l1_ball(rng, center, radius, size):
    """Uniform samples from the one-norm ball B(center, radius), shape (size, d): the
    noisy oracle's ball draw (:func:`noise._unit_factor`) on draw units taken from rng."""
    from .noise import _perturb, _signed, _unit_factor, _unit_width  # noise imports this module
    d = center.shape[0]
    units = rng.random((size, _unit_width(d)))
    e, direction = _unit_factor(_signed(units) if d == 1 else units, radius, d, "ball")
    return center + _perturb("rk", e, direction, None)


def check_class_membership(p: IvpSpec, sample_count: int = 2000, rng_seed: int = 0) -> MembershipReport:
    """Sample (t, x) pairs and report the largest observed condition ratios.

    Points are drawn from [a, b] x B(eta, min(R, R_CAP)).  Ratios are compared
    against the problem's K and L; a failure carries the witness point.
    """
    _check_counts(sample_count=sample_count)
    rng = np.random.default_rng(rng_seed)
    cp = p.class_params
    radius = min(cp.R, R_CAP)
    ts = p.a + (p.b - p.a) * rng.random(sample_count)
    ss = p.a + (p.b - p.a) * rng.random(sample_count)
    xs = _sample_l1_ball(rng, p.eta, radius, sample_count)
    ys = _sample_l1_ball(rng, p.eta, radius, sample_count)

    def ratio_max(values, witnesses):
        k = int(np.argmax(values))
        return float(values[k]), witnesses[k]

    growth_vals = np.empty(sample_count)
    time_vals = np.zeros(sample_count)
    space_vals = np.zeros(sample_count)
    for i in range(sample_count):
        fx = eval_rhs(p, ts[i], xs[i])
        growth_vals[i] = one_norm(fx) / (1.0 + one_norm(xs[i]))
        dt = abs(ts[i] - ss[i])
        if dt > 0:
            fs = eval_rhs(p, ss[i], xs[i])
            time_vals[i] = one_norm(fx - fs) / dt**cp.rho
        dx = one_norm(xs[i] - ys[i])
        if dx > 0:
            fy = eval_rhs(p, ts[i], ys[i])
            space_vals[i] = one_norm(fx - fy) / dx

    g_obs, g_wit = ratio_max(growth_vals, [(ts[i], xs[i]) for i in range(sample_count)])
    t_obs, t_wit = ratio_max(time_vals, [(ts[i], ss[i], xs[i]) for i in range(sample_count)])
    s_obs, s_wit = ratio_max(space_vals, [(ts[i], xs[i], ys[i]) for i in range(sample_count)])
    return MembershipReport(
        growth=ConditionReport(g_obs, cp.K, g_wit, g_obs <= cp.K),
        time_regularity=ConditionReport(t_obs, cp.L, t_wit, t_obs <= cp.L),
        space_lipschitz=ConditionReport(s_obs, cp.L, s_wit, s_obs <= cp.L),
        sample_count=sample_count,
        rng_seed=rng_seed,
    )
