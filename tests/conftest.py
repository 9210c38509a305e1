import os

import numpy as np
import pytest

from randode import (
    ClassParams,
    IvpSpec,
    NoisyOracle,
    ReferenceSolution,
    build_reference_B,
    exact_solution_A,
    make_problem,
    reference_for,
)
from randode.problems import _rhs_A


def zero_rhs(t, x):
    return np.zeros_like(x)


def decay_rhs(t, x):
    return -x


def constant_rhs(t, x):
    return np.full_like(x, 0.25)


def zero_field_problem(d=1):
    return IvpSpec(a=0.0, b=1.0, d=d, eta=np.ones(d), rhs=zero_rhs,
                   class_params=ClassParams(K=float(d), L=0.0, rho=1.5),
                   name="zero", rhs_vectorized=True)


def decay_problem():
    return IvpSpec(a=0.0, b=1.0, d=1, eta=np.array([1.0]), rhs=decay_rhs,
                   class_params=ClassParams(K=1.0, L=1.0, rho=1.5),
                   name="decay", rhs_vectorized=True)


def constant_field_problem():
    return IvpSpec(a=0.0, b=1.0, d=1, eta=np.array([1.0]), rhs=constant_rhs,
                   class_params=ClassParams(K=1.0, L=0.0, rho=1.5),
                   name="const", rhs_vectorized=True)


class FixedTauOracle(NoisyOracle):
    """A NoisyOracle whose every grid draw reads tau = 0.5, for hand-derived steps."""

    def draw_taus(self, n, evals_per_step=1):
        super().draw_taus(n, evals_per_step)
        return np.full(n, 0.5)


def problem_A_in(d, vectorized=True):
    """Problem A's field 2tx in every coordinate of R^d, from eta = (1, ..., 1)."""
    return IvpSpec(a=0.0, b=1.0, d=d, eta=np.ones(d), rhs=_rhs_A,
                   class_params=ClassParams(K=2.0 * d, L=2.0, rho=1.5), name=f"A{d}",
                   rhs_vectorized=vectorized)


def ref_A_in(d):
    """The exact solution exp(t^2) of problem_A_in(d) in every coordinate."""
    return ReferenceSolution.analytic(
        lambda t: np.repeat(exact_solution_A(t)[:, None], d, axis=1), d=d)


@pytest.fixture(scope="session")
def problem_A():
    return make_problem("A")


@pytest.fixture(scope="session")
def problem_B():
    return make_problem("B")


@pytest.fixture(scope="session")
def ref_A(problem_A):
    return reference_for(problem_A)


@pytest.fixture(scope="session")
def ref_B_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("refcache") / "refB.bin"


@pytest.fixture(scope="session")
def ref_B(ref_B_cache):
    return build_reference_B(n_ref=2_000_000, cache_path=str(ref_B_cache))


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the processes forked while the test runs, through the real os.fork."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", spy)
    return pids


def children() -> list:
    """The pids of this process's children, zombies included (forked by its main thread)."""
    with open(f"/proc/self/task/{os.getpid()}/children") as fh:
        return fh.read().split()
