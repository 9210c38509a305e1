import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randode import (
    DomainError,
    NoiseModel,
    NumericalError,
    SchemeKind,
    derive_cell_seed,
    exact_info,
    make_oracle,
    one_norm,
    parse_delta_rule,
    run_explicit_euler,
    run_implicit_euler,
    run_rk2,
    verify_noise_bound,
)
from randode.noise import (
    ChunkOracle,
    _signed,
    derive_streams,
    fill_uniform_rows,
    stream_keys,
)

from conftest import zero_field_problem


class TestNoiseModel:
    def test_delta_range_checked(self):
        with pytest.raises(DomainError):
            NoiseModel("ee", 1.5)
        with pytest.raises(DomainError):
            NoiseModel("ee", -0.1)

    def test_exact_forces_zero_delta(self):
        with pytest.raises(DomainError):
            NoiseModel("exact", 0.1)
        assert exact_info().delta == 0.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            NoiseModel("gauss", 0.1)


class TestOracle:
    def test_exact_info_passthrough(self, problem_A):
        o = make_oracle(problem_A, exact_info(), 1, 0)
        assert np.array_equal(o.eta_tilde, problem_A.eta)
        assert o.noisy_eval(0.5, [2.0]) == pytest.approx(2.0, abs=1e-15)
        assert o.eval_count == 1

    def test_eta_tilde_defaults_to_eta(self, problem_A):
        o = make_oracle(problem_A, NoiseModel("rk", 0.01), 7, 0)
        assert np.array_equal(o.eta_tilde, problem_A.eta)

    def test_eta_tilde_ball_membership_when_perturbed(self, problem_A):
        for i in range(200):
            o = make_oracle(problem_A, NoiseModel("rk", 0.01), 7, i, perturb_eta=True)
            assert one_norm(o.eta_tilde - problem_A.eta) <= 0.01

    def test_absolute_noise_stays_in_range(self, problem_B):
        o = make_oracle(problem_B, NoiseModel("rk", 0.1), 3, 0)
        for _ in range(500):
            v = o.noisy_eval(0.0, [0.0])
            assert -0.1 <= v[0] <= 0.1  # sin(0)=0 plus bounded noise

    def test_relative_noise_stays_in_range(self, problem_A):
        o = make_oracle(problem_A, NoiseModel("ee", 0.1), 3, 0)
        for _ in range(500):
            v = o.noisy_eval(0.0, [0.0])
            assert -0.1 <= v[0] <= 0.1  # f(0,0)=0, bound delta*(1+0)

    def test_determinism_same_key(self, problem_A):
        m = NoiseModel("ee", 0.05)
        a = make_oracle(problem_A, m, 42, 3)
        b = make_oracle(problem_A, m, 42, 3)
        seq_a = [a.noisy_eval(0.3, [1.0])[0] for _ in range(50)]
        seq_b = [b.noisy_eval(0.3, [1.0])[0] for _ in range(50)]
        assert seq_a == seq_b
        assert np.array_equal(a.draw_taus(16), b.draw_taus(16))

    def test_replications_do_not_collide(self, problem_A):
        m = NoiseModel("ee", 0.05)
        draws = {}
        for i in range(8):
            o = make_oracle(problem_A, m, 42, i)
            draws[i] = tuple(o.grid_stream.random(128))
        assert len(set(draws.values())) == 8

    def test_grid_draws_shared_across_noise_models(self, problem_A):
        # the theta coupling: exact and noisy oracles with one key see the
        # same grid stream
        a = make_oracle(problem_A, exact_info(), 9, 5)
        b = make_oracle(problem_A, NoiseModel("ee", 0.3), 9, 5)
        b.noisy_eval(0.1, [1.0])  # noise consumption must not shift taus
        assert np.array_equal(a.draw_taus(32), b.draw_taus(32))

    def test_bound_violation_raises(self, problem_A, monkeypatch):
        # an explicit check, not an assert, so python -O keeps it
        o = make_oracle(problem_A, NoiseModel("rk", 0.01), 3, 0)
        monkeypatch.setattr(o, "_perturbation", lambda x: np.array([0.0100001]))
        with pytest.raises(NumericalError, match="noise-class bound"):
            o.noisy_eval(0.5, [1.0])
        assert o.eval_count == 0


# small seeds, a derived 128-bit cell seed, one wider than 128 bits, and a
# sequence of words (SeedSequence concatenates them)
_SEEDS = [0, 1, 77, 12345, derive_cell_seed(12345, SchemeKind.EXPLICIT_EULER, "A", 10),
          (1 << 200) + 987654321, [7, 1 << 40]]


class TestChunkStreams:
    """The batched path's chunk keys plus tape filler against derive_streams."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.sampled_from(_SEEDS) | st.integers(0, 1 << 40)
           | st.integers(1 << 128, 1 << 300),
           lo=st.integers(0, (1 << 32) - 1) | st.integers(0, 50),
           count=st.integers(1, 4), k=st.sampled_from([0, 1]),
           m=st.sampled_from([0, 1, 3, 4, 5, 100, 1001]))
    def test_matches_derive_streams(self, seed, lo, count, k, m):
        hi = min(lo + count, 1 << 32)
        tapes = fill_uniform_rows(stream_keys(seed, lo, hi, k), np.empty((hi - lo, m)))
        for i in range(lo, hi):
            assert np.array_equal(tapes[i - lo], derive_streams(seed, i)[k].random(m))

    def test_chunk_tapes_are_step_major(self):
        # 3000 draws a row puts 16 rows in a fill block: blocks of 16, 16 and 5 rows
        seed, lo, hi, steps = 11, 40, 77, 3000
        oracle = ChunkOracle(zero_field_problem(), NoiseModel("rk", 0.01), seed, lo, hi, steps)
        taus = oracle.draw_taus(steps)
        assert taus.shape == (steps, hi - lo, 1) and taus.flags.c_contiguous
        x = np.zeros((hi - lo, 1))
        noise = np.stack([oracle.noisy_eval(0.0, x) for _ in range(steps)])
        for i in range(lo, hi):
            grid, stream = derive_streams(seed, i)
            assert np.array_equal(taus[:, i - lo, 0], grid.random(steps))
            assert np.array_equal(noise[:, i - lo, 0], _signed(stream.random(steps), 0.01))

    def test_top_of_index_range(self):
        for seed in _SEEDS:
            lo, hi = (1 << 32) - 2, 1 << 32
            tapes = fill_uniform_rows(stream_keys(seed, lo, hi, 1), np.empty((2, 5)))
            for i in range(lo, hi):
                assert np.array_equal(tapes[i - lo], derive_streams(seed, i)[1].random(5))

    def test_empty_chunk(self):
        assert stream_keys(3, 10, 10, 0).shape == (0, 2)
        assert fill_uniform_rows(stream_keys(3, 10, 10, 0), np.empty((0, 7))).shape == (0, 7)

    def test_wide_replication_index_rejected(self):
        with pytest.raises(DomainError):
            stream_keys(5, (1 << 32) - 1, (1 << 32) + 1, 0)
        with pytest.raises(DomainError):
            stream_keys(5, 1 << 32, (1 << 32) + 1, 0)

    def test_bad_seed_and_substream_rejected(self):
        for seed in (-1, None, 1.5, "7"):
            with pytest.raises(DomainError):
                stream_keys(seed, 0, 2, 0)
        with pytest.raises(DomainError):
            stream_keys(5, 0, 2, 2)


class TestEvalCounting:
    def test_explicit_euler_uses_n(self, problem_A):
        o = make_oracle(problem_A, exact_info(), 0, 0)
        tr = run_explicit_euler(o, 17)
        assert o.eval_count == 17 and tr.eval_count == 17

    def test_rk_uses_2n(self, problem_A):
        o = make_oracle(problem_A, exact_info(), 0, 0)
        tr = run_rk2(o, 17)
        assert o.eval_count == 34 and tr.eval_count == 34

    def test_implicit_euler_counts_inner_iterations(self):
        p = zero_field_problem()
        o = make_oracle(p, exact_info(), 0, 0)
        run_implicit_euler(o, 6)
        assert o.eval_count == 6  # immediate fixed point: one iteration per step


class TestVerifyNoiseBound:
    def test_exact_samples_pass(self, problem_A):
        o = make_oracle(problem_A, exact_info(), 5, 0, record_samples=True)
        for t in np.linspace(0, 1, 50):
            o.noisy_eval(t, [1.0 + t])
        assert verify_noise_bound(o.model, o.samples)

    @pytest.mark.parametrize("kind", ["ee", "ie", "rk"])
    def test_fresh_samples_pass(self, problem_A, kind):
        m = NoiseModel(kind, 0.05)
        o = make_oracle(problem_A, m, 11, 0, record_samples=True)
        rng = np.random.default_rng(0)
        for _ in range(10_000 if kind != "ie" else 2_000):
            o.noisy_eval(rng.random(), [4.0 * rng.random() - 2.0])
        assert verify_noise_bound(m, o.samples)

    def test_oversized_sample_fails(self):
        m = NoiseModel("rk", 0.01)
        assert not verify_noise_bound(m, [(0.5, np.array([1.0]), np.array([0.02]))])

    def test_ie_lipschitz_pair_check(self):
        m = NoiseModel("ie", 0.1)
        good = [
            (0.5, np.array([0.0]), np.array([0.05])),
            (0.5, np.array([1.0]), np.array([0.10])),
        ]
        assert verify_noise_bound(m, good)  # slope 0.05 <= delta
        bad = [
            (0.5, np.array([0.0]), np.array([0.00])),
            (0.5, np.array([1.0]), np.array([0.15])),
        ]
        assert m.bound(np.array([1.0])) >= 0.15  # per-point bounds fine ...
        assert not verify_noise_bound(m, bad)    # ... but the pair violates Lipschitz

    def test_empty_samples_rejected(self):
        with pytest.raises(DomainError):
            verify_noise_bound(exact_info(), [])

    def test_ie_same_trajectory_factor_satisfies_both_bounds(self, problem_A):
        m = NoiseModel("ie", 0.2)
        o = make_oracle(problem_A, m, 2, 0, record_samples=True)
        for x in np.linspace(-3, 3, 40):
            o.noisy_eval(0.25, [x])
        assert verify_noise_bound(m, o.samples)


class TestMultiDimensional:
    def test_perturbation_norms_bounded_d3(self):
        p = zero_field_problem(d=3)
        for kind in ("ee", "ie", "rk"):
            m = NoiseModel(kind, 0.2)
            o = make_oracle(p, m, 8, 0, record_samples=True)
            rng = np.random.default_rng(1)
            for _ in range(300):
                o.noisy_eval(rng.random(), rng.normal(size=3))
            assert verify_noise_bound(m, o.samples)

    def test_eta_ball_membership_d3(self):
        p = zero_field_problem(d=3)
        for i in range(100):
            o = make_oracle(p, NoiseModel("rk", 0.5), 8, i, perturb_eta=True)
            assert one_norm(o.eta_tilde - p.eta) <= 0.5


class TestDeltaRules:
    def test_power_rule(self):
        rule = parse_delta_rule("n^-1.1")
        assert rule.value_for(10) == 10.0 ** -1.1
        assert rule.label == "n^-1.1"

    def test_literals(self):
        assert parse_delta_rule("0").value_for(10) == 0.0
        assert parse_delta_rule("2e-3").value_for(999) == 2e-3

    def test_bad_rules_rejected(self):
        for text in ("n^1", "delta", "-0.5", "1.5"):
            with pytest.raises(DomainError):
                parse_delta_rule(text)
