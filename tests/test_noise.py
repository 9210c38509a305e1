import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randode import (
    DomainError,
    NoiseModel,
    NoisyOracle,
    NumericalError,
    SchemeKind,
    derive_cell_seed,
    exact_info,
    one_norm,
    parse_delta_rule,
    run_explicit_euler,
    run_implicit_euler,
    run_rk2,
    verify_noise_bound,
)
from randode import noise as noise_module
from randode.noise import (
    ChunkOracle,
    _signed,
    _step_major_tape,
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
        o = NoisyOracle(problem_A, exact_info(), 1, 0)
        assert np.array_equal(o.eta_tilde, problem_A.eta)
        assert o.noisy_eval(0.5, [2.0]) == pytest.approx(2.0, abs=1e-15)
        assert o.eval_count == 1

    def test_eta_tilde_defaults_to_eta(self, problem_A):
        o = NoisyOracle(problem_A, NoiseModel("rk", 0.01), 7, 0)
        assert np.array_equal(o.eta_tilde, problem_A.eta)

    def test_eta_tilde_ball_membership_when_perturbed(self, problem_A):
        for i in range(200):
            o = NoisyOracle(problem_A, NoiseModel("rk", 0.01), 7, i, perturb_eta=True)
            assert one_norm(o.eta_tilde - problem_A.eta) <= 0.01

    def test_absolute_noise_stays_in_range(self, problem_B):
        o = NoisyOracle(problem_B, NoiseModel("rk", 0.1), 3, 0)
        for _ in range(500):
            v = o.noisy_eval(0.0, [0.0])
            assert -0.1 <= v[0] <= 0.1  # sin(0)=0 plus bounded noise

    def test_relative_noise_stays_in_range(self, problem_A):
        o = NoisyOracle(problem_A, NoiseModel("ee", 0.1), 3, 0)
        for _ in range(500):
            v = o.noisy_eval(0.0, [0.0])
            assert -0.1 <= v[0] <= 0.1  # f(0,0)=0, bound delta*(1+0)

    def test_determinism_same_key(self, problem_A):
        m = NoiseModel("ee", 0.05)
        a = NoisyOracle(problem_A, m, 42, 3)
        b = NoisyOracle(problem_A, m, 42, 3)
        seq_a = [a.noisy_eval(0.3, [1.0])[0] for _ in range(50)]
        seq_b = [b.noisy_eval(0.3, [1.0])[0] for _ in range(50)]
        assert seq_a == seq_b
        assert np.array_equal(a.draw_taus(16), b.draw_taus(16))

    def test_replications_do_not_collide(self, problem_A):
        m = NoiseModel("ee", 0.05)
        draws = {}
        for i in range(8):
            o = NoisyOracle(problem_A, m, 42, i)
            draws[i] = tuple(o.draw_taus(128))
        assert len(set(draws.values())) == 8

    def test_grid_draws_shared_across_noise_models(self, problem_A):
        # the theta coupling: exact and noisy oracles with one key see the
        # same grid stream
        a = NoisyOracle(problem_A, exact_info(), 9, 5)
        b = NoisyOracle(problem_A, NoiseModel("ee", 0.3), 9, 5)
        b.noisy_eval(0.1, [1.0])  # noise consumption must not shift taus
        assert np.array_equal(a.draw_taus(32), b.draw_taus(32))

    def test_fresh_noise_before_steps_fills_a_block(self, monkeypatch):
        # evaluations before any draw_taus read their units from one tape of a block of
        # them, after the ball draw's own tape, and in stream order
        fills = []

        def counted(keys, out, *args, **kwargs):
            fills.append(out.shape[1])
            return fill_uniform_rows(keys, out, *args, **kwargs)

        monkeypatch.setattr(noise_module, "fill_uniform_rows", counted)
        o = NoisyOracle(zero_field_problem(), NoiseModel("ee", 0.05), 11, 3, perturb_eta=True)
        xs = np.random.default_rng(0).normal(size=(100, 1))
        got = [o.noisy_eval(0.5, x) for x in xs]
        assert fills == [1, noise_module._BLOCK_ELEMS]
        rng = derive_streams(11, 3)[1]
        _unit(rng, 1)  # the ball draw
        for x, pert in zip(xs, got):
            want = _perturbation("ee", _unit(rng, 1), 0.05, x, 1)
            assert np.array_equal(_bits(pert), _bits(0.0 + np.broadcast_to(want, (1,))))

    def test_bound_violation_raises(self, problem_A, monkeypatch):
        # an explicit check, not an assert, so python -O keeps it
        o = NoisyOracle(problem_A, NoiseModel("rk", 0.01), 3, 0)
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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.sampled_from(_SEEDS) | st.integers(0, 1 << 40), lo=st.integers(0, 50),
           count=st.integers(1, 3), k=st.sampled_from([0, 1]),
           start=st.integers(0, 600), width=st.integers(0, 9))
    @example(seed=5, lo=2, count=1, k=0, start=1, width=9)
    @example(seed=5, lo=2, count=1, k=0, start=7, width=9)
    @example(seed=5, lo=2, count=1, k=1, start=13, width=9)
    def test_offset_rows_match_derive_streams(self, seed, lo, count, k, start, width):
        # draw s is word s % 4 of Philox counter s // 4 + 1, so any start works
        rows = fill_uniform_rows(stream_keys(seed, lo, lo + count, k), np.empty((count, width)),
                                 start=start)
        for i in range(lo, lo + count):
            want = derive_streams(seed, i)[k].random(start + width)[start:]
            assert np.array_equal(rows[i - lo], want)

    def test_chunk_tapes_are_step_major(self, monkeypatch):
        # 3000 draws a row puts 16 rows in a fill block: blocks of 16, 16 and 5
        # rows; the second block starts every grid stream at draw 3000 and,
        # after the ball draw, every noise stream at draw 6001
        seed, lo, hi, blocks = 11, 40, 77, (3000, 1000)
        fills = []

        def counted(keys, out, *args, **kwargs):
            fills.append(out.shape[0])
            return _step_major_tape(keys, out, *args, **kwargs)

        monkeypatch.setattr(noise_module, "_step_major_tape", counted)
        oracle = ChunkOracle(zero_field_problem(), NoiseModel("rk", 0.01), seed, lo, hi,
                             evals_per_step=2, perturb_eta=True)
        x = np.zeros((1, hi - lo, 1))
        taus, noise = [], []
        for steps in blocks:
            block = oracle.draw_taus(steps)
            assert block.shape == (steps, hi - lo, 1) and block.flags.c_contiguous
            taus.append(block.copy())
            noise += [oracle.noisy_eval(0.0, x) for _ in range(2 * steps)]
        # one fill per tape and block: the ball draw, then taus and noise units
        assert fills == [1, 3000, 6000, 1000, 2000]
        taus, noise = np.concatenate(taus), np.stack(noise)
        for i in range(lo, hi):
            grid, stream = derive_streams(seed, i)
            assert np.array_equal(taus[:, i - lo, 0], grid.random(sum(blocks)))
            assert oracle.eta_tilde[0, i - lo, 0] == 1.0 + _signed(stream.random()) * 0.01
            assert np.array_equal(noise[:, 0, i - lo, 0],
                                  _signed(stream.random(2 * sum(blocks))) * 0.01)

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

    def test_bad_seed_and_substream_rejected(self, problem_A):
        for seed in (-1, None, 1.5, "7"):
            with pytest.raises(DomainError):
                stream_keys(seed, 0, 2, 0)
            with pytest.raises(DomainError):
                NoisyOracle(problem_A, exact_info(), seed, 0)
        with pytest.raises(DomainError):
            stream_keys(5, 0, 2, 2)
        with pytest.raises(DomainError):
            NoisyOracle(problem_A, exact_info(), 5, 1 << 32)


class TestEvalCounting:
    def test_explicit_euler_uses_n(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 0, 0)
        tr = run_explicit_euler(o, 17)
        assert o.eval_count == 17 and tr.eval_count == 17

    def test_rk_uses_2n(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 0, 0)
        tr = run_rk2(o, 17)
        assert o.eval_count == 34 and tr.eval_count == 34

    def test_implicit_euler_counts_inner_iterations(self):
        p = zero_field_problem()
        o = NoisyOracle(p, exact_info(), 0, 0)
        run_implicit_euler(o, 6)
        assert o.eval_count == 6  # immediate fixed point: one iteration per step


class TestVerifyNoiseBound:
    def test_exact_samples_pass(self, problem_A):
        o = NoisyOracle(problem_A, exact_info(), 5, 0, record_samples=True)
        for t in np.linspace(0, 1, 50):
            o.noisy_eval(t, [1.0 + t])
        assert verify_noise_bound(o.model, o.samples)

    @pytest.mark.parametrize("kind", ["ee", "ie", "rk"])
    def test_fresh_samples_pass(self, problem_A, kind):
        m = NoiseModel(kind, 0.05)
        o = NoisyOracle(problem_A, m, 11, 0, record_samples=True)
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
        o = NoisyOracle(problem_A, m, 2, 0, record_samples=True)
        for x in np.linspace(-3, 3, 40):
            o.noisy_eval(0.25, [x])
        assert verify_noise_bound(m, o.samples)


def _l1_direction(u, d):
    """A unit one-norm direction from 2d uniforms: simplex point (cone measure), random signs."""
    e = -np.log(u[:d])
    return e / np.sum(e) * np.where(u[d:] < 0.5, -1.0, 1.0)


def _unit(rng, d):
    """The next noise unit of rng: its lead uniform and its direction (1.0 at d = 1)."""
    u = rng.random(1 if d == 1 else 1 + 2 * d)
    return float(u[0]), (_l1_direction(u[1:], d) if d > 1 else 1.0)


def _ball_point(unit, center, radius, d):
    """Uniform draw from the one-norm ball B(center, radius)."""
    u, direction = unit
    if d == 1:
        return center + (2.0 * u - 1.0) * radius
    return center + radius * u ** (1.0 / d) * direction


def _perturbation(kind, unit, delta, x, d):
    """The perturbation at x from one unit: the ie factor's, or the evaluation's own."""
    u, direction = unit
    if kind == "ie" or d == 1:
        e = (2.0 * u - 1.0) * delta
        return (e if kind == "rk" else e * (1.0 + one_norm(x))) * direction
    mag = u * delta
    if kind == "ee":
        mag *= 1.0 + one_norm(x)
    return mag * direction


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestMultiDimensional:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("kind", ["ee", "ie", "rk"])
    def test_draws_pinned_to_formulas(self, kind, d):
        # the eta ball and the ee/ie/rk perturbations, written out over the
        # noise stream: the unit order is the ball draw, the ie factor with
        # its direction, then one unit per evaluation
        p, delta, seed = zero_field_problem(d), 0.2, 8
        xs = np.random.default_rng(1).normal(size=(40, d))
        for i in range(25):
            o = NoisyOracle(p, NoiseModel(kind, delta), seed, i, perturb_eta=True)
            rng = derive_streams(seed, i)[1]
            assert np.array_equal(_bits(o.eta_tilde), _bits(_ball_point(_unit(rng, d), p.eta,
                                                                        delta, d)))
            ie = _unit(rng, d) if kind == "ie" else None
            for x in xs:
                want = _perturbation(kind, ie or _unit(rng, d), delta, x, d)
                got = o.noisy_eval(0.5, x)  # the zero field adds +0.0
                assert np.array_equal(_bits(got), _bits(0.0 + np.broadcast_to(want, (d,))))

        # a chunk of 6 replications in two delta columns, on the same
        # formulas: 3 evaluations before any steps are drawn, then 4 steps'
        # worth plus 3 past them, then 2 steps' worth
        lo, hi, deltas = 3, 9, (0.05, delta)
        for evals_per_step in (1, 2):
            o = ChunkOracle(p, NoiseModel(kind, delta), seed, lo, hi, evals_per_step,
                            perturb_eta=True, deltas=deltas)
            schedule = [(0, 3), (4, 4 * evals_per_step + 3), (2, 2 * evals_per_step)]
            xs = np.random.default_rng(2).normal(size=(sum(e for _, e in schedule), 2,
                                                       hi - lo, d))
            taus, got = [], []
            for steps, evals in schedule:
                if steps:
                    taus.append(o.draw_taus(steps)[:, :, 0].copy())
                got += [o.noisy_eval(0.5, x) for x in xs[len(got):len(got) + evals]]
            taus, got = np.concatenate(taus), np.stack(got)
            for r in range(hi - lo):
                grid, rng = derive_streams(seed, lo + r)
                assert np.array_equal(taus[:, r], grid.random(6))
                ball = _unit(rng, d)
                ie = _unit(rng, d) if kind == "ie" else None
                units = [ie or _unit(rng, d) for _ in xs]
                for c, col_delta in enumerate(deltas):
                    assert np.array_equal(_bits(o.eta_tilde[c, r]),
                                          _bits(_ball_point(ball, p.eta, col_delta, d)))
                    for e, unit in enumerate(units):
                        want = _perturbation(kind, unit, col_delta, xs[e, c, r], d)
                        assert np.array_equal(_bits(got[e, c, r]),
                                              _bits(0.0 + np.broadcast_to(want, (d,))))

    def test_perturbation_norms_bounded_d3(self):
        p = zero_field_problem(d=3)
        for kind in ("ee", "ie", "rk"):
            m = NoiseModel(kind, 0.2)
            o = NoisyOracle(p, m, 8, 0, record_samples=True)
            rng = np.random.default_rng(1)
            for _ in range(300):
                o.noisy_eval(rng.random(), rng.normal(size=3))
            assert verify_noise_bound(m, o.samples)

    def test_eta_ball_membership_d3(self):
        p = zero_field_problem(d=3)
        for i in range(100):
            o = NoisyOracle(p, NoiseModel("rk", 0.5), 8, i, perturb_eta=True)
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
