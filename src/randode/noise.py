"""Noisy right-hand-side oracles.

A :class:`NoisyOracle` wraps a problem's f into a seeded, evaluation-counted
callable f~(t, x) = f(t, x) + perturbation, where the perturbation respects
one of four noise classes with budget delta:

* ``exact`` - no perturbation (delta = 0),
* ``ee``    - fresh per call, bounded by delta * (1 + ||x||),
* ``ie``    - a single per-trajectory factor e0 ~ U[-delta, delta] applied as
  e0 * (1 + ||x||); this satisfies both the relative growth bound and the
  Lipschitz-in-x bound delta * ||x - y|| required by the implicit scheme,
* ``rk``    - fresh per call, bounded by delta in one-norm.

Randomness contract (frozen): every oracle owns two counter-based child
streams derived from SeedSequence(master_seed, spawn_key=(replication_index, k))
with k = 0 for grid draws (the tau's consumed by the schemes) and k = 1 for
noise draws.  The noise stream is consumed in this order: the initial-value
ball draw (only when ``perturb_eta`` and delta > 0), then the per-trajectory
``ie`` factor (and its direction for d > 1), then one block per noisy
evaluation in call order.  For d = 1 each block is a single uniform u with
perturbation magnitude (2u - 1) * delta.  Two oracles built from the same
(master_seed, replication_index) therefore share identical grid draws
regardless of their noise model, which couples exact and noisy runs.
A :class:`ChunkOracle` makes the same draws for a chunk of replications of a
d = 1 problem at once, from tapes filled per replication stream.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from .exceptions import DomainError, NumericalError
from .problems import IvpSpec, one_norm

NOISE_KINDS = ("exact", "ee", "ie", "rk")

#: slack for the per-call bound check (pure rounding headroom)
_BOUND_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class NoiseModel:
    """A noise-class selection with precision budget delta in [0, 1]."""

    kind: str
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError("delta must lie in [0, 1]")
        if self.kind == "exact" and self.delta != 0.0:
            raise DomainError("exact information forces delta = 0")

    @property
    def fresh(self) -> bool:
        """True when every evaluation draws its own perturbation."""
        return self.kind in ("ee", "rk") and self.delta > 0.0

    def bound(self, x) -> float:
        """The class bound on the perturbation emitted at state x."""
        if self.kind in ("ee", "ie"):
            return self.delta * (1.0 + one_norm(x))
        if self.kind == "rk":
            return self.delta
        return 0.0


def exact_info() -> NoiseModel:
    return NoiseModel("exact", 0.0)


def derive_streams(master_seed, replication_index: int):
    """The two child generators (grid draws, noise draws) of one replication."""
    rep = int(replication_index)

    def child(k):
        seq = np.random.SeedSequence(master_seed, spawn_key=(rep, k))
        return np.random.Generator(np.random.Philox(seq))

    return child(0), child(1)


# ---------------------------------------------------------------------------
# Batched streams: the keys of a whole chunk of replications at once
#
# Philox output is a pure function of (key, counter), and derive_streams keys
# each child by SeedSequence(master_seed, spawn_key=(i, k)).generate_state(2,
# uint64).  Below is a numpy port of that hash (NEP 19): the mixing of the
# master seed into the pool does not depend on i and runs once, the two
# spawn-key words are mixed in for all i with uint32 array operations.  The
# constants and the word order are numpy's; tests pin the port to
# derive_streams bit for bit.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MAX_REPLICATIONS = 1 << 32  # a wider index takes two spawn-key words

#: elements of one scratch block on the batched path (256 KiB of float64):
#: the tape fill here and the sup-error kernel in analysis.py
_BLOCK_ELEMS = 1 << 15
_TAPE_ROWS = 16


def _entropy_words(x) -> list:
    """The uint32 words (least significant first) SeedSequence reads from x."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        if x < 0:
            raise DomainError("master seed must be nonnegative")
        words = [x & _MASK32]
        while x >> 32:
            x >>= 32
            words.append(x & _MASK32)
        return words
    if x is None or isinstance(x, (str, bytes, float, np.inexact)):
        raise DomainError(f"batched streams need an integer master seed, got {x!r}")
    return [w for v in x for w in _entropy_words(v)]


def _hash(value, hash_const: int, mult: int):
    """SeedSequence's word hash; value is an int or a uint32 array."""
    value = (value ^ hash_const) & _MASK32
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _mix_into(pool: list, word, hash_const: int) -> int:
    for dst in range(_POOL_SIZE):
        v, hash_const = _hash(word, hash_const, _MULT_A)
        pool[dst] = _mix(pool[dst], v)
    return hash_const


def stream_keys(master_seed, lo: int, hi: int, substream: int) -> np.ndarray:
    """Philox keys, shape (hi - lo, 2), of derive_streams(master_seed, i)[substream], lo <= i < hi."""
    if not 0 <= lo <= hi:
        raise DomainError("replication range must satisfy 0 <= lo <= hi")
    if hi > _MAX_REPLICATIONS:
        raise DomainError(f"replication indices must be below 2**32, got {hi - 1}")
    if substream not in (0, 1):
        raise DomainError("substream must be 0 (grid) or 1 (noise)")
    words = _entropy_words(master_seed)
    # a spawn key pads the master seed's words to the pool size with zeros
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for w in words[:_POOL_SIZE]:
        v, hash_const = _hash(w, hash_const, _MULT_A)
        pool.append(v)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
    for w in words[_POOL_SIZE:]:
        hash_const = _mix_into(pool, w, hash_const)

    m = hi - lo
    pool = [np.full(m, p, dtype=np.uint32) for p in pool]
    for w in (np.arange(lo, hi, dtype=np.uint32), np.full(m, substream, dtype=np.uint32)):
        hash_const = _mix_into(pool, w, hash_const)

    hash_const = _INIT_B
    state = []
    for p in pool:
        v, hash_const = _hash(p, hash_const, _MULT_B)
        state.append(v.astype(np.uint64))
    keys = np.empty((m, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << 32)
    keys[:, 1] = state[2] | (state[3] << 32)
    return keys


def fill_uniform_rows(keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill row i of out with the leading U(0,1) draws of the Philox stream keyed by keys[i].

    One native Philox is re-keyed per row with a zero counter and an empty
    buffer, the state a freshly seeded Philox starts in, so row i equals
    ``Generator(Philox(key=keys[i])).random(out.shape[1])``.
    """
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        bit_gen.state = state
        gen.random(out=row)
    return out


def _step_major_tape(keys: np.ndarray, steps: int, delta=None) -> np.ndarray:
    """The leading draws of each stream, step-major: tape[s, i, 0] is draw s of keys[i].

    Rows are filled a block at a time into a scratch of about
    ``_BLOCK_ELEMS`` draws (:func:`fill_uniform_rows`) and written
    transposed, so no full row-major copy is made.  A block has at least
    ``_TAPE_ROWS`` rows, so that each transposed write covers whole cache
    lines of the tape.  With ``delta`` every draw u is stored as its factor
    (2u - 1) delta.
    """
    m = keys.shape[0]
    tape = np.empty((steps, m, 1))
    rows = max(1, min(m, max(_TAPE_ROWS, _BLOCK_ELEMS // max(steps, 1))))
    scratch = np.empty((rows, steps))
    for r0 in range(0, m, rows):
        block = fill_uniform_rows(keys[r0:r0 + rows], scratch[:min(rows, m - r0)])
        if delta is not None:
            block = _signed(block, delta)
        tape[:, r0:r0 + block.shape[0], 0] = block.T
    return tape


def _signed(u, delta):
    """A U(0,1) draw u mapped to the factor (2u - 1) delta on [-delta, delta]."""
    return (2.0 * u - 1.0) * delta


def _perturbation_1d(kind: str, e, x):
    """The d = 1 perturbation with drawn factor e at state x, elementwise.

    ``ee`` and ``ie`` scale the factor by 1 + |x|; ``rk`` emits it as is.
    """
    if kind == "rk":
        return e
    return e * (1.0 + np.abs(x))


def _l1_direction(rng, d: int) -> np.ndarray:
    """A unit one-norm direction: simplex point (cone measure) with random signs."""
    e = -np.log(rng.random(d))
    dirs = e / np.sum(e)
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    return dirs * signs


def _ball_point(rng, center: np.ndarray, radius: float) -> np.ndarray:
    """Uniform draw from the one-norm ball B(center, radius)."""
    d = center.shape[0]
    if radius == 0.0:
        return center.copy()
    if d == 1:
        return center + _signed(rng.random(), radius)
    r = radius * rng.random() ** (1.0 / d)
    return center + r * _l1_direction(rng, d)


class NoisyOracle:
    """A seeded, counted, perturbed view of one problem's (eta, f).

    Single-threaded: the draw streams and the evaluation counter are mutable.
    Build one oracle per replication; distinct oracles may run concurrently.
    """

    def __init__(self, base: IvpSpec, model: NoiseModel, master_seed, replication_index: int,
                 perturb_eta: bool = False, record_samples: bool = False):
        self.base = base
        self.model = model
        self.master_seed = master_seed
        self.replication_index = int(replication_index)
        self.grid_stream, self.noise_stream = derive_streams(master_seed, replication_index)
        self.eval_count = 0
        self.samples = [] if record_samples else None
        self._record = record_samples

        if perturb_eta and model.delta > 0.0:
            self.eta_tilde = _ball_point(self.noise_stream, base.eta, model.delta)
        else:
            self.eta_tilde = base.eta.copy()

        self._e0 = 0.0
        self._dir0 = None
        if model.kind == "ie" and model.delta > 0.0:
            self._e0 = _signed(self.noise_stream.random(), model.delta)
            if base.d > 1:
                self._dir0 = _l1_direction(self.noise_stream, base.d)

    def draw_taus(self, n: int) -> np.ndarray:
        """The next n U(0,1) draws of the dedicated grid stream."""
        return self.grid_stream.random(n)

    def _perturbation(self, x: np.ndarray) -> np.ndarray:
        m = self.model
        d = self.base.d
        if m.kind == "exact" or m.delta == 0.0:
            return np.zeros(d)
        if d == 1:
            e = self._e0 if m.kind == "ie" else _signed(self.noise_stream.random(), m.delta)
            return np.atleast_1d(_perturbation_1d(m.kind, e, x))
        if m.kind == "ie":
            return self._e0 * (1.0 + one_norm(x)) * self._dir0
        # fresh draw per call
        mag = self.noise_stream.random() * m.delta
        if m.kind == "ee":
            mag *= 1.0 + one_norm(x)
        return mag * _l1_direction(self.noise_stream, d)

    def __call__(self, t: float, x) -> np.ndarray:
        return self.noisy_eval(t, x)

    def noisy_eval(self, t: float, x) -> np.ndarray:
        """f(t, x) + perturbation; increments the evaluation counter."""
        x = np.asarray(x, dtype=float)
        i = self.replication_index
        base = np.atleast_1d(np.asarray(self.base.rhs(t, x), dtype=float))
        if not np.all(np.isfinite(base)):
            raise NumericalError(f"replication {i}: rhs returned a non-finite value at t={t}",
                                 replication=i)
        pert = self._perturbation(x)
        size, bound = one_norm(pert), self.model.bound(x)
        if not size <= bound * (1.0 + _BOUND_RTOL):
            raise NumericalError(f"replication {i}: perturbation of one-norm {size!r} at t={t} "
                                 f"exceeds its {self.model.kind} noise-class bound {bound!r}",
                                 replication=i)
        self.eval_count += 1
        if self._record:
            self.samples.append((t, x.copy(), pert.copy()))
        return base + pert


class ChunkOracle:
    """The oracles of replications [lo, hi) of a d = 1 problem, evaluated together.

    States have shape (m, 1), one row per replication, and ``base.rhs`` must
    accept them elementwise.  Row i draws exactly what
    ``NoisyOracle(base, model, master_seed, lo + i, perturb_eta)`` draws, in
    the same order, read from step-major tapes filled from that replication's
    streams (:func:`stream_keys`, :func:`_step_major_tape`), so each draw of
    every row is one contiguous (m, 1) slice: the grid tape holds the taus;
    the noise tape holds, already mapped to (2u - 1) delta, the initial-value
    ball draw, then the ``ie`` factor, then, for fresh noise, one draw per
    evaluation for ``evals`` evaluations.  Evaluation is rhs plus the
    perturbation, without :meth:`NoisyOracle.noisy_eval`'s per-call checks;
    ``eval_count`` counts calls, each covering every row.
    ``replication_index`` is lo, row 0's.
    """

    def __init__(self, base: IvpSpec, model: NoiseModel, master_seed, lo: int, hi: int,
                 evals: int, perturb_eta: bool = False):
        if base.d != 1:
            raise DomainError("a chunk oracle needs a one-dimensional problem")
        self.base = base
        self.model = model
        self.master_seed = master_seed
        self.replication_index = lo
        self._hi = hi
        self.eval_count = 0
        ball = perturb_eta and model.delta > 0.0
        ie = model.kind == "ie" and model.delta > 0.0
        draws = ball + ie + (evals if model.fresh else 0)
        self._noise = (_step_major_tape(stream_keys(master_seed, lo, hi, 1), draws, model.delta)
                       if draws else None)
        self._next = 0
        self.eta_tilde = base.eta[0] + self._draw() if ball else np.full((hi - lo, 1), base.eta[0])
        self._e0 = self._draw() if ie else None

    def _draw(self) -> np.ndarray:
        """Every row's next noise draw as its factor (2u - 1) delta, shape (m, 1)."""
        e = self._noise[self._next]
        self._next += 1
        return e

    def draw_taus(self, n: int) -> np.ndarray:
        """Every row's first n grid draws, step-major: C-contiguous, shape (n, m, 1)."""
        return _step_major_tape(stream_keys(self.master_seed, self.replication_index,
                                            self._hi, 0), n)

    def noisy_eval(self, t, x) -> np.ndarray:
        """rhs(t, x) plus every row's perturbation."""
        self.eval_count += 1
        f = self.base.rhs(t, x)
        kind = self.model.kind
        if kind == "exact" or self.model.delta == 0.0:
            return f
        e = self._e0 if kind == "ie" else self._draw()
        return f + _perturbation_1d(kind, e, x)


def make_oracle(p: IvpSpec, m: NoiseModel, master_seed, replication_index: int,
                perturb_eta: bool = False, record_samples: bool = False) -> NoisyOracle:
    """Construct the replication's oracle.

    By default the initial value is passed through unperturbed (eta_tilde =
    eta); ``perturb_eta=True`` draws eta_tilde uniformly from the one-norm
    ball B(eta, delta) instead.  Either way eta_tilde lies in B(eta, delta).
    """
    return NoisyOracle(p, m, master_seed, replication_index,
                       perturb_eta=perturb_eta, record_samples=record_samples)


def verify_noise_bound(m: NoiseModel, samples) -> bool:
    """True iff every (t, x, perturbation) sample obeys the model's class bound.

    For the ``ie`` class this additionally checks the pairwise Lipschitz
    condition ||pert(t,x) - pert(t,y)|| <= delta ||x - y|| over same-t pairs.
    """
    samples = list(samples)
    if not samples:
        raise DomainError("samples must be nonempty")
    for t, x, pert in samples:
        if one_norm(pert) > m.bound(x) * (1.0 + _BOUND_RTOL):
            return False
    if m.kind == "ie":
        by_t = {}
        for t, x, pert in samples:
            by_t.setdefault(float(t), []).append((np.asarray(x, float), np.asarray(pert, float)))
        for group in by_t.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    xi, pi = group[i]
                    xj, pj = group[j]
                    lhs = one_norm(pi - pj)
                    rhs = m.delta * one_norm(xi - xj)
                    if lhs > rhs * (1.0 + _BOUND_RTOL) + 1e-300:
                        return False
    return True


# ---------------------------------------------------------------------------
# delta rules ("0", a literal, or "n^-p" evaluated per run)

_POWER_RE = re.compile(r"^n\^(-\d+(?:\.\d+)?)$")


@dataclasses.dataclass(frozen=True)
class DeltaRule:
    """A noise budget given literally or as a power rule n^-p."""

    label: str
    power: float | None = None
    value: float | None = None

    def value_for(self, n: int) -> float:
        if self.power is not None:
            return float(n) ** -self.power
        return self.value


def parse_delta_rule(text: str) -> DeltaRule:
    text = text.strip()
    m = _POWER_RE.match(text)
    if m:
        p = -float(m.group(1))
        if p <= 0:
            raise DomainError(f"delta rule {text!r} must have a negative exponent")
        return DeltaRule(label=text, power=p)
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"cannot parse delta rule {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"literal delta {value} outside [0, 1]")
    return DeltaRule(label=text, value=value)
