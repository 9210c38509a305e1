"""Noisy right-hand-side oracles.

A :class:`ChunkOracle` wraps a problem's f, for a chunk of replications at
once, into a seeded, evaluation-counted f~(t, x) = f(t, x) + perturbation,
and :class:`NoisyOracle` is its one-replication view.  The perturbation
respects one of four noise classes with budget delta:

* ``exact`` - no perturbation (delta = 0),
* ``ee``    - fresh per call, bounded by delta * (1 + ||x||),
* ``ie``    - a single per-trajectory factor e0 ~ U[-delta, delta] applied as
  e0 * (1 + ||x||); this satisfies both the relative growth bound and the
  Lipschitz-in-x bound delta * ||x - y|| required by the implicit scheme,
* ``rk``    - fresh per call, bounded by delta in one-norm.

Randomness contract (frozen): every replication owns two counter-based
child streams, :func:`derive_streams`: Philox keyed by
SeedSequence(master_seed, spawn_key=(replication_index, k)) with k = 0 for
grid draws (the tau's consumed by the schemes) and k = 1 for noise draws.
The noise stream is read in units of 1 uniform at d = 1 and 1 + 2d above (a
factor draw, then the d exponential and d sign draws of a unit one-norm
direction): the initial-value ball draw (only when ``perturb_eta`` and
delta > 0), then the ``ie`` factor, then one unit per noisy evaluation in
call order.  At d = 1 a unit u gives the factor (2u - 1) delta.  Oracles of
the same (master_seed, replication_index) therefore share identical grid
draws regardless of their noise model, which couples exact and noisy runs,
and the draws never depend on delta's value, so one chunk run can evaluate
several deltas of one noise kind on the same draws.
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
    """A noise-class selection with precision budget delta in [0, 1], 0 or a normal float."""

    kind: str
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError("delta must lie in [0, 1]")
        if 0.0 < self.delta < np.finfo(float).tiny:
            raise DomainError(f"delta {self.delta!r} is subnormal; it must be 0 or at least "
                              f"{float(np.finfo(float).tiny)!r}")
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
#: the tape fill here, a run's node sub-blocks in schemes.py and the
#: sup-error kernel in analysis.py
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
    """Philox keys, shape (hi - lo, 2), of stream ``substream`` of replications lo <= i < hi."""
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
    if m == 1:  # one row: mixed as Python ints, far cheaper than arrays of one element
        spawn_key = (lo, substream)
    else:
        pool = [np.full(m, p, dtype=np.uint32) for p in pool]
        spawn_key = (np.arange(lo, hi, dtype=np.uint32), np.full(m, substream, dtype=np.uint32))
    for w in spawn_key:
        hash_const = _mix_into(pool, w, hash_const)

    hash_const = _INIT_B
    state = []
    for p in pool:
        v, hash_const = _hash(p, hash_const, _MULT_B)
        state.append(v if m == 1 else v.astype(np.uint64))
    keys = np.empty((m, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << 32)
    keys[:, 1] = state[2] | (state[3] << 32)
    return keys


def fill_uniform_rows(keys: np.ndarray, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Fill row i of out with U(0,1) draws start, start + 1, ... of the stream keyed by keys[i].

    One native Philox is re-keyed per row.  Philox is counter-based, and
    numpy's Philox increments its counter before each output and hands out
    the output's four 64-bit words one per double, so draw s is word s % 4 of
    counter s // 4 + 1.  A row therefore starts from counter start // 4 with
    an empty buffer and skips start % 4 draws; row i equals
    ``Generator(Philox(key=keys[i])).random(start + out.shape[1])[start:]``.
    The state is set from plain Python ints, which numpy converts faster
    than arrays.
    """
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    skip = start % 4
    inner = {"counter": [start // 4, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key, row in zip(keys.tolist(), out):
        inner["key"] = key
        bit_gen.state = state
        if skip:
            gen.random(skip)
        gen.random(out=row)
    return out


def _step_major_tape(keys: np.ndarray, out: np.ndarray, start: int = 0,
                     signed: bool = False) -> np.ndarray:
    """Fill out, shape (steps, m, w), step-major: out[s, i] is unit start + s (w draws) of keys[i].

    Rows are filled a block at a time into a scratch of about
    ``_BLOCK_ELEMS`` draws (:func:`fill_uniform_rows`) and written
    transposed, so no full row-major copy is made.  A block has at least
    ``_TAPE_ROWS`` rows, so that each transposed write covers whole cache
    lines of the tape.  With ``signed`` every draw u is stored as 2u - 1.
    """
    steps, m, w = out.shape
    rows = max(1, min(m, max(_TAPE_ROWS, _BLOCK_ELEMS // max(steps * w, 1))))
    scratch = np.empty((rows, steps * w))
    for r0 in range(0, m, rows):
        block = fill_uniform_rows(keys[r0:r0 + rows], scratch[:min(rows, m - r0)], start * w)
        if signed:
            np.subtract(np.multiply(block, 2.0, out=block), 1.0, out=block)
        out[:, r0:r0 + block.shape[0]] = block.reshape(-1, steps, w).swapaxes(0, 1)
    return out


def _signed(u):
    """U(0,1) draws u mapped to 2u - 1 on [-1, 1], the factor a delta then scales."""
    return 2.0 * u - 1.0


def _unit_width(d: int) -> int:
    """The uniforms of one draw unit: 1 at d = 1, a factor and 2d direction draws above."""
    return 1 if d == 1 else 1 + 2 * d


def _direction(u, d: int):
    """Unit one-norm directions from 2d uniforms each, (..., 2d) -> (..., d):
    a simplex point (cone measure) from d exponential draws, signs from d more."""
    e = -np.log(u[..., :d])
    return e / np.sum(e, axis=-1, keepdims=True) * np.where(u[..., d:] < 0.5, -1.0, 1.0)


def _unit_factor(unit, delta, d: int, role: str):
    """The factor and direction (None at d = 1) of draw units, shape (..., w).

    At d = 1 a unit is held as 2u - 1, and the factor is (2u - 1) delta.
    Above, a unit is 1 + 2d uniforms, lead draw u first; the factor is
    u delta (``fresh``), (2u - 1) delta (``ie``) or the ``ball`` radius
    delta u^(1/d), whose root is Python's float power per element: numpy's
    array power can differ from it in the last bit.
    """
    if d == 1:
        return unit * delta, None
    u = unit[..., :1]
    if role == "fresh":
        e = u * delta
    elif role == "ie":
        e = _signed(u) * delta
    else:
        e = delta * np.array([v ** (1.0 / d) for v in u.ravel().tolist()]).reshape(u.shape)
    return e, _direction(unit[..., 1:], d)


def _perturb(kind: str, e, direction, x):
    """The perturbation of factor e and direction at states x (..., d): ``ee`` and ``ie``
    scale e by 1 + ||x||, ``rk`` (and the eta-ball offset) take it as is."""
    if kind != "rk":
        e = e * (1.0 + (np.abs(x) if direction is None
                        else np.sum(np.abs(x), axis=-1, keepdims=True)))
    return e if direction is None else e * direction


class ChunkOracle:
    """The oracles of replications [lo, hi), evaluated together.

    States have shape (k, m, d), one row per replication in each of k delta
    columns; times have shape (m, 1), or are one time for all rows.  Row i
    reads replication lo + i's streams (:func:`derive_streams`) in the order
    of the module docstring, from step-major tapes, (units, m, w), each
    entering its streams at their next draw (:func:`_step_major_tape`).
    :meth:`draw_taus` fills the next steps' grid draws.  Noise units are
    taken at one site, :meth:`_unit`, which refills a used-up tape with the
    units of the evaluations that the last :meth:`draw_taus` announced,
    ``evals_per_step`` a step, or, with none announced, with a block of
    about ``_BLOCK_ELEMS`` values (before any steps the lead units come
    first: the ball draw and the ``ie`` factor).  Evaluation is rhs plus
    the perturbation, without :class:`NoisyOracle`'s per-call checks;
    ``eval_count`` counts calls, each covering every row, and
    ``replication_index`` is lo.  A vectorized rhs (``base.rhs_vectorized``)
    is called once for all rows, any other once per row with its time and
    (d,) state, as :class:`NoisyOracle` calls it.

    Column c is the oracle of ``model`` with delta ``deltas[c]`` (default:
    ``model.delta`` alone).  The draws do not depend on delta, so every
    column reads the same units, and each factor is scaled by the (k, 1, 1)
    deltas in the rounding order of one oracle (:func:`_unit_factor`,
    :func:`_perturb`).  ``model`` must be the kind with the largest of the
    deltas, which decides what is drawn; a delta 0 column is the exact one.

    Fresh units are scaled ahead, a run at a time: the next units of the
    tape, up to about ``_BLOCK_ELEMS`` factor and direction values, go
    through :func:`_unit_factor` in one call, (run, k, m, 1) factors and, at
    d > 1, (run, 1, m, d) directions, and each evaluation takes the next of
    them.  Every value is the elementwise product or function that one
    unit's call would give, so scaling ahead changes no bit.
    """

    def __init__(self, base: IvpSpec, model: NoiseModel, master_seed, lo: int, hi: int,
                 evals_per_step: int = 1, perturb_eta: bool = False, deltas=None):
        self.base = base
        self.model = model
        self.master_seed = master_seed
        self.replication_index = lo
        self.eval_count = 0
        self._m = hi - lo
        self._evals_per_step = evals_per_step
        self._deltas = np.asarray(model.delta if deltas is None else deltas,
                                  dtype=float).reshape(-1, 1, 1)
        ball = perturb_eta and model.delta > 0.0
        ie = model.kind == "ie" and model.delta > 0.0
        self._grid_keys = stream_keys(master_seed, lo, hi, 0)
        self._noise_keys = (stream_keys(master_seed, lo, hi, 1)
                            if ball or ie or model.fresh else None)
        self._taus = self._noise = np.empty((0, self._m, 1))  # used-up tapes
        self._grid_pos = self._noise_pos = 0  # grid draws and noise units filled, per row
        # the next unit of the tape; units of the next tape (None: a block of them)
        self._next, self._fill = 0, ball + ie or None
        d, k = base.d, self._deltas.shape[0]
        self._run, self._run_next = (np.empty(0), None), 0  # fresh units scaled ahead
        self._run_max = max(1, _BLOCK_ELEMS // (self._m * (k + (d if d > 1 else 0))))
        self.eta_tilde = np.empty((k, self._m, d))
        self.eta_tilde[...] = (base.eta + _perturb("rk", *self._lead("ball"), None) if ball
                               else base.eta)
        self._ie = self._lead("ie") if ie else None

    def _tape(self, buf, keys, steps: int, start: int, noise: bool = False) -> np.ndarray:
        """Units start .. start + steps - 1 of keys' streams (:func:`_step_major_tape`): noise
        draw units, or single grid draws; in the front of buf when it is long enough."""
        w = _unit_width(self.base.d) if noise else 1
        if buf.shape[0] < steps:
            buf = np.empty((steps, self._m, w))
        return _step_major_tape(keys, buf[:steps], start, signed=noise and w == 1)

    def _unit(self, count: int) -> np.ndarray:
        """Every row's next noise units, (units, m, w): at most count, and at least one."""
        if self._next == self._noise.shape[0]:
            fill = self._fill or max(1, _BLOCK_ELEMS // (self._m * _unit_width(self.base.d)))
            self._noise = self._tape(self._noise, self._noise_keys, fill, self._noise_pos,
                                     noise=True)
            self._noise_pos += fill
            self._next, self._fill = 0, None
        units = self._noise[self._next:self._next + count]
        self._next += units.shape[0]
        return units

    def _lead(self, role: str):
        """Every row's next noise unit as the (factor, direction) of a ``ball`` or ``ie`` draw."""
        return _unit_factor(self._unit(1)[0], self._deltas, self.base.d, role)

    def _fresh(self):
        """Every row's next fresh unit as (factor, direction) for every column."""
        e, direction = self._run
        if self._run_next == e.shape[0]:
            units = self._unit(self._run_max)
            self._run = e, direction = _unit_factor(units[:, None], self._deltas, self.base.d,
                                                    "fresh")
            self._run_next = 0
        i = self._run_next
        self._run_next += 1
        return e[i], None if direction is None else direction[i]

    def draw_taus(self, n: int) -> np.ndarray:
        """Every row's next n grid draws, step-major: C-contiguous, shape (n, m, 1), in a
        buffer that later calls reuse; the next noise tape holds these steps' units."""
        self._taus = self._tape(self._taus, self._grid_keys, n, self._grid_pos)
        self._grid_pos += n
        self._fill = n * self._evals_per_step
        return self._taus

    def _rhs(self, t, x) -> np.ndarray:
        if self.base.rhs_vectorized:
            return self.base.rhs(t, x)
        ts, f = np.broadcast_to(t, (self._m, 1))[:, 0], np.empty(x.shape)
        for c, i in np.ndindex(x.shape[:2]):
            f[c, i] = np.atleast_1d(np.asarray(self.base.rhs(ts[i], x[c, i]), dtype=float))
        return f

    def _perturbation(self, x):
        """Every row's perturbation at states x, (k, m, d); None for exact or delta 0."""
        kind = self.model.kind
        if kind == "exact" or self.model.delta == 0.0:
            return None
        return _perturb(kind, *(self._ie if kind == "ie" else self._fresh()), x)

    def noisy_eval(self, t, x) -> np.ndarray:
        """rhs(t, x) plus every row's perturbation."""
        self.eval_count += 1
        f = self._rhs(t, x)
        pert = self._perturbation(x)
        return f if pert is None else f + pert


class NoisyOracle(ChunkOracle):
    """A seeded, counted, perturbed view of one problem's (eta, f): replication
    ``replication_index`` as a one-row :class:`ChunkOracle`, with states of shape (d,).

    By default the initial value is passed through unperturbed (eta_tilde =
    eta); ``perturb_eta=True`` draws eta_tilde uniformly from the one-norm
    ball B(eta, delta) instead.  Either way eta_tilde lies in B(eta, delta).
    Each evaluation checks that the rhs is finite and the perturbation
    within its class bound, and ``record_samples`` keeps every (t, x,
    perturbation).

    Single-threaded: the draw tapes and the evaluation counter are mutable.
    Build one oracle per replication; distinct oracles may run concurrently.
    """

    def __init__(self, base: IvpSpec, model: NoiseModel, master_seed, replication_index: int,
                 perturb_eta: bool = False, record_samples: bool = False):
        i = int(replication_index)
        super().__init__(base, model, master_seed, i, i + 1, perturb_eta=perturb_eta)
        self.eta_tilde = self.eta_tilde[0, 0]
        self.samples = [] if record_samples else None

    def draw_taus(self, n: int) -> np.ndarray:
        """The next n draws of the grid stream, shape (n,), in a fresh array."""
        return super().draw_taus(n)[:, 0, 0].copy()

    def _perturbation(self, x: np.ndarray) -> np.ndarray:
        pert = super()._perturbation(x[None, None])
        return np.zeros(self.base.d) if pert is None else pert[0, 0]

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
        if self.samples is not None:
            self.samples.append((t, x.copy(), pert.copy()))
        return base + pert


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
