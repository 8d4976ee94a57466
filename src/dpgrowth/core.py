"""Shared domain types: loss oracles, ball domains with projections, privacy
budgets, growth certificates, datasets, seeded randomness, and probe-based
verification of growth and gradient-domination inequalities."""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "InvalidInputError",
    "ConvergenceError",
    "ResourceError",
    "RngStream",
    "ChildStreams",
    "children_laplace",
    "derive_stream_key",
    "Dataset",
    "Domain",
    "PrivacyParams",
    "GrowthSpec",
    "LossOracle",
    "IsotropicQuadratic",
    "PowerNorm",
    "SeparableAbsolute",
    "project",
    "ProbeReport",
    "verify_growth",
    "verify_kl",
]


class InvalidInputError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class ConvergenceError(RuntimeError):
    """Solver exhausted its iteration budget before certifying accuracy.

    Carries the best iterate seen and the stationarity residual at it.
    """

    def __init__(self, message: str, best_x: np.ndarray, residual: float):
        super().__init__(message)
        self.best_x = best_x
        self.residual = residual


class ResourceError(RuntimeError):
    """Raised when a request would exceed a hard resource cap."""


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream_key(seed: int, stream):
    """Random-access output of a splitmix-style sequence keyed at ``seed``.

    The state advances by the 64-bit golden-ratio increment per step, so the
    ``stream``-th output is ``mix64(seed + (stream + 1) * GAMMA)``.  This is
    the documented master-seed -> trial-stream derivation used everywhere in
    the harness; it is pure integer arithmetic and machine independent.  A
    uint64 array of stream ids gives the uint64 array of their keys.
    """
    state = (seed + (stream + 1) * _GAMMA) & _MASK64
    return _mix64(state)


# numpy's SeedSequence hash (pool size 4), PCG64's seeding step and XSL-RR
# output, and Generator.laplace's rule, for :func:`children_laplace`;
# ``tests/test_core.py`` checks them against ``np.random.PCG64(key)`` and
# ``child(t)`` draws.  128-bit values are (hi, lo) pairs of uint64 arrays.
_SEED_BLOCK = 4096
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LIMBS = (np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64))
_LO32 = np.uint64(_MASK32)


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pair of each of ``count`` successive hash steps."""
    out, const = [], init
    for _ in range(count):
        out.append((const, const * mult & _MASK32))
        const = out[-1][1]
    return out


# 4 entropy words and 12 pool cross-mixes; then 8 output words.
_MIX_STEPS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_STEPS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash32(value: np.ndarray, step: tuple[int, int]) -> np.ndarray:
    value = (value ^ np.uint32(step[0])) * np.uint32(step[1])
    return value ^ (value >> np.uint32(16))


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a * b (mod 2^128); the high word of a_lo * b_lo comes from 32-bit halves."""
    s32 = np.uint64(32)
    a0, a1, b0, b1 = a_lo & _LO32, a_lo >> s32, b_lo & _LO32, b_lo >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & _LO32) + (p10 & _LO32)
    carry = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _pcg64_states(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``(state, inc)`` limbs ``(state_hi, state_lo, inc_hi, inc_lo)`` of
    ``np.random.PCG64(key)`` for each uint64 key.

    Each key's entropy is its two 32-bit words, zero-padded to the pool of 4
    (``SeedSequence`` hashes a missing word as 0), hashed for all keys at once
    in uint32 arrays; ``generate_state(4, uint64)`` gives the words w, and
    PCG64 sets ``inc = (w2:w3 << 1) | 1`` and ``state = (inc + w0:w1) * MULT
    + inc`` (mod 2^128).
    """
    one, s32 = np.uint64(1), np.uint64(32)
    steps = iter(_MIX_STEPS)
    zero = np.zeros(keys.shape, dtype=np.uint32)
    words = [keys.astype(np.uint32), (keys >> s32).astype(np.uint32), zero, zero]
    pool = [_hash32(w, next(steps)) for w in words]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * _hash32(
                    pool[src], next(steps))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = [_hash32(pool[i % 4], step).astype(np.uint64) for i, step in enumerate(_OUTPUT_STEPS)]
    w0, w1, w2, w3 = (out[2 * j] | (out[2 * j + 1] << s32) for j in range(4))
    inc = (w2 << one | w3 >> np.uint64(63), w3 << one | one)
    state = _add128(*_mul128(*_add128(*inc, w0, w1), *_MULT_LIMBS), *inc)
    return (*state, *inc)


def _pcg64_outputs(keys: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` outputs of ``np.random.PCG64(key).random_raw`` for
    each uint64 key, as a ``(keys, size)`` uint64 array.

    PCG64 steps s -> s * MULT + inc and then outputs; each step advances
    every key's state at once.  XSL-RR rotates hi ^ lo right by the top 6
    bits of the state.
    """
    s_hi, s_lo, i_hi, i_lo = _pcg64_states(keys)
    out = np.empty((len(keys), size), dtype=np.uint64)
    for j in range(size):
        s_hi, s_lo = _add128(*_mul128(s_hi, s_lo, *_MULT_LIMBS), i_hi, i_lo)
        value, rot = s_hi ^ s_lo, s_hi >> np.uint64(58)
        out[:, j] = value >> rot | value << ((np.uint64(64) - rot) & np.uint64(63))
    return out


class RngStream:
    """One independently seeded random stream, owned by a single consumer.

    Identical ``(seed, stream)`` pairs produce bit-identical draw sequences;
    distinct stream ids give statistically independent streams.  ``gen`` is a
    numpy ``Generator`` (PCG64) seeded with :func:`derive_stream_key`, made
    on first use: a stream that only derives children (an audit row's, or
    the parent of a ``children`` block) never seeds one.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.PCG64(derive_stream_key(self.seed, self.stream)))
        return self._gen

    def child(self, substream: int) -> "RngStream":
        """Derive an independent stream; the parent's key becomes the child seed."""
        return RngStream(derive_stream_key(self.seed, self.stream), substream)

    def children(self, count: int) -> "ChildStreams":
        """The streams ``child(0), ..., child(count - 1)``, as one block whose
        Laplace draws are computed in arrays (:class:`ChildStreams`)."""
        return ChildStreams(self, count)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class ChildStreams:
    """The streams ``parent.child(t)`` for t < ``count``.

    Iterating yields each ``child(t)`` in order.  :func:`children_laplace`
    returns the unit Laplace draws of several blocks as one array, bit for
    bit those of the streams.
    """

    __slots__ = ("parent", "count")

    def __init__(self, parent: RngStream, count: int):
        self.parent, self.count = parent, count

    def __iter__(self) -> Iterator[RngStream]:
        return (self.parent.child(t) for t in range(self.count))


# Draws that :func:`children_laplace` hands to :func:`_libm_log` at a time
# (whole rows).  4 096 to 8 192 were fastest on the audit's passes; a whole
# 36 000-value pass took a third longer, its step arrays outgrowing the cache.
_LOG_VALUES = 6144

# _libm_log's screen (docs/decisions.md, "An exact array log for the audit's
# Laplace draws").  y + z is within _LOG_ERROR |y| of the log (the bound
# proven there is 1.03 * 2^-62), and y is kept where the log is more than
# _LOG_MARGIN ulp from a rounding midpoint.  The margin assumes libm's log
# errs by less than 0.52 ulp, so that it returns y there too: glibc 2.36's
# e_log.c states 0.519 ulp, and its worst in a 10^7-value scan was 0.518.
_LOG_MARGIN = 0.02
_LOG_ERROR = 2.0**-61
# log1p(r) = r - r^2/2 + r^3 q(r): q's Taylor coefficients 1/9 ... 1/3,
# signed, highest degree first for Horner.
_LOG1P_Q = tuple((-1) ** (k + 1) / k for k in range(9, 2, -1))


@functools.cache
def _log_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hi, lo, scale)`` per index ``(exponent, top 8 mantissa bits)`` of
    an argument 2^e m, 2^-52 <= 2^e m <= 1 and 1 <= m < 2, for
    :func:`_libm_log`: hi + lo ~ e ln2 - ln c and scale = c 2^-e, where c ~
    1/m has 12 significant bits, and is 1 in the first bucket and 1/2 in
    the last.

    hi is on the 2^-43 grid, as the split of ln 2 that e ln2 uses, so it is
    exact; at m -> 2 with e = -1, hi and lo are both 0.  Built on first use,
    with ``decimal`` logs (about 10 ms)."""
    # Imported here, as only the audit's Laplace passes need it: an import
    # of the package does not pay for it.
    import decimal

    ctx = decimal.Context(prec=40)
    ln2, grid = ctx.ln(2), decimal.Decimal(2**43)

    def split(value):
        hi = int(ctx.to_integral_value(ctx.multiply(value, grid)))
        return hi, float(ctx.subtract(value, ctx.divide(hi, grid)))

    # 4096 c: 4096 over the middle of bucket i, 1 + (i + 1/2)/256, rounded.
    c4096 = np.array([4096] + [round(2**21 / (513 + 2 * i)) for i in range(1, 255)] + [2048])
    logs = [ctx.subtract(ctx.multiply(12, ln2), ctx.ln(int(c))) for c in c4096[1:-1]]
    t_hi, t_lo = map(np.array, zip(*map(split, [decimal.Decimal(0), *logs, ln2])))
    l_hi, l_lo = split(ln2)
    e = np.arange(-52, 1)[:, None]
    hi = np.ldexp((e * l_hi + t_hi).astype(float), -43)
    return hi.ravel(), (e * l_lo + t_lo).ravel(), np.ldexp(c4096 / 4096.0, -e).ravel()


def _dd_log(arg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log of each value of a 1-D float64 array in [2^-52, 1] as y + z,
    y = fl(y + z), within ``_LOG_ERROR`` |y| of the exact log.

    With arg = 2^e m and the table's c ~ 1/m, log arg = e ln2 - ln c +
    log1p(r), r = m c - 1 and |r| <= 2^-8.  arg's top 27 bits and the
    rest each give an exact product with c, so r + rl = m c - 1 exactly;
    log1p is a degree-9 Taylor polynomial, and hi + r is summed exactly
    (|hi| >= |r| or hi = 0 at every index).  The proof of the bound is in
    ``docs/decisions.md``."""
    hi_t, lo_t, scale_t = _log_table()
    bits = arg.view(np.int64)
    k = (bits >> 44) - (971 << 8)
    hi, lo, c = hi_t.take(k), lo_t.take(k), scale_t.take(k)
    top = (bits & np.int64(-1 << 26)).view(np.float64)
    p1, p2 = top * c - 1.0, (arg - top) * c
    r = p1 + p2
    rl = p2 - (r - p1)
    s = r * r
    q = _LOG1P_Q[0]
    for a in _LOG1P_Q[1:]:
        q = q * r + a
    y1 = hi + r
    w = ((lo + (rl - rl * r)) + (r - (y1 - hi)) + s * r * q) - s * 0.5
    y = y1 + w
    return y, w - (y - y1)


def _log_kept(y: np.ndarray, z: np.ndarray, margin: float = _LOG_MARGIN) -> np.ndarray:
    """Where :func:`_dd_log`'s y is provably libm's log: the exact log is
    more than ``margin`` ulp from a rounding midpoint, and y < 0."""
    # low = 2 to the exponent of y's predecessor toward 0, so that the
    # smaller gap beside y is 2^-52 low, and |y| < 2 low bounds the error
    # by 2 _LOG_ERROR low.
    low = ((y.view(np.int64) - 1) & np.int64(0x7FF << 52)).view(np.float64)
    keep = np.abs(z) < (2.0**-52 * (0.5 - margin) - 2.0 * _LOG_ERROR) * low
    return keep & (y < 0.0)


def _libm_log(arg: np.ndarray) -> np.ndarray:
    """``math.log`` of each value of a 1-D float64 array in [2^-52, 1], bit
    for bit: :func:`_dd_log`'s y where :func:`_log_kept`, ``math.log``
    (about 5 % of values) elsewhere, arg = 1 included."""
    y, z = _dd_log(arg)
    miss = np.flatnonzero(~_log_kept(y, z))
    y[miss] = np.fromiter(map(math.log, arg[miss].tolist()), float, len(miss))
    return y


def children_laplace(blocks: Sequence[ChildStreams], size: int) -> np.ndarray:
    """The unit Laplace draws of every stream of ``blocks``, block after
    block, ``[c.gen.laplace(0.0, 1.0, size) for b in blocks for c in b]``,
    as one ``(streams, size)`` array, bit for bit those of the streams.

    Every block's streams are seeded and stepped together, ``_SEED_BLOCK``
    at a time, and their raw outputs turned into draws about
    ``_LOG_VALUES`` values (whole rows) at a time.  Each draw follows
    numpy's ``random_laplace`` with loc 0 and scale 1: U = (raw >> 11)
    2^-53 gives ``0.0 - log(2.0 - U - U)`` for U >= 1/2 (+0.0 at U = 1/2)
    and ``0.0 + log(U + U)`` for 0 < U < 1/2, with libm's log bit for bit
    (:func:`_libm_log`; ``np.log`` differs in the last bit on some
    arguments).  numpy redraws U = 0 from the same stream, shifting the
    row's later draws, so such a row is drawn by its own ``child(t)``.
    A size-0 request draws, seeds and steps nothing.
    """
    counts = [b.count for b in blocks]
    bounds = [0, *accumulate(counts)]
    if size == 0:
        return np.empty((bounds[-1], 0))
    parents = np.repeat(np.array([derive_stream_key(b.parent.seed, b.parent.stream)
                                  for b in blocks], dtype=np.uint64), counts)
    index = np.arange(bounds[-1], dtype=np.uint64) - np.repeat(
        np.array(bounds[:-1], dtype=np.uint64), counts)
    out = np.empty((bounds[-1], size))
    rows = max(1, _LOG_VALUES // size)
    for lo in range(0, bounds[-1], _SEED_BLOCK):
        hi = min(lo + _SEED_BLOCK, bounds[-1])
        raw = _pcg64_outputs(derive_stream_key(parents[lo:hi], index[lo:hi]), size)
        for a in range(0, hi - lo, rows):
            u = (raw[a : a + rows] >> np.uint64(11)) * 2.0**-53
            upper, zero = u >= 0.5, u == 0.0
            arg = np.where(upper, 2.0 - u - u, np.where(zero, 1.0, u + u))
            log = _libm_log(arg.ravel()).reshape(arg.shape)
            out[lo + a : lo + a + len(u)] = np.where(upper, 0.0 - log, 0.0 + log)
            for row in lo + a + np.flatnonzero(zero.any(axis=1)):
                b = bisect_right(bounds, row) - 1
                out[row] = blocks[b].parent.child(row - bounds[b]).gen.laplace(0.0, 1.0, size)
    return out


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """An ordered sample matrix of shape (n, sample_dim)."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise InvalidInputError("dataset must be a nonempty (n, sample_dim) array")
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_dim(self) -> int:
        return self.samples.shape[1]


def hamming_distance(a: Dataset, b: Dataset) -> int:
    if a.n != b.n or a.sample_dim != b.sample_dim:
        raise InvalidInputError("datasets must have identical shape")
    return int(np.sum(np.any(a.samples != b.samples, axis=1)))


# ---------------------------------------------------------------------------
# Privacy budgets and growth certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) budget; delta = 0 denotes pure DP."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidInputError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise InvalidInputError(f"delta must lie in [0, 1), got {self.delta}")

    @property
    def is_pure(self) -> bool:
        return self.delta == 0.0


@dataclass(frozen=True)
class GrowthSpec:
    """Certified growth of an objective around its minimizer.

    ``lam`` and ``kappa`` describe the instance (f - f* >= (lam/kappa) * r^kappa).
    kappa = 1 is accepted as a degenerate sharp-growth certificate for
    verification only.  The adaptive algorithms take their lower estimate
    kappa_lower > 1 from the run's config, not from here.
    """

    lam: float
    kappa: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise InvalidInputError("growth constant must be positive")
        if not (self.kappa >= 1):
            raise InvalidInputError("growth exponent must be >= 1")


# ---------------------------------------------------------------------------
# Domains (intersections of Euclidean balls) and projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A Euclidean ball, optionally intersected with an enclosing Domain.

    The feasible set is the intersection of all balls along the parent chain.
    Callers are responsible for keeping that intersection nonempty (every
    construction in this package centers child balls at feasible points).
    """

    center: np.ndarray
    radius: float
    parent: "Domain | None" = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("domain center must be finite")
        if not (self.radius >= 0 and math.isfinite(self.radius)):
            raise InvalidInputError("domain radius must be finite and >= 0")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def balls(self) -> Iterator[tuple[np.ndarray, float]]:
        node: Domain | None = self
        while node is not None:
            yield node.center, node.radius
            node = node.parent

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return all(
            np.linalg.norm(x - c) <= r + tol for c, r in self.balls()
        )

    def diameter(self) -> float:
        """Upper bound 2 * min(radius) over the chain; exact for a single ball."""
        return 2.0 * min(r for _, r in self.balls())

    def interval(self) -> tuple[float, float]:
        """The feasible interval for one-dimensional domains."""
        if self.dim != 1:
            raise InvalidInputError("interval() requires a 1-D domain")
        lo = max(float(c[0]) - r for c, r in self.balls())
        hi = min(float(c[0]) + r for c, r in self.balls())
        return lo, hi


def _ball_project(x: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    diff = x - center
    dist = float(np.linalg.norm(diff))
    if dist <= radius:
        return x
    if dist == 0.0:
        return center.copy()
    return center + diff * (radius / dist)


DYKSTRA_DISPLACEMENT_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 200


def project(domain: Domain, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the domain's ball intersection.

    Single balls project radially in closed form.  Intersections run Dykstra
    alternating projections until the per-sweep displacement drops below
    ``DYKSTRA_DISPLACEMENT_TOL`` or ``DYKSTRA_MAX_SWEEPS`` is hit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("cannot project a non-finite point")
    balls = list(domain.balls())
    if len(balls) == 1:
        return _ball_project(x, *balls[0])
    if all(np.linalg.norm(x - c) <= r for c, r in balls):
        return x.copy()
    corrections = [np.zeros_like(x) for _ in balls]
    cur = x.copy()
    for _ in range(DYKSTRA_MAX_SWEEPS):
        prev = cur.copy()
        for i, (c, r) in enumerate(balls):
            shifted = cur + corrections[i]
            nxt = _ball_project(shifted, c, r)
            corrections[i] = shifted - nxt
            cur = nxt
        if np.linalg.norm(cur - prev) < DYKSTRA_DISPLACEMENT_TOL:
            break
    return cur


# ---------------------------------------------------------------------------
# Loss oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotropicQuadratic:
    """Solver hint: F(x; s) = 0.5 curvature ||x||^2 + lin_scale <s, x> (+ c(s))."""

    curvature: float
    lin_scale: float


@dataclass(frozen=True)
class PowerNorm:
    """Solver hint: F(x; s) = coef * ||x||^power + lin_scale * <s, x>."""

    coef: float
    power: float
    lin_scale: float


@dataclass(frozen=True)
class SeparableAbsolute:
    """Solver hint: F(x; s) = weight * sum_j |x_j - s_j|."""

    weight: float


class LossOracle:
    """A convex per-sample loss F(x; s), read through means over a batch of
    samples: the value, the min-norm subgradient (0 at a kink of |.|), and
    that subgradient at many points.  The noise calibration rests on
    ``lipschitz``: every one-sample ``batch_subgrad(x, s[None])`` has norm
    <= it on the domain of interest.  ``structure`` optionally exposes
    closed-form structure to the inner solver."""

    lipschitz: float = 1.0
    point_dim: int = 1
    structure: IsotropicQuadratic | PowerNorm | SeparableAbsolute | None = None

    def batch_value(self, x: np.ndarray, samples: np.ndarray) -> float:
        raise NotImplementedError

    def batch_subgrad(self, x: np.ndarray, samples: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mean_grads(self, points: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Mean subgradient field evaluated at many points, shape (m, d)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Probe-based verification of growth and gradient-domination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Largest observed violation of an inequality over sampled probes."""

    max_violation: float
    argmax: np.ndarray
    n_probes: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-7


def _uniform_in_ball(rng: RngStream, center: np.ndarray, radius: float, m: int) -> np.ndarray:
    d = center.shape[0]
    dirs = rng.gen.standard_normal((m, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.gen.random((m, 1)) ** (1.0 / d)
    return center[None, :] + dirs / norms * radii


def probe_points(
    domain: Domain,
    xstar: np.ndarray,
    n_probes: int,
    rng: RngStream | None = None,
    interior_shrink: float = 1.0,
) -> np.ndarray:
    """Probe mix: uniform draws, boundary points, and near-minimizer points.

    The domain must be a single ball, and ``n_probes`` at least 1.  With
    ``interior_shrink < 1`` all probes are pulled strictly inside it (used
    by the gradient-domination check, which is an interior statement for
    constrained problems).
    """
    if domain.parent is not None:
        raise InvalidInputError("probe points need a single-ball domain")
    if n_probes < 1:
        raise InvalidInputError(f"need at least one probe, got {n_probes}")
    if rng is None:
        rng = RngStream(0, 0)
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    c, r = domain.center, domain.radius * interior_shrink
    n_uniform = int(0.7 * n_probes)
    n_boundary = int(0.15 * n_probes)
    n_near = n_probes - n_uniform - n_boundary
    pts = [_uniform_in_ball(rng, c, r, n_uniform)]
    dirs = rng.gen.standard_normal((n_boundary, domain.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    pts.append(c[None, :] + r * dirs)
    scales = r * 10.0 ** rng.gen.uniform(-6, 0, size=(n_near, 1))
    dirs = rng.gen.standard_normal((n_near, domain.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    pts.append(xstar[None, :] + scales * dirs)
    out = np.vstack(pts)
    diff = out - c[None, :]
    dist = np.linalg.norm(diff, axis=1)
    outside = dist > r
    out[outside] = c[None, :] + diff[outside] * (r / dist[outside])[:, None]
    return out


def verify_growth(
    f: Callable[[np.ndarray], np.ndarray],
    xstar: np.ndarray,
    fstar: float,
    spec: GrowthSpec,
    probes: int,
    domain: Domain,
    rng: RngStream | None = None,
) -> ProbeReport:
    """Check f(x) - f* >= (lam/kappa) * ||x - x*||^kappa on sampled probes.

    ``f`` maps an (m, d) array of points to their m values.  Returns the
    largest value of the left-minus-right defect (the first probe attaining
    it); nonpositive (up to 1e-7) means the growth certificate holds on the
    probe set.
    """
    pts = probe_points(domain, xstar, probes, rng)
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    lhs = spec.lam / spec.kappa * np.linalg.norm(pts - xstar, axis=1) ** spec.kappa
    violation = lhs - (np.asarray(f(pts), dtype=float) - fstar)
    i = int(np.argmax(violation))
    return ProbeReport(float(violation[i]), pts[i], len(pts))


def verify_kl(
    f: Callable[[np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray], np.ndarray],
    xstar: np.ndarray,
    fstar: float,
    spec: GrowthSpec,
    probes: int,
    domain: Domain,
    rng: RngStream | None = None,
) -> ProbeReport:
    """Check the gradient-domination bound implied by growth on interior probes:

        f(x) - f* <= (e / lam^(1/(kappa-1))) * ||grad f(x)||^(kappa/(kappa-1)).

    ``f`` maps (m, d) points to (m,) values and ``grad`` to (m, d)
    gradients: the gradient where f is differentiable and the min-norm
    subgradient elsewhere.
    """
    if spec.kappa <= 1:
        raise InvalidInputError("gradient-domination check needs kappa > 1")
    pts = probe_points(domain, xstar, probes, rng, interior_shrink=0.98)
    expo = spec.kappa / (spec.kappa - 1.0)
    coef = math.e / spec.lam ** (1.0 / (spec.kappa - 1.0))
    gap = np.asarray(f(pts), dtype=float) - fstar
    bound = coef * np.linalg.norm(np.asarray(grad(pts), dtype=float), axis=1) ** expo
    violation = gap - bound
    i = int(np.argmax(violation))
    return ProbeReport(float(violation[i]), pts[i], len(pts))
