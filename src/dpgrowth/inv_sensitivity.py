"""Smoothed gradient-based exponential sampler on a 1-D lattice: score each
lattice point by the windowed infimum of the mean-gradient norm,
exponentiate, normalize, and sample by inverse CDF.  The discrete
realization keeps the per-point score sensitivity of the continuous design;
the lattice spacing is tied to the smoothing radius."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    Domain,
    GrowthSpec,
    InvalidInputError,
    LossOracle,
    ResourceError,
    RngStream,
)

__all__ = [
    "GridDensity",
    "default_rho",
    "grid_parameters",
    "build_density",
    "sample",
    "excess_risk_bound",
]

MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class GridDensity:
    """Normalized sampling density over a lattice covering the domain."""

    points: np.ndarray  # (G, 1)
    log_weights: np.ndarray  # raw scores: -eps * n * G_rho / (2 L)
    log_probs: np.ndarray  # normalized
    spacing: float
    rho: float
    probabilities: np.ndarray = field(init=False, repr=False)  # exp(log_probs)

    def __post_init__(self):
        probs = np.exp(self.log_probs)
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise InvalidInputError(f"density normalization off by {total - 1.0:g}")
        if not (self.spacing <= self.rho / 4.0 + 1e-15):
            raise InvalidInputError("grid spacing must satisfy h <= rho / 4")
        object.__setattr__(self, "probabilities", probs)


def default_rho(
    L: float, lam: float, kappa_lower: float, n: int, d: int, epsilon: float
) -> float:
    """Smoothing radius (L/lam)^(1/(k-1)) * (d/(n eps))^(k/(k-1)) for k = kappa_lower."""
    if not (kappa_lower > 1):
        raise InvalidInputError("kappa_lower must exceed 1")
    inv = 1.0 / (kappa_lower - 1.0)
    return (L / lam) ** inv * (d / (n * epsilon)) ** (kappa_lower * inv)


def grid_parameters(loss: LossOracle, n: int, domain: Domain, epsilon: float,
                    rho: float | None = None, h: float | None = None,
                    growth: GrowthSpec | None = None) -> tuple[float, float]:
    """Check the sampler's inputs for n samples and return its smoothing
    radius and lattice spacing ``(rho, h)``.

    ``rho`` defaults to the growth-adapted smoothing radius when a growth
    certificate is supplied.  ``h`` defaults to rho/4 and must not exceed it.
    A lattice of more than ``MAX_GRID_POINTS`` points raises ``ResourceError``.
    """
    if domain.dim != 1:
        raise InvalidInputError(f"the grid sampler needs d = 1, got d = {domain.dim}")
    if not (0 < epsilon < math.inf):
        raise InvalidInputError(f"epsilon must be finite and positive, got {epsilon}")
    if rho is None:
        if growth is None:
            raise InvalidInputError("supply rho or a growth certificate")
        rho = default_rho(loss.lipschitz, growth.lam, growth.kappa, n, 1, epsilon)
    if not (0 < rho < math.inf):
        raise InvalidInputError(f"rho must be finite and positive, got {rho}")
    if h is None:
        h = rho / 4.0
    if not (0 < h <= rho / 4.0 + 1e-15):
        raise InvalidInputError(f"grid spacing must satisfy 0 < h <= rho / 4, got h = {h}")
    lo, hi = domain.interval()
    if not (hi - lo) / h < MAX_GRID_POINTS:
        raise ResourceError(f"grid spacing {h!r} puts more than {MAX_GRID_POINTS} points on "
                            f"[{lo!r}, {hi!r}]; use a coarser spacing")
    return rho, h


def _grid_1d(domain: Domain, h: float) -> np.ndarray:
    lo, hi = domain.interval()
    points = lo + h * np.arange(int(math.floor((hi - lo) / h)) + 1)
    # A rounded (hi - lo) / h can count one too many; lo + h k is
    # nondecreasing in k, so the points <= hi are a prefix.
    return points[: np.count_nonzero(points <= hi), None]


def _logsumexp(a: np.ndarray) -> float:
    """``scipy.special.logsumexp`` of a real 1-D array, bit for bit: scipy
    1.17.1's steps, and its fallback log(sum(exp(a))) where they give a
    non-finite result.  Its "s / m unless s == 0" is s / m here, the same
    value, since s == 0 implies m >= 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=0, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, axis=0, keepdims=True, dtype=a.dtype)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=0, keepdims=True) / m
        out = float((np.log1p(s) + np.log(m) + a_max)[0])
        return out if math.isfinite(out) else float(np.log(np.sum(np.exp(a))))


def _window_min(values: np.ndarray, w: int) -> np.ndarray:
    """``scipy.ndimage.minimum_filter1d(values, 2 * w + 1, mode="nearest")``
    exactly on a line without -0.0 (the scores are norms), as min is exact:
    the line padded with w copies of each edge value, then minima over spans
    that double while they fit in the window (entry i covers i .. i + span
    - 1), and one ``np.minimum`` of the two spans that start and end it."""
    padded = np.concatenate((np.full(w, values[0]), values, np.full(w, values[-1])))
    width, span = 2 * w + 1, 1
    while 2 * span <= width:
        padded = np.minimum(padded[:-span], padded[span:])
        span *= 2
    return np.minimum(padded[: len(values)], padded[width - span : width - span + len(values)])


def _refined_norms_1d(loss: LossOracle, data: Dataset, points: np.ndarray) -> np.ndarray:
    """Gradient-norm lower envelope on an ordered 1-D grid.

    The batch objective is convex, so a sign change of its mean gradient
    between adjacent grid points brackets a stationary point where the
    min-norm subgradient vanishes; both endpoints of such a segment are
    scored zero.  This keeps atoms of absolute losses visible even when the
    empirical minimizer falls between lattice points (error <= one spacing,
    inside the smoothing-radius slack).
    """
    g = loss.mean_grads(points, data.samples)[:, 0]
    norms = np.abs(g)
    crossing = g[:-1] * g[1:] <= 0.0
    norms[:-1] = np.where(crossing, 0.0, norms[:-1])
    norms[1:] = np.where(crossing, 0.0, norms[1:])
    return norms


def build_density(loss: LossOracle, data: Dataset, domain: Domain, epsilon: float,
                  rho: float | None = None, h: float | None = None,
                  growth: GrowthSpec | None = None) -> GridDensity:
    """Score every lattice point and normalize, with ``rho`` and ``h`` as
    ``grid_parameters`` checks and resolves them."""
    rho, h = grid_parameters(loss, data.n, domain, epsilon, rho, h, growth)
    points = _grid_1d(domain, h)
    norms = _refined_norms_1d(loss, data, points)
    smoothed = _window_min(norms, int(math.floor(rho / h + 1e-9)))
    log_weights = -epsilon * data.n * smoothed / (2.0 * loss.lipschitz)
    log_probs = log_weights - _logsumexp(log_weights)
    # Renormalize away the last float ulps so probabilities sum to one exactly
    # enough for inverse-CDF sampling.
    log_probs = log_probs - math.log(float(np.exp(log_probs).sum()))
    return GridDensity(
        points=points,
        log_weights=log_weights,
        log_probs=log_probs,
        spacing=h,
        rho=rho,
    )


def sample(density: GridDensity, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Inverse-CDF draws from the grid density, of shape (1,) when ``size``
    is None, else (size, 1).  Draw u's index #{cdf <= u} lies between the
    counts #{cdf < edge} at the edges of its bucket of a guide table of
    2^m buckets, about size / 8, and is searched only where they differ
    (docs/decisions.md, "Guide-table draws for the grid sampler")."""
    cdf = np.cumsum(density.probabilities)
    cdf[-1] = 1.0
    u = rng.gen.random(1 if size is None else size)
    buckets = 1 << max((len(u) // 8).bit_length() - 1, 0)
    counts = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="left")
    idx = np.where(counts[:-1] == counts[1:], counts[:-1], -1)[(u * buckets).astype(np.intp)]
    split = np.flatnonzero(idx < 0)
    idx[split] = np.searchsorted(cdf, u[split], side="right")
    picked = density.points[idx]
    return picked[0] if size is None else picked


def excess_risk_bound(
    L: float,
    n: int,
    epsilon: float,
    beta: float,
    d: int,
    R: float,
    rho: float,
    growth: GrowthSpec,
) -> float:
    """High-probability empirical excess-risk bound for the sampler:

        (1/lam^(1/(k-1))) * (2 L K / (n eps))^(k/(k-1)) + L rho,
        K = log(1/beta) + d log(1 + R/rho),

    with k the certified growth exponent.
    """
    if not (0 < beta < 1):
        raise InvalidInputError("beta must lie in (0, 1)")
    if not (rho > 0 and R > 0 and L > 0 and n >= 1 and epsilon > 0):
        raise InvalidInputError("L, n, epsilon, R, rho must be positive")
    if not (growth.kappa > 1):
        raise InvalidInputError("the bound needs kappa > 1")
    kappa = growth.kappa
    K = math.log(1.0 / beta) + d * math.log1p(R / rho)
    main = (2.0 * L * K / (n * epsilon)) ** (kappa / (kappa - 1.0))
    return main / growth.lam ** (1.0 / (kappa - 1.0)) + L * rho
