"""Noise primitives and calibration: Laplace and Gaussian scales, the
per-phase noise scale, noise draw and step-size privacy term of the phase
chains, and an empirical neighboring-dataset distinguishability test (a
falsifier, not a certifier).

This module is the one place where a budget decides between pure DP (iid
Laplace noise) and approximate DP (isotropic Gaussian noise)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .core import (
    ChildStreams,
    Dataset,
    InvalidInputError,
    PrivacyParams,
    RngStream,
    children_laplace,
    hamming_distance,
)

__all__ = [
    "MAX_APPROX_DELTA",
    "laplace_sigma",
    "gaussian_sigma",
    "check_budget",
    "check_noise_scale",
    "noise_norm_factor",
    "noise_sigma",
    "noise_draw",
    "noise_rows",
    "DpTestReport",
    "check_dp_test",
    "empirical_dp_test",
    "histogram_test",
]

# Approximate-DP budgets with delta this large make noise_norm_factor's
# log(1/delta) degenerate (-> 0); they are rejected rather than silently accepted.
MAX_APPROX_DELTA = 0.5

MIN_BIN_COUNT = 50


def laplace_sigma(l1_sensitivity: float, epsilon: float) -> float:
    """Laplace scale for a statistic with the given l1 sensitivity: sigma = Delta / epsilon."""
    if not np.all(l1_sensitivity > 0):
        raise InvalidInputError("l1 sensitivity must be positive")
    if not (epsilon > 0):
        raise InvalidInputError("epsilon must be positive")
    return l1_sensitivity / epsilon


def _gaussian_delta(epsilon: float, s: float) -> float:
    """Balle & Wang's (2018, Theorem 8) exact delta(epsilon) of Gaussian noise
    of s standard deviations per unit of l2 sensitivity, Phi(1/(2s) - eps s)
    - e^eps Phi(-1/(2s) - eps s), plus 2^-40 of the two terms' sum to cover
    their rounding.  e^eps Phi(-y) is taken as exp(eps + log Phi(-y)), and
    dropped where erfc leaves the normal range: that only overstates delta."""
    a, y = 0.5 / s - epsilon * s, 0.5 / s + epsilon * s
    first, tail = 0.5 * math.erfc(-a / math.sqrt(2.0)), math.erfc(y / math.sqrt(2.0))
    second = math.exp(epsilon + math.log(0.5 * tail)) if tail >= 2.0**-1022 else 0.0
    return first - second + 2.0**-40 * (first + second)


@functools.cache
def _gaussian_scale(epsilon: float, delta: float) -> float:
    """The least s with ``_gaussian_delta(epsilon, s) <= delta``, by
    bisection of a doubling bracket until its ends are adjacent floats."""
    lo, hi = 0.0, 1.0
    while _gaussian_delta(epsilon, hi) > delta:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if _gaussian_delta(epsilon, mid) <= delta else (mid, hi)
    return hi


def gaussian_sigma(l2_sensitivity: float, epsilon: float, delta: float) -> float:
    """The least Gaussian standard deviation sigma = Delta s whose exact
    privacy curve meets (epsilon, delta) at l2 sensitivity Delta, a float or
    an array of them (``_gaussian_scale``, computed once per budget)."""
    if not np.all(l2_sensitivity > 0):
        raise InvalidInputError("l2 sensitivity must be positive")
    if not (epsilon > 0):
        raise InvalidInputError("epsilon must be positive")
    if not (0.0 < delta < 1.0):
        raise InvalidInputError(f"delta must lie in (0, 1), got {delta}")
    return l2_sensitivity * _gaussian_scale(epsilon, delta)


def check_budget(privacy: PrivacyParams) -> None:
    """Reject approximate budgets with delta above ``MAX_APPROX_DELTA``."""
    if privacy.delta > MAX_APPROX_DELTA:
        raise InvalidInputError(
            f"approximate mode needs delta <= {MAX_APPROX_DELTA}, got {privacy.delta}"
        )


def check_noise_scale(scale: float) -> None:
    """Reject a noise multiplier that is NaN, infinite or negative."""
    if not (0.0 <= scale < math.inf):
        raise InvalidInputError(f"noise_scale must be finite and >= 0, got {scale}")


def noise_norm_factor(privacy: PrivacyParams, d: int) -> float:
    """Growth factor D of the noise norm in d dimensions, which sets the
    privacy term epsilon / (D log(1/beta)) of the step sizes:
    D = d for Laplace noise, sqrt(d log(1/delta)) for Gaussian noise."""
    check_budget(privacy)
    if privacy.is_pure:
        return d
    return math.sqrt(d * math.log(1.0 / privacy.delta))


def noise_sigma(l2_sensitivity: float, d: int, privacy: PrivacyParams) -> float:
    """Per-coordinate noise scale for a d-dimensional statistic with the
    given l2 sensitivity Delta, a float or an array of them: Laplace noise
    calibrated to the l1 bound Delta sqrt(d) for pure budgets, and
    ``gaussian_sigma`` for approximate ones."""
    if privacy.is_pure:
        return laplace_sigma(l2_sensitivity * math.sqrt(d), privacy.epsilon)
    return gaussian_sigma(l2_sensitivity, privacy.epsilon, privacy.delta)


def noise_draw(privacy: PrivacyParams, rng: RngStream) -> Callable[..., np.ndarray]:
    """The sampler ``draw(0.0, sigma, size=None)`` of the budget's noise on
    ``rng``: iid Laplace(sigma) for pure budgets, mean-zero Gaussian with
    standard deviation sigma otherwise."""
    return rng.gen.laplace if privacy.is_pure else rng.gen.normal


def noise_rows(requests: Sequence[tuple]) -> list[np.ndarray]:
    """Per request ``(privacy, streams, size)``: the budget's unit-scale
    noise, ``draw(0.0, 1.0, size)`` of :func:`noise_draw` on each stream, as
    a ``(streams, size)`` array.

    The pure-budget requests on blocks of child streams
    (``RngStream.children``) of one size take one pass of the blocks' array
    Laplace draws (``core.children_laplace``), each within one ulp of the
    stream's own; every other request draws stream by stream.  A request
    of size 0 seeds no stream's generator."""
    out: list = [None] * len(requests)
    passes: dict = {}
    for i, (privacy, streams, size) in enumerate(requests):
        if privacy.is_pure and isinstance(streams, ChildStreams):
            passes.setdefault(size, []).append(i)
        else:
            rows = [noise_draw(privacy, s)(0.0, 1.0, size=size) if size else () for s in streams]
            out[i] = np.array(rows).reshape(len(rows), size)
    for size, chosen in passes.items():
        rows = children_laplace([requests[i][1] for i in chosen], size)
        bounds = [0, *accumulate(requests[i][1].count for i in chosen)]
        for i, a, b in zip(chosen, bounds, bounds[1:]):
            out[i] = rows[a:b]
    return out


@dataclass(frozen=True)
class DpTestReport:
    """Outcome of the histogram-ratio distinguishability test.

    ``passed`` means no violation was detected; it never certifies privacy.
    ``inconclusive`` flags runs where too few bins collected enough mass for
    the ratio statistic to mean anything.
    """

    max_log_ratio: float
    epsilon: float
    slack: float
    passed: bool
    inconclusive: bool
    n_qualifying_bins: int
    min_bin_count: int


def check_dp_test(epsilon: float, trials: int, bins: int) -> None:
    """Reject a histogram test's inputs outside its contract."""
    if not (epsilon > 0) or trials < 1 or bins < 2:
        raise InvalidInputError("need epsilon > 0, trials >= 1, bins >= 2")


def empirical_dp_test(
    mechanism: Callable[[Dataset, RngStream, int], np.ndarray],
    data: Dataset,
    data_neighbor: Dataset,
    epsilon: float,
    trials: int,
    bins: int,
    rng: RngStream,
) -> DpTestReport:
    """Run ``mechanism`` on two neighboring datasets and compare output
    histograms with :func:`histogram_test`.

    ``mechanism(dataset, rng, trials)`` must return ``trials`` scalar
    outputs; it runs on ``rng.child(0)`` for ``data`` and on
    ``rng.child(1)`` for ``data_neighbor``.
    """
    check_dp_test(epsilon, trials, bins)
    if hamming_distance(data, data_neighbor) != 1:
        raise InvalidInputError("datasets must differ in exactly one sample")
    out_a = np.asarray(mechanism(data, rng.child(0), trials), dtype=float).ravel()
    out_b = np.asarray(mechanism(data_neighbor, rng.child(1), trials), dtype=float).ravel()
    if out_a.shape != (trials,) or out_b.shape != (trials,):
        raise InvalidInputError("mechanism must return `trials` scalar outputs")
    return histogram_test(out_a, out_b, epsilon, bins)


def histogram_test(out_a: np.ndarray, out_b: np.ndarray, epsilon: float,
                   bins: int) -> DpTestReport:
    """Compare the histograms of a mechanism's outputs on two neighboring
    datasets, ``trials`` scalars each.

    Both output sets are binned over their joint range, and the statistic is
    the largest absolute log-ratio of bin frequencies over bins holding at
    least ``MIN_BIN_COUNT`` samples under both datasets.  The pass threshold is
    ``epsilon + slack`` with slack = 3 / sqrt(min qualifying bin count), a
    Monte Carlo allowance.  The test can expose a violation; it cannot prove
    privacy.
    """
    trials = len(out_a)
    lo = float(min(out_a.min(), out_b.min()))
    hi = float(max(out_a.max(), out_b.max()))
    if hi <= lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, bins + 1)
    count_a, _ = np.histogram(out_a, bins=edges)
    count_b, _ = np.histogram(out_b, bins=edges)
    qualifying = (count_a >= MIN_BIN_COUNT) & (count_b >= MIN_BIN_COUNT)
    n_qual = int(qualifying.sum())
    if n_qual == 0:
        return DpTestReport(
            max_log_ratio=math.nan,
            epsilon=epsilon,
            slack=math.inf,
            passed=True,
            inconclusive=True,
            n_qualifying_bins=0,
            min_bin_count=0,
        )
    pa = count_a[qualifying] / trials
    pb = count_b[qualifying] / trials
    max_log_ratio = float(np.max(np.abs(np.log(pa) - np.log(pb))))
    min_bin = int(min(count_a[qualifying].min(), count_b[qualifying].min()))
    slack = 3.0 / math.sqrt(min_bin)
    return DpTestReport(
        max_log_ratio=max_log_ratio,
        epsilon=epsilon,
        slack=slack,
        passed=max_log_ratio <= epsilon + slack,
        inconclusive=False,
        n_qualifying_bins=n_qual,
        min_bin_count=min_bin,
    )
