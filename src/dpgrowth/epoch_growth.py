"""Epoch-based outer loop for growth adaptation: halve the trust radius and
base step size every epoch and delegate each epoch to the localization chain
on a fresh disjoint data block.  Only a lower estimate of the growth exponent
enters, through the epoch count."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import erm, localization, mechanisms
from .core import (
    Dataset,
    Domain,
    InvalidInputError,
    LossOracle,
    PrivacyParams,
    RngStream,
)

__all__ = ["EpochConfig", "EpochRecord", "default_eta0", "epoch_count", "run"]

# Epochs whose radius has decayed below this fraction of the initial radius
# cannot move the iterate at double precision; they are recorded as frozen.
_FROZEN_RADIUS_FRACTION = 1e-15


def epoch_count(n: int, kappa_lower: float) -> int:
    """T = ceil(2 log2(n) / (kappa_lower - 1))."""
    if not (kappa_lower > 1):
        raise InvalidInputError("kappa_lower must exceed 1")
    if n < 2:
        raise InvalidInputError("need n >= 2")
    return max(1, math.ceil(2.0 * math.log2(n) / (kappa_lower - 1.0)))


def default_eta0(
    R0: float, L: float, n0: int, beta: float, privacy: PrivacyParams, d: int
) -> float:
    """Initial epoch step size
    (R0 / 2L) * min(1/sqrt(n0 log(n0) log(1/beta)), eps/(D log(1/beta))),
    with the noise-norm factor D of ``mechanisms.noise_norm_factor``
    (d for pure budgets, sqrt(d log(1/delta)) for approximate ones).
    """
    if n0 < 2:
        raise InvalidInputError(f"per-epoch batch too small (n0={n0}); reduce the epoch count")
    if not (R0 > 0 and L > 0 and d >= 1):
        raise InvalidInputError("R0, L, d must be positive")
    if not (0.0 < beta < 1.0):
        raise InvalidInputError("beta must lie in (0, 1)")
    D = mechanisms.noise_norm_factor(privacy, d)
    log_b = math.log(1.0 / beta)
    stat = 1.0 / math.sqrt(n0 * math.log(n0) * log_b)
    return (R0 / (2.0 * L)) * min(stat, privacy.epsilon / (D * log_b))


@dataclass(frozen=True)
class EpochConfig:
    """Outer-loop parameters.

    ``T`` epochs consume disjoint blocks of size floor(n/T); epoch i uses
    radius R0 * 2^-i and step eta0 * 2^-i.  The confidence beta enters only
    through eta0 (``default_eta0``).  ``_chains`` tabulates this schedule.
    """

    privacy: PrivacyParams
    T: int
    R0: float
    eta0: float
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.T < 1:
            raise InvalidInputError("T must be >= 1")
        if not (self.R0 > 0 and self.eta0 > 0):
            raise InvalidInputError("R0 and eta0 must be positive")
        mechanisms.check_noise_scale(self.noise_scale)

    @classmethod
    def for_run(
        cls,
        n: int,
        loss: LossOracle,
        domain: Domain,
        kappa_lower: float,
        beta: float,
        privacy: PrivacyParams,
        **kwargs,
    ) -> "EpochConfig":
        """Build the config with the schedule implied by (n, kappa_lower)."""
        T = epoch_count(n, kappa_lower)
        R0 = domain.diameter()
        eta0 = default_eta0(R0, loss.lipschitz, _block_size(n, T), beta, privacy, loss.point_dim)
        return cls(privacy=privacy, T=T, R0=R0, eta0=eta0, **kwargs)


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch trace: trust region (center, radius) and the resulting iterate."""

    index: int
    center: np.ndarray
    radius: float
    eta: float
    x_next: np.ndarray
    frozen: bool = False


def _block_size(n: int, T: int) -> int:
    """Samples per epoch: T disjoint blocks of floor(n/T)."""
    return n // T


def _chains(cfg: EpochConfig, n: int, L: float, d: int) -> tuple:
    """The ``localization._run_chains`` chains of a run on n samples, one
    per epoch i < T: the offset i n0 of its block of n0 = ``_block_size(n,
    T)`` samples, its radius R0 2^-i, and the inner config
    ``LocalizationConfig.for_data_size(n0, ...)``'s n0; and one
    ``localization._table`` of that config whose row i is epoch i's phases
    at step eta0 2^-i (the epochs' configs differ in their steps alone), with
    rows up to the first frozen epoch.  An epoch whose radius is below
    ``_FROZEN_RADIUS_FRACTION`` R0 is frozen: movement per epoch is bounded
    by the trust radius plus noise of the same decay, so below this radius
    the iterate is numerically fixed."""
    n0 = _block_size(n, cfg.T)
    halvings = np.ldexp(1.0, -np.arange(cfg.T))
    radii = cfg.R0 * halvings
    live = np.count_nonzero(radii >= _FROZEN_RADIUS_FRACTION * cfg.R0)
    inner = localization.LocalizationConfig.for_data_size(
        n0, cfg.eta0, cfg.privacy, noise_scale=cfg.noise_scale)
    table = localization._table(inner, L, d, cfg.eta0 * halvings[:live])
    return range(0, cfg.T * n0, n0), radii.tolist(), inner.n0, table


def _group(loss: LossOracle, data, domain: Domain, x0, cfg: EpochConfig,
           streams: Iterable[RngStream]) -> tuple:
    """The ``localization._run_chains`` group of a ``run`` call: its
    checked samples and starts, and the epochs of ``_chains``."""
    # Each block needs the 2 samples that ``default_eta0`` asks of it.
    samples, starts = localization._trial_inputs(loss, data, domain, x0, 2 * cfg.T)
    chains = _chains(cfg, len(samples[0]), loss.lipschitz, loss.point_dim)
    return samples, starts, cfg.privacy, streams, chains


def _records(cfg: EpochConfig, chains: tuple, xs: list) -> list:
    """One ``EpochRecord`` per epoch of a run with ``_chains`` chains whose
    iterates before the first epoch and after each epoch are ``xs``."""
    _, radii, _, table = chains
    return [EpochRecord(i, xs[i], radius, cfg.eta0 * 2.0 ** (-i), xs[i + 1],
                        frozen=i >= len(table)) for i, radius in enumerate(radii)]


def run(
    loss: LossOracle,
    data: Dataset | Sequence[Dataset],
    domain: Domain,
    x0: np.ndarray,
    cfg: EpochConfig,
    streams: Iterable[RngStream],
    trace: Optional[list] = None,
    phase_trace: Optional[list] = None,
) -> np.ndarray:
    """Run T epochs once per stream, all trials at once, and return one
    final iterate per stream, as the rows of a ``(trials, d)`` array.

    Epoch i restricts to {x in domain : ||x - x_i|| <= R_i}, runs the
    localization chain on block i with step eta_i, and adopts its output.
    Disjoint blocks keep the total budget at the per-epoch (epsilon, delta).

    The inputs are those of ``localization.run``.  The epochs of
    ``_chains`` run as the chains of one ``localization._run_chains``
    group; trial t's region in epoch i is the domain intersected with the
    ball of radius R_i around its own iterate.  ``trace`` collects one
    ``EpochRecord`` per epoch, frozen ones included, whose ``center`` and
    ``x_next`` are ``(trials, d)`` arrays; ``phase_trace`` collects the
    chains' ``PhaseRecord`` entries, epoch after epoch.
    """
    group = _group(loss, data, domain, x0, cfg, streams)
    (xs,) = localization._run_chains(loss, domain, [group], phase_trace)
    if trace is not None:
        trace += _records(cfg, group[4], xs)
    return xs[-1]


def indices_in_region(trace: list, xstar: np.ndarray) -> list[int]:
    """Each trial's largest epoch index whose trust region contains
    ``xstar`` (-1 if none): one entry per center row of a ``run`` trace
    (a 1-D center is one row), and ``[-1]`` for an empty trace.  The whole
    trace's distances are taken in one ``erm._row_norms`` pass, each the
    one ``np.linalg.norm`` gives its row, bit for bit."""
    if not trace:
        return [-1]
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    centers = np.array([np.reshape(rec.center, (-1, xstar.size)) for rec in trace])
    dist = erm._row_norms(xstar - centers.reshape(-1, xstar.size)).reshape(len(trace), -1)
    inside = dist <= np.array([rec.radius for rec in trace])[:, None]
    last = len(trace) - 1 - np.argmax(inside[::-1], axis=0)
    index = np.array([rec.index for rec in trace])
    return np.where(inside.any(axis=0), index[last], -1).tolist()
