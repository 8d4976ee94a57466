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

__all__ = ["EpochConfig", "EpochRecord", "default_eta0", "epoch_count", "run", "run_trials"]

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
    radius R0 * 2^-i and step eta0 * 2^-i.  The inner chain receives the
    squared confidence parameter, matching the union bound over epochs.
    """

    kappa_lower: float
    beta: float
    privacy: PrivacyParams
    T: int
    R0: float
    eta0: float
    noise_scale: float = 1.0
    gaussian_conservative: bool = False

    def __post_init__(self):
        if not (self.kappa_lower > 1):
            raise InvalidInputError("kappa_lower must exceed 1")
        if not (0.0 < self.beta < 1.0):
            raise InvalidInputError("beta must lie in (0, 1)")
        if self.T < 1:
            raise InvalidInputError("T must be >= 1")
        if not (self.R0 > 0 and self.eta0 > 0):
            raise InvalidInputError("R0 and eta0 must be positive")

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
        n0 = n // T
        R0 = domain.diameter()
        eta0 = default_eta0(R0, loss.lipschitz, n0, beta, privacy, loss.point_dim)
        return cls(
            kappa_lower=kappa_lower,
            beta=beta,
            privacy=privacy,
            T=T,
            R0=R0,
            eta0=eta0,
            **kwargs,
        )


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch trace: trust region (center, radius) and the resulting iterate."""

    index: int
    center: np.ndarray
    radius: float
    eta: float
    x_next: np.ndarray
    frozen: bool = False


def _start(data: Dataset, domain: Domain, x0: np.ndarray, cfg: EpochConfig):
    """Check the run's inputs; return the epoch batch size, the inner phase
    count and the starting point as an array."""
    n0 = data.n // cfg.T
    if n0 < 2:
        raise InvalidInputError(
            f"insufficient data: n={data.n} gives per-epoch batches of {n0} < 2"
        )
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if not domain.contains(x, tol=localization._START_TOL):
        raise InvalidInputError("x0 must lie in the domain")
    inner_k = localization.LocalizationConfig.phase_count(n0)
    if n0 < inner_k:
        raise InvalidInputError("per-epoch batch smaller than its phase count")
    return n0, inner_k, x


def _epochs(cfg: EpochConfig, n0: int, inner_k: int):
    """Yield (index, radius, eta_i, inner config) per epoch: radius
    R0 2^-i and step eta0 2^-i; the inner config is None for a frozen epoch."""
    for i in range(cfg.T):
        radius = cfg.R0 * 2.0 ** (-i)
        eta_i = cfg.eta0 * 2.0 ** (-i)
        if radius < _FROZEN_RADIUS_FRACTION * cfg.R0:
            # Movement per epoch is bounded by the trust radius plus noise of
            # the same decay; at this scale the iterate is numerically fixed.
            yield i, radius, eta_i, None
            continue
        yield i, radius, eta_i, localization.LocalizationConfig(
            eta=eta_i,
            beta=cfg.beta**2,
            privacy=cfg.privacy,
            k=inner_k,
            n0=n0 // inner_k,
            noise_scale=cfg.noise_scale,
            gaussian_conservative=cfg.gaussian_conservative,
        )


def run(
    loss: LossOracle,
    data: Dataset,
    domain: Domain,
    x0: np.ndarray,
    cfg: EpochConfig,
    rng: RngStream,
    trace: Optional[list] = None,
    phase_trace: Optional[list] = None,
) -> np.ndarray:
    """Run T epochs and return the final iterate.

    Epoch i restricts to {x in domain : ||x - x_i|| <= R_i}, runs the
    localization chain on block i with step eta_i, and adopts its output.
    Disjoint blocks keep the total budget at the per-epoch (epsilon, delta).
    ``trace`` collects one ``EpochRecord`` per epoch; ``phase_trace`` collects
    the inner chains' ``PhaseRecord`` entries, epoch after epoch.  This is
    ``run_trials`` as one trial on ``rng``.
    """
    records, phases = ([] if t is not None else None for t in (trace, phase_trace))
    x = run_trials(loss, data, domain, x0, cfg, (rng,), records, phases)[0]
    for out, batch in ((trace, records), (phase_trace, phases)):
        if out is not None:
            out += localization._first_trial(batch)
    return x


def run_trials(
    loss: LossOracle,
    data: Dataset | Sequence[Dataset],
    domain: Domain,
    x0: np.ndarray,
    cfg: EpochConfig,
    streams: Iterable[RngStream],
    trace: Optional[list] = None,
    phase_trace: Optional[list] = None,
) -> np.ndarray:
    """Run the epoch loop once per stream, all trials at once, and return
    one output row per stream.

    The inputs are those of ``localization.run_trials``, whose phase kernel
    runs every epoch's chain; trial t's region in epoch i is the domain
    intersected with the ball of radius R_i around its own iterate.
    ``trace`` collects one ``EpochRecord`` per epoch, frozen ones included,
    whose ``center`` and ``x_next`` are ``(trials, d)`` arrays; ``phase_trace``
    collects the chains' ``PhaseRecord`` entries, epoch after epoch.
    """
    datasets, starts, (n0, inner_k, _) = localization._trial_inputs(
        loss, data, x0, lambda ds, x: _start(ds, domain, x, cfg)
    )
    L, d = loss.lipschitz, loss.point_dim
    epochs = [
        (i, radius, eta_i, inner_cfg,
         [] if inner_cfg is None else localization._schedule(inner_cfg, L, d))
        for i, radius, eta_i, inner_cfg in _epochs(cfg, n0, inner_k)
    ]
    counts = [localization._noise_count(schedule) for *_, schedule in epochs]
    z, x = localization._trial_noise(cfg.privacy, streams, sum(counts), d, datasets, starts)
    col = 0
    for (i, radius, eta_i, inner_cfg, schedule), count in zip(epochs, counts):
        x_next = x
        if inner_cfg is not None:
            block = np.stack([ds.samples[i * n0 : (i + 1) * n0] for ds in datasets])
            x_next = localization._chain_trials(
                loss, block, inner_cfg, schedule, x, domain, z[:, col : col + count], (x, radius),
                phase_trace,
            )
        if trace is not None:
            trace.append(EpochRecord(i, x, radius, eta_i, x_next, frozen=inner_cfg is None))
        x = x_next
        col += count
    return x


def indices_in_region(trace: list, xstar: np.ndarray) -> list[int]:
    """Each trial's largest epoch index whose trust region contains
    ``xstar`` (-1 if none): one entry for a ``run`` trace, one per center
    row of a ``run_trials`` trace.  Each distance is the one
    ``np.linalg.norm`` gives, bit for bit."""
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    best = np.full(1, -1)
    for rec in trace:
        dist = erm._row_norms(xstar - np.reshape(rec.center, (-1, xstar.size)))
        best = np.where(dist <= rec.radius, rec.index, best)
    return [int(i) for i in best]
