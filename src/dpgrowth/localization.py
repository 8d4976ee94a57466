"""Localization-based private SCO: solve a chain of anchored regularized ERM
problems over geometrically shrinking trust regions, adding calibrated noise
to each solution.  Disjoint per-phase batches make the whole run private at
the per-phase budget."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import erm, mechanisms
from .core import (
    Dataset,
    Domain,
    InvalidInputError,
    IsotropicQuadratic,
    LossOracle,
    PrivacyParams,
    RngStream,
)

__all__ = [
    "LocalizationConfig",
    "PhaseRecord",
    "default_eta",
    "run",
    "run_trials",
]

# Absolute floor keeping solver tolerances meaningful in double precision.
_TOL_FLOOR_FACTOR = 1e-13

# Iteration budget of each phase's generic solve.
MAX_SOLVER_ITERS = 200_000


def default_eta(
    R: float, L: float, n: int, beta: float, privacy: PrivacyParams, d: int
) -> float:
    """Base step size (R/L) * min(1/sqrt(n log(1/beta)), epsilon/(D log(1/beta))),
    with the noise-norm factor D of ``mechanisms.noise_norm_factor``
    (d for pure budgets, sqrt(d log(1/delta)) for approximate ones)."""
    if not (R > 0 and L > 0 and n >= 1 and d >= 1):
        raise InvalidInputError("R, L, n, d must be positive")
    # The high-probability analysis needs a small confidence parameter; 1/n is
    # the binding condition of the stability bound behind it.
    if not (0.0 < beta <= 1.0 / n):
        raise InvalidInputError(f"beta must lie in (0, 1/n], got {beta}")
    D = mechanisms.noise_norm_factor(privacy, d)
    log_b = math.log(1.0 / beta)
    return (R / L) * min(1.0 / math.sqrt(n * log_b), privacy.epsilon / (D * log_b))


@dataclass(frozen=True)
class LocalizationConfig:
    """Run parameters: base step eta, confidence beta, privacy budget, the
    phase count k = ceil(log2 n) and per-phase batch size n0 = floor(n/k).

    ``noise_scale`` rescales every injected noise draw; it exists for the
    privacy falsifier (sabotage) and for noiseless oracle runs, and must be
    1.0 for any run whose privacy claim matters.  ``gaussian_conservative``
    switches the approximate-DP noise to the conservative calibration
    2 * (4 L eta_i) * log(2/delta) / epsilon.
    """

    eta: float
    beta: float
    privacy: PrivacyParams
    k: int
    n0: int
    noise_scale: float = 1.0
    gaussian_conservative: bool = False

    def __post_init__(self):
        if not (self.eta > 0):
            raise InvalidInputError("eta must be positive")
        if not (0.0 < self.beta < 1.0):
            raise InvalidInputError("beta must lie in (0, 1)")
        if self.k < 1 or self.n0 < 1:
            raise InvalidInputError("k and n0 must be >= 1")
        if self.noise_scale < 0:
            raise InvalidInputError("noise_scale must be >= 0")
        mechanisms.check_budget(self.privacy)

    @staticmethod
    def phase_count(n: int) -> int:
        return max(1, math.ceil(math.log2(n)))

    @classmethod
    def for_data_size(
        cls,
        n: int,
        eta: float,
        beta: float,
        privacy: PrivacyParams,
        **kwargs,
    ) -> "LocalizationConfig":
        k = cls.phase_count(n)
        return cls(eta=eta, beta=beta, privacy=privacy, k=k, n0=n // k, **kwargs)


@dataclass(frozen=True)
class PhaseRecord:
    """Per-phase trace entry (solver output before and after noising)."""

    index: int
    eta_i: float
    radius: float
    sigma: float
    x_solved: np.ndarray
    x_noised: np.ndarray


def _schedule(cfg: LocalizationConfig, L: float, d: int) -> list[tuple]:
    """The k phases of a run as tuples (i, eta_i, radius, reg_weight,
    sensitivity, sigma, sigma_used): step eta_i = 2^{-4i} eta, trust radius
    2 L eta_i n0, regularizer weight 1 / (eta_i n0), the sensitivity bound
    4 L eta_i, the noise scale ``mechanisms.noise_sigma`` calibrates to it,
    and that scale times ``noise_scale``."""
    phases = []
    for i in range(1, cfg.k + 1):
        eta_i = cfg.eta * 2.0 ** (-4 * i)
        sensitivity = 4.0 * L * eta_i
        sigma = mechanisms.noise_sigma(sensitivity, d, cfg.privacy, cfg.gaussian_conservative)
        phases.append((
            i, eta_i, 2.0 * L * eta_i * cfg.n0, 1.0 / (eta_i * cfg.n0),
            sensitivity, sigma, sigma * cfg.noise_scale,
        ))
    return phases


def _start(data: Dataset, domain: Domain, x0: np.ndarray, cfg: LocalizationConfig) -> np.ndarray:
    """Check the run's inputs and return the starting point as an array."""
    k, n0 = cfg.k, cfg.n0
    if data.n < k:
        raise InvalidInputError(f"need at least k={k} samples, got {data.n}")
    if k * n0 > data.n:
        raise InvalidInputError(f"k * n0 = {k * n0} exceeds n = {data.n}")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if not domain.contains(x, tol=1e-9):
        raise InvalidInputError("x0 must lie in the domain")
    return x


def _is_scalar_quadratic(loss: LossOracle) -> bool:
    """Whether the chain runs in closed form: a 1-D isotropic-quadratic loss."""
    return loss.point_dim == 1 and isinstance(loss.structure, IsotropicQuadratic)


def run(
    loss: LossOracle,
    data: Dataset,
    domain: Domain,
    x0: np.ndarray,
    cfg: LocalizationConfig,
    rng: RngStream,
    trace: Optional[list] = None,
) -> np.ndarray:
    """Run the localization chain and return the final (noised, projected) iterate.

    Phase i solves the batch ERM anchored at the previous iterate over the
    trust region {x in domain : ||x - x_{i-1}|| <= 2 L eta_i n0} with
    eta_i = 2^{-4i} eta, then adds iid Laplace (pure mode) or isotropic
    Gaussian (approximate mode) noise and projects back onto ``domain``.
    Each sample is consumed by exactly one phase; leftover samples beyond
    k * n0 are discarded.  A 1-D isotropic-quadratic loss runs the
    closed-form chain of ``run_trials`` as one trial on ``rng``.
    """
    if _is_scalar_quadratic(loss):
        return run_trials(loss, data, domain, x0, cfg, (rng,), trace)[0]
    x = _start(data, domain, x0, cfg)
    L = loss.lipschitz
    d = loss.point_dim
    tol_floor = _TOL_FLOOR_FACTOR * L * max(1.0, domain.diameter())
    draw = mechanisms.noise_draw(cfg.privacy, rng)
    for i, eta_i, radius, lam, sensitivity, sigma, sigma_used in _schedule(cfg, L, d):
        region = Domain(x, radius, parent=domain)
        problem = erm.RegularizedProblem(
            loss=loss,
            batch=data.block(i - 1, cfg.n0),
            anchor=x,
            reg_weight=lam,
            domain=region,
        )
        # Solve two orders below both the sensitivity scale and the honest
        # noise floor, so solver inexactness is negligible for privacy.
        tol = max(min(sensitivity, sigma) / 100.0, tol_floor)
        x_hat = erm.solve(problem, tol=tol, max_iters=MAX_SOLVER_ITERS)
        noise = draw(0.0, sigma_used, size=d) if sigma_used > 0 else np.zeros(d)
        x = domain.project(x_hat + noise)
        if trace is not None:
            trace.append(PhaseRecord(i, eta_i, radius, sigma_used, x_hat, x))
    return x


def _block_means(loss: LossOracle, datasets: list, cfg: LocalizationConfig) -> np.ndarray:
    """Per-phase batch means of the quadratic's linear term, one column per
    dataset, each in its own vectorized pass: numpy's pairwise sums depend
    on the array shape."""
    k, n0 = cfg.k, cfg.n0
    means = [loss.structure.linear(ds.samples[: k * n0]).reshape(k, n0, -1).mean(axis=1)[:, 0]
             for ds in datasets]
    return np.stack(means, axis=1)


def _trial_inputs(loss: LossOracle, data, x0, check) -> tuple:
    """Check a ``run_trials`` call's loss, datasets and starts.  Return the
    datasets as a list (one shared by every trial, or one per trial), the
    starts as a 1-D array, and what ``check(dataset, start)`` returns."""
    if not _is_scalar_quadratic(loss):
        raise InvalidInputError("run_trials needs a 1-D isotropic-quadratic loss")
    datasets = [data] if isinstance(data, Dataset) else list(data)
    if len({ds.n for ds in datasets}) != 1:
        raise InvalidInputError("the trials' datasets must share one size")
    starts = np.reshape(np.asarray(x0, dtype=float), (-1, 1))
    for start in starts:
        checked = check(datasets[0], start)
    return datasets, starts[:, 0], checked


def _trial_noise(privacy: PrivacyParams, streams: Iterable[RngStream], size: int,
                 datasets: list, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row of ``size`` unit-scale noise draws per stream, and one start
    per trial, from one shared start or one per trial.

    Each row is drawn in a single call on its own stream.  Scaling a unit
    draw by sigma gives the same bits as drawing at scale sigma, so a row
    holds exactly the draws a phase-by-phase run would make on that stream,
    in order."""
    rows = [mechanisms.noise_draw(privacy, s)(0.0, 1.0, size=size) for s in streams]
    z = np.array(rows).reshape(len(rows), size)
    if not {len(datasets), len(starts)} <= {1, len(z)}:
        raise InvalidInputError("need one dataset and one start point, or one per stream")
    return z, np.broadcast_to(starts, (len(z),))


def _noise_count(schedule: list[tuple]) -> int:
    return sum(1 for *_, sigma_used in schedule if sigma_used > 0)


def _chain_trials(curv, qbar, schedule, x, lo_dom, hi_dom, z, trace=None):
    """The closed-form 1-D chain, all trials at once: the one phase kernel.

    In one dimension every trust region is an interval and the constrained
    minimizer of the quadratic phase objective (curvature ``curv``) is the
    clamped stationary point, so each phase is a few array operations.
    ``qbar`` holds the phase block means as a ``(k, trials)`` array, or
    ``(k, 1)`` when the trials share one dataset; ``x`` holds one start per
    trial; ``lo_dom, hi_dom`` bound the domain, per trial or shared; ``z``
    holds per-trial unit noise, one column per noised phase.  ``trace``
    collects one ``PhaseRecord`` per phase, with every trial's points.
    """
    col = 0
    for i, eta_i, radius, lam, _, _, sigma_used in schedule:
        lo = np.maximum(lo_dom, x - radius)
        hi = np.minimum(hi_dom, x + radius)
        x_hat = (2.0 * lam * x - qbar[i - 1]) / (curv + 2.0 * lam)
        x_hat = np.where(x_hat < lo, lo, np.where(x_hat > hi, hi, x_hat))
        if sigma_used > 0:
            noise = z[:, col] * sigma_used
            col += 1
        else:
            noise = 0.0
        x = x_hat + noise
        x = np.where(x < lo_dom, lo_dom, np.where(x > hi_dom, hi_dom, x))
        if trace is not None:
            trace.append(PhaseRecord(i, eta_i, radius, sigma_used, x_hat, x))
    return x


def run_trials(
    loss: LossOracle,
    data: Dataset | Sequence[Dataset],
    domain: Domain,
    x0: np.ndarray,
    cfg: LocalizationConfig,
    streams: Iterable[RngStream],
    trace: Optional[list] = None,
) -> np.ndarray:
    """Run the chain once per stream, all trials at once, and return one
    output row per stream.

    This is the closed-form chain of a 1-D isotropic-quadratic loss; any
    other loss raises ``InvalidInputError``.  ``data`` is one dataset shared
    by every trial or one per trial, and ``x0`` is one start point or one
    row per trial.  Trial t runs the chain ``run`` describes on its own data
    and start, with its noise drawn from ``streams[t]``.  Streams are
    consumed in order, so ``streams`` may be a generator.  ``trace``
    collects one ``PhaseRecord`` per phase whose points are ``(trials,)``
    arrays.
    """
    datasets, starts, _ = _trial_inputs(loss, data, x0, lambda ds, x: _start(ds, domain, x, cfg))
    schedule = _schedule(cfg, loss.lipschitz, 1)
    z, x = _trial_noise(cfg.privacy, streams, _noise_count(schedule), datasets, starts)
    lo_dom, hi_dom = domain.interval()
    qbar = _block_means(loss, datasets, cfg)
    return _chain_trials(
        loss.structure.curvature, qbar, schedule, x, lo_dom, hi_dom, z, trace
    )[:, None]
