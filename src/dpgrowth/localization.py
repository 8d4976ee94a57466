"""Localization-based private SCO: solve a chain of anchored regularized ERM
problems over geometrically shrinking trust regions, adding calibrated noise
to each solution.  Disjoint per-phase batches make the whole run private at
the per-phase budget."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import erm, mechanisms
from .core import (
    Dataset,
    Domain,
    InvalidInputError,
    IsotropicQuadratic,
    LossOracle,
    PowerNorm,
    PrivacyParams,
    RngStream,
    SeparableAbsolute,
    project,
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

# How far outside the domain a start point may lie.
_START_TOL = 1e-9

# Iteration budget of every ``erm.solve`` call a phase makes.
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
    """Run parameters: base step eta, privacy budget, the phase count
    k = ceil(log2 n) and per-phase batch size n0 = floor(n/k).  The
    confidence beta enters only through eta (``default_eta``).

    ``noise_scale`` rescales every injected noise draw; it exists for the
    privacy falsifier (sabotage) and for noiseless oracle runs, and must be
    1.0 for any run whose privacy claim matters.  ``gaussian_conservative``
    switches the approximate-DP noise to the conservative calibration
    2 * (4 L eta_i) * log(2/delta) / epsilon.
    """

    eta: float
    privacy: PrivacyParams
    k: int
    n0: int
    noise_scale: float = 1.0
    gaussian_conservative: bool = False

    def __post_init__(self):
        if not (self.eta > 0):
            raise InvalidInputError("eta must be positive")
        if self.k < 1 or self.n0 < 1:
            raise InvalidInputError("k and n0 must be >= 1")
        if self.noise_scale < 0:
            raise InvalidInputError("noise_scale must be >= 0")
        mechanisms.check_budget(self.privacy)

    @classmethod
    def for_data_size(
        cls,
        n: int,
        eta: float,
        privacy: PrivacyParams,
        **kwargs,
    ) -> "LocalizationConfig":
        """The config of a chain on n samples: k = ceil(log2 n) phases (at
        least one) of n0 = floor(n/k) samples each."""
        k = max(1, math.ceil(math.log2(n)))
        return cls(eta=eta, privacy=privacy, k=k, n0=n // k, **kwargs)


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


def _tol_floor(L: float, domain: Domain) -> float:
    return _TOL_FLOOR_FACTOR * L * max(1.0, domain.diameter())


def _phase_tol(sensitivity: float, sigma: float, tol_floor: float) -> float:
    """A phase's solver tolerance: two orders below both the sensitivity
    scale and the honest noise floor, so solver inexactness is negligible
    for privacy."""
    return max(min(sensitivity, sigma) / 100.0, tol_floor)


def _first_trial(records: list) -> list:
    """A one-trial ``run_trials`` trace as ``run`` records it: each array
    field holds the trial's point instead of a row per trial."""
    return [
        replace(rec, **{f.name: getattr(rec, f.name)[0] for f in fields(rec)
                        if isinstance(getattr(rec, f.name), np.ndarray)})
        for rec in records
    ]


def run(
    loss: LossOracle,
    data: Dataset,
    domain: Domain,
    x0: np.ndarray,
    cfg: LocalizationConfig,
    rng: RngStream,
    phase_trace: Optional[list] = None,
) -> np.ndarray:
    """Run the localization chain and return the final (noised, projected) iterate.

    Phase i solves the batch ERM anchored at the previous iterate over the
    trust region {x in domain : ||x - x_{i-1}|| <= 2 L eta_i n0} with
    eta_i = 2^{-4i} eta, then adds iid Laplace (pure mode) or isotropic
    Gaussian (approximate mode) noise and projects back onto ``domain``.
    Each sample is consumed by exactly one phase; leftover samples beyond
    k * n0 are discarded.  ``phase_trace`` collects one ``PhaseRecord`` per
    phase.  This is ``run_trials`` as one trial on ``rng``.
    """
    records = None if phase_trace is None else []
    x = run_trials(loss, data, domain, x0, cfg, (rng,), records)[0]
    if phase_trace is not None:
        phase_trace += _first_trial(records)
    return x


def _block_means(samples: np.ndarray, cfg: LocalizationConfig, scale=None) -> np.ndarray:
    """Per-phase batch means of a ``(datasets, m, d)`` sample array, or of
    ``scale`` times it, as a ``(k, datasets, d)`` array.  numpy's sums depend
    on the reduction's shape; this one reduces each block along its own
    axis, as ``mean(axis=0)`` of the block alone does, so each mean has the
    bits of ``erm.solve``'s."""
    k, n0 = cfg.k, cfg.n0
    s = samples[:, : k * n0] if scale is None else scale * samples[:, : k * n0]
    return s.reshape(len(s), k, n0, -1).mean(axis=2).transpose(1, 0, 2)


def _trial_inputs(loss: LossOracle, data, domain: Domain, x0, min_n: int) -> tuple:
    """Check a ``run_trials`` call's datasets and starts: the datasets share
    one size of at least ``min_n`` samples, and every start lies in
    ``domain`` within ``_START_TOL``.  Return the datasets as a list (one
    shared by every trial, or one per trial) and the starts as rows of a
    2-D array."""
    datasets = [data] if isinstance(data, Dataset) else list(data)
    if len({ds.n for ds in datasets}) != 1:
        raise InvalidInputError("the trials' datasets must share one size")
    if datasets[0].n < min_n:
        raise InvalidInputError(f"need at least {min_n} samples, got {datasets[0].n}")
    starts = np.reshape(np.asarray(x0, dtype=float), (-1, loss.point_dim))
    for start in starts:
        if not domain.contains(start, tol=_START_TOL):
            raise InvalidInputError("x0 must lie in the domain")
    return datasets, starts


def _inside(x: np.ndarray, balls: list, tol: float = 0.0) -> np.ndarray:
    """Per trial, whether the row x[t] lies in every ball (center, radius)
    by the test of ``Domain.contains`` with tolerance ``tol``; a center is
    one point or one row per trial."""
    ok = np.ones(x.shape[0], dtype=bool)
    for center, radius in balls:
        ok &= erm._row_norms(x - center) <= radius + tol
    return ok


def _project_trials(x: np.ndarray, balls: list, domain_of) -> np.ndarray:
    """Each trial's point projected onto its own domain: kept where it lies
    in every ball, as ``core.project`` keeps it, and projected by
    ``core.project`` on ``domain_of(t)`` elsewhere."""
    outside = np.flatnonzero(~_inside(x, balls))
    if outside.size == 0:
        return x
    x = x.copy()
    for t in outside:
        x[t] = project(domain_of(t), x[t])
    return x


def _quadratic_phase(st: IsotropicQuadratic, lam, tol, x, qbar, gbar, region_balls, region):
    """Each trial's solution of an isotropic-quadratic phase as ``erm.solve``
    finds it, and whether it is certified: the stationary point, projected
    onto the trial's region where it lies outside, then
    ``erm.certified_gap``'s projected-gradient certificate, with the
    gradient curvature * x + gbar that the loss's ``batch_subgrad`` computes
    from gbar = lin_scale * mean sample."""
    x_hat = _project_trials(
        (2.0 * lam * x - qbar) / (st.curvature + 2.0 * lam), region_balls, region
    )
    gamma = 1.0 / (2.0 * lam)
    g = st.curvature * x_hat + gbar + 2.0 * lam * (x_hat - x)
    step = _project_trials(x_hat - gamma * g, region_balls, region)
    return x_hat, erm._gap_bound(erm._row_norms(x_hat - step) / gamma, lam) <= tol


def _separable_phase(st: SeparableAbsolute, lam, tol, x, block, region_balls):
    """Each trial's solution of a separable-absolute phase as ``erm.solve``
    finds it, and whether it is certified: the coordinatewise minimizers of
    the phase's ``(datasets, n0, d)`` sample block, one sorted row of
    breakpoints per trial and coordinate, certified where they lie in their
    region within ``erm._INTERIOR_TOL`` and pass the
    subdifferential-interval certificate."""
    trials, d = x.shape
    rows = np.ascontiguousarray(block.transpose(0, 2, 1))
    rows.sort(axis=-1)
    if len(rows) < trials:
        rows = np.repeat(rows, trials, axis=0)
    m = rows.shape[-1]
    rows = rows.reshape(-1, m)
    x_hat = erm._coordwise_abs_quadratic(rows, st.weight, lam, x.reshape(-1)).reshape(trials, d)
    col = x_hat.reshape(-1, 1)
    below = (rows < col).sum(axis=1).reshape(trials, d)
    above = (rows > col).sum(axis=1).reshape(trials, d)
    gap = erm._separable_gap(below, above, m, st.weight, 2.0 * lam * (x_hat - x), lam)
    return x_hat, _inside(x_hat, region_balls, tol=erm._INTERIOR_TOL) & (gap <= tol)


def _power_norm_phase(st: PowerNorm, lam, tol, x, lo, hi, qbar, gbar):
    """Each trial's solution of a 1-D power-norm phase as ``erm.solve``
    finds it, and whether it is certified: the solver's own bisection and
    1-D certificate, in Python floats, from the trial's anchor x[t],
    interval [lo[t], hi[t]], mean linear term qbar and linear term of the
    mean sample gbar.  x, lo and hi are ``(trials, 1)`` arrays; qbar and
    gbar have one row shared by every trial or one per trial."""
    reps = len(x) // len(qbar)
    x_hat, ok = [], []
    for a, lo_t, hi_t, ubar, g in zip(
        x[:, 0].tolist(), lo[:, 0].tolist(), hi[:, 0].tolist(), qbar[:, 0].tolist() * reps,
        gbar[:, 0].tolist() * reps,
    ):
        root = erm._power_norm_root(st.coef, st.power, ubar, lam, a, lo_t, hi_t)

        # The loss's batch derivative plus the regularizer's, added as
        # ``RegularizedProblem.subgradient`` adds them.
        def slope(u):
            return st.slope(u, g) + 2.0 * lam * (u - a)

        ok.append(erm._interval_gap(slope, lam, lo_t, hi_t, root) <= tol)
        x_hat.append(root)
    return np.array(x_hat)[:, None], np.array(ok)


def _chain_trials(loss, samples, cfg, schedule, x, domain, z, epoch=None, trace=None):
    """The chain, all trials at once: the one phase kernel, which
    ``_run_chains`` runs once per chain.

    ``samples`` holds the phase blocks' data as a ``(datasets, m, d)``
    array, one dataset shared by every trial or one per trial; ``schedule``
    is ``_schedule(cfg, ...)``; ``x`` holds one start row per trial, each in
    its domain; ``z`` holds per-trial unit noise, ``(trials, noised phases,
    d)``.  The chain runs in ``domain``, intersected with each trial's epoch
    ball when ``epoch`` is ``(centers, radius)``, one center row per trial.
    ``trace`` collects one ``PhaseRecord`` per phase, with every trial's
    points as rows.

    A 1-D isotropic-quadratic phase is closed form: every trust region is an
    interval, the constrained minimizer is the clamped stationary point, and
    a clamp takes the noised point back into the domain.  Every other phase
    makes its checks and steps on arrays: the anchor check, ``erm.solve``'s
    regularizer-dominance shortcut, the noise, and the test for a point
    inside its region; at d >= 2 also the quadratic's closed form and its
    certificate, and for a separable absolute loss the coordinatewise
    minimizers of every trial's sorted breakpoints and their
    subdifferential-interval certificate.  A 1-D power-norm phase's
    bisection and certificate run per trial, in Python floats.  Only the
    rare branches run one trial at a time: a point outside its region goes
    through ``core.project``, a separable minimizer outside its region or a
    failed certificate through the one fallback loop, ``erm.solve`` per
    trial.  That loop also solves every non-dominated phase of a loss with
    no closed form here (no solver hint, or a power norm at d >= 2).
    """
    st = loss.structure
    d = x.shape[1]
    clamp = d == 1 and isinstance(st, IsotropicQuadratic)
    power = d == 1 and isinstance(st, PowerNorm)
    if isinstance(st, IsotropicQuadratic) or power:
        qbar = _block_means(samples, cfg, st.lin_scale)
        if not clamp:
            gbar = st.lin_scale * _block_means(samples, cfg)
    balls = list(domain.balls())
    if epoch is not None:
        centers, radius = epoch
        balls.insert(0, epoch)
    if d == 1:
        lo_dom, hi_dom = domain.interval()
        if epoch is not None:
            lo_dom = np.maximum(centers - radius, lo_dom)
            hi_dom = np.minimum(centers + radius, hi_dom)
    if not clamp:
        L = loss.lipschitz

        def outer(t):
            return domain if epoch is None else Domain(centers[t], radius, parent=domain)

        # Every trial's domain has the same radii, so one diameter.
        tol_floor = _tol_floor(L, outer(0))
    col = 0
    for i, eta_i, radius_i, lam, sensitivity, sigma, sigma_used in schedule:
        if d == 1:
            lo = np.maximum(lo_dom, x - radius_i)
            hi = np.minimum(hi_dom, x + radius_i)
        if clamp:
            x_hat = (2.0 * lam * x - qbar[i - 1]) / (st.curvature + 2.0 * lam)
            x_hat = np.where(x_hat < lo, lo, np.where(x_hat > hi, hi, x_hat))
        else:
            if not _inside(x, balls, tol=erm._ANCHOR_TOL).all():
                raise InvalidInputError("domain must contain the anchor")

            def region(t):
                return Domain(x[t], radius_i, parent=outer(t))

            tol = _phase_tol(sensitivity, sigma, tol_floor)
            if erm._dominated(L, lam, tol):
                # Regularizer dominance: the solution is the anchor projected
                # onto its region, whose own ball always holds it.
                x_hat = _project_trials(x, balls, region)
            else:
                block = samples[:, (i - 1) * cfg.n0 : i * cfg.n0]
                if isinstance(st, SeparableAbsolute):
                    x_hat, ok = _separable_phase(st, lam, tol, x, block, [(x, radius_i)] + balls)
                elif power:
                    x_hat, ok = _power_norm_phase(st, lam, tol, x, lo, hi, qbar[i - 1],
                                                  gbar[i - 1])
                elif isinstance(st, IsotropicQuadratic):
                    x_hat, ok = _quadratic_phase(st, lam, tol, x, qbar[i - 1], gbar[i - 1],
                                                 [(x, radius_i)] + balls, region)
                else:
                    x_hat, ok = np.empty(x.shape), np.zeros(len(x), bool)
                # The one fallback: each trial without a certified solution
                # solves its phase with erm.solve.  x_hat is a new array.
                for t in np.flatnonzero(~ok):
                    problem = erm.RegularizedProblem(
                        loss, Dataset(block[min(t, len(block) - 1)]), x[t], lam, region(t))
                    x_hat[t] = erm.solve(problem, tol=tol, max_iters=MAX_SOLVER_ITERS)
        if sigma_used > 0:
            noise = z[:, col] * sigma_used
            col += 1
        else:
            noise = 0.0
        x = x_hat + noise
        if clamp:
            x = np.where(x < lo_dom, lo_dom, np.where(x > hi_dom, hi_dom, x))
        else:
            x = _project_trials(x, balls, outer)
        if trace is not None:
            trace.append(PhaseRecord(i, eta_i, radius_i, sigma_used, x_hat, x))
    return x


def _run_chains(loss: LossOracle, datasets: list, starts: np.ndarray, domain: Domain,
                privacy: PrivacyParams, streams: Iterable[RngStream], chains: list,
                phase_trace: Optional[list] = None) -> list:
    """Run chains one after another, all trials at once: the one driver of
    both ``run_trials``.  Return the trials' iterates before the first chain
    and after each chain, ``(trials, d)`` arrays.

    Each chain is ``(offset, radius, cfg)``.  It runs ``_chain_trials`` with
    ``_schedule(cfg, ...)`` on the k * n0 samples from ``offset`` of each
    dataset, in ``domain`` intersected, when ``radius`` is not None, with
    each trial's ball of that radius around its iterate; a chain whose
    ``cfg`` is None leaves the iterate as it is.  ``datasets`` and
    ``starts`` are one shared by every trial or one per stream.

    Trial t's unit noise for every chain is one row of
    ``mechanisms.noise_rows`` on ``streams[t]``, taken chain by chain in
    order.  Scaling a unit draw by sigma gives the same bits as drawing at
    scale sigma, so a stream's draws are exactly those a phase-by-phase run
    would make on it.  ``phase_trace`` collects the chains' ``PhaseRecord``
    entries, chain after chain."""
    L, d = loss.lipschitz, loss.point_dim
    schedules = [[] if cfg is None else _schedule(cfg, L, d) for *_, cfg in chains]
    counts = [sum(1 for *_, sigma_used in schedule if sigma_used > 0) for schedule in schedules]
    rows = mechanisms.noise_rows(privacy, streams, sum(counts) * d)
    z = rows.reshape(len(rows), sum(counts), d)
    if not {len(datasets), len(starts)} <= {1, len(z)}:
        raise InvalidInputError("need one dataset and one start point, or one per stream")
    x = np.broadcast_to(starts, (len(z), d))
    xs, col = [x], 0
    for (offset, radius, cfg), schedule, count in zip(chains, schedules, counts):
        if cfg is not None:
            samples = np.stack([ds.samples[offset : offset + cfg.k * cfg.n0] for ds in datasets])
            x = _chain_trials(loss, samples, cfg, schedule, x, domain, z[:, col : col + count],
                              None if radius is None else (x, radius), phase_trace)
        xs.append(x)
        col += count
    return xs


def run_trials(
    loss: LossOracle,
    data: Dataset | Sequence[Dataset],
    domain: Domain,
    x0: np.ndarray,
    cfg: LocalizationConfig,
    streams: Iterable[RngStream],
    phase_trace: Optional[list] = None,
) -> np.ndarray:
    """Run the chain once per stream, all trials at once, and return one
    output row per stream.

    ``data`` is one dataset shared by every trial or one per trial, and
    ``x0`` is one start point or one row per trial.  Trial t runs the chain
    ``run`` describes on its own data and start, as the one chain of
    ``_run_chains``, with its noise drawn from ``streams[t]`` by
    ``mechanisms.noise_rows`` (a block of ``RngStream.children`` has its
    Laplace draws made in arrays).  ``phase_trace`` collects one
    ``PhaseRecord`` per phase whose points are ``(trials, d)`` arrays.
    """
    datasets, starts = _trial_inputs(loss, data, domain, x0, cfg.k * cfg.n0)
    return _run_chains(loss, datasets, starts, domain, cfg.privacy, streams, [(0, None, cfg)],
                       phase_trace)[-1]
