"""Localization-based private SCO: solve a chain of anchored regularized ERM
problems over geometrically shrinking trust regions, adding calibrated noise
to each solution.  Disjoint per-phase batches make the whole run private at
the per-phase budget."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
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
    1.0 for any run whose privacy claim matters.
    """

    eta: float
    privacy: PrivacyParams
    k: int
    n0: int
    noise_scale: float = 1.0

    def __post_init__(self):
        if not (self.eta > 0):
            raise InvalidInputError("eta must be positive")
        if self.k < 1 or self.n0 < 1:
            raise InvalidInputError("k and n0 must be >= 1")
        mechanisms.check_noise_scale(self.noise_scale)
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


def _table(cfg: LocalizationConfig, L: float, d: int, etas=None) -> np.ndarray:
    """The k phases of chains that share cfg but for their base steps
    ``etas`` (cfg's eta if None), as one ``(chains, k, 6)`` array whose entry
    [c, i - 1] is chain c's phase i: (eta_i, radius, reg_weight,
    sensitivity, sigma, sigma_used), the step eta_i = 2^{-4i} eta, the trust
    radius 2 L eta_i n0, the regularizer weight 1 / (eta_i n0), the
    sensitivity bound 4 L eta_i, the noise scale ``mechanisms.noise_sigma``
    calibrates to it, and that scale times ``noise_scale``."""
    eta_i = np.reshape(cfg.eta if etas is None else etas, (-1, 1)) * np.ldexp(
        1.0, -4 * np.arange(1, cfg.k + 1))
    sensitivity = 4.0 * L * eta_i
    sigma = mechanisms.noise_sigma(sensitivity, d, cfg.privacy)
    return np.array((eta_i, 2.0 * L * eta_i * cfg.n0, 1.0 / (eta_i * cfg.n0), sensitivity, sigma,
                     sigma * cfg.noise_scale)).transpose(1, 2, 0)


def _tol_floor(L: float, domain: Domain) -> float:
    return _TOL_FLOOR_FACTOR * L * max(1.0, domain.diameter())


def _phase_tol(sensitivity, sigma, tol_floor: float):
    """A phase's solver tolerance: two orders below both the sensitivity
    scale and the honest noise floor, so solver inexactness is negligible
    for privacy.  The values are per-trial columns."""
    return np.maximum(np.minimum(sensitivity, sigma) / 100.0, tol_floor)


def _block_means(samples: np.ndarray, offsets, k: int, n0: int) -> np.ndarray:
    """Per-phase batch means of chains of k blocks of n0 samples, one chain
    from each of ``offsets`` of every dataset of a ``(datasets, n, d)``
    sample array, as one ``(chains, k, datasets, d)`` array.  numpy's sums
    depend on the reduction's shape; this one reduces each float64 block
    along its own axis, as ``mean(axis=0)`` of the block alone does, so
    each mean has the bits of the loss's ``batch_subgrad`` and of
    ``erm.solve``'s.  int8 samples (the signed-coordinate samplers' draws)
    take each block's int64 sum over n0 instead: every partial sum of the
    float reduction is exact, so the bits are the same (docs/decisions.md)."""
    rows = (np.asarray(offsets)[:, None] + np.arange(k * n0)).ravel()
    shape = (len(samples), len(offsets), k, n0, samples.shape[-1])
    if samples.dtype == np.int8:
        means = samples[:, rows].reshape(shape).sum(axis=3, dtype=np.int64) / n0
    else:
        # C order: a fancy index lays its result out otherwise, and numpy's
        # sums depend on the layout too.
        means = samples[:, rows].astype(float, order="C").reshape(shape).mean(axis=3)
    return means.transpose(1, 2, 0, 3)


def _trial_inputs(loss: LossOracle, data, domain: Domain, x0, min_n: int) -> tuple:
    """Check a ``run`` call's datasets and starts: the datasets share
    one size of at least ``min_n`` samples, and every start lies in
    ``domain`` within ``_START_TOL``.  ``data`` is one shared ``Dataset``,
    or one per trial, each a ``Dataset`` or a sample array (a sweep unit's
    ``ProblemInstance.draw_samples``, held as drawn).  Return the datasets'
    samples as one ``(datasets, n, d)`` array, taken from ``data`` one
    dataset at a time, and the starts as rows of a 2-D array."""
    samples = [data.samples] if isinstance(data, Dataset) else [
        ds.samples if isinstance(ds, Dataset) else ds for ds in data]
    if len({len(s) for s in samples}) != 1:
        raise InvalidInputError("the trials' datasets must share one size")
    if len(samples[0]) < min_n:
        raise InvalidInputError(f"need at least {min_n} samples, got {len(samples[0])}")
    starts = np.reshape(np.asarray(x0, dtype=float), (-1, loss.point_dim))
    for start in starts:
        if not domain.contains(start, tol=_START_TOL):
            raise InvalidInputError("x0 must lie in the domain")
    return np.stack(samples), starts


def _inside(x: np.ndarray, balls: list, tol: float = 0.0) -> np.ndarray:
    """Per trial, whether the row x[t] lies in every ball (center, radius)
    by the test of ``Domain.contains`` with tolerance ``tol``; a center is
    one point or one row per trial."""
    (center, radius), *rest = balls
    ok = erm._row_norms(x - center) <= radius + tol
    for center, radius in rest:
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


def _quadratic_phase(st: IsotropicQuadratic, lam, tol, x, ubar, region_balls, region):
    """Each trial's solution of an isotropic-quadratic phase as ``erm.solve``
    finds it, and whether it is certified: the stationary point, projected
    onto the trial's region where it lies outside, then
    ``erm.certified_gap``'s projected-gradient certificate, with the
    gradient curvature * x + ubar that the loss's ``batch_subgrad`` computes
    from its linear term ubar = lin_scale * mean sample.  lam and tol are
    per-trial columns."""
    x_hat = _project_trials(
        (2.0 * lam * x - ubar) / (st.curvature + 2.0 * lam), region_balls, region
    )
    gamma = 1.0 / (2.0 * lam)
    g = st.curvature * x_hat + ubar + 2.0 * lam * (x_hat - x)
    step = _project_trials(x_hat - gamma * g, region_balls, region)
    residual = erm._row_norms(x_hat - step) / gamma[:, 0]
    return x_hat, erm._gap_bound(residual, lam[:, 0]) <= tol[:, 0]


def _separable_phase(st: SeparableAbsolute, lam, tol, x, block, region_balls):
    """Each trial's solution of a separable-absolute phase as ``erm.solve``
    finds it, and whether it is certified: the coordinatewise minimizers of
    the phase's ``(trials, n0, d)`` sample block, one sorted row of
    breakpoints per trial and coordinate, certified where they lie in their
    region within ``erm._INTERIOR_TOL`` and pass the
    subdifferential-interval certificate."""
    trials, d = x.shape
    rows = np.ascontiguousarray(block.transpose(0, 2, 1))
    rows.sort(axis=-1)
    m = rows.shape[-1]
    rows = rows.reshape(-1, m)
    x_hat = erm._coordwise_abs_quadratic(rows, st.weight, lam, x.reshape(-1)).reshape(trials, d)
    col = x_hat.reshape(-1, 1)
    below = (rows < col).sum(axis=1).reshape(trials, d)
    above = (rows > col).sum(axis=1).reshape(trials, d)
    gap = erm._separable_gap(below, above, m, st.weight, 2.0 * lam * (x_hat - x), lam)
    return x_hat, _inside(x_hat, region_balls, tol=erm._INTERIOR_TOL) & (gap <= tol)


# The schedule values (eta_i, radius, lam, sensitivity, sigma, sigma_used)
# of a trial that sits a slot out.
_IDLE = (1.0, 1.0, 1.0, 1.0, 1.0, 0.0)


def _noise_table(tables: list, draws: list, d: int) -> tuple:
    """The noise of groups of trials as one table: the bounds of each
    group's rows, and a ``(live chains, max k, trials, d)`` array whose
    entry [c, j, t] is trial t's noise in phase j + 1 of chain c, its unit
    draw times sigma_used, or zero where the phase draws none.  Group g has
    schedule table ``tables[g]`` and unit draws ``draws[g]``, one row per
    trial of d values per phase with sigma_used > 0, in chain order; a
    caller that holds no other reference to ``draws`` has them freed on
    return."""
    bounds = [0, *accumulate(map(len, draws))]
    noise = np.zeros((max(map(len, tables)), max(table.shape[1] for table in tables),
                      bounds[-1], d))
    for table, rows, a, b in zip(tables, draws, bounds, bounds[1:]):
        cs, js = np.nonzero(table[..., 5] > 0)
        noise[cs, js, a:b] = (rows.reshape(b - a, len(cs), d) * table[cs, js, 5][:, None]
                              ).transpose(1, 0, 2)
    return bounds, noise


def _lockstep(loss: LossOracle, plans: list, noise: np.ndarray, bounds: list, d: int):
    """Lay groups of trials out in lockstep through their chains: yield,
    for each chain index c, the ``(parts, phases)`` of the ``_chain_trials``
    call that runs chain c of every group, with phases None where no group
    has a phase in chain c.

    ``plans`` holds one ``(samples, chains)`` per group: its ``(datasets,
    n, d)`` samples and its ``_run_chains`` chains ``(offsets, radii, n0,
    table)``; its trials are the rows ``bounds[g]:bounds[g + 1]`` of the
    ``_noise_table`` ``noise``.  Part g is ``(samples, offset, n0)``: group
    g's samples broadcast once to one ``(n, d)`` row per trial, and offset
    None where the group sits chain c out.  Slot j runs phase j + 1 of
    every group whose chain c has one; phases is ``(values, active, noise,
    ubar)``, one entry per slot each: the schedule's six values as
    ``(6, trials, 1)`` columns, where a trial that sits the slot out reads
    ``_IDLE`` (a lone group's columns are a view of its table row, not a
    copy); the mask of the trials that run it; each trial's noise,
    ``(trials, d)``; and the blocks' linear term ubar, lin_scale times the
    mean sample, a row per trial, or None where the phase does not read it.
    All but the columns and masks is computed once, for every chain."""
    st = loss.structure
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    tables = [table for _, (*_, table) in plans]
    C, K = max(len(chains[0]) for _, chains in plans), noise.shape[1]
    counts = [[table.shape[1] if c < len(table) else 0 for table in tables] for c in range(C)]
    ubar = None
    if isinstance(st, IsotropicQuadratic) or (d == 1 and isinstance(st, PowerNorm)):
        ubar = np.zeros((C, K, bounds[-1], d))
        for (samples, (offsets, _, n0, table)), a, b in zip(plans, bounds, bounds[1:]):
            live, k = table.shape[:2]
            if live:
                # A dataset shared by the group's trials gives one row of
                # means, written to every trial's row.
                ubar[:live, :k, a:b] = st.lin_scale * _block_means(samples, offsets[:live], k, n0)
    values = np.empty((C, K, 6, len(plans), 1))
    values[...] = np.array(_IDLE)[:, None, None]
    for g, table in enumerate(tables):
        values[: len(table), : table.shape[1], :, g, 0] = table
    # One sample row per trial: a view, not a copy, of a shared dataset.
    per_trial = [np.broadcast_to(samples, (size, *samples.shape[1:]))
                 for size, (samples, *_) in zip(sizes, plans)]
    for c, row in enumerate(counts):
        parts = [(samples, chains[0][c] if count else None, chains[2])
                 for count, samples, (_, chains) in zip(row, per_trial, plans)]
        slots = max(row)
        if not slots:
            yield parts, None
            continue
        columns = values[c, :slots]
        columns = (np.broadcast_to(columns, (slots, 6, bounds[-1], 1)) if len(sizes) == 1
                   else np.repeat(columns, sizes, axis=2))
        yield parts, (columns, np.repeat(row, sizes) > np.arange(slots)[:, None],
                      noise[c, :slots], None if ubar is None else ubar[c, :slots])


def _rows(mask: np.ndarray, a: int, b: int):
    """The rows in [a, b) that ``mask`` selects: the slice a:b if all, None
    if none, else their indices."""
    if mask[a:b].all():
        return slice(a, b)
    if not mask[a:b].any():
        return None
    return a + np.flatnonzero(mask[a:b])


def _chain_trials(loss, parts, phases, x, domain, epoch=None, trace=None):
    """The chain, all trials at once: the one phase kernel, which
    ``_run_chains`` runs once per chain on the parts and phases of
    ``_lockstep``.

    ``parts`` splits the trials, in row order, into groups that share a
    schedule, one ``(samples, offset, n0)`` each: the chain's phase i takes
    the n0 samples from offset + (i - 1) n0 of each trial's row of the
    ``(trials, n, d)`` array ``samples``; offset is None for a part that
    sits the chain out.  The parts run in lockstep: slot i runs phase i of
    every part that has one, reads its schedule's six values as
    ``(trials, 1)`` columns, and leaves the point of every other trial as
    it is.  Every float operation acts on each row's own operands, so each
    trial gets the bits its part gives alone.  What a slot reads of the
    schedule is set up once, for every slot: the tolerances, the dominance
    and solve masks, and a power-norm chain's lam and tol lists.

    ``x`` holds one start row per trial, each in its domain.  The chain runs
    in ``domain``, intersected with each trial's epoch ball when ``epoch``
    is ``(centers, radius)``, one center row per trial.  ``trace`` collects
    one ``PhaseRecord`` per phase, with every trial's points as rows.

    A 1-D isotropic-quadratic phase is closed form: every trust region is an
    interval, the constrained minimizer is the clamped stationary point, and
    a clamp takes the noised point back into the domain.  Every other chain
    checks its anchors once, and its phases make their steps on arrays:
    ``erm.solve``'s regularizer-dominance shortcut, the noise, and the test
    for a point inside its region; at d >= 2 also the quadratic's closed
    form and its
    certificate, and for a separable absolute loss, part by part, the
    coordinatewise minimizers of every trial's sorted breakpoints and their
    subdifferential-interval certificate.  A 1-D power-norm phase's
    bisection and certificate run per trial, in Python floats.  Only the
    rare branches run one trial at a time: a point outside its region goes
    through ``core.project``, a separable minimizer outside its region or a
    failed certificate through the one fallback loop, ``erm.solve`` per
    trial with its own lam, tol and region.  That loop also solves every
    non-dominated phase of a loss with no closed form here (no solver hint,
    or a power norm at d >= 2).
    """
    st = loss.structure
    d = x.shape[1]
    values, active, noise, ubar = phases
    lams = values[:, 2]
    every = active.all(axis=1).tolist()
    clamp = d == 1 and isinstance(st, IsotropicQuadratic)
    power = d == 1 and isinstance(st, PowerNorm)
    balls = list(domain.balls())
    if epoch is not None:
        centers, radius = epoch
        balls.insert(0, epoch)
    if d == 1:
        lo_dom, hi_dom = domain.interval()
        if epoch is not None:
            lo_dom = np.maximum(centers - radius, lo_dom)
            hi_dom = np.minimum(centers + radius, hi_dom)
    if clamp:
        two_lam = 2.0 * lams
        denom = st.curvature + two_lam
    else:
        L = loss.lipschitz
        bounds = [0, *accumulate(len(samples) for samples, *_ in parts)]

        def outer(t):
            return domain if epoch is None else Domain(centers[t], radius, parent=domain)

        # Every trial's domain has the same radii, so one diameter.
        tol = _phase_tol(values[:, 3], values[:, 4], _tol_floor(L, outer(0)))
        dominated = erm._dominated(L, lams, tol)[..., 0]
        solve = active & ~dominated
        projected = (dominated & active).any(axis=1).tolist()
        if power:
            trial_lams, trial_tols = lams[..., 0].tolist(), tol[..., 0].tolist()
            solving = [np.flatnonzero(row).tolist() for row in solve]
        # Checked once: each later anchor is a point the chain projected
        # onto its domain.
        if not _inside(x, balls, tol=erm._ANCHOR_TOL).all():
            raise InvalidInputError("domain must contain the anchor")
    for j, (eta_i, radius_i, lam, _, _, sigma_used) in enumerate(values):
        if d == 1:
            lo = np.maximum(lo_dom, x - radius_i)
            hi = np.minimum(hi_dom, x + radius_i)
        if clamp:
            x_hat = (two_lam[j] * x - ubar[j]) / denom[j]
            # np.minimum(v, hi) is np.where(v > hi, hi, v), signed zeros too,
            # unless hi is NaN, which takes a NaN anchor and so a NaN v.
            x_hat = np.where(x_hat < lo, lo, np.minimum(x_hat, hi))
        else:

            def region(t):
                return Domain(x[t], float(radius_i[t, 0]), parent=outer(t))

            # Regularizer dominance: the solution is the anchor projected
            # onto its region, whose own ball always holds it.  A trial that
            # sits the slot out keeps its point.
            x_hat = np.array(_project_trials(x, balls, region) if projected[j] else x)
            ok = ~solve[j]
            if isinstance(st, SeparableAbsolute):
                # Part by part: the parts' blocks differ in length.
                for (samples, offset, n0), a, b in zip(parts, bounds, bounds[1:]):
                    rows = _rows(solve[j], a, b)
                    if rows is None:
                        continue
                    block = samples[:, offset + j * n0 : offset + (j + 1) * n0]
                    if not isinstance(rows, slice):
                        block = block[rows - a]
                    x_hat[rows], ok[rows] = _separable_phase(
                        st, float(lam[a, 0]), float(tol[j, a, 0]), x[rows], block.astype(float),
                        [(x[rows], float(radius_i[a, 0]))] + [
                            (c[rows] if np.ndim(c) == 2 else c, r) for c, r in balls])
            elif power and solving[j]:
                # The solver's own bisection and 1-D certificate, per trial.
                args = np.hstack((ubar[j], x, lo, hi)).tolist()
                rows, lams_j, tols_j = solving[j], trial_lams[j], trial_tols[j]
                solved = [erm._power_norm_1d(st.coef, st.power, u, lams_j[t], a, lo_t, hi_t)
                          for t in rows for u, a, lo_t, hi_t in [args[t]]]
                x_hat[rows, 0] = [root for root, _ in solved]
                ok[rows] = [gap <= tols_j[t] for (_, gap), t in zip(solved, rows)]
            elif isinstance(st, IsotropicQuadratic):
                rows = _rows(solve[j], 0, len(x))

                def take(v):
                    # The solving trials' rows of a per-trial value.
                    return v if np.ndim(v) == 0 else v[rows]

                if rows is not None:
                    region_balls = [(x, radius_i[:, 0])] + balls
                    x_hat[rows], ok[rows] = _quadratic_phase(
                        st, take(lam), take(tol[j]), take(x), take(ubar[j]),
                        [(take(c) if np.ndim(c) == 2 else c, take(r)) for c, r in region_balls],
                        region if isinstance(rows, slice) else lambda t: region(rows[t]))
            # The one fallback: each trial without a certified solution
            # solves its phase with erm.solve.  Tested once first: the walk
            # over the parts costs a sweep slot more than the test.
            if not ok.all():
                for (samples, offset, n0), a, b in zip(parts, bounds, bounds[1:]):
                    for t in a + np.flatnonzero(~ok[a:b]):
                        block = samples[t - a, offset + j * n0 : offset + (j + 1) * n0]
                        problem = erm.RegularizedProblem(loss, Dataset(block), x[t],
                                                         float(lam[t, 0]), region(t))
                        x_hat[t] = erm.solve(problem, tol=float(tol[j, t, 0]),
                                             max_iters=MAX_SOLVER_ITERS)
        x_next = x_hat + noise[j]
        if clamp:
            x_next = np.where(x_next < lo_dom, lo_dom, np.minimum(x_next, hi_dom))
        else:
            x_next = _project_trials(x_next, balls, outer)
        if trace is not None:
            # A trace records one group: its first row holds its schedule.
            trace.append(PhaseRecord(j + 1, float(eta_i[0, 0]), float(radius_i[0, 0]),
                                     float(sigma_used[0, 0]), x_hat, x_next))
        x = x_next if every[j] else np.where(active[j][:, None], x_next, x)
    return x


def _run_chains(loss: LossOracle, domain: Domain, groups: list,
                phase_trace: Optional[list] = None) -> list:
    """Run groups of trials through their chains, all trials of all groups
    at once: the one driver of both ``run`` and of a sweep unit.
    Return, per group, its trials' iterates before its first chain and
    after each of its chains, ``(trials, d)`` arrays.

    A group is ``(samples, starts, privacy, streams, chains)``.  Its chains
    are ``(offsets, radii, n0, table)``: chain c runs the phases of
    ``table[c]``, a ``_table``, on the n0-sample blocks from ``offsets[c]``
    of each dataset, in ``domain`` intersected, when ``radii[c]`` is not
    None, with each trial's ball of that radius around its iterate; a chain
    past the table's rows leaves the iterate as it is.  ``samples``, a
    ``(datasets, n, d)`` array, and ``starts`` have one row or one per
    stream, and ``_lockstep`` lays every group out one row per trial; the
    samples may be int8 or float32, as their sampler draws them, and each
    chain's blocks are widened to float64.  Chain c of every group runs in
    one ``_chain_trials`` call, one part per group; a group with a frozen
    chain c, or with fewer chains, sits it out.  The groups that run chain
    c must share its radius, as the groups of a sweep unit do: they share
    one domain, so one epoch schedule of radii.

    Trial t's unit noise for every chain is one row of
    ``mechanisms.noise_rows`` on its stream, taken chain by chain in order;
    one ``noise_rows`` call serves every group, so the groups' blocks of
    child streams under a pure budget take one Laplace pass per row size,
    and ``_noise_table`` scales them into one table before any chain runs.
    Scaling a unit draw by sigma gives the same bits as drawing at scale
    sigma, so a stream's draws are those a phase-by-phase run would make on
    it (for a pure budget's child-stream block: from unit draws within one ulp).
    ``phase_trace`` collects one group's ``PhaseRecord`` entries, chain
    after chain."""
    d = loss.point_dim
    if phase_trace is not None and len(groups) > 1:
        raise InvalidInputError("a phase trace records one group")
    tables = [chains[3] for *_, chains in groups]
    # The unit draws live only while the table is built.
    bounds, noise = _noise_table(tables, mechanisms.noise_rows([
        (privacy, streams, int(np.count_nonzero(table[..., 5] > 0)) * d)
        for (_, _, privacy, streams, _), table in zip(groups, tables)]), d)
    plans, xs = [], []
    for (samples, starts, *_, chains), a, b in zip(groups, bounds, bounds[1:]):
        if not {len(samples), len(starts)} <= {1, b - a}:
            raise InvalidInputError("need one dataset and one start point, or one per stream")
        plans.append((samples, chains))
        xs.append([np.broadcast_to(starts, (b - a, d))])
    x = np.concatenate([out[0] for out in xs])
    for c, (parts, phases) in enumerate(_lockstep(loss, plans, noise, bounds, d)):
        if phases is not None:
            radius = next(chains[1][c] for (_, chains), part in zip(plans, parts)
                          if part[1] is not None)
            x = _chain_trials(loss, parts, phases, x, domain,
                              None if radius is None else (x, radius), phase_trace)
        for (_, chains), out, a, b in zip(plans, xs, bounds, bounds[1:]):
            if c < len(chains[0]):
                out.append(x[a:b])
    return xs


def _group(loss: LossOracle, data, domain: Domain, x0, cfg: LocalizationConfig,
           streams: Iterable[RngStream]) -> tuple:
    """The ``_run_chains`` group of a ``run`` call: its checked samples and
    starts, and the one chain of ``cfg``."""
    samples, starts = _trial_inputs(loss, data, domain, x0, cfg.k * cfg.n0)
    return samples, starts, cfg.privacy, streams, (
        [0], [None], cfg.n0, _table(cfg, loss.lipschitz, loss.point_dim))


def run(
    loss: LossOracle,
    data: Dataset | Sequence[Dataset],
    domain: Domain,
    x0: np.ndarray,
    cfg: LocalizationConfig,
    streams: Iterable[RngStream],
    phase_trace: Optional[list] = None,
) -> np.ndarray:
    """Run the localization chain once per stream, all trials at once, and
    return one final (noised, projected) iterate per stream, as the rows of
    a ``(trials, d)`` array.

    Phase i solves the batch ERM anchored at the previous iterate over the
    trust region {x in domain : ||x - x_{i-1}|| <= 2 L eta_i n0} with
    eta_i = 2^{-4i} eta, then adds iid Laplace (pure mode) or isotropic
    Gaussian (approximate mode) noise and projects back onto ``domain``.
    Each sample is consumed by exactly one phase; leftover samples beyond
    k * n0 are discarded.

    ``data`` is one dataset shared by every trial or one per trial, and
    ``x0`` is one start point or one row per trial.  Trial t runs the chain
    on its own data and start, as the one group of ``_run_chains``, with
    its noise drawn from ``streams[t]`` by ``mechanisms.noise_rows`` (a
    block of ``RngStream.children`` has its Laplace draws made in arrays).
    ``phase_trace`` collects one ``PhaseRecord`` per phase whose points are
    ``(trials, d)`` arrays.
    """
    (xs,) = _run_chains(loss, domain, [_group(loss, data, domain, x0, cfg, streams)], phase_trace)
    return xs[-1]
