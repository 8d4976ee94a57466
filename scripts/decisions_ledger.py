"""Reproduce the numbers in docs/decisions.md.

Criterion 2: for the localization and epoch pipelines of the privacy audit,
the first phase's shift across the audit pair, its honest sigma_1, the
Laplace loss shift / (scale * sigma_1) at four noise multipliers (honest,
1/2, 1/8 and the 2-eps scale the acceptance test derives), and the histogram
falsifier's reading at each, plus the 2-eps margins at eps = 0.5 over
several independent streams.

Criterion 4: per sample size, the epoch schedule's first-phase regularizer
weight against the curvature of the kappa = 2 sweep instance, its movement
budget, the median excess of both statistical sweeps next to a drift model
that neglects the curvature, and the fitted slopes.

Screen: the separable solve's window over one priv_pure round at the
benchmark's size (20 seeds per cell, master seed offset 0): per band of the
phase's regularizer weight q, the rows, the rows the window certifies, the
rows it sends to the scan, and the window candidates per certified row.

Unit set-up: over one benchmark-sized round of each sweep chain config (the
seed counts of bench/run.py), the in-process time of each part of a sweep
unit's set-up and slots: the block sums, the schedule tables, the slot
masks and the 1-D power-norm kernel, each timed by replaying the calls the
round made.

Traffic: over one benchmark-shaped round of each bench/run.py workload at
seed 0 (the sweeps at their seeds per cell, the audit at 600 chain outputs
and its grid-sampler rows at 10 000), and over the acceptance audit config,
the ``localization._run_chains`` calls by the number of groups they run,
and the largest group; and per sweep of those rounds, the sweep units
``harness._execute`` runs, the trials in each, and the dtype and bytes of
the samples each unit holds.

Laplace: the audit's array log (``core._libm_log``) on 10^7 arguments
drawn as numpy's Laplace rule forms them (2U below U = 1/2, 2 - 2U above):
per screen margin (the shipped one, 0.01 and 0), the values whose kept
double-double log differs from ``math.log`` and the share sent to
``math.log``; the ns per value of the ``math.log`` map and of
``_libm_log`` on passes of the bench's 2 400 x 5 and 2 400 x 15 shapes, in
the chunks each takes; and the wall time of ``dpgrowth audit
configs/acceptance_audit.ini`` at --jobs 1.

Gaussian: per (epsilon, delta) budget, sigma / Delta of the retired default
sqrt(ln(1/delta)) / epsilon with its exact delta(epsilon) (Balle & Wang 2018,
Theorem 8, from scipy's normal cdf), of the retired conservative
2 ln(2/delta) / epsilon, and of ``mechanisms.gaussian_sigma`` with its exact
delta(epsilon), and the time of one uncached bisection.

Grid draws: one audit-1d round's ``inv_sensitivity.sample`` calls (the
grid-sampler rows at 10 000 outputs per dataset), each replayed on a fresh
copy of its stream: per call, the time of the former one-search-per-draw
lookup and of the guide table, and the share of draws that fall in buckets
a cdf value splits; then one single draw (the invsens sweep's call) each
way.

It needs scipy (``scipy.stats``), which the package's ``test`` extra
installs. Run from the repository root (on 2 CPUs with --jobs 2, --part 2 took
11.4-11.6 s and --part 4 1.9-2.7 s over two runs each; --part screen runs
in-process and takes under a second, --part unit-setup a few seconds,
--part traffic about ten, --part laplace about six, --part gaussian under
a second and --part grid-draws a few seconds):

    PYTHONPATH=src python scripts/decisions_ledger.py --part all --jobs 2
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import math
import multiprocessing
import statistics
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from scipy.stats import chi2, norm

from dpgrowth import core, epoch_growth, erm, harness, inv_sensitivity, localization, mechanisms
from dpgrowth.core import PrivacyParams, RngStream
from dpgrowth.harness import (
    _audit_chains,
    _audit_datasets,
    _audit_first_phase,
    fit_rate,
    load_config,
    main as cli,
    privacy_audit,
    run_sweep,
)
from dpgrowth.instances import ProblemInstance, build_instance
from dpgrowth.mechanisms import histogram_test

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The acceptance audit: configs/acceptance_audit.ini and the audit_rows
# fixture of tests/test_acceptance.py.
EPSILONS = (0.5, 1.0, 2.0)
N, TRIALS, BINS, SEED = 32, 100_000, 24, 7
PIPELINES = ("localization", "epoch_growth")
CHI2_MEDIAN = float(chi2.ppf(0.5, 1))
# Noise multipliers of the criterion 2 table; None is the derived 2-eps scale.
NOISES = (("honest", 1.0), ("sigma/2", 0.5), ("sigma/8", 0.125), ("2-eps", None))


def _stream_index(pipeline: str, eps: float, sabotaged: bool) -> int:
    """privacy_audit's task index for the row, so that honest, sigma/2 and
    2-eps readings at SEED repeat the audit's and the acceptance test's."""
    return PIPELINES.index(pipeline) * 2 * len(EPSILONS) + 2 * EPSILONS.index(eps) + sabotaged


def _report(task):
    """The audit report of a falsifier run ``(pipeline, eps, scale, seed,
    trials)``: the chain's outputs on each audit dataset, on the streams
    privacy_audit gives that row, compared by the audit's histogram test."""
    pipeline, eps, scale, seed, trials = task
    stream = RngStream(seed, _stream_index(pipeline, eps, scale != 1.0))
    outs = [_audit_chains(pipeline, [(scale, eps, dataset, stream.child(side), trials)])[0]
            for side, dataset in enumerate(_audit_datasets(N))]
    return histogram_test(*outs, eps, BINS)


def criterion_2(jobs: int, streams: int, trials: int) -> None:
    premise = {}
    for pipeline in PIPELINES:
        for eps in EPSILONS:
            shift, sigma = _audit_first_phase(pipeline, eps, N)
            premise[(pipeline, eps)] = (shift, sigma, shift / (2.0 * eps * sigma))
    tasks, keys = [], []
    for (pipeline, eps), (_, _, derived) in premise.items():
        for label, fixed in NOISES:
            tasks.append((pipeline, eps, fixed or derived, SEED, trials))
            keys.append((pipeline, eps, label, SEED))
    for pipeline in PIPELINES:
        derived = premise[(pipeline, 0.5)][2]
        for j in range(1, streams):
            tasks.append((pipeline, 0.5, derived, SEED + j, trials))
            keys.append((pipeline, 0.5, "2-eps", SEED + j))
    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        reports = dict(zip(keys, pool.map(_report, tasks)))

    print(f"## Criterion 2 (n={N}, trials={trials}, bins={BINS}, seed={SEED})\n")
    print("| pipeline | eps | shift | sigma_1 | noise | scale | loss | loss in eps "
          "| ratio | threshold | margin | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for (pipeline, eps), (shift, sigma, derived) in premise.items():
        for label, fixed in NOISES:
            s = fixed or derived
            loss = shift / (s * sigma)
            rep = reports[(pipeline, eps, label, SEED)]
            threshold = eps + rep.slack
            print(f"| {pipeline} | {eps:g} | {shift:.5f} | {sigma:.4f} | {label} "
                  f"| 1/{1 / s:.3f} | {loss:.4f} | eps/{eps / loss:.2f} "
                  f"| {rep.max_log_ratio:.3f} | {threshold:.3f} "
                  f"| {rep.max_log_ratio - threshold:+.3f} "
                  f"| {'pass' if rep.passed else 'FAIL'} |")
    print(f"\n2-eps sabotage at eps = 0.5 over {streams} streams "
          f"(master seeds {SEED}..{SEED + streams - 1}, the audit's task index):\n")
    print("| pipeline | seed | ratio | threshold | margin | verdict |")
    print("|---|---|---|---|---|---|")
    for pipeline in PIPELINES:
        margins = []
        for j in range(streams):
            rep = reports[(pipeline, 0.5, "2-eps", SEED + j)]
            threshold = 0.5 + rep.slack
            margins.append(rep.max_log_ratio - threshold)
            print(f"| {pipeline} | {SEED + j} | {rep.max_log_ratio:.3f} | {threshold:.3f} "
                  f"| {margins[-1]:+.3f} | {'pass' if rep.passed else 'FAIL'} |")
        print(f"| {pipeline} | min / max margin | | | {min(margins):+.3f} / "
              f"{max(margins):+.3f} | |")
    print()


def _schedule(instance, n: int, kappa_lower: float):
    """Epoch schedule of a noiseless stat sweep cell, read from the one
    schedule table the chains run, ``epoch_growth._chains``: one row per
    live epoch, one (eta_i, radius, reg_weight, ...) entry per phase.

    Returns the first phase's regularizer weight 2 lambda_1 = 2 / (eta_1 m)
    (m samples per phase), the bound 64 k sqrt(ln n0 ln(1/beta) / n0) that
    2 lambda_1 / curvature meets for every admissible instance
    (2 lam R <= L), the movement budget (the sum of every live phase's trust
    radius 2 L eta m), and the drift variance of the chain started at x* = 0
    with the curvature neglected: phase (e, i) steps by -ubar / (2 lambda)
    = -ubar eta m / 2, and ubar, (L/2) times the mean of m samples s = +-1,
    has variance L^2 / (4 m).
    """
    L, d = instance.loss.lipschitz, instance.loss.point_dim
    beta = 1.0 / (n + 1)
    cfg = epoch_growth.EpochConfig.for_run(
        n, instance.loss, instance.domain, kappa_lower, beta, PrivacyParams(1e6)
    )
    n0 = epoch_growth._block_size(n, cfg.T)
    _, _, m, table = epoch_growth._chains(cfg, n, L, d)
    phases = table.tolist()
    two_lam1 = 2.0 * phases[0][0][2]
    bound = 64.0 * table.shape[1] * math.sqrt(math.log(n0) * math.log(1.0 / beta) / n0)
    budget = drift_var = 0.0
    for epoch in phases:
        for eta, radius, *_ in epoch:
            budget += radius
            drift_var += L * L * eta * eta * m / 16.0
    return two_lam1, bound, budget, drift_var


def criterion_4(jobs: int) -> None:
    fits, medians, instances = {}, {}, {}
    with tempfile.TemporaryDirectory() as out:
        for key in ("stat_kappa2", "stat_kappa4"):
            cfg = load_config(CONFIGS / f"acceptance_{key}.ini")
            records, _, _ = run_sweep(cfg, Path(out) / key, jobs=jobs)
            fits[key] = fit_rate(records, "n")
            medians[key] = dict(zip(fits[key].x_values, fits[key].medians))
            instances[key] = build_instance(cfg.instance_name, d=1, **cfg.instance_params)
            kappa_lower = float(cfg.kappa_lower)
    inst2, inst4 = instances["stat_kappa2"], instances["stat_kappa4"]
    curvature = inst2.loss.structure.curvature
    coef4 = inst4.loss.structure.coef
    print("## Criterion 4 (noiseless stat sweeps, 100 seeds per n; "
          f"diameter {inst2.domain.diameter():g})\n")
    print("| n | 2 lambda_1 / curvature | 64 k sqrt(ln n0 ln(1/beta) / n0) "
          "| movement budget | median excess kappa=2 | drift model | n x median "
          "| median excess kappa=4 | drift model |")
    print("|---|---|---|---|---|---|---|---|---|")
    sizes = [2**j for j in range(9, 15)] + [2**j for j in (20, 25, 30, 33, 35, 38, 40)]
    model = {"stat_kappa2": [], "stat_kappa4": []}
    for n in sizes:
        two_lam1, bound, budget, var = _schedule(inst2, n, kappa_lower)
        # Median of a centred Gaussian drift x: x^2 has median CHI2_MEDIAN var.
        x2 = CHI2_MEDIAN * var
        model2, model4 = 0.5 * curvature * x2, coef4 * x2 * x2
        m2 = medians["stat_kappa2"].get(float(n))
        m4 = medians["stat_kappa4"].get(float(n))
        if m2 is None:
            cells = f"not swept | {model2:.3e} | | not swept | {model4:.3e}"
        else:
            model["stat_kappa2"].append(model2)
            model["stat_kappa4"].append(model4)
            cells = f"{m2:.3e} | {model2:.3e} | {n * m2:.3e} | {m4:.3e} | {model4:.3e}"
        print(f"| 2^{int(math.log2(n))} | {two_lam1 / curvature:.3g} | {bound:.3g} "
              f"| {budget:.3g} | {cells} |")
    print()
    for key in ("stat_kappa2", "stat_kappa4"):
        f = fits[key]
        model_slope = np.polyfit(np.log(f.x_values), np.log(model[key]), 1)[0]
        print(f"{key}: slope {f.slope:.3f} +- {f.stderr:.3f} over n = "
              f"{int(f.x_values[0])}..{int(f.x_values[-1])}; drift model {model_slope:.3f}")
    print(f"gap (kappa=4 minus kappa=2): "
          f"{fits['stat_kappa4'].slope - fits['stat_kappa2'].slope:.3f}")


# The bands of the screen table, in the phase's regularizer weight q.
Q_BANDS = ((1.0, 1e2), (1e2, 1e8), (1e8, 1e10), (1e10, 1e12))


def screen(seeds: int = 20) -> None:
    cfg = dataclasses.replace(load_config(CONFIGS / "acceptance_priv_pure.ini"), seeds=seeds)
    calls, window = [], erm._window

    def recording(rows, weight, q, a, roots):
        x, ok, kept = window(rows, weight, q, a, roots)
        calls.append((rows.shape, q.copy(), ok, kept))
        return x, ok, kept

    erm._window = recording
    try:
        with tempfile.TemporaryDirectory() as out:
            run_sweep(cfg, Path(out), jobs=1)
    finally:
        erm._window = window
    shapes = sorted({shape for shape, *_ in calls})
    print(f"## Screen (priv_pure, {seeds} seeds per cell, {len(calls)} window calls "
          f"of shape {', '.join(f'{r}x{m}' for r, m in shapes)})\n")
    print("| q | rows | certified | sent to the scan | mean kept | max kept |")
    print("|---|---|---|---|---|---|")
    q = np.concatenate([c[1] for c in calls])
    ok = np.concatenate([c[2] for c in calls])
    kept = np.concatenate([c[3] for c in calls])
    for lo, hi in Q_BANDS:
        band = (q >= lo) & (q < hi)
        if not band.any():
            continue
        k = kept[band & ok]
        print(f"| [{lo:g}, {hi:g}) | {int(band.sum())} | {k.size} | {int((band & ~ok).sum())} "
              f"| {k.mean() if k.size else float('nan'):.1f} | {k.max(initial=0)} |")
    print(f"\nOver the round: {ok.mean():.0%} of rows certified, "
          f"{(kept[ok] == 1).mean():.0%} of them with one candidate, mean {kept[ok].mean():.1f}.\n")


# The benchmark's sweep chain configs and their seeds per cell.
UNIT_CONFIGS = (("stat_kappa2", 20), ("stat_kappa4", 8), ("priv_epoch", 20), ("priv_pure", 20))
# The parts of a sweep unit: (label, module, function).  A schedule table is
# epoch_growth._chains for an epoch cell (which calls localization._table)
# and localization._table for a localization cell; the slot masks are the
# kernel's tolerance and regularizer-dominance tests.
UNIT_PARTS = (
    ("block sums", localization, "_block_means"),
    ("schedule", epoch_growth, "_chains"),
    ("schedule", localization, "_table"),
    ("slot masks", localization, "_phase_tol"),
    ("slot masks", erm, "_dominated"),
    ("kernel", erm, "_power_norm_1d"),
)


def _replay(calls, repeats: int) -> float:
    """Median seconds, over ``repeats`` passes, of making the recorded calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for f, args in calls:
            f(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def unit_setup(repeats: int = 20) -> None:
    labels = list(dict.fromkeys(label for label, *_ in UNIT_PARTS))
    print(f"## Unit set-up (one bench-sized round per config, in-process; each part's "
          f"calls replayed, median of {repeats} passes, ms)\n")
    print(f"| config | seeds | round | {' | '.join(labels)} | kernel calls |")
    print("|---|---|---|" + "---|" * len(labels) + "---|")
    for key, seeds in UNIT_CONFIGS:
        cfg = dataclasses.replace(load_config(CONFIGS / f"acceptance_{key}.ini"), seeds=seeds)
        calls = {label: [] for label in labels}
        inside = []

        def recorder(label, f):
            def recorded(*args):
                if not inside:  # _table inside _chains is the schedule's own
                    calls[label].append((f, args))
                inside.append(label)
                try:
                    return f(*args)
                finally:
                    inside.pop()
            return recorded

        with tempfile.TemporaryDirectory() as out:
            rounds = []
            for _ in range(5):
                start = time.perf_counter()
                run_sweep(cfg, Path(out), jobs=1)
                rounds.append(time.perf_counter() - start)
            originals = [(module, name, getattr(module, name)) for _, module, name in UNIT_PARTS]
            for (label, *_), (module, name, f) in zip(UNIT_PARTS, originals):
                setattr(module, name, recorder(label, f))
            try:
                run_sweep(cfg, Path(out), jobs=1)
            finally:
                for module, name, f in originals:
                    setattr(module, name, f)
        parts = " | ".join(f"{1e3 * _replay(calls[label], repeats):.2f}" for label in labels)
        print(f"| {key} | {seeds} | {1e3 * statistics.median(rounds):.2f} | {parts} "
              f"| {len(calls['kernel'])} |")
    print()


# bench/run.py's workloads: the sweeps' configs, each at its seeds per cell,
# and the audit's chain and grid-sampler outputs per dataset.
TRAFFIC_SWEEPS = (("sweep-noiseless-1d", ("stat_kappa2", "stat_kappa4")),
                  ("sweep-private", ("priv_epoch", "priv_pure", "invsens")))
TRAFFIC_SEEDS = dict(UNIT_CONFIGS, invsens=80)
AUDIT_TRIALS, AUDIT_GRID_TRIALS = 600, 10_000


def _sweeps(keys) -> None:
    with tempfile.TemporaryDirectory() as out:
        for key in keys:
            cfg = load_config(CONFIGS / f"acceptance_{key}.ini")
            run_sweep(dataclasses.replace(cfg, seeds=TRAFFIC_SEEDS[key]), Path(out), jobs=1)


def _audits() -> None:
    common = dict(epsilons=EPSILONS, n=N, bins=BINS, master_seed=SEED)
    privacy_audit(pipelines=PIPELINES, trials=AUDIT_TRIALS, **common)
    privacy_audit(pipelines=("inv_sensitivity",), trials=AUDIT_GRID_TRIALS, **common)


def _acceptance_audit() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli(["audit", str(CONFIGS / "acceptance_audit.ini"), "--jobs", "1"])


def traffic() -> None:
    runs = [("audit-1d", _audits)]
    runs += [(name, lambda keys=keys: _sweeps(keys)) for name, keys in TRAFFIC_SWEEPS]
    runs.append(("acceptance audit", _acceptance_audit))
    run_chains, sizes = localization._run_chains, []
    execute, units, held = harness._execute, {}, {}
    draw, unit_held = ProblemInstance.draw, None

    def counted(loss, domain, groups, *args):
        xs = run_chains(loss, domain, groups, *args)
        sizes.append([len(out[0]) for out in xs])
        if unit_held is not None:
            unit_held[0].update(str(group[0].dtype) for group in groups)
            unit_held[1] += sum(group[0].nbytes for group in groups)
        return xs

    def drawn(self, n, rng):
        data = draw(self, n, rng)
        if unit_held is not None:
            unit_held[0].add(str(data.samples.dtype))
            unit_held[1] = max(unit_held[1], data.samples.nbytes)
        return data

    def counted_unit(unit):
        nonlocal unit_held
        cfg, _, cells = unit
        key = (run_name, cfg.name, cfg.algorithm)
        units.setdefault(key, []).append(sum(len(seeds) for *_, seeds in cells))
        unit_held = [set(), 0]
        try:
            return execute(unit)
        finally:
            held.setdefault(key, []).append(tuple(unit_held))
            unit_held = None

    print("## Traffic (`_run_chains` calls per run, in-process, --jobs 1)\n")
    print("| run | calls | one-group calls | calls by group count | largest group |")
    print("|---|---|---|---|---|")
    localization._run_chains, harness._execute = counted, counted_unit
    ProblemInstance.draw = drawn
    try:
        for run_name, run in runs:
            sizes.clear()
            run()
            counts = Counter(map(len, sizes))
            by_groups = ", ".join(f"{g}: {c}" for g, c in sorted(counts.items()))
            print(f"| {run_name} | {len(sizes)} | {counts.get(1, 0)} | {by_groups or '-'} "
                  f"| {max((max(call) for call in sizes), default=0)} |")
    finally:
        localization._run_chains, harness._execute = run_chains, execute
        ProblemInstance.draw = draw
    print("\n## Sweep units (`harness._execute` calls per sweep, in-process, --jobs 1)\n")
    print("Held samples: the dtypes of the sample arrays a unit holds, its chain")
    print("groups' (all at once) and its `ProblemInstance.draw` datasets' (one at a")
    print("time); bytes: the groups' arrays plus the largest such dataset.\n")
    print("| run | sweep | algorithm | units | units by trials per unit | held samples "
          "| bytes held per unit |")
    print("|---|---|---|---|---|---|---|")
    for (run_name, sweep, algorithm), trials in units.items():
        by_size = ", ".join(f"{t}: {c}" for t, c in sorted(Counter(trials).items()))
        dtypes = sorted(set().union(*(d for d, _ in held[run_name, sweep, algorithm])))
        nbytes = sorted(b for _, b in held[run_name, sweep, algorithm])
        span = f"{nbytes[0]:,}" + (f"-{nbytes[-1]:,}" if nbytes[-1] != nbytes[0] else "")
        print(f"| {run_name} | {sweep} | {algorithm} | {len(trials)} | {by_size} "
              f"| {', '.join(dtypes)} | {span} |")
    print()


# The Laplace log: arguments per scan, the margins scanned, and the audit
# pass shapes (streams, draws per stream) timed.
LOG_SCAN = 10**7
LOG_MARGINS = (core._LOG_MARGIN, 0.01, 0.0)
LOG_SHAPES = ((2400, 5), (2400, 15))
# Rows per math.log map call, as children_laplace made them before the array log.
MAP_LOG_ROWS = 600


def _laplace_args(gen, count: int) -> np.ndarray:
    u = gen.integers(1, 2**53, count) * 2.0**-53
    return np.where(u >= 0.5, 2.0 - u - u, u + u)


def _map_log(args: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, args.tolist()), float, len(args))


def _per_value_ns(log, args: np.ndarray, rows: int, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for a in range(0, len(args), rows):
            log(args[a : a + rows].ravel())
        best = min(best, time.perf_counter() - start)
    return best / args.size * 1e9


def laplace(repeats: int = 7) -> None:
    gen = np.random.default_rng(SEED)
    wrong, sent = Counter(), Counter()
    for start in range(0, LOG_SCAN, core._LOG_VALUES):
        args = _laplace_args(gen, min(core._LOG_VALUES, LOG_SCAN - start))
        libm = _map_log(args)
        y, z = core._dd_log(args)
        for margin in LOG_MARGINS:
            kept = core._log_kept(y, z, margin)
            wrong[margin] += int(np.count_nonzero(kept & (y != libm)))
            sent[margin] += len(args) - int(np.count_nonzero(kept))
    print(f"## The Laplace log's screen ({LOG_SCAN:,} arguments, in-process)\n")
    print("| margin (ulp) | kept values that differ from math.log | share sent to math.log |")
    print("|---|---|---|")
    for margin in LOG_MARGINS:
        print(f"| {margin:g} | {wrong[margin]} | {sent[margin] / LOG_SCAN:.2%} |")
    print(f"\n## ns per value of each log (best of {repeats}, in-process)\n")
    print("| pass shape | math.log map | _libm_log |")
    print("|---|---|---|")
    for streams, size in LOG_SHAPES:
        args = _laplace_args(gen, streams * size).reshape(streams, size)
        old = _per_value_ns(_map_log, args, MAP_LOG_ROWS, repeats)
        new = _per_value_ns(core._libm_log, args, max(1, core._LOG_VALUES // size), repeats)
        print(f"| {streams} x {size} | {old:.1f} | {new:.1f} |")
    start = time.perf_counter()
    _acceptance_audit()
    print(f"\n`dpgrowth audit configs/acceptance_audit.ini --jobs 1`: "
          f"{time.perf_counter() - start:.2f} s\n")


GAUSSIAN_BUDGETS = ((0.5, 1e-3), (1.0, 1e-3), (0.5, 1e-5), (1.0, 1e-5), (1.0, 1e-6), (2.0, 1e-6),
                    (1.0, 1e-10))


def _exact_delta(epsilon: float, s: float) -> float:
    a, y = 0.5 / s - epsilon * s, 0.5 / s + epsilon * s
    return float(norm.cdf(a)) - math.exp(epsilon + float(norm.logcdf(-y)))


def gaussian(repeats: int = 20) -> None:
    print("## One Gaussian calibration (sigma / Delta; delta(eps) exact, from scipy)\n")
    print("| eps | delta | retired sqrt(ln(1/delta))/eps | its delta(eps) | retired 2 ln(2/delta)/eps "
          "| gaussian_sigma | its delta(eps) / delta - 1 | one bisection |")
    print("|---|---|---|---|---|---|---|---|")
    for eps, delta in GAUSSIAN_BUDGETS:
        old = math.sqrt(math.log(1.0 / delta)) / eps
        old_delta = _exact_delta(eps, old)
        conservative = 2.0 * math.log(2.0 / delta) / eps
        best = math.inf
        for _ in range(repeats):
            mechanisms._gaussian_scale.cache_clear()
            start = time.perf_counter()
            new = mechanisms.gaussian_sigma(1.0, eps, delta)
            best = min(best, time.perf_counter() - start)
        print(f"| {eps:g} | {delta:g} | {old:.3f} | {old_delta:.3g} ({old_delta / delta:.1f}x) | "
              f"{conservative:.1f} ({conservative / new:.1f}x) | {new:.3f} | "
              f"{_exact_delta(eps, new) / delta - 1:+.1e} | "
              f"{best * 1e6:.0f} us |")
    print()


def _searched(density, rng, size=None):
    """The grid sampler's former lookup: one binary search per draw."""
    cdf = np.cumsum(density.probabilities)
    cdf[-1] = 1.0
    u = rng.gen.random(1 if size is None else size)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    picked = density.points[idx]
    return picked[0] if size is None else picked


def _split_share(density, rng, size) -> float:
    """The share of the call's draws in buckets that a cdf value splits,
    with ``inv_sensitivity.sample``'s table."""
    cdf = np.cumsum(density.probabilities)
    cdf[-1] = 1.0
    u = rng.gen.random(size)
    buckets = 1 << max((size // 8).bit_length() - 1, 0)
    counts = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="left")
    return float(np.mean((counts[:-1] != counts[1:])[(u * buckets).astype(np.intp)]))


def _call_us(f, density, rng, size, repeats: int) -> float:
    return 1e6 * _replay([(lambda: f(density, RngStream(rng.seed, rng.stream), size), ())],
                         repeats)


def grid_draws(repeats: int = 50) -> None:
    calls, sample = [], inv_sensitivity.sample

    def recorded(density, rng, size=None):
        calls.append((density, RngStream(rng.seed, rng.stream), size))
        return sample(density, rng, size)

    inv_sensitivity.sample = recorded
    try:
        privacy_audit(pipelines=("inv_sensitivity",), trials=AUDIT_GRID_TRIALS, epsilons=EPSILONS,
                      n=N, bins=BINS, master_seed=SEED)
    finally:
        inv_sensitivity.sample = sample
    print(f"## Grid draws (one audit-1d round's sample calls, each replayed on a fresh copy of "
          f"its stream; median of {repeats}, in-process)\n")
    print("| call | points | draws | one search per draw (us) | guide table (us) "
          "| draws in split buckets |")
    print("|---|---|---|---|---|---|")
    totals = [0.0, 0.0]
    for i, (density, rng, size) in enumerate(calls):
        assert np.array_equal(_searched(density, RngStream(rng.seed, rng.stream), size),
                              sample(density, RngStream(rng.seed, rng.stream), size))
        times = [_call_us(f, density, rng, size, repeats) for f in (_searched, sample)]
        totals = [a + b for a, b in zip(totals, times)]
        share = _split_share(density, RngStream(rng.seed, rng.stream), size)
        print(f"| {i} | {len(density.points)} | {size} | {times[0]:.0f} | {times[1]:.0f} "
              f"| {share:.1%} |")
    print(f"| all {len(calls)} | | | {totals[0]:.0f} | {totals[1]:.0f} | |")
    density, rng, _ = calls[0]
    single = [_call_us(f, density, rng, None, 20 * repeats) for f in (_searched, sample)]
    print(f"\nOne draw (size None) on call 0's density: {single[0]:.1f} us searched, "
          f"{single[1]:.1f} us by the table.\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--part", choices=("2", "4", "screen", "unit-setup", "traffic", "laplace",
                                           "gaussian", "grid-draws", "all"),
                        default="all")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--streams", type=int, default=9,
                        help="independent streams for the eps = 0.5 margins")
    parser.add_argument("--trials", type=int, default=TRIALS)
    args = parser.parse_args()
    if args.part in ("2", "all"):
        criterion_2(args.jobs, args.streams, args.trials)
    if args.part in ("4", "all"):
        criterion_4(args.jobs)
    if args.part in ("screen", "all"):
        screen()
    if args.part in ("unit-setup", "all"):
        unit_setup()
    if args.part in ("traffic", "all"):
        traffic()
    if args.part in ("laplace", "all"):
        laplace()
    if args.part in ("gaussian", "all"):
        gaussian()
    if args.part in ("grid-draws", "all"):
        grid_draws()


if __name__ == "__main__":
    main()
