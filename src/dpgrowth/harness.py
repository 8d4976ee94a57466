"""Experiment front-end: INI config parsing, seeded sweep execution with CSV
and JSON persistence, log-log rate fitting, the end-to-end privacy audit, and
the command-line interface."""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from configparser import ConfigParser
from configparser import Error as IniError
from dataclasses import asdict, dataclass, fields
from itertools import accumulate, product
from pathlib import Path

import numpy as np

from . import epoch_growth, inv_sensitivity, localization
from .core import (
    Dataset,
    InvalidInputError,
    PrivacyParams,
    ResourceError,
    RngStream,
    derive_stream_key,
    project,
)
from .instances import ProblemInstance, build_instance
from .mechanisms import DpTestReport, check_dp_test, check_noise_scale, histogram_test

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "CSV_COLUMNS",
    "load_config",
    "run_sweep",
    "fit_rate",
    "RateFit",
    "privacy_audit",
    "AuditRow",
    "main",
]

ALGORITHMS = ("localization", "epoch_growth", "inv_sensitivity", "erm_oracle")


@dataclass(frozen=True)
class TrialRecord:
    config_hash: str
    instance: str
    algorithm: str
    n: int
    d: int
    epsilon: float
    delta: float
    kappa: float | None
    kappa_lower: float | None
    seed: int
    excess_emp: float
    excess_pop: float
    epoch_i0: int | None
    wall_ms: float
    error: str = ""


# The frozen CSV schema: every TrialRecord field but wall time, which is
# deliberately not a column: the CSV is the byte-reproducible artifact of a
# run, and timings land in the JSON summary instead.
CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "wall_ms")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    algorithm: str
    instance_name: str
    instance_params: dict
    d_default: int
    seeds: int
    master_seed: int
    beta: float | None  # None means 1/(n+d) per cell
    x0_offset: float
    sweep_n: tuple
    sweep_epsilon: tuple
    sweep_delta: tuple
    sweep_d: tuple | None
    sweep_kappa_lower: tuple | None
    kappa_lower: float | None
    noise_scale: float
    rho: float | None
    grid_spacing: float | None
    output_prefix: str

    def config_hash(self) -> str:
        # The retired gaussian_conservative field keeps every config's hash.
        payload = repr(sorted({**asdict(self), "gaussian_conservative": False}.items())).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    def cells(self) -> list[dict]:
        d_axis = self.sweep_d if self.sweep_d else (self.d_default,)
        kl_axis = (
            self.sweep_kappa_lower if self.sweep_kappa_lower else (self.kappa_lower,)
        )
        out = []
        for n, d, eps, delta, kl in product(
            self.sweep_n, d_axis, self.sweep_epsilon, self.sweep_delta, kl_axis
        ):
            if not all(isinstance(v, int) or v.is_integer() for v in (n, d)):
                raise InvalidInputError(f"n and d must be integers, got n = {n}, d = {d}")
            out.append(dict(n=int(n), d=int(d), epsilon=float(eps), delta=float(delta),
                            kappa_lower=None if kl is None else float(kl)))
        return out


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _numbers(text: str) -> tuple:
    """A nonempty comma-separated list of numbers, each as ``_parse_scalar``
    reads it."""
    values = tuple(_parse_scalar(tok) for tok in text.split(",") if tok.strip())
    if not values or any(isinstance(v, (str, bool)) for v in values):
        raise ValueError
    return values


def _boolean(text: str) -> bool:
    """A boolean spelled as ``ConfigParser.getboolean`` accepts it."""
    return ConfigParser.BOOLEAN_STATES[text.lower()]


# The keys each config section may hold.  [instance] holds ``name``, ``d``
# and the generator's parameters, which ``build_instance`` checks.
_CONFIG_KEYS = {
    "experiment": {"name", "algorithm", "seeds", "master_seed", "beta", "x0_offset", "n"},
    "instance": None,
    "sweep": {"n", "epsilon", "delta", "d", "kappa_lower"},
    "algorithm": {"kappa_lower", "noise_scale", "rho", "grid_spacing"},
    "output": {"prefix"},
    "audit": {"epsilons", "n", "trials", "bins", "pipelines", "sabotage"},
}


def _read_ini(path: str | Path, required: tuple) -> ConfigParser:
    """Read an INI file with ``;`` and ``#`` inline comments, keeping option
    case (instance parameters like L, R).  It must hold the ``required``
    sections, and only the sections and keys of ``_CONFIG_KEYS``, which are
    then all present."""
    parser = ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    try:
        if not parser.read(path):
            raise InvalidInputError(f"cannot read config {path}")
    except IniError as exc:  # on one line, as the CLI prints one error line
        message = " ".join(str(exc).split())
        raise InvalidInputError(f"cannot parse config {path}: {message}") from None
    for name in parser.sections():
        if name not in _CONFIG_KEYS:
            raise InvalidInputError(f"config {path}: unknown section [{name}]; "
                                    f"known: {', '.join(_CONFIG_KEYS)}")
        unknown = sorted(set(parser[name]) - (_CONFIG_KEYS[name] or set(parser[name])))
        if unknown:
            raise InvalidInputError(f"config {path}: unknown key {unknown[0]!r} in [{name}]; "
                                    f"known: {', '.join(sorted(_CONFIG_KEYS[name]))}")
    for name in required:
        if not parser.has_section(name):
            raise InvalidInputError(f"config {path} has no [{name}] section")
    parser.read_dict(dict.fromkeys(_CONFIG_KEYS, {}))
    return parser


def _get(section, key: str, parse, default=None):
    """``parse`` of the text of ``key`` in a config section, or ``default``
    if absent; text that ``parse`` rejects is an error naming both."""
    if key not in section:
        return default
    try:
        return parse(section[key])
    except (KeyError, ValueError):
        message = f"config [{section.name}] {key}: cannot read {section[key]!r}"
    raise InvalidInputError(message)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse the flat INI experiment format (see README for the grammar)."""
    parser = _read_ini(path, required=("experiment", "instance"))
    exp, inst, sweep, algo = (parser[name] for name in ("experiment", "instance", "sweep",
                                                          "algorithm"))
    algorithm = exp.get("algorithm", "localization").strip()
    if algorithm not in ALGORITHMS:
        raise InvalidInputError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    instance_params = {
        key: _parse_scalar(val) for key, val in inst.items() if key not in ("name", "d")
    }
    seeds = _get(exp, "seeds", int, 1)
    if seeds < 1:
        raise InvalidInputError("seeds must be >= 1")
    x0_offset = _get(exp, "x0_offset", float, 0.05)
    if not math.isfinite(x0_offset):
        raise InvalidInputError(f"x0_offset must be finite, got {x0_offset}")
    cfg = ExperimentConfig(
        name=exp.get("name", Path(path).stem).strip(),
        algorithm=algorithm,
        instance_name=inst.get("name", "").strip(),
        instance_params=instance_params,
        d_default=_get(inst, "d", int, 1),
        seeds=seeds,
        master_seed=_get(exp, "master_seed", int, 0),
        beta=_get(exp, "beta", lambda text: None if text.lower() == "auto" else float(text)),
        x0_offset=x0_offset,
        sweep_n=_get(sweep, "n", _numbers, (_get(exp, "n", int, 256),)),
        sweep_epsilon=_get(sweep, "epsilon", _numbers, (1.0,)),
        sweep_delta=_get(sweep, "delta", _numbers, (0.0,)),
        sweep_d=_get(sweep, "d", _numbers),
        sweep_kappa_lower=_get(sweep, "kappa_lower", _numbers),
        kappa_lower=_get(algo, "kappa_lower", float),
        noise_scale=_get(algo, "noise_scale", float, 1.0),
        rho=_get(algo, "rho", float),
        grid_spacing=_get(algo, "grid_spacing", float),
        output_prefix=parser["output"].get("prefix", Path(path).stem).strip(),
    )
    if not cfg.instance_name:
        raise InvalidInputError("config must name an instance")
    return cfg


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def _build_cell_instance(cfg: ExperimentConfig, cell: dict) -> ProblemInstance:
    params = dict(cfg.instance_params)
    if cfg.instance_name != "sharp_growth":
        params["d"] = cell["d"]
    instance = build_instance(cfg.instance_name, **params)
    # sharp_growth is one-dimensional whatever d the config gives.
    if instance.domain.dim != cell["d"]:
        raise InvalidInputError(f"instance {cfg.instance_name!r} has d = {instance.domain.dim}, "
                                f"not {cell['d']}")
    return instance


def _cell_beta(cfg: ExperimentConfig, cell: dict) -> float:
    if cfg.beta is not None:
        return cfg.beta
    return 1.0 / (cell["n"] + cell["d"])


def _starting_point(instance: ProblemInstance, offset: float, rng: RngStream) -> np.ndarray:
    d = instance.domain.dim
    direction = rng.gen.standard_normal(d)
    direction /= max(float(np.linalg.norm(direction)), 1e-300)
    x0 = instance.xstar + offset * instance.domain.radius * direction
    return project(instance.domain, x0)


def _chain_config(algorithm: str, instance: ProblemInstance, n: int, d: int, beta: float,
                  privacy: PrivacyParams, kappa_lower, **kwargs):
    """The run config of a localization or epoch_growth chain on n samples
    in dimension d; ``kwargs`` set the config's noise options."""
    loss, domain = instance.loss, instance.domain
    if algorithm == "localization":
        eta = localization.default_eta(domain.diameter(), loss.lipschitz, n, beta, privacy, d)
        return localization.LocalizationConfig.for_data_size(n, eta, privacy, **kwargs)
    if kappa_lower is None:
        raise InvalidInputError("epoch_growth needs kappa_lower")
    return epoch_growth.EpochConfig.for_run(
        n, loss, domain, float(kappa_lower), beta, privacy, **kwargs
    )


def _cell_setup(cfg: ExperimentConfig, cell: dict, instance: ProblemInstance) -> tuple:
    """A cell's privacy budget and its run config: a chain algorithm's config,
    the grid sampler's checked ``(rho, h)``, or None for the ERM oracle."""
    if cell["n"] < 1:
        raise InvalidInputError(f"n must be >= 1, got {cell['n']}")
    privacy = PrivacyParams(cell["epsilon"], cell["delta"])
    if cfg.algorithm == "inv_sensitivity":
        return privacy, inv_sensitivity.grid_parameters(
            instance.loss, cell["n"], instance.domain, privacy.epsilon, cfg.rho,
            cfg.grid_spacing, instance.growth)
    if cfg.algorithm not in _CHAINS:
        return privacy, None
    return privacy, _chain_config(
        cfg.algorithm, instance, cell["n"], cell["d"], _cell_beta(cfg, cell), privacy,
        cell["kappa_lower"], noise_scale=cfg.noise_scale)


# A unit takes as many seeds as hold about this many sample values (n * d per
# trial) in all: a chain unit holds its trials' datasets at once, the others
# one at a time.
_BATCH_SAMPLES = 2**22


def _units(cfg: ExperimentConfig, cfg_hash: str, jobs: int) -> list:
    """The sweep's units of work, each ``(cfg, cfg_hash, cells)`` with
    ``cells`` a list of ``(cell index, cell, seed range)`` that share d.

    A unit spans every cell of its d for a range of seeds: as many as hold
    about ``_BATCH_SAMPLES`` sample values, and with ``jobs > 1`` at most a
    ``jobs``-th of the seeds, so each worker gets a unit."""
    cells = list(enumerate(cfg.cells()))
    units = []
    for d in dict.fromkeys(cell["d"] for _, cell in cells):
        share = [(index, cell) for index, cell in cells if cell["d"] == d]
        size = max(1, _BATCH_SAMPLES // sum(cell["n"] * d for _, cell in share))
        if jobs > 1:
            size = min(size, -(-cfg.seeds // jobs))
        for lo in range(0, cfg.seeds, size):
            seeds = range(lo, min(lo + size, cfg.seeds))
            units.append((cfg, cfg_hash, [(index, cell, seeds) for index, cell in share]))
    return units


def _chain_group(cfg: ExperimentConfig, instance: ProblemInstance, cell: dict, run_cfg,
                 keys: list) -> tuple:
    """The ``localization._run_chains`` group of a chain cell's trials, one
    per stream key: each trial's data, start and noise come from its
    streams 0, 2 and 1.  The samples are drawn one at a time as the group
    takes them in, so only the sampler's own arrays are held together, in
    the dtype ``draw_samples`` draws them in, with no float64 copy."""
    # At offset 0 every start is xstar + 0 * direction, which has xstar's bits
    # unless xstar holds a -0.0 (no instance's does): one shared row, no draws.
    x0 = [project(instance.domain, instance.xstar)] if cfg.x0_offset == 0.0 else [
        _starting_point(instance, cfg.x0_offset, RngStream(key, 2)) for key in keys]
    data = (instance.draw_samples(cell["n"], RngStream(key, 0)) for key in keys)
    return _CHAINS[cfg.algorithm]._group(instance.loss, data, instance.domain, np.array(x0),
                                         run_cfg, [RngStream(key, 1) for key in keys])


def _execute_trial(unit) -> list[TrialRecord]:
    """A unit of one sweep trial, on its own streams."""
    return _execute(unit)


def _execute_unit(unit) -> list[TrialRecord]:
    """One unit of sweep work: a single trial, or a lockstep batch."""
    (_, _, ((_, _, seeds), *more)) = unit
    return _execute_trial(unit) if len(seeds) == 1 and not more else _execute(unit)


def _execute(unit) -> list[TrialRecord]:
    """Run a unit's trials, cell after cell and seed after seed, on one
    instance and one set-up per cell.  The trials of chain cells run as one
    ``localization._run_chains`` batch, one group per cell, in lockstep,
    each scored on the samples its group holds (int8 ones as they are).
    The others run one after another, each scored as soon as its output is
    drawn, so that only one dataset is held at a time.

    Each trial keeps its own streams, data and start point, so a record
    equals the one its trial writes alone, apart from ``wall_ms``: that is
    the unit's time divided by its trials, across cells.  A grid-sampler or
    ERM-oracle trial that raises records its own error.  A chain unit, or a
    set-up, that raises runs again cell by cell, and a cell that raises
    trial by trial, since the error may be one trial's alone (a power-norm
    phase whose certificate fails, say, and whose solve then raises
    ``ConvergenceError``); each trial then writes the row it writes alone.
    """
    cfg, cfg_hash, cells = unit
    trials = [(index, cell, s) for index, cell, seeds in cells for s in seeds]
    keys = [derive_stream_key(cfg.master_seed, index * cfg.seeds + s) for index, _, s in trials]
    t0 = time.perf_counter()
    instance = _build_cell_instance(cfg, cells[0][1])
    epoch_i0 = [None] * len(trials)
    errors = [""] * len(trials)
    excess = [(math.nan, math.nan)] * len(trials)
    try:
        loss, domain = instance.loss, instance.domain
        setups = [_cell_setup(cfg, cell, instance) for _, cell, _ in cells]
        if cfg.algorithm in _CHAINS:
            bounds = [0, *accumulate(len(seeds) for *_, seeds in cells)]
            groups = [_chain_group(cfg, instance, cell, run_cfg, keys[a:b]) for (_, cell, _),
                      (_, run_cfg), a, b in zip(cells, setups, bounds, bounds[1:])]
            xs = localization._run_chains(loss, domain, groups)
            x_out = [x for out in xs for x in out[-1]]
            samples = [s for group in groups for s in group[0]]
            excess = [(instance.excess_emp(x, s), instance.excess_pop(x))
                      for x, s in zip(x_out, samples)]
            if cfg.algorithm == "epoch_growth":
                epoch_i0 = [
                    i0 for (_, run_cfg), group, out in zip(setups, groups, xs)
                    for i0 in epoch_growth.indices_in_region(
                        epoch_growth._records(run_cfg, group[4], out), instance.xstar)
                ]
        else:
            per_trial = [setup for (*_, seeds), setup in zip(cells, setups) for _ in seeds]
            for i, ((_, cell, _), (privacy, grid), key) in enumerate(zip(trials, per_trial, keys)):
                try:
                    data = instance.draw(cell["n"], RngStream(key, 0))
                    if grid is None:
                        x, fmin = instance.empirical_min(data)
                        emp = instance.emp_value(x, data) - fmin
                    else:
                        density = inv_sensitivity.build_density(
                            loss, data, domain, privacy.epsilon, rho=grid[0], h=grid[1])
                        x = inv_sensitivity.sample(density, RngStream(key, 1))
                        emp = instance.excess_emp(x, data)
                    excess[i] = (emp, instance.excess_pop(x))
                except (InvalidInputError, RuntimeError) as exc:
                    errors[i] = f"{type(exc).__name__}: {exc}"
    except (InvalidInputError, RuntimeError) as exc:
        if len(trials) > 1:
            parts = [[c] for c in cells] if len(cells) > 1 else [
                [(index, cell, range(s, s + 1))] for index, cell, s in trials]
            return [rec for part in parts for rec in _execute_unit((cfg, cfg_hash, part))]
        errors = [f"{type(exc).__name__}: {exc}"]
    wall_ms = (time.perf_counter() - t0) * 1e3 / len(trials)
    kappa = None if instance.growth is None else instance.growth.kappa
    return [
        TrialRecord(
            config_hash=cfg_hash, instance=instance.description, algorithm=cfg.algorithm,
            n=cell["n"], d=cell["d"], epsilon=cell["epsilon"], delta=cell["delta"],
            kappa=kappa, kappa_lower=cell["kappa_lower"], seed=seed_index,
            excess_emp=emp, excess_pop=pop, epoch_i0=i0, wall_ms=wall_ms,
            # A negative excess is an error too.
            error=error or (
                f"negative-excess: emp={emp:.3e} pop={pop:.3e}" if min(emp, pop) < -1e-7 else ""
            ),
        )
        for (_, cell, seed_index), (emp, pop), i0, error in zip(trials, excess, epoch_i0, errors)
    ]


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # A numpy float's repr reads "np.float64(...)".
        return repr(float(value))
    return str(value)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")


def run_sweep(
    cfg: ExperimentConfig, out_dir: str | Path, jobs: int = 1
) -> tuple[list[TrialRecord], Path, Path]:
    """Execute the full grid x seed product; write one CSV row per trial plus
    a JSON summary of per-cell medians and (1-beta)-quantiles.

    Output is deterministic given the master seed: per-trial streams are
    indexed by the trial's position in the sorted grid enumeration, and rows
    are written in that order regardless of scheduling.
    """
    _check_jobs(jobs)
    # Every cell's instance, budget and run config is built once here, so a
    # bad sweep value fails before any trial runs or any file is written.
    instances: dict = {}
    for cell in cfg.cells():
        if cell["d"] not in instances:
            instances[cell["d"]] = _build_cell_instance(cfg, cell)
        _cell_setup(cfg, cell, instances[cell["d"]])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = _units(cfg, cfg.config_hash(), jobs)
    results = list(_mapped(_execute_unit, units, jobs))
    # Rows in grid order: by stream index, cell after cell, seed after seed.
    order = [index * cfg.seeds + s for _, _, cells in units for index, _, seeds in cells
             for s in seeds]
    records = [rec for _, rec in sorted(zip(order, (rec for result in results for rec in result)),
                                        key=lambda pair: pair[0])]

    csv_path = out_dir / f"{cfg.output_prefix}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_format_field(getattr(rec, col)) for col in CSV_COLUMNS])

    summary_path = out_dir / f"{cfg.output_prefix}_summary.json"
    summary = summarize(cfg, records)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return records, csv_path, summary_path


def summarize(cfg: ExperimentConfig, records: list[TrialRecord]) -> dict:
    """Per-cell medians and high-confidence quantiles, recomputable from rows."""
    cells = []
    for cell in cfg.cells():
        rows = [
            r
            for r in records
            if (r.n, r.d, r.epsilon, r.delta, r.kappa_lower)
            == (cell["n"], cell["d"], cell["epsilon"], cell["delta"], cell["kappa_lower"])
        ]
        good = [r for r in rows if not r.error]
        beta = _cell_beta(cfg, cell)
        entry = dict(cell)
        entry.update(
            beta=beta,
            n_trials=len(rows),
            n_errors=len(rows) - len(good),
            median_excess_pop=None,
            quantile_excess_pop=None,
            quantile_level=1.0 - beta,
            median_excess_emp=None,
            median_wall_ms=float(np.median([r.wall_ms for r in rows])) if rows else None,
        )
        if good:
            pops = np.array([r.excess_pop for r in good])
            emps = np.array([r.excess_emp for r in good])
            entry["median_excess_pop"] = float(np.median(pops))
            entry["quantile_excess_pop"] = float(
                np.quantile(pops, 1.0 - beta, method="higher")
            )
            entry["median_excess_emp"] = float(np.median(emps))
        cells.append(entry)
    return {
        "name": cfg.name,
        "config_hash": cfg.config_hash(),
        "algorithm": cfg.algorithm,
        "instance": cfg.instance_name,
        "seeds": cfg.seeds,
        "master_seed": cfg.master_seed,
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float
    intercept: float
    x_values: tuple
    medians: tuple


def fit_rate(
    records: list[TrialRecord] | list[dict],
    x_field: str,
    y_field: str = "excess_pop",
) -> RateFit:
    """Ordinary least squares on (log x, log median y) across grid cells.

    Requires at least three distinct values on the swept axis, one value on
    each other axis among n, epsilon, d, delta and kappa_lower, and positive
    medians; trials with errors are dropped.
    """
    if x_field not in ("n", "epsilon", "d"):
        raise InvalidInputError("x_field must be one of n, epsilon, d")
    rows = [r if isinstance(r, dict) else asdict(r) for r in records]
    rows = [r for r in rows if not r.get("error")]
    if not rows:
        raise InvalidInputError("no successful trials to fit")
    other_axes = [f for f in ("n", "epsilon", "d", "delta", "kappa_lower") if f != x_field]
    for axis in other_axes:
        if len({r[axis] for r in rows}) > 1:
            raise InvalidInputError(
                f"axis {axis!r} is not fixed; filter records before fitting"
            )
    groups: dict[float, list[float]] = {}
    for r in rows:
        groups.setdefault(float(r[x_field]), []).append(float(r[y_field]))
    if len(groups) < 3:
        raise InvalidInputError("need at least 3 grid cells on the swept axis")
    xs = np.array(sorted(groups))
    medians = np.array([np.median(groups[x]) for x in xs])
    if np.any(~np.isfinite(medians)) or np.any(medians <= 0):
        raise InvalidInputError("medians must be positive and finite for a log-log fit")
    lx, ly = np.log(xs), np.log(medians)
    m = len(xs)
    vx = lx - lx.mean()
    slope = float(np.dot(vx, ly) / np.dot(vx, vx))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    stderr = math.sqrt(float(np.dot(resid, resid)) / (m - 2) / float(np.dot(vx, vx)))
    return RateFit(
        slope=slope,
        stderr=stderr,
        intercept=intercept,
        x_values=tuple(float(x) for x in xs),
        medians=tuple(float(v) for v in medians),
    )


def read_csv(path: str | Path) -> list[dict]:
    try:
        fh = open(path, newline="")
    except OSError:
        raise InvalidInputError(f"cannot read csv {path}") from None
    out = []
    with fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise InvalidInputError(f"csv {path} lacks the sweep columns {', '.join(missing)}")
        for line, row in enumerate(reader, start=2):
            rec = dict(row)
            try:
                for key in ("n", "d", "seed"):
                    rec[key] = int(rec[key])
                for key in ("epsilon", "delta", "excess_emp", "excess_pop"):
                    rec[key] = float(rec[key]) if rec[key] else math.nan
                for key in ("kappa", "kappa_lower"):
                    rec[key] = float(rec[key]) if rec[key] else None
            except (TypeError, ValueError):
                raise InvalidInputError(f"csv {path} line {line}: cannot read {key} "
                                        f"{rec[key]!r}") from None
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Privacy audit (end-to-end falsifier)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    pipeline: str
    epsilon: float
    mode: str  # "honest", "sabotaged", or "skipped"
    report: DpTestReport | None  # None for skipped noiseless budgets


# Built once per process, not per audit work item.
@functools.cache
def _audit_quadratic_instance():
    return build_instance(
        "uniform_convex", d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1
    )


@functools.cache
def _audit_abs_instance():
    return build_instance("pure_convex", d=1, L=1.0, R=1.0)


def _audit_datasets(n: int) -> tuple[Dataset, Dataset]:
    # A fixed neighboring pair, not a worst case (ROADMAP items 1 and 10).
    base = np.ones(n)
    base[: n // 2] = -1.0
    neighbor = base.copy()
    neighbor[0] = 1.0
    return Dataset(base[:, None]), Dataset(neighbor[:, None])


def _audit_config(pipeline: str, instance: ProblemInstance, noise_scale: float,
                  epsilon: float, n: int):
    """An audited chain's config: beta = 1/(n+1), and kappa_lower = 3 for epochs."""
    return _chain_config(pipeline, instance, n, 1, 1.0 / (n + 1), PrivacyParams(epsilon), 3.0,
                         noise_scale=noise_scale)


# Phase-chain pipelines: the module whose ``run`` executes the chain once
# per stream (its ``phase_trace`` keyword collects PhaseRecords), and whose
# ``_group`` makes a sweep cell's trials, or an audit row's outputs on one
# dataset, one group of a ``localization._run_chains`` batch.
_CHAINS = {"localization": localization, "epoch_growth": epoch_growth}

_AUDIT_PIPELINES = (*_CHAINS, "inv_sensitivity")

# The audit runs its chain rows' outputs in ``_run_chains`` batches of at
# most this many trials; a larger group of outputs runs alone.  A batch
# holds its trials' noise, block means and schedule columns at once (about
# 0.4 KB per trial on the audit's epoch chains), and larger batches saved
# little more time (docs/decisions.md, "The audit's capped chain batches").
_AUDIT_BATCH = 2400


def _chain(pipeline: str):
    if pipeline not in _CHAINS:
        raise InvalidInputError(f"no phase chain in pipeline {pipeline!r}")
    return _CHAINS[pipeline]


def _audit_grid(groups: list) -> list:
    """The audited grid sampler's outputs on each of ``groups``, as
    ``_audit_chains`` takes them: ``trials`` draws on ``rng`` from the
    absolute-loss audit instance's density at epsilon / noise_scale."""
    instance = _audit_abs_instance()
    loss, domain = instance.loss, instance.domain
    outs = []
    for scale, eps, dataset, rng, trials in groups:
        density = inv_sensitivity.build_density(loss, dataset, domain, eps / scale, rho=0.1)
        outs.append(inv_sensitivity.sample(density, rng, size=trials)[:, 0])
    return outs


def _audit_chains(pipeline: str, groups: list) -> list:
    """The audited chain's outputs on each of ``groups``, ``(noise_scale,
    epsilon, dataset, rng, trials)`` each: ``trials`` outputs on the
    quadratic audit instance, with every noise scale multiplied by
    noise_scale, one per stream of the block ``rng.children(trials)``, all
    groups run as one ``localization._run_chains`` batch."""
    module = _chain(pipeline)
    instance = _audit_quadratic_instance()
    loss, domain = instance.loss, instance.domain
    batch = [module._group(loss, dataset, domain, np.zeros(1),
                           _audit_config(pipeline, instance, scale, eps, dataset.n),
                           rng.children(trials))
             for scale, eps, dataset, rng, trials in groups]
    return [xs[-1][:, 0] for xs in localization._run_chains(loss, domain, batch)]


def _audit_first_phase(pipeline: str, epsilon: float, n: int) -> tuple[float, float]:
    """Shift of the first phase's solve across the audit pair, and the honest
    noise scale of that phase, for the localization or epoch pipeline.

    Only the first phase's batch holds the differing sample; every later
    phase post-processes its noised output on identical data.  With Laplace
    noise the pipeline's privacy loss on the pair is therefore shift / sigma.
    """
    module = _chain(pipeline)
    instance = _audit_quadratic_instance()
    loss, domain = instance.loss, instance.domain
    cfg = _audit_config(pipeline, instance, 1.0, epsilon, n)
    first = []
    for dataset in _audit_datasets(n):
        phases: list = []
        module.run(loss, dataset, domain, np.zeros(1), cfg, [RngStream(0)], phase_trace=phases)
        first.append(phases[0])
    shift = float(np.linalg.norm(first[0].x_solved[0] - first[1].x_solved[0]))
    return shift, first[0].sigma


def privacy_audit(
    epsilons=(0.5, 1.0, 2.0),
    n: int = 32,
    trials: int = 100_000,
    bins: int = 24,
    master_seed: int = 7,
    pipelines=("localization", "epoch_growth", "inv_sensitivity"),
    sabotage: bool = True,
    jobs: int = 1,
    sabotage_scales: dict | None = None,
) -> list[AuditRow]:
    """Run the histogram falsifier on end-to-end 1-D pipelines.

    Honest runs use the calibrated noise; sabotaged runs halve every noise
    scale (for the grid sampler: double the score temperature's inverse,
    the same miscalibration expressed for an exponential weight).
    ``sabotage_scales`` maps ``(pipeline, epsilon)`` to another multiplier
    for that pair's sabotaged run, finite and >= 0, and > 0 for the grid
    sampler, which runs at epsilon / multiplier.  An infinite budget is
    noiseless: there is no privacy claim to falsify, and its rows are
    skipped.

    Halving sigma leaves the localization and epoch pipelines private on the
    audit pair, so their sabotaged rows are expected to pass.  The pair
    moves the first phase's solve by about L eta_1 / 2 (the audit instance's
    linear term has scale L/2, so the flipped sample moves the batch
    gradient by L / n0), while sigma_1 is calibrated to the sensitivity
    bound 4 L eta_1: the honest loss is about epsilon/8 and the halved one
    epsilon/4.  ``_audit_first_phase`` measures the shift and sigma_1, and
    ``docs/decisions.md`` gives the numbers.

    Row i's outputs on the two datasets come from ``RngStream(master_seed,
    i).child(0)`` and ``child(1)``, as ``empirical_dp_test`` draws them:
    one group of ``trials`` outputs each, the grid sampler's all from its
    stream, a chain's one per stream of a ``children`` block.  Each
    pipeline's groups run, in row order, in work items of at most
    ``_AUDIT_BATCH`` outputs (or one group), through ``_audit_grid`` or as
    one ``_audit_chains`` batch, and each row's two output arrays then go
    through ``histogram_test``.  Each output is its stream's own, so the
    grid sampler's reports equal ``empirical_dp_test``'s, and a chain's unit
    draws are within one ulp of one-stream runs' (the pinned reports hold).
    """
    _check_jobs(jobs)
    if n < 2:
        raise InvalidInputError(f"n must be >= 2, got {n}")
    pipelines, epsilons = tuple(pipelines), [float(eps) for eps in epsilons]
    if not pipelines or not epsilons:
        raise InvalidInputError("an audit needs at least one pipeline and one epsilon")
    for pipeline in pipelines:
        if pipeline not in _AUDIT_PIPELINES:
            raise InvalidInputError(f"unknown pipeline {pipeline!r}; pick from "
                                    f"{', '.join(_AUDIT_PIPELINES)}")
    for eps in epsilons:
        if math.isnan(eps) or eps == -math.inf:
            raise InvalidInputError(f"epsilon must be a number or inf, got {eps}")
        check_dp_test(eps, trials, bins)
    data, neighbor = _audit_datasets(n)
    sabotage_scales = sabotage_scales or {}
    for (pipeline, _), scale in sabotage_scales.items():
        check_noise_scale(scale)
        if pipeline == "inv_sensitivity" and scale == 0.0:
            raise InvalidInputError("the grid sampler's noise_scale must be > 0, got 0.0")
    tasks = []
    skipped = []
    for pipeline in pipelines:
        for eps in epsilons:
            if eps == math.inf:
                skipped.append(AuditRow(pipeline, eps, "skipped", None))
                continue
            for mode in ("honest", "sabotaged") if sabotage else ("honest",):
                scale = 1.0 if mode == "honest" else sabotage_scales.get((pipeline, eps), 0.5)
                tasks.append((pipeline, eps, mode, scale))
    # Work items in row order, (pipeline, [(row index, dataset index, task)]):
    # a batch of one pipeline's groups.
    items: list = []
    per_batch = max(1, _AUDIT_BATCH // trials)
    for index, task in enumerate(tasks):
        for side in (0, 1):
            if not items or items[-1][0] != task[0] or len(items[-1][1]) == per_batch:
                items.append((task[0], []))
            items[-1][1].append((index, side, task))
    rows: dict = {}
    outputs: dict = {}
    for result in _mapped(_audit_work, [(*item, trials, master_seed, data, neighbor)
                                        for item in items], jobs):
        for index, value in result:
            outputs.setdefault(index, []).append(value)
            if len(outputs[index]) == 2:
                pipeline, eps, mode, _ = tasks[index]
                rows[index] = AuditRow(pipeline, eps, mode,
                                       histogram_test(*outputs.pop(index), eps, bins))
    return [rows[i] for i in range(len(tasks))] + skipped


def _mapped(function, args: list, jobs: int):
    """``map(function, args)``, on ``jobs`` worker processes when jobs > 1,
    in chunks of about a quarter of each worker's share of ``args``; each
    result is yielded, in order, as it comes."""
    if jobs == 1:
        yield from map(function, args)
        return
    # Imported here: multiprocessing is a large import that a serial run
    # does not need.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(function, args, chunksize=max(1, len(args) // (4 * jobs)))


def _audit_work(packed) -> list:
    """One work item of ``privacy_audit``: ``(row index, outputs)`` for each
    group of a batch of one pipeline's groups, datasets in order."""
    pipeline, groups, trials, master_seed, data, neighbor = packed
    streams = {index: RngStream(master_seed, index) for index in {g[0] for g in groups}}
    runs = [(scale, eps, (data, neighbor)[side], streams[index].child(side), trials)
            for index, side, (_, eps, _, scale) in groups]
    outs = _audit_grid(runs) if pipeline not in _CHAINS else _audit_chains(pipeline, runs)
    return [(index, out) for (index, *_), out in zip(groups, outs)]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpgrowth",
        description="Growth-adaptive private optimization experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="results")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--jobs", type=int, default=1)

    p_fit = sub.add_parser("fit", help="fit a log-log rate slope from a sweep CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--axis", required=True, choices=("n", "epsilon", "d"))
    p_fit.add_argument("--y", default="excess_pop", choices=("excess_pop", "excess_emp"))

    p_audit = sub.add_parser("audit", help="run the end-to-end privacy falsifier")
    p_audit.add_argument("config", nargs="?", default=None,
                         help="optional INI file with an [audit] section")
    p_audit.add_argument("--out", default=None)
    p_audit.add_argument("--seed", type=int, default=7)
    p_audit.add_argument("--jobs", type=int, default=1)

    p_ver = sub.add_parser("verify-instance", help="probe growth certificates")
    p_ver.add_argument("instance")
    p_ver.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p_ver.add_argument("--probes", type=int, default=10_000)

    args = parser.parse_args(argv)
    try:
        return _command(args)
    except (InvalidInputError, ResourceError) as exc:
        print(f"dpgrowth: error: {exc}", file=sys.stderr)
        return 2


def _command(args) -> int:
    if args.command == "run":
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = ExperimentConfig(**{**asdict(cfg), "master_seed": args.seed})
        records, csv_path, summary_path = run_sweep(cfg, args.out, jobs=args.jobs)
        n_err = sum(1 for r in records if r.error)
        print(f"wrote {len(records)} trials ({n_err} errors) -> {csv_path}")
        print(f"summary -> {summary_path}")
        return 0

    if args.command == "fit":
        fit = fit_rate(read_csv(args.csv), args.axis, args.y)
        print(f"slope = {fit.slope:.4f} +- {fit.stderr:.4f} over {len(fit.x_values)} cells")
        for x, m in zip(fit.x_values, fit.medians):
            print(f"  {args.axis}={x:g}: median {args.y} = {m:.6g}")
        return 0

    if args.command == "audit":
        kwargs = dict(master_seed=args.seed, jobs=args.jobs)
        if args.config:
            sec = _read_ini(args.config, required=("audit",))["audit"]
            parsers = dict(epsilons=_numbers, n=int, trials=int, bins=int, sabotage=_boolean,
                           pipelines=lambda text: tuple(p.strip() for p in text.split(",")
                                                        if p.strip()))
            kwargs.update({key: _get(sec, key, parsers[key]) for key in sec})
        rows = privacy_audit(**kwargs)
        payload = []
        for row in rows:
            rep = row.report
            if rep is None:
                print(
                    f"{row.pipeline:16s} eps={row.epsilon:<4g} skipped "
                    f"(noiseless budget: nothing to falsify)"
                )
                payload.append({"pipeline": row.pipeline, "epsilon": row.epsilon,
                                "mode": row.mode})
                continue
            status = "inconclusive" if rep.inconclusive else ("pass" if rep.passed else "FAIL")
            print(
                f"{row.pipeline:16s} eps={row.epsilon:<4g} {row.mode:10s} "
                f"max_log_ratio={rep.max_log_ratio:.4f} slack={rep.slack:.3f} -> {status}"
            )
            payload.append({**asdict(row.report), "pipeline": row.pipeline,
                            "epsilon": row.epsilon, "mode": row.mode})
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"audit report -> {args.out}")
        return 0

    if args.command == "verify-instance":
        params = {}
        for item in args.param:
            key, _, val = item.partition("=")
            params[key.strip()] = _parse_scalar(val)
        instance = build_instance(args.instance, **params)
        growth_rep, kl_rep = instance.certify(probes=args.probes)
        print(f"instance: {instance.description}")
        if growth_rep is None:
            print("no growth certificate declared; nothing to verify")
            return 0
        print(f"growth max_violation = {growth_rep.max_violation:.3e} "
              f"({'pass' if growth_rep.passed else 'FAIL'})")
        print(f"gradient-domination max_violation = {kl_rep.max_violation:.3e} "
              f"({'pass' if kl_rep.passed else 'FAIL'})")
        return 0 if (growth_rep.passed and kl_rep.passed) else 1

    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
