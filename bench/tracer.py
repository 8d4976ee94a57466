"""Span tracer for the traced benchmark mode.

It wraps public dpgrowth functions at runtime, in every dpgrowth module that
binds them by name, and records one span per call: name, start, end, parent
span and trial id.  Spans stay in memory; the runner reduces them to per-layer
counts and self times and can write them out at the end.  Counts that depend
on a call's arguments (no-op solves, scalar chains, multi-ball projections)
are taken at the call boundary, from the arguments alone.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

from dpgrowth import (
    core,
    epoch_growth,
    erm,
    harness,
    instances,
    inv_sensitivity,
    localization,
    mechanisms,
)

from measure import frac

# Spans that open a new trial when no enclosing span belongs to one: a sweep
# trial, or one mechanism output (or one batch of grid-sampler outputs) in
# the audit.  Spans nested inside inherit the trial id.
TRIAL_ROOTS = frozenset(
    {"harness.trial", "epoch_growth.run", "localization.run", "inv_sensitivity.sample"}
)

# Metric names that differ from "<span>.calls".
CALL_METRIC = {"core.rng_stream": "core.rng_stream.created"}


def solve_is_noop(problem, tol: float) -> bool:
    """Whether erm.solve returns the projected anchor at once: the regularizer
    dominates when L^2 / (4 reg_weight) <= tol."""
    lam = problem.reg_weight
    L = problem.loss.lipschitz
    return not math.isfinite(lam) or L * L / (4.0 * lam) <= tol


def is_scalar_chain(loss) -> bool:
    """Whether localization.run takes the 1-D isotropic-quadratic chain."""
    return loss.point_dim == 1 and isinstance(loss.structure, core.IsotropicQuadratic)


def is_multi_ball(domain) -> bool:
    """Whether a projection targets a ball intersection (Dykstra) rather
    than a single ball."""
    return domain.parent is not None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_solve(counts, args, kwargs):
    if solve_is_noop(_arg(args, kwargs, 0, "problem"), _arg(args, kwargs, 1, "tol")):
        counts["erm.solve.noops"] += 1
    return args, kwargs, None


def _count_localization(counts, args, kwargs):
    if is_scalar_chain(_arg(args, kwargs, 0, "loss")):
        counts["localization.scalar_calls"] += 1
    counts["localization.phases"] += _arg(args, kwargs, 4, "cfg").k
    return args, kwargs, None


def _count_project(counts, args, kwargs):
    if is_multi_ball(_arg(args, kwargs, 0, "domain")):
        counts["core.project.multi_ball"] += 1
    return args, kwargs, None


def _count_epochs(counts, args, kwargs):
    # Read epochs from the run's own trace hook, supplying a list when the
    # caller passed none; the iterate does not depend on it.
    trace = args[6] if len(args) > 6 else kwargs.get("trace")
    if trace is None:
        trace = []
        args, kwargs = args[:6], {**kwargs, "trace": trace}
    start = len(trace)

    def after(_result):
        records = trace[start:]
        counts["epoch_growth.epochs"] += len(records)
        counts["epoch_growth.frozen_epochs"] += sum(1 for r in records if r.frozen)

    return args, kwargs, after


def _count_density(counts, args, kwargs):
    def after(density):
        counts["inv_sensitivity.grid_points"] += len(density.points)

    return args, kwargs, after


def _count_dp_test(counts, args, kwargs):
    counts["mechanisms.outputs"] += 2 * _arg(args, kwargs, 4, "trials")
    return args, kwargs, None


# (span name, owner, attribute, argument hook).  Module-level functions are
# rebound in every dpgrowth module that holds them; methods on the class.
TARGETS = (
    ("harness.run_sweep", harness, "run_sweep", None),
    ("harness.privacy_audit", harness, "privacy_audit", None),
    ("harness.trial", harness, "_execute_trial", None),
    ("epoch_growth.run", epoch_growth, "run", _count_epochs),
    ("localization.run", localization, "run", _count_localization),
    ("erm.solve", erm, "solve", _count_solve),
    ("erm.certified_gap", erm, "certified_gap", None),
    ("core.project", core, "project", _count_project),
    ("core.rng_stream", core.RngStream, "__init__", None),
    ("inv_sensitivity.build_density", inv_sensitivity, "build_density", _count_density),
    ("inv_sensitivity.sample", inv_sensitivity, "sample", None),
    ("mechanisms.empirical_dp_test", mechanisms, "empirical_dp_test", _count_dp_test),
    ("instances.build_instance", instances, "build_instance", None),
    ("instances.draw", instances.ProblemInstance, "draw", None),
    ("instances.excess", instances.ProblemInstance, "excess_emp", None),
    ("instances.excess", instances.ProblemInstance, "excess_pop", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced mode reports, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [CALL_METRIC.get(span, f"{span}.calls"), f"{span}.self_pct"]
    return names + [
        "epoch_growth.epochs",
        "epoch_growth.frozen_epochs",
        "localization.phases",
        "localization.scalar_frac",
        "erm.solve.noop_frac",
        "erm.solve.failed",
        "core.project.multi_ball_frac",
        "core.domain.created",
        "inv_sensitivity.grid_points",
        "mechanisms.outputs",
        "tracing.spans",
        "tracing.overhead_ratio",
    ]


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "dpgrowth" or name.startswith("dpgrowth.")
    ]


class Tracer:
    """Records spans and counts while installed; ``take`` hands over and
    resets what one round recorded."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._trial = -1
        self._next_trial = 0
        self._patches: list = []

    def install(self) -> None:
        for name, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._set(owner, attr, original, wrapper)
            else:
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
        original_post_init = core.Domain.__post_init__
        counts = self.counts

        def counted_post_init(domain):
            counts["core.domain.created"] += 1
            original_post_init(domain)

        self._set(core.Domain, "__post_init__", original_post_init, counted_post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> tuple[list, Counter]:
        """Spans and counts recorded since the last call; trial ids restart."""
        spans, counts = list(self.spans), Counter(self.counts)
        # The wrappers hold these containers, so they are cleared in place.
        self.spans.clear()
        self.counts.clear()
        self._trial, self._next_trial = -1, 0
        return spans, counts

    def _set(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = f"{name}.calls"
        raised_key = f"{name}.raised"
        opens_trial = name in TRIAL_ROOTS
        perf_counter = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            after = None
            if hook is not None:
                args, kwargs, after = hook(counts, args, kwargs)
            counts[calls_key] += 1
            parent = stack[-1] if stack else -1
            outer_trial = tracer._trial
            if opens_trial and outer_trial < 0:
                tracer._trial = tracer._next_trial
                tracer._next_trial += 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[raised_key] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._trial)
                tracer._trial = outer_trial
            if after is not None:
                after(result)
            return result

        return traced


def layer_metrics(counts, self_s: dict, traced_wall: float, spans: int,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced round: counts, self time as a share
    of the traced wall time, argument-derived ratios, and tracing cost."""
    out = {}
    for span in SPAN_NAMES:
        out[CALL_METRIC.get(span, f"{span}.calls")] = (counts[f"{span}.calls"], "count")
        out[f"{span}.self_pct"] = (100.0 * frac(self_s.get(span, 0.0), traced_wall), "%")
    out.update({
        "epoch_growth.epochs": (counts["epoch_growth.epochs"], "count"),
        "epoch_growth.frozen_epochs": (counts["epoch_growth.frozen_epochs"], "count"),
        "localization.phases": (counts["localization.phases"], "count"),
        "localization.scalar_frac": (
            frac(counts["localization.scalar_calls"], counts["localization.run.calls"]),
            "ratio",
        ),
        "erm.solve.noop_frac": (
            frac(counts["erm.solve.noops"], counts["erm.solve.calls"]), "ratio"
        ),
        "erm.solve.failed": (counts["erm.solve.raised"], "count"),
        "core.project.multi_ball_frac": (
            frac(counts["core.project.multi_ball"], counts["core.project.calls"]), "ratio"
        ),
        "core.domain.created": (counts["core.domain.created"], "count"),
        "inv_sensitivity.grid_points": (counts["inv_sensitivity.grid_points"], "count"),
        "mechanisms.outputs": (counts["mechanisms.outputs"], "count"),
        "tracing.spans": (spans, "count"),
        "tracing.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return out
