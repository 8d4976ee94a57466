"""Tests of the benchmark's own arithmetic and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from dpgrowth import erm, harness  # noqa: E402
from dpgrowth.core import Dataset, Domain, project  # noqa: E402
from dpgrowth.instances import build_instance  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# -- self time from nested spans -------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
    ]
    got = measure.self_times(spans)
    assert got == pytest.approx({"root": 6.0, "a": 3.0, "leaf": 1.0})
    # Self times partition the root span.
    assert sum(got.values()) == pytest.approx(10.0)


def test_covered_time_merges_overlaps_and_clips_to_the_parent():
    assert measure.covered_time(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0)]) == pytest.approx(4.0)
    assert measure.covered_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert measure.covered_time(0.0, 1.0, [(2.0, 3.0)]) == 0.0
    assert measure.covered_time(0.0, 1.0, []) == 0.0


# -- percentile with ten samples beyond -------------------------------------


@pytest.mark.parametrize(
    "n, permille",
    [(10_000, 999), (9_999, 990), (1_000, 990), (999, 900), (100, 900),
     (99, 500), (20, 500), (19, None), (1, None)],
)
def test_tail_is_the_highest_percentile_with_ten_beyond(n, permille):
    assert measure.tail_permille(n) == permille
    if permille is not None:
        assert measure.samples_beyond(n, permille) >= 10


def test_tail_falls_back_to_the_median_and_labels_it():
    assert measure.tail([3.0, 1.0, 2.0, 10.0]) == ("p50-fallback", 2.5)
    values = list(range(1000))
    label, value = measure.tail(values)
    assert label == "p99"
    assert value == pytest.approx(np.percentile(values, 99))


def test_percentile_matches_numpy_linear_interpolation():
    values = np.random.default_rng(1).exponential(size=257)
    for q in (0.0, 12.5, 50.0, 90.0, 99.0, 100.0):
        assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_spread_uses_statistics_quartiles():
    median, spread = measure.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert median == pytest.approx(5.5)
    assert spread == pytest.approx((8.25 - 2.75) / 5.5)


# -- row-level reference comparison -----------------------------------------


def test_mismatched_rows_are_flagged_by_position():
    ref = ["a", "b", "c"]
    assert measure.mismatched_rows(["a", "x", "c"], ref) == [False, True, False]
    assert measure.mismatched_rows(["a", "b", "c", "d"], ref) == [False, False, False, True]
    assert measure.missing_rows(["a"], ref) == 2
    assert measure.missing_rows(["a", "b", "c", "d"], ref) == 0


def _sweep_row(**overrides):
    row = {"excess_emp": "1e-05", "excess_pop": "2e-05", "error": ""}
    row.update(overrides)
    return row


def test_sweep_row_sanity():
    assert not measure.sweep_row_failed(_sweep_row())
    assert not measure.sweep_row_failed(_sweep_row(excess_emp="-5e-08"))
    assert measure.sweep_row_failed(_sweep_row(error="RuntimeError: boom"))
    assert measure.sweep_row_failed(_sweep_row(excess_pop="nan"))
    assert measure.sweep_row_failed(_sweep_row(excess_pop=""))
    assert measure.sweep_row_failed(_sweep_row(excess_emp="inf"))
    assert measure.sweep_row_failed(_sweep_row(excess_emp="-2e-07"))


def test_audit_row_sanity():
    ok = {"max_log_ratio": 0.4, "slack": 0.3, "inconclusive": False}
    assert not measure.audit_row_failed(ok)
    assert measure.audit_row_failed(None)
    assert measure.audit_row_failed({**ok, "inconclusive": True})
    assert measure.audit_row_failed({**ok, "max_log_ratio": math.nan})
    assert measure.audit_row_failed({**ok, "slack": math.inf})


def _round(texts, insane=()):
    return run.Round(1.0, len(texts), [1.0], [(t, i in insane) for i, t in enumerate(texts)])


def test_checker_counts_reference_first_round_and_sanity_failures(tmp_path, monkeypatch):
    ref = tmp_path / "reference.json"
    digests = [measure.row_digest(t) for t in ("r0", "r1", "r2")]
    ref.write_text(json.dumps({"workloads": {"w": digests}}))
    monkeypatch.setattr(run, "REFERENCE", ref)

    at_default = run.Checker("w", seed=0)
    at_default.check(_round(["r0", "r1", "r2"]))
    at_default.check(_round(["r0", "CHANGED", "r2"], insane={2}))
    at_default.check(_round(["r0"]))  # two reference rows missing
    assert (at_default.attempted, at_default.failed) == (7, 2 + 2 + 2)

    other_seed = run.Checker("w", seed=5)
    assert other_seed.reference is None
    other_seed.check(_round(["s0", "s1"]))
    other_seed.check(_round(["s0", "s1-changed"]))
    assert (other_seed.attempted, other_seed.failed) == (4, 1)


# -- argument-derived ratios -------------------------------------------------


def _problem(reg_weight, d=1, parent=None):
    inst = build_instance("uniform_convex", d=d, kappa=2, lam=1.0, L=4.0, R=1.0)
    batch = Dataset(np.ones((4, d)))
    domain = Domain(np.zeros(d), 0.5, parent=parent)
    return erm.RegularizedProblem(inst.loss, batch, np.zeros(d), reg_weight, domain)


def test_noop_predicate_matches_regularizer_dominance():
    # L = 4, so L^2 / (4 reg) = 4 / reg.
    tol = 1e-3
    assert tracer.solve_is_noop(_problem(4.0 / tol), tol)
    assert not tracer.solve_is_noop(_problem(0.5 * 4.0 / tol), tol)
    # A no-op solve returns the projected anchor.
    problem = _problem(4.0 / tol)
    assert np.array_equal(erm.solve(problem, tol), project(problem.domain, problem.anchor))


def test_scalar_chain_predicate():
    loss = lambda **kw: build_instance("uniform_convex", lam=0.25, L=2.0, R=1.0, **kw).loss  # noqa: E731
    assert tracer.is_scalar_chain(loss(d=1, kappa=2))
    assert not tracer.is_scalar_chain(loss(d=1, kappa=4))
    assert not tracer.is_scalar_chain(loss(d=4, kappa=2))
    assert not tracer.is_scalar_chain(build_instance("pure_convex", d=1, L=1.0, R=1.0).loss)


def test_multi_ball_predicate():
    outer = Domain(np.zeros(2), 1.0)
    assert not tracer.is_multi_ball(outer)
    assert tracer.is_multi_ball(Domain(np.zeros(2), 0.5, parent=outer))


# -- tracer end to end ------------------------------------------------------


def _tiny_sweep():
    cfg = harness.load_config(BENCH_DIR.parent / "configs" / "acceptance_stat_kappa4.ini")
    return dataclasses.replace(cfg, seeds=2, sweep_n=(512,))


def _rows(records):
    return [dataclasses.replace(r, wall_ms=0.0) for r in records]


def test_tracer_keeps_outputs_counts_calls_and_restores_bindings(tmp_path):
    cfg = _tiny_sweep()
    plain, _, _ = harness.run_sweep(cfg, tmp_path / "plain")
    originals = {"solve": erm.solve, "project": harness.project, "run_sweep": harness.run_sweep}

    tr = tracer.Tracer()
    tr.install()
    try:
        assert harness.project is not originals["project"]
        assert erm.project is harness.project  # one wrapper for every binding
        traced, _, _ = harness.run_sweep(cfg, tmp_path / "traced")
    finally:
        tr.uninstall()
    spans, counts = tr.take()

    assert _rows(traced) == _rows(plain)
    assert erm.solve is originals["solve"] and harness.project is originals["project"]
    assert harness.run_sweep is originals["run_sweep"]
    assert counts["harness.run_sweep.calls"] == 1
    assert counts["harness.trial.calls"] == 2
    assert counts["epoch_growth.run.calls"] == 2
    assert counts["epoch_growth.epochs"] > 0
    assert 0 < counts["erm.solve.noops"] < counts["erm.solve.calls"]
    assert counts["core.project.multi_ball"] <= counts["core.project.calls"]
    assert counts["mechanisms.empirical_dp_test.calls"] == 0
    # Parents precede children; every span inside a trial carries its id.
    assert spans[0][0] == "harness.run_sweep" and spans[0][3] == -1
    assert all(s[3] < i for i, s in enumerate(spans))
    trials = {s[4] for s in spans if s[0] != "harness.run_sweep"}
    assert trials == {0, 1}
    selfs = measure.self_times(spans)
    total = spans[0][2] - spans[0][1]
    assert sum(selfs.values()) == pytest.approx(total)


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert tracer.layer_metric_names() == declared
    from collections import Counter

    got = tracer.layer_metrics(Counter(), {}, 1.0, 0, 1.0)
    assert list(got) == declared
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in got.items()}


def test_end_to_end_reports_the_declared_metrics():
    # Three rounds of the same 30 trials; trial i takes i ms in every round
    # but the middle one, which a noisy machine slowed down tenfold.
    rounds = [
        run.Round(wall, 30, [float(i) * slow for i in range(30)], [])
        for wall, slow in ((1.0, 1.0), (2.0, 10.0), (4.0, 1.0))
    ]
    metrics, details = run.end_to_end(rounds, [(0.5, 1.0), (0.7, 1.0), (0.6, 1.0)])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert metrics["wall_s"][0] == 2.0
    assert metrics["setup_s"][0] == 0.6
    assert metrics["trials_per_s"][0] == 15.0
    # Per-trial medians over rounds drop the slow round; 30 distinct trials
    # leave ten beyond the median only.
    assert metrics["trial_ms_p50"][0] == 14.5
    assert metrics["trial_ms_p99"][0] == 14.5
    assert details["samples"]["distinct_trial_latencies"] == 30
    assert details["samples"]["trial_ms_p99_percentile"] == "p50"


def test_speed_scale_uses_median_kernel_times_around_a_round():
    ref = run.CAL_REF_S
    # Half speed before (one outlier ignored), quarter speed after.
    assert run.speed_scale([2 * ref, 2 * ref, 9 * ref], [4 * ref] * 3) == pytest.approx(1 / 3)


def test_end_to_end_scales_times_to_the_reference_speed():
    rnd = run.Round(2.0, 10, [2.0] * 10, [], scale=0.5)
    metrics, _ = run.end_to_end([rnd], [(1.0, 0.5)])
    assert metrics["wall_s"][0] == 1.0
    assert metrics["trials_per_s"][0] == 10.0
    assert metrics["trial_ms_p50"][0] == 1.0
    assert metrics["setup_s"][0] == 0.5


def test_thread_pins_precede_any_numpy_import():
    import subprocess

    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "assert 'numpy' not in sys.modules; "
        "assert all(os.environ[k] == '1' for k in run.THREAD_PINS)"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], check=True, timeout=60)


def test_compare_flags_a_median_worse_than_its_bound(capsys):
    import collect

    def summary(wall, rate):
        metrics = {m["name"]: {"median": 1.0, "bound": m["bound"]} for m in SPEC["end_to_end"]}
        metrics["wall_s"]["median"] = wall
        metrics["trials_per_s"]["median"] = rate
        return {"summary": {"w": {"metrics": metrics}}}

    base = summary(1.0, 100.0)
    assert collect.compare(base, summary(1.2, 80.0))  # worse, within 0.25
    assert not collect.compare(base, summary(1.3, 100.0))  # wall_s 30% worse
    assert not collect.compare(base, summary(1.0, 70.0))  # throughput 30% lower
    assert collect.compare(base, summary(0.5, 200.0))  # better is never flagged
    capsys.readouterr()
