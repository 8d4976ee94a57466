import csv
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dpgrowth import harness, inv_sensitivity
from dpgrowth.core import InvalidInputError, RngStream, derive_stream_key
from dpgrowth.harness import (
    CSV_COLUMNS,
    RateFit,
    TrialRecord,
    fit_rate,
    load_config,
    main,
    privacy_audit,
    read_csv,
    run_sweep,
    summarize,
)
from dpgrowth.instances import ProblemInstance
from dpgrowth.mechanisms import empirical_dp_test

TINY_CONFIG = """
[experiment]
name = tiny
algorithm = erm_oracle
seeds = 3
master_seed = 99
beta = auto

[instance]
name = uniform_convex
d = 1
kappa = 2
lam = 1.0
L = 4.0
R = 1.0
bias_delta = 0.1

[sweep]
n = 64
epsilon = 1.0

[output]
prefix = tiny
"""


SHARP_CONFIG = """
[experiment]
name = sharp
algorithm = localization
seeds = 2
master_seed = 99
beta = auto

[instance]
name = sharp_growth
kappa = 1.5
bias_delta = 0.25

[sweep]
n = 256, 512, 1024
epsilon = 1.0

[output]
prefix = sharp
"""


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_round_trip(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_CONFIG))
    assert cfg.algorithm == "erm_oracle"
    assert cfg.instance_name == "uniform_convex"
    assert cfg.seeds == 3
    assert cfg.sweep_n == (64,)
    assert cfg.instance_params["kappa"] == 2
    assert cfg.beta is None  # auto
    assert len(cfg.config_hash()) == 12


def test_load_config_rejects_unknown_algorithm(tmp_path):
    bad = TINY_CONFIG.replace("erm_oracle", "alchemy")
    with pytest.raises(InvalidInputError):
        load_config(_write(tmp_path, bad))


def test_load_config_rejects_unknown_keys_and_sections(tmp_path):
    # A misspelled key or section must not fall back to a default silently,
    # and neither may a retired key.
    for old, new, message in (
        ("beta = auto", "beta = auto\nx0_ofset = 0.3", "unknown key 'x0_ofset' in [experiment]"),
        ("epsilon = 1.0", "epsilon = 1.0\nkapa_lower = 3", "unknown key 'kapa_lower' in [sweep]"),
        ("[output]", "[algorithm]\nnoise_scal = 0.0\n\n[output]",
         "unknown key 'noise_scal' in [algorithm]"),
        ("[output]", "[algorithm]\ngaussian_conservative = false\n\n[output]",
         "unknown key 'gaussian_conservative' in [algorithm]; "
         "known: grid_spacing, kappa_lower, noise_scale, rho"),
        ("prefix = tiny", "prefix = tiny\nsufix = x", "unknown key 'sufix' in [output]"),
        ("[sweep]", "[sweeep]", "unknown section [sweeep]"),
        ("n = 64", "n = 64, many", "[sweep] n: cannot read '64, many'"),
    ):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            load_config(_write(tmp_path, TINY_CONFIG.replace(old, new)))
    # Every key read is accepted, [experiment] n included.
    text = TINY_CONFIG.replace("beta = auto", "beta = auto\nn = 32\nx0_offset = 0.3").replace(
        "[output]", "[algorithm]\nnoise_scale = 0.0\n\n[output]"
    ).replace("n = 64\n", "")
    cfg = load_config(_write(tmp_path, text))
    assert (cfg.sweep_n, cfg.x0_offset, cfg.noise_scale) == ((32,), 0.3, 0.0)


def test_audit_sabotage_takes_every_boolean_spelling(tmp_path):
    # [audit] sabotage, the one boolean key, takes any spelling
    # ConfigParser.getboolean takes, and no other.
    for text, want in (("Yes", True), ("on", True), ("1", True), ("TRUE", True),
                       ("no", False), ("Off", False), ("0", False), ("false", False)):
        path = _write(tmp_path, f"[audit]\nsabotage = {text}\n", name="audit.ini")
        section = harness._read_ini(path, required=("audit",))["audit"]
        assert harness._get(section, "sabotage", harness._boolean) is want
    path = _write(tmp_path, "[audit]\nsabotage = maybe\n", name="audit.ini")
    section = harness._read_ini(path, required=("audit",))["audit"]
    with pytest.raises(InvalidInputError, match=re.escape("[audit] sabotage: cannot read 'maybe'")):
        harness._get(section, "sabotage", harness._boolean)


def test_cli_run_rejects_the_retired_gaussian_conservative_key(tmp_path, capsys):
    # One calibration is left, so a config that still picks one stops with
    # the unknown-key error line before any trial runs.
    path = _write(tmp_path, TINY_CONFIG.replace(
        "[output]", "[algorithm]\ngaussian_conservative = true\n\n[output]"))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dpgrowth: error: config {path}: unknown key 'gaussian_conservative' "
                            "in [algorithm]; known: grid_spacing, kappa_lower, noise_scale, rho\n")
    assert not out.exists()


def test_run_sweep_one_cell_three_seeds(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_CONFIG))
    records, csv_path, summary_path = run_sweep(cfg, tmp_path / "out")
    assert len(records) == 3
    assert all(r.error == "" for r in records)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    summary = json.loads(summary_path.read_text())
    assert summary["cells"][0]["n_trials"] == 3


def test_run_sweep_rerun_byte_identical(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_CONFIG))
    _, csv_a, _ = run_sweep(cfg, tmp_path / "a")
    _, csv_b, _ = run_sweep(cfg, tmp_path / "b")
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_run_sweep_parallel_matches_serial(tmp_path):
    text = TINY_CONFIG.replace("n = 64", "n = 64, 128").replace("seeds = 3", "seeds = 4")
    cfg = load_config(_write(tmp_path, text))
    _, csv_a, _ = run_sweep(cfg, tmp_path / "serial", jobs=1)
    _, csv_b, _ = run_sweep(cfg, tmp_path / "par", jobs=2)
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_erm_oracle_trials_solve_the_empirical_problem_once(tmp_path, monkeypatch):
    # An ERM-oracle trial scores its excess against the minimum it solved
    # for: excess_emp, which would solve the problem again, is not called,
    # and the CSV value equals it bit for bit.
    base = load_config(_write(tmp_path, TINY_CONFIG.replace("n = 64", "n = 7, 64, 1000")))
    for name, params in (("uniform_convex", base.instance_params),
                         ("pure_convex", dict(L=1.0, R=1.0)),
                         ("sharp_growth", dict(kappa=1.5, bias_delta=0.25))):
        cfg = dataclasses.replace(base, instance_name=name, instance_params=params)
        calls = []
        excess_emp = ProblemInstance.excess_emp
        monkeypatch.setattr(ProblemInstance, "excess_emp",
                            lambda *args: calls.append(1) or excess_emp(*args))
        records, _, _ = run_sweep(cfg, tmp_path / name)
        monkeypatch.undo()
        assert not calls
        inst = harness._build_cell_instance(cfg, cfg.cells()[0])
        for index, rec in enumerate(records):
            key = derive_stream_key(cfg.master_seed, index)
            data = inst.draw(rec.n, RngStream(key, 0))
            want = inst.excess_emp(inst.empirical_min(data)[0], data)
            assert rec.error == "" and rec.excess_emp.hex() == want.hex(), (name, index)


def test_run_sweep_medians_decrease_in_n(tmp_path):
    text = TINY_CONFIG.replace("n = 64", "n = 256, 1024, 4096").replace(
        "seeds = 3", "seeds = 40"
    )
    cfg = load_config(_write(tmp_path, text))
    records, _, _ = run_sweep(cfg, tmp_path / "out")
    summary = summarize(cfg, records)
    meds = [c["median_excess_pop"] for c in summary["cells"]]
    assert meds[0] > meds[1] > meds[2]


def test_summary_quantiles_match_recompute(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_CONFIG.replace("seeds = 3", "seeds = 25")))
    records, csv_path, summary_path = run_sweep(cfg, tmp_path / "out")
    summary = json.loads(summary_path.read_text())
    rows = read_csv(csv_path)
    pops = np.array([r["excess_pop"] for r in rows])
    cell = summary["cells"][0]
    assert cell["median_excess_pop"] == float(np.median(pops))
    assert cell["quantile_excess_pop"] == float(
        np.quantile(pops, cell["quantile_level"], method="higher")
    )


def test_trial_records_are_reproducible_objects(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_CONFIG))
    records_a, _, _ = run_sweep(cfg, tmp_path / "a")
    records_b, _, _ = run_sweep(cfg, tmp_path / "b")
    for ra, rb in zip(records_a, records_b):
        assert ra.excess_pop == rb.excess_pop
        assert ra.excess_emp == rb.excess_emp


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


def _fake_records(xs, ys_fn, x_field="n", delta=0.0):
    rows = []
    for x in xs:
        for seed in range(5):
            rows.append(
                dict(
                    n=x if x_field == "n" else 128,
                    d=1,
                    epsilon=x if x_field == "epsilon" else 1.0,
                    delta=delta,
                    kappa_lower=None,
                    seed=seed,
                    excess_pop=ys_fn(x),
                    error="",
                )
            )
    return rows


def test_fit_rate_exact_power_laws():
    fit = fit_rate(_fake_records([10, 100, 1000, 10000], lambda n: 3.0 / n), "n")
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    fit2 = fit_rate(_fake_records([10, 100, 1000], lambda n: 5.0 / n**2), "n")
    assert fit2.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit2.stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_rate_epsilon_axis():
    fit = fit_rate(
        _fake_records([0.25, 0.5, 1.0, 2.0], lambda e: 0.1 / e, x_field="epsilon"),
        "epsilon",
    )
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_fit_rate_input_validation():
    with pytest.raises(InvalidInputError):
        fit_rate(_fake_records([10, 100], lambda n: 1.0 / n), "n")  # < 3 cells
    with pytest.raises(InvalidInputError):
        fit_rate(_fake_records([10, 100, 1000], lambda n: 0.0), "n")  # zero medians
    with pytest.raises(InvalidInputError):
        fit_rate(_fake_records([10, 100, 1000], lambda n: 1.0 / n), "seed")


def test_fit_rate_rejects_mixed_delta():
    # Two budgets' cells on one n axis would pool into medians of neither.
    ns = [100, 200, 400]
    rows = _fake_records(ns, lambda n: 1.0 / n) + _fake_records(
        ns, lambda n: 100.0 / n, delta=1e-6
    )
    with pytest.raises(InvalidInputError, match="delta"):
        fit_rate(rows, "n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_fit_and_verify(tmp_path, capsys):
    cfg_path = _write(
        tmp_path, TINY_CONFIG.replace("n = 64", "n = 64, 256, 1024")
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
    csv_path = tmp_path / "res" / "tiny.csv"
    assert csv_path.exists()
    assert main(["fit", str(csv_path), "--axis", "n"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out
    # sharp_growth's empirical excess is written as a number that fit reads.
    sharp_path = _write(tmp_path, SHARP_CONFIG, name="sharp.ini")
    assert main(["run", str(sharp_path), "--out", str(tmp_path / "sharp")]) == 0
    assert main(["fit", str(tmp_path / "sharp" / "sharp.csv"), "--axis", "n",
                 "--y", "excess_emp"]) == 0
    assert "slope" in capsys.readouterr().out
    assert (
        main(
            [
                "verify-instance",
                "sharp_growth",
                "--param",
                "kappa=1.5",
                "--param",
                "bias_delta=0.25",
                "--probes",
                "2000",
            ]
        )
        == 0
    )


def test_cli_audit_smoke(tmp_path, capsys):
    audit_ini = _write(
        tmp_path,
        """
[audit]
epsilons = 1.0
n = 16
trials = 4000
bins = 12
pipelines = inv_sensitivity
sabotage = false
""",
        name="audit.ini",
    )
    out_json = tmp_path / "audit.json"
    assert main(["audit", str(audit_ini), "--out", str(out_json)]) == 0
    rows = json.loads(out_json.read_text())
    assert rows[0]["pipeline"] == "inv_sensitivity"
    assert rows[0]["passed"] is True


def test_cli_audit_rejects_unreadable_config_and_missing_section(tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    no_audit = _write(tmp_path, "[experiment]\nname = x\n", name="no_audit.ini")
    no_experiment = _write(tmp_path, "[instance]\nname = pure_convex\n", name="no_exp.ini")
    no_header = _write(tmp_path, "x = 1\n", name="no_header.ini")
    misspelled = _write(tmp_path, "[audit]\ntrails = 50\n", name="misspelled.ini")
    bad_seeds = _write(tmp_path, TINY_CONFIG.replace("seeds = 3", "seeds = abc"), "seeds.ini")
    bad_scale = _write(tmp_path, TINY_CONFIG.replace(
        "[output]", "[algorithm]\nnoise_scale = lots\n\n[output]"), name="scale.ini")
    bad_sabotage = _write(tmp_path, "[audit]\nsabotage = sure\n", name="sabotage.ini")
    missing_csv = tmp_path / "missing.csv"
    no_columns = _write(tmp_path, "n,slope\n64,1.0\n", name="no_columns.csv")
    bad_row = _write(tmp_path, ",".join(CSV_COLUMNS) + "\n" + ",".join(
        "six" if c == "n" else "1" for c in CSV_COLUMNS) + "\n", name="bad_row.csv")
    for argv, message in (
        (["audit", str(missing)], f"cannot read config {missing}"),
        (["run", str(missing)], f"cannot read config {missing}"),
        (["audit", str(no_audit)], f"config {no_audit} has no [audit] section"),
        (["run", str(no_experiment)], f"config {no_experiment} has no [experiment] section"),
        (["run", str(no_header)], f"cannot parse config {no_header}: File contains no section "
                                  f"headers. file: {str(no_header)!r}, line: 1 'x = 1\\n'"),
        (["audit", str(misspelled)], f"config {misspelled}: unknown key 'trails' in [audit]; "
                                     "known: bins, epsilons, n, pipelines, sabotage, trials"),
        (["run", str(bad_seeds)], "config [experiment] seeds: cannot read 'abc'"),
        (["run", str(bad_scale)], "config [algorithm] noise_scale: cannot read 'lots'"),
        (["audit", str(bad_sabotage)], "config [audit] sabotage: cannot read 'sure'"),
        (["fit", str(missing_csv), "--axis", "n"], f"cannot read csv {missing_csv}"),
        (["fit", str(no_columns), "--axis", "n"], f"csv {no_columns} lacks the sweep columns "
         + ", ".join(c for c in CSV_COLUMNS if c != "n")),
        (["fit", str(bad_row), "--axis", "n"], f"csv {bad_row} line 2: cannot read n 'six'"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgrowth: error: {message}\n"


def test_cli_audit_rejects_fewer_than_two_samples(tmp_path, capsys):
    # Two datasets that differ in one sample need n >= 2.
    for n in (0, 1, -4):
        audit_ini = _write(tmp_path, f"[audit]\nn = {n}\ntrials = 50\n", name="audit.ini")
        assert main(["audit", str(audit_ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgrowth: error: n must be >= 2, got {n}\n"


def test_cli_verify_instance_rejects_missing_and_unknown_parameters(capsys):
    for argv, message in (
        (["sharp_growth"], "missing a required argument: 'kappa'"),
        (["uniform_convex", "--param", "bogus=1"], "missing a required argument: 'd'"),
        (["sharp_growth", "--param", "kappa=1.5", "--param", "bias_delta=0.25",
          "--param", "bogus=1"], "got an unexpected keyword argument 'bogus'"),
        (["uniform_convex", "--param", "d=1", "--param", "kappa=two", "--param", "lam=1",
          "--param", "L=4", "--param", "R=1"], "'kappa' is not a number: 'two'"),
    ):
        assert main(["verify-instance", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgrowth: error: instance {argv[0]!r}: {message}\n"


def test_cli_verify_instance_rejects_a_probe_count_below_one(capsys):
    for probes in ("0", "-3"):
        argv = ["verify-instance", "sharp_growth", "--param", "kappa=1.5", "--param",
                "bias_delta=0.25", "--probes", probes]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgrowth: error: need at least one probe, got {probes}\n"


def test_cli_verify_instance_rejects_a_dimension_below_one(capsys):
    argv = ["verify-instance", "pure_convex", "--param", "d=0", "--param", "L=1", "--param", "R=1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpgrowth: error: d must be >= 1, got 0\n"


def test_cli_verify_instance_rejects_a_fractional_dimension(capsys):
    argv = ["verify-instance", "pure_convex", "--param", "d=1.5", "--param", "L=1", "--param",
            "R=1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpgrowth: error: d must be an integer, got 1.5\n"


def test_cli_verify_instance_rejects_a_scale_that_is_not_finite_and_positive(capsys):
    # A negative lam once reached a complex power and a traceback, a
    # negative L was accepted, and an infinite L reported "nan (FAIL)".
    for instance, params, message in (
        ("uniform_convex", "kappa=4 lam=-1 L=4 R=1 bias_delta=0.1", "lam must be finite and "
         "positive, got -1"),
        ("uniform_convex", "kappa=2 lam=1 L=inf R=1 bias_delta=0.1", "L must be finite and "
         "positive, got inf"),
        ("uniform_convex", "kappa=2 lam=1 L=4 R=nan bias_delta=0.1", "R must be finite and "
         "positive, got nan"),
        ("pure_convex", "L=-1 R=1", "L must be finite and positive, got -1"),
        ("pure_convex", "L=1 R=0", "R must be finite and positive, got 0"),
        ("knorm_regression", "kappa=2 R=-inf", "R must be finite and positive, got -inf"),
    ):
        argv = ["verify-instance", instance, "--param", "d=1"]
        for param in params.split():
            argv += ["--param", param]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgrowth: error: {message}\n"


def test_cli_rejects_a_job_count_below_one(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    audit_ini = _write(tmp_path, "[audit]\nepsilons = 1.0\nn = 16\ntrials = 50\n"
                                 "pipelines = localization\n", name="audit.ini")
    for jobs in ("0", "-3"):
        for argv in (["run", str(cfg_path), "--out", str(tmp_path / "res")],
                     ["audit", str(audit_ini), "--out", str(tmp_path / "audit.json")]):
            assert main([*argv, "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"dpgrowth: error: jobs must be >= 1, got {jobs}\n"
            assert not (tmp_path / "res").exists()
            assert not (tmp_path / "audit.json").exists()


EPOCH_CONFIG = TINY_CONFIG.replace("algorithm = erm_oracle", "algorithm = epoch_growth").replace(
    "[output]", "[algorithm]\nkappa_lower = 3.0\n\n[output]")


INVSENS_CONFIG = TINY_CONFIG.replace(
    "algorithm = erm_oracle", "algorithm = inv_sensitivity").replace(
    "[output]", "[algorithm]\nrho = 1e-2\n\n[output]")


def test_cli_run_rejects_out_of_range_sweep_values_before_any_trial(tmp_path, capsys):
    # Each value but the instance's d is out of range in one cell only; the
    # sweep must stop with one error line before it runs a trial or writes a
    # file, whatever the algorithm.
    for algorithm_config in (TINY_CONFIG, EPOCH_CONFIG, INVSENS_CONFIG):
        for old, new, message in (
            ("epsilon = 1.0", "epsilon = 1.0, -1", "epsilon must be finite and positive, got -1.0"),
            ("epsilon = 1.0", "epsilon = 1.0\ndelta = 0.0, 1.5", "delta must lie in [0, 1), got 1.5"),
            ("n = 64", "n = 64, 0", "n must be >= 1, got 0"),
            ("d = 1\nkappa", "d = 0\nkappa", "d must be >= 1, got 0"),
            ("epsilon = 1.0", "epsilon = 1.0\nd = 1, 0", "d must be >= 1, got 0"),
            ("epsilon = 1.0", "epsilon = 1.0\nd = 1, -2", "d must be >= 1, got -2"),
            ("n = 64", "n = 64, 64.7", "n and d must be integers, got n = 64.7, d = 1"),
            ("epsilon = 1.0", "epsilon = 1.0\nd = 1, 1.5",
             "n and d must be integers, got n = 64, d = 1.5"),
        ):
            out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
            path = _write(tmp_path, algorithm_config.replace(old, new))
            assert main(["run", str(path), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"dpgrowth: error: {message}\n"
            assert not out.exists()
    # Chain configs are built for every cell too: an approximate budget past
    # the noise's range, a cell too small for its epochs, a d that the
    # one-dimensional sharp_growth does not have, and a negative d of
    # knorm_regression; and the start offset is checked.  Both chains'
    # configs reject a noise multiplier that is NaN, infinite or negative.
    instance = ("name = uniform_convex\nd = 1\nkappa = 2\nlam = 1.0\nL = 4.0\nR = 1.0\n"
                "bias_delta = 0.1")
    localization_config = EPOCH_CONFIG.replace("epoch_growth", "localization")
    for config, old, new, message in [
        (EPOCH_CONFIG, "epsilon = 1.0", "epsilon = 1.0\ndelta = 0.0, 0.7",
         "approximate mode needs delta <= 0.5, got 0.7"),
        (EPOCH_CONFIG, "n = 64", "n = 64, 3",
         "per-epoch batch too small (n0=1); reduce the epoch count"),
        (EPOCH_CONFIG, instance, "name = sharp_growth\nd = 3\nkappa = 1.5\nbias_delta = 0.25",
         "instance 'sharp_growth' has d = 1, not 3"),
        (EPOCH_CONFIG, instance, "name = knorm_regression\nd = -1\nkappa = 2\nR = 1.0",
         "d must be >= 1, got -1"),
        (EPOCH_CONFIG, "beta = auto", "beta = auto\nx0_offset = nan",
         "x0_offset must be finite, got nan"),
    ] + [
        (config, "kappa_lower = 3.0", f"kappa_lower = 3.0\nnoise_scale = {scale}",
         f"noise_scale must be finite and >= 0, got {float(scale)}")
        for config in (localization_config, EPOCH_CONFIG)
        for scale in ("nan", "inf", "-inf", "-1")
    ]:
        path = _write(tmp_path, config.replace(old, new))
        assert main(["run", str(path), "--out", str(tmp_path / "chain")]) == 2
        assert capsys.readouterr().err == f"dpgrowth: error: {message}\n"
        assert not (tmp_path / "chain").exists()
    # So are the grid sampler's radius, spacing and lattice; rho is required
    # on an instance without a growth certificate.
    no_growth = INVSENS_CONFIG.replace("rho = 1e-2\n", "").replace(
        "uniform_convex", "pure_convex").replace("kappa = 2\nlam = 1.0\n", "").replace(
        "bias_delta = 0.1\n", "")
    for config, message in (
        (INVSENS_CONFIG.replace("rho = 1e-2", "rho = 1e-2\ngrid_spacing = 0"),
         "grid spacing must satisfy 0 < h <= rho / 4, got h = 0.0"),
        (INVSENS_CONFIG.replace("rho = 1e-2", "rho = 1e-2\ngrid_spacing = -1e-3"),
         "grid spacing must satisfy 0 < h <= rho / 4, got h = -0.001"),
        (INVSENS_CONFIG.replace("rho = 1e-2", "rho = -1"),
         "rho must be finite and positive, got -1.0"),
        (INVSENS_CONFIG.replace("rho = 1e-2", "rho = 1e-8"),
         "grid spacing 2.5e-09 puts more than 10000000 points on [-1.0, 1.0]; "
         "use a coarser spacing"),
        (no_growth, "supply rho or a growth certificate"),
    ):
        path = _write(tmp_path, config)
        assert main(["run", str(path), "--out", str(tmp_path / "grid")]) == 2
        assert capsys.readouterr().err == f"dpgrowth: error: {message}\n"
        assert not (tmp_path / "grid").exists()


def test_kappa_lower_in_sweep_or_algorithm_writes_the_same_rows(tmp_path):
    # A config's hash differs between the two spellings; every other field
    # of every row is the same, kappa_lower written as a float.
    rows = []
    for text in (
        EPOCH_CONFIG.replace("kappa_lower = 3.0", "kappa_lower = 3"),
        EPOCH_CONFIG.replace("[algorithm]\nkappa_lower = 3.0\n\n", "").replace(
            "epsilon = 1.0", "epsilon = 1.0\nkappa_lower = 3"),
    ):
        _, csv_path, _ = run_sweep(load_config(_write(tmp_path, text)),
                                   tmp_path / f"out{len(rows)}")
        rows.append([{**row, "config_hash": ""} for row in csv.DictReader(csv_path.open())])
    assert rows[0] == rows[1]
    assert [row["kappa_lower"] for row in rows[0]] == ["3.0"] * 3


def test_audit_skips_noiseless_budget_with_notice():
    rows = privacy_audit(
        epsilons=(math.inf,), trials=100, pipelines=("localization",)
    )
    assert len(rows) == 1
    assert rows[0].mode == "skipped"
    assert rows[0].report is None


def test_cli_audit_rejects_bad_budgets_and_lists_before_any_row_runs(tmp_path, capsys,
                                                                     monkeypatch):
    # Only +inf is a noiseless budget; NaN and -inf, an empty pipeline list,
    # an unknown pipeline, and the histogram test's own bounds on epsilon,
    # trials and bins stop the audit with one error line before any chain
    # batch or grid-sampler row runs.
    ran = []
    for module, name in ((harness.localization, "_run_chains"),
                         (harness.inv_sensitivity, "build_density")):
        monkeypatch.setattr(module, name, lambda *args, name=name: ran.append(name))
    test_bounds = "need epsilon > 0, trials >= 1, bins >= 2"
    for text, message in (
        ("epsilons = nan", "epsilon must be a number or inf, got nan"),
        ("epsilons = 1.0, -inf", "epsilon must be a number or inf, got -inf"),
        ("epsilons = inf, nan", "epsilon must be a number or inf, got nan"),
        ("pipelines =", "an audit needs at least one pipeline and one epsilon"),
        ("pipelines = localization, grid", "unknown pipeline 'grid'; pick from localization, "
         "epoch_growth, inv_sensitivity"),
        ("epsilons = 1.0, 0", test_bounds),
        ("epsilons = 1.0, -1", test_bounds),
        ("trials = 0", test_bounds),
        ("bins = 1", test_bounds),
    ):
        audit_ini = _write(tmp_path, f"[audit]\nn = 16\n{text}\n", name="audit.ini")
        assert main(["audit", str(audit_ini), "--out", str(tmp_path / "audit.json")]) == 2, text
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"dpgrowth: error: {message}\n"), text
        assert not ran and not (tmp_path / "audit.json").exists()
    # So does a sabotaged row's noise multiplier that is NaN, infinite or
    # negative, whichever pipeline it is for, and a zero one for the grid
    # sampler, which runs at epsilon / multiplier (it ended in
    # ZeroDivisionError); a chain reads zero as noiseless.
    zero = "the grid sampler's noise_scale must be > 0, got 0.0"
    for pipeline, scale, message in (
        ("localization", math.nan, "noise_scale must be finite and >= 0, got nan"),
        ("epoch_growth", math.inf, "noise_scale must be finite and >= 0, got inf"),
        ("inv_sensitivity", -math.inf, "noise_scale must be finite and >= 0, got -inf"),
        ("epoch_growth", -1.0, "noise_scale must be finite and >= 0, got -1.0"),
        ("inv_sensitivity", 0.0, zero),
        ("inv_sensitivity", -0.0, zero),
    ):
        with pytest.raises(InvalidInputError, match=message):
            privacy_audit(epsilons=(1.0,), n=16, trials=10,
                          sabotage_scales={(pipeline, 1.0): scale})
        assert not ran


def test_a_chain_audit_reads_a_zero_multiplier_as_noiseless():
    # A chain's sabotaged row at multiplier 0 asks for no noise draws (its
    # children block used to raise ZeroDivisionError).  With no noise every
    # output on a dataset is that dataset's one noiseless iterate.
    datasets = harness._audit_datasets(16)
    for pipeline in ("localization", "epoch_growth"):
        rows = privacy_audit(epsilons=(1.0,), n=16, trials=50, bins=4, pipelines=(pipeline,),
                             sabotage_scales={(pipeline, 1.0): 0.0})
        assert [(r.pipeline, r.mode) for r in rows] == [(pipeline, "honest"),
                                                       (pipeline, "sabotaged")]
        assert all(r.report is not None for r in rows)
        outs = harness._audit_chains(pipeline, [(0.0, 1.0, data, harness.RngStream(7, 1), 50)
                                                for data in datasets])
        assert [np.unique(out).size for out in outs] == [1, 1]


def _per_row_report(pipeline, eps, scale, trials, bins, stream):
    """An audit row as one empirical_dp_test run: the grid sampler's
    outputs on each dataset from one density and one ``sample`` call at
    eps / scale, the chain's from one ``run`` call on a block of child
    streams."""
    data, neighbor = harness._audit_datasets(32)
    if pipeline == "inv_sensitivity":
        inst = harness._audit_abs_instance()

        def mech(dataset, rng, count):
            density = inv_sensitivity.build_density(inst.loss, dataset, inst.domain,
                                                    eps / scale, rho=0.1)
            return inv_sensitivity.sample(density, rng, size=count)[:, 0]
    else:
        inst = harness._audit_quadratic_instance()
        cfg = harness._audit_config(pipeline, inst, scale, eps, 32)

        def mech(dataset, rng, count):
            return harness._CHAINS[pipeline].run(inst.loss, dataset, inst.domain, np.zeros(1),
                                                 cfg, rng.children(count))[:, 0]

    return empirical_dp_test(mech, data, neighbor, eps, trials, bins, stream)


@pytest.mark.parametrize("jobs", [1, 2])
def test_batched_audit_equals_per_row_runs(monkeypatch, jobs):
    # Batches of 3 groups of 300 outputs split rows across batches and mix
    # budgets and noise scales (the acceptance premise's 1/16.1 among them);
    # a cap below 300 runs every group alone.
    kwargs = dict(epsilons=(0.5, 2.0), n=32, trials=300, bins=12, master_seed=11, jobs=jobs,
                  pipelines=("localization", "inv_sensitivity", "epoch_growth"),
                  sabotage_scales={("localization", 2.0): 1 / 16.1,
                                   ("epoch_growth", 0.5): 1 / 16.1})
    scale = {(p, e): s for (p, e), s in kwargs["sabotage_scales"].items()}
    want = []
    for index, (pipeline, eps, mode) in enumerate(
            (p, e, m) for p in kwargs["pipelines"] for e in kwargs["epsilons"]
            for m in ("honest", "sabotaged")):
        s = 1.0 if mode == "honest" else scale.get((pipeline, eps), 0.5)
        report = _per_row_report(pipeline, eps, s, 300, 12, harness.RngStream(11, index))
        want.append(repr((pipeline, eps, mode, report)))
    run_chains, batches = harness.localization._run_chains, []
    monkeypatch.setattr(harness.localization, "_run_chains",
                        lambda loss, domain, groups: batches.append(len(groups))
                        or run_chains(loss, domain, groups))
    for cap, sizes in ((1000, [3, 3, 2, 3, 3, 2]), (200, [1] * 16)):
        monkeypatch.setattr(harness, "_AUDIT_BATCH", cap)
        batches.clear()
        rows = privacy_audit(**kwargs)
        assert [repr((r.pipeline, r.epsilon, r.mode, r.report)) for r in rows] == want
        assert batches == (sizes if jobs == 1 else [])


def test_audit_grid_rows_equal_empirical_dp_test_runs(monkeypatch):
    # At 2000 outputs per dataset every grid row's report is conclusive
    # (at 300 they all read inconclusive), so a wrong budget or stream
    # shows.  A cap of 2400 packs each side alone, one of 4000 both sides
    # of a row together; an honest row, the default sabotage and 1/4.
    kwargs = dict(epsilons=(0.5, 2.0), n=32, trials=2000, bins=12, master_seed=11,
                  pipelines=("inv_sensitivity",),
                  sabotage_scales={("inv_sensitivity", 2.0): 0.25})
    want = []
    for index, (eps, mode, scale) in enumerate(((0.5, "honest", 1.0), (0.5, "sabotaged", 0.5),
                                                 (2.0, "honest", 1.0), (2.0, "sabotaged", 0.25))):
        report = _per_row_report("inv_sensitivity", eps, scale, 2000, 12,
                                 harness.RngStream(11, index))
        assert not report.inconclusive
        want.append(repr(("inv_sensitivity", eps, mode, report)))
    for cap in (2400, 4000):
        monkeypatch.setattr(harness, "_AUDIT_BATCH", cap)
        rows = privacy_audit(**kwargs)
        assert [repr((r.pipeline, r.epsilon, r.mode, r.report)) for r in rows] == want


def test_csv_schema_is_frozen():
    assert CSV_COLUMNS == (
        "config_hash",
        "instance",
        "algorithm",
        "n",
        "d",
        "epsilon",
        "delta",
        "kappa",
        "kappa_lower",
        "seed",
        "excess_emp",
        "excess_pop",
        "epoch_i0",
        "error",
    )


LOCALIZATION_CONFIG = TINY_CONFIG.replace("algorithm = erm_oracle", "algorithm = localization"
                                          ).replace("epsilon = 1.0", "epsilon = 1.0\nd = 1, 2")


def test_localization_sweep_draws_start_directions_only_at_a_nonzero_offset(tmp_path,
                                                                              monkeypatch):
    # At x0_offset = 0 every trial starts at the projected xstar: the rows
    # are those the per-trial draws gave (sha256 of the CSV bytes at the
    # commit that drew them), and no direction is drawn.  At 0.3 each trial
    # still draws its own.
    calls = []
    drawn = harness._starting_point
    monkeypatch.setattr(harness, "_starting_point", lambda *args: calls.append(1) or drawn(*args))
    for offset, digest, draws in (
        ("0.0", "6b86344e135babfc8e1e4cf072701a2b663da98b56b84631786ed99ff7a7f8fa", 0),
        ("0.3", "760c9d6039768f09fb7e23bf3d758864b5f7b15d09fa72851d5da22cdbad9441", 6),
    ):
        calls.clear()
        text = LOCALIZATION_CONFIG.replace("beta = auto", f"beta = auto\nx0_offset = {offset}")
        records, csv_path, _ = run_sweep(load_config(_write(tmp_path, text)), tmp_path / offset)
        assert len(records) == 6 and all(r.error == "" for r in records)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest
        assert len(calls) == draws
