import math

import numpy as np
import pytest

from dpgrowth.core import Dataset, Domain, InvalidInputError, PrivacyParams, RngStream, project
from dpgrowth.localization import LocalizationConfig, _table, default_eta, run
from dpgrowth.mechanisms import gaussian_sigma, laplace_sigma
from dpgrowth.instances import build_instance


def _quad_instance():
    return build_instance(
        "uniform_convex", d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1
    )


# ---------------------------------------------------------------------------
# Step-size formulas
# ---------------------------------------------------------------------------


def test_default_eta_pure_frozen_value():
    # min(1/sqrt(1e4 ln 1e4), 1/(10 ln 1e4)): the statistical branch wins.
    got = default_eta(1.0, 1.0, 10**4, 1e-4, PrivacyParams(1.0), 10)
    assert got == pytest.approx(0.0032950511449113037, abs=1e-12)
    assert got == pytest.approx(1.0 / math.sqrt(10**4 * math.log(10**4)), abs=1e-15)


def test_default_eta_pure_limits():
    base = dict(R=1.0, L=1.0, n=10**4, beta=1e-4, d=10)
    stat = 1.0 / math.sqrt(base["n"] * math.log(1.0 / base["beta"]))
    assert default_eta(1.0, 1.0, 10**4, 1e-4, PrivacyParams(1e9), 10) == pytest.approx(stat)
    tiny = default_eta(1.0, 1.0, 10**4, 1e-4, PrivacyParams(1.0), 10**9)
    assert tiny == pytest.approx(1e-9 / math.log(1e4), rel=1e-9)


def test_default_eta_pure_rejects_large_beta():
    with pytest.raises(InvalidInputError):
        default_eta(1.0, 1.0, 100, 0.5, PrivacyParams(1.0), 1)


def test_default_eta_approx_frozen_values():
    got = default_eta(1.0, 1.0, 10**4, 1e-4, PrivacyParams(1.0, 1e-6), 10)
    assert got == pytest.approx(0.0032950511449113037, abs=1e-12)  # statistical branch
    got100 = default_eta(1.0, 1.0, 10**4, 1e-4, PrivacyParams(1.0, 1e-6), 100)
    assert got100 == pytest.approx(0.002921062507079544, abs=1e-12)  # privacy branch


def test_default_eta_approx_rejects_degenerate_delta():
    with pytest.raises(InvalidInputError):
        default_eta(1.0, 1.0, 10**4, 1e-4, PrivacyParams(1.0, 0.9), 1)


# ---------------------------------------------------------------------------
# Run bookkeeping and invariants
# ---------------------------------------------------------------------------


def test_run_bookkeeping_n8():
    # n = 8: k = 3 phases of n0 = 2 samples; the remainder is never touched.
    inst = _quad_instance()
    data = inst.draw(8, RngStream(1, 0))
    cfg = LocalizationConfig.for_data_size(8, 0.01, PrivacyParams(1.0))
    assert (cfg.k, cfg.n0) == (3, 2)
    trace = []
    run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(1, 1)], phase_trace=trace)
    assert len(trace) == 3


def test_run_trust_regions_shrink_16x_and_confine():
    inst = _quad_instance()
    n = 256
    beta = 1.0 / (n + 1)
    eta = default_eta(2.0, 4.0, n, beta, PrivacyParams(1.0), 1)
    cfg = LocalizationConfig.for_data_size(n, eta, PrivacyParams(1.0))
    data = inst.draw(n, RngStream(2, 0))
    trace = []
    run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(2, 1)], phase_trace=trace)
    # The record's schedule fields are Python floats, the table's entries.
    table = _table(cfg, inst.loss.lipschitz, 1)[0]
    for rec, (eta_i, radius, *_, sigma_used) in zip(trace, table.tolist()):
        for got, want in ((rec.eta_i, eta_i), (rec.radius, radius), (rec.sigma, sigma_used)):
            assert type(got) is float and got == want
    radii = [rec.radius for rec in trace]
    for a, b in zip(radii, radii[1:]):
        assert a / b == pytest.approx(16.0)
    anchor = np.zeros(1)
    for rec in trace:
        assert np.linalg.norm(rec.x_solved[0] - anchor) <= rec.radius + 1e-9
        assert inst.domain.contains(rec.x_noised[0], tol=1e-9)
        anchor = rec.x_noised[0]


def test_run_is_deterministic_given_stream():
    inst = _quad_instance()
    data = inst.draw(64, RngStream(3, 0))
    cfg = LocalizationConfig.for_data_size(64, 0.005, PrivacyParams(1.0))
    a = run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(3, 9)])[0]
    b = run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(3, 9)])[0]
    assert np.array_equal(a, b)


def test_noiseless_run_on_a_children_block_equals_the_list_of_its_streams():
    # noise_scale = 0 asks for size-0 noise rows, which a children block
    # used to send to the array Laplace pass (ZeroDivisionError).  Neither
    # layout draws, so both give the same bits and seed no generator.
    inst = _quad_instance()
    data = inst.draw(64, RngStream(3, 0))
    cfg = LocalizationConfig.for_data_size(64, 0.005, PrivacyParams(1.0), noise_scale=0.0)
    block = RngStream(1).children(3)
    streams = list(block)
    a = run(inst.loss, data, inst.domain, np.zeros(1), cfg, block)
    b = run(inst.loss, data, inst.domain, np.zeros(1), cfg, streams)
    assert a.shape == (3, 1)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert block.parent._gen is None and all(s._gen is None for s in streams)


def test_run_input_validation():
    inst = _quad_instance()
    data = inst.draw(4, RngStream(4, 0))
    cfg = LocalizationConfig(eta=0.01, privacy=PrivacyParams(1.0), k=5, n0=1)
    with pytest.raises(InvalidInputError):
        run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(4, 1)])
    cfg2 = LocalizationConfig.for_data_size(4, 0.01, PrivacyParams(1.0))
    with pytest.raises(InvalidInputError):
        run(inst.loss, data, inst.domain, np.array([9.0]), cfg2, [RngStream(4, 2)])


def test_gaussian_modes_change_noise_scale():
    # Phase i's noise scale is calibrated to its sensitivity bound 4 L eta_i:
    # gaussian_sigma for an approximate budget, Laplace for a pure one.
    inst = _quad_instance()
    data = inst.draw(64, RngStream(5, 0))
    L = inst.loss.lipschitz
    for privacy in (PrivacyParams(1.0, 1e-6), PrivacyParams(0.5, 1e-10), PrivacyParams(1.0)):
        cfg = LocalizationConfig.for_data_size(64, 0.005, privacy)
        trace: list = []
        run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(5, 1)], phase_trace=trace)
        calibrate = laplace_sigma if privacy.is_pure else (
            lambda s, eps: gaussian_sigma(s, eps, privacy.delta))
        assert len(trace) == cfg.k
        assert [rec.sigma for rec in trace] == [
            calibrate(4.0 * L * rec.eta_i, privacy.epsilon) for rec in trace]
    with pytest.raises(InvalidInputError):
        LocalizationConfig.for_data_size(64, 0.005, PrivacyParams(1.0, 0.9))


def test_fast_scalar_path_matches_generic_solver():
    import copy

    inst = _quad_instance()
    data = inst.draw(64, RngStream(6, 0))
    cfg = LocalizationConfig.for_data_size(64, 0.01, PrivacyParams(1.0))
    generic_loss = copy.copy(inst.loss)
    generic_loss.structure = None
    for t in range(20):
        a = run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(6, t)])[0]
        b = run(generic_loss, data, inst.domain, np.zeros(1), cfg, [RngStream(6, t)])[0]
        assert abs(a[0] - b[0]) < 1e-12


# ---------------------------------------------------------------------------
# Risk behavior (seeded Monte Carlo regressions)
# ---------------------------------------------------------------------------


def test_noiseless_run_tracks_empirical_minimizer():
    # Noise-free mode approximates the chained regularized ERM; the output
    # stays within a few statistical errors of the full-data minimizer.
    inst = _quad_instance()
    n = 4096
    beta = 1.0 / (n + 1)
    eta = default_eta(
        inst.domain.diameter(), inst.loss.lipschitz, n, beta, PrivacyParams(1e6), 1
    )
    cfg = LocalizationConfig.for_data_size(n, eta, PrivacyParams(1e6))
    dists, excesses = [], []
    for seed in range(50):
        st = RngStream(31, seed)
        data = inst.draw(n, st.child(0))
        x0 = project(inst.domain, inst.xstar + np.array([0.05]))
        out = run(inst.loss, data, inst.domain, x0, cfg, [st.child(1)])[0]
        xemp, _ = inst.empirical_min(data)
        dists.append(abs(out[0] - xemp[0]))
        excesses.append(inst.excess_pop(out))
    stat_error = (inst.loss.lipschitz / 2.0) / math.sqrt(cfg.n0)
    assert np.median(dists) <= 3.0 * stat_error
    # Regression constant frozen from the first implementation run (0.022).
    assert np.median(excesses) <= 0.05 / math.sqrt(cfg.n0)


def test_pure_convex_risk_regression_bound():
    # Control instance without growth at (d=5, n=2^12, eps=1): the median
    # excess stays under a frozen multiple of the rate shape
    # 1/sqrt(n) + d log(1/beta) log2(n) / (n eps).
    inst = build_instance("pure_convex", d=5, L=1.0, R=1.0)
    n, d = 2**12, 5
    beta = 1.0 / (n + d)
    eta = default_eta(
        inst.domain.diameter(), inst.loss.lipschitz, n, beta, PrivacyParams(1.0), d
    )
    cfg = LocalizationConfig.for_data_size(n, eta, PrivacyParams(1.0))
    vals = []
    for seed in range(100):
        st = RngStream(880000 + seed, 0)
        data = inst.draw(n, st.child(0))
        out = run(inst.loss, data, inst.domain, np.zeros(d), cfg, [st.child(1)])[0]
        vals.append(inst.excess_pop(out))
    shape = 1.0 / math.sqrt(n) + d * math.log(1.0 / beta) * math.log2(n) / n
    # Frozen at first implementation: measured C ~ 0.035.
    assert np.median(vals) <= 0.08 * shape


def test_high_probability_quantile_decreases_with_n():
    inst = _quad_instance()
    quantiles = []
    for n in (2**8, 2**10, 2**12):
        beta = 1.0 / (n + 1)
        eta = default_eta(
            inst.domain.diameter(), inst.loss.lipschitz, n, beta, PrivacyParams(1.0), 1
        )
        cfg = LocalizationConfig.for_data_size(n, eta, PrivacyParams(1.0))
        ex = []
        for seed in range(120):
            st = RngStream(991000 + 17 * n + seed, 0)
            data = inst.draw(n, st.child(0))
            x0 = project(inst.domain, inst.xstar + np.array([0.05]))
            out = run(inst.loss, data, inst.domain, x0, cfg, [st.child(1)])[0]
            ex.append(inst.excess_pop(out))
        quantiles.append(float(np.quantile(ex, 1.0 - beta, method="higher")))
        assert np.isfinite(quantiles[-1])
    assert quantiles[0] > quantiles[1] > quantiles[2]
