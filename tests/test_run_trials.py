"""The batched 1-D phase chains reproduce the per-trial runs bit for bit.

``localization.run_trials`` and ``epoch_growth.run_trials`` run every trial
of the privacy audit in one vectorized pass, drawing each trial's noise from
its own stream.  Each case checks them against a loop of ``run`` calls on the
same streams with ``np.array_equal``: pure, approximate (delta = 1e-6) and
conservative-Gaussian budgets, noise scales 1, 0.5 and 0, the audit's own
configs on both audit datasets, an epoch schedule with frozen epochs, and
one whose noise reaches the epoch radii.
"""

import numpy as np
import pytest

from dpgrowth import epoch_growth, harness, localization
from dpgrowth.core import InvalidInputError, PrivacyParams, RngStream
from dpgrowth.instances import build_instance

TRIALS = 200

MODES = {
    "pure": (PrivacyParams(1.0), False),
    "approx": (PrivacyParams(1.0, 1e-6), False),
    "conservative": (PrivacyParams(1.0, 1e-6), True),
}


def _quad_instance(d=1):
    return build_instance(
        "uniform_convex", d=d, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1
    )


def _streams(seed):
    parent = RngStream(seed, 5)
    return (parent.child(t) for t in range(TRIALS))


def _assert_matches_run(module, loss, data, domain, x0, cfg, seed):
    got = module.run_trials(loss, data, domain, x0, cfg, _streams(seed))
    want = [module.run(loss, data, domain, x0, cfg, s)[0] for s in _streams(seed)]
    assert got.shape == (TRIALS, 1)
    assert np.array_equal(got[:, 0], np.array(want))


def _config(pipeline, inst, n, privacy, conservative, noise_scale, kappa_lower=3.0):
    kw = dict(noise_scale=noise_scale, gaussian_conservative=conservative)
    if pipeline == "localization":
        beta = 1.0 / (n + 1)
        eta = localization.default_eta(
            inst.domain.diameter(), inst.loss.lipschitz, n, beta, privacy, 1
        )
        return localization.LocalizationConfig.for_data_size(n, eta, beta, privacy, **kw)
    return epoch_growth.EpochConfig.for_run(
        n, inst.loss, inst.domain, kappa_lower, 1.0 / (n + 1), privacy, **kw
    )


MODULES = {"localization": localization, "epoch_growth": epoch_growth}


@pytest.mark.parametrize("noise_scale", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_run_trials_matches_run_per_budget(pipeline, mode, noise_scale):
    privacy, conservative = MODES[mode]
    inst = _quad_instance()
    n = 128
    data = inst.draw(n, RngStream(60, 0))
    cfg = _config(pipeline, inst, n, privacy, conservative, noise_scale)
    # Start off-center so both the trust-region and the domain clamps bind.
    _assert_matches_run(
        MODULES[pipeline], inst.loss, data, inst.domain, np.array([0.9]), cfg, 61
    )


@pytest.mark.parametrize("scale", [1.0, 0.5, 1.0 / 16.1])
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_audit_mechanism_matches_per_trial_runs(pipeline, scale):
    # The audit's own configs (n = 32) on both datasets of the audit pair.
    module, config, _ = harness._CHAINS[pipeline]
    inst = harness._audit_quadratic_instance()
    for eps in (0.5, 1.0, 2.0):
        mech = harness._audit_mechanism(pipeline, scale, eps)
        for dataset in harness._audit_datasets(32):
            got = mech(dataset, RngStream(62, 1), TRIALS)
            cfg = config(inst, scale, eps, dataset.n)
            parent = RngStream(62, 1)
            want = [
                module.run(inst.loss, dataset, inst.domain, np.zeros(1), cfg,
                           parent.child(t))[0]
                for t in range(TRIALS)
            ]
            assert np.array_equal(got, np.array(want))


def test_epoch_run_trials_skips_frozen_epochs():
    # kappa_lower = 1.2 at n = 1024 gives T = 101 epochs; radii below 1e-15 R0 (i >= 50) freeze 51 of them.
    inst = _quad_instance()
    n = 1024
    cfg = _config("epoch_growth", inst, n, PrivacyParams(1.0), False, 1.0, kappa_lower=1.2)
    data = inst.draw(n, RngStream(63, 0))
    trace: list = []
    epoch_growth.run(inst.loss, data, inst.domain, np.zeros(1), cfg, RngStream(63, 1),
                     trace=trace)
    assert cfg.T == 101
    assert sum(rec.frozen for rec in trace) == 51
    _assert_matches_run(epoch_growth, inst.loss, data, inst.domain, np.zeros(1), cfg, 64)


def test_epoch_run_trials_clamps_to_each_trials_region():
    # A step size 30x the default at eps = 0.1 makes the noise comparable to
    # the epoch radii, so outputs land on their own trial's region bounds.
    inst = _quad_instance()
    n = 128
    base = _config("epoch_growth", inst, n, PrivacyParams(0.1), False, 1.0)
    cfg = epoch_growth.EpochConfig(
        kappa_lower=base.kappa_lower, beta=base.beta, privacy=base.privacy, T=base.T,
        R0=base.R0, eta0=0.5,
    )
    data = inst.draw(n, RngStream(67, 0))
    x0 = np.array([0.9])
    on_region_edge = 0
    for s in _streams(68):
        trace: list = []
        epoch_growth.run(inst.loss, data, inst.domain, x0, cfg, s, trace=trace)
        on_region_edge += sum(
            abs(rec.x_next[0] - rec.center[0]) >= rec.radius * (1 - 1e-12)
            and abs(rec.x_next[0]) < 1.0
            for rec in trace
        )
    assert on_region_edge > 0
    _assert_matches_run(epoch_growth, inst.loss, data, inst.domain, x0, cfg, 68)


@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_run_trials_rejects_other_losses_and_bad_inputs(pipeline):
    module = MODULES[pipeline]
    privacy = PrivacyParams(1.0)
    cube = _quad_instance(d=3)
    data3 = cube.draw(64, RngStream(65, 0))
    cfg3 = _config(pipeline, cube, 64, privacy, False, 1.0)
    with pytest.raises(InvalidInputError):
        module.run_trials(cube.loss, data3, cube.domain, np.zeros(3), cfg3, _streams(66))
    absolute = build_instance("pure_convex", d=1, L=1.0, R=1.0)
    data1 = absolute.draw(64, RngStream(65, 1))
    cfg1 = _config(pipeline, absolute, 64, privacy, False, 1.0)
    with pytest.raises(InvalidInputError):
        module.run_trials(absolute.loss, data1, absolute.domain, np.zeros(1), cfg1,
                          _streams(66))
    # The input checks of ``run`` hold too: x0 outside the domain, too few samples.
    quad = _quad_instance()
    data = quad.draw(64, RngStream(65, 2))
    cfg = _config(pipeline, quad, 64, privacy, False, 1.0)
    with pytest.raises(InvalidInputError):
        module.run_trials(quad.loss, data, quad.domain, np.array([9.0]), cfg, _streams(66))
    with pytest.raises(InvalidInputError):
        module.run_trials(quad.loss, quad.draw(4, RngStream(65, 3)), quad.domain,
                          np.zeros(1), cfg, _streams(66))
