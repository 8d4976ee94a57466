import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from dpgrowth.core import Domain, InvalidInputError, PrivacyParams, RngStream, project
from dpgrowth import erm, harness, localization, mechanisms
from dpgrowth.epoch_growth import (
    _FROZEN_RADIUS_FRACTION,
    EpochConfig,
    EpochRecord,
    _block_size,
    _chains,
    default_eta0,
    epoch_count,
    indices_in_region,
    run,
)
from dpgrowth.instances import build_instance


def test_epoch_count_formula():
    assert epoch_count(1024, 1.5) == math.ceil(2 * 10 / 0.5)
    assert epoch_count(1024, 21.0) == 1
    with pytest.raises(InvalidInputError):
        epoch_count(1024, 1.0)


def test_default_eta0_frozen_value():
    got = default_eta0(2.0, 1.0, 1024, 1e-3, PrivacyParams(1.0), 4)
    assert got == pytest.approx(0.004516154796369106, abs=1e-12)
    # The statistical branch binds: 4.516e-3 < 1/(4 ln 1000) = 3.62e-2.
    stat = 1.0 / math.sqrt(1024 * math.log(1024) * math.log(1000.0))
    assert got == pytest.approx(stat, rel=1e-9)


def test_default_eta0_branches_and_errors():
    big_eps = default_eta0(2.0, 1.0, 1024, 1e-3, PrivacyParams(1e9), 4)
    stat = 1.0 / math.sqrt(1024 * math.log(1024) * math.log(1000.0))
    assert big_eps == pytest.approx(stat, rel=1e-9)
    with pytest.raises(InvalidInputError):
        default_eta0(2.0, 1.0, 1, 1e-3, PrivacyParams(1.0), 4)
    with pytest.raises(InvalidInputError):
        default_eta0(2.0, 1.0, 1024, 1e-3, PrivacyParams(1.0, 0.9), 1)
    approx = default_eta0(2.0, 1.0, 1024, 1e-3, PrivacyParams(1.0, 1e-6), 1)
    priv = 1.0 / (math.sqrt(math.log(1e6)) * math.log(1e3))
    assert approx == pytest.approx(min(stat, priv), rel=1e-9)


def _instance(kappa=2, lam=1.0, L=4.0, bias=0.1):
    return build_instance(
        "uniform_convex", d=1, kappa=kappa, lam=lam, L=L, R=1.0, bias_delta=bias
    )


def test_single_epoch_degenerates_to_one_localization_call():
    inst = _instance()
    n = 256
    cfg = EpochConfig.for_run(n, inst.loss, inst.domain, 30.0, 1e-3, PrivacyParams(1.0))
    assert cfg.T == 1
    data = inst.draw(n, RngStream(41, 0))
    out = run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(41, 1)])[0]
    inner = localization.LocalizationConfig.for_data_size(n, cfg.eta0, PrivacyParams(1.0))
    region = Domain(np.zeros(1), cfg.R0, parent=inst.domain)
    manual = localization.run(
        inst.loss, data, region, np.zeros(1), inner, [RngStream(41, 1)]
    )[0]
    assert np.array_equal(out, manual)


def test_radius_halving_and_region_centers():
    inst = _instance()
    n = 512
    cfg = EpochConfig.for_run(n, inst.loss, inst.domain, 2.0, 1.0 / n, PrivacyParams(1.0))
    data = inst.draw(n, RngStream(42, 0))
    trace = []
    run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(42, 1)], trace=trace)
    assert len(trace) == cfg.T
    entering = np.zeros((1, 1))
    for i, rec in enumerate(trace):
        assert rec.radius == cfg.R0 * 2.0 ** (-i)
        # The region is centered at the entering iterate (x0, then the
        # previous epoch's output), and the epoch's output lies in it.
        assert rec.center.tobytes() == entering.tobytes()
        assert np.linalg.norm(rec.x_next[0] - rec.center[0]) <= rec.radius
        entering = rec.x_next


def test_insufficient_data_rejected():
    inst = _instance()
    data = inst.draw(16, RngStream(43, 0))
    cfg = EpochConfig.for_run(1024, inst.loss, inst.domain, 1.5, 1e-4, PrivacyParams(1.0))
    with pytest.raises(InvalidInputError):
        run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(43, 1)])
    with pytest.raises(InvalidInputError):
        EpochConfig.for_run(16, inst.loss, inst.domain, 1.1, 1e-2, PrivacyParams(1.0))


def test_kappa_lower_15_runs_on_kappa_2_3_4():
    for kappa, lam in ((2, 1.0), (3, 0.5), (4, 0.25)):
        inst = build_instance(
            "uniform_convex", d=1, kappa=kappa, lam=lam, L=2.0, R=1.0, bias_delta=0.0
        )
        n = 256
        cfg = EpochConfig.for_run(
            n, inst.loss, inst.domain, 1.5, 1.0 / (n + 1), PrivacyParams(1.0)
        )
        out = run(inst.loss, inst.draw(n, RngStream(44, kappa)), inst.domain,
                  np.zeros(1), cfg, [RngStream(44, 10 + kappa)])[0]
        assert inst.domain.contains(out, tol=1e-9)


def test_noiseless_mode_matches_zero_noise_oracle_within_3x():
    # eps = 1e6 behaves like the sigma = 0 oracle chain.
    inst = build_instance(
        "uniform_convex", d=1, kappa=4, lam=0.25, L=2.0, R=1.0, bias_delta=0.1
    )
    n = 512
    beta = 1.0 / (n + 1)
    noisy_cfg = EpochConfig.for_run(n, inst.loss, inst.domain, 1.5, beta, PrivacyParams(1e6))
    oracle_cfg = EpochConfig.for_run(
        n, inst.loss, inst.domain, 1.5, beta, PrivacyParams(1e6), noise_scale=0.0
    )
    noisy, oracle = [], []
    for seed in range(30):
        st = RngStream(45, seed)
        data = inst.draw(n, st.child(0))
        x0 = project(inst.domain, inst.xstar + np.array([0.02]))
        noisy.append(inst.excess_pop(
            run(inst.loss, data, inst.domain, x0, noisy_cfg, [st.child(1)])[0]))
        oracle.append(inst.excess_pop(
            run(inst.loss, data, inst.domain, x0, oracle_cfg, [st.child(1)])[0]))
    assert np.median(noisy) <= 3.0 * np.median(oracle) + 1e-12
    assert np.median(oracle) <= 3.0 * np.median(noisy) + 1e-12


def test_many_epochs_freeze_numerically():
    # kappa_lower barely above 1 forces hundreds of epochs; late ones cannot
    # move the iterate and must be recorded as frozen, not crash.
    inst = _instance(bias=0.0)
    n = 4096
    cfg = EpochConfig.for_run(n, inst.loss, inst.domain, 1.05, 1.0 / n, PrivacyParams(1.0))
    assert cfg.T >= 400
    data = inst.draw(n, RngStream(46, 0))
    trace = []
    out = run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(46, 1)], trace=trace)[0]
    assert np.all(np.isfinite(out))
    assert any(rec.frozen for rec in trace)
    frozen_start = min(i for i, rec in enumerate(trace) if rec.frozen)
    assert all(rec.frozen for rec in trace[frozen_start:])


def test_determinism():
    inst = _instance()
    data = inst.draw(256, RngStream(47, 0))
    cfg = EpochConfig.for_run(256, inst.loss, inst.domain, 1.5, 1e-3, PrivacyParams(1.0))
    a = run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(47, 1)])[0]
    b = run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(47, 1)])[0]
    assert np.array_equal(a, b)


def test_per_epoch_excess_nonincreasing_until_i0():
    # Median excess of the epoch outputs must not climb while the trust
    # regions still contain the population minimizer (flatness is allowed;
    # the 5% factor absorbs Monte Carlo noise).
    inst = _instance()
    n, seeds = 1024, 100
    cfg = EpochConfig.for_run(n, inst.loss, inst.domain, 1.5, 1.0 / (n + 1), PrivacyParams(1.0))
    per_epoch, i0s = [], []
    for seed in range(seeds):
        st = RngStream(818000 + seed, 0)
        data = inst.draw(n, st.child(0))
        u = st.child(2).gen.standard_normal(1)
        u /= abs(u)
        x0 = project(inst.domain, inst.xstar + 0.1 * inst.domain.radius * u)
        trace = []
        run(inst.loss, data, inst.domain, x0, cfg, [st.child(1)], trace=trace)
        i0s.append(indices_in_region(trace, inst.xstar)[0])
        per_epoch.append([inst.excess_pop(rec.x_next[0]) for rec in trace])
    i0_min = min(i0s)
    assert i0_min >= 1
    med = np.median(np.array(per_epoch), axis=0)
    for i in range(i0_min):
        assert med[i + 1] <= med[i] * 1.05 + 1e-12


def test_region_tracking_helpers():
    inst = _instance()
    n = 1024
    cfg = EpochConfig.for_run(n, inst.loss, inst.domain, 1.5, 1.0 / (n + 1), PrivacyParams(1.0))
    st = RngStream(48, 0)
    data = inst.draw(n, st.child(0))
    x0 = project(inst.domain, inst.xstar + np.array([0.1]))
    trace = []
    run(inst.loss, data, inst.domain, x0, cfg, [st.child(1)], trace=trace)
    i0 = indices_in_region(trace, inst.xstar)[0]
    assert 0 <= i0 < cfg.T
    # The regions that contain xstar are those of epochs 0 to i0.
    inside = [float(np.linalg.norm(inst.xstar - rec.center[0])) <= rec.radius for rec in trace]
    assert inside == [i <= i0 for i in range(cfg.T)]
    # A point far outside every region reports -1.
    assert indices_in_region(trace, np.array([55.0])) == [-1]


def test_indices_in_region_reads_each_trials_center_and_closed_regions():
    # A run trace holds one center row per trial.  Trial 0 has
    # xstar on the boundary of epoch 1's region, trial 1 leaves it.
    trace = [
        EpochRecord(0, np.array([[0.0], [0.0]]), 1.0, 1.0, np.array([[0.5], [5.0]])),
        EpochRecord(1, np.array([[0.5], [5.0]]), 0.25, 0.5, np.array([[0.5], [5.0]])),
    ]
    assert indices_in_region(trace, np.array([0.25])) == [1, 0]
    # At d = 2 each trial's distance is its own row's norm: xstar lies on
    # trial 0's epoch-1 boundary, |(0.375, 0.5)| = 0.625, and outside
    # trial 1's.
    trace = [
        EpochRecord(0, np.zeros((2, 2)), 1.0, 1.0, np.array([[0.0, 0.0], [3.0, 4.0]])),
        EpochRecord(1, np.array([[0.0, 0.0], [3.0, 4.0]]), 0.625, 0.5, np.zeros((2, 2))),
    ]
    assert indices_in_region(trace, np.array([0.375, 0.5])) == [1, 0]
    # A 2-D run trace, with xstar on the boundary: |(0.375, 0.5)| = 0.625.
    trace = [EpochRecord(0, np.zeros(2), 0.625, 1.0, np.array([3.0, 4.0]))]
    assert indices_in_region(trace, np.array([0.375, 0.5])) == [0]


def _indices_in_region_loop(trace, xstar):
    """``indices_in_region`` record by record, as it was before its one
    array pass: the reference."""
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    best = np.full(1, -1)
    for rec in trace:
        dist = erm._row_norms(xstar - np.reshape(rec.center, (-1, xstar.size)))
        best = np.where(dist <= rec.radius, rec.index, best)
    return [int(i) for i in best]


def test_indices_in_region_equals_the_record_loop():
    # Random traces at d = 1 and 4 whose centers land inside and outside
    # each radius, with frozen tail epochs, single trials whose centers are
    # 1-D rows, and the empty trace; then xstar exactly on a region's
    # boundary (|0.25 - 0.75| and |(0, -0.5, 0, 0)| are 0.5).
    rng = np.random.default_rng(29)
    cases = [([], np.zeros(1)), ([], np.zeros(4))]
    for d in (1, 4):
        for trials in (1, 2, 7):
            for epochs in (1, 3, 9):
                xstar = rng.uniform(-0.5, 0.5, d)
                radii = 2.0 ** -np.arange(epochs)
                frozen = epochs // 3
                centers = [xstar + rng.uniform(-1.5, 1.5, (trials, d)) * r for r in radii]
                if trials == 1 and epochs == 3:
                    centers = [c[0] for c in centers]
                trace = [EpochRecord(i, c, r, r, c, frozen=i >= epochs - frozen)
                         for i, (c, r) in enumerate(zip(centers, radii))]
                cases.append((trace, xstar))
    for xstar, center in ((np.array([0.25]), np.array([[0.75], [0.75 + 2**-50]])),
                          (np.array([0.25, 0.0, 0.0, 0.0]),
                           np.array([[0.25, 0.5, 0.0, 0.0], [0.25, 0.0, -0.5 - 2**-50, 0.0]]))):
        trace = [EpochRecord(0, np.zeros_like(center), 1.0, 1.0, center),
                 EpochRecord(1, center, 0.5, 0.5, center)]
        assert indices_in_region(trace, xstar) == [1, 0]
        cases.append((trace, xstar))
    found = set()
    for trace, xstar in cases:
        got = indices_in_region(trace, xstar)
        assert got == _indices_in_region_loop(trace, xstar)
        assert all(type(i) is int for i in got)
        found.update(got)
    assert {-1, 0, 1, 2} <= found


def _other_value(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, PrivacyParams):
        return PrivacyParams(2.0 * value.epsilon, value.delta)
    return value + 1 if isinstance(value, int) else value / 2.0


@pytest.mark.parametrize("chain", ["localization", "epoch_growth"])
def test_every_chain_config_field_changes_the_schedule(chain):
    # A config field the schedule never reads is a knob with no effect.
    inst = _instance()
    L, n, privacy = inst.loss.lipschitz, 256, PrivacyParams(1.0, 1e-6)
    if chain == "localization":
        base = localization.LocalizationConfig.for_data_size(n, 0.01, privacy)

        def schedule(cfg):
            return cfg.n0, localization._table(cfg, L, 1).tobytes()
    else:
        base = EpochConfig.for_run(n, inst.loss, inst.domain, 3.0, 1.0 / (n + 1), privacy)

        def schedule(cfg):
            offsets, radii, n0, table = _chains(cfg, n, L, 1)
            return list(offsets), radii, n0, table.tobytes()

    for field in dataclasses.fields(base):
        changed = dataclasses.replace(base, **{field.name: _other_value(getattr(base, field.name))})
        assert schedule(changed) != schedule(base), field.name


def _variants(cfg):
    """A chain config as the acceptance sweeps run it, then under a Gaussian
    budget, and with noise_scale != 1."""
    return (cfg, dataclasses.replace(cfg, privacy=PrivacyParams(cfg.privacy.epsilon, 1e-6)),
            dataclasses.replace(cfg, noise_scale=0.5))


def _schedule(cfg, L: float, d: int) -> list[tuple]:
    """The k phases of a localization run, one at a time, as tuples (i,
    eta_i, radius, reg_weight, sensitivity, sigma, sigma_used): step eta_i =
    2^{-4i} eta, trust radius 2 L eta_i n0, regularizer weight 1 / (eta_i
    n0), the sensitivity bound 4 L eta_i, the noise scale
    ``mechanisms.noise_sigma`` calibrates to it, and that scale times
    ``noise_scale``: the reference that ``localization._table`` is checked
    against."""
    phases = []
    for i in range(1, cfg.k + 1):
        eta_i = cfg.eta * 2.0 ** (-4 * i)
        sensitivity = 4.0 * L * eta_i
        sigma = mechanisms.noise_sigma(sensitivity, d, cfg.privacy)
        phases.append((
            i, eta_i, 2.0 * L * eta_i * cfg.n0, 1.0 / (eta_i * cfg.n0),
            sensitivity, sigma, sigma * cfg.noise_scale,
        ))
    return phases


def _epochs(cfg: EpochConfig, n: int) -> list[tuple]:
    """The T epochs of a run on n samples, one at a time: pairs (eta_i,
    (offset, radius, inner config)) of epoch i's step eta0 2^-i, the offset
    of its block of ``_block_size(n, T)`` samples, its radius R0 2^-i, and
    ``LocalizationConfig.for_data_size`` of the block at eta_i, or None for
    a frozen epoch: the reference that ``epoch_growth._chains`` is checked
    against."""
    n0 = _block_size(n, cfg.T)
    epochs = []
    for i in range(cfg.T):
        radius, eta_i = cfg.R0 * 2.0 ** (-i), cfg.eta0 * 2.0 ** (-i)
        inner = None if radius < _FROZEN_RADIUS_FRACTION * cfg.R0 else (
            localization.LocalizationConfig.for_data_size(
                n0, eta_i, cfg.privacy, noise_scale=cfg.noise_scale))
        epochs.append((eta_i, (i * n0, radius, inner)))
    return epochs


def test_schedule_tables_equal_the_schedule_of_every_epoch_bit_for_bit():
    # The sweeps run one schedule table per cell; each of its rows must be
    # _schedule of its epoch's inner config, as _epochs builds it one epoch
    # at a time, with the same offset, radius and frozen epochs.  Every
    # acceptance chain config, and the audit's two chains.
    from pathlib import Path

    from dpgrowth import harness

    configs = Path(__file__).resolve().parent.parent / "configs"
    checked = dict(epochs=0, frozen=0, phases=0, localization=0)
    cells = []
    for name in ("stat_kappa2", "stat_kappa4", "priv_epoch", "priv_pure"):
        cfg = harness.load_config(configs / f"acceptance_{name}.ini")
        for cell in cfg.cells():
            inst = harness._build_cell_instance(cfg, cell)
            cells.append((inst, cell["n"], harness._cell_setup(cfg, cell, inst)[1]))
    audit = harness._audit_quadratic_instance()
    for pipeline in ("localization", "epoch_growth"):
        for eps in (0.5, 1.0, 2.0):
            cells.append((audit, 32, harness._audit_config(pipeline, audit, 1.0, eps, 32)))
    for inst, n, run_cfg in cells:
        L, d = inst.loss.lipschitz, inst.loss.point_dim
        for cfg in _variants(run_cfg):
            if isinstance(cfg, localization.LocalizationConfig):
                want = [phase[1:] for phase in _schedule(cfg, L, d)]
                got = localization._table(cfg, L, d)
                assert got.shape == (1, cfg.k, 6)
                assert got[0].tobytes() == np.array(want).tobytes()
                checked["localization"] += 1
                continue
            offsets, radii, n0, table = _chains(cfg, n, L, d)
            epochs = _epochs(cfg, n)
            assert len(offsets) == len(radii) == len(epochs) == cfg.T
            for i, (_, (offset, radius, inner)) in enumerate(epochs):
                assert (offsets[i], radii[i].hex()) == (offset, radius.hex())
                assert (i >= len(table)) == (inner is None)
                checked["epochs"] += 1
                if inner is None:
                    checked["frozen"] += 1
                    continue
                want = [phase[1:] for phase in _schedule(inner, L, d)]
                assert (inner.n0, table.shape[1]) == (n0, inner.k)
                assert table[i].tobytes() == np.array(want).tobytes()
                checked["phases"] += len(want)
    assert min(checked.values()) > 0, checked
