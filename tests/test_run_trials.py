"""The 1-D phase kernel against pinned outputs and against ``erm.solve``,
and batched sweep cells against trial-by-trial execution.

``localization.run_trials`` and ``epoch_growth.run_trials`` run the one
phase kernel over many trials at once, and ``run`` on a 1-D
isotropic-quadratic or power-norm loss runs it as a single trial.  Both are
checked bit for bit against outputs recorded before the kernel took over
these losses: from the Python-float scalar chain for the quadratic, and from
the generic per-phase loop (``erm.solve`` and ``core.project``) for power
norms at kappa 3 and 4.  The pins are ``float.hex`` of the first three
streams' outputs per case, and digests of all 200 outputs of the power-norm
cases and of each audit mechanism.  The cases cover pure, approximate
(delta = 1e-6) and conservative-Gaussian budgets, noise scales 1, 0.5 and 0,
the audit's own configs on both audit datasets, an epoch schedule with
frozen epochs, and ones whose noise reaches the trust regions.  A power-norm
phase is also checked against ``erm.solve`` on its own problem, phase by
phase.

A sweep cell of a 1-D power-norm chain runs in ``run_trials`` batches with
per-trial data and starts; it must write the rows of a trial-by-trial run,
also when one trial's solve raises, and a sweep's CSV must depend neither
on ``--jobs`` nor on the batch size.
"""

import dataclasses
import hashlib
import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from dpgrowth import epoch_growth, erm, harness, localization
from dpgrowth.core import Dataset, Domain, InvalidInputError, PrivacyParams, RngStream, project
from dpgrowth.instances import ProblemInstance, build_instance

TRIALS = 200

MODES = {
    "pure": (PrivacyParams(1.0), False),
    "approx": (PrivacyParams(1.0, 1e-6), False),
    "conservative": (PrivacyParams(1.0, 1e-6), True),
}

# Outputs of the first three streams of ``_streams(61)`` (per budget case),
# of ``_streams(64)`` (frozen epochs) and of ``_streams(68)`` (clamped
# epochs), recorded from the scalar chain.
PINNED_BUDGET = {
    ("epoch_growth", "approx", 1.0): (
        "0x1.e32005834c345p-1", "0x1.bbb97aac4cf76p-1", "0x1.f0f7566225854p-1"),
    ("epoch_growth", "approx", 0.5): (
        "0x1.d79e66741c5c9p-1", "0x1.c3eb21089cbe5p-1", "0x1.de8a0ee389052p-1"),
    ("epoch_growth", "approx", 0.0): (
        "0x1.cc1cc764ec856p-1", "0x1.cc1cc764ec856p-1", "0x1.cc1cc764ec856p-1"),
    ("epoch_growth", "conservative", 1.0): (
        "0x1.662900f2a8455p-1", "0x1.09fa196f8570ap-1", "0x1.f6cecbab049d0p-1"),
    ("epoch_growth", "conservative", 0.5): (
        "0x1.b2c88f70c3fe1p-1", "0x1.84af56d4ab0a6p-1", "0x1.fb65590cec6c4p-1"),
    ("epoch_growth", "conservative", 0.0): (
        "0x1.cc1cc764ec856p-1", "0x1.cc1cc764ec856p-1", "0x1.cc1cc764ec856p-1"),
    ("epoch_growth", "pure", 1.0): (
        "0x1.c2bba8f8624eap-1", "0x1.cd1b44cc30b65p-1", "0x1.c5cf98ce6a958p-1"),
    ("epoch_growth", "pure", 0.5): (
        "0x1.c76043dea452ap-1", "0x1.cc9011c88b865p-1", "0x1.c8ea3bc9a8766p-1"),
    ("epoch_growth", "pure", 0.0): (
        "0x1.cc04dec4e656cp-1", "0x1.cc04dec4e656cp-1", "0x1.cc04dec4e656cp-1"),
    ("localization", "approx", 1.0): (
        "0x1.ffc61c2e65dfbp-1", "0x1.de20141e565b1p-1", "0x1.e1f0998074eaep-1"),
    ("localization", "approx", 0.5): (
        "0x1.e777e38409c25p-1", "0x1.d3642b5b18c1ep-1", "0x1.d54c6e0c2809bp-1"),
    ("localization", "approx", 0.0): (
        "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1"),
    ("localization", "conservative", 1.0): (
        "0x1.fe776b2afd957p-1", "0x1.fcfef58453857p-1", "0x1.fffd0e9c24fa9p-1"),
    ("localization", "conservative", 0.5): (
        "0x1.ff3759718bcfbp-1", "0x1.fe5738cd1b271p-1", "0x1.fffe84c7bf90ep-1"),
    ("localization", "conservative", 0.0): (
        "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1"),
    ("localization", "pure", 1.0): (
        "0x1.c0d3900ad88c8p-1", "0x1.c8e84561ed4ddp-1", "0x1.c8baea59eed2ep-1"),
    ("localization", "pure", 0.5): (
        "0x1.c4bde95159da9p-1", "0x1.c8c843fce43b8p-1", "0x1.c8b19678e4fddp-1"),
    ("localization", "pure", 0.0): (
        "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1"),
}
PINNED_FROZEN = (
    "-0x1.45845f3e6f859p-5", "-0x1.1a4fbd96f4b1cp-4", "-0x1.d2322bf8a81b3p-7",
)
PINNED_CLAMPED = (
    "-0x1.a70802950c412p-1", "0x1.a1944b2b435fcp-2", "-0x1.0521616955fe7p-3",
)

# Outputs of ``run`` on ``_power_instance(kappa)``, recorded from the generic
# per-phase loop: float.hex of the first three streams of
# ``_streams(72 + kappa)`` and a sha256 prefix of all 200 outputs.
PINNED_POWER = {
    ("epoch_growth", 3, "noiseless"): (
        "0x1.c9f09467df698p-1", "0x1.c9f0955ed70edp-1", "0x1.c9f095d9c57e0p-1",
        "6b0e0e7e02bc6df2"),
    ("epoch_growth", 3, "small-eps"): (
        "-0x1.e3345e7050194p-1", "-0x1.8dfd98a0af762p-1", "0x1.6a2565b035043p-3",
        "f81fc34724dcc40c"),
    ("epoch_growth", 3, "zero"): (
        "0x1.c9f096166b053p-1", "0x1.c9f096166b053p-1", "0x1.c9f096166b053p-1",
        "6d5859c5ed2e7390"),
    ("epoch_growth", 4, "noiseless"): (
        "0x1.c8b95a285c2f2p-1", "0x1.c8b958ce26c44p-1", "0x1.c8b958bbb9abap-1",
        "d85a302c421d4c9d"),
    ("epoch_growth", 4, "small-eps"): (
        "0x1.055fc795f4ebbp-1", "0x1.5115503995e40p-2", "0x1.07e634d42e7aap-3",
        "24db6216944b4685"),
    ("epoch_growth", 4, "zero"): (
        "0x1.c8b958d05dfc9p-1", "0x1.c8b958d05dfc9p-1", "0x1.c8b958d05dfc9p-1",
        "a9f9ac0d6cd48b48"),
    ("localization", 3, "noiseless"): (
        "0x1.bfac2c09a40e4p-1", "0x1.bfac2cc1a2c5cp-1", "0x1.bfac2dd4bc906p-1",
        "8cee93bf280563c5"),
    ("localization", 3, "small-eps"): (
        "-0x1.6f3f8e806739dp-1", "-0x1.fff68d657ac2bp-1", "0x1.d2c34e86bdb92p-1",
        "8cdd259d8b3283b1"),
    ("localization", 3, "zero"): (
        "0x1.bfac2dccfd3d7p-1", "0x1.bfac2dccfd3d7p-1", "0x1.bfac2dccfd3d7p-1",
        "08c3dade702a567e"),
    ("localization", 4, "noiseless"): (
        "0x1.c3f6558a5a888p-1", "0x1.c3f653b2a7ca6p-1", "0x1.c3f653afb3d61p-1",
        "ebe509dabb6a53f5"),
    ("localization", 4, "small-eps"): (
        "0x1.f40d97a50ad01p-4", "0x1.d87a1a3710e65p-1", "0x1.fffe8a51178d9p-1",
        "9afebc2a110e4fa9"),
    ("localization", 4, "zero"): (
        "0x1.c3f6539715e2dp-1", "0x1.c3f6539715e2dp-1", "0x1.c3f6539715e2dp-1",
        "08bfc61c59d4a1aa"),
}

# sha256 prefixes of the audit mechanism"s 200 outputs on each audit dataset,
# recorded from per-trial runs of the scalar chain.
PINNED_AUDIT = {
    ("epoch_growth", 1.0, 0.5): ("41b5f4fc3f941763", "7dae14dec577cabb"),
    ("epoch_growth", 1.0, 1.0): ("7a662b56ba10b7cb", "0ed98fafe31917ff"),
    ("epoch_growth", 1.0, 2.0): ("b71bea8ea60b219a", "a086d25e4993e226"),
    ("epoch_growth", 0.5, 0.5): ("8214d1daf2120c6e", "cff6cd68313a6c51"),
    ("epoch_growth", 0.5, 1.0): ("b71bea8ea60b219a", "a086d25e4993e226"),
    ("epoch_growth", 0.5, 2.0): ("8e0aa556296e0383", "bc736959a5da16db"),
    ("epoch_growth", 1.0 / 16.1, 0.5): ("f7a2057e5230c217", "bfb85b3f77ab6e94"),
    ("epoch_growth", 1.0 / 16.1, 1.0): ("d79a55c398ddb599", "4ba53c393b62b9ff"),
    ("epoch_growth", 1.0 / 16.1, 2.0): ("c67309ab70052d21", "c6c6aef375cf1451"),
    ("localization", 1.0, 0.5): ("5e6e2005a38a5c0a", "995cabab89de15c7"),
    ("localization", 1.0, 1.0): ("f8ae2e111dd1e432", "7705f877a7193198"),
    ("localization", 1.0, 2.0): ("7a6a58f376f95c8f", "5b6e729b985ebf70"),
    ("localization", 0.5, 0.5): ("f8ae2e111dd1e432", "7705f877a7193198"),
    ("localization", 0.5, 1.0): ("7a6a58f376f95c8f", "5b6e729b985ebf70"),
    ("localization", 0.5, 2.0): ("5286560aac08a9b3", "07e63a53c3f34502"),
    ("localization", 1.0 / 16.1, 0.5): ("f76e370144727b78", "e301c1aefe53e4b9"),
    ("localization", 1.0 / 16.1, 1.0): ("5e9fb110fcc9d3e4", "d78b1bc8fbab1d56"),
    ("localization", 1.0 / 16.1, 2.0): ("5d879111d87b41d5", "c2a721c03c7ef602"),
}


def _quad_instance(d=1):
    return build_instance(
        "uniform_convex", d=d, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1
    )


def _power_instance(kappa):
    lam = {3: 0.5, 4: 0.25}[kappa]
    return build_instance(
        "uniform_convex", d=1, kappa=kappa, lam=lam, L=2.0, R=1.0, bias_delta=0.1
    )


def _streams(seed):
    parent = RngStream(seed, 5)
    return (parent.child(t) for t in range(TRIALS))


def _assert_matches_pinned(module, loss, data, domain, x0, cfg, seed, pinned, trace=None):
    got = module.run_trials(loss, data, domain, x0, cfg, _streams(seed), trace=trace)
    assert got.shape == (TRIALS, 1)
    assert tuple(float(v).hex() for v in got[:3, 0]) == pinned
    single = [module.run(loss, data, domain, x0, cfg, s)[0] for s in islice(_streams(seed), 3)]
    assert tuple(float(v).hex() for v in single) == pinned
    return got


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
    _assert_matches_pinned(
        MODULES[pipeline], inst.loss, data, inst.domain, np.array([0.9]), cfg, 61,
        PINNED_BUDGET[(pipeline, mode, noise_scale)],
    )


# Power-norm budgets: the acceptance sweeps' noiseless epsilon, no noise
# draws at all, and a small epsilon with a step large enough that the noise
# carries points out of the trust regions and the domain.
POWER_BUDGETS = {
    "noiseless": (PrivacyParams(1e6), 1.0),
    "zero": (PrivacyParams(1.0), 0.0),
    "small-eps": (PrivacyParams(0.1), 1.0),
}


def _power_config(pipeline, inst, n, budget):
    privacy, noise_scale = POWER_BUDGETS[budget]
    cfg = _config(pipeline, inst, n, privacy, False, noise_scale)
    if budget != "small-eps":
        return cfg
    if pipeline == "localization":
        return dataclasses.replace(cfg, eta=4.0)
    return dataclasses.replace(cfg, eta0=0.5)


@pytest.mark.parametrize("budget", sorted(POWER_BUDGETS))
@pytest.mark.parametrize("kappa", [3, 4])
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_power_norm_chains_match_pinned_outputs(pipeline, kappa, budget):
    inst = _power_instance(kappa)
    n = 128
    data = inst.draw(n, RngStream(70 + kappa, 0))
    cfg = _power_config(pipeline, inst, n, budget)
    trace: list = []
    pinned = PINNED_POWER[(pipeline, kappa, budget)]
    got = _assert_matches_pinned(
        MODULES[pipeline], inst.loss, data, inst.domain, np.array([0.9]), cfg, 72 + kappa,
        pinned[:3], trace,
    )
    assert hashlib.sha256(got[:, 0].tobytes()).hexdigest()[:16] == pinned[3]
    if budget == "small-eps":
        # Some trials end an epoch on their region's edge, or a phase on the
        # domain's: core.project moved them there.
        if pipeline == "epoch_growth":
            edge = [np.abs(rec.x_next - rec.center) >= rec.radius * (1 - 1e-12) for rec in trace]
        else:
            edge = [np.abs(rec.x_noised) == 1.0 for rec in trace]
        assert np.sum(edge) > 0


def test_power_norm_phase_matches_erm_solve_bit_for_bit(monkeypatch):
    # 2 kappas x 2 domains x 4 schedules x 100 trials = 1600 random phases,
    # each with its own data, anchor and epoch ball.  The kernel's solution
    # and its projected noised point must equal erm.solve's and
    # core.project's.  Anchors a hair outside their epoch ball make the
    # dominance shortcut project, and large noise lands points where a clamp
    # to the interval and core.project differ by an ulp.  At kappa = 4, some
    # anchors sit on the lower edge of their epoch ball, at points where
    # numpy's cube falls below libm's, and their data put the phase's
    # derivative at exactly 0 there (with L = 2 the linear term is the
    # sample itself): libm's pow gives the edge, numpy's power a bisection.
    # The kernel's certificate must reject a root exactly when erm.solve's
    # does: it falls back to erm.solve once per reference solve that has to
    # descend.
    solve, descend = erm.solve, erm._solve_subgradient
    fallbacks, descents = [], []
    monkeypatch.setattr(erm, "solve", lambda *a, **kw: fallbacks.append(1) or solve(*a, **kw))
    monkeypatch.setattr(
        erm, "_solve_subgradient", lambda *a, **kw: descents.append(1) or descend(*a, **kw)
    )
    rng = np.random.default_rng(11)
    trials, m = 100, 16  # identical samples then have an exact mean
    cfg = localization.LocalizationConfig(
        eta=1.0, beta=0.5, privacy=PrivacyParams(1.0), k=1, n0=m
    )
    counts = dict(phases=0, dominance=0, anchor_projected=0, edge_solutions=0, projected=0,
                  clamp_differs=0)
    for kappa in (3, 4):
        inst = _power_instance(kappa)
        loss, domain = inst.loss, inst.domain
        L, cp = loss.lipschitz, loss.structure.coef * loss.structure.power
        for with_epoch in (False, True):
            samples = rng.uniform(-1.0, 1.0, (trials, m))
            radius_e = float(rng.uniform(0.05, 0.5))
            centers = rng.uniform(-0.9 + radius_e, 0.9 - radius_e, trials)
            x = rng.uniform(-1.0, 1.0, trials)
            edge = np.zeros(trials, dtype=bool)
            if with_epoch:
                x = np.clip(centers + rng.uniform(-1.0, 1.0, trials) * radius_e, -1.0, 1.0)
                side = rng.choice([-1.0, 1.0], 40)
                x[:40] = centers[:40] + side * (radius_e + 10.0 ** rng.uniform(-12, -9.4, 40))
                if kappa == 4:
                    c = rng.uniform(radius_e + 0.05, 0.9, 4000)
                    a = c - radius_e
                    a_cubed = np.array([v ** 3.0 for v in a.tolist()])
                    pick = np.flatnonzero(np.power(a, 3.0) < a_cubed)[:20]
                    centers[40:60], x[40:60] = c[pick], a[pick]
                    samples[40:60] = -(cp * a_cubed[pick])[:, None]
                    edge[40:60] = True
            epoch = (centers, radius_e) if with_epoch else None
            outer = [Domain(centers[t : t + 1], radius_e, parent=domain) if with_epoch
                     else domain for t in range(trials)]
            datasets = [Dataset(row[:, None]) for row in samples]
            tol_floor = localization._TOL_FLOOR_FACTOR * L * max(
                1.0, 2.0 * min(radius_e if with_epoch else 1.0, 1.0)
            )
            z = rng.laplace(size=(trials, 1))
            for dominance in (False, True, False, False):
                sensitivity = 10.0 ** rng.uniform(-10, -2)
                sigma = 10.0 ** rng.uniform(-2, 1)
                tol = max(min(sensitivity, sigma) / 100.0, tol_floor)
                lam = (L * L / (4.0 * tol) * 2.0 if dominance
                       else 10.0 ** rng.uniform(-1, 4))
                radius = 10.0 ** rng.uniform(-4, 0)
                sigma_used = float(rng.choice([0.0, sigma]))
                schedule = [(1, 1.0, radius, lam, sensitivity, sigma, sigma_used)]
                trace: list = []
                fallbacks.clear()
                got = localization._chain_trials(
                    loss, datasets, cfg, schedule, x, domain, z, epoch, trace
                )
                descents.clear()
                for t in range(trials):
                    problem = erm.RegularizedProblem(
                        loss=loss, batch=datasets[t].block(0, m), anchor=x[t : t + 1],
                        reg_weight=lam, domain=Domain(x[t : t + 1], radius, parent=outer[t]),
                    )
                    want = solve(problem, tol=tol, max_iters=localization.MAX_SOLVER_ITERS)
                    assert float(trace[0].x_solved[t]).hex() == float(want[0]).hex()
                    if edge[t]:
                        assert want[0] == x[t]
                    noised = want + (z[t] * sigma_used if sigma_used > 0 else 0.0)
                    want_next = project(outer[t], noised)
                    assert float(got[t]).hex() == float(want_next[0]).hex()
                    lo, hi = outer[t].interval()
                    counts["phases"] += 1
                    counts["dominance"] += dominance
                    counts["anchor_projected"] += dominance and want[0] != x[t]
                    counts["edge_solutions"] += edge[t] and not dominance
                    counts["projected"] += bool(want_next[0] != noised[0])
                    counts["clamp_differs"] += bool(np.clip(noised[0], lo, hi) != want_next[0])
                assert len(fallbacks) == len(descents)
    assert counts["phases"] >= 1000
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("scale", [1.0, 0.5, 1.0 / 16.1])
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_audit_mechanism_matches_per_trial_runs(pipeline, scale):
    # The audit's own configs (n = 32) on both datasets of the audit pair.
    for eps in (0.5, 1.0, 2.0):
        mech = harness._audit_mechanism(pipeline, scale, eps)
        digests = tuple(
            hashlib.sha256(mech(dataset, RngStream(62, 1), TRIALS).tobytes()).hexdigest()[:16]
            for dataset in harness._audit_datasets(32)
        )
        assert digests == PINNED_AUDIT[(pipeline, scale, eps)]


def test_epoch_run_trials_skips_frozen_epochs():
    # kappa_lower = 1.2 at n = 1024 gives T = 101 epochs; radii below
    # 1e-15 R0 (i >= 50) freeze 51 of them.
    inst = _quad_instance()
    n = 1024
    cfg = _config("epoch_growth", inst, n, PrivacyParams(1.0), False, 1.0, kappa_lower=1.2)
    data = inst.draw(n, RngStream(63, 0))
    trace: list = []
    epoch_growth.run(inst.loss, data, inst.domain, np.zeros(1), cfg, RngStream(63, 1),
                     trace=trace)
    assert cfg.T == 101
    assert sum(rec.frozen for rec in trace) == 51
    batched: list = []
    epoch_growth.run_trials(inst.loss, data, inst.domain, np.zeros(1), cfg, _streams(64),
                            trace=batched)
    assert [rec.frozen for rec in batched] == [rec.frozen for rec in trace]
    _assert_matches_pinned(
        epoch_growth, inst.loss, data, inst.domain, np.zeros(1), cfg, 64, PINNED_FROZEN
    )


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
    trace: list = []
    epoch_growth.run_trials(inst.loss, data, inst.domain, x0, cfg, _streams(68), trace=trace)
    on_region_edge = sum(
        int(np.sum((np.abs(rec.x_next - rec.center) >= rec.radius * (1 - 1e-12))
                   & (np.abs(rec.x_next) < 1.0)))
        for rec in trace
    )
    assert on_region_edge > 0
    _assert_matches_pinned(
        epoch_growth, inst.loss, data, inst.domain, x0, cfg, 68, PINNED_CLAMPED
    )


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
    # Per-trial inputs: one start outside the domain, a count that is neither
    # one nor the number of streams, datasets of different sizes.
    starts = np.zeros((TRIALS, 1))
    starts[7] = 9.0
    with pytest.raises(InvalidInputError):
        module.run_trials(quad.loss, data, quad.domain, starts, cfg, _streams(66))
    with pytest.raises(InvalidInputError):
        module.run_trials(quad.loss, [data, data], quad.domain, np.zeros(1), cfg,
                          _streams(66))
    with pytest.raises(InvalidInputError):
        module.run_trials(quad.loss, [data, quad.draw(65, RngStream(65, 4))], quad.domain,
                          np.zeros(1), cfg, _streams(66))


# ---------------------------------------------------------------------------
# Batched sweep cells
# ---------------------------------------------------------------------------

SWEEP = """
[experiment]
name = batched
algorithm = epoch_growth
seeds = 5
master_seed = 31
beta = auto
x0_offset = 0.01

[instance]
name = uniform_convex
d = 1
kappa = 2
lam = 1.0
L = 4.0
R = 1.0
bias_delta = 0.1

[sweep]
n = 256
epsilon = 1.0

[algorithm]
kappa_lower = 3.0
"""

# Sweep cells that batch, as changes to the config above: both chains with
# distinct random starts, an approximate budget, frozen epochs (T = 100 at
# kappa_lower = 1.2, n = 1024), a cell too small for its epochs, whose
# every trial records the error, and both chains on the kappa = 4 power
# norm, one with enough noise to reach the trust regions.  The starts are
# close enough to the minimizer that the trials' epoch_i0 differ.
KAPPA4 = dict(kappa=4, lam=0.25, L=2.0, R=1.0, bias_delta=0.1)
CELLS = {
    "localization": dict(algorithm="localization"),
    "localization-kappa4": dict(algorithm="localization", instance_params=KAPPA4),
    "epoch-kappa4": dict(instance_params=KAPPA4),
    "epoch-kappa4-private": dict(instance_params=KAPPA4, sweep_epsilon=(0.05,)),
    "epoch-approx": dict(sweep_delta=(1e-6,)),
    "epoch-frozen": dict(
        sweep_n=(1024,), kappa_lower=1.2, sweep_epsilon=(1e6,), x0_offset=0.001
    ),
    "epoch-too-small": dict(sweep_n=(8,), kappa_lower=1.5),
}
CSV_INDEX = {col: i for i, col in enumerate(harness.CSV_COLUMNS)}


def _sweep_config(tmp_path, **changes):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP)
    return dataclasses.replace(harness.load_config(path), **changes)


def _rows(records):
    return [
        [harness._format_field(dataclasses.asdict(rec)[col]) for col in harness.CSV_COLUMNS]
        for rec in records
    ]


@pytest.mark.parametrize("case", sorted(CELLS))
def test_batched_sweep_cell_matches_per_trial_execution(tmp_path, case):
    cfg = _sweep_config(tmp_path, **CELLS[case])
    (cell,) = cfg.cells()
    assert harness._batches(cfg, cell)
    specs = [(cfg, cell, 40 + s, s, cfg.config_hash()) for s in range(cfg.seeds)]
    batched = _rows(harness._execute_cell(specs))
    assert batched == _rows([harness._execute_trial(spec) for spec in specs])
    errors = [row[CSV_INDEX["error"]] for row in batched]
    if case == "epoch-too-small":
        assert all(error.startswith("InvalidInputError") for error in errors)
        return
    assert not any(errors)
    # Each trial has its own data and start, so no two excesses agree.
    assert len({row[CSV_INDEX["excess_pop"]] for row in batched}) == cfg.seeds
    if cfg.algorithm == "epoch_growth":
        assert len({row[CSV_INDEX["epoch_i0"]] for row in batched}) > 1


def test_a_batch_that_raises_runs_trial_by_trial(tmp_path, monkeypatch):
    # Force every certificate on trial 2's last solved trust region to fail:
    # its phase then falls back to erm.solve, whose subgradient method gives
    # up at once and raises ConvergenceError.  That region's anchor depends
    # on the trial's data, so no other trial shares the error.
    cfg = _sweep_config(tmp_path, **CELLS["epoch-kappa4"])
    (cell,) = cfg.cells()
    specs = [(cfg, cell, 40 + s, s, cfg.config_hash()) for s in range(cfg.seeds)]
    certified = erm._interval_gap
    regions = []

    def recording(slope, lam, lo, hi, t):
        regions.append((lo, hi))
        return certified(slope, lam, lo, hi, t)

    monkeypatch.setattr(erm, "_interval_gap", recording)
    harness._execute_trial(specs[2])
    target = regions[-1]

    def failing(slope, lam, lo, hi, t):
        return math.inf if (lo, hi) == target else certified(slope, lam, lo, hi, t)

    monkeypatch.setattr(erm, "_interval_gap", failing)
    monkeypatch.setattr(localization, "MAX_SOLVER_ITERS", 2)
    batched = _rows(harness._execute_cell(specs))
    assert batched == _rows([harness._execute_trial(spec) for spec in specs])
    errors = [row[CSV_INDEX["error"]] for row in batched]
    assert errors[2].startswith("ConvergenceError: no accuracy certificate")
    assert not any(errors[:2] + errors[3:])


def test_negative_excess_is_recorded_as_an_error(tmp_path, monkeypatch):
    cfg = _sweep_config(tmp_path)
    (cell,) = cfg.cells()
    specs = [(cfg, cell, s, s, cfg.config_hash()) for s in range(cfg.seeds)]
    monkeypatch.setattr(ProblemInstance, "excess_pop", lambda self, x: -1.0)
    for rec in harness._execute_cell(specs) + [harness._execute_trial(specs[0])]:
        assert rec.error.startswith("negative-excess: emp=")
        assert rec.error.endswith(" pop=-1.000e+00")


def test_batches_agrees_with_the_built_instances_loss(tmp_path):
    # ``_batches`` reads the config and builds no instance; a cell batches
    # exactly when its chain has a 1-D isotropic-quadratic or power-norm loss.
    configs = [
        harness.load_config(path)
        for path in sorted((Path(__file__).parents[1] / "configs").glob("acceptance_*.ini"))
        if path.stem != "acceptance_audit"
    ]
    configs += [
        _sweep_config(tmp_path, sweep_d=(1, 2)),
        _sweep_config(tmp_path, algorithm="localization", sweep_d=(1, 3)),
        _sweep_config(tmp_path, algorithm="erm_oracle"),
        _sweep_config(tmp_path, instance_params=dict(kappa=4, lam=1.0, L=16.0, R=1.0)),
        _sweep_config(tmp_path, instance_params=dict(kappa=2.0, lam=1.0, L=4.0, R=1.0)),
        _sweep_config(tmp_path, instance_params=dict(kappa=3, lam=0.5, L=2.0, R=1.0)),
        _sweep_config(tmp_path, algorithm="localization", instance_params=KAPPA4,
                      sweep_d=(1, 2)),
        _sweep_config(tmp_path, instance_name="pure_convex", instance_params=dict(L=1.0, R=1.0)),
        _sweep_config(tmp_path, instance_name="sharp_growth",
                      instance_params=dict(kappa=2.0, bias_delta=0.1)),
        _sweep_config(tmp_path, algorithm="localization", instance_name="sharp_growth",
                      instance_params=dict(kappa=1.5, bias_delta=0.25)),
    ]
    decisions = []
    for cfg in configs:
        for cell in cfg.cells():
            loss = harness._build_cell_instance(cfg, cell).loss
            kernel = cfg.algorithm in MODULES and localization._runs_phase_kernel(loss)
            assert harness._batches(cfg, cell) == kernel
            decisions.append(kernel)
    assert True in decisions and False in decisions


def test_1d_quadratic_sweep_csv_is_independent_of_jobs_and_batch_size(tmp_path, monkeypatch):
    # d = 1 cells batch and d = 2 cells run trial by trial, interleaved.
    cfg = _sweep_config(tmp_path, sweep_n=(128, 256), sweep_d=(1, 2), seeds=3)
    assert [harness._batches(cfg, cell) for cell in cfg.cells()] == [True, False] * 2
    _, serial, _ = harness.run_sweep(cfg, tmp_path / "serial", jobs=1)
    _, parallel, _ = harness.run_sweep(cfg, tmp_path / "parallel", jobs=2)
    assert serial.read_bytes() == parallel.read_bytes()
    # Batches of two trials at n = 128 and of one (run trial by trial) at n = 256.
    monkeypatch.setattr(harness, "_BATCH_SAMPLES", 256)
    _, split, _ = harness.run_sweep(cfg, tmp_path / "split", jobs=1)
    assert split.read_bytes() == serial.read_bytes()
