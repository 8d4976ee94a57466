"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live).

Both criterion 4 clauses assert a rate that the schedule does not deliver at
desk-scale sample sizes; they are asserted faithfully anyway, and the
analysis is in the decisions ledger, ``docs/decisions.md``, whose numbers
``scripts/decisions_ledger.py`` reproduces.
"""

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dpgrowth.core import Dataset, Domain, GrowthSpec, PrivacyParams, RngStream, project
from dpgrowth import epoch_growth, localization
from dpgrowth.erm import RegularizedProblem, solve
from dpgrowth.harness import (
    _audit_first_phase,
    fit_rate,
    load_config,
    privacy_audit,
    run_sweep,
)
from dpgrowth.instances import SHIPPED_INSTANCES, build_instance
from dpgrowth.inv_sensitivity import excess_risk_bound
from loss_helpers import replaced

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
JOBS = 2


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({name}): {verdict} {detail}")


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    """Run each shipped acceptance sweep once and share across criteria."""
    out = {}
    base = tmp_path_factory.mktemp("acceptance")
    for key, fname in (
        ("stat_kappa2", "acceptance_stat_kappa2.ini"),
        ("stat_kappa4", "acceptance_stat_kappa4.ini"),
        ("priv_epoch", "acceptance_priv_epoch.ini"),
        ("priv_pure", "acceptance_priv_pure.ini"),
        ("invsens", "acceptance_invsens.ini"),
    ):
        cfg = load_config(CONFIG_DIR / fname)
        records, csv_path, summary_path = run_sweep(cfg, base / key, jobs=JOBS)
        out[key] = dict(cfg=cfg, records=records, csv=csv_path, summary=summary_path)
    return out


AUDIT = dict(epsilons=(0.5, 1.0, 2.0), n=32, trials=100_000, bins=24, master_seed=7)
NOISE_PIPELINES = ("localization", "epoch_growth")


@pytest.fixture(scope="module")
def sabotage_premise():
    """Per noise pipeline and budget: the audit pair's first-phase shift, the
    honest sigma_1, and the noise multiplier that makes the first phase's
    Laplace loss shift / sigma exactly 2 eps (the factor-2 overspend of the
    grid-sampler sabotage).  Halving sigma is no such overspend on this pair:
    it leaves the loss near eps/4 (docs/decisions.md, criterion 2)."""
    out = {}
    for pipeline in NOISE_PIPELINES:
        for eps in AUDIT["epsilons"]:
            shift, sigma = _audit_first_phase(pipeline, eps, AUDIT["n"])
            scale = shift / (2.0 * eps * sigma)
            assert shift / (0.5 * sigma) <= eps / 4, (pipeline, eps, shift, sigma)
            assert math.isclose(shift / (scale * sigma), 2.0 * eps, rel_tol=1e-12)
            out[(pipeline, eps)] = (shift, sigma, scale)
    return out


@pytest.fixture(scope="module")
def audit_rows(sabotage_premise):
    """Honest rows of every pipeline; sabotaged rows at half the noise for the
    grid sampler and at the premise's 2-eps scale for the noise pipelines."""
    return privacy_audit(
        **AUDIT, jobs=JOBS,
        sabotage_scales={key: scale for key, (_, _, scale) in sabotage_premise.items()},
    )


# ---------------------------------------------------------------------------
# Criterion 1: sensitivity invariant of the regularized inner solver
# ---------------------------------------------------------------------------


def test_criterion_1_sensitivity_invariant():
    t0 = time.time()
    tol = 1e-10
    worst_ratio = 0.0
    cases = []
    for d in (1, 5):
        quad = build_instance(
            "uniform_convex", d=d, kappa=2, lam=1.0, L=2.0, R=1.0, bias_delta=0.0
        )
        absd = build_instance("pure_convex", d=d, L=1.0, R=1.0)
        cases.extend([(quad, 0.05), (absd, 0.05)])
    checked = 0
    for idx, (inst, eta) in enumerate(cases):
        for n0 in (32, 256):
            rng = RngStream(510000 + idx, n0)
            data = inst.draw(n0, rng.child(0))
            anchor = np.zeros(inst.domain.dim)
            L = inst.loss.lipschitz
            bound = 4.0 * L * eta + 10.0 * tol

            def builder(ds, inst=inst, eta=eta, n0=n0, anchor=anchor):
                return RegularizedProblem(
                    inst.loss,
                    ds,
                    anchor=anchor,
                    reg_weight=1.0 / (eta * n0),
                    domain=Domain(anchor, 2.0 * inst.loss.lipschitz * eta * n0,
                                  parent=inst.domain),
                )

            base = solve(builder(data), tol=tol)
            reps = inst._sampler(rng.child(1), 25)
            idxs = rng.child(2).gen.integers(0, n0, size=25)
            for t in range(25):
                moved = solve(builder(replaced(data, int(idxs[t]), reps[t])), tol=tol)
                shift = float(np.linalg.norm(moved - base))
                worst_ratio = max(worst_ratio, shift / bound)
                checked += 1
    ok = worst_ratio <= 1.0
    _report(1, "sensitivity invariant", ok,
            f"max shift / (4 L eta + 10 tol) = {worst_ratio:.3f} over {checked} "
            f"replacements [{time.time()-t0:.0f}s]")
    assert checked == 200
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: privacy falsifier on end-to-end pipelines
# ---------------------------------------------------------------------------


def test_criterion_2_honest_pipelines_pass_and_tight_sabotage_fails(audit_rows):
    honest_ok = all(
        r.report.passed and not r.report.inconclusive
        for r in audit_rows
        if r.mode == "honest"
    )
    invsens_sab_fails = all(
        not r.report.passed
        for r in audit_rows
        if r.mode == "sabotaged" and r.pipeline == "inv_sensitivity"
    )
    ok = honest_ok and invsens_sab_fails
    lines = "; ".join(
        f"{r.pipeline}/eps={r.epsilon:g}/{r.mode}: ratio {r.report.max_log_ratio:.3f} "
        f"(slack {r.report.slack:.2f})"
        for r in audit_rows
    )
    _report(2, "privacy falsifier: honest pass + grid-sampler sabotage detected",
            ok, lines)
    assert honest_ok
    assert invsens_sab_fails


def test_criterion_2_sabotaged_noise_pipelines_fail(sabotage_premise, audit_rows):
    # The falsifier must catch a noise pipeline whose noise is too small for
    # its budget.  Halving sigma does not make one on the audit pair: the
    # pair moves the first phase's solve by ~L eta_1 / 2 against a sigma_1
    # calibrated to 4 L eta_1, so the halved loss is ~eps/4 and those rows
    # pass, as they should.  The sabotaged rows here run at the scale the
    # premise fixture derives from the program, where phase 1 leaks 2 eps
    # (docs/decisions.md, criterion 2).
    rows = [
        r for r in audit_rows
        if r.mode == "sabotaged" and r.pipeline in NOISE_PIPELINES
    ]
    assert len(rows) == len(sabotage_premise)
    ok = all(not r.report.passed and not r.report.inconclusive for r in rows)
    lines = []
    for r in rows:
        shift, sigma, scale = sabotage_premise[(r.pipeline, r.epsilon)]
        threshold = r.epsilon + r.report.slack
        lines.append(
            f"{r.pipeline}/eps={r.epsilon:g} (scale 1/{1 / scale:.2f}, loss "
            f"{shift / (scale * sigma):.3f}): ratio {r.report.max_log_ratio:.3f} "
            f"threshold {threshold:.3f} margin {r.report.max_log_ratio - threshold:+.3f}"
        )
    _report(2, "privacy falsifier: noise-pipeline 2-eps sabotage detected", ok,
            "; ".join(lines))
    assert ok, (
        "a localization or epoch pipeline whose first phase leaks 2 eps on the "
        "audit pair passed the distinguishability test: " + "; ".join(lines)
    )


# ---------------------------------------------------------------------------
# Criterion 3: growth and gradient-domination certification
# ---------------------------------------------------------------------------


def test_criterion_3_certification_of_shipped_instances():
    t0 = time.time()
    worst = -math.inf
    worst_name = ""
    n_certified = 0
    for idx, (name, params) in enumerate(SHIPPED_INSTANCES):
        inst = build_instance(name, **params)
        if inst.growth is None:
            continue
        g, k = inst.certify(probes=10_000, rng=RngStream(3100, idx))
        n_certified += 1
        for label, rep in (("growth", g), ("kl", k)):
            if rep.max_violation > worst:
                worst = rep.max_violation
                worst_name = f"{inst.description}:{label}"
    ok = worst <= 1e-7
    _report(3, "growth/KL certification", ok,
            f"worst violation {worst:.2e} at {worst_name}, {n_certified} instances "
            f"[{time.time()-t0:.0f}s]")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: statistical-regime exponents
# ---------------------------------------------------------------------------


def test_criterion_4_statistical_exponent_kappa2(sweep_results):
    # Faithful clause: fitted slope within [-1.45, -0.65] (target -1).  The
    # first phase's regularizer weight 2 lambda_1 is >= 250x the curvature at
    # n = 2^14 for every admissible instance, so the noiseless chain started
    # at x* only drifts, and its excess decays at a polylog rate: the
    # measured slope is -0.496 +- 0.081.  Curvature drives the chain only past
    # n ~ 2^35.  See docs/decisions.md, criterion 4.
    fit = fit_rate(sweep_results["stat_kappa2"]["records"], "n")
    ok = -1.45 <= fit.slope <= -0.65
    _report(4, "statistical exponent, quadratic growth", ok,
            f"slope {fit.slope:.3f} +- {fit.stderr:.3f} (band [-1.45, -0.65])")
    assert ok, (
        "statistical-regime slope falls short of the band; the schedule does "
        "not promise it at these n (docs/decisions.md, criterion 4)"
    )


def test_criterion_4_exponent_gap_kappa2_vs_kappa4(sweep_results):
    # Faithful clause: the quadratic-growth slope must be steeper than the
    # quartic-growth slope by 0.15.  At these sample sizes the regularizer,
    # not the curvature, sets every phase's step, so both chains drift from
    # x* by the same distance, and the quartic objective turns that shared
    # distance into a steeper, not flatter, slope (measured -0.971 against
    # -0.496).  See docs/decisions.md, criterion 4.
    fit2 = fit_rate(sweep_results["stat_kappa2"]["records"], "n")
    fit4 = fit_rate(sweep_results["stat_kappa4"]["records"], "n")
    gap = fit4.slope - fit2.slope
    ok = gap >= 0.15
    _report(4, "statistical exponent ordering (kappa=2 steeper by 0.15)", ok,
            f"slopes {fit2.slope:.3f} (kappa=2) vs {fit4.slope:.3f} (kappa=4), "
            f"gap {gap:.3f}")
    assert ok, (
        "exponent ordering does not emerge at desk scale; both chains drift "
        "by the same distance and the excess powers it by kappa "
        "(docs/decisions.md, criterion 4)"
    )


# ---------------------------------------------------------------------------
# Criterion 5: privacy-term exponents
# ---------------------------------------------------------------------------


def test_criterion_5_privacy_exponent_epoch(sweep_results):
    fit = fit_rate(sweep_results["priv_epoch"]["records"], "epsilon")
    ok = -2.6 <= fit.slope <= -1.2
    _report(5, "privacy exponent, epoch pipeline", ok,
            f"slope {fit.slope:.3f} +- {fit.stderr:.3f} (band [-2.6, -1.2])")
    assert ok


def test_criterion_5_privacy_exponent_pure_convex(sweep_results):
    fit = fit_rate(sweep_results["priv_pure"]["records"], "epsilon")
    ok = -1.5 <= fit.slope <= -0.6
    _report(5, "privacy exponent, localization on pure convex", ok,
            f"slope {fit.slope:.3f} +- {fit.stderr:.3f} (band [-1.5, -0.6])")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: grid-sampler utility bound
# ---------------------------------------------------------------------------


def test_criterion_6_inv_sensitivity_utility(sweep_results):
    res = sweep_results["invsens"]
    cfg = res["cfg"]
    records = [r for r in res["records"] if not r.error]
    assert len(records) == 200
    quant = float(np.quantile([r.excess_emp for r in records], 0.9, method="higher"))
    inst = build_instance("uniform_convex", d=1, **cfg.instance_params)
    bound = excess_risk_bound(
        L=inst.loss.lipschitz, n=1000, epsilon=1.0, beta=0.1, d=1,
        R=inst.domain.radius, rho=cfg.rho, growth=inst.growth,
    )
    threshold = bound + inst.loss.lipschitz * cfg.grid_spacing
    ok = quant <= threshold
    _report(6, "grid-sampler utility bound", ok,
            f"0.9-quantile {quant:.3e} <= bound {bound:.3e} + Lh "
            f"{inst.loss.lipschitz * cfg.grid_spacing:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: epoch adaptivity ledger
# ---------------------------------------------------------------------------


def _region_membership_is_prefix(trace: list, xstar: np.ndarray) -> bool:
    """Whether the epochs of a one-stream ``run`` trace whose trust region
    contains xstar are a nonempty prefix of its epochs."""
    flags = [float(np.linalg.norm(xstar - rec.center[0])) <= rec.radius for rec in trace]
    return any(flags) and flags == sorted(flags, reverse=True)


def test_criterion_7_epoch_adaptivity():
    t0 = time.time()
    inst = build_instance(
        "uniform_convex", d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1
    )
    n, seeds = 1024, 150
    cfg = epoch_growth.EpochConfig.for_run(
        n, inst.loss, inst.domain, 1.5, 1.0 / (n + 1), PrivacyParams(1.0)
    )
    prefix_ok = 0
    finals, at_i0 = [], []
    for seed in range(seeds):
        st = RngStream(777000 + seed, 0)
        data = inst.draw(n, st.child(0))
        u = st.child(2).gen.standard_normal(1)
        u /= abs(u)
        x0 = project(inst.domain, inst.xstar + 0.1 * inst.domain.radius * u)
        trace = []
        out = epoch_growth.run(
            inst.loss, data, inst.domain, x0, cfg, [st.child(1)], trace=trace
        )[0]
        if _region_membership_is_prefix(trace, inst.xstar):
            prefix_ok += 1
        i0 = epoch_growth.indices_in_region(trace, inst.xstar)[0]
        finals.append(inst.excess_pop(out))
        at_i0.append(inst.excess_pop(trace[i0].x_next[0]))
    prefix_frac = prefix_ok / seeds
    ratio = float(np.median(finals) / np.median(at_i0))
    ok = prefix_frac >= 0.95 and ratio <= 4.0
    _report(7, "epoch adaptivity ledger", ok,
            f"prefix fraction {prefix_frac:.3f} (>= 0.95), final/at-i0 median "
            f"ratio {ratio:.2f} (<= 4) [{time.time()-t0:.0f}s]")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: oracle equivalence
# ---------------------------------------------------------------------------


def _grid_min_1d(inst):
    grid = np.arange(-inst.domain.radius, inst.domain.radius + 1e-6, 1e-6)
    vals = inst.pop_value_many(grid[:, None])
    k = int(np.argmin(vals))
    return np.array([grid[k]]), float(vals[k])


def _grid_min_2d(inst):
    R = inst.domain.radius
    lo = np.array([-R, -R])
    hi = np.array([R, R])
    step = 4e-3
    center = None
    for step_next in (1e-4, 1e-6):
        gx = np.arange(lo[0], hi[0] + step, step)
        gy = np.arange(lo[1], hi[1] + step, step)
        mx, my = np.meshgrid(gx, gy, indexing="ij")
        pts = np.column_stack([mx.ravel(), my.ravel()])
        pts = pts[np.linalg.norm(pts, axis=1) <= R]
        vals = inst.pop_value_many(pts)
        center = pts[int(np.argmin(vals))]
        lo, hi = center - 4 * step, center + 4 * step
        step = step_next
    gx = np.arange(lo[0], hi[0] + step, step)
    gy = np.arange(lo[1], hi[1] + step, step)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([mx.ravel(), my.ravel()])
    pts = pts[np.linalg.norm(pts, axis=1) <= R]
    vals = inst.pop_value_many(pts)
    k = int(np.argmin(vals))
    return pts[k], float(vals[k])


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    worst_x, worst_f = 0.0, 0.0
    for name, params in SHIPPED_INSTANCES:
        inst = build_instance(name, **params)
        if inst.domain.dim == 1:
            xg, fg = _grid_min_1d(inst)
        elif inst.domain.dim == 2:
            xg, fg = _grid_min_2d(inst)
        else:
            continue
        worst_x = max(worst_x, float(np.linalg.norm(xg - inst.xstar)))
        worst_f = max(worst_f, abs(fg - inst.fstar))
    closed_ok = worst_x <= 1e-4 and worst_f <= 1e-4

    # Inner solver vs 1e-4 grid brute force on 20 random 1-D problems.
    from dpgrowth.core import IsotropicQuadratic
    from loss_helpers import CallableLoss

    rng = RngStream(81, 0)
    worst_solver = 0.0
    for trial in range(20):
        m = int(rng.gen.integers(2, 9))
        samples = rng.gen.uniform(-1, 1, (m, 1))
        anchor = rng.gen.uniform(-0.5, 0.5, 1)
        lam = float(rng.gen.uniform(0.3, 3.0))
        if trial % 2 == 0:
            loss = CallableLoss(
                lambda x, s: float(np.abs(x[0] - s[0])),
                lambda x, s: np.sign(x - s),
                lipschitz=1.0,
            )
            per = lambda g: np.abs(g[:, None] - samples[:, 0][None, :])
        else:
            loss = CallableLoss(
                lambda x, s: float((x[0] - s[0]) ** 2),
                lambda x, s: 2.0 * (x - s),
                lipschitz=4.0,
                structure=IsotropicQuadratic(curvature=2.0, lin_scale=-2.0),
            )
            per = lambda g: (g[:, None] - samples[:, 0][None, :]) ** 2
        prob = RegularizedProblem(
            loss, Dataset(samples), anchor, lam, Domain(np.zeros(1), 1.0)
        )
        x = solve(prob, tol=1e-12)
        grid = np.arange(-1.0, 1.0 + 1e-4, 1e-4)
        vals = per(grid).mean(axis=1) + lam * (grid - anchor[0]) ** 2
        oracle = grid[int(np.argmin(vals))]
        worst_solver = max(worst_solver, abs(x[0] - oracle))
    solver_ok = worst_solver <= 1e-3
    ok = closed_ok and solver_ok
    _report(8, "oracle equivalence", ok,
            f"closed forms: |dx| {worst_x:.2e}, |df| {worst_f:.2e} (<= 1e-4); "
            f"solver vs grid: {worst_solver:.2e} (<= 1e-3) [{time.time()-t0:.0f}s]")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: determinism of acceptance configs
# ---------------------------------------------------------------------------


def test_criterion_9_byte_identical_reruns(sweep_results, tmp_path):
    reruns = []
    for key, fname in (
        ("invsens", "acceptance_invsens.ini"),
        ("priv_pure", "acceptance_priv_pure.ini"),
    ):
        cfg = load_config(CONFIG_DIR / fname)
        _, csv_path, _ = run_sweep(cfg, tmp_path / f"rerun_{key}", jobs=JOBS)
        same = csv_path.read_bytes() == sweep_results[key]["csv"].read_bytes()
        reruns.append((key, same))
    ok = all(same for _, same in reruns)
    _report(9, "byte-identical CSV reruns", ok,
            ", ".join(f"{k}: {'identical' if s else 'DIFFERS'}" for k, s in reruns))
    assert ok


# sha256 of each acceptance sweep's CSV (numpy 2.4, x86_64), the same at
# --jobs 1 and 2.  A change that keeps the program's behaviour keeps them; one
# that is meant to move rows records its new digests here with the rows.
PINNED_CSV_SHA256 = {
    "stat_kappa2": "bebaef673e8592966620a43e7d00c9ea2d7ae214d997e11b9302812720069c65",
    "stat_kappa4": "e1e0ced07f724af46b584c42b9c47cb0dbf85fe624b66e116c535021bb9252d1",
    "priv_epoch": "b9c0b0b633ea1fd30a1c8e6966ae437d13626262a586d32ecbdf296ff74d25b8",
    "priv_pure": "66b4b2fd7eeb252c35f2a7c5b2dfcfb7e37cce796a355d70e74e0eb7302d778d",
    "invsens": "db6f1892489fcb691e65574b17a304367fc7be8cfc6dbd8b6a955d325567e456",
}


def test_acceptance_csvs_match_pinned_digests(sweep_results):
    got = {key: hashlib.sha256(res["csv"].read_bytes()).hexdigest()
           for key, res in sweep_results.items()}
    assert got == PINNED_CSV_SHA256


# sha256 of the audit_rows fixture's rows (pipeline, epsilon, mode and the
# report's fields, as JSON with sorted keys), on the same platform as above.
PINNED_AUDIT_SHA256 = "4a9b50b5a81e28d0d09b5866d8b76e832cd34e21cb3529ebbd812551aa9f23e8"


def test_audit_rows_match_pinned_digest(audit_rows):
    blob = json.dumps(
        [[r.pipeline, r.epsilon, r.mode, dataclasses.asdict(r.report)] for r in audit_rows],
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_AUDIT_SHA256
