import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpgrowth
from dpgrowth.core import Dataset, Domain, InvalidInputError, RngStream, probe_points, project
from dpgrowth.instances import (
    SHIPPED_INSTANCES,
    PowerNormLinearLoss,
    _mean_sample,
    build_instance,
    make_knorm_regression,
    make_pure_convex,
    make_sharp_growth_1d,
    make_uniform_convex,
)
from dpgrowth.inv_sensitivity import _grid_1d, default_rho


# ---------------------------------------------------------------------------
# Uniform-convex family
# ---------------------------------------------------------------------------


def test_uniform_convex_unbiased_minimizer_at_origin():
    inst = make_uniform_convex(d=3, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.0)
    np.testing.assert_allclose(inst.xstar, np.zeros(3))
    assert inst.fstar == 0.0


def test_uniform_convex_biased_1d_closed_form():
    # Population objective 0.5 x^2 + 0.2 x: stationarity x + 0.2 = 0.
    inst = make_uniform_convex(d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1)
    assert inst.pop_value(np.array([0.3])) == pytest.approx(0.5 * 0.09 + 0.2 * 0.3)
    assert inst.xstar[0] == pytest.approx(-0.2)
    assert inst.fstar == pytest.approx(-0.02)


def test_uniform_convex_kappa4_vs_grid_minimizer():
    inst = make_uniform_convex(d=1, kappa=4, lam=0.25, L=2.0, R=1.0, bias_delta=0.1)
    grid = np.arange(-1.0, 1.0 + 1e-6, 1e-6)
    vals = inst.pop_value_many(grid[:, None])
    k = int(np.argmin(vals))
    assert abs(inst.xstar[0] - grid[k]) < 1e-4
    assert abs(inst.fstar - vals[k]) < 1e-4


def test_uniform_convex_window_enforced():
    with pytest.raises(InvalidInputError):
        make_uniform_convex(d=1, kappa=2, lam=1.0, L=1.0, R=1.0)  # needs L >= 2 lam R


def test_uniform_convex_sample_support_and_mean():
    inst = make_uniform_convex(d=4, kappa=2, lam=1.0, L=2.0, R=1.0, bias_delta=0.0)
    data = inst.draw(5000, RngStream(1, 0))
    norms = np.linalg.norm(data.samples, axis=1)
    np.testing.assert_allclose(norms, 1.0)
    assert np.count_nonzero(data.samples) == 5000  # one live coordinate each


def test_one_dimensional_draws_equal_the_general_construction():
    # At d = 1 the sampler draws one random(n) and picks +-v[0]; the general
    # construction draws the coordinate index (integers(0, 1) takes nothing
    # from the stream) and scatters signs * v[idx].  Same rows, same bytes,
    # and the stream is left at the same place.
    for direction in (1.0, -1.0):
        for bias in (0.0, 0.1, 0.3, 0.5):
            inst = make_uniform_convex(d=1, kappa=4, lam=0.25, L=2.0, R=1.0, bias_delta=bias,
                                       direction=np.array([direction]))
            for n in (1, 2, 7, 1000):
                got_rng, want_rng = RngStream(5, n), RngStream(5, n)
                got = inst.draw(n, got_rng).samples
                idx = want_rng.gen.integers(0, 1, size=n)
                signs = np.where(want_rng.gen.random(n) < (1.0 + bias) / 2.0, 1.0, -1.0)
                want = np.zeros((n, 1))
                want[np.arange(n), idx] = signs * np.array([direction])[idx]
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert got_rng.gen.random() == want_rng.gen.random()


def _float64_draw(name, params, rng, n):
    """The float64 construction the signed-coordinate samplers used before
    they drew int8, and pure_convex before it drew float32: the reference
    for their widened draws."""
    if name == "pure_convex":
        c = params["R"] / 2.0
        u = rng.gen.random((n, params["d"]))
        return np.where(u < 0.25, -c, np.where(u < 0.75, 0.0, c))
    if name == "sharp_growth":
        bias = params["bias_delta"]
        p_plus = (1.0 + bias) / 2.0 if params.get("v", 1) == 1 else (1.0 - bias) / 2.0
        return np.where(rng.gen.random(n) < p_plus, 1.0, -1.0)[:, None]
    d = params["d"]
    v = np.asarray(params.get("direction", np.ones(d)), float)
    p_plus = (1.0 + params.get("bias_delta", 0.0)) / 2.0
    if d == 1:
        return np.where(rng.gen.random(n) < p_plus, v[0], -v[0])[:, None]
    idx = rng.gen.integers(0, d, size=n)
    signs = np.where(rng.gen.random(n) < p_plus, 1.0, -1.0) * v[idx]
    rows = np.zeros((n, d))
    rows[np.arange(n), idx] = signs
    return rows


SIGNED = ("uniform_convex", "sharp_growth")
DRAW_CASES = SHIPPED_INSTANCES + [
    ("uniform_convex", dict(d=1, kappa=2, lam=1.0, L=4.0, R=1.0, direction=np.array([-1.0]))),
    ("uniform_convex", dict(d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.3,
                            direction=np.array([-1.0]))),
    ("uniform_convex", dict(d=4, kappa=2, lam=1.0, L=2.0, R=1.0, bias_delta=0.2,
                            direction=np.array([1.0, -1.0, -1.0, 1.0]))),
    ("uniform_convex", dict(d=4, kappa=2, lam=1.0, L=2.0, R=1.0,
                            direction=-np.ones(4))),
    ("sharp_growth", dict(kappa=1.5, bias_delta=0.25, v=-1)),
    # float32 holds R/2 = 0.5, not 0.15.
    ("pure_convex", dict(d=2, L=1.0, R=1.0)),
    ("pure_convex", dict(d=2, L=1.0, R=0.3)),
]


def _drawn_dtype(name, params):
    if name in SIGNED:
        return np.int8
    if name == "pure_convex":
        return {1.0: np.float32, 0.3: np.float64}[params["R"]]
    return np.float64


@pytest.mark.parametrize("case", range(len(DRAW_CASES)))
def test_draws_widen_the_samplers_own_draws_bit_for_bit(case):
    # draw's float64 samples are draw_samples' widened, from fresh streams
    # with the same key.  The signed-coordinate families draw int8 and
    # pure_convex float32 where it holds R/2, each with the bits of the
    # float64 construction, the stream left at the same place; the other
    # families draw float64.  A narrow array scores as its Dataset does.
    name, params = DRAW_CASES[case]
    inst = build_instance(name, **params)
    for n in (1, 7, 1000):
        narrow = inst.draw_samples(n, RngStream(29, n))
        wide_rng = RngStream(29, n)
        wide = inst.draw(n, wide_rng).samples
        assert narrow.shape == wide.shape == (n, inst.loss.point_dim + (name == "knorm_regression"))
        assert narrow.astype(float).tobytes() == wide.tobytes()
        assert narrow.dtype == _drawn_dtype(name, params)
        if name not in (*SIGNED, "pure_convex"):
            continue
        ref_rng = RngStream(29, n)
        assert wide.tobytes() == _float64_draw(name, params, ref_rng, n).tobytes()
        assert wide_rng.gen.random() == ref_rng.gen.random()
        for x in (inst.xstar, project(inst.domain, inst.xstar + 0.3)):
            assert inst.excess_emp(x, narrow) == inst.excess_emp(x, Dataset(narrow))


def test_mean_sample_of_integers_equals_the_float_mean_bit_for_bit():
    # int8 columns of signs and of any int8 values, with an all-(-1) column,
    # at n = 1, odd n, and n = 2^20.
    rng = np.random.default_rng(29)
    for n, d in ((1, 1), (1, 4), (7, 1), (999, 4), (4097, 2), (2**20, 2)):
        for low, high in ((-1, 2), (-128, 128)):
            samples = rng.integers(low, high, (n, d)).astype(np.int8)
            samples[:, -1] = -1
            got = _mean_sample(samples)
            assert got.dtype == np.float64
            assert got.tobytes() == samples.astype(float).mean(axis=0).tobytes(), (n, d, low)
    wide = rng.standard_normal((9, 3))
    assert _mean_sample(wide).tobytes() == wide.mean(axis=0).tobytes()


def _radii_grads(loss, points, samples):
    """``PowerNormLinearLoss.mean_grads``' general form, at every power."""
    radii = np.linalg.norm(points, axis=1, keepdims=True)
    return (loss.coef * loss.power * radii ** (loss.power - 2.0) * points
            + loss.lin_scale * samples.mean(axis=0))


def test_quadratic_mean_grads_equal_the_radii_form_bit_for_bit():
    # The invsens sweep's lattice and samples, the adaptive-exponent test's
    # kappa = 2 lattices (up to about a million points), signed zeros, and
    # random points with infinities and NaNs, at d = 1 and d = 3.
    invsens = make_uniform_convex(d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1)
    adaptive = make_uniform_convex(d=1, kappa=2, lam=0.25, L=2.0, R=1.0, bias_delta=0.1)
    unit = Domain(np.zeros(1), 1.0)
    cases = [(invsens.loss, _grid_1d(unit, 2.5e-4), invsens.draw(1000, RngStream(35, 0)).samples)]
    for n in (256, 512, 1024):
        h = default_rho(2.0, 0.25, 2.0, n, 1, 1.0) / 4.0
        cases.append((adaptive.loss, _grid_1d(unit, h), adaptive.draw(n, RngStream(35, n)).samples))
    rng = np.random.default_rng(35)
    for d in (1, 3):
        loss = PowerNormLinearLoss(rng.uniform(0.1, 3.0), 2.0, rng.uniform(0.5, 2.0), d, 4.0)
        points = rng.normal(scale=10.0 ** rng.uniform(-300, 300, (500, 1)), size=(500, d))
        points[:4] = [[0.0] * d, [-0.0] * d, [np.inf] * d, [np.nan] * d]
        points[4:8, 0] = [-np.inf, np.nan, -0.0, 1e308]
        cases.append((loss, points, rng.normal(size=(17, d))))
    for loss, points, samples in cases:
        assert loss.power == 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            want = _radii_grads(loss, points, samples)
            got = loss.mean_grads(points, samples)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # Other powers keep the general form itself.
    for power in (3.0, 4.0):
        loss = PowerNormLinearLoss(0.7, power, 1.3, 2, 4.0)
        points, samples = rng.normal(size=(200, 2)), rng.normal(size=(9, 2))
        assert loss.mean_grads(points, samples).tobytes() == _radii_grads(
            loss, points, samples).tobytes()


# ---------------------------------------------------------------------------
# Sharp-growth family
# ---------------------------------------------------------------------------


def test_sharp_growth_formulas():
    inst = make_sharp_growth_1d(kappa=1.5, bias_delta=0.25)
    assert inst.xstar[0] == pytest.approx(0.03125)
    assert inst.fstar == pytest.approx(0.0234375)


def test_sharp_growth_mirror_symmetry():
    plus = make_sharp_growth_1d(kappa=1.5, bias_delta=0.25, v=1)
    minus = make_sharp_growth_1d(kappa=1.5, bias_delta=0.25, v=-1)
    assert minus.xstar[0] == pytest.approx(-plus.xstar[0])
    assert minus.fstar == pytest.approx(plus.fstar)
    xs = np.linspace(-0.9, 0.9, 101)[:, None]
    np.testing.assert_allclose(
        minus.pop_value_many(xs), plus.pop_value_many(-xs), atol=1e-12
    )


def test_sharp_growth_certificates_pass():
    inst = make_sharp_growth_1d(kappa=1.5, bias_delta=0.25)
    g, k = inst.certify(probes=10_000)
    assert g.max_violation <= 1e-7
    assert k.max_violation <= 1e-7


def test_sharp_growth_rejects_bad_params():
    with pytest.raises(InvalidInputError):
        make_sharp_growth_1d(kappa=2.5, bias_delta=0.25)
    with pytest.raises(InvalidInputError):
        make_sharp_growth_1d(kappa=1.5, bias_delta=0.8)


# ---------------------------------------------------------------------------
# Power-kappa regression family
# ---------------------------------------------------------------------------


def test_knorm_noiseless_optimum_is_zero():
    inst = make_knorm_regression(d=2, kappa=2, R=1.0)
    assert inst.fstar == 0.0
    data = inst.draw(50, RngStream(2, 0))
    assert inst.emp_value(inst.xstar, data) == pytest.approx(0.0, abs=1e-24)


def test_knorm_fitted_growth_constant_positive_and_certified():
    inst = make_knorm_regression(d=2, kappa=4, R=1.0)
    assert inst.growth.lam > 0
    g, k = inst.certify(probes=10_000)
    assert g.max_violation <= 1e-7
    assert k.max_violation <= 1e-7


def test_knorm_subgrad_matches_finite_differences():
    inst = make_knorm_regression(d=2, kappa=3, R=1.0)
    rng = RngStream(3, 0)
    data = inst.draw(10, rng)
    h = 1e-6
    for _ in range(100):
        x = rng.gen.uniform(-0.6, 0.6, 2)
        s = data.samples[rng.gen.integers(0, 10)][None]  # a one-sample batch
        g = inst.loss.batch_subgrad(x, s)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (inst.loss.batch_value(x + e, s) - inst.loss.batch_value(x - e, s)) / (2 * h)
            assert abs(g[j] - fd) < 1e-5


def test_knorm_population_value_matches_monte_carlo():
    inst = make_knorm_regression(d=2, kappa=2, R=1.0)
    x = np.array([0.5, -0.2])
    data = inst.draw(200_000, RngStream(4, 0))
    mc = inst.emp_value(x, data)
    se = np.std(
        np.abs(data.samples[:, 2] - data.samples[:, :2] @ x) ** 2
    ) / math.sqrt(data.n)
    assert abs(inst.pop_value(x) - mc) < 5 * se


def test_knorm_rejects_noninteger_kappa():
    with pytest.raises(InvalidInputError):
        make_knorm_regression(d=1, kappa=2.5, R=1.0)


# ---------------------------------------------------------------------------
# Pure-convex control family
# ---------------------------------------------------------------------------


def test_pure_convex_lipschitz_probe():
    inst = make_pure_convex(d=5, L=1.0, R=1.0)
    rng = RngStream(5, 0)
    data = inst.draw(100, rng)
    for _ in range(200):
        x = rng.gen.uniform(-0.4, 0.4, 5)
        s = data.samples[rng.gen.integers(0, 100)]
        assert np.linalg.norm(inst.loss.batch_subgrad(x, s[None])) <= 1.0 + 1e-12


def test_pure_convex_population_closed_form():
    inst = make_pure_convex(d=2, L=1.0, R=1.0)
    # Per-coordinate mean abs deviation against Monte Carlo.
    data = inst.draw(400_000, RngStream(6, 0))
    x = np.array([0.2, -0.7])
    mc = inst.emp_value(x, data)
    assert abs(inst.pop_value(x) - mc) < 3e-3
    assert inst.fstar == pytest.approx(inst.pop_value(inst.xstar))


def test_pure_convex_empirical_minimizer_risk_decreases_with_n():
    inst = make_pure_convex(d=1, L=1.0, R=1.0)
    med = []
    for power, base_stream in ((4, 0), (7, 1), (10, 2)):
        vals = []
        for seed in range(100):
            data = inst.draw(2**power, RngStream(7, base_stream * 1000 + seed))
            x, _ = inst.empirical_min(data)
            vals.append(inst.excess_pop(x))
        med.append(np.median(vals))
    assert med[0] >= med[1] >= med[2]


def test_pure_convex_ball_constrained_empirical_min():
    d = 5
    inst = make_pure_convex(d=d, L=1.0, R=1.0)
    # All-coordinate extreme samples put the unconstrained median at norm
    # 0.5 sqrt(5) > R, so the ball-constrained branch must answer.
    samples = np.full((9, d), 0.5)
    assert np.linalg.norm(np.median(samples, axis=0)) > 1.0
    data = Dataset(samples)
    x, f = inst.empirical_min(data)
    assert np.linalg.norm(x) <= 1.0 + 1e-9
    # The objective is symmetric in the coordinates and decreases towards the
    # median, so the minimizer is the ball's boundary point on the diagonal.
    diag = np.full(d, 1.0 / math.sqrt(d))
    np.testing.assert_allclose(x, diag, atol=1e-9)
    assert f == pytest.approx(inst.emp_value(diag, data), abs=1e-12)
    assert f == pytest.approx(inst.emp_value(x, data), abs=1e-15)
    probes = RngStream(12, 0).gen.standard_normal((200, d))
    probes /= np.maximum(1.0, np.linalg.norm(probes, axis=1))[:, None]
    assert all(f <= inst.emp_value(p, data) + 1e-12 for p in probes)


# ---------------------------------------------------------------------------
# Cross-family checks
# ---------------------------------------------------------------------------


def test_sampler_reproducibility_all_families():
    for name, params in SHIPPED_INSTANCES:
        inst = build_instance(name, **params)
        a = inst.draw(64, RngStream(11, 5)).samples
        b = inst.draw(64, RngStream(11, 5)).samples
        assert np.array_equal(a, b), inst.description


def test_declared_lipschitz_respected_over_10k_probes():
    rng = RngStream(14, 0)
    for idx, (name, params) in enumerate(SHIPPED_INSTANCES):
        inst = build_instance(name, **params)
        d = inst.domain.dim
        data = inst.draw(200, rng.child(2 * idx))
        probe_rng = rng.child(2 * idx + 1)
        xs = probe_rng.gen.uniform(-1, 1, (10_000, d)) * inst.domain.radius
        norms = np.linalg.norm(xs, axis=1, keepdims=True)
        xs = np.where(norms > inst.domain.radius, xs * (inst.domain.radius / norms), xs)
        picks = probe_rng.gen.integers(0, 200, size=10_000)
        worst = 0.0
        for x, j in zip(xs, picks):
            g = inst.loss.batch_subgrad(x, data.samples[j][None])
            worst = max(worst, float(np.linalg.norm(g)))
        assert worst <= inst.loss.lipschitz + 1e-9, inst.description


def test_every_shipped_loss_pickles_and_loads_back():
    # A loss is numbers and methods: its solver hint holds no callables, so
    # the loss pickles, and the copy computes the same batch oracles.
    for name, params in SHIPPED_INSTANCES:
        inst = build_instance(name, **params)
        loss = pickle.loads(pickle.dumps(inst.loss))
        assert type(loss) is type(inst.loss) and vars(loss) == vars(inst.loss), inst.description
        samples = inst.draw(16, RngStream(15, 0)).samples
        x = inst.xstar + 0.1 * inst.domain.radius
        assert loss.batch_value(x, samples) == inst.loss.batch_value(x, samples)
        assert loss.batch_subgrad(x, samples).tobytes() == inst.loss.batch_subgrad(
            x, samples
        ).tobytes()


def test_registry_round_trip():
    inst = build_instance("sharp_growth", kappa=1.5, bias_delta=0.25)
    assert inst.description.startswith("sharp_growth(")
    with pytest.raises(InvalidInputError):
        build_instance("mystery")


def test_empirical_min_is_a_minimum_on_probes():
    rng = RngStream(13, 0)
    for idx, (name, params) in enumerate(SHIPPED_INSTANCES):
        inst = build_instance(name, **params)
        data = inst.draw(64, rng.child(idx))
        xmin, fmin = inst.empirical_min(data)
        assert inst.emp_value(xmin, data) == pytest.approx(fmin, abs=1e-12)
        d = inst.domain.dim
        for t in range(50):
            probe = project(inst.domain, rng.gen.uniform(-1, 1, d))
            assert inst.emp_value(probe, data) >= fmin - 1e-9


def _kinks(name, params, inst):
    """Coordinate values where a shipped instance's population objective has a kink."""
    if name == "sharp_growth":
        return np.array([inst.xstar[0], -inst.xstar[0]])
    if name == "pure_convex":
        return np.array([-0.5, 0.0, 0.5]) * params["R"]
    return np.empty(0)


@pytest.mark.parametrize("idx", range(len(SHIPPED_INSTANCES)))
def test_pop_grad_matches_central_differences_away_from_kinks(idx):
    name, params = SHIPPED_INSTANCES[idx]
    inst = build_instance(name, **params)
    d = inst.domain.dim
    pts = RngStream(15, idx).gen.uniform(-0.95, 0.95, (400, d)) * inst.domain.radius
    kinks = _kinks(name, params, inst)
    if kinks.size:
        gaps = np.abs(pts[:, :, None] - kinks[None, None, :]).min(axis=(1, 2))
        pts = pts[gaps > 1e-3]
    assert len(pts) >= 300
    grad = inst._pop_grad(pts)
    assert grad.shape == pts.shape
    h = 1e-6
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        fd = (inst.pop_value_many(pts + e) - inst.pop_value_many(pts - e)) / (2 * h)
        np.testing.assert_allclose(grad[:, j], fd, rtol=1e-6, atol=1e-6, err_msg=inst.description)


def test_sharp_growth_pop_grad_is_min_norm_at_the_kinks():
    for name, params in SHIPPED_INSTANCES:
        if name != "sharp_growth":
            continue
        inst = build_instance(name, **params)
        # At x* the subdifferential holds 0, so 0 is returned, not a one-sided slope.
        assert np.array_equal(inst._pop_grad(inst.xstar[None, :]), np.zeros((1, 1)))
        t = inst.xstar[0] + np.array([-1e-3, 1e-3])
        g = inst._pop_grad(t[:, None])[:, 0]
        assert g[0] * g[1] < 0, inst.description  # slopes change sign across x*
        # At the mirror kink -x* the one-sided slopes are -p and -bias (times
        # the sign of x*), both of one sign; the smaller one, -bias, is returned.
        g = inst._pop_grad(-inst.xstar[None, :])[0, 0]
        expected = -np.sign(inst.xstar[0]) * params["bias_delta"]
        assert g == pytest.approx(expected, abs=1e-5), inst.description


@pytest.mark.parametrize(
    "idx", [i for i, (name, _) in enumerate(SHIPPED_INSTANCES) if name != "pure_convex"]
)
def test_certify_matches_a_per_probe_loop(idx):
    # Reference: the scalar population value and one gradient row per probe.
    name, params = SHIPPED_INSTANCES[idx]
    inst = build_instance(name, **params)
    g, k = inst.certify(probes=2000, rng=RngStream(3100, idx))
    rng = RngStream(3100, idx)
    spec, xstar, fstar = inst.growth, inst.xstar, inst.fstar
    growth = [
        spec.lam / spec.kappa * float(np.linalg.norm(p - xstar)) ** spec.kappa
        - (inst.pop_value(p) - fstar)
        for p in probe_points(inst.domain, xstar, 2000, rng)
    ]
    expo = spec.kappa / (spec.kappa - 1.0)
    coef = math.e / spec.lam ** (1.0 / (spec.kappa - 1.0))
    kl = [
        inst.pop_value(p) - fstar
        - coef * float(np.linalg.norm(inst._pop_grad(p[None, :])[0])) ** expo
        for p in probe_points(inst.domain, xstar, 2000, rng, interior_shrink=0.98)
    ]
    assert g.max_violation == pytest.approx(max(growth), abs=1e-14)
    assert k.max_violation == pytest.approx(max(kl), abs=1e-14)


def _runs_without_scipy(code):
    # Runs `code` in a fresh process where every scipy import fails.
    src = os.path.dirname(os.path.dirname(dpgrowth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys\nsys.modules['scipy'] = None\n"
                          + code + "\nprint('ok')"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_import_and_instance_build_leave_scipy_unloaded():
    # The package depends on numpy alone: a knorm build and a 1-D solve
    # without a closed form run with scipy unimportable.
    _runs_without_scipy(
        "import numpy as np\n"
        "from dpgrowth import build_instance\n"
        "from dpgrowth.core import Domain, RngStream\n"
        "from dpgrowth.erm import RegularizedProblem, certified_gap, solve\n"
        "inst = build_instance('knorm_regression', d=1, kappa=2, R=1.0)\n"
        "prob = RegularizedProblem(inst.loss, inst.draw(16, RngStream(5, 0)), np.zeros(1), 0.1,\n"
        "                          Domain(np.zeros(1), 1.0))\n"
        "assert certified_gap(prob, solve(prob, tol=1e-12)) <= 1e-12"
    )


def test_grid_sampler_sweep_and_audit_leave_scipy_unloaded(tmp_path):
    # The grid sampler runs on numpy alone, so an inv_sensitivity sweep and
    # an audit run with scipy unimportable.
    config = Path(__file__).resolve().parent.parent / "configs" / "acceptance_invsens.ini"
    _runs_without_scipy(
        "import dataclasses\n"
        "from dpgrowth.harness import load_config, privacy_audit, run_sweep\n"
        f"run_sweep(dataclasses.replace(load_config({str(config)!r}), seeds=2), {str(tmp_path)!r})\n"
        "privacy_audit(epsilons=(1.0,), trials=200)"
    )
