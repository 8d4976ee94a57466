import math

import numpy as np
import pytest

from dpgrowth import harness
from dpgrowth.core import (
    Dataset,
    Domain,
    GrowthSpec,
    InvalidInputError,
    ResourceError,
    RngStream,
)
from dpgrowth.inv_sensitivity import (
    GridDensity,
    _grid_1d,
    _logsumexp,
    _window_min,
    build_density,
    default_rho,
    excess_risk_bound,
    sample,
)
from dpgrowth.instances import build_instance
from loss_helpers import CallableLoss


def _atom_abs_instance():
    return build_instance("pure_convex", d=1, L=1.0, R=1.0)


# ---------------------------------------------------------------------------
# Windowed gradient-norm scores
# ---------------------------------------------------------------------------


def _scores(dens, inst, data, epsilon):
    """Smoothed gradient norms, read back from log_weight = -eps n G / (2 L)."""
    return -2.0 * inst.loss.lipschitz * dens.log_weights / (epsilon * data.n)


def test_build_density_score_is_zero_at_an_atom():
    inst = _atom_abs_instance()
    data = Dataset(np.full((10, 1), 0.5))
    # rho = 1/16 makes the spacing 1/64, so 0.5 is a lattice point.
    dens = build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=0.0625)
    at_atom = dens.points[:, 0] == 0.5
    assert at_atom.sum() == 1
    assert _scores(dens, inst, data, 1.0)[at_atom][0] == 0.0


def test_build_density_score_is_one_outside_the_window():
    inst = _atom_abs_instance()
    data = Dataset(np.full((10, 1), 0.5))
    rho = 0.0625
    dens = build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=rho)
    scores = _scores(dens, inst, data, 1.0)
    dist = np.abs(dens.points[:, 0] - 0.5)
    np.testing.assert_allclose(scores[dist >= 2 * rho], 1.0)
    assert np.all(scores[dist <= rho] == 0.0)


def test_build_density_scores_zero_on_both_points_bracketing_an_off_grid_atom():
    inst = _atom_abs_instance()
    atom = 0.5 + (1.0 / 64.0) / 3.0  # a third of the spacing past a lattice point
    data = Dataset(np.full((10, 1), atom))
    # No lattice point is stationary: the zero score must come from the sign
    # change of the mean gradient between the two bracketing points.
    dens = build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=0.0625)
    x = dens.points[:, 0]
    scores = _scores(dens, inst, data, 1.0)
    below = int(np.flatnonzero(x < atom)[-1])
    assert x[below] < atom < x[below + 1]
    assert scores[below] == 0.0 and scores[below + 1] == 0.0


# ---------------------------------------------------------------------------
# Density construction
# ---------------------------------------------------------------------------


def test_uniform_gradient_field_gives_uniform_density():
    # Linear per-sample loss: constant slope everywhere, so all scores tie.
    loss = CallableLoss(
        lambda x, s: 0.7 * float(x[0]),
        lambda x, s: np.array([0.7]),
        lipschitz=1.0,
    )
    domain = Domain(np.array([0.5]), 0.5)
    data = Dataset(np.zeros((12, 1)))
    dens = build_density(loss, data, domain, epsilon=1.0, rho=0.05)
    probs = dens.probabilities
    ratios = probs[:, None] / probs[None, :]
    assert np.max(np.abs(ratios - 1.0)) < 1e-9


def test_probabilities_normalized():
    inst = _atom_abs_instance()
    data = inst.draw(30, RngStream(1, 0))
    dens = build_density(inst.loss, data, inst.domain, epsilon=2.0, rho=0.08)
    assert abs(dens.probabilities.sum() - 1.0) <= 1e-12


def test_a_nan_sample_fails_the_density_build():
    # NaN scores normalize to NaN probabilities, which the old check
    # abs(total - 1) > tol let through; sample then drew the lattice's
    # first point every time.
    inst = _atom_abs_instance()
    samples = np.zeros((16, 1))
    samples[3] = np.nan
    with pytest.raises(InvalidInputError, match="normalization off by nan"):
        build_density(inst.loss, Dataset(samples), inst.domain, epsilon=1.0, rho=0.1)


def test_epsilon_to_zero_flattens_density():
    inst = _atom_abs_instance()
    data = Dataset(np.full((16, 1), 0.2))
    dens = build_density(inst.loss, data, inst.domain, epsilon=1e-9, rho=0.1)
    probs = dens.probabilities
    assert probs.max() / probs.min() == pytest.approx(1.0, abs=1e-6)


def test_atom_mass_matches_two_level_integral():
    # All samples at c: scores are 0 within rho of c and eps*n/(2L) outside
    # (up to one lattice step), so the continuous density is two-level.
    c, rho, eps, n = 0.3, 0.05, 1.0, 20
    inst = _atom_abs_instance()
    data = Dataset(np.full((n, 1), c))
    h = rho / 1000.0
    dens = build_density(inst.loss, data, inst.domain, epsilon=eps, rho=rho, h=h)
    t = 0.2
    pts = dens.points.ravel()
    mass = dens.probabilities[np.abs(pts - c) <= rho + t].sum()
    level = math.exp(-eps * n / 2.0)
    window, outside = 2.0 * rho, 2.0 - 2.0 * rho
    z = window + outside * level
    oracle = (window + 2.0 * t * level) / z
    assert abs(mass - oracle) < 1e-3


def test_default_rho_formula():
    got = default_rho(L=2.0, lam=0.5, kappa_lower=2.0, n=100, d=1, epsilon=1.0)
    assert got == pytest.approx((2.0 / 0.5) * (1.0 / 100.0) ** 2)


def test_grid_guards():
    inst = _atom_abs_instance()
    data = inst.draw(8, RngStream(2, 0))
    with pytest.raises(InvalidInputError):
        build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=0.1, h=0.05)
    with pytest.raises(ResourceError):
        build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=4e-7)
    with pytest.raises(InvalidInputError):
        build_density(inst.loss, data, Domain(np.zeros(3), 1.0), epsilon=1.0, rho=0.1)


def test_density_requires_rho_or_growth():
    inst = _atom_abs_instance()
    data = inst.draw(8, RngStream(3, 0))
    with pytest.raises(InvalidInputError):
        build_density(inst.loss, data, inst.domain, epsilon=1.0)


def test_one_dimensional_lattice_stays_inside_its_interval():
    # (hi - lo) / h reads 6.000000000000001 here, so floor counts seven
    # points, and the seventh, lo + 6h = 0.050000000000000044, lies past
    # hi = 0.04999999999999999.
    domain = Domain(np.array([-0.25]), 0.3)
    points = _grid_1d(domain, 0.1)[:, 0]
    assert len(points) == 6 and points[-1] <= domain.interval()[1]
    # The shipped lattices keep every point: the invsens sweep's and the
    # audit's both end exactly at the domain's right end.
    for h, count in ((2.5e-4, 8001), (0.025, 81)):
        points = _grid_1d(Domain(np.zeros(1), 1.0), h)[:, 0]
        assert len(points) == count and points[-1] == 1.0
    # On random decimal intervals and spacings, where a rounded count often
    # overshoots as above, the lattice is the floor count's points <= hi.
    rng = np.random.default_rng(3)
    dropped = 0
    for _ in range(300):
        center, radius = round(rng.uniform(-1.0, 1.0), 2), round(rng.uniform(0.01, 1.0), 2)
        h = max(round(2.0 * radius / int(rng.integers(1, 400)), 3), 0.001)
        domain = Domain(np.array([center]), radius)
        lo, hi = domain.interval()
        p = lo + h * np.arange(int(math.floor((hi - lo) / h)) + 1)
        got = _grid_1d(domain, h)
        assert got.shape == (np.count_nonzero(p <= hi), 1)
        assert got[:, 0].tobytes() == p[p <= hi].tobytes()
        dropped += len(p) - len(got)
    assert dropped > 0


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def test_logsumexp_equals_scipy_bit_for_bit():
    from scipy.special import logsumexp

    rng = np.random.default_rng(17)
    cases = [np.zeros(1), np.full(3, -np.inf), np.array([-np.inf, -1.0, -np.inf])]
    for case in range(1200):
        size = int(10.0 ** rng.uniform(0.0, math.log10(20_000)))
        # Spreads from 1e-3 to 1e4: beyond about 745 the smallest terms underflow.
        a = -(10.0 ** rng.uniform(-3.0, 4.0)) * rng.random(size) + rng.normal()
        if case % 3 == 1:
            a = np.round(a, int(rng.integers(0, 3)))
        elif case % 3 == 2:
            a[rng.integers(0, size, size // 4 + 1)] = a.max()
        cases.append(a)
    for a in cases:
        assert _bits(_logsumexp(a)) == _bits(logsumexp(a)), a


def test_window_min_equals_scipy_bit_for_bit():
    from scipy.ndimage import minimum_filter1d

    rng = np.random.default_rng(18)
    # Windows 1 to 13 wide, and 15, 17, 31, 33 and 81: a power of two
    # spans each of the last ones exactly or with one point over.
    for w in (*range(7), 7, 8, 15, 16, 40):
        for side in range(1, 41):
            line = np.round(rng.random(side), 1)
            line[rng.random(side) < 0.2] = np.inf
            got = _window_min(line, w)
            assert _bits(got) == _bits(minimum_filter1d(line, 2 * w + 1, mode="nearest"))


def test_density_refuses_a_two_dimensional_domain():
    inst = build_instance(
        "uniform_convex", d=2, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1
    )
    data = inst.draw(64, RngStream(4, 0))
    with pytest.raises(InvalidInputError, match="needs d = 1, got d = 2"):
        build_density(inst.loss, data, inst.domain, epsilon=2.0, rho=0.15)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _two_point_density():
    w = np.array([math.log(3.0), math.log(1.0)])
    lp = w - math.log(4.0)
    return GridDensity(
        points=np.array([[0.0], [1.0]]),
        log_weights=w,
        log_probs=lp,
        spacing=0.25,
        rho=1.0,
    )


def _density_of(probs):
    with np.errstate(divide="ignore"):
        lp = np.log(np.asarray(probs, dtype=float))
    points = np.arange(len(lp), dtype=float)[:, None]
    return GridDensity(points=points, log_weights=lp, log_probs=lp, spacing=0.25, rho=1.0)


def _cdf(dens):
    cdf = np.cumsum(dens.probabilities)
    cdf[-1] = 1.0
    return cdf


class _FixedUniforms:
    """An ``RngStream`` stand-in whose one ``gen.random`` call returns ``u``."""

    def __init__(self, u):
        self.gen, self.u = self, u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def _special_uniforms(cdf, buckets):
    """u on and beside each cdf value below 1, on and just below each edge
    k / buckets, 0 and 1 - 2^-53."""
    inner = cdf[cdf < 1.0]
    on = np.concatenate([inner, np.arange(buckets) / buckets])
    u = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(inner, 1.0), [1.0 - 2.0**-53]])
    return u[u < 1.0]


def test_guide_table_draws_equal_the_binary_search_bit_for_bit():
    # The reference is the sampler's former lookup, one binary search per
    # draw.  Densities: the audit's grid rows (epsilon / multiplier over
    # the acceptance audit's budgets and halved noise, and one far sharper),
    # a one-point lattice, a point mass (the cdf reaches 1 early), leading
    # zero probabilities (it starts at 0), and a cdf that passes 1.0 before
    # its last entry is set to 1.0.
    inst = harness._audit_abs_instance()
    densities = [build_density(inst.loss, data, inst.domain, eps, rho=0.1)
                 for eps in (0.5, 1.0, 2.0, 4.0, 1e3) for data in harness._audit_datasets(32)]
    audit = densities[0].probabilities
    over = _density_of(np.concatenate([audit * (1.0 + 8e-13), [0.0, 0.0]]))
    assert _cdf(over)[-2] > 1.0
    densities += [_density_of([1.0]), _density_of([0.0, 1.0, 0.0, 0.0]),
                  _density_of([0.0, 0.0, 0.25, 0.75]), _density_of([0.5, 0.5 + 4e-13, 0.0]),
                  over]
    gen = np.random.default_rng(34)
    for i, dens in enumerate(densities):
        cdf = _cdf(dens)

        def reference(u):
            return dens.points[np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)]

        for size in (None, 0, 1, 2, 3, 10_000, 100_000):
            got = sample(dens, RngStream(34, i), size)
            want = reference(RngStream(34, i).gen.random(1 if size is None else size))
            assert np.array_equal(got, want[0] if size is None else want)
            assert got.shape == ((1,) if size is None else (size, 1))
        for size, buckets in ((10_000, 1024), (100_000, 8192)):
            u = gen.random(size)
            special = _special_uniforms(cdf, buckets)
            u[: len(special)] = special
            u = gen.permutation(u)
            assert np.array_equal(sample(dens, _FixedUniforms(u), size), reference(u))


def test_two_point_sampling_frequencies():
    dens = _two_point_density()
    draws = sample(dens, RngStream(5, 0), size=100_000)
    frac0 = float(np.mean(draws[:, 0] == 0.0))
    se = math.sqrt(0.75 * 0.25 / 100_000)
    assert abs(frac0 - 0.75) <= 4 * se


def test_symmetric_density_mean_near_center():
    inst = _atom_abs_instance()
    data = Dataset(np.zeros((16, 1)))  # symmetric about 0
    dens = build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=0.1)
    draws = sample(dens, RngStream(6, 0), size=50_000)
    spread = float(np.std(draws))
    assert abs(float(np.mean(draws))) <= 4 * spread / math.sqrt(50_000)


def test_golden_draws_frozen():
    inst = _atom_abs_instance()
    data = Dataset(np.full((20, 1), 0.3))
    dens = build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=0.1)
    draws = sample(dens, RngStream(7, 0), size=5).ravel()
    np.testing.assert_allclose(
        draws, [0.35, 0.25, 0.2, 0.2, 0.375], rtol=0, atol=1e-12
    )


def test_chi_square_sanity_against_probabilities():
    inst = _atom_abs_instance()
    data = Dataset(np.full((12, 1), -0.4))
    dens = build_density(inst.loss, data, inst.domain, epsilon=1.0, rho=0.2, h=0.05)
    m = 200_000
    draws = sample(dens, RngStream(8, 0), size=m).ravel()
    pts = dens.points.ravel()
    probs = dens.probabilities
    heavy = probs > 1e-4
    for p, prob in zip(pts[heavy], probs[heavy]):
        freq = float(np.mean(np.isclose(draws, p)))
        se = math.sqrt(prob * (1 - prob) / m)
        assert abs(freq - prob) <= 4.5 * se + 1e-12


# ---------------------------------------------------------------------------
# Risk bound
# ---------------------------------------------------------------------------


def test_excess_risk_bound_frozen_value():
    got = excess_risk_bound(
        L=1.0, n=1000, epsilon=1.0, beta=0.1, d=1, R=1.0, rho=1e-3,
        growth=GrowthSpec(1.0, 2.0),
    )
    # K = ln 10 + ln(1 + 1000); bound = (2K/1000)^2 + 1e-3.
    K = math.log(10.0) + math.log(1001.0)
    assert got == pytest.approx((2.0 * K / 1000.0) ** 2 + 1e-3, abs=1e-15)
    assert got == pytest.approx(0.001339395128972778, abs=1e-12)


def test_excess_risk_bound_diverges_as_rho_shrinks():
    # Once rho is below the scale where L * rho matters, the d log(1 + R/rho)
    # term takes over and the bound increases without limit.
    rhos = [1e-4, 1e-6, 1e-8, 1e-12, 1e-20]
    vals = [
        excess_risk_bound(1.0, 1000, 1.0, 0.1, 1, 1.0, r, GrowthSpec(1.0, 2.0))
        for r in rhos
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 10 * vals[0]


def test_excess_risk_bound_main_term_quarters_when_n_doubles():
    g = GrowthSpec(1.0, 2.0)
    rho = 1e-3
    main_n = excess_risk_bound(1.0, 1000, 1.0, 0.1, 1, 1.0, rho, g) - 1.0 * rho
    main_2n = excess_risk_bound(1.0, 2000, 1.0, 0.1, 1, 1.0, rho, g) - 1.0 * rho
    assert main_2n == pytest.approx(main_n / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Adaptive exponent across growth classes
# ---------------------------------------------------------------------------


def test_adaptive_exponent_kappa2_steeper_than_kappa4():
    # Matched (L, lam, R) instances; sweep n and compare fitted slopes of the
    # median empirical excess.  The kappa=2 slope must be strictly steeper.
    ns = (256, 512, 1024)
    seeds = 60
    slopes = {}
    for kappa in (2, 4):
        inst = build_instance(
            "uniform_convex", d=1, kappa=kappa, lam=0.25, L=2.0, R=1.0, bias_delta=0.1
        )
        medians = []
        for n in ns:
            ex = []
            for seed in range(seeds):
                st = RngStream(6100 + kappa * 17 + n, seed)
                data = inst.draw(n, st.child(0))
                dens = build_density(
                    inst.loss, data, inst.domain, epsilon=1.0, growth=inst.growth
                )
                x = sample(dens, st.child(1))
                ex.append(inst.excess_emp(x, data))
            medians.append(float(np.median(ex)))
        lx = np.log(np.array(ns, float))
        ly = np.log(np.array(medians))
        vx = lx - lx.mean()
        slopes[kappa] = float(vx @ ly / (vx @ vx))
    assert slopes[2] < slopes[4]
