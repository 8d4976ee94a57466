import math

import numpy as np
import pytest

from dpgrowth.core import Dataset, InvalidInputError, PrivacyParams, RngStream
from dpgrowth.mechanisms import (
    MAX_APPROX_DELTA,
    check_budget,
    empirical_dp_test,
    gaussian_sigma,
    laplace_sigma,
    noise_draw,
    noise_norm_factor,
    noise_rows,
    noise_sigma,
)


# ---------------------------------------------------------------------------
# Calibration formulas
# ---------------------------------------------------------------------------


def test_laplace_sigma_formula():
    assert laplace_sigma(1.0, 1.0) == 1.0
    assert laplace_sigma(0.5, 0.25) == 2.0
    with pytest.raises(InvalidInputError):
        laplace_sigma(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        laplace_sigma(1.0, 0.0)


def _exact_delta(epsilon, sigma):
    # Balle & Wang (2018, Theorem 8) at unit sensitivity, from scipy's normal
    # cdf: Phi(1/(2 sigma) - eps sigma) - e^eps Phi(-1/(2 sigma) - eps sigma).
    from scipy.stats import norm

    a, y = 0.5 / sigma - epsilon * sigma, 0.5 / sigma + epsilon * sigma
    return float(norm.cdf(a)) - math.exp(epsilon + float(norm.logcdf(-y)))


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0, 8.0])
def test_gaussian_sigma_is_the_least_scale_on_the_exact_curve(epsilon):
    # The exact curve meets delta at the returned sigma and misses it a
    # relative 1e-9 below.
    for delta in (1e-3, 1e-6, 1e-10):
        sigma = gaussian_sigma(1.0, epsilon, delta)
        assert _exact_delta(epsilon, sigma) <= delta, delta
        assert _exact_delta(epsilon, sigma * (1.0 - 1e-9)) > delta, delta


@pytest.mark.parametrize("epsilon", [700.0, 710.0, 1e6])
def test_gaussian_sigma_stays_finite_and_safe_where_exp_overflows(epsilon):
    # Near and past eps = 709.78, where e^eps overflows a float, the second
    # term's erfc leaves the normal range and is dropped; the scale stays
    # finite, positive and safe (the dropped term can only raise delta(eps)).
    sigma = gaussian_sigma(1.0, epsilon, 1e-6)
    assert 0.0 < sigma < math.inf
    assert _exact_delta(epsilon, sigma) <= 1e-6


def test_gaussian_sigma_formula():
    # The analytic column of ROADMAP's Baseline table, in units of Delta.
    for epsilon, delta, want in ((0.5, 1e-5, 7.032), (1.0, 1e-5, 3.731), (1.0, 1e-6, 4.225),
                                 (2.0, 1e-6, 2.230)):
        assert round(gaussian_sigma(1.0, epsilon, delta), 3) == want
    # Linear in Delta, bit for bit, for a float or an array of them.
    s = gaussian_sigma(1.0, 1.0, 1e-6)
    assert gaussian_sigma(0.2, 1.0, 1e-6) == 0.2 * s
    sens = np.array([0.2, 3.0, 1e-7])
    assert np.array_equal(gaussian_sigma(sens, 1.0, 1e-6), sens * s)
    with pytest.raises(InvalidInputError):
        gaussian_sigma(1.0, 1.0, 1.5)
    with pytest.raises(InvalidInputError):
        gaussian_sigma(0.0, 1.0, 1e-6)
    with pytest.raises(InvalidInputError):
        gaussian_sigma(1.0, 1.0, 0.0)


def test_calibration_monotonicity():
    eps = np.linspace(0.1, 4.0, 15)
    lap = [laplace_sigma(1.0, e) for e in eps]
    gau = [gaussian_sigma(1.0, e, 1e-6) for e in eps]
    assert all(a > b for a, b in zip(lap, lap[1:]))
    assert all(a > b for a, b in zip(gau, gau[1:]))
    sens = np.linspace(0.1, 4.0, 15)
    assert all(
        laplace_sigma(s1, 1.0) < laplace_sigma(s2, 1.0)
        for s1, s2 in zip(sens, sens[1:])
    )
    assert all(
        gaussian_sigma(s1, 1.0, 1e-6) < gaussian_sigma(s2, 1.0, 1e-6)
        for s1, s2 in zip(sens, sens[1:])
    )


def test_noise_sigma_per_budget():
    # Pure: Laplace on the l1 bound Delta sqrt(d); approximate: gaussian_sigma.
    pure, approx = PrivacyParams(0.5), PrivacyParams(0.5, 1e-6)
    assert noise_sigma(0.2, 4, pure) == laplace_sigma(0.2 * 2.0, 0.5)
    assert noise_sigma(0.2, 4, approx) == gaussian_sigma(0.2, 0.5, 1e-6)
    # The Gaussian scales do not grow with the dimension; Laplace does.
    assert noise_sigma(0.2, 9, approx) == noise_sigma(0.2, 1, approx)
    assert noise_sigma(0.2, 9, pure) == pytest.approx(3.0 * noise_sigma(0.2, 1, pure))
    with pytest.raises(InvalidInputError):
        noise_sigma(0.0, 1, pure)
    with pytest.raises(InvalidInputError):
        noise_sigma(0.0, 1, approx)


def test_noise_norm_factor_and_delta_cap():
    assert noise_norm_factor(PrivacyParams(1.0), 10) == 10
    assert noise_norm_factor(PrivacyParams(1.0, 1e-6), 10) == pytest.approx(
        math.sqrt(10 * math.log(1e6)), rel=1e-15
    )
    check_budget(PrivacyParams(1.0, MAX_APPROX_DELTA))
    for bad in (PrivacyParams(1.0, 0.9), PrivacyParams(1.0, 0.51)):
        with pytest.raises(InvalidInputError):
            check_budget(bad)
        with pytest.raises(InvalidInputError):
            noise_norm_factor(bad, 1)


# ---------------------------------------------------------------------------
# Noise sampling
# ---------------------------------------------------------------------------


def test_laplace_golden_draws_seed42():
    # Frozen at first implementation: PCG64 via derive_stream_key(42, 0).
    draws = noise_draw(PrivacyParams(1.0), RngStream(42, 0))(0.0, 1.0, size=3)
    np.testing.assert_allclose(
        draws,
        [0.321004033847852, -0.3968265064023067, 1.7612346569594328],
        rtol=0,
        atol=1e-12,
    )


def test_noise_rows_match_per_stream_draws():
    # A block of child streams takes the array Laplace path for a pure budget
    # and the per-stream path otherwise; a list always takes the latter.
    # Requests of both kinds, and of two sizes, mixed in one call.
    parents = [RngStream(9, 2), RngStream(9, 3), RngStream(4, 0)]
    requests, want = [], []
    for privacy in (PrivacyParams(1.0), PrivacyParams(1.0, 1e-6)):
        for parent, size in zip(parents, (4, 7, 4)):
            rows = np.array([noise_draw(privacy, parent.child(t))(0.0, 1.0, size=size)
                             for t in range(6)])
            for streams in (parent.children(6), [parent.child(t) for t in range(6)]):
                requests.append((privacy, streams, size))
                want.append(rows)
    got = noise_rows(requests)
    assert len(got) == len(want)
    for rows, expected in zip(got, want):
        assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


def test_noise_rows_of_size_zero_seed_no_generator():
    # Both paths, both budgets: a (streams, 0) array each, and no stream
    # seeds a generator.
    for privacy in (PrivacyParams(1.0), PrivacyParams(1.0, 1e-6)):
        block, streams = RngStream(9, 2).children(4), [RngStream(4, t) for t in range(3)]
        got = noise_rows([(privacy, block, 0), (privacy, streams, 0), (privacy, [], 0)])
        assert [rows.shape for rows in got] == [(4, 0), (3, 0), (0, 0)]
        assert block.parent._gen is None and all(s._gen is None for s in streams)


def test_laplace_moments_million_draws():
    sigma = 0.7
    draws = noise_draw(PrivacyParams(1.0), RngStream(100, 0))(0.0, sigma, 1_000_000)
    var = draws.var()
    assert abs(draws.mean()) <= 5.0 * math.sqrt(2.0 * sigma**2 / len(draws))
    assert 0.98 <= var / (2.0 * sigma**2) <= 1.02


def test_gaussian_moments_and_tail():
    sigma = 1.0
    draws = noise_draw(PrivacyParams(1.0, 1e-6), RngStream(101, 0))(0.0, sigma, 1_000_000)
    assert abs(draws.mean()) <= 5.0 * sigma / math.sqrt(len(draws))
    assert 0.98 <= draws.var() / sigma**2 <= 1.02
    tail = np.mean(np.abs(draws) > 1.96)
    assert 0.045 <= tail <= 0.055


# ---------------------------------------------------------------------------
# Empirical distinguishability test
# ---------------------------------------------------------------------------


def _mean_query_mechanism(sigma):
    def mech(dataset, rng, trials):
        return dataset.samples.mean() + rng.gen.laplace(0.0, sigma, trials)

    return mech


def _neighbors(n=20):
    base = np.linspace(0.0, 1.0, n)
    other = base.copy()
    other[0] = 1.0  # move one sample across the full range
    return Dataset(base), Dataset(other)


def test_dp_test_honest_laplace_mean_passes():
    n = 20
    data, neighbor = _neighbors(n)
    sigma = laplace_sigma(1.0 / n, 1.0)
    rep = empirical_dp_test(
        _mean_query_mechanism(sigma), data, neighbor, epsilon=1.0,
        trials=100_000, bins=30, rng=RngStream(1, 0),
    )
    assert not rep.inconclusive
    assert rep.passed, rep


def test_dp_test_sabotaged_laplace_mean_fails():
    n = 20
    data, neighbor = _neighbors(n)
    sigma = laplace_sigma(1.0 / n, 1.0) / 2.0  # analytic far-bin ratio e^{2 eps}
    rep = empirical_dp_test(
        _mean_query_mechanism(sigma), data, neighbor, epsilon=1.0,
        trials=100_000, bins=30, rng=RngStream(2, 0),
    )
    assert not rep.inconclusive
    assert not rep.passed
    assert rep.max_log_ratio > 1.0 + rep.slack


def test_dp_test_identical_distributions_small_ratio():
    n = 20
    data, neighbor = _neighbors(n)
    sigma = laplace_sigma(1.0 / n, 1.0)

    def mech_ignoring_data(dataset, rng, trials):
        return rng.gen.laplace(0.0, sigma, trials)

    rep = empirical_dp_test(
        mech_ignoring_data, data, neighbor, epsilon=1.0,
        trials=100_000, bins=30, rng=RngStream(3, 0),
    )
    assert rep.passed
    assert rep.max_log_ratio <= rep.slack


def test_dp_test_inconclusive_when_starved():
    data, neighbor = _neighbors(8)
    rep = empirical_dp_test(
        _mean_query_mechanism(1.0), data, neighbor, epsilon=1.0,
        trials=20, bins=50, rng=RngStream(4, 0),
    )
    assert rep.inconclusive
    assert rep.passed  # flagged, not failed


def test_dp_test_requires_neighboring_datasets():
    data = Dataset(np.zeros(5))
    with pytest.raises(InvalidInputError):
        empirical_dp_test(
            _mean_query_mechanism(1.0), data, data, 1.0, 100, 10, RngStream(5, 0)
        )
