"""Loss/distribution generators with certified growth and closed-form optima.

Each generator returns a ProblemInstance bundling the per-sample loss, a
seeded sampler, the constraint ball, the population minimizer and value in
closed form, and (where applicable) a growth certificate.  These are the
measurement targets of every excess-risk experiment."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import erm
from .core import (
    Dataset,
    Domain,
    GrowthSpec,
    InvalidInputError,
    IsotropicQuadratic,
    LossOracle,
    PowerNorm,
    RngStream,
    SeparableAbsolute,
    probe_points,
    verify_growth,
    verify_kl,
)

__all__ = [
    "ProblemInstance",
    "PowerNormLinearLoss",
    "SharpGrowthLoss",
    "KnormRegressionLoss",
    "SeparableAbsLoss",
    "make_uniform_convex",
    "make_sharp_growth_1d",
    "make_knorm_regression",
    "make_pure_convex",
    "build_instance",
    "SHIPPED_INSTANCES",
]


# ---------------------------------------------------------------------------
# Loss oracles
# ---------------------------------------------------------------------------


def _mean_sample(samples: np.ndarray) -> np.ndarray:
    """The mean row of ``samples``.  An integer array's is its int64 column
    sums (as rows of the transpose: at d >= 2 several times faster) over n,
    with the bits of float64 ``mean(axis=0)`` of the widened array: each of
    its partial sums is an integer below 2^53, so exact in any order."""
    if samples.dtype.kind == "i":
        return np.ascontiguousarray(samples.T).sum(axis=1, dtype=np.int64) / len(samples)
    return samples.mean(axis=0)


class PowerNormLinearLoss(LossOracle):
    """F(x; s) = coef * ||x||^power + lin_scale * <x, s>, power >= 2."""

    def __init__(self, coef: float, power: float, lin_scale: float, d: int, lipschitz: float):
        if power < 2:
            raise InvalidInputError("power must be >= 2")
        self.coef = float(coef)
        self.power = float(power)
        self.lin_scale = float(lin_scale)
        self.point_dim = int(d)
        self.lipschitz = float(lipschitz)
        if power == 2:
            self.structure = IsotropicQuadratic(2.0 * self.coef, self.lin_scale)
        else:
            self.structure = PowerNorm(self.coef, self.power, self.lin_scale)

    def batch_value(self, x, samples):
        return self._value_at_mean(x, _mean_sample(samples))

    def _value_at_mean(self, x, sbar):
        x = np.atleast_1d(x)
        return self.coef * float(np.linalg.norm(x)) ** self.power + self.lin_scale * float(
            np.dot(x, sbar)
        )

    def batch_subgrad(self, x, samples):
        x = np.atleast_1d(x)
        r = float(np.linalg.norm(x))
        return (
            self.coef * self.power * r ** (self.power - 2.0) * x
            + self.lin_scale * samples.mean(axis=0)
        )

    def mean_grads(self, points, samples):
        sbar = samples.mean(axis=0)
        if self.power == 2.0:
            # The form below, bit for bit: r ** 0.0 is 1.0 for every r, even inf and NaN.
            return self.coef * self.power * points + self.lin_scale * sbar
        radii = np.linalg.norm(points, axis=1, keepdims=True)
        return self.coef * self.power * radii ** (self.power - 2.0) * points + self.lin_scale * sbar


class SharpGrowthLoss(LossOracle):
    """One-dimensional loss with linear growth on one side of the kink and
    power-kappa growth on the other, mirrored across the two sample values."""

    def __init__(self, kappa: float, kink: float):
        if not (1.0 < kappa <= 2.0):
            raise InvalidInputError("kappa must lie in (1, 2]")
        self.kappa = float(kappa)
        self.kink = float(kink)
        self.point_dim = 1
        self.lipschitz = 2.0
        self.structure = None

    def _value_plus(self, t):
        a = self.kink
        return np.where(t <= a, a - t, np.abs(t - a) ** self.kappa)

    def _value_minus(self, t):
        a = self.kink
        return np.where(t >= -a, t + a, np.abs(t + a) ** self.kappa)

    def _deriv_plus(self, t):
        a, k = self.kink, self.kappa
        out = np.where(t < a, -1.0, k * np.abs(t - a) ** (k - 1.0))
        return np.where(t == a, 0.0, out)

    def _deriv_minus(self, t):
        a, k = self.kink, self.kappa
        out = np.where(t > -a, 1.0, -k * np.abs(t + a) ** (k - 1.0))
        return np.where(t == -a, 0.0, out)

    def batch_value(self, x, samples):
        t = float(np.atleast_1d(x)[0])
        frac_pos = int(np.count_nonzero(samples[:, 0] > 0)) / len(samples)
        return frac_pos * float(self._value_plus(t)) + (1.0 - frac_pos) * float(
            self._value_minus(t)
        )

    def batch_subgrad(self, x, samples):
        t = float(np.atleast_1d(x)[0])
        frac_pos = np.count_nonzero(samples[:, 0] > 0) / len(samples)
        g = frac_pos * float(self._deriv_plus(t)) + (1.0 - frac_pos) * float(
            self._deriv_minus(t)
        )
        return np.array([g])

    def mean_grads(self, points, samples):
        t = points[:, 0]
        frac_pos = np.count_nonzero(samples[:, 0] > 0) / len(samples)
        g = frac_pos * self._deriv_plus(t) + (1.0 - frac_pos) * self._deriv_minus(t)
        return g[:, None]


class KnormRegressionLoss(LossOracle):
    """F(x; (a, b)) = |b - <a, x>|^kappa for integer kappa >= 2."""

    def __init__(self, d: int, kappa: int, lipschitz: float):
        self.point_dim = int(d)
        self.kappa = int(kappa)
        self.lipschitz = float(lipschitz)
        self.structure = None

    def _split(self, samples):
        return samples[:, : self.point_dim], samples[:, self.point_dim]

    def batch_value(self, x, samples):
        A, b = self._split(samples)
        r = b - A @ np.atleast_1d(x)
        return float(np.mean(np.abs(r) ** self.kappa))

    def batch_subgrad(self, x, samples):
        A, b = self._split(samples)
        r = b - A @ np.atleast_1d(x)
        w = -self.kappa * np.abs(r) ** (self.kappa - 1) * np.sign(r)
        return (w @ A) / len(b)

    def mean_grads(self, points, samples):
        A, b = self._split(samples)
        out = np.empty((len(points), self.point_dim))
        chunk = max(1, int(5e7 // max(1, len(b))))
        for lo in range(0, len(points), chunk):
            P = points[lo : lo + chunk]
            R = b[None, :] - P @ A.T
            W = -self.kappa * np.abs(R) ** (self.kappa - 1) * np.sign(R)
            out[lo : lo + chunk] = (W @ A) / len(b)
        return out


class SeparableAbsLoss(LossOracle):
    """F(x; s) = weight * sum_j |x_j - s_j| (coordinate-separable)."""

    def __init__(self, weight: float, d: int, lipschitz: float):
        self.weight = float(weight)
        self.point_dim = int(d)
        self.lipschitz = float(lipschitz)
        self.structure = SeparableAbsolute(self.weight)

    def batch_value(self, x, samples):
        return self.weight * float(np.mean(np.sum(np.abs(x[None, :] - samples), axis=1)))

    def batch_subgrad(self, x, samples):
        return self.weight * np.sign(x[None, :] - samples).mean(axis=0)

    def mean_grads(self, points, samples):
        out = np.empty((len(points), self.point_dim))
        chunk = max(1, int(5e7 // max(1, samples.size)))
        for lo in range(0, len(points), chunk):
            P = points[lo : lo + chunk]
            out[lo : lo + chunk] = self.weight * np.sign(
                P[:, None, :] - samples[None, :, :]
            ).mean(axis=1)
        return out


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


@dataclass
class ProblemInstance:
    """A loss, a seeded sample distribution, a domain, and ground truth."""

    description: str
    loss: LossOracle
    domain: Domain
    growth: GrowthSpec | None
    xstar: np.ndarray
    fstar: float
    _sampler: Callable[[RngStream, int], np.ndarray]
    # Kept scalar: numpy's array ** and norm round differently, and excess_pop
    # goes into the byte-reproducible sweep CSVs.
    _pop_value: Callable[[np.ndarray], float]
    _pop_value_many: Callable[[np.ndarray], np.ndarray]  # (m, d) -> (m,)
    _pop_grad: Callable[[np.ndarray], np.ndarray]  # (m, d) -> (m, d), min-norm
    _emp_min: Callable[[np.ndarray], tuple[np.ndarray, float]]
    # (x, samples) -> excess_emp where its two terms share work.
    _excess_emp: Callable[[np.ndarray, np.ndarray], float] | None = None

    def draw(self, n: int, rng: RngStream) -> Dataset:
        return Dataset(self.draw_samples(n, rng))

    def draw_samples(self, n: int, rng: RngStream) -> np.ndarray:
        """The samples as drawn: the signed-coordinate families' 0 and +-1
        as int8, pure_convex's 0 and +-R/2 as float32 where it holds them;
        ``draw``'s ``Dataset`` widens them to float64 exactly."""
        if n < 1:
            raise InvalidInputError("n must be >= 1")
        return self._sampler(rng, n)

    def pop_value(self, x: np.ndarray) -> float:
        return float(self._pop_value(np.atleast_1d(np.asarray(x, float))))

    def pop_value_many(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self._pop_value_many(np.atleast_2d(points)), float)

    def excess_pop(self, x: np.ndarray) -> float:
        return self.pop_value(x) - self.fstar

    def emp_value(self, x: np.ndarray, data: Dataset) -> float:
        return self.loss.batch_value(np.atleast_1d(np.asarray(x, float)), data.samples)

    def empirical_min(self, data: Dataset) -> tuple[np.ndarray, float]:
        """Minimizer and value of the batch objective over the domain."""
        return self._emp_min(data.samples)

    def excess_emp(self, x: np.ndarray, data: Dataset | np.ndarray) -> float:
        """Batch objective at x less its minimum, on a ``Dataset`` or a
        ``draw_samples`` array: an integer one as it is (``_mean_sample``),
        any other widened to float64 as ``Dataset`` widens it."""
        if isinstance(data, Dataset):
            samples = data.samples
        else:
            samples = data if data.dtype.kind == "i" else np.asarray(data, dtype=float)
        x = np.atleast_1d(np.asarray(x, float))
        if self._excess_emp is not None:
            return self._excess_emp(x, samples)
        _, fmin = self._emp_min(samples)
        return self.loss.batch_value(x, samples) - fmin

    def certify(self, probes: int = 10_000, rng: RngStream | None = None):
        """Run the growth and gradient-domination probe checks (when declared)."""
        if self.growth is None:
            return None, None
        g = verify_growth(
            self._pop_value_many, self.xstar, self.fstar, self.growth, probes, self.domain, rng
        )
        k = verify_kl(
            self._pop_value_many,
            self._pop_grad,
            self.xstar,
            self.fstar,
            self.growth,
            probes,
            self.domain,
            rng,
        )
        return g, k


def _fit_growth_constant(pop_value_many, xstar, fstar, kappa, domain, probes=2000):
    """Empirical growth constant: kappa * min probe ratio of (f - f*) / r^kappa."""
    pts = probe_points(domain, xstar, probes, RngStream(2024, 0))
    r = np.linalg.norm(pts - xstar, axis=1)
    far = r >= 1e-6
    ratios = (pop_value_many(pts[far]) - fstar) / r[far] ** kappa
    best = float(np.min(ratios, initial=math.inf))
    if not (best > 0):
        raise InvalidInputError("probe-fitted growth constant is not positive")
    return kappa * best * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _signs(rng: RngStream, n: int, p_plus: float) -> np.ndarray:
    """n int8 signs from one ``random(n)`` draw, +1 where it is below
    ``p_plus`` (``np.where`` on int8 scalars is far slower)."""
    return (rng.gen.random(n) < p_plus).view(np.int8) * 2 - 1


def _check_dim(d, **scales) -> None:
    """Check a generator's d and, before any arithmetic on them, that its
    ``scales`` (lam, L, R) are finite and positive."""
    if not isinstance(d, (int, np.integer)):
        raise InvalidInputError(f"d must be an integer, got {d}")
    if not d >= 1:
        raise InvalidInputError(f"d must be >= 1, got {d}")
    for key, value in scales.items():
        if not (math.isfinite(value) and value > 0):
            raise InvalidInputError(f"{key} must be finite and positive, got {value}")


def make_uniform_convex(
    d: int,
    kappa: float,
    lam: float,
    L: float,
    R: float,
    bias_delta: float = 0.0,
    direction: np.ndarray | None = None,
) -> ProblemInstance:
    """Power-norm loss with a biased signed-coordinate sample distribution.

    F(x; s) = (lam 2^(kappa-2) / kappa) ||x||^kappa + (L/2) <x, s>, samples
    supported on signed coordinate vectors; the bias tilts the population
    minimizer away from the origin along ``direction``.
    """
    _check_dim(d, lam=lam, L=L, R=R)
    if kappa < 2:
        raise InvalidInputError("kappa must be >= 2 for this family")
    if not (0.0 <= bias_delta < 1.0):
        raise InvalidInputError("bias_delta must lie in [0, 1)")
    if lam * 2.0 ** (kappa - 1.0) * R ** (kappa - 1.0) > L * (1 + 1e-12):
        raise InvalidInputError(
            "parameter window violated: need 2^(kappa-1) <= (L/lam) / R^(kappa-1)"
        )
    v = np.ones(d) if direction is None else np.asarray(direction, float)
    if v.shape != (d,) or not np.all(np.abs(v) == 1.0):
        raise InvalidInputError("direction must be a +-1 vector of length d")
    sigma_c = lam * 2.0 ** (kappa - 2.0)
    coef = sigma_c / kappa
    u = (L * bias_delta / (2.0 * d)) * v
    u_norm = float(np.linalg.norm(u))
    if u_norm > 0:
        mag = (u_norm / sigma_c) ** (1.0 / (kappa - 1.0))
        xstar = -mag * u / u_norm
        fstar = coef * mag**kappa - mag * u_norm
    else:
        mag = 0.0
        xstar = np.zeros(d)
        fstar = 0.0
    if mag > 0.95 * R:
        raise InvalidInputError(
            f"population minimizer at radius {mag:.3g} is not interior to the ball of radius {R}"
        )
    p_plus = (1.0 + bias_delta) / 2.0
    v8 = v.astype(np.int8)

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        if d == 1:
            # integers(0, 1) draws nothing from the stream, and v[idx] is v[0].
            return (_signs(rng, n, p_plus) * v8[0])[:, None]
        idx = rng.gen.integers(0, d, size=n)
        rows = np.zeros((n, d), dtype=np.int8)
        rows[np.arange(n), idx] = _signs(rng, n, p_plus) * v8[idx]
        return rows

    def pop_value(x):
        return coef * float(np.linalg.norm(x)) ** kappa + float(np.dot(u, x))

    def pop_value_many(pts):
        return coef * np.linalg.norm(pts, axis=1) ** kappa + pts @ u

    def pop_grad(pts):
        r = np.linalg.norm(pts, axis=1, keepdims=True)
        return sigma_c * r ** (kappa - 2.0) * pts + u

    def min_at_mean(sbar):
        ubar = (L / 2.0) * sbar
        un = float(np.linalg.norm(ubar))
        if un == 0.0:
            return np.zeros(d), 0.0
        m = min((un / sigma_c) ** (1.0 / (kappa - 1.0)), R)
        x = -m * ubar / un
        return x, coef * m**kappa - m * un

    def excess_emp(x, samples):
        # Both terms read only the mean sample: take it once.
        sbar = _mean_sample(samples)
        return loss._value_at_mean(x, sbar) - min_at_mean(sbar)[1]

    loss = PowerNormLinearLoss(coef=coef, power=kappa, lin_scale=L / 2.0, d=d, lipschitz=L)
    return ProblemInstance(
        description=(
            f"uniform_convex(d={d},kappa={kappa:g},lam={lam:g},L={L:g},R={R:g},"
            f"bias={bias_delta:g})"
        ),
        loss=loss,
        domain=Domain(np.zeros(d), R),
        growth=GrowthSpec(lam, kappa),
        xstar=xstar,
        fstar=fstar,
        _sampler=sampler,
        _pop_value=pop_value,
        _pop_value_many=pop_value_many,
        _pop_grad=pop_grad,
        _emp_min=lambda samples: min_at_mean(_mean_sample(samples)),
        _excess_emp=excess_emp,
    )


def make_sharp_growth_1d(kappa: float, bias_delta: float, v: int = 1) -> ProblemInstance:
    """One-dimensional instance with exact growth exponent kappa in (1, 2].

    The kink location is half the (kappa-1)-th root of the bias, which is the
    largest value for which unit-constant growth holds; the population
    minimizer sits at the kink with value kink * (1 - bias).
    """
    if not (1.0 < kappa <= 2.0):
        raise InvalidInputError("kappa must lie in (1, 2]")
    if not (0.0 < bias_delta <= 0.5):
        raise InvalidInputError("bias_delta must lie in (0, 1/2]")
    if v not in (1, -1):
        raise InvalidInputError("v must be +1 or -1")
    a = 0.5 * bias_delta ** (1.0 / (kappa - 1.0))
    loss = SharpGrowthLoss(kappa, a)
    p_plus = (1.0 + bias_delta) / 2.0 if v == 1 else (1.0 - bias_delta) / 2.0
    xstar = np.array([a * v])
    fstar = a * (1.0 - bias_delta)

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        return _signs(rng, n, p_plus)[:, None]

    def pop_value_many(pts):
        t = pts[:, 0]
        return p_plus * loss._value_plus(t) + (1.0 - p_plus) * loss._value_minus(t)

    def pop_value(x):
        return float(pop_value_many(np.atleast_2d(x))[0])

    def pop_grad(pts):
        # Min-norm element of the population subdifferential, from the
        # one-sided derivatives just left and right of each t.
        t = pts[:, 0]
        h = 1e-12 + 1e-9 * np.abs(t)
        lo, hi = (
            p_plus * loss._deriv_plus(s) + (1.0 - p_plus) * loss._deriv_minus(s)
            for s in (t - h, t + h)
        )
        g = np.where(np.abs(lo) < np.abs(hi), lo, hi)
        return np.where((lo <= 0.0) & (0.0 <= hi), 0.0, g)[:, None]

    def emp_min(samples):
        frac_pos = np.count_nonzero(samples[:, 0] > 0) / len(samples)
        x = a if frac_pos >= 0.5 else -a
        return np.array([x]), float(
            frac_pos * loss._value_plus(x) + (1.0 - frac_pos) * loss._value_minus(x)
        )

    return ProblemInstance(
        description=f"sharp_growth(kappa={kappa:g},bias={bias_delta:g},v={v:+d})",
        loss=loss,
        domain=Domain(np.zeros(1), 1.0),
        growth=GrowthSpec(1.0, kappa),
        xstar=xstar,
        fstar=fstar,
        _sampler=sampler,
        _pop_value=pop_value,
        _pop_value_many=pop_value_many,
        _pop_grad=pop_grad,
        _emp_min=emp_min,
    )


def make_knorm_regression(
    d: int,
    kappa: int,
    R: float,
    design_scale: float = 1.0,
    x_true: np.ndarray | None = None,
) -> ProblemInstance:
    """Realizable power-kappa regression with spherical design.

    Samples are (a, <a, x_true>) with a uniform on the sphere of radius
    ``design_scale``; the population objective is a closed-form radial power
    of the distance to ``x_true``, so the minimizer is exact and the growth
    constant is certified empirically from probes.
    """
    _check_dim(d, R=R)
    if int(kappa) != kappa or kappa < 2:
        raise InvalidInputError("kappa must be an integer >= 2")
    kappa = int(kappa)
    if x_true is None:
        x_true = (0.3 * R / math.sqrt(d)) * np.ones(d)
    x_true = np.asarray(x_true, float)
    if float(np.linalg.norm(x_true)) > 0.95 * R:
        raise InvalidInputError("x_true must be interior to the domain ball")
    reach = R + float(np.linalg.norm(x_true))
    L = kappa * design_scale**kappa * reach ** (kappa - 1)
    # E|<unit sphere, e1>|^kappa via the Dirichlet moment formula.
    m_const = math.exp(math.lgamma((kappa + 1) / 2.0) + math.lgamma(d / 2.0)
                       - math.lgamma((d + kappa) / 2.0)) / math.sqrt(math.pi)
    C = m_const * design_scale**kappa

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        g = rng.gen.standard_normal((n, d))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        a = design_scale * g
        b = a @ x_true
        return np.column_stack([a, b])

    def pop_value(x):
        return C * float(np.linalg.norm(x - x_true)) ** kappa

    def pop_value_many(pts):
        return C * np.linalg.norm(pts - x_true[None, :], axis=1) ** kappa

    def pop_grad(pts):
        delta = pts - x_true
        r = np.linalg.norm(delta, axis=1, keepdims=True)
        return C * kappa * r ** (kappa - 2.0) * delta

    def emp_min(samples):
        # b is exactly realizable, so the batch objective attains 0 at x_true.
        return x_true.copy(), 0.0

    domain = Domain(np.zeros(d), R)
    loss = KnormRegressionLoss(d=d, kappa=kappa, lipschitz=L)
    lam_fit = _fit_growth_constant(pop_value_many, x_true, 0.0, kappa, domain)
    return ProblemInstance(
        description=f"knorm_regression(d={d},kappa={kappa},R={R:g},scale={design_scale:g})",
        loss=loss,
        domain=domain,
        growth=GrowthSpec(lam_fit, float(kappa)),
        xstar=x_true,
        fstar=0.0,
        _sampler=sampler,
        _pop_value=pop_value,
        _pop_value_many=pop_value_many,
        _pop_grad=pop_grad,
        _emp_min=emp_min,
    )


def make_pure_convex(d: int, L: float, R: float) -> ProblemInstance:
    """Lipschitz convex control instance with no declared growth.

    Half the per-coordinate sample mass sits at zero and a quarter at +-R/2,
    so the population objective keeps a kink (nonzero slope) at its interior
    minimizer.  The samples are drawn as float32 when it holds R/2 exactly,
    else as float64.
    """
    _check_dim(d, L=L, R=R)
    c = R / 2.0
    w = L / math.sqrt(d)
    loss = SeparableAbsLoss(weight=w, d=d, lipschitz=L)
    with np.errstate(over="ignore"):
        lo, zero, hi = np.array([-c, 0.0, c], dtype=np.float32)
    if float(hi) != c:
        lo, zero, hi = np.array([-c, 0.0, c])

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        u = rng.gen.random((n, d))
        return np.where(u < 0.25, lo, np.where(u < 0.75, zero, hi))

    def _coord_pop(t):
        return np.where(np.abs(t) <= c, 0.5 * (c + np.abs(t)), np.abs(t))

    def pop_value_many(pts):
        return w * _coord_pop(pts).sum(axis=1)

    def pop_value(x):
        return float(pop_value_many(np.atleast_2d(x))[0])

    def pop_grad(pts):
        return w * np.where(np.abs(pts) <= c, 0.5 * np.sign(pts), np.sign(pts))

    def emp_min(samples):
        x = np.median(samples, axis=0)
        if float(np.linalg.norm(x)) > R:
            # Dualize the ball constraint; with no regularizer the multiplier
            # alone supplies the quadratic term of the coordinatewise solves.
            origin = np.zeros(d)
            x, _, _ = erm._dual_ball_separable(
                np.sort(samples, axis=0).T, w, 0.0, origin, origin, R, tol=1e-12
            )
        return x, w * float(np.mean(np.sum(np.abs(x[None, :] - samples), axis=1)))

    return ProblemInstance(
        description=f"pure_convex(d={d},L={L:g},R={R:g})",
        loss=loss,
        domain=Domain(np.zeros(d), R),
        growth=None,
        xstar=np.zeros(d),
        fstar=w * d * c / 2.0,
        _sampler=sampler,
        _pop_value=pop_value,
        _pop_value_many=pop_value_many,
        _pop_grad=pop_grad,
        _emp_min=emp_min,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    "uniform_convex": make_uniform_convex,
    "sharp_growth": make_sharp_growth_1d,
    "knorm_regression": make_knorm_regression,
    "pure_convex": make_pure_convex,
}
# Computed once: a signature costs as much as building an instance.
_SIGNATURES = {name: inspect.signature(builder) for name, builder in _BUILDERS.items()}


def build_instance(name: str, **params) -> ProblemInstance:
    if name not in _BUILDERS:
        raise InvalidInputError(
            f"unknown instance {name!r}; known: {sorted(_BUILDERS)}"
        )
    try:
        _SIGNATURES[name].bind(**params)
    except TypeError as exc:
        raise InvalidInputError(f"instance {name!r}: {exc}") from None
    # No generator takes text: a string is an unparsed INI or CLI value.
    for key, value in params.items():
        if isinstance(value, str):
            raise InvalidInputError(f"instance {name!r}: {key!r} is not a number: {value!r}")
    return _BUILDERS[name](**params)


# Canonical parameterizations shipped with the package; the certification
# suite runs the growth and gradient-domination probes on every entry.
SHIPPED_INSTANCES: list[tuple[str, dict]] = [
    ("uniform_convex", dict(d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1)),
    ("uniform_convex", dict(d=1, kappa=2, lam=0.25, L=2.0, R=1.0, bias_delta=0.1)),
    ("uniform_convex", dict(d=1, kappa=4, lam=0.25, L=2.0, R=1.0, bias_delta=0.1)),
    ("uniform_convex", dict(d=2, kappa=3, lam=0.5, L=4.0, R=1.0, bias_delta=0.2)),
    ("uniform_convex", dict(d=4, kappa=2, lam=1.0, L=2.0, R=1.0, bias_delta=0.0)),
    ("sharp_growth", dict(kappa=1.5, bias_delta=0.25)),
    ("sharp_growth", dict(kappa=2.0, bias_delta=0.5, v=-1)),
    ("knorm_regression", dict(d=2, kappa=4, R=1.0)),
    ("knorm_regression", dict(d=1, kappa=2, R=1.0)),
    ("pure_convex", dict(d=1, L=1.0, R=1.0)),
    ("pure_convex", dict(d=4, L=1.0, R=1.0)),
]
