"""Inner solver for the anchored, quadratically regularized ERM subproblem

    F_B(x) = (1/m) sum_{s in B} F(x; s) + reg_weight * ||x - anchor||^2

over a ball-intersection domain.  The objective is (2 * reg_weight)-strongly
convex, so accuracy certificates translate stationarity residuals into
objective gaps and the minimizer is unique.  Exact paths exist for isotropic
quadratic, separable absolute, and one-dimensional losses; everything else
falls back to projected subgradient descent with averaging."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    Dataset,
    Domain,
    InvalidInputError,
    IsotropicQuadratic,
    LossOracle,
    PowerNorm,
    SeparableAbsolute,
    project,
)

__all__ = ["RegularizedProblem", "solve", "certified_gap"]

# How far outside its domain a problem's anchor may lie.
_ANCHOR_TOL = 1e-7


@dataclass(frozen=True)
class RegularizedProblem:
    loss: LossOracle
    batch: Dataset
    anchor: np.ndarray
    reg_weight: float
    domain: Domain

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.anchor, dtype=float))
        object.__setattr__(self, "anchor", a)
        if not (self.reg_weight > 0):
            raise InvalidInputError("reg_weight must be positive")
        if not self.domain.contains(a, tol=_ANCHOR_TOL):
            raise InvalidInputError("domain must contain the anchor")

    @property
    def strong_convexity(self) -> float:
        return 2.0 * self.reg_weight

    def objective(self, x: np.ndarray) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        reg = self.reg_weight * float(np.dot(x - self.anchor, x - self.anchor))
        return self.loss.batch_value(x, self.batch.samples) + reg

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.loss.batch_subgrad(x, self.batch.samples) + 2.0 * self.reg_weight * (
            x - self.anchor
        )


def _lipschitz_over_domain(problem: RegularizedProblem) -> float:
    # Subgradient bound for the full objective on the feasible set: the loss
    # contributes L, the regularizer 2*reg_weight*dist(x, anchor).
    reach = min(
        float(np.linalg.norm(c - problem.anchor)) + r for c, r in problem.domain.balls()
    )
    return problem.loss.lipschitz + 2.0 * problem.reg_weight * reach


def _gap_bound(residual, lam):
    """Gap bound residual^2 / (4 lam) of a (2 lam)-strongly convex objective
    from its projected-gradient residual (a float, or an array of them):
    ``certified_gap``'s bound, which the phase kernel computes here too."""
    return residual * residual / (4.0 * lam)


def certified_gap(problem: RegularizedProblem, x: np.ndarray) -> float:
    """Upper bound on F_B(x) - min F_B from the stationarity residual.

    Uses the projected-gradient-mapping residual r with step 1/(2*reg_weight);
    strong convexity gives gap <= ||r||^2 / (4 * reg_weight).  For interior
    points the residual is the plain (mean) subgradient.  One-dimensional
    problems use exact one-sided derivatives, and coordinate-separable
    absolute losses use per-coordinate subdifferential intervals, so kinked
    optima certify correctly.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = problem.reg_weight
    if x.shape[0] == 1:
        return _gap_1d(problem, x)
    st = problem.loss.structure
    if isinstance(st, SeparableAbsolute) and _strictly_interior(problem.domain, x):
        lo, hi = _separable_subdiff_interval(problem, st, x)
        residual_vec = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
        residual = float(np.linalg.norm(residual_vec))
        return residual * residual / (4.0 * lam)
    gamma = 1.0 / (2.0 * lam)
    g = problem.subgradient(x)
    step = project(problem.domain, x - gamma * g)
    return _gap_bound(float(np.linalg.norm(x - step)) / gamma, lam)


def _strictly_interior(domain: Domain, x: np.ndarray, margin: float = 1e-12) -> bool:
    return all(
        float(np.linalg.norm(x - c)) < r - margin for c, r in domain.balls()
    )


def _separable_subdiff_interval(problem, st, x, extra_quad=()):
    """Coordinatewise [lower, upper] bounds of the full objective's
    subdifferential for weight * sum |x_j - p_j| losses (plus quadratics)."""
    pts = st.points(problem.batch.samples)
    m = pts.shape[0]
    w = st.weight
    below = (pts < x[None, :]).sum(axis=0)
    above = (pts > x[None, :]).sum(axis=0)
    ties = m - below - above
    g_lo = w * (below - above - ties) / m
    g_hi = w * (below - above + ties) / m
    quad = 2.0 * problem.reg_weight * (x - problem.anchor)
    for coef, center in extra_quad:
        quad = quad + 2.0 * coef * (x - center)
    return g_lo + quad, g_hi + quad


def _gap_1d(problem: RegularizedProblem, x: np.ndarray) -> float:
    return _interval_gap(
        lambda u: float(problem.subgradient(np.array([u]))[0]),
        problem.reg_weight, *problem.domain.interval(), float(x[0]),
    )


def _interval_gap(slope, lam: float, lo: float, hi: float, t: float) -> float:
    """Gap bound at t of a 1-D objective on [lo, hi] with strong convexity
    2 lam, from its one-sided slopes: ``slope(u)`` is the objective's
    derivative (min-norm subgradient) at u, in Python floats."""
    scale = max(abs(t), abs(lo), abs(hi), 1.0)
    h = 1e-9 * scale
    g_left = slope(t - h)
    g_right = slope(t + h)
    if t - h <= lo:
        residual = max(0.0, -g_right)
    elif t + h >= hi:
        residual = max(0.0, g_left)
    elif g_left <= 0.0 <= g_right:
        residual = 0.0
    else:
        residual = min(abs(g_left), abs(g_right))
    return residual * residual / (4.0 * lam)


def _solve_isotropic_quadratic(problem: RegularizedProblem, st: IsotropicQuadratic):
    lam = problem.reg_weight
    qbar = st.linear(problem.batch.samples).mean(axis=0)
    x = (2.0 * lam * problem.anchor - qbar) / (st.curvature + 2.0 * lam)
    if problem.domain.contains(x, tol=0.0):
        return x
    # The objective is 0.5 (curv + 2 lam) ||y - x||^2 + const, so the
    # constrained minimizer is the Euclidean projection of x.
    return project(problem.domain, x)


def _coordwise_abs_quadratic(pts_sorted, weight, quad, anchor):
    """Exact minimizers of weight * mean|t - p_j| + quad * (t - anchor)^2,
    one per column of the pre-sorted breakpoint matrix."""
    m, d = pts_sorted.shape
    jj = np.arange(m + 1)
    out = np.empty(d)
    for c in range(d):
        p = pts_sorted[:, c]
        # Candidate segment roots of the piecewise-linear derivative plus the
        # breakpoints themselves; the convex 1-D minimum is among these.
        roots = anchor[c] - weight * (2.0 * jj - m) / (2.0 * quad * m)
        cands = np.concatenate((roots, p))
        vals = weight * np.mean(np.abs(cands[:, None] - p[None, :]), axis=1) + quad * (
            cands - anchor[c]
        ) ** 2
        out[c] = cands[int(np.argmin(vals))]
    return out


def _solve_separable_abs(problem: RegularizedProblem, st: SeparableAbsolute, tol: float):
    """Exact coordinatewise solve; a binding ball is handled by dualizing
    that single constraint.  Returns (x, certified gap bound) or None."""
    lam = problem.reg_weight
    pts = np.sort(st.points(problem.batch.samples), axis=0)
    w = st.weight
    a = problem.anchor
    x = _coordwise_abs_quadratic(pts, w, lam, a)
    if problem.domain.contains(x, tol=1e-12):
        lo, hi = _separable_subdiff_interval(problem, st, x)
        resid = float(np.linalg.norm(np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))))
        return x, resid * resid / (4.0 * lam)
    balls = list(problem.domain.balls())
    for j, (center, radius) in enumerate(balls):
        if float(np.linalg.norm(x - center)) <= radius + 1e-12:
            continue
        solved = _dual_ball_separable(pts, w, lam, a, center, radius, tol)
        if solved is None:
            continue
        y, nu, slack = solved
        # Compare balls by position: nested balls may share one center array.
        others_ok = all(
            float(np.linalg.norm(y - c2)) <= r2 + 1e-9
            for i, (c2, r2) in enumerate(balls)
            if i != j
        )
        if not others_ok:
            continue
        lo, hi = _separable_subdiff_interval(
            problem, st, y, extra_quad=((nu, center),)
        )
        resid = float(np.linalg.norm(np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))))
        # Primal gap of the constrained problem from the augmented certificate
        # plus the complementary-slackness defect of the bisected multiplier.
        gap = resid * resid / (4.0 * (lam + nu)) + 2.0 * nu * radius * slack
        return y, gap
    return None


def _dual_ball_separable(pts, w, lam, anchor, center, radius, tol):
    """Bisection on the multiplier of one active ball constraint.

    With multiplier nu the augmented problem stays coordinatewise absolute
    plus quadratic (weight lam + nu, anchor the weighted center), so each
    evaluation is exact; the distance to the ball center is nonincreasing in
    nu, and at the root the augmented minimizer solves the constrained
    problem up to the complementary-slackness defect returned to the caller.
    """

    def solve_at(nu):
        q = lam + nu
        b = (lam * anchor + nu * center) / q
        return _coordwise_abs_quadratic(pts, w, q, b)

    def slack_at(nu):
        return float(np.linalg.norm(solve_at(nu) - center)) - radius

    lo, hi = 0.0, max(lam, 1.0)
    s_hi = slack_at(hi)
    for _ in range(80):
        if s_hi <= 0:
            break
        hi *= 4.0
        s_hi = slack_at(hi)
    else:
        return None
    for _ in range(200):
        if 2.0 * hi * radius * abs(s_hi) < 0.25 * tol:
            break
        mid = 0.5 * (lo + hi)
        s_mid = slack_at(mid)
        if s_mid > 0:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    return solve_at(hi), hi, abs(s_hi)


def _power_norm_root(coef, power, ubar, lam, a, lo, hi) -> float:
    """Minimizer over [lo, hi] of coef |t|^power + ubar t + lam (t - a)^2,
    by bisection on its strictly increasing derivative.  Python floats
    throughout: numpy's vectorized power differs from libm's in the last bit."""
    cp, pm1, two_lam = coef * power, power - 1.0, 2.0 * lam
    copysign = math.copysign

    def deriv(t: float) -> float:
        return cp * abs(t) ** pm1 * copysign(1.0, t) + ubar + two_lam * (t - a)

    if deriv(lo) >= 0.0:
        return lo
    if deriv(hi) <= 0.0:
        return hi
    left, right = lo, hi
    # The stopping width is 1e-15 max(1, |left|, |right|): 1e-15 throughout
    # when [lo, hi] lies in [-1, 1].  The loop inlines deriv and, there,
    # skips max: in CPython each call costs about as much as the arithmetic.
    unit = max(abs(lo), abs(hi)) <= 1.0
    for _ in range(200):
        mid = 0.5 * (left + right)
        if cp * abs(mid) ** pm1 * copysign(1.0, mid) + ubar + two_lam * (mid - a) < 0.0:
            left = mid
        else:
            right = mid
        if right - left <= (1e-15 if unit else 1e-15 * max(1.0, abs(left), abs(right))):
            break
    return 0.5 * (left + right)


def _solve_scalar(problem: RegularizedProblem, lo: float, hi: float):
    if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
        return np.array([0.5 * (lo + hi)])
    # Imported here: scipy.optimize is a third of the package's import time,
    # and no other path needs it.
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda t: problem.objective(np.array([t])),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12 * max(1.0, abs(lo), abs(hi))},
    )
    return np.array([float(res.x)])


def _solve_subgradient(problem: RegularizedProblem, tol: float, max_iters: int):
    """Projected subgradient descent with steps 1/(mu t).  Returns
    (certified point or None, gap bound, best iterate)."""
    mu = problem.strong_convexity
    g_bound = _lipschitz_over_domain(problem)
    x = project(problem.domain, problem.anchor)
    best_x = x
    best_f = problem.objective(x)
    check_every = 32
    for t in range(1, max_iters + 1):
        g = problem.subgradient(x)
        x = project(problem.domain, x - g / (mu * t))
        f = problem.objective(x)
        if f < best_f:
            best_f, best_x = f, x
        if t % check_every == 0 or t == max_iters:
            gap = certified_gap(problem, best_x)
            # The averaged-iterate guarantee for steps 1/(mu t) bounds the best
            # objective seen as well; it certifies without a small residual.
            apriori = g_bound * g_bound * (1.0 + math.log(t)) / (2.0 * mu * t)
            if min(gap, apriori) <= tol:
                return best_x, min(gap, apriori), best_x
    return None, certified_gap(problem, best_x), best_x


def _dominated(L: float, lam: float, tol: float) -> bool:
    """Regularizer dominance: at the anchor the loss part contributes a
    subgradient of norm <= L, so the projected anchor's gap is at most
    L^2 / (4 lam); ``solve`` returns it when that is <= tol."""
    return not math.isfinite(lam) or L * L / (4.0 * lam) <= tol


def solve(problem: RegularizedProblem, tol: float, max_iters: int = 200_000) -> np.ndarray:
    """Minimize the regularized batch objective to certified gap <= tol.

    Raises ConvergenceError with the best iterate if no certificate fires
    within the iteration budget.
    """
    if not (tol > 0):
        raise InvalidInputError("tol must be positive")
    lam = problem.reg_weight
    if _dominated(problem.loss.lipschitz, lam, tol):
        return project(problem.domain, problem.anchor)

    st = problem.loss.structure
    candidate = None
    if isinstance(st, IsotropicQuadratic):
        candidate = _solve_isotropic_quadratic(problem, st)
    elif isinstance(st, SeparableAbsolute):
        solved = _solve_separable_abs(problem, st, tol)
        if solved is not None:
            x, gap = solved
            if gap <= tol:
                return x
            candidate = x
    elif isinstance(st, PowerNorm) and problem.anchor.shape[0] == 1:
        ubar = float(st.linear(problem.batch.samples).mean(axis=0)[0])
        candidate = np.array([_power_norm_root(
            st.coef, st.power, ubar, lam, float(problem.anchor[0]), *problem.domain.interval()
        )])
    if candidate is None and problem.anchor.shape[0] == 1:
        candidate = _solve_scalar(problem, *problem.domain.interval())

    if candidate is not None:
        gap = certified_gap(problem, candidate)
        if gap <= tol:
            return candidate

    solved, residual_gap, best_x = _solve_subgradient(problem, tol, max_iters)
    if solved is not None:
        return solved
    if candidate is not None and problem.objective(candidate) < problem.objective(best_x):
        best_x = candidate
        residual_gap = certified_gap(problem, candidate)
    raise ConvergenceError(
        f"no accuracy certificate at tol={tol:g} within {max_iters} iterations "
        f"(best certified gap {residual_gap:g})",
        best_x=best_x,
        residual=residual_gap,
    )
