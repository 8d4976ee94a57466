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

# How far outside its domain a separable solve's coordinatewise minimizer
# may lie and still be taken as interior.
_INTERIOR_TOL = 1e-12

# Unit roundoff of float64, for the rounding bounds of ``_window`` and ``_sign_zone``.
_UNIT_ROUNDOFF = 2.0**-53

# ``_values`` evaluates candidates in blocks of at most about this many
# values per temporary.
_BLOCK = 2**14

# Half-width of ``_window``'s window, in units of sqrt(G * bound / q).
_WINDOW = 2.5


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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``v``, equal to ``np.linalg.norm``
    of the row bit for bit: both take one BLAS dot product per row, while
    ``np.linalg.norm(v, axis=1)``, ``einsum`` and ``(v * v).sum(1)`` sum in
    other orders (see docs/decisions.md).  In 1-D that product is v * v,
    and the elementwise form is the cheaper."""
    if v.shape[1] == 1:
        return np.sqrt(v * v)[:, 0]
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _separable_gap(below, above, m: int, weight: float, grad, lam):
    """Gap bound of weight * mean_j sum_i |x_i - p_ji| plus quadratics with
    strong convexity 2 lam, from the subdifferential intervals at x: per
    coordinate, ``below`` and ``above`` of the m breakpoints lie strictly
    below and above x (the rest on it), and ``grad`` is the quadratics'
    gradient.  The residual is the distance from 0 to each interval.  Rows
    of the ``(points, d)`` inputs are points, one gap each: the certificate
    of ``certified_gap``, ``_solve_separable_abs`` and the phase kernel."""
    ties = m - below - above
    lo = weight * (below - above - ties) / m + grad
    hi = weight * (below - above + ties) / m + grad
    return _gap_bound(_row_norms(np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))), lam)


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
        return float(_separable_certificate(problem, st, x, 2.0 * lam * (x - problem.anchor), lam))
    gamma = 1.0 / (2.0 * lam)
    g = problem.subgradient(x)
    step = project(problem.domain, x - gamma * g)
    return _gap_bound(float(np.linalg.norm(x - step)) / gamma, lam)


def _strictly_interior(domain: Domain, x: np.ndarray, margin: float = 1e-12) -> bool:
    return all(
        float(np.linalg.norm(x - c)) < r - margin for c, r in domain.balls()
    )


def _separable_certificate(problem, st, x, grad, lam):
    """``_separable_gap`` at the point x of a separable-absolute problem
    whose quadratics have gradient ``grad`` at x."""
    pts = problem.batch.samples
    below = (pts < x[None, :]).sum(axis=0)
    above = (pts > x[None, :]).sum(axis=0)
    return _separable_gap(below[None], above[None], pts.shape[0], st.weight, grad[None], lam)[0]


def _gap_1d(problem: RegularizedProblem, x: np.ndarray) -> float:
    lo, hi = problem.domain.interval()
    t = float(x[0])
    h = 1e-9 * max(abs(t), abs(lo), abs(hi), 1.0)
    g_left, g_right = (float(problem.subgradient(np.array([u]))[0]) for u in (t - h, t + h))
    return _interval_gap(g_left, g_right, problem.reg_weight, lo, hi, t, h)


def _interval_gap(g_left: float, g_right: float, lam: float, lo: float, hi: float, t: float,
                  h: float) -> float:
    """Gap bound at t of a 1-D objective on [lo, hi] with strong convexity
    2 lam, from its one-sided slopes: g_left and g_right are the objective's
    derivative (min-norm subgradient) at t - h and t + h, in Python floats,
    with h = 1e-9 max(|t|, |lo|, |hi|, 1).  The one 1-D certificate rule,
    of ``certified_gap`` and ``_power_norm_1d``.  On an interval narrower
    than 2h both probes lie outside it, and t is checked at its nearer end."""
    at_lo, at_hi = t - h <= lo, t + h >= hi
    if at_lo and at_hi:
        at_lo = t - lo <= hi - t
    if at_lo:
        residual = max(0.0, -g_right)
    elif at_hi:
        residual = max(0.0, g_left)
    elif g_left <= 0.0 <= g_right:
        residual = 0.0
    else:
        residual = min(abs(g_left), abs(g_right))
    return residual * residual / (4.0 * lam)


def _solve_isotropic_quadratic(problem: RegularizedProblem, st: IsotropicQuadratic):
    lam = problem.reg_weight
    ubar = st.lin_scale * problem.batch.samples.mean(axis=0)
    x = (2.0 * lam * problem.anchor - ubar) / (st.curvature + 2.0 * lam)
    if problem.domain.contains(x, tol=0.0):
        return x
    # The objective is 0.5 (curv + 2 lam) ||y - x||^2 + const, so the
    # constrained minimizer is the Euclidean projection of x.
    return project(problem.domain, x)


def _values(c, t, rows, weight: float, q, a):
    """weight * mean(|c - p|) + q (c - a)^2 of each candidate c[k] against
    row t[k] of the ``(r, m)`` breakpoints, with that row's q and anchor a:
    the reference scan's expression, bit for bit, in blocks of about
    ``_BLOCK`` values."""
    m = rows.shape[1]
    out = np.empty(len(c))
    step = max(1, _BLOCK // m)
    for lo in range(0, len(c), step):
        cb, tb = c[lo : lo + step], t[lo : lo + step]
        d, s = cb - a[tb], np.abs(rows[tb] - cb[:, None]).sum(axis=1)
        out[lo : lo + step] = weight * (s / m) + q[tb] * (d * d)
    return out


def _scan(rows, weight: float, q, a, roots):
    """Each row's candidate of least value, the first on ties: every root,
    then every breakpoint, evaluated and ``np.argmin``-ed."""
    r, m = rows.shape
    cands = np.concatenate((roots, rows), axis=1)
    v = _values(cands.ravel(), np.repeat(np.arange(r), 2 * m + 1), rows, weight, q, a)
    return cands[np.arange(r), np.argmin(v.reshape(r, -1), axis=1)]


def _window(rows, weight: float, q, a, roots):
    """The scan's pick per row, searched only among the candidates within a
    window (t - delta, t + delta) around the row's minimizer t, and whether
    the window is certified to hold it; also each row's count of window
    candidates.  docs/decisions.md gives the certificate's argument."""
    r, m = rows.shape
    g = (m + 5) * _UNIT_ROUNDOFF
    i = np.arange(r)
    # p_j - r_j does not decrease with j, so the j with p_j < r_j form a
    # prefix.  Its length j is the linear piece that holds the minimizer t:
    # the piece's root, clipped to its segment [p_{j-1}, p_j].
    j = np.count_nonzero(rows < roots[:, :m], axis=1)
    t = np.maximum(roots[i, j], np.where(j > 0, rows[i, j - 1], -np.inf))
    t = np.minimum(t, np.where(j < m, rows[i, np.minimum(j, m - 1)], np.inf))
    bound = weight * (np.abs(t) + np.abs(rows).sum(axis=1) / m) + q * (t - a) ** 2
    delta = _WINDOW * np.sqrt(g * bound / q)
    ends = np.concatenate((t - delta, t + delta))
    lo, hi = ends[:r, None], ends[r:, None]
    # The roots and breakpoints inside, a run of equal breakpoints once (the
    # first holds the run's value).  The stable sort by row, then value,
    # keeps each row's candidates in candidate order, so a row's head is its
    # first candidate of least value.
    in_p = (rows > lo) & (rows < hi)
    in_p[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    fr, fp = np.flatnonzero((roots > lo) & (roots < hi)), np.flatnonzero(in_p)
    tk = np.concatenate((fr // (m + 1), fp // m))
    ck = np.concatenate((roots.ravel()[fr], rows.ravel()[fp]))
    k = len(ck)
    v = _values(np.concatenate((ck, ends)), np.concatenate((tk, i, i)), rows, weight, q, a)
    order = np.lexsort((v[:k], tk))
    first = np.ones(k, dtype=bool)
    first[1:] = tk[order[1:]] != tk[order[:-1]]
    head = order[first]
    th = tk[head]
    x, ok = np.empty(r), np.zeros(r, dtype=bool)
    x[th] = ck[head]
    ok[th] = (1.0 - 3.0 * g) * np.minimum(v[k : k + r], v[k + r :])[th] > v[head]
    return x, ok, np.bincount(tk, minlength=r)


def _coordwise_abs_quadratic(rows, weight: float, quad, anchor):
    """Exact minimizers of weight * mean_j |t - p_j| + quad (t - a)^2, one
    per row of the ``(r, m)`` matrix ``rows`` of sorted breakpoints, with
    one anchor a per row and one ``quad`` per row or for all.

    Each is the candidate of least value
    weight * mean(|c - p|) + quad (c - a)^2, the first on ties, among the
    m + 1 roots of the derivative's linear pieces (nonincreasing), then the
    breakpoints: ``_scan``'s pick.  Each row's certified window is searched,
    and the rows it does not certify are scanned."""
    r, m = rows.shape
    q = np.broadcast_to(np.asarray(quad, dtype=float), (r,))
    roots = anchor[:, None] - weight * (2.0 * np.arange(m + 1) - m) / (2.0 * q * m)[:, None]
    x, ok, _ = _window(rows, weight, q, anchor, roots)
    bad = np.flatnonzero(~ok)
    if bad.size:
        x[bad] = _scan(rows[bad], weight, q[bad], anchor[bad], roots[bad])
    return x


def _solve_separable_abs(problem: RegularizedProblem, st: SeparableAbsolute, tol: float):
    """Exact coordinatewise solve; a binding ball is handled by dualizing
    that single constraint.  Returns (x, certified gap bound) or None."""
    lam = problem.reg_weight
    rows = np.sort(problem.batch.samples, axis=0).T
    w = st.weight
    a = problem.anchor
    x = _coordwise_abs_quadratic(rows, w, lam, a)
    if problem.domain.contains(x, tol=_INTERIOR_TOL):
        return x, _separable_certificate(problem, st, x, 2.0 * lam * (x - a), lam)
    balls = list(problem.domain.balls())
    for j, (center, radius) in enumerate(balls):
        if float(np.linalg.norm(x - center)) <= radius + _INTERIOR_TOL:
            continue
        solved = _dual_ball_separable(rows, w, lam, a, center, radius, tol)
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
        # Primal gap of the constrained problem from the augmented certificate
        # plus the complementary-slackness defect of the bisected multiplier.
        grad = 2.0 * lam * (y - a) + 2.0 * nu * (y - center)
        gap = _separable_certificate(problem, st, y, grad, lam + nu)
        return y, gap + 2.0 * nu * radius * slack
    return None


def _dual_ball_separable(rows, w, lam, anchor, center, radius, tol):
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
        return _coordwise_abs_quadratic(rows, w, q, b)

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


def _power_slope(t, cp, pm1, ubar, two_lam, a):
    """The float slope whose sign ``_power_norm_1d``'s bisection takes."""
    return (cp * t**pm1 if t > 0.0 else -(cp * (-t) ** pm1)) + ubar + two_lam * (t - a)


def _sign_zone(cp, pm1, ubar, two_lam, a, lo, hi):
    """An interval (zlo, zhi) inside (lo, hi) around the slope's root, one
    Newton step from the regularizer's, such that ``_power_slope`` is
    negative for t in [lo, zlo) and positive for t in (zhi, hi]; (-inf,
    inf) if its rounding bound cannot certify one (docs/decisions.md).  Its
    slopes and maxima are inline: it runs once per kappa=4 phase and trial."""
    if not (cp >= 0.0 and pm1 >= 1.0 and two_lam > 0.0):  # the bound's argument needs these
        return -math.inf, math.inf
    below, above = a - lo, hi - a
    err = 16.0 * _UNIT_ROUNDOFF * (cp * (hi if hi > -lo else -lo) ** pm1 + abs(ubar) + two_lam
                                   * (above if above > below else below)) + 1e-300 * (1.0 + cp)
    r = a - ubar / two_lam
    if lo < r < hi:
        r -= (((cp * r**pm1 if r > 0.0 else -(cp * (-r) ** pm1)) + ubar + two_lam * (r - a))
              / (cp * pm1 * abs(r) ** (pm1 - 1.0) + two_lam))
    w = 4.0 * err / two_lam + 8.0 * _UNIT_ROUNDOFF * abs(r)
    zlo, zhi = r - w, r + w
    held = (lo < zlo and zhi < hi
            and (cp * zlo**pm1 if zlo > 0.0 else -(cp * (-zlo) ** pm1)) + ubar
            + two_lam * (zlo - a) <= -2.0 * err
            and (cp * zhi**pm1 if zhi > 0.0 else -(cp * (-zhi) ** pm1)) + ubar
            + two_lam * (zhi - a) >= 2.0 * err)
    return (zlo, zhi) if held else (-math.inf, math.inf)


def _power_norm_1d(coef, power, ubar, lam, a, lo, hi):
    """The minimizer t over [lo, hi] of coef |t|^power + ubar t + lam (t - a)^2,
    by bisection on its strictly increasing derivative, and the gap bound
    ``_interval_gap`` certifies at t from the derivative the loss's batch
    subgradient gives, coef power |u|^(power - 2) u + ubar, plus the
    regularizer's: one pass in Python floats for ``solve`` and the phase
    kernel.  numpy's vectorized power differs from libm's in the last bit.
    The bisection takes the derivative's sign from a branch, exactly as
    |t|^(power - 1) times copysign(1, t) gives it; at t = +-0 only the sign
    of a zero term can differ, and no comparison with 0.0 sees it.  Outside
    ``_sign_zone`` and at lo and hi it takes the signs the zone certifies."""
    cp, pm1, pm2, two_lam = coef * power, power - 1.0, power - 2.0, 2.0 * lam
    zlo, zhi = _sign_zone(cp, pm1, ubar, two_lam, a, lo, hi)
    if zlo <= lo and _power_slope(lo, cp, pm1, ubar, two_lam, a) >= 0.0:
        t = lo
    elif zhi >= hi and _power_slope(hi, cp, pm1, ubar, two_lam, a) <= 0.0:
        t = hi
    else:
        left, right = lo, hi
        # The stopping width is 1e-15 max(1, |left|, |right|): 1e-15
        # throughout when [lo, hi] lies in [-1, 1], where the loop skips max.
        unit = max(abs(lo), abs(hi)) <= 1.0
        for _ in range(200):
            mid = 0.5 * (left + right)
            if mid < zlo or (mid <= zhi and _power_slope(mid, cp, pm1, ubar, two_lam, a) < 0.0):
                left = mid
            else:
                right = mid
            if right - left <= (1e-15 if unit else 1e-15 * max(1.0, abs(left), abs(right))):
                break
        t = 0.5 * (left + right)
    h = 1e-9 * max(abs(t), abs(lo), abs(hi), 1.0)
    u = t - h
    g_left = cp * math.sqrt(u * u) ** pm2 * u + ubar + two_lam * (u - a)
    u = t + h
    g_right = cp * math.sqrt(u * u) ** pm2 * u + ubar + two_lam * (u - a)
    return t, _interval_gap(g_left, g_right, lam, lo, hi, t, h)


def _bisect_1d(problem: RegularizedProblem, lo: float, hi: float):
    """The minimizer over [lo, hi] of a 1-D problem, by bisection on its
    subgradient (nondecreasing for a convex loss, whatever it selects) to a
    bracket 1e-12 max(1, |lo|, |hi|) wide, which ``_gap_1d``'s probes straddle."""
    loss, samples = problem.loss, problem.batch.samples
    two_lam, a = 2.0 * problem.reg_weight, float(problem.anchor[0])

    def slope(t):  # ``problem.subgradient``'s bits, in Python floats
        return float(loss.batch_subgrad(np.array([t]), samples)[0]) + two_lam * (t - a)

    width = 1e-12 * max(1.0, abs(lo), abs(hi))
    if slope(lo) >= 0.0:
        hi = lo
    elif slope(hi) <= 0.0:
        lo = hi
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    return np.array([0.5 * (lo + hi)])


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


def _dominated(L: float, lam, tol):
    """Regularizer dominance: at the anchor the loss part contributes a
    subgradient of norm <= L, so the projected anchor's gap is at most
    L^2 / (4 lam); ``solve`` returns it when that is <= tol.  lam and tol
    are floats, or arrays of them for a test per trial."""
    return ~np.isfinite(lam) | (L * L / (4.0 * lam) <= tol)


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
        root, gap = _power_norm_1d(
            st.coef, st.power, float(st.lin_scale * problem.batch.samples.mean(axis=0)[0]),
            lam, float(problem.anchor[0]), *problem.domain.interval(),
        )
        candidate = np.array([root])
        if gap <= tol:
            return candidate
    if candidate is None and problem.anchor.shape[0] == 1:
        candidate = _bisect_1d(problem, *problem.domain.interval())

    if candidate is not None and certified_gap(problem, candidate) <= tol:
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
