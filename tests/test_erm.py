import math

import numpy as np
import pytest

from dpgrowth.core import (
    ConvergenceError,
    Dataset,
    Domain,
    InvalidInputError,
    IsotropicQuadratic,
    RngStream,
)
from dpgrowth import erm
from dpgrowth.erm import (
    RegularizedProblem,
    _solve_isotropic_quadratic,
    certified_gap,
    solve,
)
from dpgrowth.instances import (
    SeparableAbsLoss,
    make_knorm_regression,
    make_pure_convex,
    make_sharp_growth_1d,
    make_uniform_convex,
)
from loss_helpers import CallableLoss, replaced


def _quadratic_loss():
    # F(x; s) = (x - s)^2, L over [-1, 1] with |s| <= 1 is 4.
    return CallableLoss(
        lambda x, s: float(np.sum((x - s) ** 2)),
        lambda x, s: 2.0 * (x - s),
        lipschitz=4.0,
        structure=IsotropicQuadratic(curvature=2.0, lin_scale=-2.0),
    )


def _abs_loss(d=1):
    return CallableLoss(
        lambda x, s: float(np.sum(np.abs(x - s))),
        lambda x, s: np.sign(x - s),
        lipschitz=math.sqrt(d),
        point_dim=d,
    )


def test_solve_quadratic_closed_form_example():
    # Stationarity of mean[(x)^2, (x-1)^2] + x^2: 2(x - 1/2) + 2x = 0 -> 1/4.
    prob = RegularizedProblem(
        _quadratic_loss(),
        Dataset(np.array([[0.0], [1.0]])),
        anchor=np.zeros(1),
        reg_weight=1.0,
        domain=Domain(np.zeros(1), 1.0),
    )
    x = solve(prob, tol=1e-12)
    assert x[0] == pytest.approx(0.25, abs=1e-6)


def test_solve_regularizer_dominance():
    prob = RegularizedProblem(
        _quadratic_loss(),
        Dataset(np.array([[1.0], [-0.5], [0.3]])),
        anchor=np.array([0.11]),
        reg_weight=1e6,
        domain=Domain(np.zeros(1), 1.0),
    )
    x = solve(prob, tol=1e-8)
    assert abs(x[0] - 0.11) < 1e-3


def test_solve_abs_batch_matches_grid_oracle():
    # mean(|x-0.2|, |x-0.8|) + (x-0.5)^2 on [0, 1] against a 1e-4 grid.
    prob = RegularizedProblem(
        _abs_loss(),
        Dataset(np.array([[0.2], [0.8]])),
        anchor=np.array([0.5]),
        reg_weight=1.0,
        domain=Domain(np.array([0.5]), 0.5),
    )
    x = solve(prob, tol=1e-12)
    grid = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    vals = 0.5 * (np.abs(grid - 0.2) + np.abs(grid - 0.8)) + (grid - 0.5) ** 2
    oracle = grid[int(np.argmin(vals))]
    assert abs(x[0] - oracle) < 1e-3


def test_solve_separable_abs_checks_balls_sharing_a_center():
    # Two nested balls built on one center array, as an epoch region and its
    # first phase ball are: the solve for the outer (0.3) ball must still be
    # checked against the inner (0.1) ball.
    loss = make_pure_convex(d=2, L=1.0, R=1.0).loss
    c = np.zeros(2)
    mid = Domain(c, 0.1, parent=Domain(np.zeros(2), 1.0))
    inner = Domain(c, 0.3, parent=mid)
    prob = RegularizedProblem(loss, Dataset(np.full((20, 2), 0.5)), c, 0.5, inner)
    x = solve(prob, tol=1e-9)
    assert np.linalg.norm(x) <= 0.1 + 1e-9
    # The objective is symmetric in the coordinates and decreases towards
    # (0.5, 0.5), so the constrained minimizer is the ball's diagonal point.
    np.testing.assert_allclose(x, np.full(2, 0.1 / math.sqrt(2.0)), atol=1e-8)


def _brute_force_minimizers(pts_sorted, weight, quad, anchor):
    """The reference scan of the separable solve: every candidate's value
    evaluated against every breakpoint, and np.argmin's first minimum, one
    coordinate (column) at a time.  Returns the minimizers, and every
    candidate and its value, coordinate by coordinate."""
    m, d = pts_sorted.shape
    jj = np.arange(m + 1)
    out = np.empty(d)
    candidates, values = [], []
    for c in range(d):
        p = pts_sorted[:, c]
        roots = anchor[c] - weight * (2.0 * jj - m) / (2.0 * quad * m)
        cands = np.concatenate((roots, p))
        vals = weight * np.mean(np.abs(cands[:, None] - p[None, :]), axis=1) + quad * (
            cands - anchor[c]
        ) ** 2
        out[c] = cands[int(np.argmin(vals))]
        candidates.append(cands)
        values.append(vals)
    return out, np.concatenate(candidates), np.concatenate(values)


def _count_paths(monkeypatch):
    """Wrap the separable solve's window and scan to count the rows the
    window certifies, the rows it sends to the scan, and every scanned row,
    and to collect the certified rows' window candidate counts."""
    counts = {"certified": 0, "fallback": 0, "scanned": 0, "kept": []}
    window, scan = erm._window, erm._scan

    def counted_window(*args):
        x, ok, kept = window(*args)
        counts["certified"] += int(ok.sum())
        counts["fallback"] += int((~ok).sum())
        counts["kept"] += kept[ok].tolist()
        return x, ok, kept

    def counted_scan(rows, *args):
        counts["scanned"] += len(rows)
        return scan(rows, *args)

    monkeypatch.setattr(erm, "_window", counted_window)
    monkeypatch.setattr(erm, "_scan", counted_scan)
    return counts


def _random_case(rng, case, m_lo=1, m_hi=301):
    m, d = int(rng.integers(m_lo, m_hi)), int(rng.integers(1, 5))
    kind = case % 3
    if kind == 0:
        c = rng.uniform(0.1, 1.0)
        u = rng.random((m, d))
        samples = np.where(u < 0.25, -c, np.where(u < 0.75, 0.0, c))
    elif kind == 1:
        samples = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 1)
    else:
        samples = np.round(rng.standard_normal((m, d)), int(rng.integers(0, 3)))
    weight = float(10.0 ** rng.uniform(-1, 0.5))
    quad = float(10.0 ** rng.uniform(-2, 14))
    anchor = rng.uniform(-1.0, 1.0, d) * rng.choice([1.0, 1e-3, 0.0])
    if case % 5 == 0:
        # An anchor within rounding of a breakpoint.
        anchor = samples[rng.integers(0, m)] + rng.standard_normal(d) * 1e-14
    return np.sort(samples, axis=0), weight, quad, anchor


def _assert_matches_brute_force(pts, weight, quad, anchor, label):
    want, cands, want_values = _brute_force_minimizers(pts, weight, quad, anchor)
    got = erm._coordwise_abs_quadratic(pts.T, weight, quad, anchor)
    assert got.tobytes() == want.tobytes(), label
    # The values themselves are the scan's, bit for bit.
    m, d = pts.shape
    t = np.repeat(np.arange(d), 2 * m + 1)
    values = erm._values(cands, t, pts.T, weight, np.full(d, quad), anchor)
    assert values.tobytes() == want_values.tobytes(), label


def test_screened_search_matches_the_brute_force_scan_bit_for_bit(monkeypatch):
    # 3000 random cases: three-atom (pure_convex-like), continuous and
    # rounded samples; m = 1 ... 300 breakpoints; quad over 16 decades.  At
    # large quad all m + 1 roots sit within ulps of the anchor, their values
    # differ by less than rounding, and the window must hold many of them:
    # the brute force's pick among them is decided by rounding alone.
    counts = _count_paths(monkeypatch)
    rng = np.random.default_rng(21)
    for case in range(3000):
        pts, weight, quad, anchor = _random_case(rng, case)
        _assert_matches_brute_force(pts, weight, quad, anchor, (case, pts.shape, weight, quad))
    # Every call goes through the window, one row or several: each row is
    # certified or sent to the scan.
    for case in range(300):
        m, d = [(90, 1), (91, 1), (90, 2)][case % 3]
        samples = np.round(rng.standard_normal((m, d)), int(rng.integers(0, 3)))
        quad = float(10.0 ** rng.uniform(-2, 14))
        anchor = rng.uniform(-1.0, 1.0, d) * rng.choice([1.0, 1e-3])
        before = counts["certified"] + counts["fallback"]
        _assert_matches_brute_force(np.sort(samples, axis=0), 0.5, quad, anchor, (case, m, quad))
        assert counts["certified"] + counts["fallback"] - before == d
    # Rows shaped like a priv_pure phase: 80 rows of m = 102 breakpoints on
    # pure_convex's three atoms, weight L / sqrt(d) = 1/2, q from 1 to 1e12.
    for case in range(40):
        u = rng.random((102, 80))
        samples = np.where(u < 0.25, -0.5, np.where(u < 0.75, 0.0, 0.5))
        quad = float(10.0 ** rng.uniform(0, 12))
        anchor = rng.uniform(-0.5, 0.5, 80) * 10.0 ** rng.uniform(-6, 0, 80)
        _assert_matches_brute_force(np.sort(samples, axis=0), 0.5, quad, anchor, (case, quad))
    # Rows whose every breakpoint is the anchor 0: the window bound is 0,
    # the window is empty, and the rows go to the scan.
    before = counts["fallback"]
    for m in (91, 102):
        _assert_matches_brute_force(np.zeros((m, 3)), 0.5, 7.0, np.zeros(3), m)
    assert counts["fallback"] == before + 6
    assert counts["scanned"] == counts["fallback"] and counts["certified"] > 5000
    assert max(counts["kept"]) > 20
    assert np.median(counts["kept"]) <= 2


def test_window_certificate_holds_at_any_width(monkeypatch):
    # The window's half-width only trades window candidates against scanned
    # rows: at any width, a row the certificate accepts must have the scan's
    # pick.  Narrow windows put the certificate on its margin, and wide ones
    # hold many candidates; every width certifies some rows.
    counts = _count_paths(monkeypatch)
    rng = np.random.default_rng(22)
    for width in (0.05, 0.5, 1.0, 1.5, 8.0):
        monkeypatch.setattr(erm, "_WINDOW", width)
        before = dict(counts)
        for case in range(150):
            pts, weight, quad, anchor = _random_case(rng, case, m_lo=46, m_hi=160)
            _assert_matches_brute_force(pts, weight, quad, anchor, (width, case, quad))
        assert counts["certified"] > before["certified"]
    assert counts["fallback"] > 100


def _reference_power_norm_root(coef, power, ubar, lam, a, lo, hi):
    """The reference bisection of the 1-D power-norm solve: the derivative
    with its sign from copysign, as the solver computed it before its one
    Python-float pass (``erm._power_norm_1d``)."""
    cp, pm1, two_lam = coef * power, power - 1.0, 2.0 * lam

    def deriv(t):
        return cp * abs(t) ** pm1 * math.copysign(1.0, t) + ubar + two_lam * (t - a)

    if deriv(lo) >= 0.0:
        return lo
    if deriv(hi) <= 0.0:
        return hi
    left, right = lo, hi
    for _ in range(200):
        mid = 0.5 * (left + right)
        if deriv(mid) < 0.0:
            left = mid
        else:
            right = mid
        if right - left <= 1e-15 * max(1.0, abs(left), abs(right)):
            break
    return 0.5 * (left + right)


def _reference_interval_gap(slope, lam, lo, hi, t):
    """The reference 1-D certificate, from a slope function."""
    h = 1e-9 * max(abs(t), abs(lo), abs(hi), 1.0)
    g_left, g_right = slope(t - h), slope(t + h)
    if t - h <= lo:
        residual = max(0.0, -g_right)
    elif t + h >= hi:
        residual = max(0.0, g_left)
    elif g_left <= 0.0 <= g_right:
        residual = 0.0
    else:
        residual = min(abs(g_left), abs(g_right))
    return residual * residual / (4.0 * lam)


def test_power_norm_pass_matches_the_reference_bisection_bit_for_bit():
    # 2 powers x 12 000 random phases, lam over 14 decades: brackets in
    # [-1, 1] and wider (the stopping width then scales), brackets that
    # straddle 0 symmetrically (the first midpoint is 0.0) with roots at
    # exactly 0, brackets ending at -0.0, roots at lo and at hi, and at
    # power 4 anchors on the lower edge where numpy's cube falls below
    # libm's, with the data putting the derivative at exactly 0 there.  The
    # one 1-D certificate rule is checked besides at points moved off each
    # root, where its bound is positive.
    rng = np.random.default_rng(19)
    kinds, positive_gaps = dict.fromkeys(range(7), 0), 0
    for power in (3.0, 4.0):
        coef = float(rng.uniform(0.05, 0.5))
        cp = coef * power
        for case in range(12_000):
            kind = case % 7
            lam = float(10.0 ** rng.uniform(-2, 12))
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2)).tolist()
            a = float(rng.uniform(lo, hi))
            ubar = float(rng.uniform(-2.0, 2.0) * rng.choice([1.0, 1e-6, lam]))
            if kind == 1:
                lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(0, 3, 2)).tolist()
                a = float(rng.uniform(lo, hi))
            elif kind == 2:
                hi = float(rng.uniform(0.01, 4.0))
                lo, a = -hi, float(rng.uniform(-hi, hi))
                ubar = 2.0 * lam * a if case % 2 else ubar
            elif kind == 3:
                lo, hi = -float(rng.uniform(0.01, 2.0)), -0.0
                a = float(rng.uniform(lo, 0.0))
            elif kind == 4:
                ubar = 2.0 * (cp + 2.0 * lam) * 10.0 ** rng.uniform(0, 3)
            elif kind == 5:
                ubar = -2.0 * (cp + 2.0 * lam) * 10.0 ** rng.uniform(0, 3)
            elif kind == 6 and power == 4.0:
                while True:
                    a = float(rng.uniform(0.05, 0.9))
                    if np.power(a, 3.0) < a**3.0:
                        break
                lo, hi, ubar = a, float(rng.uniform(a + 1e-3, 1.0)), -(cp * a**3.0)

            def slope(u):
                return cp * math.sqrt(u * u) ** (power - 2.0) * u + ubar + 2.0 * lam * (u - a)

            want = _reference_power_norm_root(coef, power, ubar, lam, a, lo, hi)
            gap = _reference_interval_gap(slope, lam, lo, hi, want)
            got = erm._power_norm_1d(coef, power, ubar, lam, a, lo, hi)
            assert (got[0].hex(), got[1].hex()) == (want.hex(), gap.hex()), (power, case)
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, want)
            # A point off the root, by 1e-12 to 1 of the bracket, clipped
            # into it: the certificate's bound there, from the same slopes.
            t = float(np.clip(want + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, 0)
                              * (hi - lo), lo, hi))
            h = 1e-9 * max(abs(t), abs(lo), abs(hi), 1.0)
            if hi - lo > 2.0 * h:  # the reference's probe rule
                off = _reference_interval_gap(slope, lam, lo, hi, t)
                got_off = erm._interval_gap(slope(t - h), slope(t + h), lam, lo, hi, t, h)
                assert got_off.hex() == off.hex(), (power, case, t)
                positive_gaps += off > 0.0
            kinds[kind] += (kind != 4 or want == lo) and (kind != 5 or want == hi) and (
                kind != 6 or want == a)
    assert min(kinds.values()) >= 1700, kinds
    assert positive_gaps >= 1500


def _count_slopes(monkeypatch):
    """Count, through wrappers, the slopes ``erm._power_norm_1d`` evaluates
    outside ``erm._sign_zone`` (its bisection steps and end checks) and the
    zones that hold."""
    counts, inside = dict(slopes=0, held=0), []
    slope, zone = erm._power_slope, erm._sign_zone

    def counted_slope(*args):
        counts["slopes"] += not inside
        return slope(*args)

    def counted_zone(*args):
        inside.append(True)
        try:
            zlo, zhi = zone(*args)
        finally:
            inside.pop()
        counts["held"] += zlo != -math.inf
        return zlo, zhi

    monkeypatch.setattr(erm, "_power_slope", counted_slope)
    monkeypatch.setattr(erm, "_sign_zone", counted_zone)
    return counts


def _assert_power_norm_matches_reference(coef, power, ubar, lam, a, lo, hi, label):
    want = _reference_power_norm_root(coef, power, ubar, lam, a, lo, hi)
    got = erm._power_norm_1d(coef, power, ubar, lam, a, lo, hi)
    assert got[0].hex() == want.hex(), label
    assert math.copysign(1.0, got[0]) == math.copysign(1.0, want), label
    if hi - lo > 2e-9 * max(abs(want), abs(lo), abs(hi), 1.0):  # the reference's probe rule

        def slope(u):
            return coef * power * math.sqrt(u * u) ** (power - 2.0) * u + ubar + 2.0 * lam * (u - a)

        assert got[1].hex() == _reference_interval_gap(slope, lam, lo, hi, want).hex(), label


def _ubar_for_root(coef, power, lam, a, root):
    """The linear term that puts the slope's root at ``root``, up to rounding."""
    return -(coef * power * abs(root) ** (power - 1.0) * math.copysign(1.0, root)
             + 2.0 * lam * (root - a))


def test_sign_zone_spares_nearly_every_slope_in_sweep_shaped_phases(monkeypatch):
    # Phases shaped like the kappa=4 sweep's: coef 0.25 at power 4, lam from
    # 1e2 to 5e12, the bracket a trust region 8 / lam wide around the anchor
    # with the root near its middle, so that 2 lam is at least 1e4 times the
    # power term's curvature.  The zone holds on nearly every phase and the
    # bisection then evaluates under a tenth of the slopes it evaluates with
    # a zone that never holds; the bits are the same either way.
    rng = np.random.default_rng(24)
    phases = []
    for case in range(3000):
        coef, power, lam = 0.25, 4.0, float(10.0 ** rng.uniform(2, 12.7))
        a, width = float(rng.uniform(-3.5e-3, 3.5e-3)), 8.0 / lam
        root = a + width * float(rng.uniform(-0.06, 0.06))
        ubar = _ubar_for_root(coef, power, lam, a, root)
        phases.append((coef, power, ubar, lam, a, a - 0.5 * width, a + 0.5 * width))
    counts = _count_slopes(monkeypatch)
    screened = [erm._power_norm_1d(*phase) for phase in phases]
    held, evaluated = counts["held"], counts["slopes"]
    counts.update(slopes=0, held=0)
    monkeypatch.setattr(erm, "_sign_zone", lambda *args: (-math.inf, math.inf))
    unscreened = [erm._power_norm_1d(*phase) for phase in phases]
    assert [(t.hex(), g.hex()) for t, g in screened] == [(t.hex(), g.hex()) for t, g in unscreened]
    assert held >= 0.98 * len(phases), held
    assert counts["slopes"] > 10 * evaluated, (counts["slopes"], evaluated)


def test_power_norm_pass_matches_the_reference_where_the_sign_zone_is_tight():
    # The cases that could make the zone certify a sign it should not, each
    # against the reference bisection: phases at the edge where the zone
    # stops holding, found by bisecting lam to adjacent floats (the root a
    # few ulps from zlo or zhi, or zlo and zhi a few ulps from lo and hi);
    # lam = 1e-2 with wide brackets, where the power term dominates and the
    # zone must fail safely; brackets beyond [-1, 1], where the stopping
    # width scales; terms near underflow, where only the absolute floor
    # keeps the bound above 0; and powers 2.5 and 6 besides 3 and 4.
    rng = np.random.default_rng(2024)
    edges = 0
    for power in (2.5, 3.0, 4.0, 6.0):
        coef = float(rng.uniform(0.05, 0.5))
        for case in range(400):
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2)).tolist()
            a, root = (float(v) for v in rng.uniform(lo, hi, 2))

            def holds(lam):
                ubar = _ubar_for_root(coef, power, lam, a, root)
                zlo, _ = erm._sign_zone(coef * power, power - 1.0, ubar, 2.0 * lam, a, lo, hi)
                return zlo != -math.inf

            fails, held = 1e-6, 1e14
            if holds(fails) or not holds(held):
                continue
            while math.nextafter(fails, held) < held:
                mid = math.sqrt(fails * held)
                mid = mid if fails < mid < held else 0.5 * (fails + held)
                if holds(mid):
                    held = mid
                else:
                    fails = mid
            edges += 1
            for lam in (fails, held):
                for _ in range(3):
                    ubar = _ubar_for_root(coef, power, lam, a, root)
                    _assert_power_norm_matches_reference(coef, power, ubar, lam, a, lo, hi,
                                                         (power, case, lam))
                    lam = math.nextafter(lam, math.inf if lam == held else 0.0)
        for case in range(1500):
            kind = case % 3
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2)).tolist()
            lam = float(10.0 ** rng.uniform(-2, 10))
            if kind == 0:  # lam = 1e-2, wide brackets
                lam = 1e-2
                lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2)).tolist()
            elif kind == 1:  # beyond [-1, 1]
                lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(0, 3, 2)).tolist()
            a = float(rng.uniform(lo, hi))
            root = float(rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)))
            ubar = _ubar_for_root(coef, power, lam, a, root)
            _assert_power_norm_matches_reference(coef, power, ubar, lam, a, lo, hi,
                                                 (power, case))
        for case in range(300):  # near underflow: every term of the slope subnormal or 0
            tiny = [float(10.0 ** rng.uniform(-323, -300)) for _ in range(3)]
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2) * (1.0 if case % 2 else tiny[2])).tolist()
            a = float(rng.uniform(lo, hi))
            ubar = float(rng.choice([0.0, tiny[1], -tiny[1]]))
            _assert_power_norm_matches_reference(tiny[0] * (case % 3 > 0), power, ubar, tiny[2],
                                                 a, lo, hi, (power, "tiny", case))
    assert edges >= 1000, edges
    # Outside PowerNorm's range, a negative coefficient makes the slope
    # non-monotone, and no zone may be taken: here the reference returns hi
    # while the slope has a root inside.
    coef, lam, a = -0.34539591354170335, 0.3423363906503234, 0.5470319749502608
    ubar = _ubar_for_root(coef, 6.0, lam, a, 0.04657270079867526)
    _assert_power_norm_matches_reference(coef, 6.0, ubar, lam, a, -0.4928883548093608,
                                         0.7979187377617611, "concave")


def test_solve_constrained_isotropic_quadratic_at_a_lens_corner():
    # mean ||x - s||^2 + 0.5 ||x||^2 has its unconstrained minimizer
    # x_u = s / 1.5 = (1.28, 0.76), outside both balls of the lens and inside
    # the normal cone of its upper corner (0.89, 0.456), so both balls bind.
    loss = CallableLoss(
        lambda x, s: float(np.sum((x - s) ** 2)),
        lambda x, s: 2.0 * (x - s),
        lipschitz=4.0,
        point_dim=2,
        structure=IsotropicQuadratic(curvature=2.0, lin_scale=-2.0),
    )
    samples = np.array([[1.72, 1.04], [2.12, 1.24]])
    lens = Domain(np.array([0.5, 0.0]), 0.6, parent=Domain(np.zeros(2), 1.0))
    prob = RegularizedProblem(loss, Dataset(samples), np.zeros(2), 0.5, lens)
    x_u = samples.mean(axis=0) / 1.5
    assert not lens.contains(x_u)
    x = solve(prob, tol=1e-10)
    # solve returns the structured path's answer, not a fallback's.
    np.testing.assert_array_equal(x, _solve_isotropic_quadratic(prob, loss.structure))
    assert lens.contains(x, tol=1e-9)
    assert certified_gap(prob, x) <= 1e-10
    gx, gy = np.meshgrid(np.arange(-0.1, 1.0, 1e-3), np.arange(-0.6, 0.6, 1e-3))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = grid[
        (np.linalg.norm(grid, axis=1) <= 1.0)
        & (np.linalg.norm(grid - lens.center, axis=1) <= 0.6)
    ]
    vals = np.mean(
        np.sum((grid[:, None, :] - samples[None, :, :]) ** 2, axis=2), axis=1
    ) + 0.5 * np.sum(grid**2, axis=1)
    oracle = grid[int(np.argmin(vals))]
    assert prob.objective(x) <= float(vals.min()) + 1e-12
    assert np.linalg.norm(x - oracle) < 3e-3
    np.testing.assert_allclose(x, [0.89, math.sqrt(1.0 - 0.89**2)], atol=1e-8)


def test_solve_random_1d_problems_vs_grid():
    rng = RngStream(77, 0)
    for trial in range(20):
        m = int(rng.gen.integers(2, 8))
        samples = rng.gen.uniform(-1, 1, (m, 1))
        anchor = rng.gen.uniform(-0.5, 0.5, 1)
        lam = float(rng.gen.uniform(0.3, 3.0))
        kind = trial % 2
        loss = _abs_loss() if kind == 0 else _quadratic_loss()
        prob = RegularizedProblem(
            loss, Dataset(samples), anchor, lam, Domain(np.zeros(1), 1.0)
        )
        x = solve(prob, tol=1e-12)
        grid = np.arange(-1.0, 1.0 + 1e-4, 1e-4)
        per_sample = (
            np.abs(grid[:, None] - samples[:, 0][None, :])
            if kind == 0
            else (grid[:, None] - samples[:, 0][None, :]) ** 2
        )
        vals = per_sample.mean(axis=1) + lam * (grid - anchor[0]) ** 2
        oracle = grid[int(np.argmin(vals))]
        assert abs(x[0] - oracle) < 1e-3


def test_every_1d_solve_without_a_closed_form_is_certified(monkeypatch):
    # Random 1-D problems on intervals 2e-8 to 2 wide, a quarter of them
    # scaled by 1e6, with the minimizer inside or at either end: the bisection on
    # the subgradient certifies each one, so the projected-subgradient loop
    # never runs.  The separable problems reach the 1-D path as when their
    # dual-ball solve gives up.
    def descend(*args, **kwargs):
        raise AssertionError("projected-subgradient fallback entered")

    gave_up = []
    monkeypatch.setattr(erm, "_solve_subgradient", descend)
    monkeypatch.setattr(erm, "_dual_ball_separable", lambda *args: gave_up.append(1))
    instances = [make_sharp_growth_1d(1.5, 0.25), make_sharp_growth_1d(2.0, 0.5, v=-1),
                 make_knorm_regression(d=1, kappa=2, R=1.0)]
    losses = [inst.loss for inst in instances] + [_abs_loss(), SeparableAbsLoss(1.0, 1, 1.0)]
    rng = np.random.default_rng(21)
    tol = 1e-12
    ends = {"lo": 0, "hi": 0, "inside": 0}
    for trial in range(500):
        kind = trial % len(losses)
        m = int(rng.integers(1, 40))
        scale = 1e6 if trial % 4 == 3 else 1.0
        center, radius = scale * rng.uniform(-1.0, 1.0), scale * 10.0 ** rng.uniform(-8.0, 0.0)
        if kind < len(instances):
            samples = instances[kind].draw(m, RngStream(21, trial)).samples
        else:
            samples = center + scale * rng.uniform(-1.0, 1.0, (m, 1))
        anchor = center + radius * rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)])
        lam = 10.0 ** rng.uniform(-3.0, 2.0)
        prob = RegularizedProblem(losses[kind], Dataset(samples), np.array([anchor]), lam,
                                  Domain(np.array([center]), radius))
        x = solve(prob, tol=tol)
        assert certified_gap(prob, x) <= tol
        lo, hi = prob.domain.interval()
        ends["lo" if x[0] == lo else "hi" if x[0] == hi else "inside"] += 1
    assert min(ends.values()) > 50, ends
    assert len(gave_up) > 20
    # An interval narrower than the certificate's two probes are apart, with
    # the answer of |x - s| + x^2 at its upper end (s = 2) and at its lower
    # end (s = -2): both probes fall outside the interval.
    for s, end in ((2.0, 1), (-2.0, 0)):
        prob = RegularizedProblem(_abs_loss(), Dataset(np.array([[s]])), np.zeros(1), 1.0,
                                  Domain(np.zeros(1), 1e-10))
        x = solve(prob, tol=tol)
        assert x[0] == prob.domain.interval()[end]
        assert certified_gap(prob, x) <= tol


def test_certificate_soundness_on_closed_forms():
    # Whenever the certificate fires at tol, the true gap must be <= tol.
    rng = RngStream(5, 0)
    for _ in range(30):
        samples = rng.gen.uniform(-1, 1, (5, 2))
        anchor = rng.gen.uniform(-0.3, 0.3, 2)
        lam = float(rng.gen.uniform(0.5, 2.0))
        loss = CallableLoss(
            lambda x, s: float(np.sum((x - s) ** 2)),
            lambda x, s: 2.0 * (x - s),
            lipschitz=6.0,
            point_dim=2,
            structure=IsotropicQuadratic(curvature=2.0, lin_scale=-2.0),
        )
        prob = RegularizedProblem(loss, Dataset(samples), anchor, lam, Domain(np.zeros(2), 1.0))
        tol = 1e-9
        x = solve(prob, tol=tol)
        # True minimizer of mean||x-s||^2 + lam ||x-a||^2 (interior case).
        xstar = (samples.mean(axis=0) + lam * anchor) / (1.0 + lam)
        true_gap = prob.objective(x) - prob.objective(xstar)
        assert true_gap <= tol + 1e-15


def test_generic_path_monotone_best_objective():
    # Track the best-so-far objective of the subgradient path directly.
    from dpgrowth.erm import _solve_subgradient

    loss = _abs_loss(d=3)
    rng = RngStream(6, 0)
    samples = rng.gen.uniform(-1, 1, (6, 3))
    prob = RegularizedProblem(
        loss, Dataset(samples), np.zeros(3), 0.8, Domain(np.zeros(3), 1.0)
    )
    seen = []
    orig_obj = prob.objective

    def recording(x):
        v = orig_obj(x)
        seen.append(v)
        return v

    object.__setattr__(prob, "objective", recording)
    _solve_subgradient(prob, tol=1e-6, max_iters=2000)
    best = np.minimum.accumulate(np.array(seen))
    assert np.all(np.diff(best) <= 0)


def test_solve_convergence_error_carries_best_iterate():
    loss = _abs_loss(d=2)
    samples = RngStream(8, 0).gen.uniform(-1, 1, (8, 2))
    prob = RegularizedProblem(
        loss, Dataset(samples), np.zeros(2), 0.5, Domain(np.zeros(2), 1.0)
    )
    with pytest.raises(ConvergenceError) as err:
        solve(prob, tol=1e-16, max_iters=40)
    assert err.value.best_x.shape == (2,)
    assert err.value.residual > 0


def test_solve_rejects_bad_inputs():
    prob = RegularizedProblem(
        _quadratic_loss(), Dataset(np.array([[0.0]])), np.zeros(1), 1.0,
        Domain(np.zeros(1), 1.0),
    )
    with pytest.raises(InvalidInputError):
        solve(prob, tol=0.0)
    with pytest.raises(InvalidInputError):
        RegularizedProblem(
            _quadratic_loss(), Dataset(np.array([[0.0]])), np.array([5.0]), 1.0,
            Domain(np.zeros(1), 1.0),
        )


# ---------------------------------------------------------------------------
# Empirical sensitivity of the regularized minimizer
# ---------------------------------------------------------------------------


def _sensitivity_setup(instance, n0, eta, rng):
    data = instance.draw(n0, rng)
    anchor = np.zeros(instance.domain.dim)
    radius = 2.0 * instance.loss.lipschitz * eta * n0

    def builder(ds):
        return RegularizedProblem(
            instance.loss,
            ds,
            anchor=anchor,
            reg_weight=1.0 / (eta * n0),
            domain=Domain(anchor, radius, parent=instance.domain),
        )

    return data, builder


def test_empirical_sensitivity_identity_replacement_is_zero():
    inst = make_uniform_convex(d=1, kappa=2, lam=1.0, L=2.0, R=1.0, bias_delta=0.0)
    eta, n0 = 0.1, 20
    rng = RngStream(22, 0)
    data, builder = _sensitivity_setup(inst, n0, eta, rng)
    base = solve(builder(data), tol=1e-10)
    same = solve(builder(replaced(data, 3, data.samples[3])), tol=1e-10)
    assert np.linalg.norm(base - same) <= 2e-10
