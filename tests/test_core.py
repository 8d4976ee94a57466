import math

import numpy as np
import pytest

from dpgrowth.core import (
    Dataset,
    Domain,
    GrowthSpec,
    InvalidInputError,
    PrivacyParams,
    RngStream,
    derive_stream_key,
    hamming_distance,
    probe_points,
    project,
    verify_growth,
    verify_kl,
)
from dpgrowth import core
from dpgrowth.core import _CHUNK_VALUES, _SEED_BLOCK, _pcg64_states, children_laplace
from dpgrowth.instances import make_sharp_growth_1d, make_uniform_convex
from loss_helpers import CallableLoss, replaced


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


def test_stream_reproducibility_bit_identical():
    a = RngStream(123456789, 7).gen.random(100)
    b = RngStream(123456789, 7).gen.random(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ_and_decorrelate():
    a = RngStream(5, 0).gen.random(20000)
    b = RngStream(5, 1).gen.random(20000)
    assert not np.array_equal(a[:10], b[:10])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_stream_key_is_pure_integer_function():
    assert derive_stream_key(42, 0) == derive_stream_key(42, 0)
    keys = {derive_stream_key(42, s) for s in range(1000)}
    assert len(keys) == 1000


def test_child_streams_are_independent_of_parent_consumption():
    parent = RngStream(11, 2)
    child_before = parent.child(4).gen.random(5)
    parent.gen.random(1000)
    child_after = parent.child(4).gen.random(5)
    assert np.array_equal(child_before, child_after)


def test_array_seeding_equals_numpy_pcg64_seeding():
    # Guards the copy of numpy's SeedSequence hash and PCG64 seeding step
    # that RngStream.children runs on uint64 limbs: a numpy change there fails here.
    edge = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    drawn = np.random.default_rng(2024).integers(0, 2**64 - 1, 10_000, dtype=np.uint64,
                                                 endpoint=True)
    keys = edge + drawn.tolist()
    limbs = [a.tolist() for a in _pcg64_states(np.array(keys, dtype=np.uint64))]
    got = [(s_hi << 64 | s_lo, i_hi << 64 | i_lo) for s_hi, s_lo, i_hi, i_lo in zip(*limbs)]
    want = [np.random.PCG64(k).state["state"] for k in keys]
    assert got == [(s["state"], s["inc"]) for s in want]


def _bits(rows) -> np.ndarray:
    return np.asarray(rows, dtype=float).view(np.uint64)


def _mapped_uniforms(u) -> np.ndarray:
    """numpy's Laplace rule (loc 0, scale 1) on its uniforms, with np.log."""
    return np.where(u >= 0.5, 0.0 - np.log(2.0 - u - u), 0.0 + np.log(u + u))


def _ulps_apart(a, b) -> np.ndarray:
    # Draws of one uniform share their sign, so their bit patterns are
    # ordered as the values are.
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


@pytest.mark.parametrize("parent", [(0, 0), (7, 3), (2**64 - 1, 5)])
def test_children_laplace_equals_child_draws(parent):
    # Bit for bit the streams' own uniforms through numpy's Laplace rule,
    # compared as bit patterns, so the sign of a zero counts too; and
    # within one ulp of each stream's gen.laplace draws, which differ from
    # them where np.log and libm's log round apart (some do on 19 200 values).
    p = RngStream(*parent)
    for size, count in ((1, _SEED_BLOCK + 2), (5, 300), (15, _SEED_BLOCK + 2), (480, 40)):
        got = children_laplace([p.children(count)], size)
        want = [_mapped_uniforms(p.child(t).gen.random(size)) for t in range(count)]
        assert np.array_equal(_bits(got), _bits(want))
        drawn = np.array([p.child(t).gen.laplace(0.0, 1.0, size) for t in range(count)])
        assert _ulps_apart(got, drawn).max() <= 1
    assert np.any(got != drawn)
    assert children_laplace([p.children(0)], 15).shape == (0, 15)


def test_children_laplace_redraws_a_zero_uniform_and_keeps_positive_zero(monkeypatch):
    # numpy redraws U = 0 from the same stream, which shifts the row's later
    # draws, so such a row must come from its child stream; U = 1/2 gives
    # 0.0 - log(1.0) = +0.0.  Both are forced by patching the raw outputs.
    raw_outputs, patched_rows = core._pcg64_outputs, []

    def patched(keys, size):
        raw = raw_outputs(keys, size)
        raw[3, 2] &= np.uint64(0x7FF)
        raw[4, 0] = np.uint64(1 << 63)
        patched_rows.append(len(keys))
        return raw

    monkeypatch.setattr(core, "_pcg64_outputs", patched)
    p, size = RngStream(7, 3), 5
    got = children_laplace([p.children(10)], size)
    want = np.array([p.child(t).gen.laplace(0.0, 1.0, size) for t in range(10)])
    assert patched_rows == [10]
    assert _bits(got[4, 0]) == 0
    want[4, 0] = 0.0
    assert np.array_equal(_bits(got), _bits(want))


def test_children_laplace_of_several_blocks_equals_child_draws(monkeypatch):
    # One pass over blocks of several parents, one of them empty, crossing
    # a seed block's edge and a conversion chunk's.  Forced as in the test
    # above: U = 0 in the second seed block (block 2's row 3), U = 0 in the
    # row right after the empty block (block 2's row 0, in the first seed
    # block) and U = 1/2 in the second conversion chunk (block 0's row
    # edge + 3, a chunk being _CHUNK_VALUES // size rows).  A U = 0 row is
    # drawn again by its own child(t); every other row is its stream's
    # uniforms through numpy's Laplace rule.
    raw_outputs, calls = core._pcg64_outputs, []
    size = 3
    edge = _CHUNK_VALUES // size

    def patched(keys, size):
        raw = raw_outputs(keys, size)
        if not calls:
            raw[_SEED_BLOCK - 2, 1] &= np.uint64(0x7FF)
            raw[edge + 3, 0] = np.uint64(1 << 63)
        else:
            raw[1, 0] &= np.uint64(0x7FF)
        calls.append(len(keys))
        return raw

    monkeypatch.setattr(core, "_pcg64_outputs", patched)
    parents = [RngStream(7, 3), RngStream(1, 2), RngStream(2**64 - 1, 5)]
    blocks = [parents[0].children(_SEED_BLOCK - 2), parents[1].children(0),
              parents[2].children(5)]
    got = children_laplace(blocks, size)
    drawn = np.array([s.gen.laplace(0.0, 1.0, size) for block in blocks for s in block])
    want = np.array([_mapped_uniforms(s.gen.random(size)) for block in blocks for s in block])
    redrawn = [_SEED_BLOCK - 2, _SEED_BLOCK + 1]
    want[redrawn] = drawn[redrawn]
    assert calls == [_SEED_BLOCK, 3]
    assert _bits(got[edge + 3, 0]) == 0
    want[edge + 3, 0] = drawn[edge + 3, 0] = 0.0
    assert np.array_equal(_bits(got), _bits(want))
    assert _ulps_apart(got, drawn).max() <= 1 and np.any(got != drawn)
    # The same blocks one at a time, unpatched, give the same rows.
    monkeypatch.setattr(core, "_pcg64_outputs", raw_outputs)
    rows = np.concatenate([children_laplace([block], size) for block in blocks])
    assert np.array_equal(_bits(children_laplace(blocks, size)), _bits(rows))
    assert children_laplace([], 4).shape == (0, 4)


def test_children_laplace_of_size_zero_is_empty_and_seeds_nothing(monkeypatch):
    # A noiseless chain asks for zero draws per stream (it used to raise
    # ZeroDivisionError): no stream is seeded, stepped or drawn from.
    monkeypatch.setattr(core, "_pcg64_outputs", lambda keys, size: pytest.fail("seeded"))
    blocks = [RngStream(1).children(3), RngStream(2, 5).children(0), RngStream(3).children(2)]
    got = children_laplace(blocks, 0)
    assert got.shape == (5, 0) and got.dtype == np.float64
    assert all(b.parent._gen is None for b in blocks)


@pytest.mark.parametrize("parent", [(0, 0), (7, 3), (2**64 - 1, 5)])
def test_children_draw_what_child_draws(parent):
    p = RngStream(*parent)
    assert [(s.seed, s.stream) for s in p.children(3)] == [
        (c.seed, c.stream) for c in (p.child(t) for t in range(3))]
    assert list(p.children(0)) == []


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def test_dataset_replace_is_hamming_one():
    data = Dataset(np.arange(6.0))
    neighbor = replaced(data, 2, np.array([9.0]))
    assert hamming_distance(data, neighbor) == 1
    assert data.samples[2, 0] == 2.0  # original untouched


def test_empty_dataset_rejected():
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# Privacy params and growth specs
# ---------------------------------------------------------------------------


def test_privacy_params_validation():
    assert PrivacyParams(1.0).is_pure
    assert not PrivacyParams(1.0, 1e-6).is_pure
    with pytest.raises(InvalidInputError):
        PrivacyParams(0.0)
    with pytest.raises(InvalidInputError):
        PrivacyParams(math.inf)
    with pytest.raises(InvalidInputError):
        PrivacyParams(1.0, 1.0)


def test_growth_spec_validation():
    assert GrowthSpec(1.0, 1.0).kappa == 1.0  # degenerate check allowed
    with pytest.raises(InvalidInputError):
        GrowthSpec(0.0, 2.0)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_project_radial_examples():
    ball = Domain(np.zeros(2), 1.0)
    np.testing.assert_allclose(project(ball, np.array([2.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(project(ball, np.array([0.3, 0.4])), [0.3, 0.4])


def _feasible_grid_argmin(balls, x, lo, hi, step):
    gx = np.arange(lo[0], hi[0] + step, step)
    gy = np.arange(lo[1], hi[1] + step, step)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([mx.ravel(), my.ravel()])
    feasible = np.ones(len(pts), dtype=bool)
    for c, r in balls:
        feasible &= np.linalg.norm(pts - c, axis=1) <= r
    pts = pts[feasible]
    dists = np.linalg.norm(pts - x, axis=1)
    return pts[int(np.argmin(dists))]


def _grid_projection_oracle(balls, x):
    # Dense 2-D search over feasible grid points, refined locally around the
    # coarse argmin: independent of the Dykstra code path.
    coarse = _feasible_grid_argmin(balls, x, (-2.0, -2.0), (2.0, 2.0), 2e-3)
    return _feasible_grid_argmin(balls, x, coarse - 5e-3, coarse + 5e-3, 2e-5)


def test_project_intersection_matches_grid_oracle():
    outer = Domain(np.zeros(2), 1.0)
    lens = Domain(np.array([1.5, 0.0]), 1.0, parent=outer)
    x = np.array([0.0, 5.0])
    got = project(lens, x)
    oracle = _grid_projection_oracle([(np.zeros(2), 1.0), (np.array([1.5, 0.0]), 1.0)], x)
    assert np.linalg.norm(got - oracle) < 1e-3
    assert lens.contains(got, tol=1e-9)


def test_project_idempotent_and_nonexpansive():
    rng = RngStream(3, 0)
    outer = Domain(np.array([0.0, 0.0, 0.0]), 1.0)
    lens = Domain(np.array([0.5, 0.0, 0.0]), 0.8, parent=outer)
    for _ in range(200):
        x = rng.gen.normal(0, 2, 3)
        y = rng.gen.normal(0, 2, 3)
        px, py = project(lens, x), project(lens, y)
        assert np.linalg.norm(project(lens, px) - px) <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9
        assert outer.contains(px, tol=1e-9)  # projected point lies in the parent


def test_project_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        project(Domain(np.zeros(1), 1.0), np.array([math.nan]))


def test_domain_diameter_and_interval():
    outer = Domain(np.zeros(1), 1.0)
    inner = Domain(np.array([0.5]), 0.2, parent=outer)
    assert inner.diameter() == pytest.approx(0.4)
    assert inner.interval() == pytest.approx((0.3, 0.7))
    assert outer.diameter() == pytest.approx(2.0)


def test_zero_radius_projection_returns_center():
    dom = Domain(np.array([0.3, -0.1]), 0.0)
    np.testing.assert_allclose(project(dom, np.array([5.0, 5.0])), [0.3, -0.1])


# ---------------------------------------------------------------------------
# Growth / gradient-domination verification
# ---------------------------------------------------------------------------


def test_verify_growth_half_quadratic_is_tight():
    dom = Domain(np.zeros(1), 1.0)
    spec = GrowthSpec(1.0, 2.0)
    rep = verify_growth(lambda X: 0.5 * X[:, 0] ** 2, np.zeros(1), 0.0, spec, 2000, dom)
    assert rep.max_violation <= 1e-12  # equality case: (lam/kappa) x^2 = f


def test_verify_growth_absolute_value_degenerate_kappa_one():
    dom = Domain(np.zeros(1), 1.0)
    spec = GrowthSpec(1.0, 1.0)
    rep = verify_growth(lambda X: np.abs(X[:, 0]), np.zeros(1), 0.0, spec, 2000, dom)
    # Every probe ties at an exact zero defect; the first probe is reported.
    assert rep.max_violation == 0.0
    assert rep.n_probes == 2000
    np.testing.assert_array_equal(rep.argmax, probe_points(dom, np.zeros(1), 2000)[0])


def test_verify_growth_detects_violations():
    dom = Domain(np.zeros(1), 1.0)
    spec = GrowthSpec(4.0, 2.0)  # claims 2 x^2 <= 0.5 x^2: false
    rep = verify_growth(lambda X: 0.5 * X[:, 0] ** 2, np.zeros(1), 0.0, spec, 2000, dom)
    assert rep.max_violation > 0.1
    # The defect 1.5 x^2 is largest on the boundary.
    assert abs(rep.argmax[0]) == pytest.approx(1.0)


def test_verify_growth_sharp_instance_grid_oracle():
    # Independent dense-grid evaluation of the same defect quantity.
    inst = make_sharp_growth_1d(kappa=1.5, bias_delta=0.25)
    grid = np.linspace(-1.0, 1.0, 10_001)
    vals = inst.pop_value_many(grid[:, None])
    defect = (1.0 / 1.5) * np.abs(grid - inst.xstar[0]) ** 1.5 - (vals - inst.fstar)
    assert defect.max() <= 1e-7
    rep = verify_growth(
        inst._pop_value_many, inst.xstar, inst.fstar, inst.growth, 10_000, inst.domain
    )
    assert rep.max_violation <= 1e-7


def test_verify_kl_closed_form_example():
    # f = (lam/kappa)|x|^kappa with kappa=2, lam=1 at x=0.5:
    # gap = 0.125, gradient 0.5, bound = e * 0.25.
    gap = 0.125
    bound = math.e * 0.25
    assert gap - bound < 0
    dom = Domain(np.zeros(1), 1.0)
    spec = GrowthSpec(1.0, 2.0)
    rep = verify_kl(
        lambda X: 0.5 * X[:, 0] ** 2,
        lambda X: X.copy(),
        np.zeros(1),
        0.0,
        spec,
        2000,
        dom,
    )
    assert rep.max_violation <= 1e-9
    # Interior probes only: the check pulls every probe inside 0.98 R.
    assert abs(rep.argmax[0]) <= 0.98


def test_verify_kl_zero_at_minimizer():
    spec = GrowthSpec(1.0, 2.0)
    f = lambda x: 0.5 * x[0] ** 2
    g = lambda x: np.array([x[0]])
    x = np.zeros(1)
    assert f(x) - math.e * np.linalg.norm(g(x)) ** 2 == 0.0


def test_verify_kl_kappa4_instance_interior_probes():
    inst = make_uniform_convex(d=1, kappa=4, lam=0.25, L=2.0, R=1.0, bias_delta=0.1)
    rep = verify_kl(
        inst._pop_value_many,
        inst._pop_grad,
        inst.xstar,
        inst.fstar,
        inst.growth,
        1000,
        inst.domain,
    )
    assert rep.max_violation <= 1e-7


def test_probe_points_stay_in_the_ball_and_reject_intersections():
    dom = Domain(np.array([0.2, -0.1]), 0.5)
    xstar = np.array([0.6, -0.1])  # on the boundary: near probes spill outside
    for shrink in (1.0, 0.98):
        pts = probe_points(dom, xstar, 3000, RngStream(4, 0), interior_shrink=shrink)
        assert pts.shape == (3000, 2)
        assert np.linalg.norm(pts - dom.center, axis=1).max() <= shrink * 0.5 * (1 + 1e-12)
    lens = Domain(np.array([0.1, 0.0]), 0.5, parent=dom)
    with pytest.raises(InvalidInputError, match="single-ball"):
        probe_points(lens, xstar, 100)


# ---------------------------------------------------------------------------
# Loss oracle contract
# ---------------------------------------------------------------------------


def test_callable_loss_batch_defaults():
    loss = CallableLoss(
        lambda x, s: float((x[0] - s[0]) ** 2),
        lambda x, s: np.array([2.0 * (x[0] - s[0])]),
        lipschitz=4.0,
    )
    samples = np.array([[0.0], [1.0]])
    x = np.array([0.25])
    assert loss.batch_value(x, samples) == pytest.approx(0.5 * (0.0625 + 0.5625))
    np.testing.assert_allclose(loss.batch_subgrad(x, samples), [2 * 0.25 - 1.0])


def test_subgradient_bound_probes():
    inst = make_uniform_convex(d=2, kappa=3, lam=0.5, L=4.0, R=1.0, bias_delta=0.2)
    rng = RngStream(9, 0)
    data = inst.draw(50, rng)
    for _ in range(500):
        x = project(inst.domain, rng.gen.normal(0, 0.7, 2))
        s = data.samples[rng.gen.integers(0, 50)]
        assert np.linalg.norm(inst.loss.batch_subgrad(x, s[None])) <= inst.loss.lipschitz + 1e-12


def test_convexity_along_segments():
    inst = make_sharp_growth_1d(kappa=1.5, bias_delta=0.25)
    rng = RngStream(10, 0)
    for _ in range(500):
        x = rng.gen.uniform(-1, 1, 1)
        y = rng.gen.uniform(-1, 1, 1)
        alpha = rng.gen.random()
        s = np.array([[1.0 if rng.gen.random() < 0.5 else -1.0]])  # a one-sample batch
        mid = alpha * x + (1 - alpha) * y
        lhs = inst.loss.batch_value(mid, s)
        rhs = alpha * inst.loss.batch_value(x, s) + (1 - alpha) * inst.loss.batch_value(y, s)
        assert lhs <= rhs + 1e-9
