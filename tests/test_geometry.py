import json
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blab.geometry import (GRID_SLAB_POINTS, GridBoundary, PiecewiseLinearBoundary,
                           check_claim1_chain, check_claim2_product, halfspace_projection,
                           ratio_bound)
from blab.nn import margin_batch
from blab.rng import derive_seed, make_rng
from blab.verify import CROSS_CHECK_STEP, _train_2d_net, random_claim1_instance
from helpers import linear_net

BOX = ((-4.0, 4.0), (-3.0, 3.0))  # the box of the frozen oracle fixtures below


def test_halfspace_projection_frozen():
    p = halfspace_projection([0.6, 0.8], 0.0, [4.0, 3.0])
    np.testing.assert_allclose(p, [1.12, -0.84], atol=1e-12)
    with pytest.raises(ValueError):
        halfspace_projection([0.0, 0.0], 1.0, [1.0, 1.0])


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.floats(-3, 3))
def test_halfspace_projection_properties(wv, xv, b):
    w = np.array(wv)
    x = np.array(xv)
    if np.linalg.norm(w) < 1e-3:
        return
    p = halfspace_projection(w, b, x)
    assert abs(float(w @ p) + b) < 1e-7          # lands on the plane
    resid = (x - p) - (float(w @ (x - p)) / float(w @ w)) * w
    assert np.linalg.norm(resid) < 1e-7          # displacement parallel to w


def test_grid_boundary_matches_analytic_line():
    w = np.array([1.0, 1.0])
    field = GridBoundary(lambda pts: pts @ w - 1.0, ((-2.0, 2.0), (-2.0, 2.0)), 1e-3)
    points = np.array([[0.0, 0.0], [1.5, -0.5], [-1.0, 1.2]])
    _, d = field.nearest(points)
    exact = [np.linalg.norm(halfspace_projection(w, -1.0, x) - x) for x in points]
    np.testing.assert_allclose(d, exact, rtol=0, atol=2e-3)


def _one_shot_crossings(margin_fn, bounds, step):
    """Reference: the whole grid in one margin call, then the same bisection."""
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    xs = np.arange(x_lo, x_hi + step / 2, step)
    ys = np.arange(y_lo, y_hi + step / 2, step)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    sign = np.sign(margin_fn(pts)).reshape(len(xs), len(ys))
    ix, iy = np.nonzero(sign[:-1, :] * sign[1:, :] < 0)
    jx, jy = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    a = np.vstack([np.column_stack([xs[ix], ys[iy]]), np.column_stack([xs[jx], ys[jy]])])
    b = np.vstack([np.column_stack([xs[ix + 1], ys[iy]]), np.column_stack([xs[jx], ys[jy + 1]])])
    zx, zy = np.nonzero(sign == 0)
    if len(a):
        ma = margin_fn(a)
        for _ in range(50):
            mid = 0.5 * (a + b)
            mm = margin_fn(mid)
            left = mm * ma < 0
            b = np.where(left[:, None], mid, b)
            a = np.where(left[:, None], a, mid)
            ma = np.where(left, ma, mm)
    return np.vstack([0.5 * (a + b), np.column_stack([xs[zx], ys[zy]])])


@pytest.mark.parametrize("field, bounds, step", [
    (lambda pts: pts @ np.array([1.0, 1.0]) - 1.0, ((-2.0, 2.0), (-2.0, 2.0)), 1e-2),
    (lambda pts: pts[:, 0] - 2.0 * pts[:, 1], ((-1.0, 1.0), (-1.0, 1.0)), 0.125),
    (lambda pts: pts[:, 1] - np.sin(pts[:, 0]), ((-6.0, 6.0), (-1.5, 1.5)), 1e-2),
], ids=["analytic_line", "exact_zeros", "sine_across_seams"])
def test_grid_scan_matches_one_shot_scan(field, bounds, step):
    expected = _one_shot_crossings(field, bounds, step)
    np.testing.assert_array_equal(GridBoundary(field, bounds, step).crossings, expected)


def test_grid_cases_reach_zeros_and_slab_seams():
    # the cases above must exercise exact zeros and x-flips on a slab seam
    xs = ys = np.arange(-1.0, 1.0 + 0.0625, 0.125)
    assert (xs[:, None] - 2.0 * ys[None, :] == 0).sum() >= 5
    xs, ys = np.arange(-6.0, 6.005, 1e-2), np.arange(-1.5, 1.505, 1e-2)
    rows = GRID_SLAB_POINTS // len(ys)
    assert len(xs) > 3 * rows
    sign = np.sign(ys[None, :] - np.sin(xs[:, None]))
    ix, _ = np.nonzero(sign[:-1] * sign[1:] < 0)
    assert ((ix + 1) % rows == 0).sum() >= 3


def test_grid_scan_memory_is_bounded_by_its_slab():
    # 1001 x 1001 grid points: a one-shot scan holds 16 MiB in the points
    # alone, a scan in 8192-point slabs peaks at about 0.6 MiB
    w = np.array([1.0, 1.0])
    tracemalloc.start()
    try:
        field = GridBoundary(lambda pts: pts @ w - 1.0, ((-2.0, 2.0), (-2.0, 2.0)), 4e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(field.crossings) > 1000
    assert peak < 2**20


def test_grid_boundary_rejects_empty_field():
    with pytest.raises(ValueError, match="no margin sign change"):
        GridBoundary(lambda pts: np.ones(len(pts)), ((-1.0, 1.0), (-1.0, 1.0)), 0.1)
    with pytest.raises(ValueError, match="step must be positive"):
        GridBoundary(lambda pts: pts[:, 0], ((-1.0, 1.0), (-1.0, 1.0)), 0)


def test_grid_zeros_without_a_sign_change_are_the_crossings():
    # -x**2 touches zero on the lattice line x = 0 but never changes sign
    field = GridBoundary(lambda pts: -pts[:, 0] ** 2, ((-1.0, 1.0), (-1.0, 1.0)), 0.5)
    ys = np.arange(-1.0, 1.25, 0.5)
    np.testing.assert_array_equal(field.crossings, np.column_stack([np.zeros(5), ys]))
    point, d = field.nearest([[0.3, 0.0]])
    np.testing.assert_array_equal(point, [[0.0, 0.0]])
    assert d.tolist() == [0.3]


@pytest.fixture(scope="module")
def trained_net():
    return _train_2d_net(3)  # a [2, 16, 16, 2] net as oracle_suite trains it


@pytest.fixture(scope="module")
def criterion04_nets():
    """Nets 0-2 of criterion 04 (oracle_suite, seed 77) and the samples it picks."""
    rng = make_rng(77, stream=0x04AC)
    nets = []
    for n in range(3):
        net, data = _train_2d_net(derive_seed(77, n))
        nets.append((net, rng.choice(len(data), size=5, replace=False), data.samples))
    return nets


def test_grid_scan_matches_one_shot_scan_on_criterion04_nets(criterion04_nets):
    for net, _, _ in criterion04_nets:
        field = partial(margin_batch, net)
        np.testing.assert_array_equal(GridBoundary(field, BOX, CROSS_CHECK_STEP).crossings,
                                      _one_shot_crossings(field, BOX, CROSS_CHECK_STEP))


# pieces, segments, picked samples and exact distances, frozen from the
# per-piece split that the batched split replaced
FROZEN_ORACLE = [
    (437, 28, [18, 19, 10, 6, 22], [2.0689177002561343, 1.4347586512990032, 1.7344356605681592,
                                    1.9166697688612626, 1.0787729120872813]),
    (505, 28, [22, 24, 78, 46, 34], [1.2563478200462588, 2.781625041950832, 1.1250281691271378,
                                     1.8940112652591607, 1.832322845399202]),
    (469, 32, [70, 53, 10, 65, 57], [1.7403100587796132, 1.4500239174716392, 1.9376858815751041,
                                     2.0406938700969617, 1.901634677281697]),
]


def test_exact_oracle_frozen_on_criterion04_nets(criterion04_nets):
    for (net, picks, samples), (pieces, segments, frozen_picks, dists) in zip(
            criterion04_nets, FROZEN_ORACLE):
        exact = PiecewiseLinearBoundary(net.weights, net.biases, BOX)
        assert (len(exact.pieces), len(exact.segments)) == (pieces, segments)
        assert picks.tolist() == frozen_picks
        np.testing.assert_allclose(exact.nearest(samples[picks])[1], dists, rtol=0, atol=1e-12)


def _single_point_answers(oracle, points):
    """oracle.nearest's answers for points, one one-row query at a time."""
    feet, dists = zip(*(oracle.nearest(x[None]) for x in points))
    return np.vstack(feet), np.concatenate(dists)


def test_a_point_set_gets_the_answers_of_its_single_points(criterion04_nets, trained_net):
    net, data = trained_net
    grid = GridBoundary(partial(margin_batch, net), BOX, CROSS_CHECK_STEP)
    cases = [(grid, data.samples)] + [
        (PiecewiseLinearBoundary(net.weights, net.biases, BOX), samples)
        for net, _, samples in criterion04_nets]
    for oracle, points in cases:
        feet, dists = oracle.nearest(points)
        assert (feet.shape, dists.shape) == ((len(points), 2), (len(points),))
        for got, single in zip((feet, dists), _single_point_answers(oracle, points)):
            assert got.tobytes() == single.tobytes()  # bit for bit


def test_exact_boundary_of_linear_net_is_the_halfspace():
    w, b = np.array([0.7, -1.3]), 0.4
    net = linear_net(w, b)
    exact = PiecewiseLinearBoundary(net.weights, net.biases, BOX)
    assert len(exact.pieces) == 1 and len(exact.segments) == 1
    points = np.array([[0.0, 0.0], [2.5, 1.0], [-3.0, -2.0]])
    p, d = exact.nearest(points)
    feet = np.array([halfspace_projection(w, b, x) for x in points])
    np.testing.assert_allclose(d, np.linalg.norm(feet - points, axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(p, feet, atol=1e-12)


def test_exact_boundary_of_absolute_value_net():
    # margin = relu(x0) + relu(-x0) - 1 = |x0| - 1: the boundary is x0 = +-1
    weights = [np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]])]
    biases = [np.zeros(2), np.array([0.0, -1.0])]
    exact = PiecewiseLinearBoundary(weights, biases, ((-2.0, 2.0), (-2.0, 2.0)))
    p, d = exact.nearest([[0.2, 0.3], [-1.5, 1.0]])
    np.testing.assert_allclose(d, [0.8, 0.5], rtol=0, atol=1e-12)
    np.testing.assert_allclose(p[0], [1.0, 0.3], atol=1e-12)


def test_exact_boundary_rejects_constant_sign_and_wrong_width():
    with pytest.raises(ValueError, match="no decision boundary"):
        PiecewiseLinearBoundary([np.zeros((2, 2))], [np.array([0.0, 1.0])], BOX)
    with pytest.raises(ValueError, match="2-dimensional"):
        PiecewiseLinearBoundary([np.ones((2, 3))], [np.zeros(2)], BOX)


def _area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def test_exact_pieces_tile_the_box(trained_net):
    net, _ = trained_net
    exact = PiecewiseLinearBoundary(net.weights, net.biases, BOX)
    assert len(exact.pieces) > 100
    assert sum(_area(p) for p in exact.pieces) == pytest.approx(48.0, abs=1e-9)
    ends = exact.segments.reshape(-1, 2)
    assert np.abs(margin_batch(net, ends)).max() < 1e-9


def test_grid_never_beats_the_exact_oracle(trained_net):
    net, data = trained_net
    exact = PiecewiseLinearBoundary(net.weights, net.biases, BOX)
    grid = GridBoundary(lambda pts: margin_batch(net, pts), BOX, 1e-2)
    d_exact, d_grid = exact.nearest(data.samples)[1], grid.nearest(data.samples)[1]
    assert ((d_exact - 1e-9 <= d_grid) & (d_grid <= d_exact + 2e-2)).all()


def test_ratio_bound_frozen_and_errors():
    assert ratio_bound(3.0, 4.0) == pytest.approx(25.0 / 12.0, rel=1e-12)
    assert ratio_bound(7.0, 7.0) == pytest.approx(2.0, rel=1e-15)
    for a, b in ((0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            ratio_bound(a, b)
    # arrays go elementwise, and one non-positive entry refuses the whole call
    a, b = np.array([3.0, 7.0, 1e-8, 5.0]), np.array([4.0, 7.0, 1e8, 0.5])
    scalars = [ratio_bound(x, y) for x, y in zip(a.tolist(), b.tolist())]
    np.testing.assert_array_equal(ratio_bound(a, b), scalars)
    for bad in (np.array([1.0, 0.0]), np.array([2.0, -1.0])):
        with pytest.raises(ValueError):
            ratio_bound(bad, np.ones(2))
        with pytest.raises(ValueError):
            ratio_bound(np.ones(2), bad)


@given(st.floats(1e-8, 1e8), st.floats(1e-8, 1e8))
def test_ratio_bound_at_least_two(a, b):
    assert ratio_bound(a, b) >= 2.0 - 1e-12


def _orthogonal_instance(scale=0.2):
    """check_claim1_chain's arguments: two points 4 apart with orthogonal f/g vectors."""
    return {"points": np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]), "labels": np.array([0, 1]),
            "f_vectors": scale * np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            "g_vectors": scale * np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])}


def test_claim1_chain_passes_on_valid_orthogonal_instance():
    report = check_claim1_chain(**_orthogonal_instance())
    assert report["passed"]
    assert report["orthogonal_everywhere"]
    assert report["pairs_checked"] == 1
    assert not report["violations"]


def test_claim1_chain_reports_precondition_violation():
    inst = _orthogonal_instance(scale=3.0)  # vector norms exceed the pair distance
    report = check_claim1_chain(**inst)
    assert not report["precondition_ok"]
    assert report["precondition_violations"] == [[0, 1]]
    assert not report["passed"]


def test_claim1_chain_reports_strictness_and_averaged_chain_violations():
    # separation holds with equality (|f_0| + |f_1| = |g_0| + |g_1| = 4 = the pair
    # distance), so neither inequality is strict and the averaged chain reaches 4
    report = check_claim1_chain(np.array([[0.0, 0.0], [4.0, 0.0]]), np.array([0, 1]),
                                np.array([[2.0, 0.0], [-2.0, 0.0]]),
                                np.array([[0.0, 2.0], [0.0, -2.0]]))
    assert report["orthogonal_everywhere"] and report["precondition_ok"]
    assert (report["strictness_ok"], report["averaged_chain_ok"]) == (False, False)
    assert [v["step"] for v in report["violations"]] == ["strictness", "averaged_chain"]
    assert not report["passed"]


def test_claim1_chain_vacuous_without_orthogonality():
    inst = _orthogonal_instance()
    report = check_claim1_chain(**dict(inst, g_vectors=inst["f_vectors"].copy()))
    assert not report["orthogonal_everywhere"]
    assert report["passed"]  # no orthogonal strictness claims to violate


def test_claim2_flags_orthogonal_equal_norm_counterexample():
    inst = _orthogonal_instance()
    report = check_claim2_product(inst["f_vectors"], inst["g_vectors"])
    assert report["orthogonal_everywhere"]
    assert report["equal_products_premise"]
    assert not report["strict_product_inequality"]
    assert report["counterexample"]
    # |h| = |f| / sqrt(2) per sample for orthogonal equal norms
    assert report["prod_h"] == pytest.approx(report["prod_f"] / 2.0, rel=1e-12)


def test_claim2_accepts_collinear_equality():
    f = _orthogonal_instance()["f_vectors"]
    report = check_claim2_product(f, f.copy())
    assert not report["counterexample"]
    assert report["prod_h"] == pytest.approx(report["prod_f"], rel=1e-12)


def test_claim2_rejects_zero_vectors():
    inst = _orthogonal_instance()
    with pytest.raises(ValueError):
        check_claim2_product(np.zeros_like(inst["f_vectors"]), inst["g_vectors"])


def test_instance_json_roundtrip():
    # a failing case is stored as lists and replays from them
    inst = _orthogonal_instance()
    stored = json.loads(json.dumps({key: a.tolist() for key, a in inst.items()}))
    assert check_claim1_chain(**stored) == check_claim1_chain(**inst)
    assert check_claim2_product(stored["f_vectors"], stored["g_vectors"]) == \
        check_claim2_product(inst["f_vectors"], inst["g_vectors"])
    # a malformed one fails loudly
    for bad in ({"labels": inst["labels"][:1]}, {"f_vectors": inst["f_vectors"][:, :2]},
                {"g_vectors": inst["g_vectors"][:1]}):
        with pytest.raises(ValueError):
            check_claim1_chain(**dict(inst, **bad))
    with pytest.raises(ValueError):
        check_claim2_product(inst["f_vectors"], inst["g_vectors"][:1])


_HUGE_F = [-5418472.556872649, 5264804.449396003]
_HUGE_G = [-1122013.511583749, 1090193.1616459035]


def _passed(**flags):
    """A claim-1 report with every step ok, but for flags."""
    return dict({"orthogonal_everywhere": True, "precondition_ok": True,
                 "precondition_violations": [], "strictness_ok": True, "averaged_chain_ok": True,
                 "violations": [], "pairs_checked": 1, "passed": True},
                **flags)


def _claim2(*values):
    """A claim-2 report of these values, in its key order."""
    return dict(zip(["prod_f", "prod_g", "prod_h", "equal_products_premise",
                     "orthogonal_everywhere", "strict_product_inequality", "counterexample"],
                    values, strict=True))


# whole claim reports on every branch of both checkers, frozen as literals
@pytest.mark.parametrize("instance, claim1, claim2", [
    (_orthogonal_instance(), _passed(),
     _claim2(0.04000000000000001, 0.04000000000000001, 0.020000000000000007, True, True, False,
             True)),
    (_orthogonal_instance(3.0),
     _passed(precondition_ok=False, precondition_violations=[[0, 1]], pairs_checked=0,
             passed=False),
     _claim2(9.0, 9.0, 4.499999999999999, True, True, False, True)),
    ({"points": [[0.0, 0.0], [4.0, 0.0]], "labels": [0, 1],
      "f_vectors": [[2.0, 0.0], [-2.0, 0.0]], "g_vectors": [[0.0, 2.0], [0.0, -2.0]]},
     _passed(strictness_ok=False, averaged_chain_ok=False, passed=False, violations=[
         {"step": "strictness", "pair": [0, 1]},
         {"step": "averaged_chain", "pair": [0, 1], "lhs": 4.0, "rhs": 4.0}]),
     _claim2(4.0, 4.0, 2.0000000000000004, True, True, False, True)),
    (dict(_orthogonal_instance(), g_vectors=_orthogonal_instance()["f_vectors"]),
     _passed(orthogonal_everywhere=False),
     _claim2(0.04000000000000001, 0.04000000000000001, 0.04000000000000001, True, False, False,
             False)),
    # collinear f and g about 5e6 long, where |(f + g)/2| exceeds (|f| + |g|)/2 by one
    # rounding ulp: a triangle step with an absolute 1e-12 slack failed this instance
    ({"points": [[0.0, 0.0], [1e9, 0.0]], "labels": [0, 1],
      "f_vectors": [_HUGE_F, [-c for c in _HUGE_F]], "g_vectors": [_HUGE_G, [-c for c in _HUGE_G]]},
     _passed(orthogonal_everywhere=False),
     _claim2(57078010739961.97, 2447435449875.9863, 20790988162005.145, False, False, False,
             False)),
    # pairs (0,3) and (2,3) meet separation with equality, (1,4) breaks it
    ({"points": [[0.0, 0.0], [0.0, 3.0], [0.0, -3.0], [4.0, 0.0], [4.0, 3.0]],
      "labels": [0, 0, 0, 1, 1],
      "f_vectors": [[2.0, 0.0], [2.0, 0.0], [3.0, 0.0], [-2.0, 0.0], [-3.0, 0.0]],
      "g_vectors": [[0.0, 2.0], [0.0, 3.0], [0.0, 3.0], [0.0, -2.0], [0.0, -1.0]]},
     _passed(precondition_ok=False, precondition_violations=[[1, 4]], strictness_ok=False,
             averaged_chain_ok=False, pairs_checked=5, passed=False, violations=[
                 {"step": "strictness", "pair": [0, 3]},
                 {"step": "averaged_chain", "pair": [0, 3], "lhs": 4.0, "rhs": 4.0},
                 {"step": "strictness", "pair": [2, 3]},
                 {"step": "averaged_chain", "pair": [2, 3], "lhs": 5.0, "rhs": 5.0}]),
     _claim2(72.0, 36.0, 12.093386622447827, False, True, False, False)),
], ids=["passing", "precondition", "equality", "non_orthogonal", "triangle", "mixed"])
def test_claim_reports_are_frozen(instance, claim1, claim2):
    assert check_claim1_chain(**instance) == claim1
    assert check_claim2_product(instance["f_vectors"], instance["g_vectors"]) == claim2


def _equality_instance(seed):
    """check_claim1_chain's arguments: two points whose orthogonal f and g norms each sum
    to the pair distance, up to the rounding of |t d| + |(1 - t) d|."""
    rng = make_rng(seed, stream=0xE9)
    d = rng.standard_normal(2)
    t, u = rng.uniform(0.1, 0.9, size=2)
    across = np.array([-d[1], d[0]])
    return {"points": np.array([[0.0, 0.0], d]), "labels": np.array([0, 1]),
            "f_vectors": np.array([t * d, (t - 1) * d]),
            "g_vectors": np.array([u * across, (u - 1) * across])}


def _verdicts(report):
    """A claim-1 report without the lhs and rhs of its violations, which scale."""
    return dict(report, violations=[{key: value for key, value in v.items()
                                     if key not in ("lhs", "rhs")}
                                    for v in report["violations"]])


@given(st.integers(0, 2**32 - 1), st.sampled_from([random_claim1_instance, _equality_instance]),
       st.integers(-30, 30))
def test_claim1_verdicts_do_not_depend_on_the_scale(seed, instance, k):
    # scaling by 2**k is exact, so every norm, sum and distance scales exactly
    inst = instance(seed)
    scaled = dict(inst, **{key: np.ldexp(inst[key], k)
                           for key in ("points", "f_vectors", "g_vectors")})
    assert _verdicts(check_claim1_chain(**scaled)) == _verdicts(check_claim1_chain(**inst))
