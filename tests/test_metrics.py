import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blab.data import Dataset
from blab.metrics import global_difference, nearest_opposite_mean_distance, nearest_rows


def test_nearest_opposite_mean_distance_frozen():
    # class 0: (0,0), (1,1); class 1: (1,0), (0,2)
    # nearest opposite distances: 1, 1, 1, sqrt(2) -> mean (3 + sqrt(2)) / 4
    data = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 2.0]]),
                   np.array([0, 0, 1, 1]))
    expected = (3.0 + np.sqrt(2.0)) / 4.0
    assert nearest_opposite_mean_distance(data) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("samples, labels, expected", [
    # every pair's squared distance overflows
    ([-1e155, 1e155], [0, 1], np.inf),
    # 1e155 to 1 and 0 to 1e155 + 1e141 overflow, but neither is a sample's nearest
    ([0.0, 1e155, 1.0, 1e155 + 1e141], [0, 0, 1, 1], 5.001580776720874e+140),
], ids=["every_pair", "no_nearest_pair"])
def test_nearest_opposite_is_inf_only_if_a_nearest_distance_overflows(samples, labels, expected):
    data = Dataset(np.array(samples)[:, None], np.array(labels))
    assert nearest_opposite_mean_distance(data) == expected


@settings(deadline=None, max_examples=30)
@given(st.floats(0, 2 * np.pi), st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_nearest_opposite_distance_is_isometry_invariant(angle, shift):
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((8, 2))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = pts @ rot.T + np.array(shift)
    d0 = nearest_opposite_mean_distance(Dataset(pts, labels))
    d1 = nearest_opposite_mean_distance(Dataset(moved, labels))
    assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-9)


def _phi_per_sample(prev, cur, nxt) -> list[float]:
    """phi of each sample alone: 1 - its alpha."""
    return [global_difference(*(w[i:i + 1] for w in (prev, cur, nxt))) for i in range(len(prev))]


def test_global_difference_orthogonal_reprojection_contributes_nothing():
    # f projects along x onto x = 0, g projects along y onto y = 0.5;
    # orthogonal directions, so no alpha credit and phi = s
    prev = np.array([[-2.0, 0.0], [2.0, 1.0]])
    cur = np.array([[0.0, 0.0], [0.0, 1.0]])
    nxt = np.array([[0.0, 0.5], [0.0, 0.5]])
    assert global_difference(prev, cur, nxt) == 2.0
    assert _phi_per_sample(prev, cur, nxt) == [1.0, 1.0]


def test_global_difference_credits_collinear_steps_and_nothing_for_samples_that_stayed():
    prev = np.array([[-2.0, 0.0], [4.0, 0.0], [1.0, 1.0], [3.0, 3.0], [0.0, 6.0]])
    cur = np.array([[-1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [2.0, 3.0], [0.0, 4.0]])
    nxt = np.array([[-0.5, 0.0], [-1.0, 0.0], [0.0, 1.0], [2.0, 3.0], [0.1, 3.0]])
    # 0: g half as long as f, same direction; 1: g longer than f, clamped to 1;
    # 2: f did not move (an unconverged projection); 3: g did not move, which
    # counts as collinear with alpha 0; 4: cosine 1 / sqrt(1.01) ~ 0.995,
    # |g| / |f| = sqrt(1.01) / 2
    alphas = [0.5, 1.0, 0.0, 0.0, np.sqrt(1.01) / 2]
    assert _phi_per_sample(prev, cur, nxt) == pytest.approx([1.0 - a for a in alphas],
                                                            rel=0, abs=1e-15)
    assert global_difference(prev, cur, nxt) == pytest.approx(5.0 - sum(alphas), rel=1e-15)
    # sample 4 turned past ALIGNED_COSINE earns nothing
    assert _phi_per_sample(prev[4:], cur[4:], np.array([[0.5, 3.0]])) == [1.0]


# the last case's 2 class-1 rows are fewer than the 3 nearest rows asked for
@pytest.mark.parametrize("shape", [(900, 700, 2), (60, 50, 784), (1500, 2, 784)])
def test_nearest_opposite_blocks_match_the_direct_formula_bitwise(shape):
    s0, s1, n = shape
    rng = np.random.default_rng(s0 + n)
    x0 = rng.standard_normal((s0, n))
    x1 = rng.standard_normal((s1, n)) + 0.5
    d = np.sqrt(np.maximum(((x0[:, None, :] - x1[None, :, :]) ** 2).sum(axis=2), 0.0))
    direct = float((d.min(axis=1).sum() + d.min(axis=0).sum()) / (s0 + s1))
    data = Dataset(np.vstack([x0, x1]), np.array([0] * s0 + [1] * s1))
    assert nearest_opposite_mean_distance(data) == direct  # bitwise, not approx
    for a, b, ab in ((x0, x1, d), (x1, x0, d.T)):  # and the engine's nearest-rows query
        order, nearest = nearest_rows(a, b, 3)
        np.testing.assert_array_equal(order, np.argsort(ab, axis=1, kind="stable")[:, :3])
        np.testing.assert_array_equal(nearest, ab.min(axis=1))
