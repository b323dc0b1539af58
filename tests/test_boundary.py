import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blab.boundary
from blab.boundary import (BOUNDARY_TOLERANCE, FAN_DIRECTIONS, MAX_STEPS, METHOD_COMBINED,
                           REFINE_STALL_FRACTION, REFINE_TOLERANCE,
                           SEGMENT_CANDIDATES, adversarial_overshoot, bisect_along_segment,
                           hit_boundary, project_dataset, project_to_boundary)
from blab.config import parse_config
from blab.data import Dataset, NumericError, gen_gaussian_blobs, import_csv
from blab.experiments import build_dataset
from blab.geometry import halfspace_projection
from blab.metrics import NEAREST_BLOCK_ELEMENTS
from blab.nn import (MlpNetwork, TrainConfig, grad_input, init_network, is_correct, load_checkpoint,
                     margin, margin_batch, train)
from blab.verify import exact_check_2d
from helpers import linear_net

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _linear_case(w, b, x):
    """Dataset holding x and an opposite-side anchor, for the segment solver."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    net = linear_net(w, b)
    m = margin(net, x)
    label = 1 if m > 0 else 0
    anchor = halfspace_projection(w, b, x) - np.sign(m) * 2.0 * w / np.linalg.norm(w)
    data = Dataset(np.vstack([x, anchor]), np.array([label, 1 - label]))
    return net, data, label


def test_projection_matches_halfspace_frozen_case():
    # w = (0.6, 0.8) unit normal, boundary through the origin, x = (4, 3)
    net, data, label = _linear_case([0.6, 0.8], 0.0, [4.0, 3.0])
    [res] = project_to_boundary(net, [[4.0, 3.0]], [label], data)
    assert res.converged
    assert np.linalg.norm(res.point - [4.0, 3.0]) == pytest.approx(4.8, abs=1e-6)
    np.testing.assert_allclose(res.point, [1.12, -0.84], atol=1e-6)


def test_projection_random_linear_cases():
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        b = float(rng.standard_normal())
        x = 3.0 * rng.standard_normal(2)
        net, data, label = _linear_case(w, b, x)
        if abs(margin(net, x)) < 1e-6:
            continue
        [res] = project_to_boundary(net, [x], [label], data)
        exact = abs(float(w @ x) + b)
        assert res.converged
        assert np.linalg.norm(res.point - x) == pytest.approx(exact, abs=1e-6)


def test_point_on_boundary_projects_to_itself():
    net = linear_net([1.0, 0.0], 0.0)
    start = np.array([[0.0, 2.0]])
    points, m = hit_boundary(net, start, margin_batch(net, start))
    assert abs(m[0]) <= BOUNDARY_TOLERANCE
    np.testing.assert_array_equal(points, [[0.0, 2.0]])


def test_a_seed_stopped_by_a_zero_gradient_still_gets_its_segment_crossing():
    # margin 2*relu(x_0 - 1) - 1: flat at -1 left of x_0 = 1, zero at x_0 = 1.5. The
    # unconverged seed gets a fan as long as the distance 3 to the opposite sample;
    # its +x ray crosses at 1.4999999999999998, an ulp inside the crossing's 1.5
    net = MlpNetwork([np.array([[1.0, 0.0]]), np.array([[0.0], [2.0]])],
                     [np.array([-1.0]), np.array([0.0, -1.0])])
    data = Dataset(np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([0, 1]))
    seeds, m = hit_boundary(net, data.samples[:1], margin_batch(net, data.samples[:1]))
    np.testing.assert_array_equal(seeds, [[0.0, 0.0]])
    assert m[0] == -1.0
    [res] = project_to_boundary(net, data.samples[:1], data.labels[:1], data)
    assert res.converged and res.method == METHOD_COMBINED
    np.testing.assert_allclose(res.point, [1.5, 0.0], atol=1e-12)
    assert np.linalg.norm(res.point - data.samples[0]) == pytest.approx(1.5, abs=1e-12)


def test_a_sample_whose_seed_stalls_still_gets_a_fan():
    # a [2,32,32,2] net and the working set it trained on, from iteration 5 of
    # `iterproj configs/blobs2d.cfg --set experiment.master_seed=4 --set dataset.seed=504`
    # run with FAN_DIRECTIONS = 256. Sample 4 has margin -73.5, and its Newton seed
    # ends at about -31.5 after MAX_STEPS steps. With no fan for an unconverged
    # seed, its crossings slid to 0.428293 against the exact 0.059576 (7.2x); a
    # fan as long as its nearest opposite sample finds the near branch
    net = load_checkpoint(DATA / "fan256_input4_iter_5.blab")
    data = import_csv(DATA / "fan256_input4_iter_4.csv")
    _, m = hit_boundary(net, data.samples[4:5], margin_batch(net, data.samples[4:5]))
    assert abs(m[0]) > 1.0
    projected, results = project_dataset(net, data)
    assert all(r.converged for r in results)
    _, engine, exact, passed = exact_check_2d(net, data.samples, projected.samples)
    assert passed.all(), [f"sample {i}: engine {d!r}, exact {d_exact!r}"
                          for i, (d, d_exact, ok) in enumerate(zip(engine, exact, passed))
                          if not ok]


def test_an_unconverged_sample_is_its_own_projection(monkeypatch, easy_blobs):
    net = init_network([2, 16, 16, 2], seed=4)
    train(net, easy_blobs, TrainConfig(max_epochs=2000, batch_size=16), 4)
    monkeypatch.setattr(blab.boundary, "BOUNDARY_TOLERANCE", -1.0)  # nothing converges
    projected, results = project_dataset(net, easy_blobs)
    np.testing.assert_array_equal(projected.samples, easy_blobs.samples)
    m = margin_batch(net, easy_blobs.samples)
    for x, m_x, r in zip(easy_blobs.samples, m, results, strict=True):
        assert not r.converged
        np.testing.assert_array_equal(r.point, x)
        assert r.residual == abs(m_x)


def test_bisect_requires_sign_change():
    net = linear_net([1.0, 0.0], 0.0)
    a, b = np.array([[-1.0, 0.0]]), np.array([[2.0, 0.0]])
    roots, m = bisect_along_segment(net, a, b, margin_batch(net, a), margin_batch(net, b))
    assert abs(margin(net, roots[0])) <= BOUNDARY_TOLERANCE
    assert m[0] == margin_batch(net, roots)[0]
    # one row of two has both ends on the same side
    a = np.array([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="opposite margin signs"):
        bisect_along_segment(net, a, b.repeat(2, axis=0), margin_batch(net, a), [2.0, 2.0])


def test_residual_within_tolerance_on_trained_net(easy_blobs):
    net = init_network([2, 16, 16, 2], seed=4)
    train(net, easy_blobs, TrainConfig(max_epochs=2000, batch_size=16), 4)
    _, results = project_dataset(net, easy_blobs)
    for r in results:
        if r.converged:
            assert r.residual <= BOUNDARY_TOLERANCE
            assert abs(margin(net, r.point)) <= BOUNDARY_TOLERANCE


def test_distance_never_exceeds_nearest_opposite_sample(easy_blobs):
    net = init_network([2, 16, 16, 2], seed=4)
    train(net, easy_blobs, TrainConfig(max_epochs=2000, batch_size=16), 4)
    _, results = project_dataset(net, easy_blobs)
    for i, r in enumerate(results):
        opp = easy_blobs.samples[easy_blobs.labels != easy_blobs.labels[i]]
        nearest = np.linalg.norm(opp - easy_blobs.samples[i], axis=1).min()
        assert np.linalg.norm(r.point - easy_blobs.samples[i]) <= nearest + 1e-9


def test_overshoot_crosses_boundary():
    x = np.array([4.0, 3.0])
    net, data, label = _linear_case([0.6, 0.8], 0.0, x)
    [res] = project_to_boundary(net, [x], [label], data)
    [adv] = adversarial_overshoot(x[None], res.point[None], kappa=0.1)
    assert margin(net, adv) * margin(net, x) < 0


def test_an_overshoot_starts_from_the_sample_bit_for_bit():
    # for the first row, the sample rebuilt from the projection, point - (point - x),
    # is an ulp off x
    xs = np.array([[0.1, 0.7], [4.0, 3.0], [-1.3, 2.9]])
    net, data, label = _linear_case([0.6, 0.8], 0.3, xs[0])
    results = project_to_boundary(net, xs, [label] * len(xs), data)
    points = np.array([r.point for r in results])
    assert not np.array_equal(points[0] - (points[0] - xs[0]), xs[0])
    for kappa in (0.1, 0.5, 2.0):
        np.testing.assert_array_equal(adversarial_overshoot(xs, points, kappa),
                                      [x + (1 + kappa) * (p - x) for x, p in zip(xs, points)])


def test_project_dataset_rejects_misclassified():
    net = linear_net([1.0, 0.0], 0.0)
    data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0, 1]))
    with pytest.raises(NumericError, match="sample 0 is misclassified"):
        project_dataset(net, data)
    # every caller gets the check, naming the row of the points it was given
    with pytest.raises(NumericError, match="sample 1 is misclassified"):
        project_to_boundary(net, data.samples[::-1], data.labels[::-1], data)


def test_project_dataset_evaluates_the_data_once(monkeypatch):
    net, data = _trained_blobs2d()
    passes = []  # per margin_batch call, whether it evaluated the data's rows

    def counted(net, x):
        passes.append(np.array_equal(x, data.samples))
        return margin_batch(net, x)

    monkeypatch.setattr(blab.boundary, "margin_batch", counted)
    project_dataset(net, data)
    assert sum(passes) == 1


def test_projection_on_curved_boundary_finds_near_branch():
    """A trained net with a curved boundary: the solver result must not beat
    the segment upper bound and must sit on the boundary."""
    data = gen_gaussian_blobs(30, (np.array([-1.5, 0.0]), np.array([1.5, 0.0])),
                              0.6, seed=12)
    net = init_network([2, 16, 16, 2], seed=12)
    train(net, data, TrainConfig(max_epochs=3000, batch_size=30), 12)
    picks = np.arange(0, len(data), 7)
    for res in project_to_boundary(net, data.samples[picks], data.labels[picks], data):
        assert res.converged
        assert res.residual <= BOUNDARY_TOLERANCE


def test_fan_sweep_finds_a_line_just_inside_the_radius():
    # the line 0.6 x + 0.8 y = 0.5 lies D = 3.1 from (2, 3); a ray 1.01 D long reaches it
    # when it is within acos(1/1.01) of the direction to the line's foot, rays 0.99 D
    # long never do, and an infinite radius is skipped
    net = linear_net([0.6, 0.8], -0.5)
    x = np.array([[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]])
    m_x = margin_batch(net, x)
    d = 3.1
    owner, ends, m_end = blab.boundary._fan_sweep(net, x, m_x,
                                                  np.array([1.01 * d, 0.99 * d, np.inf]))
    angles = 2 * np.pi * np.arange(FAN_DIRECTIONS) / FAN_DIRECTIONS
    to_foot = -np.array([0.6, 0.8])
    reaching = np.column_stack([np.cos(angles), np.sin(angles)]) @ to_foot > 1 / 1.01
    assert reaching.sum() >= 2  # 2 at FAN_DIRECTIONS = 64: more than the nearest crossing
    np.testing.assert_array_equal(owner, np.zeros(reaching.sum(), dtype=int))
    pts, m = bisect_along_segment(net, x[owner], ends, m_x[owner], m_end)
    np.testing.assert_allclose(pts @ [0.6, 0.8] - 0.5, 0.0, atol=1e-12)
    np.testing.assert_allclose(m, 0.0, atol=BOUNDARY_TOLERANCE)
    dist = np.linalg.norm(pts - x[owner], axis=1)
    assert d - 1e-12 <= dist.min() <= d / np.cos(np.pi / FAN_DIRECTIONS)


def test_fan_sweep_tests_every_ray_end_in_one_margin_pass(monkeypatch):
    net, data = _trained_blobs2d()
    m_x = margin_batch(net, data.samples)
    gaps = np.linalg.norm(data.samples[:, None] - data.samples[None], axis=2)
    radius = np.where(data.labels[:, None] != data.labels[None], gaps, np.inf).min(axis=1)
    radius[0] = np.inf  # a sample whose seed did not converge gets no fan
    rows_per_call = []

    def counted(net, pts):
        rows_per_call.append(len(pts))
        return margin_batch(net, pts)

    monkeypatch.setattr(blab.boundary, "margin_batch", counted)
    owner, ends, m_end = blab.boundary._fan_sweep(net, data.samples, m_x, radius)
    monkeypatch.undo()
    assert rows_per_call == [(len(data) - 1) * FAN_DIRECTIONS]
    assert len(owner) and 0 not in owner
    _, m = bisect_along_segment(net, data.samples[owner], ends, m_x[owner], m_end)
    assert (np.abs(m) <= BOUNDARY_TOLERANCE).all()


def test_a_2d_projection_solves_every_bracket_in_one_call(monkeypatch):
    net, data = _trained_blobs2d()
    pick = blab.boundary._pick
    solves, picks = [], []  # bracket solves outside hit_boundary, and picks
    inside = []

    def counted_solve(*args):
        if not inside:
            solves.append(len(args[1]))
        return bisect_along_segment(*args)

    def counted_hit(net, starts, m):
        inside.append(True)
        try:
            return hit_boundary(net, starts, m)
        finally:
            inside.pop()

    def counted_pick(*args):
        picks.append(True)
        return pick(*args)

    monkeypatch.setattr(blab.boundary, "bisect_along_segment", counted_solve)
    monkeypatch.setattr(blab.boundary, "hit_boundary", counted_hit)
    monkeypatch.setattr(blab.boundary, "_pick", counted_pick)
    project_dataset(net, data)
    assert len(solves) == 1 and solves[0] > SEGMENT_CANDIDATES * len(data)  # fan rays too
    assert len(picks) == 1


def _per_sample_candidates(net, points, labels, data):
    """The crossing-candidate rule as the engine once ran it, one sample at a
    time: each sample's SEGMENT_CANDIDATES nearest data samples of the other
    label and the other margin sign, nearest first and ties to the lower
    index, and its distance to the nearest of them (inf with none)."""
    m_data, m_x = margin_batch(net, data.samples), margin_batch(net, points)
    near, reach = [], []
    for x, label, m in zip(points, labels, m_x):
        usable = np.flatnonzero((data.labels != label) & (m_data * m < 0))
        dists = np.linalg.norm(data.samples[usable] - x, axis=1)
        near.append(usable[np.argsort(dists, kind="stable")[:SEGMENT_CANDIDATES]])
        reach.append(dists.min(initial=np.inf))
    return near, np.array(reach)


def _labelled(net, pts):
    """pts labelled by the net's own margin signs, so every one is correctly classified."""
    return Dataset(pts, (margin_batch(net, pts) > 0).astype(int))


def _stalled_seed_case():
    # the committed net and working set whose sample 4's Newton seed stalls:
    # its fan radius is its nearest candidate's distance
    data = import_csv(DATA / "fan256_input4_iter_4.csv")
    return load_checkpoint(DATA / "fan256_input4_iter_5.blab"), data.samples, data.labels, data


def _misclassified_data_sample_case():
    # class 0's sample nearest the boundary, relabelled 1, is the nearest label-1
    # sample of its class-0 neighbours but has their margin sign: no candidate
    net = init_network([2, 16, 16, 2], seed=3)
    data = _labelled(net, 2.0 * np.random.default_rng(3).standard_normal((40, 2)))
    m = margin_batch(net, data.samples)
    data.labels[np.argmax(np.where(data.labels == 0, m, -np.inf))] = 1
    ok = is_correct(m, data.labels)
    return net, data.samples[ok], data.labels[ok], data


def _tied_opposite_points_case():
    # margin |x| + |y| - 0.5: class 1's unit points, (1, 0) twice, are all 1 from
    # (0, 0), and (0, 1), (0, -1) equally far from (0.1, 0); ties take the lower index
    eye = np.eye(2)
    net = MlpNetwork([np.vstack([eye, -eye]), np.vstack([np.zeros(4), np.ones(4)])],
                     [np.zeros(4), np.array([0.0, -0.5])])
    data = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.1, 0.0],
                             [1.0, 0.0], [0.0, -1.0]]), np.array([0, 1, 1, 1, 0, 1, 1]))
    return net, data.samples, data.labels, data


def _two_sample_case():
    # the linear oracle's shape: one opposite-class sample, fewer than SEGMENT_CANDIDATES
    net, data, label = _linear_case([0.6, 0.8], 0.3, [1.0, 2.0])
    return net, data.samples[:1].copy(), [label], data


def _points_not_data_case():
    # transfer's shape: the projected points are not the data's rows
    net = init_network([2, 16, 16, 2], seed=6)
    rng = np.random.default_rng(6)
    data = _labelled(net, 2.0 * rng.standard_normal((30, 2)))
    points = _labelled(net, 2.0 * rng.standard_normal((12, 2)))
    return net, points.samples, points.labels, data


def _784d_blocks_case():
    # each class's query spans several blocks of NEAREST_BLOCK_ELEMENTS differences
    net = init_network([784, 8, 2], seed=7)
    pts = np.random.default_rng(7).standard_normal((120, 784))
    net.biases[-1][1] -= np.median(margin_batch(net, pts))  # about half of pts in each class
    data = _labelled(net, pts)
    counts = np.bincount(data.labels)
    assert counts.min() * counts.max() * 784 > 2 * NEAREST_BLOCK_ELEMENTS
    return net, data.samples, data.labels, data


class _Solved(Exception):
    """Stops a projection at its bracket solve."""


@pytest.mark.parametrize("case", [
    _stalled_seed_case, _misclassified_data_sample_case, _tied_opposite_points_case,
    _two_sample_case, _points_not_data_case, _784d_blocks_case], ids=lambda c: c.__name__[1:-5])
def test_crossing_candidates_are_the_per_sample_rule(monkeypatch, case):
    # the segment ends the one bracket solve outside hit_boundary gets, and at
    # 2-D the fan radii, against the per-sample rule, bit for bit
    net, points, labels, data = case()
    fan_sweep, seen, inside = blab.boundary._fan_sweep, {}, []

    def counted_hit(*args):
        inside.append(True)
        try:
            return hit_boundary(*args)
        finally:
            inside.pop()

    def counted_fan(net, x, m_x, radius):
        seen["radius"], seen["fan"] = radius, fan_sweep(net, x, m_x, radius)
        return seen["fan"]

    def stopped_solve(net, a, b, m_a, m_b):
        if inside:
            return bisect_along_segment(net, a, b, m_a, m_b)
        seen["a"], seen["b"] = a, b
        raise _Solved

    monkeypatch.setattr(blab.boundary, "hit_boundary", counted_hit)
    monkeypatch.setattr(blab.boundary, "_fan_sweep", counted_fan)
    monkeypatch.setattr(blab.boundary, "bisect_along_segment", stopped_solve)
    with pytest.raises(_Solved):
        project_to_boundary(net, points, labels, data)
    monkeypatch.undo()

    x = np.asarray(points, dtype=float)
    near, reach = _per_sample_candidates(net, x, labels, data)
    owner = np.repeat(np.arange(len(x)), [len(n) for n in near])
    crossings = len(owner)
    np.testing.assert_array_equal(seen["a"][:crossings], x[owner])
    np.testing.assert_array_equal(seen["b"][:crossings], data.samples[np.concatenate(near)])
    if data.dim == 2:
        seed, m_seed = hit_boundary(net, x, margin_batch(net, x))
        np.testing.assert_array_equal(seen["radius"], np.where(
            np.abs(m_seed) <= BOUNDARY_TOLERANCE, np.linalg.norm(seed - x, axis=1), reach))
        np.testing.assert_array_equal(seen["b"][crossings:], seen["fan"][1])
    else:
        assert len(seen["b"]) == crossings


def test_illinois_is_exact_in_one_step_on_a_linear_segment(monkeypatch):
    net = linear_net([0.6, 0.8], -0.5)
    a = np.array([[-2.0, -1.0], [3.0, 0.5]])
    b = np.array([[2.0, 1.5], [-1.0, -2.0]])
    m_a, m_b = margin_batch(net, a), margin_batch(net, b)
    rows_per_call = []

    def counted(net, pts):
        rows_per_call.append(len(pts))
        return margin_batch(net, pts)

    monkeypatch.setattr(blab.boundary, "margin_batch", counted)
    roots, m = bisect_along_segment(net, a, b, m_a, m_b)
    assert rows_per_call == [2]
    np.testing.assert_allclose(roots @ [0.6, 0.8] - 0.5, 0.0, atol=1e-12)
    np.testing.assert_allclose(m, 0.0, atol=1e-12)


def test_illinois_roots_on_relu_segments_with_kinks():
    net = init_network([2, 16, 16, 2], seed=5)
    rng = np.random.default_rng(5)
    pts = 3.0 * rng.standard_normal((400, 2))
    m = margin_batch(net, pts)
    pos, neg = pts[m > BOUNDARY_TOLERANCE][:40], pts[m < -BOUNDARY_TOLERANCE][:40]
    assert len(pos) == len(neg) == 40

    def pattern(x):
        return (x @ net.weights[0].T + net.biases[0]) > 0

    # every segment crosses first-layer kinks between its ends
    assert (pattern(pos) != pattern(neg)).any(axis=1).all()
    roots, m_roots = bisect_along_segment(net, pos, neg, margin_batch(net, pos),
                                          margin_batch(net, neg))
    assert (np.abs(m_roots) <= BOUNDARY_TOLERANCE).all()
    assert (np.abs([margin(net, r) for r in roots]) <= BOUNDARY_TOLERANCE).all()
    # each root lies on its own segment
    t = np.einsum("ij,ij->i", roots - pos, neg - pos) / np.einsum("ij,ij->i", neg - pos, neg - pos)
    assert ((t > 0) & (t < 1)).all()
    np.testing.assert_allclose(roots, pos + t[:, None] * (neg - pos), atol=1e-12)


# Distances the per-sample solver that preceded the lockstep engine (Newton
# seed, bisection, tangent slide, one sample at a time) found for the 24
# samples of the 10-d net below.
PER_SAMPLE_SOLVER_10D = [
    1.0627467439536693, 0.6093108246782675, 1.054605418454682, 1.6503575355848323,
    0.4753029678551727, 0.10271778735290675, 0.5860563490193492, 0.44309509529893554,
    0.38240149973840315, 0.9011186560337414, 0.26055135884210623, 1.1142404162693804,
    0.888178167533282, 1.5962974675447903, 0.877177363366849, 0.3974973534878447,
    0.7195006175580769, 0.9771079384494631, 0.8002710059967925, 1.0865203926712292,
    0.6683501958216739, 0.32869794737385016, 1.1188166625975693, 0.4113364106973638]


def _trained_10d():
    c0, c1 = np.zeros(10), np.zeros(10)
    c0[0], c1[0] = -1.5, 1.5
    data = gen_gaussian_blobs(12, (c0, c1), 0.8, seed=31)
    net = init_network([10, 16, 16, 2], seed=31)
    train(net, data, TrainConfig(max_epochs=3000, batch_size=24), 31)
    return net, data


def _trained_blobs2d():
    cfg = parse_config(ROOT / "configs" / "blobs2d.cfg")
    data = build_dataset(cfg.dataset)
    net = init_network(cfg.dims, seed=cfg.master_seed)
    train(net, data, cfg.train, 0)
    return net, data


def test_engine_is_no_farther_than_the_per_sample_solver_at_10d():
    net, data = _trained_10d()
    _, results = project_dataset(net, data)
    for x, r, old in zip(data.samples, results, PER_SAMPLE_SOLVER_10D, strict=True):
        assert r.converged
        assert np.linalg.norm(r.point - x) <= old * 1.0025


def test_cascade_bytes_do_not_depend_on_blas_threads(tmp_path):
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "blab.cli", "iterproj",
                               str(ROOT / "configs" / "blobs2d.cfg"), "--iterations", "2",
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append(out)
    one, two = runs
    for sub in ("projections", "working"):
        assert sorted(p.name for p in (one / sub).iterdir()) == \
            sorted(p.name for p in (two / sub).iterdir())
    for path in [one / "records.csv", *(one / "projections").iterdir(), *(one / "working").iterdir()]:
        assert path.read_bytes() == (two / path.relative_to(one)).read_bytes(), path.name


def _sequential_slide(net, x, points, m, rows):
    """The slide before the lockstep step search, kept as its reference: each
    step tries eta = 1, 0.5, 0.25, ... down to REFINE_STALL_FRACTION, one
    hit_boundary call per halving, and a row keeps the first step that wins."""
    act = rows
    for _ in range(MAX_STEPS):
        if not len(act):
            break
        b = points[act]
        g = grad_input(net, b)
        g2 = np.einsum("ij,ij->i", g, g)
        if not g2.all():
            act, b, g, g2 = act[g2 != 0.0], b[g2 != 0.0], g[g2 != 0.0], g2[g2 != 0.0]
        v = x[act] - b
        tangent = v - (np.einsum("ij,ij->i", v, g) / g2)[:, None] * g
        keep = np.linalg.norm(tangent, axis=1) > REFINE_TOLERANCE
        act, b, tangent = act[keep], b[keep], tangent[keep]
        before = np.linalg.norm(b - x[act], axis=1)
        after = before.copy()
        moved = np.zeros(len(act), dtype=bool)
        search = np.arange(len(act))
        eta = 1.0
        while len(search) and eta >= REFINE_STALL_FRACTION:
            starts = b[search] + eta * tangent[search]
            p, mp = hit_boundary(net, starts, margin_batch(net, starts))
            d = np.linalg.norm(p - x[act[search]], axis=1)
            win = (np.abs(mp) <= BOUNDARY_TOLERANCE) & (d < before[search] - REFINE_TOLERANCE)
            won = act[search[win]]
            points[won], m[won] = p[win], mp[win]
            after[search[win]] = d[win]
            moved[search[win]] = True
            search = search[~win]
            eta *= 0.5
        act = act[moved & (before - after >= REFINE_STALL_FRACTION * after)]


def _slide_inputs(monkeypatch, net, data):
    """Copies of the arguments of every _slide call of one project_dataset."""
    calls = []
    real = blab.boundary._slide

    def recording(net, x, points, m, rows):
        calls.append(tuple(a.copy() for a in (x, points, m, rows)))
        real(net, x, points, m, rows)

    monkeypatch.setattr(blab.boundary, "_slide", recording)
    project_dataset(net, data)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("trained", [_trained_blobs2d, _trained_10d])
def test_lockstep_slide_keeps_the_largest_winning_step(monkeypatch, trained):
    net, data = trained()
    calls = _slide_inputs(monkeypatch, net, data)
    assert len(calls) == 1  # one slide over the whole candidate pool
    moved = 0
    for x, points, m, rows in calls:
        start = np.linalg.norm(points - x, axis=1)
        ref_points, ref_m = points.copy(), m.copy()
        _sequential_slide(net, x, ref_points, ref_m, rows)
        blab.boundary._slide(net, x, points, m, rows)
        # a slide never un-lands a row, so project_to_boundary picks among the rows it slid
        assert (np.abs(m[rows]) <= BOUNDARY_TOLERANCE).all()
        dist, ref_dist = (np.linalg.norm(p - x, axis=1) for p in (points, ref_points))
        moved += (dist != start).sum()
        np.testing.assert_array_equal(dist != start, ref_dist != start)
        # each hit_boundary batch holds other rows than the reference's, so
        # only the last bits may differ
        np.testing.assert_allclose(dist, ref_dist, rtol=1e-12, atol=0)
    assert moved


def test_a_halving_per_call_is_the_sequential_slide_bit_for_bit(monkeypatch):
    # a search budget of 0 gives each halving its own call, as at 784-d
    net, data = _trained_blobs2d()
    calls = _slide_inputs(monkeypatch, net, data)
    monkeypatch.setattr(blab.boundary, "SLIDE_SEARCH_MACS", 0)
    for x, points, m, rows in calls:
        ref = [a.copy() for a in (points, m)]
        _sequential_slide(net, x, *ref, rows)
        blab.boundary._slide(net, x, points, m, rows)
        for got, want in zip((points, m), ref):
            np.testing.assert_array_equal(got, want)


def test_a_slide_step_reroots_in_one_hit_boundary_call(monkeypatch):
    net, data = _trained_blobs2d()
    calls = _slide_inputs(monkeypatch, net, data)
    steps = []  # hit_boundary calls of each slide step
    inside = []

    def counted_grad(net, pts):
        if not inside:  # a slide step starts with its own gradient call
            steps.append(0)
        return grad_input(net, pts)

    def counted_hit(net, starts, m):
        steps[-1] += 1
        inside.append(True)
        try:
            return hit_boundary(net, starts, m)
        finally:
            inside.pop()

    monkeypatch.setattr(blab.boundary, "grad_input", counted_grad)
    monkeypatch.setattr(blab.boundary, "hit_boundary", counted_hit)
    for x, points, m, rows in calls:
        blab.boundary._slide(net, x, points, m, rows)
    assert max(steps) == 1  # every step fraction of a 2-D slide step in one call
