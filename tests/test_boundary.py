import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blab.boundary
from blab.boundary import (BOUNDARY_TOLERANCE, FAN_DIRECTIONS, MAX_REFINE_STEPS, METHOD_SEGMENT,
                           MIN_SLIDE_STEP, REFINE_STALL_FRACTION, REFINE_TOLERANCE,
                           adversarial_overshoot, bisect_along_segment, hit_boundary,
                           project_dataset, project_to_boundary)
from blab.config import parse_config
from blab.data import Dataset, NumericError, gen_gaussian_blobs
from blab.experiments import build_dataset
from blab.geometry import halfspace_projection
from blab.nn import (MlpNetwork, TrainConfig, grad_input, init_network, margin, margin_batch,
                     train)
from helpers import linear_net

ROOT = Path(__file__).resolve().parent.parent


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
    assert res.distance == pytest.approx(4.8, abs=1e-6)
    np.testing.assert_allclose(res.point, [1.12, -0.84], atol=1e-6)
    np.testing.assert_allclose(res.vector, res.point - np.array([4.0, 3.0]), atol=1e-12)


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
        assert res.distance == pytest.approx(exact, abs=1e-6)


def test_point_on_boundary_projects_to_itself():
    net = linear_net([1.0, 0.0], 0.0)
    start = np.array([[0.0, 2.0]])
    points, m = hit_boundary(net, start, margin_batch(net, start))
    assert abs(m[0]) <= BOUNDARY_TOLERANCE
    np.testing.assert_array_equal(points, [[0.0, 2.0]])


def test_a_seed_stopped_by_a_zero_gradient_still_gets_its_segment_crossing():
    # margin 2*relu(x_0 - 1) - 1: flat at -1 left of x_0 = 1, zero at x_0 = 1.5
    net = MlpNetwork([np.array([[1.0, 0.0]]), np.array([[0.0], [2.0]])],
                     [np.array([-1.0]), np.array([0.0, -1.0])])
    data = Dataset(np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([0, 1]))
    seeds, m = hit_boundary(net, data.samples[:1], margin_batch(net, data.samples[:1]))
    np.testing.assert_array_equal(seeds, [[0.0, 0.0]])
    assert m[0] == -1.0
    [res] = project_to_boundary(net, data.samples[:1], data.labels[:1], data)
    assert res.converged and res.method == METHOD_SEGMENT
    np.testing.assert_allclose(res.point, [1.5, 0.0], atol=1e-12)
    assert res.distance == pytest.approx(1.5, abs=1e-12)


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
        np.testing.assert_array_equal(r.vector, 0.0)
        assert r.distance == 0.0 and r.residual == abs(m_x)


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
        assert r.distance <= nearest + 1e-9


def test_overshoot_crosses_boundary():
    x = np.array([4.0, 3.0])
    net, data, label = _linear_case([0.6, 0.8], 0.0, x)
    [res] = project_to_boundary(net, [x], [label], data)
    adv = adversarial_overshoot(res, kappa=0.1)
    np.testing.assert_allclose(adv, x + 1.1 * res.vector, atol=1e-12)
    assert margin(net, adv) * margin(net, x) < 0
    bogus = dataclasses.replace(res, residual=1.0, converged=False)
    with pytest.raises(ValueError):
        adversarial_overshoot(bogus, kappa=0.1)


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
    data = gen_gaussian_blobs(2, 30, (np.array([-1.5, 0.0]), np.array([1.5, 0.0])),
                              0.6, seed=12)
    net = init_network([2, 16, 16, 2], seed=12)
    report = train(net, data, TrainConfig(max_epochs=3000, batch_size=30), 12)
    assert report.stopped_reason == "criterion_met"
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
    d = 3.1
    owner, pts, m, dist = blab.boundary._fan_sweep(net, x, margin_batch(net, x),
                                                   np.array([1.01 * d, 0.99 * d, np.inf]))
    angles = 2 * np.pi * np.arange(FAN_DIRECTIONS) / FAN_DIRECTIONS
    to_foot = -np.array([0.6, 0.8])
    reaching = np.column_stack([np.cos(angles), np.sin(angles)]) @ to_foot > 1 / 1.01
    assert reaching.sum() >= 2  # 2 at FAN_DIRECTIONS = 64: more than the nearest crossing
    np.testing.assert_array_equal(owner, np.zeros(reaching.sum(), dtype=int))
    np.testing.assert_allclose(pts @ [0.6, 0.8] - 0.5, 0.0, atol=1e-12)
    np.testing.assert_allclose(m, 0.0, atol=BOUNDARY_TOLERANCE)
    assert d - 1e-12 <= dist.min() <= d / np.cos(np.pi / FAN_DIRECTIONS)


def test_fan_sweep_tests_every_ray_end_in_one_margin_pass(monkeypatch):
    net, data = _trained_blobs2d()
    m_x = margin_batch(net, data.samples)
    gaps = np.linalg.norm(data.samples[:, None] - data.samples[None], axis=2)
    radius = np.where(data.labels[:, None] != data.labels[None], gaps, np.inf).min(axis=1)
    radius[0] = np.inf  # a sample with no converged row gets no fan
    rows_per_call = []  # margin passes outside the bracket solve
    inside = []

    def counted(net, pts):
        if not inside:
            rows_per_call.append(len(pts))
        return margin_batch(net, pts)

    def bracket_solve(*args):
        inside.append(True)
        try:
            return bisect_along_segment(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(blab.boundary, "margin_batch", counted)
    monkeypatch.setattr(blab.boundary, "bisect_along_segment", bracket_solve)
    owner, _, m, _ = blab.boundary._fan_sweep(net, data.samples, m_x, radius)
    assert rows_per_call == [(len(data) - 1) * FAN_DIRECTIONS]
    assert len(owner) and 0 not in owner
    assert (np.abs(m) <= BOUNDARY_TOLERANCE).all()


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
    data = gen_gaussian_blobs(10, 12, (c0, c1), 0.8, seed=31)
    net = init_network([10, 16, 16, 2], seed=31)
    report = train(net, data, TrainConfig(max_epochs=3000, batch_size=24), 31)
    assert report.stopped_reason == "criterion_met"
    return net, data


def _trained_blobs2d():
    cfg = parse_config(ROOT / "configs" / "blobs2d.cfg")
    data = build_dataset(cfg.dataset)
    net = init_network(cfg.dims, seed=cfg.master_seed)
    assert train(net, data, cfg.train, 0).stopped_reason == "criterion_met"
    return net, data


def test_engine_is_no_farther_than_the_per_sample_solver_at_10d():
    net, data = _trained_10d()
    _, results = project_dataset(net, data)
    for r, old in zip(results, PER_SAMPLE_SOLVER_10D, strict=True):
        assert r.converged
        assert r.distance <= old * 1.0025


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


def _sequential_slide(net, x, points, m, dist, rows):
    """The slide before the lockstep step search, kept as its reference: each
    step tries eta = 1, 0.5, 0.25, ... down to MIN_SLIDE_STEP, one
    hit_boundary call per halving, and a row keeps the first step that wins."""
    act = rows
    for _ in range(MAX_REFINE_STEPS):
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
        before = dist[act]
        moved = np.zeros(len(act), dtype=bool)
        search = np.arange(len(act))
        eta = 1.0
        while len(search) and eta >= MIN_SLIDE_STEP:
            starts = b[search] + eta * tangent[search]
            p, mp = hit_boundary(net, starts, margin_batch(net, starts))
            d = np.linalg.norm(p - x[act[search]], axis=1)
            win = (np.abs(mp) <= BOUNDARY_TOLERANCE) & (d < before[search] - REFINE_TOLERANCE)
            won = act[search[win]]
            points[won], m[won], dist[won] = p[win], mp[win], d[win]
            moved[search[win]] = True
            search = search[~win]
            eta *= 0.5
        after = dist[act]
        act = act[moved & (before - after >= REFINE_STALL_FRACTION * after)]


def _slide_inputs(monkeypatch, net, data):
    """Copies of the arguments of every _slide call of one project_dataset."""
    calls = []
    real = blab.boundary._slide

    def recording(net, x, points, m, dist, rows):
        calls.append(tuple(a.copy() for a in (x, points, m, dist, rows)))
        real(net, x, points, m, dist, rows)

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
    for x, points, m, dist, rows in calls:
        start = dist.copy()
        ref_points, ref_m, ref_dist = points.copy(), m.copy(), dist.copy()
        _sequential_slide(net, x, ref_points, ref_m, ref_dist, rows)
        blab.boundary._slide(net, x, points, m, dist, rows)
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
    for x, points, m, dist, rows in calls:
        ref = [a.copy() for a in (points, m, dist)]
        _sequential_slide(net, x, *ref, rows)
        blab.boundary._slide(net, x, points, m, dist, rows)
        for got, want in zip((points, m, dist), ref):
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
    for x, points, m, dist, rows in calls:
        blab.boundary._slide(net, x, points, m, dist, rows)
    assert max(steps) == 1  # every step fraction of a 2-D slide step in one call
