import dataclasses

import numpy as np
import pytest

from blab.boundary import (BOUNDARY_TOLERANCE, adversarial_overshoot,
                           bisect_along_segment, hit_boundary,
                           project_dataset, project_to_boundary)
from blab.data import Dataset, gen_gaussian_blobs
from blab.geometry import halfspace_projection
from blab.nn import TrainConfig, init_network, margin, train
from helpers import linear_net


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
    res = project_to_boundary(net, [4.0, 3.0], label, data)
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
        res = project_to_boundary(net, x, label, data)
        exact = abs(float(w @ x) + b)
        assert res.converged
        assert res.distance == pytest.approx(exact, abs=1e-6)


def test_point_on_boundary_projects_to_itself():
    net = linear_net([1.0, 0.0], 0.0)
    res = hit_boundary(net, np.array([0.0, 2.0]))
    assert res.converged and res.distance == 0.0


def test_bisect_requires_sign_change():
    net = linear_net([1.0, 0.0], 0.0)
    root = bisect_along_segment(net, [-1.0, 0.0], [2.0, 0.0])
    assert abs(margin(net, root)) <= BOUNDARY_TOLERANCE
    with pytest.raises(ValueError):
        bisect_along_segment(net, [1.0, 0.0], [2.0, 0.0])


def test_residual_within_tolerance_on_trained_net(easy_blobs):
    net = init_network([2, 16, 16, 2], seed=4)
    train(net, easy_blobs, TrainConfig(max_epochs=2000, batch_size=16, seed=4))
    _, results = project_dataset(net, easy_blobs)
    for r in results:
        if r.converged:
            assert r.residual <= BOUNDARY_TOLERANCE
            assert abs(margin(net, r.point)) <= BOUNDARY_TOLERANCE


def test_distance_never_exceeds_nearest_opposite_sample(easy_blobs):
    net = init_network([2, 16, 16, 2], seed=4)
    train(net, easy_blobs, TrainConfig(max_epochs=2000, batch_size=16, seed=4))
    _, results = project_dataset(net, easy_blobs)
    for i, r in enumerate(results):
        opp = easy_blobs.samples[easy_blobs.labels != easy_blobs.labels[i]]
        nearest = np.linalg.norm(opp - easy_blobs.samples[i], axis=1).min()
        assert r.distance <= nearest + 1e-9


def test_overshoot_crosses_boundary():
    x = np.array([4.0, 3.0])
    net, data, label = _linear_case([0.6, 0.8], 0.0, x)
    res = project_to_boundary(net, x, label, data)
    adv = adversarial_overshoot(net, res, kappa=0.1)
    np.testing.assert_allclose(adv, x + 1.1 * res.vector, atol=1e-12)
    assert margin(net, adv) * margin(net, x) < 0
    bogus = dataclasses.replace(res, residual=1.0, converged=False)
    with pytest.raises(ValueError):
        adversarial_overshoot(net, bogus, kappa=0.1)


def test_project_dataset_rejects_misclassified():
    net = linear_net([1.0, 0.0], 0.0)
    data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="misclassified"):
        project_dataset(net, data)


def test_project_dataset_thread_count_does_not_change_results(monkeypatch, easy_blobs):
    net = init_network([2, 16, 2], seed=6)
    train(net, easy_blobs, TrainConfig(max_epochs=2000, batch_size=16, seed=6))
    monkeypatch.setenv("BLAB_THREADS", "1")
    serial, _ = project_dataset(net, easy_blobs)
    monkeypatch.setenv("BLAB_THREADS", "4")
    threaded, _ = project_dataset(net, easy_blobs)
    np.testing.assert_array_equal(serial.samples, threaded.samples)


def test_projection_on_curved_boundary_finds_near_branch():
    """A trained net with a curved boundary: the solver result must not beat
    the segment upper bound and must sit on the boundary."""
    data = gen_gaussian_blobs(2, 30, (np.array([-1.5, 0.0]), np.array([1.5, 0.0])),
                              0.6, seed=12)
    net = init_network([2, 16, 16, 2], seed=12)
    report = train(net, data, TrainConfig(max_epochs=3000, batch_size=30, seed=12))
    assert report.stopped_reason == "criterion_met"
    for i in range(0, len(data), 7):
        res = project_to_boundary(net, data.samples[i], int(data.labels[i]), data)
        assert res.converged
        assert res.residual <= BOUNDARY_TOLERANCE
