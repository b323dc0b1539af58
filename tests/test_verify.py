import numpy as np
import pytest

from blab.geometry import halfspace_projection
from blab.verify import ON_BOUNDARY_TOL, claims_suite, exact_check_2d, gradient_suite, oracle_suite
from helpers import linear_net


def test_gradient_suite_small():
    results, failing = gradient_suite(pairs=20)
    assert failing is None
    assert all(ok for _, ok, _ in results)


def test_claims_suite_small():
    results, failing = claims_suite(instances=50, ratio_samples=2000)
    assert failing is None
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert any("counterexample" in n for n in names)


@pytest.mark.parametrize("seed", [
    pytest.param(3100471766, marks=pytest.mark.xfail(reason=(
        "CHANGES.md FOUND on the 1-net oracle suite: the exact nearest point of net 0 sample 57 "
        "lies at 164.6 deg, between the fan directions 163.125 and 168.75 deg, so the engine "
        "reports 2.083637 against the exact 2.010765 (3.6% over the 2% bound)"))),
    pytest.param(3599392323, marks=pytest.mark.xfail(reason=(
        "CHANGES.md FOUND on the 1-net oracle suite: the engine puts net 0 sample 27 at "
        "3.015660 against the exact 2.578085, at (-5.180, -1.180) (17% over the 2% bound); "
        "none of the 64 fan ray ends at radius 3.015660 lies across the boundary, while "
        "one of 128 does (205.3 deg)"))),
    *(pytest.param(seed, marks=pytest.mark.xfail(reason=(
        f"CHANGES.md FOUND on the 1-net oracle suite (perfbench oracle seed {bench}): the "
        f"engine puts net 0 sample {sample} at {engine} against the exact {exact} "
        f"({engine / exact - 1:.2%} over the 2% bound)")))
      for seed, bench, sample, engine, exact in [
          (3579755366, 577, 38, 1.579698, 1.546485),
          (372722248, 757, 36, 2.309373, 2.240371),
          (2820562475, 857, 67, 2.642092, 2.590015),
      ]),
])
def test_oracle_suite_one_net_engine_misses(seed):
    results, failing = oracle_suite(nets=1, seed=seed)
    assert results[0][1], failing


@pytest.mark.parametrize("seed", [210153483, 2724455604, 2311736575, 1972207522])
def test_oracle_suite_one_net_checks_in_the_box_of_its_points(seed):
    # at 210153483, net 0 sample 39's engine point lies outside [-4, 4] x [-3, 3], so a
    # fixed box read a 29% gap; at 2724455604, a box not snapped to the grid step puts
    # the cross-check 0.0418 from the exact distance, over its two steps; at 2311736575,
    # a fan sweep inside the slid distances put net 0 sample 27 at 2.110794 against the
    # exact 2.048945 (3.02% over), and one inside the unslid ones finds the exact branch;
    # at 1972207522, keeping only each sample's nearest fan crossing put net 0 sample 56
    # at 2.117832 against the exact 2.050697 (3.27% over), and a farther crossing slides
    # to the exact branch once every crossing joins the pool
    results, failing = oracle_suite(nets=1, seed=seed)
    assert results[0][1] and results[1][1], failing


def test_exact_check_fails_an_engine_point_off_the_boundary():
    # boundary 0.7 x - 1.3 y + 0.4 = 0; sample 0 lands on its foot, sample 1 halfway to
    # it, so its distance undercuts the exact one while staying under the 2% bound
    w, b = np.array([0.7, -1.3]), 0.4
    net = linear_net(w, b)
    samples = np.array([[0.0, 0.0], [2.5, 1.0]])
    feet = np.array([halfspace_projection(w, b, x) for x in samples])
    points = np.array([feet[0], (samples[1] + feet[1]) / 2])
    box, engine, exact, passed = exact_check_2d(net, samples, points)
    assert passed.tolist() == [True, False]
    assert engine[1] < exact[1] and engine[0] == pytest.approx(exact[0], abs=1e-12)
    # a point a hair off the boundary still passes, and alone, an undercut leaves the
    # box without a boundary, which the exact oracle refuses
    nudged = feet[0] + 0.5 * ON_BOUNDARY_TOL * exact[0] * w / np.linalg.norm(w)
    assert exact_check_2d(net, samples[:1], nudged[None])[3].tolist() == [True]
    with pytest.raises(ValueError, match="no decision boundary"):
        exact_check_2d(net, samples[1:], points[1:])
