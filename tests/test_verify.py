import dataclasses
import json
import re

import numpy as np
import pytest

import blab.cli
import blab.verify
from blab.cli import EXIT_FAIL, EXIT_NUMERIC, main
from blab.data import Dataset
from blab.geometry import GridBoundary, check_claim1_chain, halfspace_projection
from blab.nn import MlpNetwork, init_network, margin_batch
from blab.rng import derive_seed, make_rng
from blab.verify import (FD_STEP, ON_BOUNDARY_TOL, claims_suite, exact_check_2d, gradient_suite,
                         oracle_suite, random_claim1_instance)
from helpers import linear_net, load_bench


def test_gradient_suite_small(monkeypatch):
    monkeypatch.setattr(blab.verify, "GRADIENT_PAIRS", 20)
    results, failing = gradient_suite()
    assert failing is None
    assert all(ok for _, ok, _ in results)


def test_claims_suite_small(monkeypatch):
    monkeypatch.setattr(blab.verify, "CLAIM_INSTANCES", 50)
    monkeypatch.setattr(blab.verify, "RATIO_SAMPLES", 2000)
    results, failing = claims_suite()
    assert failing is None
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert any("counterexample" in n for n in names)


@pytest.mark.parametrize("seed", [
    pytest.param(3100471766, marks=pytest.mark.xfail(reason=(
        "CHANGES.md FOUND on the 1-net oracle suite: the exact nearest point of net 0 sample 57 "
        "lies at 164.6 deg, between the fan directions 163.125 and 168.75 deg, so the engine "
        "reports 2.083637 against the exact 2.010765 (3.6% over the 2% bound)"))),
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


@pytest.mark.parametrize("seed", [210153483, 2724455604, 2311736575, 1972207522, 1672861077,
                                  3599392323])
def test_oracle_suite_one_net_checks_in_the_box_of_its_points(seed):
    # at 210153483, net 0 sample 39's engine point lies outside [-4, 4] x [-3, 3], so a
    # fixed box read a 29% gap; at 2724455604, a box not snapped to the grid step puts
    # the cross-check 0.0418 from the exact distance, over its two steps; at 2311736575,
    # a fan sweep inside the slid distances put net 0 sample 27 at 2.110794 against the
    # exact 2.048945 (3.02% over), and one inside the unslid ones finds the exact branch;
    # at 1972207522, keeping only each sample's nearest fan crossing put net 0 sample 56
    # at 2.117832 against the exact 2.050697 (3.27% over), and a farther crossing slides
    # to the exact branch once every crossing joins the pool; at 1672861077 (perfbench
    # oracle seed 864), with a Newton bound of 158 steps or fewer, net 0 sample 48 comes
    # out at 2.033580 against the exact 1.885818 (7.8% over the exact distance); at
    # 3599392323 (perfbench oracle seed 219), net 0 sample 27's Newton seed stalls 4.1e-5
    # from the apex of a thin wedge, at margin -2.0e-5, and with no fan for an unconverged
    # seed the slide of its crossings landed at 3.015660 against the exact 2.578085 (17%
    # over); a fan as long as its nearest opposite sample finds the apex
    results, failing = oracle_suite(nets=1, seed=seed)
    assert results[0][1] and results[1][1], failing


def _embed(monkeypatch, width, seed):
    """Runs oracle_suite's engine on each net lifted to `width` inputs: with Q a width x 2
    matrix of orthonormal columns, from a QR seeded by the suite seed, the net's first
    layer becomes W1 Q^T and its samples x Q^T, so its margin at Q x is the 2-D margin
    at x and its boundary is a cylinder over the 2-D one. Each engine point maps back
    with Q, and oracle_suite's exact, grid and linear checks judge it as at 2-D."""
    q = np.linalg.qr(make_rng(seed, stream=width).standard_normal((width, 2)))[0]
    real = blab.verify.project_to_boundary

    def embedded(net, data, rows):
        lifted = MlpNetwork([net.weights[0] @ q.T, *net.weights[1:]], net.biases)
        results = real(lifted, Dataset(data.samples @ q.T, data.labels), rows)
        return [dataclasses.replace(r, point=r.point @ q) for r in results]

    monkeypatch.setattr(blab.verify, "project_to_boundary", embedded)


# perfbench oracle seed s: the first failing sample's engine distance over its exact one
EMBEDDED_10D_MISSES = {12: 1.168, 17: 1.082, 37: 1.028, 38: 1.199, 43: 1.299, 60: 1.040}


@pytest.mark.parametrize("s", [pytest.param(s, marks=[pytest.mark.xfail(
    raises=AssertionError, reason=(
        f"ROADMAP item 30: above 2-D the engine has no fan, and at 10-d net 0's first "
        f"failing sample lies {EMBEDDED_10D_MISSES[s]:.3f} times its exact distance away, "
        f"over the 2% bound"))] if s in EMBEDDED_10D_MISSES else []) for s in range(1, 61)])
def test_oracle_suite_one_net_embedded_at_10d(monkeypatch, s):
    seed = load_bench().sub_seed(s, 0, "oracle")  # as perfbench and tools/gates.py seed it
    _embed(monkeypatch, 10, seed)
    results, failing = oracle_suite(nets=1, seed=seed)
    assert all(ok for _, ok, _ in results), failing


@pytest.mark.xfail(raises=AssertionError, reason=(
    "ROADMAP item 30: above 2-D the engine has no fan, and criterion 04's net 2 sample 57 "
    "lies 1.940495 away against the exact 1.901635 (2.04%, over the 2% bound)"))
def test_criterion_04_suite_embedded_at_784d(monkeypatch):
    _embed(monkeypatch, 784, 77)
    results, failing = oracle_suite()
    assert all(ok for _, ok, _ in results), failing


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


# a suite seed whose 1-net oracle suite passes every check
PASSING_ORACLE_SEED = 210153483


def _failed_in_cli(monkeypatch, tmp_path, capsys, suite, run):
    """The names of the checks that `blab verify suite` reports as FAIL, and the
    failing case it writes, when the suite is run()."""
    monkeypatch.setitem(blab.cli.SUITES, suite, run)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", suite]) == EXIT_FAIL
    failed = [line[len("[FAIL] "):].split("  (")[0]
              for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL] ")]
    return failed, json.loads((tmp_path / f"verify_{suite}_failure.json").read_text())


def _one_net_oracle():
    return oracle_suite(nets=1, seed=PASSING_ORACLE_SEED)


def test_verify_oracle_ends_with_exit_4_when_a_net_hits_its_epoch_cap(monkeypatch, tmp_path,
                                                                      capsys):
    real = blab.verify.train

    def capped_at_one_epoch(net, data, cfg, seed):
        return real(net, data, dataclasses.replace(cfg, max_epochs=1), seed)

    monkeypatch.setattr(blab.verify, "train", capped_at_one_epoch)
    monkeypatch.setitem(blab.cli.SUITES, "oracle", _one_net_oracle)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "oracle"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert (out, err) == ("", "numeric failure: training hit the epoch cap (accuracy 0.912)\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_oracle_ends_with_exit_4_when_a_pick_is_misclassified(monkeypatch, tmp_path,
                                                                      capsys):
    real = blab.verify.train

    def negated(net, data, cfg, seed):  # a negated output layer negates every margin
        report = real(net, data, cfg, seed)
        net.weights[-1], net.biases[-1] = -net.weights[-1], -net.biases[-1]
        return report

    monkeypatch.setattr(blab.verify, "train", negated)
    monkeypatch.setitem(blab.cli.SUITES, "oracle", _one_net_oracle)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "oracle"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(
        r"numeric failure: sample \d+ is misclassified; projection requires a trained "
        r"separator\n", err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unconverged", [1, 5])
def test_oracle_suite_fails_a_projection_that_does_not_converge(monkeypatch, tmp_path, capsys,
                                                                unconverged):
    # with one of five unconverged, the other four still face both checks; with all
    # five, the net has nothing left to check
    real = blab.verify.project_to_boundary

    def unconverging(net, data, rows):
        results = real(net, data, rows)
        return [dataclasses.replace(r, converged=False) if k < unconverged else r
                for k, r in enumerate(results)]

    monkeypatch.setattr(blab.verify, "project_to_boundary", unconverging)
    failed, failing = _failed_in_cli(monkeypatch, tmp_path, capsys, "oracle", _one_net_oracle)
    assert failed == ["exact oracle (1 nets x 5 points)"]
    assert failing == {"net": 0, "reason": "a projection did not converge"}


def test_oracle_suite_fails_a_grid_cross_check_miss(monkeypatch, tmp_path, capsys):
    seen = {}
    real_check = blab.verify.exact_check_2d

    def recording_check(net, samples, points):
        out = real_check(net, samples, points)
        seen["samples"], seen["exact"] = samples, out[2]
        return out

    class FarGrid(GridBoundary):  # every grid distance 1 too long: over its two steps
        def nearest(self, points):
            feet, d = super().nearest(points)
            seen.setdefault("grid", d[0])
            return feet, d + 1.0

    monkeypatch.setattr(blab.verify, "exact_check_2d", recording_check)
    monkeypatch.setattr(blab.verify, "GridBoundary", FarGrid)
    failed, failing = _failed_in_cli(monkeypatch, tmp_path, capsys, "oracle", _one_net_oracle)
    assert failed == ["grid cross-check of the exact oracle (step 0.02)"]
    _, data = blab.verify._train_2d_net(derive_seed(PASSING_ORACLE_SEED, 0))
    [sample] = np.flatnonzero((data.samples == seen["samples"][0]).all(axis=1))
    assert failing == {"net": 0, "sample": int(sample), "grid": seen["grid"] + 1.0,
                       "exact": seen["exact"][0]}


def test_oracle_suite_fails_a_linear_oracle_miss(monkeypatch, tmp_path, capsys):
    # no trained nets: only the linear cases run, and each point is 0.01 too far out
    seen = []
    real = blab.verify.project_to_boundary

    def too_far(net, data, rows):
        [res] = real(net, data, rows)
        [x] = data.samples[rows]
        step = res.point - x
        distance = np.linalg.norm(step)
        seen.append((net, x, distance))
        return [dataclasses.replace(res, point=x + (1 + 0.01 / distance) * step)]

    monkeypatch.setattr(blab.verify, "project_to_boundary", too_far)
    failed, failing = _failed_in_cli(monkeypatch, tmp_path, capsys, "oracle",
                                     lambda: oracle_suite(nets=0))
    assert failed == ["linear analytic oracle (20 cases)"]
    net, x, distance = seen[0]
    w, c = net.weights[0][1], net.biases[0][1]
    assert failing == {"linear_case": 0, "solver": pytest.approx(distance + 0.01, abs=1e-12),
                       "exact": float(np.linalg.norm(halfspace_projection(w, c, x) - x))}


def test_oracle_suite_skips_a_linear_case_on_its_boundary(monkeypatch):
    cases, projected = [], []
    real_margin, real_project = blab.verify.margin, blab.verify.project_to_boundary

    def first_on_boundary(net, x):
        cases.append(x)
        return 0.0 if len(cases) == 1 else real_margin(net, x)

    def counted(*args):
        projected.append(args)
        return real_project(*args)

    monkeypatch.setattr(blab.verify, "margin", first_on_boundary)
    monkeypatch.setattr(blab.verify, "project_to_boundary", counted)
    results, failing = oracle_suite(nets=0)
    assert all(ok for _, ok, _ in results) and failing is None
    assert len(cases) == 20 and len(projected) == 19  # case 0 is not projected


@pytest.fixture
def two_claims(monkeypatch):
    """claims_suite on 2 claim-1 instances and 10 ratio pairs."""
    monkeypatch.setattr(blab.verify, "CLAIM_INSTANCES", 2)
    monkeypatch.setattr(blab.verify, "RATIO_SAMPLES", 10)


def test_claims_suite_fails_a_claim1_chain(monkeypatch, tmp_path, capsys, two_claims):
    monkeypatch.setattr(blab.verify, "check_claim1_chain", lambda **inst: {"passed": False})
    failed, failing = _failed_in_cli(monkeypatch, tmp_path, capsys, "claims", claims_suite)
    assert failed == ["claim-1 chain on 2 randomized instances"]
    seed = derive_seed(13, 0)
    instance = random_claim1_instance(seed)
    assert failing == {"instance_seed": seed, "report": {"passed": False},
                       "instance": {key: a.tolist() for key, a in instance.items()}}
    # the stored case replays through the real checker
    assert check_claim1_chain(**failing["instance"]) == check_claim1_chain(**instance)


def test_claims_suite_fails_a_ratio_below_2(monkeypatch, tmp_path, capsys, two_claims):
    seen = []
    real = blab.verify.ratio_bound

    def low_at_3(a, b):
        seen.append((a, b))
        return np.where(np.arange(len(a)) == 3, 1.5, real(a, b))

    monkeypatch.setattr(blab.verify, "ratio_bound", low_at_3)
    failed, failing = _failed_in_cli(monkeypatch, tmp_path, capsys, "claims", claims_suite)
    assert failed == ["a/b + b/a >= 2 on 10 random pairs"]
    [(a, b)] = seen
    assert failing == {"ratio_pair": [a[3], b[3]], "value": 1.5}


def test_claims_suite_fails_claim2_on_a_flagged_collinear_instance(monkeypatch, tmp_path, capsys,
                                                                   two_claims):
    flagged = {"counterexample": True, "strict_product_inequality": False,
               "prod_h": 1.0, "prod_f": 1.0}
    monkeypatch.setattr(blab.verify, "check_claim2_product", lambda f, g: flagged)
    failed, failing = _failed_in_cli(monkeypatch, tmp_path, capsys, "claims", claims_suite)
    assert failed == ["claim-2 accepts the collinear equality instance"]
    assert failing == {"orth_report": flagged, "coll_report": flagged}


def test_gradient_suite_fails_a_backprop_mismatch(monkeypatch, tmp_path, capsys):
    seen = []
    real = blab.verify.grad_input

    def off_by_one(net, x):
        g = real(net, x)
        seen.append(g)
        return g + 1.0

    monkeypatch.setattr(blab.verify, "grad_input", off_by_one)
    monkeypatch.setattr(blab.verify, "GRADIENT_PAIRS", 1)
    failed, failing = _failed_in_cli(monkeypatch, tmp_path, capsys, "gradients", gradient_suite)
    assert failed == ["gradient check (1 pairs)"]
    # pair 0: a [4, 8, 2] net at x, whose coordinate 0 has no kink in its stencil
    net = init_network([4, 8, 2], derive_seed(2024, 0))
    x = make_rng(2024, stream=0x64AD).standard_normal(4)
    steps = FD_STEP * np.eye(4)
    m = margin_batch(net, np.vstack([x, x + steps, x - steps]))  # the suite's one stencil call
    fd = (m[1] - m[5]) / (2 * FD_STEP)
    assert failing == {"pair": 0, "coordinate": 0, "dims": [4, 8, 2],
                       "backprop": seen[0][0, 0] + 1.0, "fd": fd}
