"""End-to-end acceptance gate.

One test per criterion; each registers a single PASS/FAIL line that the
terminal summary reprints after the run. The MNIST-scale criteria need the
IDX files on disk (point BLAB_MNIST_DIR at them, or drop them in
data/mnist/); without the files those tests skip.
"""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from blab.config import DatasetSpec, ExperimentConfig
from blab.data import import_csv
from blab.experiments import run_iterative_projection, run_symmetry_experiment, run_transfer
from blab.nn import TrainConfig
from blab.verify import claims_suite, gradient_suite, oracle_suite
from conftest import ACCEPTANCE_LINES

SEPARATION_TOL = 1e-6


def _record(num, ok, detail=""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _skip(num, reason):
    ACCEPTANCE_LINES.append(f"criterion {num:02d}: SKIP  [{reason}]")
    pytest.skip(reason)


# -- MNIST-scale cascade (criteria 1, 2, part of 10) -------------------------

MNIST_FILE_NAMES = (
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
    ("images.idx", "labels.idx"),
)


def _find_mnist():
    roots = []
    if os.environ.get("BLAB_MNIST_DIR"):
        roots.append(Path(os.environ["BLAB_MNIST_DIR"]))
    roots.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for root in roots:
        for img, lab in MNIST_FILE_NAMES:
            if (root / img).exists() and (root / lab).exists():
                return root / img, root / lab
    return None


def _mnist_config(paths, master_seed=0):
    img, lab = paths
    return ExperimentConfig(
        dataset=DatasetSpec(source="idx", images_path=str(img), labels_path=str(lab),
                            class_a=3, class_b=5, subset=400, seed=1),
        dims=[784, 500, 256, 128, 32, 2],
        train=TrainConfig(learning_rate=1e-4, max_epochs=10000, batch_size=32,
                          accuracy_target=0.90),
        iterations=8,
        master_seed=master_seed,
    )


@pytest.fixture(scope="module")
def mnist_run(tmp_path_factory):
    paths = _find_mnist()
    if paths is None:
        return None
    out = tmp_path_factory.mktemp("mnist_run") / "run"
    records = run_iterative_projection(_mnist_config(paths), out_dir=out)
    return paths, out, records


def test_criterion_01_mnist_iterative_projection(mnist_run):
    if mnist_run is None:
        _skip(1, "MNIST IDX files not available in this environment")
    _, _, records = mnist_run
    dists = [r.mean_nn_distance for r in records]
    reduction = 1.0 - dists[-1] / dists[0]
    decreases = sum(b < a for a, b in zip(dists, dists[1:]))
    frac = decreases / (len(dists) - 1)
    _record(1, reduction >= 0.30 and frac >= 0.80,
            f"final reduction {reduction:.1%}, {decreases}/{len(dists) - 1} steps decreased")


def test_criterion_02_early_reduction_exceeds_late(mnist_run):
    if mnist_run is None:
        _skip(2, "MNIST IDX files not available in this environment")
    _, _, records = mnist_run
    dists = [r.mean_nn_distance for r in records]
    steps = [a - b for a, b in zip(dists, dists[1:])]
    early = float(np.mean(steps[:3]))
    late = float(np.mean(steps[-3:]))
    _record(2, early > late, f"mean early step {early:.4f} > mean late step {late:.4f}")


# -- 2D synthetic cascade (criteria 3, 5, part of 10) ------------------------

def _cascade_config(master_seed=0):
    return ExperimentConfig(
        dataset=DatasetSpec(source="blobs", seed=100, dim=2, per_class=15,
                            center_distance=4.0, sigma=0.5),
        dims=[2, 32, 32, 2],
        train=TrainConfig(learning_rate=1e-2, max_epochs=20000, batch_size=30,
                          accuracy_target=0.90),
        iterations=5,
        master_seed=master_seed,
    )


@pytest.fixture(scope="module")
def cascade_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cascade") / "run"
    records = run_iterative_projection(_cascade_config(), out_dir=out)
    return out, records


def test_criterion_03_2d_cascade_strict_decrease(cascade_run):
    _, records = cascade_run
    dists = [r.mean_nn_distance for r in records]
    strict = all(b < a for a, b in zip(dists, dists[1:]))
    ratio = dists[-1] / dists[0]
    _record(3, strict and ratio <= 0.30,
            f"strict decrease {strict}, final/initial {ratio:.3f}")


def test_criterion_04_projection_oracle_equivalence():
    results, failing = oracle_suite(nets=10)
    details = "; ".join(f"{name}: {detail}" for name, _, detail in results)
    _record(4, all(ok for _, ok, _ in results) and failing is None, details)


def test_criterion_05_separation_inequality(cascade_run):
    out, records = cascade_run
    violations = 0
    pairs = 0
    for k in range(1, len(records)):
        before = import_csv(out / "working" / f"iter_{k - 1}.csv")
        proj_rows = (out / "projections" / f"iter_{k}.csv").read_text().splitlines()[1:]
        dist = np.full(len(before), np.nan)
        for row in proj_rows:
            idx, _, converged, d, _, _ = row.split(",")
            if int(converged):
                dist[int(idx)] = float(d)
        idx0 = np.flatnonzero(before.labels == 0)
        idx1 = np.flatnonzero(before.labels == 1)
        for i in idx0:
            for j in idx1:
                if np.isnan(dist[i]) or np.isnan(dist[j]):
                    continue
                pairs += 1
                gap = np.linalg.norm(before.samples[i] - before.samples[j])
                if dist[i] + dist[j] > gap + SEPARATION_TOL:
                    violations += 1
    _record(5, pairs > 0 and violations == 0,
            f"{violations} violations over {pairs} converged opposite pairs")


def test_criterion_06_gradient_checks():
    results, failing = gradient_suite()
    detail = results[0][2]
    _record(6, all(ok for _, ok, _ in results) and failing is None, detail)


# -- transferability (criterion 7, part of 10) -------------------------------

def _transfer_config(master_seed):
    return ExperimentConfig(
        dataset=DatasetSpec(source="blobs", seed=200 + master_seed, dim=2,
                            per_class=80, center_distance=4.0, sigma=0.8),
        dims=[2, 16, 16, 2],
        train=TrainConfig(learning_rate=1e-2, max_epochs=20000, batch_size=32,
                          accuracy_target=0.99),
        master_seed=master_seed,
        kappa=0.1,
    )


@pytest.fixture(scope="module")
def transfer_reports():
    return [run_transfer(_transfer_config(seed), "cross_training_set") for seed in range(5)]


def test_criterion_07_transferability(transfer_reports):
    wins = 0
    rates = []
    for report in transfer_reports:
        transfer, baseline = report["fooling_rate_transfer"], report["fooling_rate_random_baseline"]
        rates.append((transfer, baseline))
        if transfer > 0 and transfer >= 2.0 * baseline:
            wins += 1
    detail = f"{wins}/5 seeds with transfer >= 2x baseline; rates {rates}"
    _record(7, wins >= 4, detail)


def test_criterion_08_symmetry_experiment():
    sym = run_symmetry_experiment("square_xor", trials=20, master_seed=0)
    pert = run_symmetry_experiment("square_xor", trials=20, master_seed=0, perturb=0.5)
    sym_ok = (sym["cluster_count"] >= 2
              and sym["within_cluster_transfer"] is not None
              and sym["cross_cluster_transfer"] is not None
              and sym["within_cluster_transfer"] > sym["cross_cluster_transfer"])
    pert_ok = pert["dominant_fraction"] >= 0.80
    _record(8, sym_ok and pert_ok,
            f"symmetric: {sym['cluster_count']} clusters, within "
            f"{sym['within_cluster_transfer']} vs cross {sym['cross_cluster_transfer']}; "
            f"perturbed dominant fraction {pert['dominant_fraction']:.2f}")


def test_criterion_09_claims_suite():
    results, failing = claims_suite()
    detail = "; ".join(name for name, ok, _ in results if ok)
    _record(9, all(ok for _, ok, _ in results) and failing is None, detail)


def test_criterion_10_determinism(cascade_run, transfer_reports, mnist_run, tmp_path):
    out, _ = cascade_run
    rerun_dir = tmp_path / "rerun"
    run_iterative_projection(_cascade_config(), out_dir=rerun_dir)
    cascade_same = ((out / "records.csv").read_bytes()
                    == (rerun_dir / "records.csv").read_bytes())

    transfer_same = run_transfer(_transfer_config(0), "cross_training_set") == transfer_reports[0]

    detail = f"2d records identical {cascade_same}, transfer report identical {transfer_same}"
    mnist_same = True
    if mnist_run is not None:
        paths, mnist_out, _ = mnist_run
        mnist_rerun = tmp_path / "mnist_rerun"
        run_iterative_projection(_mnist_config(paths), out_dir=mnist_rerun)
        mnist_same = ((mnist_out / "records.csv").read_bytes()
                      == (mnist_rerun / "records.csv").read_bytes())
        detail += f", mnist records identical {mnist_same}"
    else:
        detail += ", mnist rerun skipped (no data)"
    _record(10, cascade_same and transfer_same and mnist_same, detail)
