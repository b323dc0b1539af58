"""Image-scale smoke test: the full cascade on 784-dimensional inputs.

Real handwritten-digit IDX files are not bundled, so this builds a stand-in
from sklearn's 8x8 digits (upscaled to 28x28) and writes it as a 10-class
IDX pair, exercising ingestion, the deep architecture, and the projection
cascade end to end at image dimensionality.
"""

import struct

import numpy as np
import pytest

sklearn_datasets = pytest.importorskip("sklearn.datasets")

from blab.config import DatasetSpec, ExperimentConfig
from blab.data import load_idx, sample_balanced
from blab.experiments import run_iterative_projection
from blab.nn import TrainConfig


@pytest.fixture(scope="module")
def digits_idx(tmp_path_factory):
    raw = sklearn_datasets.load_digits()
    imgs = raw.images / 16.0  # (n, 8, 8) in [0, 1]
    big = np.kron(imgs, np.ones((1, 3, 3)))  # 24x24
    padded = np.pad(big, ((0, 0), (2, 2), (2, 2)))
    pixels = np.clip(np.rint(padded * 255.0), 0, 255).astype(np.uint8)
    d = tmp_path_factory.mktemp("digits")
    # ten classes, which no Dataset holds, so the pair is written byte by byte
    (d / "images.idx").write_bytes(struct.pack(">IIII", 2051, len(imgs), 28, 28)
                                   + pixels.tobytes())
    (d / "labels.idx").write_bytes(struct.pack(">II", 2049, len(imgs))
                                   + raw.target.astype(np.uint8).tobytes())
    return d / "images.idx", d / "labels.idx"


def test_image_scale_cascade(digits_idx, tmp_path):
    img, lab = digits_idx
    pair = load_idx(img, lab, 3, 5)
    assert pair.dim == 784
    assert len(pair) == np.isin(sklearn_datasets.load_digits().target, (3, 5)).sum()
    subset = sample_balanced(pair, 60, 5, ("class_a = 3", "class_b = 5"))

    cfg = ExperimentConfig(
        dataset=DatasetSpec(source="idx", images_path=str(img), labels_path=str(lab),
                            class_a=3, class_b=5, subset=60, seed=5),
        dims=[784, 500, 256, 128, 32, 2],
        train=TrainConfig(learning_rate=1e-4, max_epochs=10000, batch_size=32),
        iterations=2,
        master_seed=0,
    )
    records = run_iterative_projection(cfg, out_dir=tmp_path / "run")
    assert len(records) == 3
    assert all(r.unconverged_count == 0 for r in records[1:])
    # projections move points onto the boundary, shrinking class separation
    assert all(r.mean_projection_norm > 0 for r in records[1:])
    assert records[-1].mean_nn_distance < records[0].mean_nn_distance
    # record 0 describes the raw working set
    nearest = [np.linalg.norm(subset.samples[subset.labels != subset.labels[i]]
                              - subset.samples[i], axis=1).min()
               for i in range(len(subset))]
    assert records[0].mean_nn_distance == pytest.approx(float(np.mean(nearest)), rel=1e-9)
