"""Image-scale smoke test: the full cascade on 784-dimensional inputs.

Real handwritten-digit IDX files are not bundled, so this builds a stand-in
from sklearn's 8x8 digits (upscaled to 28x28) and writes it through the
package's own IDX writer, exercising ingestion, the deep architecture, and
the projection cascade end to end at image dimensionality.
"""

import numpy as np
import pytest

sklearn_datasets = pytest.importorskip("sklearn.datasets")

from blab.config import DatasetSpec, ExperimentConfig
from blab.data import filter_binary, load_idx, sample_balanced, save_idx, Dataset
from blab.experiments import run_iterative_projection
from blab.nn import TrainConfig


@pytest.fixture(scope="module")
def digits_idx(tmp_path_factory):
    raw = sklearn_datasets.load_digits()
    imgs = raw.images / 16.0  # (n, 8, 8) in [0, 1]
    big = np.kron(imgs, np.ones((1, 3, 3)))  # 24x24
    padded = np.pad(big, ((0, 0), (2, 2), (2, 2)))
    data = Dataset(padded.reshape(len(imgs), 784), raw.target)
    d = tmp_path_factory.mktemp("digits")
    save_idx(data, d / "images.idx", d / "labels.idx", 28, 28)
    return d / "images.idx", d / "labels.idx"


def test_image_scale_cascade(digits_idx, tmp_path):
    img, lab = digits_idx
    loaded = load_idx(img, lab)
    assert loaded.dim == 784
    pair = filter_binary(loaded, 3, 5)
    assert set(np.unique(pair.labels)) == {0, 1}
    subset = sample_balanced(pair, 60, seed=5)

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
