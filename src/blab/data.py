"""Datasets and file access: the one reader and atomic writer of every file,
IDX and CSV formats, synthetic generators, balanced subsampling."""

from __future__ import annotations

import contextlib
import io
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import make_rng

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


class ConfigError(ValueError):
    """A setting that is wrong whatever the data holds."""


class DataError(ValueError):
    """Malformed or inconsistent input: a dataset, or a file blab wrote."""


class NumericError(RuntimeError):
    """A network that will not separate its data: training diverged or hit its
    epoch cap, a sample to project is misclassified, or projections failed."""


@dataclass
class Dataset:
    """Ordered labeled feature vectors of a binary classifier: samples is (s, n)
    float64, labels is (s,) and holds exactly the classes 0 and 1, both present."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 2 or len(self.samples) == 0:
            raise DataError("samples must be a nonempty (s, n) array")
        if self.labels.shape != (len(self.samples),):
            raise DataError("labels length must match samples")
        if not np.isfinite(self.samples).all():
            raise DataError("samples contain non-finite values")
        if (self.labels.min(), self.labels.max()) != (0, 1):  # integers: exactly {0, 1}
            raise DataError("labels must be the classes 0 and 1, both present")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def read_bytes(path) -> bytes:
    """A file's bytes; DataError naming the path if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None


def read_utf8(path) -> str:
    """A file's UTF-8 text with universal newlines; DataError if it is not UTF-8."""
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_file(path, content: str | bytes) -> None:
    """Write a file atomically: a temporary file beside it, renamed into place,
    so an interrupted write leaves the old file or none, never part of one.
    The file gets the mode a plain open() gives. ConfigError naming the path
    if it cannot be written."""
    path = Path(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(content.encode() if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise ConfigError(f"cannot write {path}: {e.strerror}") from None
        raise


def check_writable(path) -> None:
    """ConfigError, worded as write_file's, if write_file could not write
    path: a command checks its output path before the work that fills it."""
    if Path(path).is_dir():
        raise ConfigError(f"cannot write {path}: Is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        open(tmp, "wb").close()
        os.unlink(tmp)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


def _idx_header(raw: bytes, magic: int, words: int, path) -> tuple[tuple[int, ...], memoryview]:
    """The big-endian u32 header words after an IDX file's magic, and a view
    of its payload (a view, so a large image file is not copied)."""
    if len(raw) >= 4 and (found := struct.unpack_from(">I", raw)[0]) != magic:
        raise DataError(f"bad magic {found} in {path} (expected {magic})")
    if len(raw) < 4 * (words + 1):
        raise DataError(f"truncated IDX file: {path}")
    return struct.unpack_from(f">{words}I", raw, 4), memoryview(raw)[4 * (words + 1):]


def load_idx(images_path, labels_path, class_a: int, class_b: int) -> Dataset:
    """The samples of two categories of an MNIST-style IDX image/label pair,
    relabeled class_a -> 0 and class_b -> 1; pixels scaled to [0, 1].
    DataError naming the labels file if either category is absent."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    (count, rows, cols), payload = _idx_header(read_bytes(images_path), IDX_IMAGE_MAGIC, 3,
                                               images_path)
    if count * rows * cols == 0:
        raise DataError(f"no pixels in {images_path} ({count} images of {rows}x{cols})")
    if len(payload) != count * rows * cols:
        raise DataError(f"truncated IDX image payload in {images_path}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    (label_count,), raw = _idx_header(read_bytes(labels_path), IDX_LABEL_MAGIC, 1, labels_path)
    if len(raw) != label_count:
        raise DataError(f"truncated IDX label payload in {labels_path}")
    if label_count != count:
        raise DataError(f"image/label count mismatch: {count} images vs {label_count} labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    for cls in (class_a, class_b):
        if cls not in labels:
            raise DataError(f"class {cls} absent from {labels_path}")
    keep = (labels == class_a) | (labels == class_b)
    return Dataset(pixels[keep] / 255.0, np.where(labels[keep] == class_b, 1, 0))


def save_idx(data: Dataset, images_path, labels_path, side: int) -> None:
    """Write a Dataset back to IDX fixtures as side x side images (values
    quantized to u8 via round(v*255))."""
    if side * side != data.dim:
        raise DataError("side*side must equal the feature dimension")
    pixels = np.clip(np.rint(data.samples * 255.0), 0, 255).astype(np.uint8)
    write_file(images_path, struct.pack(">IIII", IDX_IMAGE_MAGIC, len(data), side, side)
               + pixels.tobytes())
    write_file(labels_path, struct.pack(">II", IDX_LABEL_MAGIC, len(data))
               + data.labels.astype(np.uint8).tobytes())


def sample_balanced(data: Dataset, total: int, seed: int, names: tuple[str, str]) -> Dataset:
    """Draw total/2 samples per class without replacement, deterministic per seed.
    names are the config's names of classes 0 and 1 (`class_a = 3`), which a
    DataError for a class too small for dataset.subset gives. total is a
    valid DatasetSpec's nonzero subset: even and positive."""
    half = total // 2
    rng = make_rng(seed, stream=0xBA7A)
    picked = []
    for cls in (0, 1):
        idx = np.flatnonzero(data.labels == cls)
        if len(idx) < half:
            raise DataError(f"{names[cls]} has only {len(idx)} samples; "
                            f"dataset.subset = {total} needs {half}")
        picked.append(rng.choice(idx, size=half, replace=False))
    order = np.sort(np.concatenate(picked))
    return Dataset(data.samples[order], data.labels[order])


@np.errstate(over="ignore")
def gen_gaussian_blobs(per_class: int, dim: int, center_distance: float, sigma: float,
                       seed: int) -> Dataset:
    """Two isotropic normal blobs of per_class dim-wide points each, class 0
    first, centred at -center_distance/2 and +center_distance/2 on the first
    axis; sigma must be positive. DataError if a point overflows."""
    centers = np.zeros((2, dim))
    centers[:, 0] = -center_distance / 2.0, center_distance / 2.0
    rng = make_rng(seed, stream=0xB10B)
    samples = np.vstack([c + sigma * rng.standard_normal((per_class, dim)) for c in centers])
    return Dataset(samples, np.repeat([0, 1], per_class))


# Built-in 2-D layouts admitting more than one valid projection set: two
# class-0 points, then two class-1 points.
_LAYOUTS = {
    # class 0 on the x-axis, class 1 on the y-axis; both diagonal lines are
    # optimal boundaries and every point is equidistant to the two, so at
    # least two projection assignments exist
    "square_xor": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    # two opposite-class pairs mirrored about the x-axis; reflecting the
    # layout swaps the pairs without changing the point set
    "mirrored_pairs": [[-1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [1.0, -1.0]],
}
LAYOUT_KINDS = tuple(_LAYOUTS)


def gen_symmetric_layout(kind: str, perturb: float = 0.0) -> Dataset:
    """The built-in layout `kind`; perturb > 0 shifts one point to break
    the symmetry."""
    if kind not in _LAYOUTS:
        raise DataError(f"unknown layout kind: {kind!r}")
    pts = np.array(_LAYOUTS[kind])
    if perturb:
        pts[0] = pts[0] + np.array([perturb, perturb]) / np.sqrt(2.0)
    return Dataset(pts, np.array([0, 0, 1, 1]))


def export_csv(data: Dataset, path) -> None:
    """Write `label,f0,f1,...` rows; floats use repr so values round-trip exactly."""
    write_file(path, "label," + ",".join(f"f{i}" for i in range(data.dim)) + "\n" + "".join(
        f"{int(l)}," + ",".join(repr(float(v)) for v in x) + "\n"
        for x, l in zip(data.samples, data.labels)))


def import_csv(path) -> Dataset:
    path = Path(path)
    with io.StringIO(read_utf8(path)) as f:
        header = f.readline().strip().split(",")
        if header[0] != "label":
            raise DataError(f"{path}: expected dataset CSV header starting with 'label'")
        if len(header) < 2:
            raise DataError(f"{path}: header has no feature column")
        rows, labels = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise DataError(f"{path}, line {lineno}: row width mismatch")
            label = parts[0].strip()
            if label not in ("0", "1"):
                raise DataError(f"{path}, line {lineno}: label {label!r} is not 0 or 1")
            labels.append(int(label))
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError as e:
                raise DataError(f"{path}, line {lineno}: {e}") from None
        if not rows:
            raise DataError(f"{path}: no data rows")
        samples = np.array(rows)
        if (bad := np.argwhere(~np.isfinite(samples))).size:
            r, c = bad[0].tolist()  # the first in file order; data rows start on line 2
            cell = f.getvalue().split("\n")[r + 1].split(",")[c + 1]
            raise DataError(f"{path}, line {r + 2}: non-finite value {cell.strip()!r}")
        if len(set(labels)) == 1:
            raise DataError(f"{path}: every row has label {labels[0]}; "
                            "a dataset holds both classes 0 and 1")
    return Dataset(samples, np.array(labels))
