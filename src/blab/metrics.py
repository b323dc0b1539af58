"""Quantitative instruments: inter-class distance and the global-difference estimate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import project_dataset
from .data import Dataset
from .nn import MlpNetwork, accuracy


@dataclass
class GlobalDifferenceEstimate:
    alphas: np.ndarray
    phi: float
    aligned_count: int
    misaligned_count: int


NEAREST_BLOCK_ELEMENTS = 1 << 20  # floats in one block of pairwise differences (8 MiB)
ALIGNED_COSINE = 0.95  # least cosine between f's and g's projection vectors that earns alpha


def nearest_opposite_mean_distance(data: Dataset) -> float:
    """Mean over samples of the Euclidean distance to the closest
    opposite-class sample; exhaustive over all pairs.

    Class-0 rows go in blocks of exact differences, never the
    |a|^2 + |b|^2 - 2ab expansion, which cancels once points crowd together.
    Row minima are concatenated and column minima kept as a running minimum,
    so the result does not depend on the block size."""
    if not data.both_classes_present():
        raise ValueError("both classes must be present")
    x0 = data.samples[data.labels == 0]
    x1 = data.samples[data.labels == 1]
    block = max(1, NEAREST_BLOCK_ELEMENTS // x1.size)
    row_min, col_min = [], np.full(len(x1), np.inf)
    for start in range(0, len(x0), block):
        d2 = ((x0[start:start + block, None, :] - x1[None, :, :]) ** 2).sum(axis=2)
        d = np.sqrt(np.maximum(d2, 0.0))
        row_min.append(d.min(axis=1))
        col_min = np.minimum(col_min, d.min(axis=0))
    return float((np.concatenate(row_min).sum() + col_min.sum()) / len(data))


def estimate_global_difference(f_net: MlpNetwork, original: Dataset, projected: Dataset,
                               g_net: MlpNetwork) -> GlobalDifferenceEstimate:
    """Heuristic global-difference estimate against one concrete re-separator g.

    g_net must correctly classify the projected set. Each projected sample is
    re-projected onto g's boundary; when that vector is near-collinear with
    f's original projection vector (cosine >= ALIGNED_COSINE) the sample
    contributes alpha = clamp(|g vector| / |f vector|, 0, 1), otherwise 0.
    phi = s - sum(alpha). This is a lower-bound-style stand-in for the exact
    maximization over all separators of the projected set, which is
    intractable.
    """
    if accuracy(g_net, projected) < 1.0:
        raise ValueError("g misclassifies the projected set; it is not a separator of it")
    _, f_results = project_dataset(f_net, original)
    _, g_results = project_dataset(g_net, projected)

    s = len(original)
    alphas = np.zeros(s)
    aligned = 0
    for i in range(s):
        fv, gv = f_results[i].vector, g_results[i].vector
        fn, gn = np.linalg.norm(fv), np.linalg.norm(gv)
        if fn == 0.0:
            continue
        cos = float(fv @ gv / (fn * gn)) if gn > 0 else 1.0
        if cos >= ALIGNED_COSINE:
            alphas[i] = min(max(gn / fn, 0.0), 1.0)
            aligned += 1
    return GlobalDifferenceEstimate(alphas, float(s - alphas.sum()), aligned, s - aligned)
