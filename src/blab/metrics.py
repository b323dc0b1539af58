"""Quantitative instruments over working sets, which need no network.

This module owns the exact pair-distance block rule, blab's one source of
sample-to-sample distances outside `geometry`; the engine's crossing
candidates and verify's claim-1 instances read it through `nearest_rows`.
It also holds:

- the mean nearest-opposite-class distance of one working set;
- the global difference phi between the separators of consecutive cascade
  iterations, from three consecutive working sets.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset

NEAREST_BLOCK_ELEMENTS = 1 << 20  # floats in one block of pairwise differences (8 MiB)
ALIGNED_COSINE = 0.95  # least cosine between f's and g's projection vectors that earns alpha


def _distance_blocks(a: np.ndarray, b: np.ndarray):
    """Distances from the rows of a to those of b, in row blocks of at most
    NEAREST_BLOCK_ELEMENTS exact differences: never the |a|^2 + |b|^2 - 2ab
    expansion, which cancels once points crowd together."""
    block = max(1, NEAREST_BLOCK_ELEMENTS // max(1, b.size))
    for start in range(0, len(a), block):
        yield np.sqrt(((a[start:start + block, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def nearest_rows(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (at least one), the indices of its min(k, len(b)) nearest rows
    of b, nearest first, ties to the lower index, and its least distance (inf if none)."""
    order, nearest = [], []
    for d in _distance_blocks(a, b):
        order.append(np.argsort(d, axis=1, kind="stable")[:, :k])
        nearest.append(d.min(axis=1, initial=np.inf))
    return np.concatenate(order), np.concatenate(nearest)


@np.errstate(over="ignore")
def nearest_opposite_mean_distance(data: Dataset) -> float:
    """Mean over samples of the Euclidean distance to the closest
    opposite-class sample, exhaustive over all pairs; inf if a nearest distance overflows.

    One pass over the class-0 x class-1 blocks: row minima are concatenated
    and column minima kept as a running minimum. A Dataset holds both
    classes, so each sample has an opposite-class sample."""
    x0 = data.samples[data.labels == 0]
    x1 = data.samples[data.labels == 1]
    row_min, col_min = [], np.full(len(x1), np.inf)
    for d in _distance_blocks(x0, x1):
        row_min.append(d.min(axis=1))
        col_min = np.minimum(col_min, d.min(axis=0))
    return float((np.concatenate(row_min).sum() + col_min.sum()) / len(data))


def global_difference(prev: np.ndarray, cur: np.ndarray, nxt: np.ndarray) -> float:
    """Global difference phi_k from working sets W_{k-1}, W_k, W_{k+1}, each (s, n).

    f = W_k - W_{k-1} are net k's projection vectors and g = W_{k+1} - W_k
    net k+1's; net k+1 separates W_k, so it is one concrete re-separator.
    An unconverged sample did not move, so its vector is zero. A sample that
    f moved, and whose g vector is near-collinear with its f vector (cosine
    >= ALIGNED_COSINE; a zero g counts as collinear), contributes
    alpha = min(|g| / |f|, 1); every other sample contributes 0.
    phi = s - sum(alpha). This is a lower-bound-style stand-in for the exact
    maximization over all separators of W_k, which is intractable.
    """
    f, g = cur - prev, nxt - cur
    fn, gn = np.linalg.norm(f, axis=1), np.linalg.norm(g, axis=1)
    both = (fn > 0) & (gn > 0)
    cos = np.ones(len(f))
    cos[both] = (f[both] * g[both]).sum(axis=1) / (fn[both] * gn[both])
    aligned = (fn > 0) & (cos >= ALIGNED_COSINE)
    alphas = np.zeros(len(f))
    alphas[aligned] = np.minimum(gn[aligned] / fn[aligned], 1.0)
    return float(len(f) - alphas.sum())
