"""Quantitative instruments over working sets, which need no network.

This module owns the exact pair-distance block rule, blab's one source of
sample-to-sample distances outside `geometry`, read in one class-0 x class-1
pass (`opposite_neighbours`) by the engine's crossing candidates, verify's
claim-1 instances and the nearest-opposite metric. It also holds:

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
    """Each block's first row of a and its distances to the rows of b, in row
    blocks of at most NEAREST_BLOCK_ELEMENTS exact differences: never the
    |a|^2 + |b|^2 - 2ab expansion, which cancels once points crowd together."""
    block = max(1, NEAREST_BLOCK_ELEMENTS // max(1, b.size))
    for start in range(0, len(a), block):
        yield start, np.sqrt(((a[start:start + block, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def opposite_neighbours(samples, labels, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, its k nearest other-class rows, nearest first, ties to the lower
    index and -1 past that class's size, and its least distance to that class
    (inf if none). Rows labelled anything but 0 or 1 take no part. One pass over
    the class-0 x class-1 blocks: a class-1 row's list is a running top k of its
    column, merged stably block by block, so earlier (lower) rows win its ties."""
    rows0, rows1 = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    near, least = np.full((len(samples), k), -1), np.full(len(samples), np.inf)
    top_d, top_i = np.empty((0, len(rows1))), np.empty((0, len(rows1)), dtype=int)
    for start, d in _distance_blocks(samples[rows0], samples[rows1]):
        block = rows0[start:start + len(d)]
        least[block] = d.min(axis=1, initial=np.inf)
        least[rows1] = np.minimum(least[rows1], d.min(axis=0))
        if k == 0:  # the metric's call: no lists to sort
            continue
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        near[block, :order.shape[1]] = rows1[order]
        top_d = np.vstack([top_d, d])
        top_i = np.vstack([top_i, np.broadcast_to(block[:, None], d.shape)])
        keep = np.argsort(top_d, axis=0, kind="stable")[:k]
        top_d, top_i = (np.take_along_axis(a, keep, axis=0) for a in (top_d, top_i))
    near[rows1, :len(top_i)] = top_i.T
    return near, least


@np.errstate(over="ignore")
def nearest_opposite_mean_distance(data: Dataset) -> float:
    """Mean over samples of the Euclidean distance to the closest
    opposite-class sample, exhaustive over all pairs; inf if a nearest distance overflows.

    The least distances of one opposite_neighbours pass, class 0's summed
    first. A Dataset holds both classes, so each sample has an opposite-class sample."""
    least = opposite_neighbours(data.samples, data.labels, 0)[1]
    return float((least[data.labels == 0].sum() + least[data.labels == 1].sum()) / len(data))


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
