"""Network-free geometric ground truth and numeric checks of the
symmetry-uniqueness argument on raw vector data, all run by blab.verify.

Nothing here imports another blab module: closed-form halfspace
projections, the exact linear-region split of a 2D ReLU net (given as raw
weight arrays) and 2D grid search serve as independent oracles for the
boundary solver, and the claim checkers evaluate the inequality chains on
explicit vector instances, given as plain arrays (points, labels and the f
and g projection vectors), reporting where they hold and where they do not.
"""

from __future__ import annotations

import numpy as np

ORTHOGONAL_TOLERANCE = 1e-9  # largest |cos| between f and g vectors that counts as orthogonal
EQUAL_PRODUCT_RTOL = 1e-9  # relative gap under which prod|f| and prod|g| count as equal
# Most grid points whose margins a scan holds at once. On the oracle's
# 120701-point grid, slabs of 32768, 16384, 8192 and 4096 points scan about
# as fast (median 28.0, 27.2, 27.0 and 26.4 ms, inside the noise) and give
# the same crossings. Peak RSS of the process falls with the slab down to
# 8192 (37.83, 37.12, 36.70 MiB) but not below it (36.75 MiB at 4096, lower
# than at 8192 in 4 of 10 pairs). Medians of 10 fresh oracle processes per
# size, 2 vCPUs, 1 BLAS thread.
GRID_SLAB_POINTS = 1 << 13


def halfspace_projection(w, b: float, x) -> np.ndarray:
    """Closed-form nearest point on the hyperplane {p : w.p + b = 0}."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    w_norm2 = float(w @ w)
    if w_norm2 == 0.0:
        raise ValueError("w must be nonzero")
    return x - (float(w @ x) + b) / w_norm2 * w


class GridBoundary:
    """Precomputed sign-change crossings of a 2D scalar field on a grid.

    Building the field once lets many nearest-crossing queries share the
    expensive scan; each crossing edge is sub-resolved by bisection. The grid
    is scanned in slabs of whole x-rows, at most GRID_SLAB_POINTS points (or
    one row) each, and a slab's last sign row is carried into the next, so
    the scan holds one slab plus the crossings. The crossings come out in the
    row-major order of a one-shot scan: x-flips, then y-flips, then the grid
    points where the field is exactly zero.
    """

    def __init__(self, margin_fn, bounds, step: float):
        if step <= 0:
            raise ValueError("step must be positive")
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        xs = np.arange(x_lo, x_hi + step / 2, step)
        ys = np.arange(y_lo, y_hi + step / 2, step)

        rows = max(1, GRID_SLAB_POINTS // len(ys))
        flips_x, flips_y, zeros = [], [], []  # (ix, iy) grid indices, slab by slab
        prev = np.empty((0, len(ys)))
        for i0 in range(0, len(xs), rows):
            x = xs[i0:i0 + rows]
            pts = np.empty((len(x), len(ys), 2))
            pts[:, :, 0] = x[:, None]
            pts[:, :, 1] = ys
            sign = np.sign(margin_fn(pts.reshape(-1, 2))).reshape(pts.shape[:2])
            seam = np.vstack([prev, sign])
            flips_x.append(np.argwhere(seam[:-1] * seam[1:] < 0) + [i0 - len(prev), 0])
            flips_y.append(np.argwhere(sign[:, :-1] * sign[:, 1:] < 0) + [i0, 0])
            zeros.append(np.argwhere(sign == 0) + [i0, 0])
            prev = sign[-1:]
        fx, fy = np.vstack(flips_x), np.vstack(flips_y)
        first = np.vstack([fx, fy])
        second = first + np.repeat([[1, 0], [0, 1]], [len(fx), len(fy)], axis=0)
        a, b, zero_pts = (np.column_stack([xs[i], ys[j]])
                          for i, j in (first.T, second.T, np.vstack(zeros).T))
        if len(a) == 0 and len(zero_pts) == 0:
            raise ValueError("no margin sign change inside bounds")
        ma = margin_fn(a)
        for _ in range(50):
            mid = 0.5 * (a + b)
            mm = margin_fn(mid)
            left = mm * ma < 0
            b = np.where(left[:, None], mid, b)
            a = np.where(left[:, None], a, mid)
            ma = np.where(left, ma, mm)
        self.crossings = np.vstack([0.5 * (a + b), zero_pts])

    def nearest(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(k, 2) points -> each one's nearest crossing, (k, 2), and distance, (k,)."""
        x = np.asarray(points, dtype=np.float64)[:, None]
        d = np.linalg.norm(self.crossings - x, axis=2)
        i = np.argmin(d, axis=1)
        return self.crossings[i], d[np.arange(len(d)), i]


def _polygons(count: np.ndarray):
    """For convex polygons stored back to back with these vertex counts: the
    index of each polygon's first vertex and, per vertex, the index of its
    polygon and of the next vertex around it."""
    ends = np.cumsum(count)
    nxt = np.arange(1, ends[-1] + 1)
    nxt[ends - 1] = ends - count
    return ends - count, np.repeat(np.arange(len(count)), count), nxt


def _clip(verts, v, nxt, keep, cut):
    """One Sutherland–Hodgman pass over polygons stored back to back. In
    vertex order it emits each vertex where `keep` and then, where `cut` and
    the affine function with vertex values v changes sign on the edge to the
    next vertex, the crossing point. Returns the points and the vertex that
    emitted each."""
    cross = (v * v[nxt] < 0) & cut
    t = np.divide(v, v - v[nxt], out=np.zeros_like(v), where=cross)
    out = np.stack([verts, verts + t[:, None] * (verts[nxt] - verts)], axis=1)
    flags = np.column_stack([keep, cross])
    return out[flags], np.nonzero(flags)[0]


def _first_extreme(t, first, extreme):
    """For runs of t that start at the indices `first`: the index of each
    run's first element equal to its extreme (np.minimum or np.maximum)."""
    size = np.diff(first, append=len(t))
    hit = t == np.repeat(extreme.reduceat(t, first), size)
    return np.minimum.reduceat(np.where(hit, np.arange(len(t)), len(t)), first)


class PiecewiseLinearBoundary:
    """Exact decision boundary of a 2D ReLU network inside a box.

    The margin (logit 1 - logit 0) is affine on each linear region of the
    network. The box is cut into those regions layer by layer, one hidden
    unit at a time: on a convex piece a unit's pre-activation is affine, so
    each cut is one line clip, done for every piece the unit crosses at
    once. Each piece carries its affine map h = A x + c through the masked
    layer, and the positive side of a cut piece comes before its negative
    side. On a final piece the margin's zero set is at most one segment;
    `nearest` is the nearest point over those segments. A region on which
    the margin is identically zero is skipped.
    """

    def __init__(self, weights, biases, bounds):
        if weights[0].shape[1] != 2:
            raise ValueError("the network input must be 2-dimensional")
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        verts = np.array([[x_lo, y_lo], [x_hi, y_lo], [x_hi, y_hi], [x_lo, y_hi]],
                         dtype=np.float64)
        count = np.array([4])
        a, c = np.eye(2)[None], np.zeros((1, 2))
        for w, b in zip(weights[:-1], biases[:-1]):
            g, e = np.matmul(w, a), c @ w.T + b  # per piece, z = g x + e
            on = np.zeros(e.shape, dtype=bool)
            for k in range(len(b)):
                starts, cell, nxt = _polygons(count)
                v = (verts * g[cell, k]).sum(axis=1) + e[cell, k]
                on[:, k] = np.logical_or.reduceat(v > 0, starts)
                mixed = on[:, k] & np.logical_or.reduceat(v < 0, starts)
                if not mixed.any():
                    continue
                cut = mixed[cell]
                pos, pos_src = _clip(verts, v, nxt, (v >= 0) | ~cut, cut)
                neg, neg_src = _clip(verts, v, nxt, (v <= 0) & cut, cut)
                # merge the two sides, ordered by piece and then side
                pos_side, neg_side = 2 * cell[pos_src], 2 * cell[neg_src] + 1
                verts = np.empty((len(pos) + len(neg), 2))
                verts[np.arange(len(pos)) + np.searchsorted(neg_side, pos_side)] = pos
                verts[np.arange(len(neg)) + np.searchsorted(pos_side, neg_side)] = neg
                sizes = np.bincount(np.concatenate([pos_side, neg_side]), minlength=2 * len(count))
                side = np.flatnonzero(sizes)
                count = sizes[side]
                g, e, on = g[side // 2], e[side // 2], on[side // 2]
                on[side % 2 == 1, k] = False
            a, c = on[:, :, None] * g, on * e
        ends = np.cumsum(count).tolist()
        self.pieces = [verts[end - n:end] for end, n in zip(ends, count.tolist())]

        w_m = weights[-1][1] - weights[-1][0]
        b_m = biases[-1][1] - biases[-1][0]
        g, e = np.matmul(w_m, a), c @ w_m + b_m
        _, cell, nxt = _polygons(count)
        v = (verts * g[cell]).sum(axis=1) + e[cell]
        live = g.any(axis=1)[cell]
        pts, src = _clip(verts, v, nxt, (v == 0) & live, live)
        if not len(pts):
            raise ValueError("no decision boundary inside bounds")
        owner = cell[src]  # ascending: pieces emit their points in turn
        t = pts[:, 1] * g[owner, 0] - pts[:, 0] * g[owner, 1]  # along the line
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        lo, hi = (_first_extreme(t, first, extreme) for extreme in (np.minimum, np.maximum))
        self.segments = np.stack([pts[lo], pts[hi]], axis=1)  # (k, 2 ends, 2 coordinates)

    def nearest(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(k, 2) points -> each one's nearest boundary point, (k, 2), and distance, (k,)."""
        x = np.asarray(points, dtype=np.float64)[:, None]
        a = self.segments[:, 0]
        d = self.segments[:, 1] - a
        dd = (d * d).sum(axis=1)
        t = np.clip(((x - a) * d).sum(axis=2) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
        p = a + t[:, :, None] * d  # (k points, segments, 2)
        dist = np.linalg.norm(p - x, axis=2)
        rows, i = np.arange(len(p)), np.argmin(dist, axis=1)
        return p[rows, i], dist[rows, i]


def ratio_bound(a, b):
    """a/b + b/a, elementwise for arrays; at least 2 for positive reals,
    equality only at a = b."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if (a <= 0).any() or (b <= 0).any():
        raise ValueError("inputs must be positive")
    return a / b + b / a


def _norms(f_vectors, g_vectors) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """|f|, |g| and |h| per sample, for the midpoint vectors h = (f + g)/2, and whether
    f and g are orthogonal at every sample; ValueError unless f and g share a shape."""
    f, g = np.asarray(f_vectors, dtype=np.float64), np.asarray(g_vectors, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError("f and g vector arrays must have one shape")
    fn, gn, hn = (np.linalg.norm(v, axis=1) for v in (f, g, 0.5 * (f + g)))
    cos = np.abs((f * g).sum(axis=1)) / np.maximum(fn * gn, 1e-300)
    return fn, gn, hn, bool((cos <= ORTHOGONAL_TOLERANCE).all())


def check_claim1_chain(points, labels, f_vectors, g_vectors) -> dict:
    """Verify the inequality chain behind the symmetry-uniqueness argument
    on one vector instance: (s, n) points, their (s,) labels in {0, 1} and
    the (s, n) projection vectors attributed to the classifiers f and g.

    Per opposite-label pair: (i) pointwise-orthogonal f/g vectors force at
    least one of the two separation inequalities to be strict; (ii) the
    averaged chain stays strictly below the pair distance. Separation may
    reach the distance by 4 ulps, so no verdict depends on the scale. All
    pairs are evaluated at once and reported in (class-0 index, class-1
    index) order, a pair's strictness first. Precondition failures and
    violated steps are reported, never raised; arrays of the wrong shape
    raise ValueError.
    """
    pts, labels = np.asarray(points, dtype=np.float64), np.asarray(labels)
    if labels.shape != (len(pts),) or np.shape(f_vectors) != pts.shape:
        raise ValueError("labels and vector arrays must match the points")
    fn, gn, _, orthogonal_everywhere = _norms(f_vectors, g_vectors)

    i, j = np.nonzero((labels == 0)[:, None] & (labels == 1))  # product(class 0, class 1) order
    diff = pts[i] - pts[j]
    dist = np.sqrt(np.matmul(diff[:, None], diff[:, :, None]).ravel())  # norm(v)'s dot, per pair
    sum_f, sum_g = fn[i] + fn[j], gn[i] + gn[j]
    separated = np.maximum(sum_f, sum_g) <= dist * (1 + 4 * np.finfo(float).eps)
    checked = separated & orthogonal_everywhere
    avg = 0.5 * (fn[i] + gn[i]) + 0.5 * (fn[j] + gn[j])
    loose, long = checked & (sum_f >= dist) & (sum_g >= dist), checked & (avg >= dist)

    pairs, lhs, rhs = np.column_stack([i, j]).tolist(), avg.tolist(), dist.tolist()
    bad, step = np.nonzero(np.column_stack([loose, long]))  # pair by pair, strictness first
    return {
        "orthogonal_everywhere": orthogonal_everywhere,
        "precondition_ok": bool(separated.all()),
        "precondition_violations": [pairs[k] for k in np.flatnonzero(~separated)],
        "strictness_ok": not loose.any(),
        "averaged_chain_ok": not long.any(),
        "violations": [{"step": "averaged_chain", "pair": pairs[k], "lhs": lhs[k], "rhs": rhs[k]}
                       if averaged else {"step": "strictness", "pair": pairs[k]}
                       for k, averaged in zip(bad.tolist(), step.tolist())],
        "pairs_checked": int(separated.sum()),
        "passed": bool(separated.all()) and not (loose.any() or long.any()),
    }


def check_claim2_product(f_vectors, g_vectors) -> dict:
    """Evaluate the midpoint-classifier product inequality on one instance's f and g vectors.

    Computes h = (f + g)/2 per sample and reports whether
    prod|h| > prod|f| = prod|g| actually holds, raising a counterexample
    flag when it does not (orthogonal equal-norm vectors are a concrete
    failure case).
    """
    fn, gn, hn, orthogonal_everywhere = _norms(f_vectors, g_vectors)
    if (fn == 0).any() or (gn == 0).any():
        raise ValueError("zero-norm projection vector")

    prod_f = float(np.prod(fn))
    prod_g = float(np.prod(gn))
    prod_h = float(np.prod(hn))
    equal_premise = abs(prod_f - prod_g) <= EQUAL_PRODUCT_RTOL * max(prod_f, prod_g)
    strict_holds = prod_h > prod_f and prod_h > prod_g

    return {
        "prod_f": prod_f,
        "prod_g": prod_g,
        "prod_h": prod_h,
        "equal_products_premise": equal_premise,
        "orthogonal_everywhere": orthogonal_everywhere,
        "strict_product_inequality": strict_holds,
        # a counterexample needs the claim's premises to hold while its
        # conclusion fails; without orthogonality the failure is vacuous
        "counterexample": orthogonal_everywhere and equal_premise and not strict_holds,
    }
