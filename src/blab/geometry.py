"""Network-free geometric ground truth and numeric checks of the
symmetry-uniqueness argument on raw vector data.

Nothing here imports the network module: closed-form halfspace
projections, the exact linear-region split of a 2D ReLU net (given as raw
weight arrays) and 2D grid search serve as independent oracles for the
boundary solver, and the claim checkers evaluate the inequality chains on
explicit vector instances, reporting where they hold and where they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import SymmetricLayout

SUBSET_CAP = 12  # AM-GM sub-step enumerates 2^k subsets; cap k


@dataclass
class VectorProjectionInstance:
    points: np.ndarray      # (s, n)
    labels: np.ndarray      # (s,) in {0,1}
    f_vectors: np.ndarray   # (s, n) projection vectors attributed to classifier f
    g_vectors: np.ndarray   # (s, n) projection vectors attributed to classifier g

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.f_vectors = np.asarray(self.f_vectors, dtype=np.float64)
        self.g_vectors = np.asarray(self.g_vectors, dtype=np.float64)
        s = len(self.points)
        for arr in (self.labels,):
            if arr.shape != (s,):
                raise ValueError("labels length must match points")
        for arr in (self.f_vectors, self.g_vectors):
            if arr.shape != self.points.shape:
                raise ValueError("vector arrays must match points shape")

    def to_jsonable(self) -> dict:
        return {"points": self.points.tolist(), "labels": self.labels.tolist(),
                "f_vectors": self.f_vectors.tolist(), "g_vectors": self.g_vectors.tolist()}

    @classmethod
    def from_jsonable(cls, d: dict) -> "VectorProjectionInstance":
        return cls(np.array(d["points"]), np.array(d["labels"]),
                   np.array(d["f_vectors"]), np.array(d["g_vectors"]))


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
    expensive scan; each crossing edge is sub-resolved by bisection.
    """

    def __init__(self, margin_fn, bounds, step: float):
        if step <= 0:
            raise ValueError("step must be positive")
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        xs = np.arange(x_lo, x_hi + step / 2, step)
        ys = np.arange(y_lo, y_hi + step / 2, step)
        self.bounds = ((x_lo, x_hi), (y_lo, y_hi))

        pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        sign = np.sign(margin_fn(pts)).reshape(len(xs), len(ys))
        a_pts, b_pts = [], []
        flip_x = sign[:-1, :] * sign[1:, :] < 0
        ix, iy = np.nonzero(flip_x)
        a_pts.append(np.column_stack([xs[ix], ys[iy]]))
        b_pts.append(np.column_stack([xs[ix + 1], ys[iy]]))
        flip_y = sign[:, :-1] * sign[:, 1:] < 0
        ix, iy = np.nonzero(flip_y)
        a_pts.append(np.column_stack([xs[ix], ys[iy]]))
        b_pts.append(np.column_stack([xs[ix], ys[iy + 1]]))
        on_grid = np.column_stack(np.nonzero(sign == 0))
        zero_pts = np.column_stack([xs[on_grid[:, 0]], ys[on_grid[:, 1]]]) if len(on_grid) else np.empty((0, 2))

        a = np.vstack(a_pts)
        b = np.vstack(b_pts)
        if len(a) == 0 and len(zero_pts) == 0:
            raise ValueError("no margin sign change inside bounds")
        if len(a):
            ma = margin_fn(a)
            for _ in range(50):
                mid = 0.5 * (a + b)
                mm = margin_fn(mid)
                left = mm * ma < 0
                b = np.where(left[:, None], mid, b)
                a = np.where(left[:, None], a, mid)
                ma = np.where(left, ma, mm)
            crossings = 0.5 * (a + b)
        else:
            crossings = np.empty((0, 2))
        self.crossings = np.vstack([crossings, zero_pts])

    def nearest(self, x) -> tuple[np.ndarray, float]:
        x = np.asarray(x, dtype=np.float64)
        d = np.linalg.norm(self.crossings - x, axis=1)
        i = int(np.argmin(d))
        return self.crossings[i], float(d[i])


def _cut(poly: np.ndarray, v: np.ndarray):
    """Split a convex polygon by the sign of an affine function whose values
    at the vertices are v: one Sutherland–Hodgman pass for both sides.

    Returns the part where v >= 0, the part where v <= 0 and the points of
    the outline where v = 0."""
    pos, neg, line = [], [], []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        p, vp, vq = poly[i], v[i], v[j]
        if vp >= 0:
            pos.append(p)
        if vp <= 0:
            neg.append(p)
        if vp == 0:
            line.append(p)
        elif vp * vq < 0:
            cross = p + vp / (vp - vq) * (poly[j] - p)
            pos.append(cross)
            neg.append(cross)
            line.append(cross)
    return np.array(pos), np.array(neg), line


def _split_layer(poly: np.ndarray, g: np.ndarray, e: np.ndarray) -> list:
    """Cells of a convex polygon on which every unit of z = g x + e keeps one
    sign, each with its 0/1 activation mask. A unit whose sign is the same
    at every vertex of a cell does not cut it."""
    cells = []
    todo = [(poly, 0, np.zeros(len(e)))]
    while todo:
        poly, j, mask = todo.pop()
        v = poly @ g[j:].T + e[j:]
        mixed = (v > 0).any(axis=0) & (v < 0).any(axis=0)
        k = int(np.argmax(mixed)) if mixed.any() else v.shape[1]
        mask[j:j + k] = v[:, :k].max(axis=0) > 0
        if k == v.shape[1]:
            cells.append((poly, mask))
            continue
        pos, neg, _ = _cut(poly, v[:, k])
        on = mask.copy()
        on[j + k] = 1.0
        todo += [(neg, j + k + 1, mask), (pos, j + k + 1, on)]
    return cells


class PiecewiseLinearBoundary:
    """Exact decision boundary of a 2D ReLU network inside a box.

    The margin (logit 1 - logit 0) is affine on each linear region of the
    network. The box is cut into those regions layer by layer, one hidden
    unit at a time: on a convex piece a unit's pre-activation is affine, so
    each cut is one line clip, and each piece carries its affine map
    h = A x + c through the masked layer. On a final piece the margin's zero
    set is at most one segment; `nearest` is the nearest point over those
    segments. A region on which the margin is identically zero is skipped.
    """

    def __init__(self, weights, biases, bounds):
        if weights[0].shape[1] != 2:
            raise ValueError("the network input must be 2-dimensional")
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        box = np.array([[x_lo, y_lo], [x_hi, y_lo], [x_hi, y_hi], [x_lo, y_hi]],
                       dtype=np.float64)
        pieces = [(box, np.eye(2), np.zeros(2))]
        for w, b in zip(weights[:-1], biases[:-1]):
            split = []
            for poly, a, c in pieces:
                g, e = w @ a, w @ c + b
                split += [(cell, mask[:, None] * g, mask * e)
                          for cell, mask in _split_layer(poly, g, e)]
            pieces = split
        self.pieces = [poly for poly, _, _ in pieces]

        w_m = weights[-1][1] - weights[-1][0]
        b_m = biases[-1][1] - biases[-1][0]
        ends = []
        for poly, a, c in pieces:
            g = w_m @ a
            if not g.any():
                continue
            _, _, line = _cut(poly, poly @ g + (w_m @ c + b_m))
            if line:
                pts = np.array(line)
                t = pts @ np.array([-g[1], g[0]])
                ends.append((pts[np.argmin(t)], pts[np.argmax(t)]))
        if not ends:
            raise ValueError("no decision boundary inside bounds")
        self.segments = np.array(ends)  # (k, 2 ends, 2 coordinates)

    def nearest(self, x) -> tuple[np.ndarray, float]:
        x = np.asarray(x, dtype=np.float64)
        a = self.segments[:, 0]
        d = self.segments[:, 1] - a
        dd = (d * d).sum(axis=1)
        t = np.clip(((x - a) * d).sum(axis=1) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
        p = a + t[:, None] * d
        dist = np.linalg.norm(p - x, axis=1)
        i = int(np.argmin(dist))
        return p[i], float(dist[i])


def ratio_bound(a: float, b: float) -> float:
    """a/b + b/a; at least 2 for positive reals, equality only at a = b."""
    if a <= 0 or b <= 0:
        raise ValueError("inputs must be positive")
    return a / b + b / a


def _opposite_pairs(labels: np.ndarray):
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    for i in idx0:
        for j in idx1:
            yield int(i), int(j)


def check_claim1_chain(instance: VectorProjectionInstance, orth_tol: float = 1e-9,
                       slack_tol: float = 0.0) -> dict:
    """Verify the inequality chain behind the symmetry-uniqueness argument
    on one vector instance.

    Per opposite-label pair: (i) pointwise-orthogonal f/g vectors force at
    least one of the two separation inequalities to be strict; (ii) the
    averaged chain stays strictly below the pair distance; (iii) the
    midpoint vector obeys the triangle inequality. Precondition failures and
    violated steps are reported, never raised.
    """
    pts, labels = instance.points, instance.labels
    fv, gv = instance.f_vectors, instance.g_vectors
    fn = np.linalg.norm(fv, axis=1)
    gn = np.linalg.norm(gv, axis=1)
    dots = np.abs((fv * gv).sum(axis=1))
    scale = np.maximum(fn * gn, 1e-300)
    orthogonal_everywhere = bool((dots / scale <= orth_tol).all())

    report = {
        "orthogonal_everywhere": orthogonal_everywhere,
        "precondition_ok": True,
        "precondition_violations": [],
        "strictness_ok": True,
        "averaged_chain_ok": True,
        "triangle_ok": True,
        "violations": [],
        "pairs_checked": 0,
        "vacuous": not orthogonal_everywhere,
    }

    hv = 0.5 * (fv + gv)
    hn = np.linalg.norm(hv, axis=1)
    # step (iii) is unconditional
    tri_bad = hn > 0.5 * (fn + gn) + 1e-12
    if tri_bad.any():
        report["triangle_ok"] = False
        report["violations"].append({"step": "triangle", "indices": np.flatnonzero(tri_bad).tolist()})

    for i, j in _opposite_pairs(labels):
        dist = float(np.linalg.norm(pts[i] - pts[j]))
        sep_f = fn[i] + fn[j] <= dist + 1e-12
        sep_g = gn[i] + gn[j] <= dist + 1e-12
        if not (sep_f and sep_g):
            report["precondition_ok"] = False
            report["precondition_violations"].append([i, j])
            continue
        report["pairs_checked"] += 1
        if not orthogonal_everywhere:
            continue
        strict_f = fn[i] + fn[j] < dist - slack_tol
        strict_g = gn[i] + gn[j] < dist - slack_tol
        if not (strict_f or strict_g):
            report["strictness_ok"] = False
            report["violations"].append({"step": "strictness", "pair": [i, j]})
        avg = 0.5 * (fn[i] + gn[i]) + 0.5 * (fn[j] + gn[j])
        if not avg < dist:
            report["averaged_chain_ok"] = False
            report["violations"].append({"step": "averaged_chain", "pair": [i, j],
                                         "lhs": avg, "rhs": dist})
    report["passed"] = (report["precondition_ok"] and report["strictness_ok"]
                        and report["averaged_chain_ok"] and report["triangle_ok"])
    return report


def check_claim2_product(instance: VectorProjectionInstance, rtol: float = 1e-9) -> dict:
    """Evaluate the midpoint-classifier product inequality on one instance.

    Computes h = (f + g)/2 per sample and reports whether
    prod|h| > prod|f| = prod|g| actually holds, raising a counterexample
    flag when it does not (orthogonal equal-norm vectors are a concrete
    failure case). Also checks the scalar a/b + b/a >= 2 sub-step over
    index subsets up to SUBSET_CAP.
    """
    fn = np.linalg.norm(instance.f_vectors, axis=1)
    gn = np.linalg.norm(instance.g_vectors, axis=1)
    if (fn == 0).any() or (gn == 0).any():
        raise ValueError("zero-norm projection vector")
    hn = np.linalg.norm(0.5 * (instance.f_vectors + instance.g_vectors), axis=1)
    dots = np.abs((instance.f_vectors * instance.g_vectors).sum(axis=1))
    orthogonal_everywhere = bool((dots / (fn * gn) <= 1e-9).all())

    prod_f = float(np.prod(fn))
    prod_g = float(np.prod(gn))
    prod_h = float(np.prod(hn))
    equal_premise = abs(prod_f - prod_g) <= rtol * max(prod_f, prod_g)
    strict_holds = prod_h > prod_f and prod_h > prod_g

    s = len(fn)
    cap = min(s, SUBSET_CAP)
    amgm_ok = True
    amgm_min = float("inf")
    for size in range(1, cap + 1):
        for subset in combinations(range(cap), size):
            a = float(np.prod(fn[list(subset)]))
            b = float(np.prod(gn[list(subset)]))
            val = ratio_bound(a, b)
            amgm_min = min(amgm_min, val)
            if val < 2.0 - 1e-12:
                amgm_ok = False

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
        "amgm_substep_ok": amgm_ok,
        "amgm_min": amgm_min,
    }


_DIAGONALS = (np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2))


def enumerate_square_xor_projections(layout: SymmetricLayout, tie_tol: float = 1e-9) -> list[np.ndarray]:
    """Distinct whole-set projection assignments onto the diagonal-pair boundary.

    The candidate boundary is the union of the two diagonal lines. For each
    diagonal, the assignment sending every point to its foot on that line is
    valid when no point is strictly closer to the other diagonal; the exact
    square layout yields two assignments, a perturbed one collapses to one.
    """
    if layout.kind != "square_xor":
        raise ValueError(f"unsupported layout kind {layout.kind!r} for this enumeration")
    pts = layout.dataset.samples
    feet, dists = [], []
    for u in _DIAGONALS:
        along = (pts @ u)[:, None] * u[None, :]
        feet.append(along)
        dists.append(np.linalg.norm(pts - along, axis=1))
    dists = np.array(dists)  # (2, s)
    best = dists.min(axis=0)
    assignments = []
    for k in range(2):
        if (dists[k] <= best + tie_tol).all():
            assignments.append(feet[k])
    return assignments
