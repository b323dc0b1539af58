"""Numerical projection of samples onto a network's decision boundary.

Three candidate solvers run per sample: a first-order root seeker with
tangent-plane distance refinement; bisection along the segments to the
nearest opposite-class samples, each crossing refined in turn; and, for 2D
inputs only, a radial fan sweep inside the best radius found so far. The
shortest converged result wins, so returned distances never exceed the
segment-crossing distance.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .nn import MlpNetwork, grad_input, margin, margin_batch

METHOD_NEWTON = "newton_refine"
METHOD_SEGMENT = "segment_bisection"
METHOD_COMBINED = "combined"

BOUNDARY_TOLERANCE = 1e-6
MAX_NEWTON_STEPS = 200
MAX_REFINE_STEPS = 500
REFINE_TOLERANCE = 1e-9
MAX_STEP_NORM = 1e3
SEGMENT_CANDIDATES = 3  # opposite-class neighbors tried as bisection targets
FAN_DIRECTIONS = 64  # 2D only: global sweep for crossings the local solvers miss
REFINE_STALL_FRACTION = 1e-4  # stop refining once per-step gain falls below this fraction of the distance


class GradientStall(RuntimeError):
    """Zero input gradient at a point off the boundary; root seeking cannot proceed."""


@dataclass
class ProjectionResult:
    point: np.ndarray
    vector: np.ndarray  # point - original sample
    distance: float
    residual: float
    converged: bool
    method: str


def _result(net, x, point, method) -> ProjectionResult:
    vector = point - x
    residual = abs(margin(net, point))
    return ProjectionResult(point, vector, float(np.linalg.norm(vector)), residual,
                            residual <= BOUNDARY_TOLERANCE, method)


def bisect_along_segment(net: MlpNetwork, x, y) -> np.ndarray:
    """Binary search for a margin root on [x, y]; requires a sign change."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx, my = margin(net, x), margin(net, y)
    if mx * my >= 0:
        raise ValueError("segment endpoints must have opposite margin signs")
    lo, hi = x, y
    m_lo = mx
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m_mid = margin(net, mid)
        if abs(m_mid) <= BOUNDARY_TOLERANCE:
            return mid
        if m_mid * m_lo < 0:
            hi = mid
        else:
            lo, m_lo = mid, m_mid
    return mid


def hit_boundary(net: MlpNetwork, x) -> ProjectionResult:
    """First-order root seeking from x: step -m*g/|g|^2 until the margin
    sign flips, then bisect the bracketing segment."""
    x = np.asarray(x, dtype=np.float64)
    m0 = margin(net, x)
    if abs(m0) <= BOUNDARY_TOLERANCE:
        return _result(net, x, x.copy(), METHOD_NEWTON)

    cur = x.copy()
    m_cur = m0
    for _ in range(MAX_NEWTON_STEPS):
        g = grad_input(net, cur)
        g_norm2 = float(g @ g)
        if g_norm2 == 0.0:
            raise GradientStall("zero margin gradient off the boundary")
        step = -m_cur / g_norm2 * g
        step_norm = np.linalg.norm(step)
        if step_norm > MAX_STEP_NORM:
            step *= MAX_STEP_NORM / step_norm
        nxt = cur + step
        m_nxt = margin(net, nxt)
        if abs(m_nxt) <= BOUNDARY_TOLERANCE:
            return _result(net, x, nxt, METHOD_NEWTON)
        if m_nxt * m_cur < 0:
            return _result(net, x, bisect_along_segment(net, cur, nxt), METHOD_NEWTON)
        cur, m_cur = nxt, m_nxt
    return _result(net, x, cur, METHOD_NEWTON)


def _refine_toward(net: MlpNetwork, x, seed_result: ProjectionResult) -> ProjectionResult:
    """Slide the boundary point toward x along the boundary's tangent plane,
    re-rooting after each slide. Distance is non-increasing by construction."""
    best = seed_result
    if not best.converged:
        return best
    for _ in range(MAX_REFINE_STEPS):
        prev_distance = best.distance
        b = best.point
        g = grad_input(net, b)
        g_norm2 = float(g @ g)
        if g_norm2 == 0.0:
            break
        v = x - b
        tangent = v - (v @ g) / g_norm2 * g
        t_norm = np.linalg.norm(tangent)
        if t_norm <= REFINE_TOLERANCE:
            break
        moved = False
        eta = 1.0
        while eta >= 1e-4:
            try:
                cand = hit_boundary(net, b + eta * tangent)
            except GradientStall:
                cand = None
            if cand is not None and cand.converged:
                d = float(np.linalg.norm(cand.point - x))
                if d < best.distance - REFINE_TOLERANCE:
                    best = _result(net, x, cand.point, best.method)
                    moved = True
                    break
            eta *= 0.5
        if not moved:
            break
        # gains shrink geometrically; once a step buys less than a small
        # fraction of the distance the slide has effectively converged
        if prev_distance - best.distance < REFINE_STALL_FRACTION * best.distance:
            break
    return best


def _fan_sweep(net: MlpNetwork, x: np.ndarray, radius: float) -> ProjectionResult | None:
    """Radial sweep over evenly spaced 2D directions inside the current best
    radius; each sign flip is bisected and refined. Catches nearest boundary
    branches the gradient-guided candidates converge past."""
    angles = 2 * np.pi * np.arange(FAN_DIRECTIONS) / FAN_DIRECTIONS
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    n_steps = 24
    radii = radius * (np.arange(1, n_steps + 1) / n_steps)
    pts = x[None, None, :] + radii[None, :, None] * dirs[:, None, :]
    m = margin_batch(net, pts.reshape(-1, 2)).reshape(FAN_DIRECTIONS, n_steps)
    m0 = margin(net, x)
    flips = m * m0 < 0

    best = None
    for d in range(FAN_DIRECTIONS):
        hit = np.flatnonzero(flips[d])
        if not len(hit):
            continue
        k = hit[0]
        a = x + (radii[k - 1] if k > 0 else 0.0) * dirs[d]
        b = x + radii[k] * dirs[d]
        if margin(net, a) * margin(net, b) >= 0:
            continue
        cand = _result(net, x, bisect_along_segment(net, a, b), METHOD_COMBINED)
        if best is None or cand.distance < best.distance:
            best = cand
    if best is None:
        return None
    return replace(_refine_toward(net, x, best), method=METHOD_COMBINED)


def project_to_boundary(net: MlpNetwork, x, label: int, data: Dataset) -> ProjectionResult:
    """Nearest-boundary-point estimate for a correctly classified sample.

    Candidate 1: hit_boundary + tangent-plane refinement. Candidate 2:
    bisection toward the nearest opposite-class samples (an upper bound on
    the true distance), each crossing refined. Candidate 3, 2D only: the fan
    sweep inside the better radius of the first two. Returns the closest
    converged candidate; ties within REFINE_TOLERANCE go to candidate 1.
    """
    x = np.asarray(x, dtype=np.float64)

    try:
        cand1 = _refine_toward(net, x, hit_boundary(net, x))
    except GradientStall:
        cand1 = None

    cand2 = None
    opp_idx = np.flatnonzero(data.labels != label)
    if len(opp_idx):
        m_x = margin(net, x)
        opp = data.samples[opp_idx]
        m_opp = margin_batch(net, opp)
        usable = np.flatnonzero(m_opp * m_x < 0)
        if len(usable):
            dists = np.linalg.norm(opp[usable] - x, axis=1)
            order = usable[np.argsort(dists, kind="stable")]
            for y in opp[order[:SEGMENT_CANDIDATES]]:
                crossing = _result(net, x, bisect_along_segment(net, x, y), METHOD_SEGMENT)
                # each segment crossing is itself a valid refinement seed
                refined = _refine_toward(net, x, crossing)
                if refined.distance < crossing.distance - REFINE_TOLERANCE:
                    crossing = replace(refined, method=METHOD_COMBINED)
                if cand2 is None or crossing.distance < cand2.distance:
                    cand2 = crossing

    cand3 = None
    if len(x) == 2:
        radius = min((c.distance for c in (cand1, cand2) if c is not None and c.converged),
                     default=None)
        if radius is not None and radius > 0:
            cand3 = _fan_sweep(net, x, radius)

    candidates = [c for c in (cand1, cand2, cand3) if c is not None and c.converged]
    if not candidates:
        fallback = cand1 or cand2
        if fallback is None:
            return ProjectionResult(x.copy(), np.zeros_like(x), 0.0,
                                    abs(margin(net, x)), False, METHOD_COMBINED)
        return fallback
    best = min(candidates, key=lambda c: c.distance)
    if cand1 is not None and cand1.converged and cand1.distance <= best.distance + REFINE_TOLERANCE:
        best = cand1
    return best


def adversarial_overshoot(net: MlpNetwork, result: ProjectionResult, kappa: float) -> np.ndarray:
    """x + (1+kappa) * projection vector; crosses the boundary for kappa > 0."""
    if not result.converged:
        raise ValueError("overshoot requires a converged projection")
    x = result.point - result.vector
    return x + (1.0 + kappa) * result.vector


def _worker_count() -> int:
    env = os.environ.get("BLAB_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def project_dataset(net: MlpNetwork, data: Dataset) -> tuple[Dataset, list[ProjectionResult]]:
    """Project every sample of a fully correctly classified dataset.

    Non-converged samples keep their original location and are flagged in
    their ProjectionResult. Per-sample work is independent, so threading
    (capped by BLAB_THREADS) does not change the output.
    """
    m = margin_batch(net, data.samples)
    correct = np.where(data.labels == 1, m > 0, m < 0)
    if not correct.all():
        bad = int(np.flatnonzero(~correct)[0])
        raise ValueError(f"sample {bad} is misclassified; projection requires a trained separator")

    def one(i: int) -> ProjectionResult:
        return project_to_boundary(net, data.samples[i], int(data.labels[i]), data)

    workers = min(_worker_count(), len(data))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(len(data))))
    else:
        results = [one(i) for i in range(len(data))]

    new_samples = data.samples.copy()
    for i, r in enumerate(results):
        if r.converged:
            new_samples[i] = r.point
    return data.with_samples(new_samples), results


def export_projection_csv(results: list[ProjectionResult], labels, path) -> None:
    with open(path, "w") as f:
        f.write("index,label,converged,distance,residual,method\n")
        for i, r in enumerate(results):
            f.write(f"{i},{int(labels[i])},{int(r.converged)},{r.distance!r},{r.residual!r},{r.method}\n")
