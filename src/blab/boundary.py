"""Numerical projection of samples onto a network's decision boundary.

Two candidate solvers run per sample: a first-order root seeker with
tangent-plane distance refinement, and a bisection along the segment to
the nearest opposite-class sample. The shorter result wins, so returned
distances never exceed the segment-crossing distance.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .nn import MlpNetwork, grad_input, margin, margin_batch

METHOD_NEWTON = "newton_refine"
METHOD_SEGMENT = "segment_bisection"
METHOD_COMBINED = "combined"


class GradientStall(RuntimeError):
    """Zero input gradient at a point off the boundary; root seeking cannot proceed."""


@dataclass
class ProjectorOptions:
    boundary_tolerance: float = 1e-6
    max_newton_steps: int = 200
    max_refine_steps: int = 500
    refine_tolerance: float = 1e-9
    max_step_norm: float = 1e3
    segment_candidates: int = 3  # opposite-class neighbors tried as bisection targets
    fan_directions: int = 64  # 2D only: global sweep for crossings the local solvers miss
    refine_stall_fraction: float = 1e-4  # stop refining once per-step gain falls below this fraction of the distance

    def validate(self) -> None:
        if min(self.boundary_tolerance, self.refine_tolerance) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class ProjectionResult:
    point: np.ndarray
    vector: np.ndarray  # point - original sample
    distance: float
    residual: float
    converged: bool
    solver_iterations: int
    method: str


def _result(net, x, point, iterations, method, opts) -> ProjectionResult:
    vector = point - x
    residual = abs(margin(net, point))
    return ProjectionResult(point, vector, float(np.linalg.norm(vector)), residual,
                            residual <= opts.boundary_tolerance, iterations, method)


def bisect_along_segment(net: MlpNetwork, x, y, tol: float) -> np.ndarray:
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
        if abs(m_mid) <= tol:
            return mid
        if m_mid * m_lo < 0:
            hi = mid
        else:
            lo, m_lo = mid, m_mid
    return mid


def hit_boundary(net: MlpNetwork, x, opts: ProjectorOptions) -> ProjectionResult:
    """First-order root seeking from x: step -m*g/|g|^2 until the margin
    sign flips, then bisect the bracketing segment."""
    opts.validate()
    x = np.asarray(x, dtype=np.float64)
    m0 = margin(net, x)
    if abs(m0) <= opts.boundary_tolerance:
        return _result(net, x, x.copy(), 0, METHOD_NEWTON, opts)

    cur = x.copy()
    m_cur = m0
    for it in range(1, opts.max_newton_steps + 1):
        g = grad_input(net, cur)
        g_norm2 = float(g @ g)
        if g_norm2 == 0.0:
            raise GradientStall("zero margin gradient off the boundary")
        step = -m_cur / g_norm2 * g
        step_norm = np.linalg.norm(step)
        if step_norm > opts.max_step_norm:
            step *= opts.max_step_norm / step_norm
        nxt = cur + step
        m_nxt = margin(net, nxt)
        if abs(m_nxt) <= opts.boundary_tolerance:
            return _result(net, x, nxt, it, METHOD_NEWTON, opts)
        if m_nxt * m_cur < 0:
            point = bisect_along_segment(net, cur, nxt, opts.boundary_tolerance)
            return _result(net, x, point, it, METHOD_NEWTON, opts)
        cur, m_cur = nxt, m_nxt
    return _result(net, x, cur, opts.max_newton_steps, METHOD_NEWTON, opts)


def _refine_toward(net: MlpNetwork, x, seed_result: ProjectionResult,
                   opts: ProjectorOptions) -> ProjectionResult:
    """Slide the boundary point toward x along the boundary's tangent plane,
    re-rooting after each slide. Distance is non-increasing by construction."""
    best = seed_result
    if not best.converged:
        return best
    for it in range(opts.max_refine_steps):
        prev_distance = best.distance
        b = best.point
        g = grad_input(net, b)
        g_norm2 = float(g @ g)
        if g_norm2 == 0.0:
            break
        v = x - b
        tangent = v - (v @ g) / g_norm2 * g
        t_norm = np.linalg.norm(tangent)
        if t_norm <= opts.refine_tolerance:
            break
        moved = False
        eta = 1.0
        while eta >= 1e-4:
            try:
                cand = hit_boundary(net, b + eta * tangent, opts)
            except GradientStall:
                cand = None
            if cand is not None and cand.converged:
                d = float(np.linalg.norm(cand.point - x))
                if d < best.distance - opts.refine_tolerance:
                    best = _result(net, x, cand.point,
                                   best.solver_iterations + cand.solver_iterations + it + 1,
                                   best.method, opts)
                    moved = True
                    break
            eta *= 0.5
        if not moved:
            break
        # gains shrink geometrically; once a step buys less than a small
        # fraction of the distance the slide has effectively converged
        if prev_distance - best.distance < opts.refine_stall_fraction * best.distance:
            break
    return best


def _nearest_opposite_indices(data: Dataset, label: int) -> np.ndarray:
    return np.flatnonzero(data.labels != label)


def _fan_sweep(net: MlpNetwork, x: np.ndarray, radius: float,
               opts: ProjectorOptions) -> ProjectionResult | None:
    """Radial sweep over evenly spaced 2D directions inside the current best
    radius; each sign flip is bisected and refined. Catches nearest boundary
    branches the gradient-guided candidates converge past."""
    angles = 2 * np.pi * np.arange(opts.fan_directions) / opts.fan_directions
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    n_steps = 24
    radii = radius * (np.arange(1, n_steps + 1) / n_steps)
    pts = x[None, None, :] + radii[None, :, None] * dirs[:, None, :]
    m = margin_batch(net, pts.reshape(-1, 2)).reshape(opts.fan_directions, n_steps)
    m0 = margin(net, x)
    flips = m * m0 < 0

    best = None
    for d in range(opts.fan_directions):
        hit = np.flatnonzero(flips[d])
        if not len(hit):
            continue
        k = hit[0]
        a = x + (radii[k - 1] if k > 0 else 0.0) * dirs[d]
        b = x + radii[k] * dirs[d]
        if margin(net, a) * margin(net, b) >= 0:
            continue
        point = bisect_along_segment(net, a, b, opts.boundary_tolerance)
        cand = _result(net, x, point, 0, METHOD_COMBINED, opts)
        if best is None or cand.distance < best.distance:
            best = cand
    if best is None:
        return None
    refined = _refine_toward(net, x, best, opts)
    return ProjectionResult(refined.point, refined.vector, refined.distance, refined.residual,
                            refined.converged, refined.solver_iterations, METHOD_COMBINED)


def project_to_boundary(net: MlpNetwork, x, label: int, data: Dataset,
                        opts: ProjectorOptions) -> ProjectionResult:
    """Nearest-boundary-point estimate for a correctly classified sample.

    Candidate 1: hit_boundary + tangent-plane refinement. Candidate 2:
    bisection toward the nearest opposite-class sample (an upper bound on
    the true distance). Returns the closer candidate; ties go to candidate 1.
    """
    opts.validate()
    x = np.asarray(x, dtype=np.float64)

    try:
        seed = hit_boundary(net, x, opts)
        cand1 = _refine_toward(net, x, seed, opts)
    except GradientStall:
        cand1 = None

    cand2 = None
    opp_idx = _nearest_opposite_indices(data, label)
    if len(opp_idx):
        m_x = margin(net, x)
        opp = data.samples[opp_idx]
        m_opp = margin_batch(net, opp)
        usable = np.flatnonzero(m_opp * m_x < 0)
        if len(usable):
            dists = np.linalg.norm(opp[usable] - x, axis=1)
            order = usable[np.argsort(dists, kind="stable")]
            for y in opp[order[:max(1, opts.segment_candidates)]]:
                point = bisect_along_segment(net, x, y, opts.boundary_tolerance)
                crossing = _result(net, x, point, 0, METHOD_SEGMENT, opts)
                # each segment crossing is itself a valid refinement seed
                refined = _refine_toward(net, x, crossing, opts)
                if refined.distance < crossing.distance - opts.refine_tolerance:
                    crossing = ProjectionResult(refined.point, refined.vector, refined.distance,
                                                refined.residual, refined.converged,
                                                refined.solver_iterations, METHOD_COMBINED)
                if cand2 is None or crossing.distance < cand2.distance:
                    cand2 = crossing

    cand3 = None
    if len(x) == 2 and opts.fan_directions > 0:
        radius = min((c.distance for c in (cand1, cand2) if c is not None and c.converged),
                     default=None)
        if radius is not None and radius > 0:
            cand3 = _fan_sweep(net, x, radius, opts)

    candidates = [c for c in (cand1, cand2, cand3) if c is not None and c.converged]
    if not candidates:
        fallback = cand1 or cand2
        if fallback is None:
            return ProjectionResult(x.copy(), np.zeros_like(x), 0.0,
                                    abs(margin(net, x)), False, 0, METHOD_COMBINED)
        return fallback
    best = min(candidates, key=lambda c: c.distance)
    if cand1 is not None and cand1.converged and cand1.distance <= best.distance + opts.refine_tolerance:
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


def project_dataset(net: MlpNetwork, data: Dataset,
                    opts: ProjectorOptions) -> tuple[Dataset, list[ProjectionResult]]:
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
        return project_to_boundary(net, data.samples[i], int(data.labels[i]), data, opts)

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
