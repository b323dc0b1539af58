"""Numerical projection of samples onto a network's decision boundary.

One lockstep engine projects a whole set of samples at once. Every stage
works on an (rows, n) array and each row stops on its own mask, so one step
of a stage is one batched margin or gradient evaluation of the rows still
moving; projecting a dataset evaluates its samples' margins once:

- the Newton seed (`hit_boundary`): the binary DeepFool step -m*g/|g|^2
  until the margin is within BOUNDARY_TOLERANCE or changes sign;
- the bracket root solve (`bisect_along_segment`): Illinois regula falsi on
  every sign change the other stages find;
- segment crossings toward each sample's SEGMENT_CANDIDATES nearest
  opposite-class samples;
- for 2D inputs, a fan of FAN_DIRECTIONS rays from each sample, each as
  long as its least converged seed or crossing distance: every ray whose
  end has the other margin sign adds its crossing to the pool (`_fan_sweep`);
- the tangent slide (`_slide`) of every converged candidate at once: each
  moves toward its sample along the boundary's tangent plane and is
  re-rooted at the fractions of SLIDE_STEPS (the full step, then halvings
  down to MIN_SLIDE_STEP), keeping its largest winning step. Where rows
  are cheap, as at 2-D, a step tries every fraction in one hit_boundary
  call; at 784-d, past a few rows, each fraction gets a call of its own.

All candidates are rows of one pool, each owned by its sample. Each sample
gets its shortest converged row, so returned distances never exceed the
segment-crossing distance; a sample with no converged row stays where it
is. Which rows a step evaluates depends on the samples alone, but BLAS may
order a batched product's sums, or pick another kernel, by the batch
height: the last bits of a projection depend on the rows it is projected
with, at 2-d as well as at high input widths. The height BLAS sees, in
margin and gradient evaluations alike, is at most `nn.FORWARD_BLOCK_ROWS`
(1024): a taller batch is evaluated in equal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NumericError
from .nn import MlpNetwork, grad_input, is_correct, margin_batch

METHOD_NEWTON = "newton_refine"
METHOD_SEGMENT = "segment_bisection"
METHOD_COMBINED = "combined"

BOUNDARY_TOLERANCE = 1e-6
MAX_NEWTON_STEPS = 200
MAX_BRACKET_STEPS = 200
MAX_REFINE_STEPS = 500
REFINE_TOLERANCE = 1e-9
MIN_SLIDE_STEP = 1e-4  # backtracking halves a slide step down to this fraction of the tangent
# the slide's step fractions: 1, then each halving down to MIN_SLIDE_STEP
SLIDE_STEPS = 0.5 ** np.arange(int(-np.log2(MIN_SLIDE_STEP)) + 1)
# A slide's halving search puts as many step fractions into one hit_boundary
# call as keep its rows x fractions x forward multiply-adds per row under
# this, about what the fixed cost of a call buys: a 1-row call took about
# 1 ms, and a row of a [784,500,256,128,32,2] net (557k multiply-adds)
# about 0.16 ms, with 1 BLAS thread. So a 2-D net tries all 14 step fractions
# in one call, while at 784-d, past 3 rows, each gets a call of its own.
SLIDE_SEARCH_MACS = 1 << 22
MAX_STEP_NORM = 1e3
SEGMENT_CANDIDATES = 3  # opposite-class neighbors tried as bracket ends
FAN_DIRECTIONS = 64  # 2D only: global sweep for crossings the local solvers miss
REFINE_STALL_FRACTION = 1e-4  # stop sliding once per-step gain falls below this fraction of the distance


@dataclass
class ProjectionResult:
    point: np.ndarray
    vector: np.ndarray  # point - original sample
    distance: float
    residual: float
    converged: bool
    method: str


def bisect_along_segment(net: MlpNetwork, a, b, m_a, m_b) -> tuple[np.ndarray, np.ndarray]:
    """Margin root on each segment [a_i, b_i] by Illinois regula falsi.

    The end margins m_a, m_b must differ in sign on every row. Each step
    evaluates the secant root of the current bracket; an end kept twice in a
    row has its margin halved, so a kink cannot pin it. A row stops once its
    |margin| <= BOUNDARY_TOLERANCE. Returns the points and their margins."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if np.any(np.asarray(m_a) * np.asarray(m_b) >= 0):
        raise ValueError("segment endpoints must have opposite margin signs")
    span = b - a
    t_old, f_old = np.zeros(len(a)), np.array(m_a, dtype=np.float64)
    t_new, f_new = np.ones(len(a)), np.array(m_b, dtype=np.float64)
    t, m = t_new.copy(), f_new.copy()
    act = np.arange(len(a))
    for _ in range(MAX_BRACKET_STEPS):
        if not len(act):
            break
        to, fo, tn, fn = t_old[act], f_old[act], t_new[act], f_new[act]
        tc = (to * fn - tn * fo) / (fn - fo)
        mc = margin_batch(net, a[act] + tc[:, None] * span[act])
        t[act], m[act] = tc, mc
        flip = mc * fn < 0
        t_old[act] = np.where(flip, tn, to)
        f_old[act] = np.where(flip, fn, 0.5 * fo)
        t_new[act], f_new[act] = tc, mc
        act = act[np.abs(mc) > BOUNDARY_TOLERANCE]
    return a + t[:, None] * span, m


def hit_boundary(net: MlpNetwork, starts, m) -> tuple[np.ndarray, np.ndarray]:
    """Newton root seeking from each row of starts, of margins m: step
    -m*g/|g|^2, capped at MAX_STEP_NORM, until |margin| <= BOUNDARY_TOLERANCE
    or the margin changes sign, then solve the last step's bracket. A row
    stops where its gradient is zero. Returns the points and their margins."""
    points = np.array(starts, dtype=np.float64)
    m = np.array(m, dtype=np.float64)
    brackets = []
    act = np.flatnonzero(np.abs(m) > BOUNDARY_TOLERANCE)
    for _ in range(MAX_NEWTON_STEPS):
        if not len(act):
            break
        g = grad_input(net, points[act])
        g2 = np.einsum("ij,ij->i", g, g)
        if not g2.all():
            act, g, g2 = act[g2 != 0.0], g[g2 != 0.0], g2[g2 != 0.0]
        cur, m_cur = points[act], m[act]
        step = (-m_cur / g2)[:, None] * g
        norm = np.linalg.norm(step, axis=1)
        big = norm > MAX_STEP_NORM
        if big.any():
            step[big] *= (MAX_STEP_NORM / norm[big])[:, None]
        nxt = cur + step
        m_nxt = margin_batch(net, nxt)
        on = np.abs(m_nxt) <= BOUNDARY_TOLERANCE
        flip = ~on & (m_nxt * m_cur < 0)
        if flip.any():
            brackets.append((act[flip], cur[flip], nxt[flip], m_cur[flip], m_nxt[flip]))
        points[act[~flip]], m[act[~flip]] = nxt[~flip], m_nxt[~flip]
        act = act[~on & ~flip]
    if brackets:
        rows, lo, hi, m_lo, m_hi = (np.concatenate(p) for p in zip(*brackets))
        points[rows], m[rows] = bisect_along_segment(net, lo, hi, m_lo, m_hi)
    return points, m


def _slide(net: MlpNetwork, x, points, m, dist, rows) -> None:
    """Slide points[rows] toward x[rows] along the boundary's tangent plane,
    in place. A step re-roots each slid point with hit_boundary and keeps it
    when the distance drops by more than REFINE_TOLERANCE. Each row tries
    the fractions of SLIDE_STEPS, the full step first, as many per call as
    SLIDE_SEARCH_MACS allows, and keeps its largest winning step: the one a
    halve-until-it-wins loop would stop at. A row stops when no step helps
    or a step gains less than REFINE_STALL_FRACTION of the distance."""
    row_macs = sum(w.size for w in net.weights)
    act = rows
    for _ in range(MAX_REFINE_STEPS):
        if not len(act):
            break
        b = points[act]
        g = grad_input(net, b)
        g2 = np.einsum("ij,ij->i", g, g)
        if not g2.all():
            act, b, g, g2 = act[g2 != 0.0], b[g2 != 0.0], g[g2 != 0.0], g2[g2 != 0.0]
        v = x[act] - b
        tangent = v - (np.einsum("ij,ij->i", v, g) / g2)[:, None] * g
        keep = np.linalg.norm(tangent, axis=1) > REFINE_TOLERANCE
        act, b, tangent = act[keep], b[keep], tangent[keep]
        before = dist[act]
        moved = np.zeros(len(act), dtype=bool)
        tried = 0
        while tried < len(SLIDE_STEPS):
            search = np.flatnonzero(~moved)
            if not len(search):
                break
            etas = SLIDE_STEPS[tried:tried + max(1, SLIDE_SEARCH_MACS // (len(search) * row_macs))]
            tried += len(etas)
            starts = (b[search] + etas[:, None, None] * tangent[search]).reshape(-1, b.shape[1])
            p, mp = hit_boundary(net, starts, margin_batch(net, starts))
            p, mp = p.reshape(len(etas), len(search), -1), mp.reshape(len(etas), -1)
            d = np.linalg.norm(p - x[act[search]], axis=2)
            win = (np.abs(mp) <= BOUNDARY_TOLERANCE) & (d < before[search] - REFINE_TOLERANCE)
            found = np.flatnonzero(win.any(axis=0))
            level = win[:, found].argmax(axis=0)  # the first, so the largest, winning step
            won = act[search[found]]
            points[won], m[won], dist[won] = p[level, found], mp[level, found], d[level, found]
            moved[search[found]] = True
        # gains shrink geometrically; once a step buys less than a small
        # fraction of the distance the slide has effectively converged
        after = dist[act]
        act = act[moved & (before - after >= REFINE_STALL_FRACTION * after)]


def _pick(owner: np.ndarray, key: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """For each of count samples, the first of its rows among rows (ascending)
    of least key, or -1 where it owns none of them."""
    best = np.full(count, -1)
    if len(rows):
        order = rows[np.lexsort((key[rows], owner[rows]))]  # stable: equal keys keep row order
        first = order[np.r_[True, owner[order][1:] != owner[order][:-1]]]
        best[owner[first]] = first
    return best


def _fan_sweep(net: MlpNetwork, x, m_x, radius):
    """Every crossing of each sample's fan within its radius: each of
    FAN_DIRECTIONS 2D rays from the sample, as long as its radius, whose end
    has the other margin sign brackets a crossing, and all brackets are
    solved together. Returns the owner, point, margin and distance of each,
    so a farther crossing that slides shorter still competes in the pool.
    The ends of every sample's rays go through one margin_batch call. A ray
    that crosses the boundary twice ends on its sample's side: no bracket."""
    angles = 2 * np.pi * np.arange(FAN_DIRECTIONS) / FAN_DIRECTIONS
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    rows = np.flatnonzero(np.isfinite(radius) & (radius > 0))
    ends = (x[rows][:, None, :] + radius[rows][:, None, None] * dirs).reshape(-1, 2)
    m_end = margin_batch(net, ends)
    owner = np.repeat(rows, FAN_DIRECTIONS)
    hit = m_end * m_x[owner] < 0
    owner = owner[hit]
    pts, m = bisect_along_segment(net, x[owner], ends[hit], m_x[owner], m_end[hit])
    return owner, pts, m, np.linalg.norm(pts - x[owner], axis=1)


def project_to_boundary(net: MlpNetwork, points, labels, data: Dataset) -> list[ProjectionResult]:
    """Nearest-boundary-point estimates for correctly classified samples
    (the rows of points, with their labels), projected in lockstep.

    Every candidate is a row of one pool, owned by its sample: first the
    Newton seeds, then the crossings toward the SEGMENT_CANDIDATES nearest
    opposite-class samples of data (each an upper bound on the true
    distance), then, 2D only, every fan-sweep crossing inside the least
    converged seed or crossing distance; then the whole pool is slid in one
    _slide call. A sample gets its converged row of least distance, or its
    seed when that is within REFINE_TOLERANCE of the least; with no
    converged row, it gets itself (distance 0, not converged). A
    misclassified sample raises NumericError.
    """
    x = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    s = len(x)
    m_data = margin_batch(net, data.samples)
    m_x = m_data if x is data.samples else margin_batch(net, x)  # the data's own rows: no 2nd pass
    bad = np.flatnonzero(~is_correct(m_x, labels))
    if len(bad):
        raise NumericError(f"sample {bad[0]} is misclassified; projection requires a trained separator")

    near = []
    for i in range(s):
        usable = np.flatnonzero((data.labels != labels[i]) & (m_data * m_x[i] < 0))
        dists = np.linalg.norm(data.samples[usable] - x[i], axis=1)
        near.append(usable[np.argsort(dists, kind="stable")[:SEGMENT_CANDIDATES]])
    cross_owner = np.repeat(np.arange(s), [len(j) for j in near])
    target = np.array([j for js in near for j in js], dtype=int)
    seed, m_seed = hit_boundary(net, x, m_x)
    cross, m_cross = bisect_along_segment(net, x[cross_owner], data.samples[target],
                                          m_x[cross_owner], m_data[target])
    owner = np.concatenate([np.arange(s), cross_owner])
    pool, m_pool = np.vstack([seed, cross]), np.concatenate([m_seed, m_cross])
    dist = np.linalg.norm(pool - x[owner], axis=1)

    # 2D only: the fan sweep inside the least converged seed or crossing distance
    if data.dim == 2:
        best = _pick(owner, dist, np.flatnonzero(np.abs(m_pool) <= BOUNDARY_TOLERANCE), s)
        radius = np.where(best >= 0, dist[best], np.inf)
        fan_owner, fan, m_fan, fan_dist = _fan_sweep(net, x, m_x, radius)
        owner = np.concatenate([owner, fan_owner])
        pool, m_pool = np.vstack([pool, fan]), np.concatenate([m_pool, m_fan])
        dist = np.concatenate([dist, fan_dist])

    crossed = dist[s:s + len(target)].copy()
    _slide(net, x[owner], pool, m_pool, dist, np.flatnonzero(np.abs(m_pool) <= BOUNDARY_TOLERANCE))
    methods = ([METHOD_NEWTON] * s
               + [METHOD_COMBINED if after < before - REFINE_TOLERANCE else METHOD_SEGMENT
                  for after, before in zip(dist[s:], crossed)]
               + [METHOD_COMBINED] * (len(owner) - s - len(target)))

    key = dist.copy()
    key[:s] -= REFINE_TOLERANCE  # a seed wins ties within REFINE_TOLERANCE
    best = _pick(owner, key, np.flatnonzero(np.abs(m_pool) <= BOUNDARY_TOLERANCE), s)
    results = []
    for i, b in enumerate(best):
        if b < 0:
            results.append(ProjectionResult(x[i].copy(), np.zeros_like(x[i]), 0.0,
                                            float(abs(m_x[i])), False, METHOD_COMBINED))
        else:
            point = pool[b].copy()
            results.append(ProjectionResult(point, point - x[i], float(dist[b]),
                                            float(abs(m_pool[b])), True, methods[b]))
    return results


def adversarial_overshoot(result: ProjectionResult, kappa: float) -> np.ndarray:
    """x + (1+kappa) * projection vector; crosses the boundary for kappa > 0."""
    if not result.converged:
        raise ValueError("overshoot requires a converged projection")
    x = result.point - result.vector
    return x + (1.0 + kappa) * result.vector


def project_dataset(net: MlpNetwork, data: Dataset) -> tuple[Dataset, list[ProjectionResult]]:
    """Project every sample of a fully correctly classified dataset; returns
    the projected points, labeled as the samples, and the results.

    An unconverged sample is its own projection, so it keeps its location."""
    results = project_to_boundary(net, data.samples, data.labels, data)
    return Dataset(np.array([r.point for r in results]), data.labels.copy()), results

