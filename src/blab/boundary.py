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
  correctly classified opposite-class samples, one `metrics.nearest_rows`
  query per class;
- for 2D inputs, a fan of FAN_DIRECTIONS rays from each sample, each as
  long as its seed's distance if the seed converged, else as its nearest
  crossing target's (a sure upper bound): every ray whose end has
  the other margin sign is a bracket (`_fan_sweep`), solved in the one
  bracket solve with the segment crossings;
- the tangent slide (`_slide`) of every converged candidate at once: each
  moves toward its sample along the boundary's tangent plane and is
  re-rooted at the fractions of SLIDE_STEPS (the full step, then halvings
  down to REFINE_STALL_FRACTION), keeping its largest winning step. A step
  tries as many fractions per hit_boundary call as SLIDE_SEARCH_MACS allows:
  at 2-D all of them, up to a few hundred rows; at 784-d, past a few rows,
  one. No loop of these stages runs more than MAX_STEPS steps.

All candidates are rows of one pool, each owned by its sample. Each sample
gets its shortest converged row, so returned distances never exceed the
segment-crossing distance; a sample with no converged row stays where it
is. Which rows a step evaluates depends on the samples alone, but BLAS may
order a batched product's sums, or pick another kernel, by the batch
height: the last bits of a projection depend on the rows it is projected
with, at 2-d as well as at high input widths. The height BLAS sees, in
margin and gradient evaluations alike, is at most `nn.FORWARD_BLOCK_ROWS`
(512): a taller batch is evaluated in equal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NumericError
from .metrics import nearest_rows
from .nn import MlpNetwork, grad_input, is_correct, margin_batch

METHOD_NEWTON = "newton_refine"
METHOD_SEGMENT = "segment_bisection"
METHOD_COMBINED = "combined"

BOUNDARY_TOLERANCE = 1e-6
# the most steps of each engine loop (Newton seed, bracket solve, slide), set by
# the seed: perfbench oracle seed 864 needs a Newton row's 159th step (the
# bracket solve has needed at most 25 steps, the slide 17)
MAX_STEPS = 200
REFINE_TOLERANCE = 1e-9
REFINE_STALL_FRACTION = 1e-4  # stop sliding once per-step gain falls below this fraction of the distance
# the slide's step fractions: 1, then halvings down to REFINE_STALL_FRACTION; a
# step of fraction f gains about f*d at most: below it, too little to keep sliding
SLIDE_STEPS = 0.5 ** np.arange(int(-np.log2(REFINE_STALL_FRACTION)) + 1)
# A slide's halving search puts as many step fractions into one hit_boundary call
# as keep its rows x fractions x forward multiply-adds per row under this: more per
# call save calls, fewer spare the rows below the winning fraction. With 1 BLAS
# thread, on a [784,500,256,128,32,2] net (557k multiply-adds a row), a 1-row
# margin_batch call took 0.15 ms and a 1-row grad_input 0.27 ms, but a row inside a
# 200-row batch 0.013 and 0.025 ms: a call's fixed cost is about 10 batched rows
# (5.5M multiply-adds), and the budget stays under it. So a [2,32,32,2] net tries all
# 14 fractions per call up to 260 rows, while at 784-d, past 3 rows, each fraction
# gets its own call (all 14 per call took a 784-d projection from 0.73 to 2.33 s).
SLIDE_SEARCH_MACS = 1 << 22
SEGMENT_CANDIDATES = 3  # opposite-class neighbors tried as bracket ends
FAN_DIRECTIONS = 64  # 2D only: global sweep for crossings the local solvers miss


@dataclass
class ProjectionResult:
    """One sample's projection; its distance is |point - sample|."""
    point: np.ndarray
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
    act = np.arange(len(a))
    for _ in range(MAX_STEPS):
        if not len(act):
            break
        to, fo, tn, fn = t_old[act], f_old[act], t_new[act], f_new[act]
        tc = (to * fn - tn * fo) / (fn - fo)
        mc = margin_batch(net, a[act] + tc[:, None] * span[act])
        flip = mc * fn < 0
        t_old[act] = np.where(flip, tn, to)
        f_old[act] = np.where(flip, fn, 0.5 * fo)
        t_new[act], f_new[act] = tc, mc
        act = act[np.abs(mc) > BOUNDARY_TOLERANCE]
    return a + t_new[:, None] * span, f_new


def _with_gradient(net: MlpNetwork, points, act):
    """The rows act of points whose margin gradient g is nonzero, with g and
    |g|^2: no step follows a zero gradient, so such a row stops."""
    g = grad_input(net, points[act])
    g2 = np.einsum("ij,ij->i", g, g)
    return act[g2 != 0.0], g[g2 != 0.0], g2[g2 != 0.0]


def hit_boundary(net: MlpNetwork, starts, m) -> tuple[np.ndarray, np.ndarray]:
    """Newton root seeking from each row of starts, of margins m: step
    -m*g/|g|^2 until |margin| <= BOUNDARY_TOLERANCE or the margin changes
    sign, then solve the last step's bracket. A row stops where its gradient
    is zero (_with_gradient). Returns the points and their margins."""
    points = np.array(starts, dtype=np.float64)
    m = np.array(m, dtype=np.float64)
    brackets = []
    act = np.flatnonzero(np.abs(m) > BOUNDARY_TOLERANCE)
    for _ in range(MAX_STEPS):
        if not len(act):
            break
        act, g, g2 = _with_gradient(net, points, act)
        cur, m_cur = points[act], m[act]
        nxt = cur + (-m_cur / g2)[:, None] * g
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


def _slide(net: MlpNetwork, x, points, m, rows) -> None:
    """Slide points[rows] toward x[rows] along the boundary's tangent plane,
    in place. A step measures each row's distance |points - x| and re-roots
    each slid point with hit_boundary, keeping it when that distance drops
    by more than REFINE_TOLERANCE. Each row tries
    the fractions of SLIDE_STEPS, the full step first, as many per call as
    SLIDE_SEARCH_MACS allows, and keeps its largest winning step: the one a
    halve-until-it-wins loop would stop at. A row stops when no step helps
    or a step gains less than REFINE_STALL_FRACTION of the distance."""
    row_macs = sum(w.size for w in net.weights)
    act = rows
    for _ in range(MAX_STEPS):
        if not len(act):
            break
        act, g, g2 = _with_gradient(net, points, act)
        b = points[act]
        v = x[act] - b
        tangent = v - (np.einsum("ij,ij->i", v, g) / g2)[:, None] * g
        keep = np.linalg.norm(tangent, axis=1) > REFINE_TOLERANCE
        act, b, tangent = act[keep], b[keep], tangent[keep]
        before = np.linalg.norm(b - x[act], axis=1)
        after = before.copy()  # a row has moved once its after drops below before
        tried = 0
        while tried < len(SLIDE_STEPS):
            search = np.flatnonzero(after == before)
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
            points[won], m[won] = p[level, found], mp[level, found]
            after[search[found]] = d[level, found]
        # gains shrink geometrically; once a step buys less than a small
        # fraction of the distance the slide has effectively converged
        act = act[(after < before) & (before - after >= REFINE_STALL_FRACTION * after)]


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
    """The bracketing rays of each sample's fan: each of FAN_DIRECTIONS 2D
    rays from the sample, as long as its radius, whose end has the other
    margin sign. Returns the owner, end and end margin of each, for the one
    bracket solve. The ends of every sample's rays go through one
    margin_batch call. A ray that crosses the boundary twice ends on its
    sample's side: no bracket."""
    angles = 2 * np.pi * np.arange(FAN_DIRECTIONS) / FAN_DIRECTIONS
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    rows = np.flatnonzero(np.isfinite(radius) & (radius > 0))
    ends = (x[rows][:, None, :] + radius[rows][:, None, None] * dirs).reshape(-1, 2)
    m_end = margin_batch(net, ends)
    owner = np.repeat(rows, FAN_DIRECTIONS)
    hit = m_end * m_x[owner] < 0
    return owner[hit], ends[hit], m_end[hit]


def project_to_boundary(net: MlpNetwork, points, labels, data: Dataset) -> list[ProjectionResult]:
    """Nearest-boundary-point estimates for correctly classified samples
    (the rows of points, with their labels), projected in lockstep.

    Every candidate is a row of one pool, owned by its sample: first the
    Newton seeds, then the crossings toward the SEGMENT_CANDIDATES nearest
    correctly classified opposite-class samples of data (each an upper bound
    on the true distance), then, 2D only, the crossing of every fan ray as
    long as its sample's converged seed distance, or, when its seed did not
    converge, as its nearest such sample's distance (none: no fan). The
    crossings and fan rays are solved in one bracket solve, and the whole
    pool is slid in one _slide call. A sample gets its
    converged row of least distance, or its seed when that is within
    REFINE_TOLERANCE of the least; with no converged row, it gets itself,
    not converged. A misclassified sample raises NumericError.
    """
    x = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    s = len(x)
    m_data = margin_batch(net, data.samples)
    m_x = m_data if x is data.samples else margin_batch(net, x)  # the data's own rows: no 2nd pass
    bad = np.flatnonzero(~is_correct(m_x, labels))
    if len(bad):
        raise NumericError(f"sample {bad[0]} is misclassified; projection requires a trained separator")

    near, reach = np.full((s, SEGMENT_CANDIDATES), -1), np.empty(s)  # reach: to the nearest
    correct = is_correct(m_data, data.labels)
    for c in (0, 1):  # one query per class: its samples share one usable set
        rows, usable = np.flatnonzero(labels == c), np.flatnonzero(correct & (data.labels != c))
        if len(rows):
            order, reach[rows] = nearest_rows(x[rows], data.samples[usable], SEGMENT_CANDIDATES)
            near[rows, :order.shape[1]] = usable[order]
    cross_owner, target = np.nonzero(near >= 0)[0], near[near >= 0]
    seed, m_seed = hit_boundary(net, x, m_x)
    ray_owner, ends, m_ends = cross_owner, data.samples[target], m_data[target]
    if data.dim == 2:  # 2D only: a fan as long as each converged seed's distance, else reach
        radius = np.where(np.abs(m_seed) <= BOUNDARY_TOLERANCE,
                          np.linalg.norm(seed - x, axis=1), reach)
        fan_owner, fan_ends, m_fan = _fan_sweep(net, x, m_x, radius)
        ray_owner = np.concatenate([cross_owner, fan_owner])
        ends, m_ends = np.vstack([ends, fan_ends]), np.concatenate([m_ends, m_fan])
    rays, m_rays = bisect_along_segment(net, x[ray_owner], ends, m_x[ray_owner], m_ends)
    owner = np.concatenate([np.arange(s), ray_owner])
    pool, m_pool = np.vstack([seed, rays]), np.concatenate([m_seed, m_rays])
    crossed = np.linalg.norm(rays[:len(target)] - x[cross_owner], axis=1)
    landed = np.flatnonzero(np.abs(m_pool) <= BOUNDARY_TOLERANCE)  # a slide never un-lands one
    _slide(net, x[owner], pool, m_pool, landed)
    dist = np.linalg.norm(pool - x[owner], axis=1)
    methods = ([METHOD_NEWTON] * s
               + [METHOD_COMBINED if after < before - REFINE_TOLERANCE else METHOD_SEGMENT
                  for after, before in zip(dist[s:], crossed)]
               + [METHOD_COMBINED] * (len(owner) - s - len(target)))

    key = dist.copy()
    key[:s] -= REFINE_TOLERANCE  # a seed wins ties within REFINE_TOLERANCE
    best = _pick(owner, key, landed, s)
    return [ProjectionResult(pool[b].copy(), float(abs(m_pool[b])), True, methods[b]) if b >= 0
            else ProjectionResult(x[i].copy(), float(abs(m_x[i])), False, METHOD_COMBINED)
            for i, b in enumerate(best)]


def adversarial_overshoot(x, points, kappa: float) -> np.ndarray:
    """x + (1+kappa) * (points - x), row by row, for points the converged
    projections of the samples x; crosses the boundary for kappa > 0."""
    return x + (1.0 + kappa) * (points - x)


def project_dataset(net: MlpNetwork, data: Dataset) -> tuple[Dataset, list[ProjectionResult]]:
    """Project every sample of a fully correctly classified dataset; returns
    the projected points, labeled as the samples, and the results.

    An unconverged sample is its own projection, so it keeps its location."""
    results = project_to_boundary(net, data.samples, data.labels, data)
    return Dataset(np.array([r.point for r in results]), data.labels.copy()), results

