"""Property suites runnable from the CLI and reused by the test suite.

Each suite returns a list of (check name, passed, detail) tuples plus an
optional serialized failing case so failures can be replayed.
"""

from __future__ import annotations

import numpy as np

from .boundary import project_to_boundary
from .data import Dataset, gen_gaussian_blobs
from .geometry import (GridBoundary, PiecewiseLinearBoundary, check_claim1_chain,
                       check_claim2_product, halfspace_projection, ratio_bound)
from .metrics import nearest_rows
from .nn import (MlpNetwork, TrainConfig, active_units, grad_input, init_network, is_correct,
                 margin, margin_batch, train)
from .rng import derive_seed, make_rng

CheckResult = tuple[str, bool, str]

CROSS_CHECK_STEP = 2e-2  # grid spacing of the exact oracle's cross-check, and its box's lattice
EXACT_REL_BOUND = 0.02  # most an engine distance may exceed the exact one, relative
ON_BOUNDARY_TOL = 1e-4  # farthest an engine point may lie off the exact boundary, relative
FD_STEP = 1e-5  # central-difference step of the gradient check
GRADIENT_REL_TOL = 1e-4  # largest relative gap between backprop and finite differences
ORACLE_POINTS_PER_NET = 5  # correctly classified samples each trained net projects


def gradient_suite(pairs: int = 100, seed: int = 2024) -> tuple[list[CheckResult], dict | None]:
    """Backprop input gradient vs central finite differences on random
    (network, input) pairs, each pair's stencil in one margin_batch call.
    Coordinates whose FD stencil crosses a ReLU kink are excluded: the margin
    is piecewise linear there and the FD quotient measures the wrong branch."""
    rng = make_rng(seed, stream=0x64AD)
    failing = None
    dims_pool = ([4, 8, 2], [3, 16, 8, 2], [6, 10, 10, 2], [2, 12, 2])
    worst = 0.0
    for p in range(pairs):
        dims = dims_pool[p % len(dims_pool)]
        net = init_network(dims, derive_seed(seed, p))
        x = rng.standard_normal(dims[0])
        g = grad_input(net, x[None])[0]
        # rows x, then x + FD_STEP e_i, then x - FD_STEP e_i for every i
        steps = FD_STEP * np.eye(len(x))
        stencil = np.vstack([x, x + steps, x - steps])
        pattern = np.hstack(active_units(net, stencil))
        same = (pattern[1:] == pattern[0]).all(axis=1).reshape(2, len(x)).all(axis=0)
        hi, lo = margin_batch(net, stencil)[1:].reshape(2, len(x))
        fd = (hi - lo) / (2 * FD_STEP)
        i = np.flatnonzero(same)
        rel = np.abs(g[i] - fd[i]) / np.maximum(np.maximum(np.abs(fd[i]), np.abs(g[i])), 1e-8)
        worst = float(np.max(rel, initial=worst))
        if failing is None and (bad := i[rel >= GRADIENT_REL_TOL]).size:
            failing = {"pair": p, "coordinate": int(bad[0]), "dims": dims,
                       "backprop": float(g[bad[0]]), "fd": float(fd[bad[0]])}
    return [(f"gradient check ({pairs} pairs)", failing is None,
             f"worst relative error {worst:.2e}")], failing


def _train_2d_net(seed: int):
    data = gen_gaussian_blobs(40, (np.array([-2.0, 0.0]), np.array([2.0, 0.0])),
                              0.5, derive_seed(seed, 0))
    net = init_network([2, 16, 16, 2], derive_seed(seed, 1))
    cfg = TrainConfig(learning_rate=1e-2, max_epochs=3000, batch_size=16, accuracy_target=0.9)
    train(net, data, cfg, derive_seed(seed, 2))
    return net, data


def exact_check_2d(net: MlpNetwork, samples: np.ndarray, points: np.ndarray):
    """The engine's boundary points of 2-D samples against the exact boundary.
    Returns the box ((x_lo, x_hi), (y_lo, y_hi)) and, per sample, the engine
    distance d, the exact distance and whether d passed.

    The box holds every sample's ball of radius d, snapped outward to
    multiples of CROSS_CHECK_STEP, so a grid on it lies on one lattice; every
    boundary point nearer than d lies in that ball, so the oracle's nearest
    point is the exact one whenever d does not undercut it. A sample passes
    when its engine point's exact distance to the boundary is at most
    ON_BOUNDARY_TOL times the sample's exact distance, and d <= (1 +
    EXACT_REL_BOUND) exact. By the triangle inequality the first bounds d
    from below: d >= (1 - ON_BOUNDARY_TOL) exact. The exact oracle raises
    ValueError when the box holds no boundary, as when no engine point lies
    on it. The oracle answers all samples in one query, all points in one."""
    engine = np.linalg.norm(points - samples, axis=1)
    lo = np.floor((samples - engine[:, None]).min(axis=0) / CROSS_CHECK_STEP) * CROSS_CHECK_STEP
    hi = np.ceil((samples + engine[:, None]).max(axis=0) / CROSS_CHECK_STEP) * CROSS_CHECK_STEP
    box = tuple(zip(lo.tolist(), hi.tolist()))
    oracle = PiecewiseLinearBoundary(net.weights, net.biases, box)
    exact, off = oracle.nearest(samples)[1], oracle.nearest(points)[1]
    return box, engine, exact, (off <= ON_BOUNDARY_TOL * exact) & (
        engine <= (1 + EXACT_REL_BOUND) * exact)


def oracle_suite(nets: int = 10, seed: int = 77) -> tuple[list[CheckResult], dict | None]:
    """Combined projection solver vs the exact piecewise-linear oracle on
    trained 2D nets (exact_check_2d), and vs the analytic halfspace projection
    on linear networks (1e-3 absolute). A coarse grid on the exact check's box
    cross-checks the exact oracle independently: its distance may not fall
    below the exact one and may exceed it by at most two grid steps. A net
    whose training diverges or hits the epoch cap raises NumericError."""
    results: list[CheckResult] = []
    failing = None
    rng = make_rng(seed, stream=0x04AC)

    worst_rel = 0.0
    exact_ok = True
    grid_gaps = []
    grid_ok = True
    for n in range(nets):
        net, data = _train_2d_net(derive_seed(seed, n))
        correct = np.flatnonzero(is_correct(margin_batch(net, data.samples), data.labels))
        picks = rng.choice(correct, size=ORACLE_POINTS_PER_NET, replace=False)
        projections = project_to_boundary(net, data.samples[picks], data.labels[picks], data)
        converged = np.array([res.converged for res in projections])
        if not converged.all():
            exact_ok = False
            failing = failing or {"net": n, "reason": "a projection did not converge"}
            if not converged.any():
                continue
        picks = picks[converged]  # the converged picks still face both checks
        box, engine, exact, passed = exact_check_2d(
            net, data.samples[picks], np.array([res.point for res in projections])[converged])
        grid = GridBoundary(lambda pts: margin_batch(net, pts), box, CROSS_CHECK_STEP)
        grid_d = grid.nearest(data.samples[picks])[1]
        for i, d, d_exact, d_grid, ok in zip(picks.tolist(), engine.tolist(), exact.tolist(),
                                             grid_d.tolist(), passed):
            rel = abs(d - d_exact) / max(d_exact, 1e-12)
            worst_rel = max(worst_rel, rel)
            if not ok:
                exact_ok = False
                if failing is None:
                    failing = {"net": n, "sample": i, "solver": d, "exact": d_exact, "rel": rel}
            grid_gaps.append(d_grid - d_exact)
            if not d_exact - 1e-9 <= d_grid <= d_exact + 2 * CROSS_CHECK_STEP:
                grid_ok = False
                if failing is None:
                    failing = {"net": n, "sample": i, "grid": d_grid, "exact": d_exact}
    results.append((f"exact oracle ({nets} nets x {ORACLE_POINTS_PER_NET} points)", exact_ok,
                    f"worst relative gap {worst_rel:.4f}"))
    gaps = f"{min(grid_gaps):.1e} to {max(grid_gaps):.1e}" if grid_gaps else "none"
    results.append((f"grid cross-check of the exact oracle (step {CROSS_CHECK_STEP})",
                    grid_ok, f"grid minus exact distance {gaps}"))

    # linear network: margin = w.x + c, analytic halfspace answer
    linear_ok = True
    worst_abs = 0.0
    for t in range(20):
        w = rng.standard_normal(2)
        while np.linalg.norm(w) < 0.3:
            w = rng.standard_normal(2)
        c = float(rng.standard_normal())
        net = MlpNetwork([np.vstack([np.zeros(2), w])], [np.array([0.0, c])])
        x = 3.0 * rng.standard_normal(2)
        m = margin(net, x)
        if abs(m) < 1e-9:
            continue
        label = 1 if m > 0 else 0
        anchor = halfspace_projection(w, c, x) - (2.0 if m > 0 else -2.0) * w / np.linalg.norm(w)
        data = Dataset(np.vstack([x, anchor]), np.array([label, 1 - label]))
        res = project_to_boundary(net, x[None, :], [label], data)[0]
        [solver] = np.linalg.norm([res.point - x], axis=1).tolist()  # as the engine measures it
        exact = np.linalg.norm(halfspace_projection(w, c, x) - x)
        err = abs(solver - exact)
        worst_abs = max(worst_abs, err)
        if err > 1e-3:
            linear_ok = False
            if failing is None:
                failing = {"linear_case": t, "solver": solver, "exact": float(exact)}
    results.append(("linear analytic oracle (20 cases)", linear_ok,
                    f"worst absolute gap {worst_abs:.2e}"))
    return results, failing


def random_claim1_instance(seed: int) -> dict:
    """check_claim1_chain's keyword arguments for an instance with pointwise-orthogonal
    f/g vectors whose norms satisfy the pair-separation preconditions with strict slack."""
    rng = make_rng(seed, stream=0xC1A1)
    s, dim = 6, 4  # points, dimension
    half = s // 2
    pts = np.vstack([rng.standard_normal((half, dim)) - 4.0,
                     rng.standard_normal((s - half, dim)) + 4.0])
    labels = np.array([0] * half + [1] * (s - half))
    d_min = nearest_rows(pts[:half], pts[half:], 1)[1].min()
    f_vecs = np.empty((s, dim))
    g_vecs = np.empty((s, dim))
    for i in range(s):
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(dim)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        f_vecs[i] = rng.uniform(0.05, 0.2) * d_min * u
        g_vecs[i] = rng.uniform(0.05, 0.2) * d_min * v
    return {"points": pts, "labels": labels, "f_vectors": f_vecs, "g_vectors": g_vecs}


def claims_suite(instances: int = 1000, ratio_samples: int = 100_000,
                 seed: int = 13) -> tuple[list[CheckResult], dict | None]:
    results: list[CheckResult] = []
    failing = None

    chain_ok = True
    for k in range(instances):
        inst = random_claim1_instance(derive_seed(seed, k))
        report = check_claim1_chain(**inst)
        if not report["passed"]:
            chain_ok = False
            if failing is None:  # check_claim1_chain(**failing["instance"]) replays it
                failing = {"instance_seed": derive_seed(seed, k), "report": report,
                           "instance": {key: a.tolist() for key, a in inst.items()}}
    results.append((f"claim-1 chain on {instances} randomized instances", chain_ok, ""))

    rng = make_rng(seed, stream=0x4A71)
    vals = np.exp(rng.uniform(-6, 6, size=(ratio_samples, 2)))
    rb = ratio_bound(vals[:, 0], vals[:, 1])
    ratio_ok = bool((rb >= 2.0 - 1e-12).all())
    if not ratio_ok and failing is None:
        bad = int(np.argmin(rb))
        failing = {"ratio_pair": vals[bad].tolist(), "value": float(rb[bad])}
    results.append((f"a/b + b/a >= 2 on {ratio_samples} random pairs", ratio_ok,
                    f"min {rb.min():.15f}"))

    # designed instances: orthogonal equal-norm must be flagged, collinear must not
    f = np.array([[1.0, 0.0], [-1.0, 0.0]])
    orth_report = check_claim2_product(f, np.array([[0.0, 1.0], [0.0, -1.0]]))
    orth_ok = orth_report["counterexample"] and not orth_report["strict_product_inequality"]
    results.append(("claim-2 flags the orthogonal equal-norm counterexample", orth_ok,
                    f"prod_h={orth_report['prod_h']:.6f} vs prod_f={orth_report['prod_f']:.6f}"))

    coll_report = check_claim2_product(f, f)
    coll_ok = (not coll_report["counterexample"]
               and abs(coll_report["prod_h"] - coll_report["prod_f"]) <= 1e-12)
    results.append(("claim-2 accepts the collinear equality instance", coll_ok, ""))
    if not (orth_ok and coll_ok) and failing is None:
        failing = {"orth_report": orth_report, "coll_report": coll_report}
    return results, failing


SUITES = {"gradients": gradient_suite, "oracle": oracle_suite, "claims": claims_suite}
