"""Span tracer that instruments blab from outside its source tree.

`install(tracer)` replaces public names in blab's module namespaces (for
example `blab.boundary.margin` or `blab.experiments.train`) with wrappers.
Modules bind what they import with `from .nn import ...`, and internal calls
look those names up at call time, so every call that crosses a layer
boundary goes through a wrapper. No file under `src/` changes.

Each wrapper records a span (name, start, end, parent, thread id) in a
per-thread buffer and bumps per-binding counters. The span stack is per
thread because `project_dataset` runs a thread pool; a span opened on a
thread with an empty stack takes the innermost open span of the main thread
as its parent. Spans stay in memory until `summary()` and `save()` run at
the end of the invocation.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class _ThreadBuffer:
    __slots__ = ("index", "tid", "rows", "stack", "counts")

    def __init__(self, index: int, tid: int):
        self.index = index
        self.tid = tid
        self.rows: list[list] = []  # [name id, start, end, parent buffer, parent row]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.missing: list[str] = []
        self._main = self._buffer()

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers), threading.get_ident())
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> tuple[_ThreadBuffer, list]:
        buf = self._buffer()
        if buf.stack:
            parent = (buf.index, buf.stack[-1])
        elif buf is not self._main and self._main.stack:
            parent = (self._main.index, self._main.stack[-1])
        else:
            parent = (-1, -1)
        row = [nid, 0.0, 0.0, parent[0], parent[1]]
        buf.stack.append(len(buf.rows))
        buf.rows.append(row)
        row[1] = _clock()
        return buf, row

    @staticmethod
    def _close(buf: _ThreadBuffer, row: list) -> None:
        row[2] = _clock()
        buf.stack.pop()

    @contextmanager
    def span(self, name: str):
        buf, row = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(buf, row)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        on_result(counts, key, args, result) adds counters after a call returns.
        A name that no longer exists is listed in `missing`, not an error.
        """
        key = f"{owner.__name__}.{attr}"
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(key)
            return
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            buf, row = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(buf, row)
            counts = buf.counts
            counts[key] = counts.get(key, 0) + 1
            if on_result is not None:
                on_result(counts, key, args, result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for buf in self._buffers:
            for k, v in buf.counts.items():
                if k.endswith(".max"):
                    total[k] = max(total.get(k, 0), v)
                else:
                    total[k] = total.get(k, 0) + v
        return total

    def _arrays(self):
        offsets, n = [], 0
        for buf in self._buffers:
            offsets.append(n)
            n += len(buf.rows)
        nid = np.empty(n, dtype=np.int32)
        start = np.empty(n)
        end = np.empty(n)
        parent = np.full(n, -1, dtype=np.int64)
        tid = np.empty(n, dtype=np.int64)
        thread = np.empty(n, dtype=np.int32)  # buffer index; thread ids can be reused
        i = 0
        for buf in self._buffers:
            for row in buf.rows:
                nid[i], start[i], end[i] = row[0], row[1], row[2]
                if row[3] >= 0:
                    parent[i] = offsets[row[3]] + row[4]
                tid[i], thread[i] = buf.tid, buf.index
                i += 1
        return nid, start, end, parent, tid, thread

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds of outermost spans, self
        seconds (duration minus the part of it child spans cover), and wall
        seconds (the union of its intervals over all threads). Per layer: the
        wall seconds during which any thread was inside that layer.

        Durations on worker threads include waits for the interpreter lock,
        so sums over threads are thread-seconds and can exceed wall time."""
        nid, start, end, parent, _, thread = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        same_thread = has_parent & (thread == thread[np.where(has_parent, parent, 0)])
        covered = np.bincount(parent[same_thread], weights=dur[same_thread],
                              minlength=len(dur))
        # children on other threads overlap each other: cover their union
        cross = has_parent & ~same_thread
        for p in np.unique(parent[cross]):
            kids = cross & (parent == p)
            covered[p] += _union(start[kids], end[kids])
        self_s = dur - covered
        outermost = ~has_parent | (nid != nid[np.where(has_parent, parent, 0)])
        spans = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            spans[name] = {"calls": int(mine.sum()),
                           "s": float(dur[mine & outermost].sum()),
                           "self_s": float(self_s[mine].sum()),
                           "wall_s": _union(start[mine], end[mine])}
        layers = {name.split(".")[0] for name in self.names}
        layer_wall = {}
        for layer in sorted(layers):
            mine = np.isin(nid, [i for i, n in enumerate(self.names)
                                 if n.split(".")[0] == layer])
            layer_wall[layer] = _union(start[mine], end[mine])
        return {"spans": spans, "layer_wall_s": layer_wall, "counts": self.counts(),
                "missing": self.missing, "threads": len(self._buffers),
                "span_count": int(len(dur))}

    def save(self, path) -> None:
        """Write the raw spans: names table plus one array per field."""
        nid, start, end, parent, tid, _ = self._arrays()
        np.savez(path, name=nid, start=start, end=end, parent=parent, tid=tid,
                 names=np.array(json.dumps(self.names)))


def _union(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of the intervals [start, end)."""
    if not len(start):
        return 0.0
    order = np.argsort(start, kind="stable")
    lo, reach = start[order], np.maximum.accumulate(end[order])
    first = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    last = np.r_[first[1:] - 1, len(lo) - 1]
    return float((reach[last] - lo[first]).sum())


# --- what to wrap -----------------------------------------------------------

def _rows(counts, key, args, result):
    counts[key + ".rows"] = counts.get(key + ".rows", 0) + len(args[1])


def count_projections(counts, key, args, result):
    for r in (result if isinstance(result, list) else [result]):
        counts["projections"] = counts.get("projections", 0) + 1
        counts["converged"] = counts.get("converged", 0) + int(r.converged)
        m = "method." + r.method
        counts[m] = counts.get(m, 0) + 1


def count_dataset_projections(counts, key, args, result):
    count_projections(counts, key, args, result[1])


def _train(counts, key, args, result):
    net = args[0]
    nbytes = sum(w.nbytes + b.nbytes for w, b in zip(net.weights, net.biases))
    counts["train.epochs"] = counts.get("train.epochs", 0) + result.epochs_run
    counts["weight_bytes.max"] = max(counts.get("weight_bytes.max", 0), nbytes)


def _nearest_opposite(counts, key, args, result):
    data = args[0]
    s1 = int((data.labels == 1).sum())
    temp = (len(data) - s1) * s1 * data.dim * 8  # the (s0, s1, n) float64 difference
    counts["nearest_opposite.temp_bytes.max"] = max(
        counts.get("nearest_opposite.temp_bytes.max", 0), temp)


def _grid(counts, key, args, result):
    bounds, step = args[1], args[2]
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    points = (len(np.arange(x_lo, x_hi + step / 2, step))
              * len(np.arange(y_lo, y_hi + step / 2, step)))
    counts["grid.points"] = counts.get("grid.points", 0) + points


def install(tracer: Tracer) -> None:
    """Wrap blab's layer boundaries. Span names are `<layer>.<function>`."""
    import blab.boundary
    import blab.cli
    import blab.experiments
    import blab.geometry
    import blab.verify

    nn_calls = {"margin": None, "grad_input": None, "margin_batch": _rows,
                "train": _train, "init_network": None, "accuracy": None}
    for module in (blab.boundary, blab.experiments, blab.verify):
        for attr, hook in nn_calls.items():
            if attr in vars(module):
                tracer.wrap(module, attr, "nn." + attr, hook)

    b = blab.boundary
    tracer.wrap(b, "project_to_boundary", "boundary.project_to_boundary", count_projections)
    tracer.wrap(b, "hit_boundary", "boundary.hit_boundary")
    tracer.wrap(b, "bisect_along_segment", "boundary.bisect")
    e = blab.experiments
    tracer.wrap(e, "project_dataset", "boundary.project_dataset")
    tracer.wrap(e, "adversarial_overshoot", "boundary.adversarial_overshoot")
    tracer.wrap(blab.verify, "project_to_boundary", "boundary.project_to_boundary",
                count_projections)

    tracer.wrap(e, "nearest_opposite_mean_distance", "metrics.nearest_opposite",
                _nearest_opposite)
    tracer.wrap(e, "build_dataset", "data.build_dataset")
    tracer.wrap(e, "gen_symmetric_layout", "data.gen_symmetric_layout")
    tracer.wrap(blab.verify, "gen_gaussian_blobs", "data.gen_gaussian_blobs")

    tracer.wrap(blab.cli, "run_iterative_projection", "experiments.iterproj")
    tracer.wrap(blab.cli, "run_symmetry_experiment", "experiments.symmetry")
    tracer.wrap(e, "export_csv", "experiments.io")
    for attr in ("create", "write_manifest", "save_iteration", "write_records"):
        tracer.wrap(e.RunDirectory, attr, "experiments.io")

    tracer.wrap(blab.verify, "oracle_suite", "verify.oracle")
    tracer.wrap(blab.verify, "GridBoundary", "geometry.grid", _grid)
    tracer.wrap(blab.geometry.GridBoundary, "nearest", "geometry.grid_nearest")
    tracer.wrap(blab.verify, "halfspace_projection", "geometry.halfspace_projection")
