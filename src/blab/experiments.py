"""Experiment runners: iterative projection, transferability, symmetry,
generalization tracking. Deterministic replay from a single master seed,
with per-iteration checkpoints and resume."""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import adversarial_overshoot, project_dataset, project_to_boundary
from .config import (DatasetSpec, ExperimentConfig, check_kappa, check_master_seed,
                     config_from_items, config_sections)
from .data import (ConfigError, DataError, Dataset, NumericError, export_csv, gen_gaussian_blobs,
                   gen_symmetric_layout, import_csv, load_idx, read_utf8, sample_balanced,
                   write_file)
from .metrics import global_difference, nearest_opposite_mean_distance
from .nn import (MlpNetwork, TrainConfig, accuracy, check_layer_dims, init_network, is_correct,
                 load_checkpoint, margin_batch, save_checkpoint, train)
from .rng import derive_seed, make_rng
from .svg import line_chart

MANIFEST_VERSION = 7

# positional seed namespaces, so derived seeds never collide across uses
SEED_ITER = 1
SEED_TRIAL = 2
SEED_BASELINE = 4
SEED_SPLIT = 5

SYMMETRY_DIMS = (2, 16, 2)
SYMMETRY_CLUSTER_COS = 0.3  # mean per-point cosine that puts two trials in one cluster
UNCONVERGED_ABORT_FRACTION = 0.10  # a cascade aborts past this fraction of unconverged projections
HELD_OUT_FRACTION = 0.25  # of each class: transfer's evaluation set, gentrack's test set
TRANSFER_MODES = ("cross_model", "cross_training_set")
PROJECTION_HEADER = "index,label,converged,distance,residual,method"


@dataclass
class IterationRecord:
    iteration: int
    mean_nn_distance: float
    mean_projection_norm: float
    test_accuracy: float | None
    unconverged_count: int
    global_difference: float | None = None  # phi_k, once iteration k+1 has projected


def build_dataset(spec: DatasetSpec) -> Dataset:
    """The dataset a spec describes; a file that lacks a class is a DataError naming it."""
    if spec.source == "blobs":
        half = spec.center_distance / 2.0
        c0, c1 = np.zeros((2, spec.dim))
        c0[0], c1[0] = -half, half
        return gen_gaussian_blobs(spec.per_class, (c0, c1), spec.sigma, spec.seed)
    if spec.source == "idx":
        data = load_idx(spec.images_path, spec.labels_path, spec.class_a, spec.class_b)
        if spec.subset:
            data = sample_balanced(data, spec.subset, spec.seed,
                                   (f"class_a = {spec.class_a}", f"class_b = {spec.class_b}"))
        return data
    if spec.source == "csv":
        return import_csv(spec.csv_path)
    return gen_symmetric_layout(spec.layout_kind)  # the one source left: symmetric


def stratified_split(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic per-class split. The second part gets round(n * fraction)
    of each class's n samples, halves rounding to even: 10 at 0.25 gives 2.
    DataError if either part is empty or lacks a class."""
    rng = make_rng(seed, stream=0x5B117)
    take_a, take_b = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(data.labels == cls)
        perm = rng.permutation(idx)
        cut = int(round(len(idx) * fraction))
        take_b.append(perm[:cut])
        take_a.append(perm[cut:])
    a = np.sort(np.concatenate(take_a))
    b = np.sort(np.concatenate(take_b))
    if len(b) == 0:
        raise DataError(f"held-out split is empty: {fraction} of each class rounds to 0 "
                        f"({len(a)} samples in all); raise dataset.per_class")
    for take, what in ((take_a, "remaining"), (take_b, "held-out")):
        if not all(map(len, take)):
            raise DataError(f"{what} split holds one class only ({fraction} of each class split "
                            f"off, {len(a)}/{len(b)} samples); raise dataset.per_class")
    return Dataset(data.samples[a], data.labels[a]), Dataset(data.samples[b], data.labels[b])


def _train_fresh(dims, data: Dataset, cfg: TrainConfig, seed: int) -> MlpNetwork:
    net = init_network(dims, seed)
    train(net, data, cfg, seed)
    return net


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def records_to_csv(records: list[IterationRecord]) -> str:
    """train_acc is 1.0 from record 1 on: training that ends below it aborts the run."""
    buf = io.StringIO()
    buf.write("iteration,mean_nn_distance,mean_projection_norm,train_acc,test_acc,"
              "unconverged_count,global_difference\n")
    for r in records:
        buf.write(f"{r.iteration},{r.mean_nn_distance!r},{r.mean_projection_norm!r},"
                  f"{'1.0' if r.iteration else ''},{_cell(r.test_accuracy)},"
                  f"{r.unconverged_count},{_cell(r.global_difference)}\n")
    return buf.getvalue()


def records_to_svg(records: list[IterationRecord]) -> str:
    return line_chart([r.iteration for r in records], [r.mean_nn_distance for r in records],
                      "Mean inter-class distance per iteration", "iteration", "mean distance")


class RunDirectory:
    """Persistent layout of one iterative-projection run."""

    def __init__(self, path):
        self.path = Path(path)
        self.checkpoints = self.path / "checkpoints"
        self.projections = self.path / "projections"
        self.working = self.path / "working"

    def create(self) -> None:
        """ConfigError if the path is a non-empty directory, or it, or a
        directory above it, is a file."""
        if self.path.is_dir() and any(self.path.iterdir()):
            raise ConfigError(f"run directory {self.path} is not empty")
        for d in (self.path, self.checkpoints, self.projections, self.working):
            try:
                d.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as e:
                raise ConfigError(f"cannot create run directory {self.path}: {e.strerror}") from e

    def write_manifest(self, cfg: ExperimentConfig, completed: int, status: str,
                       started: float, with_test: bool) -> None:
        manifest = {
            "format_version": MANIFEST_VERSION,
            "tool_version": __version__,
            "config": config_sections(cfg),
            "completed_iterations": completed,
            "status": status,
            "with_test": with_test,
            "started_at": started,
            "updated_at": time.time(),
        }
        write_file(self.path / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    def read_manifest(self) -> tuple[ExperimentConfig, dict]:
        """The run's config and manifest; DataError naming the file if it is unreadable,
        not JSON or of another version, or if a field is missing or invalid."""
        path = self.path / "manifest.json"
        try:
            manifest = json.loads(read_utf8(path))
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: corrupt manifest: {e}") from None
        version = manifest.get("format_version") if isinstance(manifest, dict) else None
        if version != MANIFEST_VERSION:
            raise DataError(f"{path}: manifest format version {version} "
                            f"!= supported {MANIFEST_VERSION}")
        for name, types in (("status", (str,)), ("with_test", (bool,)), ("config", (dict,)),
                            ("completed_iterations", (int,)), ("started_at", (int, float))):
            if type(manifest.get(name)) not in types:  # type(), so an int refuses a bool
                raise DataError(f"{path}: manifest {name} is missing or not {types[-1].__name__}")
        sections = manifest["config"]
        if not all(isinstance(keys, dict) and all(isinstance(text, str) for text in keys.values())
                   for keys in sections.values()):
            raise DataError(f"{path}: manifest config must map sections to key -> text")
        try:
            cfg = config_from_items((section, key, text) for section, keys in sections.items()
                                    for key, text in keys.items())
        except ConfigError as e:
            raise DataError(f"{path}: {e}") from None
        if not 0 <= (done := manifest["completed_iterations"]) <= cfg.iterations:
            raise DataError(f"{path}: manifest completed_iterations {done} is not in "
                            f"0..{cfg.iterations}")
        return cfg, manifest

    def save_iteration(self, k: int, net: MlpNetwork, working: Dataset, results, distances) -> None:
        """distances: the row lengths of W_k - W_{k-1}, the projections' distance column."""
        save_checkpoint(net, self.checkpoints / f"iter_{k}.blab")
        rows = "".join(f"{i},{int(label)},{int(r.converged)},{d!r},{r.residual!r},{r.method}\n"
                       for i, (label, r, d) in enumerate(zip(working.labels, results, distances)))
        write_file(self.projections / f"iter_{k}.csv", PROJECTION_HEADER + "\n" + rows)
        export_csv(working, self.working / f"iter_{k}.csv")

    def read_projections(self, k: int, labels: np.ndarray) -> int:
        """Unconverged count of iteration k's projection rows; DataError naming
        the file unless they are the rows save_iteration writes for these labels."""
        path = self.projections / f"iter_{k}.csv"
        header, *rows = read_utf8(path).splitlines() or [""]
        cells = [row.split(",") for row in rows]
        if header != PROJECTION_HEADER or len(cells) != len(labels) or any(
                len(c) != 6 or c[:2] != [str(i), str(label)] or c[2] not in ("0", "1")
                for i, (c, label) in enumerate(zip(cells, labels))):
            raise DataError(f"{path}: rows do not match the {len(labels)} samples of the run")
        return sum(c[2] == "0" for c in cells)

    def write_records(self, records) -> None:
        """The run's two views, records.csv and chart.svg, of the same records."""
        write_file(self.path / "records.csv", records_to_csv(records))
        write_file(self.path / "chart.svg", records_to_svg(records))


def _held_out_split(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The config's dataset, split into the rest and the part held out:
    gentrack's (train, test) and transfer's (pool, evaluation). The config
    alone determines it, so a resumed run re-derives the same test set."""
    return stratified_split(build_dataset(cfg.dataset), HELD_OUT_FRACTION,
                            derive_seed(cfg.master_seed, SEED_SPLIT))


def _start(cfg: ExperimentConfig, data: Dataset, with_test: bool, out_dir) -> list[IterationRecord]:
    """Write a run directory holding only iteration 0, the raw working set
    `data`, and resume it: fresh and resumed runs share one loop."""
    check_layer_dims(cfg.dims, data.dim)
    rd = RunDirectory(out_dir)
    rd.create()
    rd.write_manifest(cfg, 0, "running", time.time(), with_test)
    export_csv(data, rd.working / "iter_0.csv")
    return checkpoint_resume(rd.path)


def run_iterative_projection(cfg: ExperimentConfig, out_dir) -> list[IterationRecord]:
    """Iterative projection: train a fresh-seeded network, replace the
    working set with its boundary projections, repeat. Record 0 describes
    the raw working set; identical configs replay identically."""
    return _start(cfg, build_dataset(cfg.dataset), False, out_dir)


def run_generalization_tracking(cfg: ExperimentConfig, out_dir) -> list[IterationRecord]:
    """Iterative projection with per-iteration accuracy on an untouched test split."""
    return _start(cfg, _held_out_split(cfg)[0], True, out_dir)


def checkpoint_resume(run_dir) -> list[IterationRecord]:
    """Continue a run from its last completed iteration c: iterations c + 1..
    train on working set c. Every run goes through here, a fresh one from c = 0.

    Records 0..c come from the run's files, never from records.csv or
    chart.svg, views the run only writes: mean_nn_distance from
    working/iter_k.csv, phi_k from working sets k - 1..k + 1,
    mean_projection_norm from the row lengths of W_k - W_{k-1}, measured
    so on a live iteration too, unconverged_count from the convergence flags
    of projections/iter_k.csv, whose rows a resume reads for nothing else
    (their identity and flags, never a distance), and test_acc from
    checkpoints/iter_k.blab on the test split re-derived
    from the saved config. A W_0 that lacks a class, a working set without W_0's
    labels and shape, projection rows that do not match it, or a checkpoint
    without the config's dims is a DataError naming the file, raised before
    anything is written. Derived seeds are positional, so a resumed run
    matches an uninterrupted one exactly. Resuming a finished run writes nothing.
    Any exception that ends iteration k writes the manifest, at k - 1 iterations
    and the status of its stage, then the views a resume of it derives, and propagates."""
    rd = RunDirectory(run_dir)
    cfg, manifest = rd.read_manifest()
    completed, started, with_test = (manifest[key] for key in (
        "completed_iterations", "started_at", "with_test"))
    test_data = _held_out_split(cfg)[1] if with_test else None
    data = first = import_csv(rd.working / "iter_0.csv")
    records = [IterationRecord(0, nearest_opposite_mean_distance(first), 0.0, None, 0)]
    window = [first.samples]  # the samples of the last working sets, at most two

    def record(k: int, data: Dataset, net: MlpNetwork, unconverged: int) -> np.ndarray:
        # the one rule for record k >= 1, derived or appended; record k - 1 >= 1 gets its phi
        # here. Returns the row lengths of W_k - W_{k-1}: iteration k's projection distances
        if len(window) == 2:
            records[-1].global_difference = global_difference(*window, data.samples)
        moved = np.linalg.norm(data.samples - window[-1], axis=1)  # the rows of W_k - W_{k-1}
        window[:] = [window[-1], data.samples]
        records.append(IterationRecord(
            k, nearest_opposite_mean_distance(data), float(np.mean(moved)),
            accuracy(net, test_data) if test_data is not None else None, unconverged))
        return moved

    for k in range(1, completed + 1):
        path = rd.working / f"iter_{k}.csv"
        data = import_csv(path)
        if data.samples.shape != first.samples.shape or np.any(data.labels != first.labels):
            raise DataError(f"{path}: labels or shape differ from working/iter_0.csv")
        path = rd.checkpoints / f"iter_{k}.blab"
        if (net := load_checkpoint(path)).layer_dims != cfg.dims:
            raise DataError(f"{path}: layer widths {net.layer_dims} != the config's {cfg.dims}")
        record(k, data, net, rd.read_projections(k, first.labels))
    if manifest["status"] == "finished" or completed == cfg.iterations:
        return records

    k, stage = completed + 1, "aborted_training"
    try:
        for k in range(completed + 1, cfg.iterations + 1):
            stage = "aborted_training"
            seed_k = derive_seed(cfg.master_seed, SEED_ITER, k)
            net = _train_fresh(cfg.dims, data, cfg.train, seed_k)
            stage = "aborted_projection"
            data, results = project_dataset(net, data)
            unconverged = sum(not r.converged for r in results)
            if unconverged > UNCONVERGED_ABORT_FRACTION * len(data):
                raise NumericError(f"{unconverged}/{len(data)} projections did not converge")
            moved = record(k, data, net, unconverged)
            stage = "aborted_write"
            rd.save_iteration(k, net, data, results, moved.tolist())
            rd.write_records(records)
            rd.write_manifest(cfg, k, "finished" if k == cfg.iterations else "running",
                              started, with_test)
    except BaseException as e:
        # the manifest first, so it says how the run ended if the views cannot be written
        status = "interrupted" if isinstance(e, KeyboardInterrupt) else stage
        rd.write_manifest(cfg, k - 1, status, started, with_test)
        records[k - 1].global_difference = None  # a resume leaves phi_{k-1} to iteration k
        rd.write_records(records[:k])
        if isinstance(e, NumericError):
            raise NumericError(f"iteration {k}: {e}") from e
        raise
    return records


def _fooling_rate(net: MlpNetwork, points: np.ndarray, labels: np.ndarray) -> float:
    margins = margin_batch(net, points)
    if (bad := int(np.sum(~np.isfinite(margins)))):
        raise NumericError(f"{bad} of {len(points)} perturbed points have a non-finite margin")
    return float((~is_correct(margins, labels)).mean())


@np.errstate(over="ignore", invalid="ignore")  # _fooling_rate reports an overflow
def run_transfer(cfg: ExperimentConfig, mode: str) -> dict:
    """Craft overshoot adversarials against a source network and measure how
    often an independently trained target misclassifies them, against an
    equal-norm random-direction baseline. Only the sources whose projection
    converged count (n_samples), each with one baseline direction. The
    report's keys are in the order it is written. A network whose training
    diverges or hits the epoch cap raises NumericError: no report."""
    if mode not in TRANSFER_MODES:
        raise ConfigError(f"unknown transfer mode {mode!r}")
    if mode == "cross_model" and cfg.dims_b is None:
        raise ConfigError("cross_model transfer needs a second architecture (dims_b)")

    pool, eval_data = _held_out_split(cfg)
    dims_a = check_layer_dims(cfg.dims, pool.dim)
    dims_b = check_layer_dims(cfg.dims_b, pool.dim) if mode == "cross_model" else dims_a
    if mode == "cross_training_set":
        data_a, data_b = stratified_split(pool, 0.5, derive_seed(cfg.master_seed, SEED_SPLIT, 1))
    else:
        data_a = data_b = pool

    net_a = _train_fresh(dims_a, data_a, cfg.train, derive_seed(cfg.master_seed, SEED_TRIAL, 0))
    net_b = _train_fresh(dims_b, data_b, cfg.train, derive_seed(cfg.master_seed, SEED_TRIAL, 1))
    correct_a = is_correct(margin_batch(net_a, eval_data.samples), eval_data.labels)
    correct_b = is_correct(margin_batch(net_b, eval_data.samples), eval_data.labels)
    # a Python bool: json.dumps refuses numpy.bool_
    valid = bool(correct_b.mean() >= 0.90 and correct_a.mean() >= 0.90)

    ok = correct_a & correct_b
    xs = eval_data.samples[ok]
    labels = eval_data.labels[ok]

    results = project_to_boundary(net_a, xs, labels, data_a)
    kept = np.array([r.converged for r in results], dtype=bool)
    points = np.reshape([r.point for r in results], xs.shape)[kept]
    xs, labels = xs[kept], labels[kept]
    adv = adversarial_overshoot(xs, points, cfg.kappa)
    rng = make_rng(derive_seed(cfg.master_seed, SEED_BASELINE), stream=0)
    direction = rng.standard_normal(xs.shape)  # one per kept row, in row order
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    base = xs + np.linalg.norm(adv - xs, axis=1, keepdims=True) * direction
    rates = (0.0, 0.0, 0.0)  # with no converged projection, nothing transfers
    if len(xs):
        rates = (_fooling_rate(net_b, adv, labels), _fooling_rate(net_a, adv, labels),
                 _fooling_rate(net_b, base, labels))
    return {"mode": mode, "kappa": cfg.kappa, "valid": valid and len(xs) > 0,
            "n_samples": len(xs), "fooling_rate_transfer": rates[0],
            "fooling_rate_source": rates[1], "fooling_rate_random_baseline": rates[2]}


@np.errstate(over="ignore", invalid="ignore")  # _fooling_rate reports an overflow
def run_symmetry_experiment(layout_kind: str, trials: int, master_seed: int = 0,
                            perturb: float = 0.0, kappa: float = 0.1) -> dict:
    """Train many independently seeded networks on a (possibly perturbed)
    symmetric layout, cluster their boundary orientations by the projection
    directions of the layout points, and compare adversarial transfer within
    vs across clusters. A trial fails when its training raises NumericError
    (it diverged or hit the epoch cap), or when a layout point's projection
    did not converge or has distance 0."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    check_master_seed(master_seed, "symmetry --seed")
    check_kappa(kappa)
    data = gen_symmetric_layout(layout_kind, perturb)
    train_cfg = TrainConfig(learning_rate=1e-2, max_epochs=5000,
                            batch_size=len(data), accuracy_target=0.99)

    sigs, nets, advs = [], [], []  # of the trials that did not fail
    for t in range(trials):
        try:
            net = _train_fresh(SYMMETRY_DIMS, data, train_cfg,
                               derive_seed(master_seed, SEED_TRIAL, t))
        except NumericError:
            continue
        projected, results = project_dataset(net, data)
        step = projected.samples - data.samples
        length = np.linalg.norm(step, axis=1, keepdims=True)
        if not (all(r.converged for r in results) and length.all()):
            continue
        # the signature: every layout point's unit projection direction
        sigs.append(step / length)
        advs.append(adversarial_overshoot(data.samples, projected.samples, kappa))
        nets.append(net)

    # greedy clustering: each signature joins the first cluster whose first
    # member it matches in mean per-point cosine, else starts a cluster
    reps: list[np.ndarray] = []
    assignment = []
    for sig in sigs:
        c = next((c for c, rep in enumerate(reps)
                  if float((sig * rep).sum(axis=1).mean()) >= SYMMETRY_CLUSTER_COS), len(reps))
        if c == len(reps):
            reps.append(sig)
        assignment.append(c)

    within_rates, cross_rates = [], []
    for i, adv in enumerate(advs):
        for j in range(len(nets)):
            if i == j:
                continue
            rate = _fooling_rate(nets[j], adv, data.labels)
            (within_rates if assignment[i] == assignment[j] else cross_rates).append(rate)

    sizes = sorted((assignment.count(c) for c in range(len(reps))), reverse=True)
    return {
        "layout": layout_kind,
        "perturb": perturb,
        "trials": trials,
        "failed_trials": trials - len(nets),
        "cluster_count": len(reps),
        "cluster_sizes": sizes,
        "dominant_fraction": (sizes[0] / len(sigs)) if sigs else 0.0,
        "within_cluster_transfer": float(np.mean(within_rates)) if within_rates else None,
        "cross_cluster_transfer": float(np.mean(cross_rates)) if cross_rates else None,
    }
