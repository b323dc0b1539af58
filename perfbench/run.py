"""blab benchmark: each workload runs as fresh blab processes.

    python3 perfbench/run.py --workload cascade2d --seed 1 --seconds 30 --trace 0

Run from the repository root. Each run derives its inputs from --seed, sets
up the workload several times (setup_s), then runs invocations one after
another (closed loop, one process at a time). How many inputs a run measures
follows from --seconds and the workload's nominal invocation time alone, so a
seed always measures the same work. With --trace 0 it then repeats the
quickest input as a determinism check and reports the end-to-end metrics.
With --trace 1 it runs every input twice, untraced then traced, and reports
per-layer metrics from the traced runs. The last line of standard output is
one JSON object; the lines before it are a readable report. The exit code is
1 when a correctness check fails and 2 when the benchmark cannot run. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
INVOKE = HERE / "invoke.py"
# One projection thread: on a 2-vCPU host, repeating one cascade2d input for
# 7 minutes, project_dataset's 2-thread pool was 15% slower than one thread
# and its time drifted twice as much with the host (IQR/median of 30-s means
# 0.093 against 0.050), so with it the benchmark measures the scheduler.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "BLAB_THREADS": "1"}
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170  # a run is abandoned past this, whatever --seconds says
INVOCATION_LIMIT_S = 60  # an invocation still running then is killed and counted as failed
TIMED_OUT = -9
EXIT_NUMERIC = 4  # blab's documented exit code for training or projection failure
SYMMETRY_TRIALS = 20
# blobs2d.cfg runs 5 iterations. From the second on, training on the
# projected set hits its epoch cap on about one input in fifty (exit 4 after
# about 7 s), and a failed operation must not be part of the gated workload.
# The first iteration trains on the raw blobs and projects all 30 samples.
CASCADE2D_ITERATIONS = 1
CASCADE784_SUBSET = 8

CASCADE784_CONFIG = """[dataset]
source = idx
images_path = {images}
labels_path = {labels}
class_a = 0
class_b = 1
subset = {subset}

[network]
dims = 784,500,256,128,32,2

[train]
optimizer = adam
learning_rate = 0.01
max_epochs = 20000
batch_size = 30
accuracy_target = 0.90
"""
# what the symmetry command and the oracle suite build, as configs for setup_s
SYMMETRY_CONFIG = "[dataset]\nsource = symmetric\nlayout_kind = square_xor\n"
ORACLE_CONFIG = ("[dataset]\nsource = blobs\ndim = 2\nper_class = 40\n"
                 "center_distance = 4.0\nsigma = 0.5\nseed = {seed}\n")


def sub_seed(*parts) -> int:
    """32-bit seed derived from the workload seed and a position."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing repository, failed input generation)."""


# --- processes ---------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall: float
    cpu: float  # user + system seconds of the child
    rss_mb: float


class Runner:
    """Starts one child at a time and kills it at the run deadline."""

    def __init__(self, root: Path, deadline: float):
        self.env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(root / "src"))
        self.deadline = deadline

    def run(self, args: list[str], cwd: Path) -> Child:
        """Run invoke.py with args; a child killed at INVOCATION_LIMIT_S
        reports exit code TIMED_OUT."""
        cwd.mkdir(parents=True, exist_ok=True)
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(INVOKE), *args], cwd=cwd,
                                    env=self.env, stdout=out, stderr=err)
            limit = min(INVOCATION_LIMIT_S, self.deadline - time.monotonic())
            killer = threading.Timer(max(0.0, limit), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"run deadline reached during {args[:4]}")
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)


# --- workloads -----------------------------------------------------------------

@dataclass
class Invocation:
    index: int
    traced: bool
    out: Path
    child: Child | None = None
    outcome: dict = field(default_factory=dict)
    proj_dist_iter1: float | None = None


@dataclass
class Workload:
    name: str
    mode: str  # invoke.py mode: cli or oracle
    nominal_s: float  # typical invocation wall time on a 2-vCPU host; sets the input count
    numeric_failure_allowed: bool  # exit 4 is a counted failure, not a broken program
    prepare: Callable  # (work, seed, runner) -> setup config path
    argv: Callable  # (work, seed, index, out) -> invoke.py mode arguments after TRACE
    artifact: Callable  # out -> path whose bytes must repeat exactly
    check: Callable  # (Invocation) -> list of error strings


def _records(out: Path) -> list[list[str]]:
    lines = (out / "run" / "records.csv").read_text().strip().splitlines()
    if not lines[0].startswith("iteration,mean_nn_distance,mean_projection_norm,"):
        raise ValueError("unexpected records.csv header")
    return [line.split(",") for line in lines[1:]]


def _check_cascade(inv: Invocation, iterations: int) -> list[str]:
    errors = []
    manifest = json.loads((inv.out / "run" / "manifest.json").read_text())
    rows = _records(inv.out)
    for row in rows:
        values = [float(v) for v in row[1:3]]
        if not all(math.isfinite(v) for v in values):
            errors.append(f"non-finite records.csv row {row}")
        if row[0] != "0" and float(row[3]) != 1.0:
            errors.append(f"train_acc != 1.0 in records.csv row {row}")
    if len(rows) > 1:
        inv.proj_dist_iter1 = float(rows[1][2])
    if inv.child.code == EXIT_NUMERIC:
        if not manifest["status"].startswith("aborted"):
            errors.append(f"exit 4 left manifest status {manifest['status']!r}")
        return errors
    if manifest["status"] != "finished" or len(rows) != iterations + 1:
        errors.append(f"status {manifest['status']!r} with {len(rows)} records")
    unconverged = sum(int(r[5]) for r in rows)
    if unconverged != inv.outcome["projections"] - inv.outcome["converged"]:
        errors.append(f"records.csv counts {unconverged} unconverged, "
                      f"the outcome counter {inv.outcome}")
    return errors


def _prepare_cascade2d(work: Path, seed: int, runner: Runner) -> Path:
    cfg = work / "blobs2d.cfg"
    shutil.copyfile(Path.cwd() / "configs" / "blobs2d.cfg", cfg)
    return cfg


def _argv_cascade(cfg_name: str, iterations: int):
    def argv(work: Path, seed: int, index: int, out: Path) -> list[str]:
        return ["iterproj", str(work / cfg_name), "--iterations", str(iterations),
                "--set", f"experiment.master_seed={sub_seed(seed, index, 'master')}",
                "--set", f"dataset.seed={sub_seed(seed, index, 'dataset')}",
                "--out", str(out / "run")]
    return argv


def _prepare_cascade784(work: Path, seed: int, runner: Runner) -> Path:
    images = work / "blobs784.idx"
    gen = runner.run(["cli", str(work / "gen"), "0", "gen-data", "--kind", "blobs",
                      "--dim", "784", "--per-class", "100", "--format", "idx",
                      "--seed", str(sub_seed(seed, "gen-data")), "--out", str(images)],
                     work / "gen")
    if gen.code != 0:
        raise BenchError(f"gen-data exited {gen.code}: {_stderr_tail(work / 'gen')}")
    cfg = work / "cascade784.cfg"
    cfg.write_text(CASCADE784_CONFIG.format(images=images,
                                            labels=images.with_suffix(".labels.idx"),
                                            subset=CASCADE784_SUBSET))
    return cfg


def _prepare_symmetry(work: Path, seed: int, runner: Runner) -> Path:
    cfg = work / "symmetry.cfg"
    cfg.write_text(SYMMETRY_CONFIG)
    return cfg


def _argv_symmetry(work: Path, seed: int, index: int, out: Path) -> list[str]:
    return ["symmetry", "--layout", "square_xor", "--trials", str(SYMMETRY_TRIALS),
            "--seed", str(sub_seed(seed, index, "symmetry")),
            "--out", str(out / "symmetry.json")]


def _check_symmetry(inv: Invocation) -> list[str]:
    r = json.loads((inv.out / "symmetry.json").read_text())
    ok_trials = r["trials"] - r["failed_trials"]
    errors = []
    if r["trials"] != SYMMETRY_TRIALS or not 0 <= r["failed_trials"] <= r["trials"]:
        errors.append(f"bad trial counts {r['trials']}/{r['failed_trials']}")
    if sum(r["cluster_sizes"]) != ok_trials or r["cluster_count"] != len(r["cluster_sizes"]):
        errors.append(f"cluster sizes {r['cluster_sizes']} do not add up to {ok_trials}")
    for key in ("dominant_fraction", "within_cluster_transfer", "cross_cluster_transfer"):
        if r[key] is not None and not 0.0 <= r[key] <= 1.0:
            errors.append(f"{key} = {r[key]} outside [0, 1]")
    if inv.outcome["converged"] < 4 * ok_trials:
        errors.append(f"{ok_trials} good trials but {inv.outcome['converged']} converged")
    return errors


def _prepare_oracle(work: Path, seed: int, runner: Runner) -> Path:
    cfg = work / "oracle.cfg"
    cfg.write_text(ORACLE_CONFIG.format(seed=sub_seed(seed, "oracle-data")))
    return cfg


def _argv_oracle(work: Path, seed: int, index: int, out: Path) -> list[str]:
    return [str(sub_seed(seed, index, "oracle"))]


def _check_oracle(inv: Invocation) -> list[str]:
    report = json.loads((inv.out / "report.json").read_text())
    return [f"oracle check failed: {name} ({detail})"
            for name, ok, detail in report["checks"] if not ok]


WORKLOADS = {
    "cascade2d": Workload("cascade2d", "cli", 0.65, True, _prepare_cascade2d,
                          _argv_cascade("blobs2d.cfg", CASCADE2D_ITERATIONS),
                          lambda out: out / "run" / "records.csv",
                          lambda inv: _check_cascade(inv, CASCADE2D_ITERATIONS)),
    "cascade784": Workload("cascade784", "cli", 15.0, True, _prepare_cascade784,
                           _argv_cascade("cascade784.cfg", 2),
                           lambda out: out / "run" / "records.csv",
                           lambda inv: _check_cascade(inv, 2)),
    "symmetry": Workload("symmetry", "cli", 0.8, False, _prepare_symmetry, _argv_symmetry,
                         lambda out: out / "symmetry.json", _check_symmetry),
    "oracle": Workload("oracle", "oracle", 17.5, False, _prepare_oracle, _argv_oracle,
                       lambda out: out / "report.json", _check_oracle),
}


# --- one run -----------------------------------------------------------------

def input_count(workload: Workload, seconds: float, trace: bool) -> int:
    """Inputs one run measures: as many as fill `seconds` at the workload's
    nominal time, counting the determinism repeat without trace and both
    invocations of each input with it. The count depends on the arguments
    alone, so attempted and failed operations repeat exactly for a seed."""
    if trace:
        return max(1, int(seconds / (2 * workload.nominal_s)))
    return max(1, int(seconds / workload.nominal_s) - 1)


def _groups(n: int, trace: bool):
    """Invocation groups: inputs 0 .. n-1 once each, or with trace each
    input untraced then traced, whose outputs must match byte for byte."""
    for i in range(n):
        yield [(i, False), (i, True)] if trace else [(i, False)]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
            runner: Runner) -> tuple[list[float], list[Invocation], list[str]]:
    cfg = workload.prepare(work, seed, runner)
    setup = []
    for k in range(SETUP_REPEATS):
        child = runner.run(["setup", str(cfg)], work / f"setup{k}")
        if child.code != 0:
            raise BenchError(f"setup exited {child.code}: {_stderr_tail(work / f'setup{k}')}")
        setup.append(child.wall)

    invocations: list[Invocation] = []
    errors: list[str] = []

    def invoke(index: int, traced: bool, name: str) -> Invocation:
        out = work / name
        out.mkdir()
        args = [workload.mode, str(out), "1" if traced else "0",
                *workload.argv(work, seed, index, out)]
        inv = Invocation(index, traced, out)
        inv.child = runner.run(args, out)
        errors.extend(f"{name}: {e}" for e in _check(workload, inv))
        return inv

    for group in _groups(input_count(workload, seconds, trace), trace):
        members = [invoke(index, traced, f"inv{len(invocations) + k}")
                   for k, (index, traced) in enumerate(group)]
        invocations += members
        errors += _check_repeat(workload, members)
    if not trace:  # the determinism check: the quickest input again, measured like the rest
        quickest = min(invocations, key=lambda i: i.child.wall)
        invocations.append(invoke(quickest.index, False, "repeat"))
        errors += _check_repeat(workload, [quickest, invocations[-1]])
    return setup, invocations, errors


def _failed(workload: Workload, inv: Invocation) -> bool:
    """A counted failure: killed at the time limit, or exit 4 where blab
    documents it as the outcome of training or projection failing."""
    code = inv.child.code
    return code == TIMED_OUT or (code == EXIT_NUMERIC and workload.numeric_failure_allowed)


def _check(workload: Workload, inv: Invocation) -> list[str]:
    code = inv.child.code
    if code == TIMED_OUT:
        return []
    if code != 0 and not _failed(workload, inv):
        return [f"exit code {code}: {_stderr_tail(inv.out)}"]
    try:
        inv.outcome = json.loads((inv.out / "outcome.json").read_text())
        return workload.check(inv)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"unreadable output: {e!r}"]


def _stderr_tail(out: Path) -> str:
    lines = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return " / ".join(lines[-3:])


def _check_repeat(workload: Workload, members: list[Invocation]) -> list[str]:
    if len(members) < 2:
        return []
    a, b = members
    if TIMED_OUT in (a.child.code, b.child.code):
        return []
    if a.child.code != b.child.code:
        return [f"input {a.index}: exit codes {a.child.code} and {b.child.code} differ"]
    pa, pb = workload.artifact(a.out), workload.artifact(b.out)
    if not (pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()):
        return [f"input {a.index}: {pa.name} differs between repeated invocations"]
    return []


# --- metrics -----------------------------------------------------------------

def end_to_end(setup: list[float], invs: list[Invocation]) -> dict:
    """wall_s and projections_per_s average over every invocation of the run.
    A shared host's speed drifts over seconds; a mean over the whole run
    averages that out, where a median or interquartile mean over invocations
    discards half of the run and spread more from run to run."""
    wall = sum(i.child.wall for i in invs)
    return {
        "wall_s": (wall / len(invs), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(i.child.rss_mb for i in invs), "MiB"),
        "projections_per_s": (sum(i.outcome.get("converged", 0) for i in invs) / wall, "1/s"),
    }


def operations(workload: Workload, invs: list[Invocation]) -> tuple[int, int]:
    """Attempted and failed operations: each invocation and each sample
    projection is one. Failed invocations and unconverged projections fail."""
    attempted = len(invs) + sum(i.outcome.get("projections", 0) for i in invs)
    failed = sum(_failed(workload, i) for i in invs) + sum(
        i.outcome.get("projections", 0) - i.outcome.get("converged", 0) for i in invs)
    return attempted, failed


LAYERS = ("boundary", "nn", "geometry", "verify", "metrics", "experiments", "data")


def _dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def per_layer(invs: list[Invocation]) -> dict:
    """Per-layer metrics from the traced invocations, per invocation unless
    the name says otherwise. A metric whose spans are missing is absent, and
    so is every metric when no traced invocation finished."""
    traced = [i for i in invs if i.traced and (i.out / "trace.json").exists()]
    n = len(traced)
    if not n:
        return {}
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    layer_wall: dict[str, float] = {}
    root_s = 0.0
    for inv in traced:
        summary = json.loads((inv.out / "trace.json").read_text())
        root_s += summary["spans"]["bench.invoke"]["s"]
        for name, agg in summary["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "wall_s": 0.0})
            for k in total:
                total[k] += agg[k]
        for layer, wall in summary["layer_wall_s"].items():
            layer_wall[layer] = layer_wall.get(layer, 0.0) + wall
        for k, v in summary["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k.endswith(".max") else counts.get(k, 0) + v

    def calls(name):
        return spans[name]["calls"]

    def secs(name):
        return spans[name]["s"]

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(layer):
        return sum(a["self_s"] for k, a in spans.items() if k.startswith(layer + "."))

    ptb, hit = "boundary.project_to_boundary", "boundary.hit_boundary"
    projected = counts.get("projections", 0)
    out_bytes = [_dir_bytes(p) for i in traced
                 for p in [i.out / "run", i.out / "symmetry.json"] if p.exists()]
    table = [
        ("boundary.project_dataset.s", "s", ["boundary.project_dataset"],
         lambda: secs("boundary.project_dataset") / n),
        ("boundary.project_to_boundary.calls", "count", [ptb], lambda: calls(ptb) / n),
        ("boundary.hit_boundary.calls_per_sample", "count", [ptb, hit],
         lambda: ratio(calls(hit), calls(ptb))),
        ("boundary.reroots_per_sample", "count", [ptb, hit],
         lambda: ratio(max(0, calls(hit) - calls(ptb)), calls(ptb))),
        ("boundary.bisect.calls_per_sample", "count", [ptb, "boundary.bisect"],
         lambda: ratio(calls("boundary.bisect"), calls(ptb))),
        ("boundary.evals_per_sample", "count", [ptb, "nn.margin", "nn.grad_input"],
         lambda: ratio(counts.get("blab.boundary.margin", 0)
                       + counts.get("blab.boundary.margin_batch.rows", 0)
                       + counts.get("blab.boundary.grad_input", 0), calls(ptb))),
        ("boundary.converged_frac", "fraction", [ptb],
         lambda: ratio(counts.get("converged", 0), projected)),
        *[(f"boundary.method_share.{m}", "fraction", [ptb],
           lambda m=m: ratio(counts.get("method." + m, 0), projected))
          for m in ("newton_refine", "segment_bisection", "combined")],
        ("boundary.self_s", "s", [ptb], lambda: layer_self("boundary") / n),
        *[x for name in ("nn.margin", "nn.grad_input") for x in (
            (f"{name}.calls", "count", [name], lambda name=name: calls(name) / n),
            (f"{name}.us_per_call", "us", [name],
             lambda name=name: 1e6 * ratio(secs(name), calls(name))))],
        ("nn.margin_batch.calls", "count", ["nn.margin_batch"],
         lambda: calls("nn.margin_batch") / n),
        ("nn.margin_batch.rows", "count", ["nn.margin_batch"], lambda: _rows(counts) / n),
        ("nn.margin_batch.rows_per_call", "count", ["nn.margin_batch"],
         lambda: ratio(_rows(counts), calls("nn.margin_batch"))),
        ("nn.margin_batch.ns_per_row", "ns", ["nn.margin_batch"],
         lambda: 1e9 * ratio(secs("nn.margin_batch"), _rows(counts))),
        ("nn.forward.weight_bytes_per_row", "B", ["nn.train"],
         lambda: counts.get("weight_bytes.max", 0)),
        ("nn.train.calls", "count", ["nn.train"], lambda: calls("nn.train") / n),
        ("nn.train.s", "s", ["nn.train"], lambda: secs("nn.train") / n),
        ("nn.train.epochs", "count", ["nn.train"], lambda: counts.get("train.epochs", 0) / n),
        ("nn.train.ms_per_epoch", "ms", ["nn.train"],
         lambda: 1e3 * ratio(secs("nn.train"), counts.get("train.epochs", 0))),
        ("nn.self_s", "s", ["nn.train"], lambda: layer_self("nn") / n),
        ("geometry.grid.s", "s", ["geometry.grid"], lambda: secs("geometry.grid") / n),
        ("geometry.grid.points", "count", ["geometry.grid"],
         lambda: counts.get("grid.points", 0) / n),
        ("verify.oracle.self_s", "s", ["verify.oracle"],
         lambda: spans["verify.oracle"]["self_s"] / n),
        ("metrics.nearest_opposite.calls", "count", ["metrics.nearest_opposite"],
         lambda: calls("metrics.nearest_opposite") / n),
        ("metrics.nearest_opposite.s", "s", ["metrics.nearest_opposite"],
         lambda: secs("metrics.nearest_opposite") / n),
        ("metrics.nearest_opposite.temp_bytes", "B", ["metrics.nearest_opposite"],
         lambda: counts.get("nearest_opposite.temp_bytes.max", 0)),
        ("experiments.io.s", "s", ["experiments.io"], lambda: secs("experiments.io") / n),
        ("experiments.io.bytes", "B", ["experiments.io"],
         lambda: sum(out_bytes) / n),
        ("experiments.self_s", "s", ["experiments.io"], lambda: layer_self("experiments") / n),
        ("data.build_dataset.s", "s", ["data.build_dataset"],
         lambda: secs("data.build_dataset") / n),
        *[(f"share.{layer}", "fraction", [],
           lambda layer=layer: ratio(layer_wall.get(layer, 0.0), root_s)) for layer in LAYERS],
        *[(f"share.{name}", "fraction", [name],
           lambda name=name: ratio(spans[name]["wall_s"], root_s))
          for name in ("nn.train", "nn.margin_batch", "geometry.grid")],
        ("trace.overhead_s", "s", [], lambda: statistics.median(
            b.child.wall - a.child.wall for a, b in zip(invs[::2], invs[1::2]))),
    ]
    return {name: (fn(), unit) for name, unit, needs, fn in table
            if all(s in spans for s in needs)}


def _rows(counts: dict) -> float:
    return sum(v for k, v in counts.items() if k.endswith(".margin_batch.rows"))


# --- reporting -----------------------------------------------------------------

def environment(root: Path) -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpus": os.cpu_count(), "thread_env": THREAD_ENV}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' when absent."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blab" / "__init__.py").is_file():
        print(f"no blab source tree under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_root = root / ".perfbench"
    work = out_root / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, time.monotonic() + RUN_DEADLINE_S)
    try:
        setup, invs, errors = measure(workload, args.seed, args.seconds, bool(args.trace),
                                      work, runner)
        attempted, failed = operations(workload, invs)
        if args.trace:
            metrics = per_layer(invs) if not errors else {}
            first = next(i for i in invs if i.traced)
            for name in ("trace.json", "spans.npz"):
                if (first.out / name).exists():
                    shutil.copyfile(first.out / name, out_root / f"{args.workload}-{name}")
        else:
            metrics = end_to_end(setup, invs)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(root)
    dists = [i.proj_dist_iter1 for i in invs if i.proj_dist_iter1 is not None]
    extra = {"failed_frac": (failed / attempted, f"of {attempted} operations, {failed} failed")}
    if dists:
        extra["proj_dist_iter1"] = (statistics.fmean(dists), f"mean of {len(dists)}")
    print(f"blab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  git {env['git_sha']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, {env['cpus']} cpus, "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    print(f"  {len(invs)} invocations (closed loop, one process at a time), "
          f"exit codes {sorted(set(i.child.code for i in invs))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for name, (value, note) in extra.items():
        print(f"  {name:42s} {value:14.6g} ({note})")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s": setup, "errors": errors,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "invocations": [{"input": i.index, "traced": i.traced, "exit": i.child.code,
                               "wall_s": i.child.wall, "cpu_s": i.child.cpu,
                               "rss_mb": i.child.rss_mb,
                               **i.outcome, "proj_dist_iter1": i.proj_dist_iter1}
                              for i in invs]}
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
