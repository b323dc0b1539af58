import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import blab.experiments
import blab.metrics
from blab.boundary import project_to_boundary
from blab.config import (DatasetSpec, ExperimentConfig, config_from_items, config_sections,
                         parse_config)
from blab.data import DataError, Dataset, NumericError, gen_gaussian_blobs, import_csv
from blab.experiments import (SEED_BASELINE, TRANSFER_MODES, IterationRecord, build_dataset,
                              checkpoint_resume, records_to_csv, run_generalization_tracking,
                              run_iterative_projection, run_symmetry_experiment, run_transfer,
                              stratified_split)
from blab.nn import (TrainConfig, init_network, is_correct, load_checkpoint, margin_batch,
                     save_checkpoint)
from blab.rng import derive_seed, make_rng
from blab.verify import exact_check_2d

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "blobs2d.cfg"


def small_config(master_seed=0, iterations=3, per_class=15):
    """Fast 2D cascade configuration used across these tests."""
    return ExperimentConfig(
        dataset=DatasetSpec(source="blobs", seed=100 + master_seed, dim=2,
                            per_class=per_class, center_distance=4.0, sigma=0.5),
        dims=[2, 32, 32, 2],
        train=TrainConfig(learning_rate=1e-2, max_epochs=20000, batch_size=30,
                          accuracy_target=0.90),
        iterations=iterations,
        master_seed=master_seed,
    )


def extend_run(run_dir, iterations: int) -> dict:
    """Edit a run's manifest to `iterations` and status `running`, so that it
    resumes; returns the edited manifest."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["experiment"]["iterations"] = str(iterations)
    manifest["status"] = "running"
    path.write_text(json.dumps(manifest))
    return manifest


def test_build_dataset_sources(tmp_path):
    blobs = build_dataset(DatasetSpec(source="blobs", per_class=5))
    assert len(blobs) == 10 and blobs.dim == 2
    sym = build_dataset(DatasetSpec(source="symmetric", layout_kind="square_xor"))
    assert len(sym) == 4
    with pytest.raises(ValueError):
        build_dataset(DatasetSpec(source="parquet"))


def test_stratified_split_properties():
    data = gen_gaussian_blobs(40, 2, 1.0, 1.0, seed=5)
    a, b = stratified_split(data, 0.25, seed=9)
    assert len(a) == 60 and len(b) == 20
    assert (b.labels == 0).sum() == 10 and (b.labels == 1).sum() == 10
    merged = np.vstack([a.samples, b.samples])
    assert len(np.unique(merged, axis=0)) == len(data)
    a2, b2 = stratified_split(data, 0.25, seed=9)
    np.testing.assert_array_equal(b.samples, b2.samples)
    # 10 * 0.25 = 2.5 rounds half to even: 2 of each class held out, not 3
    small = gen_gaussian_blobs(10, 2, 1.0, 1.0, seed=5)
    a, b = stratified_split(small, 0.25, seed=9)
    assert (b.labels == 0).sum() == 2 and (b.labels == 1).sum() == 2 and len(a) == 16


def test_records_csv_roundtrip():
    records = [IterationRecord(0, 3.5, 0.0, None, 0),
               IterationRecord(1, 1.25, 0.5, 0.9, 2, 28.75),
               IterationRecord(2, 1.0, 0.25, 0.8, 0)]
    # every cell is its field's repr, which reads back as the same value, and None is
    # empty; train_acc is a constant: empty for the raw set, 1.0 for every trained net
    assert records_to_csv(records) == (
        "iteration,mean_nn_distance,mean_projection_norm,train_acc,test_acc,unconverged_count,"
        "global_difference\n0,3.5,0.0,,,0,\n1,1.25,0.5,1.0,0.9,2,28.75\n2,1.0,0.25,1.0,0.8,0,\n")


def _items(sections):
    return [(section, key, text) for section, keys in sections.items()
            for key, text in keys.items()]


def test_config_sections_roundtrip():
    cfg = small_config()
    assert "dims_b" not in config_sections(cfg)["experiment"]
    cfg = dataclasses.replace(cfg, dims_b=[2, 8, 2])
    sections = config_sections(cfg)
    assert sections["network"] == {"dims": "2,32,32,2"}
    assert sections["experiment"]["dims_b"] == "2,8,2"
    assert config_from_items(_items(sections)) == cfg
    # survives JSON serialization too, as a manifest stores it
    assert config_from_items(_items(json.loads(json.dumps(sections)))) == cfg


def test_iterative_projection_decreases_distance(tmp_path):
    cfg = small_config()
    records = run_iterative_projection(cfg, out_dir=tmp_path / "run")
    assert len(records) == cfg.iterations + 1
    assert records[0].iteration == 0
    dists = [r.mean_nn_distance for r in records]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    for r in records[1:]:
        assert r.mean_projection_norm > 0


def test_run_directory_layout_and_determinism(tmp_path):
    cfg = small_config(master_seed=1)
    run_iterative_projection(cfg, out_dir=tmp_path / "a")
    run_iterative_projection(small_config(master_seed=1), out_dir=tmp_path / "b")
    for name in ("manifest.json", "records.csv"):
        assert (tmp_path / "a" / name).exists()
    for k in range(1, cfg.iterations + 1):
        assert (tmp_path / "a" / "checkpoints" / f"iter_{k}.blab").exists()
        assert (tmp_path / "a" / "projections" / f"iter_{k}.csv").exists()
        assert (tmp_path / "a" / "working" / f"iter_{k}.csv").exists()
    assert ((tmp_path / "a" / "records.csv").read_bytes()
            == (tmp_path / "b" / "records.csv").read_bytes())
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["status"] == "finished"
    assert manifest["completed_iterations"] == cfg.iterations


# phi_1..phi_3 of small_config(master_seed=4, iterations=4), in which every
# projection converged, as metrics.global_difference computes them from the
# run's working sets W_{k-1}, W_k and W_{k+1}, frozen so that a change to
# training or projection cannot move them unseen
FROZEN_PHI = [None, 27.918204401157404, 29.5658435955296, 29.0, None]


def test_global_difference_column_matches_the_frozen_reprojection(tmp_path):
    records = run_iterative_projection(small_config(master_seed=4, iterations=4),
                                       out_dir=tmp_path / "run")
    assert all(r.unconverged_count == 0 for r in records)
    for record, phi in zip(records, FROZEN_PHI, strict=True):
        if phi is None:
            assert record.global_difference is None
        else:
            assert record.global_difference == pytest.approx(phi, rel=1e-12, abs=1e-12)
    rows = (tmp_path / "run" / "records.csv").read_text().splitlines()
    assert rows[1].endswith(",0,") and rows[-1].endswith(",0,")


# every value of records.csv for `blab iterproj configs/blobs2d.cfg
# --iterations 2`, one tuple per row in column order, frozen so that a
# change to training, projection or the metrics cannot move them unseen
FROZEN_RECORDS = [
    (0, 2.8971426203147312, 0.0, None, 0, None),
    (1, 0.936069892361584, 1.5589610572182802, None, 0, 28.006104715645332),
    (2, 0.5010476137116561, 0.5817286396914648, None, 0, None),
]


def test_blobs2d_cascade_records_match_the_frozen_values(monkeypatch, tmp_path):
    # and the run scans its class-0 x class-1 pairs 5 times: record 0's metric, then
    # each iteration's crossing-candidate pass and its record's metric
    passes, blocks = [], blab.metrics._distance_blocks

    def counted(a, b):
        passes.append(len(a))
        return blocks(a, b)

    monkeypatch.setattr(blab.metrics, "_distance_blocks", counted)
    cfg = parse_config(CONFIG, ["experiment.iterations=2"])
    records = run_iterative_projection(cfg, out_dir=tmp_path / "run")
    assert len(passes) == 5
    for record, frozen in zip(records, FROZEN_RECORDS, strict=True):
        for value, want in zip(dataclasses.astuple(record), frozen, strict=True):
            if want is None:
                assert value is None
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=0)


# the method and distance columns of projections/iter_1..3.csv for `blab
# iterproj configs/blobs2d.cfg --iterations 3`, frozen so that a change to
# how a projection picks among its candidates cannot move them unseen; a
# method is its initial: n(ewton_refine), s(egment_bisection), c(ombined)
FROZEN_METHODS = [
    "cccccccncncccccncnncnccnccnccc",
    "nnnnnnnnncnnnnnnnnnnnnnnnnnncc",
    "nnnnnnnnnnnnnnnnnnnnnnnnnnnnnn",
]
FROZEN_DISTANCES = [
    [
        1.755816929716099, 1.1027938393672987, 2.6294399015533947, 1.9184174972730734,
        2.0648437494172858, 3.0414201898722673, 1.9226411493685887, 2.153857461871928,
        2.0464927956666608, 1.695759476540721, 1.6865233453307487, 2.0800177526488803,
        1.3172272729883172, 2.658682502410622, 1.6104417191512421, 1.1992261855866166,
        1.7513546390575294, 0.6149855519763984, 0.9724705379938443, 1.2683517148651398,
        0.8529167109134547, 1.6577006977451556, 0.9727511288217764, 1.2650722557527059,
        1.1141153432115831, 0.701061020505639, 0.9567264800766991, 1.0778783221684727,
        1.6613022757483178, 1.0185432689479428,
    ],
    [
        0.46973113883145834, 0.4735130447743584, 0.4739917630146514, 0.4696655935056732,
        0.47342937850624967, 0.4737887225983171, 0.47352776550860554, 0.4698954944568317,
        0.47185770605662725, 0.47265590990566914, 0.4735689468934555, 0.24906099076793262,
        0.01962769688323773, 0.4734473042478965, 0.47352489071183046, 0.8315835585222351,
        1.1010318519633129, 0.5858145889982989, 0.6543151829312062, 0.48625904555360194,
        0.6694769744833, 1.26368084325544, 0.3256890179033065, 1.0863274220034647,
        0.4515950318308456, 0.2824392023478325, 0.7287156692685537, 0.5619133444162518,
        1.0262324785701367, 0.9854986320333632,
    ],
    [
        0.10687608177335711, 0.1096251121054815, 0.11205882122108247, 0.10685438568784617,
        0.10954105399559633, 0.11070599187430848, 0.10966281046934515, 0.1069774647898888,
        0.10824757879248967, 0.10880068531377377, 0.109768271977204, 0.04615400389799494,
        0.00824207978869192, 0.1095565859913232, 0.10965544839534494, 0.18530311094022395,
        0.26691868283574444, 0.14566693128252584, 0.14470182617660135, 0.10621049873484448,
        0.14817446033529347, 0.3054505577298795, 0.08481495849955352, 0.24364926607648338,
        0.0982711046521982, 0.0747039180992658, 0.16174240277275512, 0.1235382466846605,
        0.24919855922481163, 0.23954862177071262,
    ],
]


def test_blobs2d_cascade_projections_match_the_frozen_picks(tmp_path):
    cfg = parse_config(CONFIG, ["experiment.iterations=3"])
    run_iterative_projection(cfg, out_dir=tmp_path / "run")
    for k, (methods, distances) in enumerate(zip(FROZEN_METHODS, FROZEN_DISTANCES,
                                                 strict=True), 1):
        text = (tmp_path / "run" / "projections" / f"iter_{k}.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert "".join(row[5][0] for row in rows) == methods
        assert [float(row[3]) for row in rows] == pytest.approx(distances, rel=1e-12, abs=0)


# inputs of the exact-check sweep beside the shipped config: input i sets master_seed i
# and dataset.seed 500 + i. On 2 vCPUs with OPENBLAS_NUM_THREADS=1 inputs 4 and 6 take
# about 4.4 and 4.0 s (input 4 trains to the epoch cap in iteration 2, input 6 trains
# long), the other seven under 1 s each
SWEEP_INPUTS = 9


@pytest.mark.parametrize("sets", [[]] + [[f"experiment.master_seed={i}", f"dataset.seed={500 + i}"]
                                         for i in range(SWEEP_INPUTS)],
                         ids=["shipped"] + [f"input{i}" for i in range(SWEEP_INPUTS)])
def test_the_shipped_cascade_projects_within_2pct_of_the_exact_boundary(tmp_path, sets):
    # the exact 2-D check on every converged projection a real run makes, read back from
    # its files, whose distance column is the row length of W_k - W_{k-1} that the
    # check measures too; a run that hits the epoch cap is checked on the iterations
    # it finished
    cfg = parse_config(CONFIG, sets)
    assert cfg.iterations == 5
    run = tmp_path / "run"
    try:
        run_iterative_projection(cfg, out_dir=run)
    except NumericError as e:
        assert "training hit the epoch cap" in str(e)
    completed = json.loads((run / "manifest.json").read_text())["completed_iterations"]
    checked = 0
    for k in range(1, completed + 1):
        net = load_checkpoint(run / "checkpoints" / f"iter_{k}.blab")
        before, after = (import_csv(run / "working" / f"iter_{j}.csv").samples
                         for j in (k - 1, k))
        rows = [row.split(",") for row in
                (run / "projections" / f"iter_{k}.csv").read_text().splitlines()[1:]]
        converged = np.array([row[2] == "1" for row in rows])
        _, engine, exact, passed = exact_check_2d(net, before[converged], after[converged])
        reported = np.array([float(row[3]) for row in rows])[converged]
        np.testing.assert_array_equal(reported, engine, err_msg=f"iteration {k}")
        assert passed.all(), [f"iteration {k} sample {i}: engine {d!r}, exact {d_exact!r}"
                              for i, d, d_exact, ok in zip(np.flatnonzero(converged), engine,
                                                           exact, passed) if not ok]
        checked += len(passed)
    assert checked > 0


@pytest.mark.parametrize("mode", TRANSFER_MODES)
def test_the_transfer_source_projects_within_2pct_of_the_exact_boundary(monkeypatch, mode):
    # the exact 2-D check on the source net's projections of the evaluation picks that
    # run_transfer makes for configs/transfer2d.cfg, recorded from its own call
    calls = []

    def recording(net, data, rows):
        results = project_to_boundary(net, data, rows)
        calls.append((net, data.samples[rows], results))
        return results

    monkeypatch.setattr("blab.experiments.project_to_boundary", recording)
    report = run_transfer(parse_config(CONFIG.with_name("transfer2d.cfg")), mode)
    (net, xs, results), = calls
    converged = np.array([r.converged for r in results])
    assert report["valid"] and converged.sum() == report["n_samples"] > 0
    points = np.array([r.point for r in results])[converged]
    _, engine, exact, passed = exact_check_2d(net, xs[converged], points)
    assert passed.all(), [f"pick {i}: engine {d!r}, exact {d_exact!r}"
                          for i, d, d_exact, ok in zip(np.flatnonzero(converged), engine, exact,
                                                       passed) if not ok]


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    cfg = small_config(master_seed=2, iterations=4)
    full = run_iterative_projection(cfg, out_dir=tmp_path / "full")
    partial_dir = tmp_path / "partial"
    partial = run_iterative_projection(small_config(master_seed=2, iterations=2),
                                       out_dir=partial_dir)
    manifest = json.loads((partial_dir / "manifest.json").read_text())
    assert (manifest["status"], manifest["completed_iterations"]) == ("finished", 2)
    assert partial[2].global_difference is None
    extend_run(partial_dir, 4)
    resumed = checkpoint_resume(partial_dir)
    # record 2's phi needs working sets 1..3: two on disk, and the one iteration 3 projects
    assert resumed[2].global_difference is not None
    assert records_to_csv(resumed) == records_to_csv(full)
    assert ((partial_dir / "records.csv").read_bytes()
            == (tmp_path / "full" / "records.csv").read_bytes())


def test_resume_finished_run_is_noop(tmp_path):
    cfg = small_config(master_seed=3)
    records = run_iterative_projection(cfg, out_dir=tmp_path / "run")
    before = (tmp_path / "run" / "records.csv").read_bytes()
    resumed = checkpoint_resume(tmp_path / "run")
    assert records_to_csv(resumed) == records_to_csv(records)
    assert (tmp_path / "run" / "records.csv").read_bytes() == before


def test_resume_requires_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    with pytest.raises(DataError, match=f"cannot read {path}: No such file"):
        checkpoint_resume(tmp_path)
    for text, message in (('{"format_version": ', "corrupt manifest: Expecting value"),
                          ("[6]", "manifest format version None")):
        path.write_text(text)
        with pytest.raises(DataError, match=f"{path}: {message}"):
            checkpoint_resume(tmp_path)


def test_resume_refuses_older_manifest_format(tmp_path):
    run_iterative_projection(small_config(master_seed=3, iterations=1), out_dir=tmp_path / "run")
    path = tmp_path / "run" / "manifest.json"
    # a run that would otherwise resume: one more iteration to go
    current = json.dumps(extend_run(tmp_path / "run", 2))
    # version 2 saved a projector section, version 3 the SGD and Adam settings,
    # version 4 the training seed and the three experiment fractions; version 5
    # had the same config, but its records.csv had no global_difference column;
    # version 6 stored the config's typed values, not its config-file text
    for version, edit in (
            (2, lambda c: c.update(projector={"boundary_tolerance": 1e-6, "max_newton_steps": 200})),
            (3, lambda c: c["train"].update(momentum=0.9, adam_betas=[0.9, 0.999],
                                            adam_epsilon=1e-8)),
            (4, lambda c: c.update(train={**c["train"], "seed": 0},
                                   unconverged_abort_fraction=0.1, eval_fraction=0.25,
                                   test_fraction=0.25)),
            (5, lambda c: None),
            (6, lambda c: c.update(dataclasses.asdict(small_config(master_seed=3,
                                                                   iterations=2))))):
        manifest = json.loads(current)
        manifest["format_version"] = version
        edit(manifest["config"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f"{path}: manifest format version {version} "):
            checkpoint_resume(tmp_path / "run")


@pytest.fixture(scope="module")
def resumable_run(tmp_path_factory):
    """A 2-iteration run, and one with 1 of its 2 iterations completed."""
    root = tmp_path_factory.mktemp("resumable")
    run_iterative_projection(small_config(master_seed=3, iterations=2), out_dir=root / "full")
    run_iterative_projection(small_config(master_seed=3, iterations=1), out_dir=root / "partial")
    extend_run(root / "partial", 2)
    return root / "full", root / "partial"


def _set_config(section, key, text):
    return lambda m: m["config"][section].update({key: text})


@pytest.mark.parametrize("edit, message", [
    (None, None),
    (_set_config("train", "warmup", "5"), "unknown config key train.warmup"),
    (_set_config("network", "dims", "2,x"), "bad value for network.dims: '2,x'"),
    (_set_config("experiment", "iterations", "0"), "iterations must be >= 1"),
    (lambda m: m.pop("status"), "manifest status is missing or not str"),
    (lambda m: m.update(completed_iterations="1"),
     "manifest completed_iterations is missing or not int"),
    (lambda m: m.update(completed_iterations=99), "completed_iterations 99 is not in 0..2"),
    (lambda m: m["config"]["train"].update(batch_size=30),
     "manifest config must map sections to key -> text"),
], ids=["unedited", "unknown_key", "bad_value", "zero_iterations", "no_status",
        "completed_as_text", "completed_past_iterations", "config_value_not_text"])
def test_resume_refuses_a_manifest_it_cannot_trust(resumable_run, tmp_path, edit, message):
    full, partial = resumable_run
    run = tmp_path / "run"
    shutil.copytree(partial, run)
    path = run / "manifest.json"
    if edit is None:
        checkpoint_resume(run)
        assert (run / "records.csv").read_bytes() == (full / "records.csv").read_bytes()
        return
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        checkpoint_resume(run)
    # refused before anything is written
    assert json.loads(path.read_text()) == manifest


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _flip_first_label(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, str(1 - int(first[0])) + first[1:], *rest]))


def _other_widths(path):
    save_checkpoint(init_network([2, 8, 2], seed=0), path)


def _one_class(path):
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, *("0" + row[1:] for row in rows)]))


def _nan_on_line_2(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    label, _, tail = first.split(",", 2)
    path.write_text("".join([header, f"{label},nan,{tail}", *rest]))


@pytest.mark.parametrize("name, edit, message", [
    ("working/iter_1.csv", _flip_first_label, "labels or shape differ from working/iter_0.csv"),
    ("working/iter_1.csv", _drop_last_line, "labels or shape differ from working/iter_0.csv"),
    ("projections/iter_1.csv", _drop_last_line, "rows do not match the 30 samples of the run"),
    ("checkpoints/iter_1.blab", Path.unlink, "No such file or directory"),
    ("checkpoints/iter_1.blab", _other_widths,
     "layer widths [2, 8, 2] != the config's [2, 32, 32, 2]"),
    ("working/iter_0.csv", _one_class, "every row has label 0"),
    ("working/iter_1.csv", _nan_on_line_2, "line 2: non-finite value 'nan'"),
], ids=["working_label_flipped", "working_row_missing", "projections_row_missing",
        "checkpoint_missing", "checkpoint_other_widths", "working_one_class",
        "working_non_finite"])
def test_resume_refuses_source_files_that_do_not_fit_the_run(resumable_run, tmp_path, name,
                                                             edit, message):
    run = tmp_path / "run"
    shutil.copytree(resumable_run[1], run)
    edit(run / name)
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    # a CSV cell's message names its line after the path: "{path}, line N: ..."
    with pytest.raises(DataError, match=f"{re.escape(str(run / name))}(: |, ).*"
                                        f"{re.escape(message)}"):
        checkpoint_resume(run)
    # refused before anything is written, the manifest included
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def test_resume_measures_projection_norms_on_the_working_sets(tmp_path):
    # the distance column of projections/iter_k.csv is a view: a resume reads
    # the rows' identity and flags only, and takes the norms of W_k - W_{k-1}
    run = tmp_path / "run"
    records = run_iterative_projection(small_config(master_seed=3, iterations=1), out_dir=run)
    path = run / "projections" / "iter_1.csv"
    header, *rows = path.read_text().splitlines()
    zeroed = [",".join([*c[:3], "0.0", *c[4:]]) for c in (row.split(",") for row in rows)]
    path.write_text("\n".join([header, *zeroed]) + "\n")
    assert records[1].mean_projection_norm > 0
    assert checkpoint_resume(run) == records


@pytest.fixture(scope="module", params=["iterproj", "gentrack"])
def two_of_three_iterations(request, tmp_path_factory):
    """A 3-iteration run, and one stopped after 2 of its 3 iterations."""
    root = tmp_path_factory.mktemp(request.param)
    runner = {"iterproj": run_iterative_projection,
              "gentrack": run_generalization_tracking}[request.param]
    for name, iterations in (("full", 3), ("partial", 2)):
        runner(small_config(master_seed=4, iterations=iterations, per_class=20),
               out_dir=root / name)
    extend_run(root / "partial", 3)
    return root / "full", root / "partial"


@pytest.mark.parametrize("edit", [_drop_last_line, Path.unlink], ids=["last_row_removed",
                                                                      "deleted"])
def test_resume_derives_its_records_without_records_csv(two_of_three_iterations, tmp_path, edit):
    # records.csv is a view: a resume rebuilds records 0..2 from the run's other files
    full, partial = two_of_three_iterations
    run = tmp_path / "run"
    shutil.copytree(partial, run)
    edit(run / "records.csv")
    checkpoint_resume(run)
    assert (run / "records.csv").read_bytes() == (full / "records.csv").read_bytes()


def test_resume_keeps_the_manifest_started_at(tmp_path):
    run_iterative_projection(small_config(master_seed=3, iterations=2), out_dir=tmp_path / "run")
    manifest = extend_run(tmp_path / "run", 3)
    checkpoint_resume(tmp_path / "run")
    resumed = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (resumed["status"], resumed["completed_iterations"]) == ("finished", 3)
    assert resumed["started_at"] == manifest["started_at"]
    assert resumed["updated_at"] > manifest["updated_at"]


def test_generalization_tracking_resumes_without_test_set(tmp_path):
    def cfg(iterations):
        return small_config(master_seed=4, iterations=iterations, per_class=20)

    run_generalization_tracking(cfg(3), out_dir=tmp_path / "full")
    partial = tmp_path / "partial"
    run_generalization_tracking(cfg(2), out_dir=partial)
    extend_run(partial, 3)
    checkpoint_resume(partial)
    assert ((partial / "records.csv").read_bytes()
            == (tmp_path / "full" / "records.csv").read_bytes())
    assert json.loads((partial / "manifest.json").read_text())["status"] == "finished"


def test_generalization_tracking_records_test_accuracy(tmp_path):
    cfg = small_config(master_seed=4, per_class=20)
    records = run_generalization_tracking(cfg, out_dir=tmp_path / "run")
    assert all(r.test_accuracy is not None for r in records[1:])
    assert all(0.0 <= r.test_accuracy <= 1.0 for r in records[1:])
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["with_test"] is True


def test_transfer_cross_training_set():
    cfg = small_config(master_seed=5, per_class=40)
    cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset, sigma=0.8),
                              train=dataclasses.replace(cfg.train, accuracy_target=0.99),
                              dims=[2, 16, 16, 2])
    report = run_transfer(cfg, "cross_training_set")
    # the keys in the order the report is written
    assert list(report) == ["mode", "kappa", "valid", "n_samples", "fooling_rate_transfer",
                            "fooling_rate_source", "fooling_rate_random_baseline"]
    assert report["mode"] == "cross_training_set"
    assert report["n_samples"] > 0
    for rate in (report["fooling_rate_transfer"], report["fooling_rate_source"],
                 report["fooling_rate_random_baseline"]):
        assert 0.0 <= rate <= 1.0
    # the overshoot crosses the source boundary, so the source is always fooled
    assert report["fooling_rate_source"] == 1.0


def test_transfer_counts_only_converged_sources_each_with_one_baseline_direction(monkeypatch):
    full = run_transfer(parse_config(CONFIG.with_name("transfer2d.cfg")), "cross_training_set")
    nets, projected, scored = [], [], []
    train_fresh, fooling_rate = blab.experiments._train_fresh, blab.experiments._fooling_rate

    def training(*args):
        nets.append(train_fresh(*args))
        return nets[-1]

    def dropping_the_first(net, data, rows):
        results = project_to_boundary(net, data, rows)
        results[0] = dataclasses.replace(results[0], converged=False)
        projected.append((data.samples[rows], data.labels[rows], results))
        return results

    def scoring(net, points, labels):
        scored.append(points)
        return fooling_rate(net, points, labels)

    monkeypatch.setattr("blab.experiments._train_fresh", training)
    monkeypatch.setattr("blab.experiments.project_to_boundary", dropping_the_first)
    monkeypatch.setattr("blab.experiments._fooling_rate", scoring)
    cfg = parse_config(CONFIG.with_name("transfer2d.cfg"))
    report = run_transfer(cfg, "cross_training_set")

    (xs, labels, results), = projected
    kept = [i for i, r in enumerate(results) if r.converged]
    assert report["n_samples"] == len(kept) == full["n_samples"] - 1
    # by hand, row by row: the overshoot of each kept source, and one baseline
    # direction per kept row drawn in row order
    rng = make_rng(derive_seed(cfg.master_seed, SEED_BASELINE), stream=0)
    adv, base = [], []
    for i in kept:
        adv.append(xs[i] + (1 + cfg.kappa) * (results[i].point - xs[i]))
        direction = rng.standard_normal(len(xs[i]))
        direction /= np.linalg.norm(direction)
        base.append(xs[i] + np.linalg.norm(adv[-1] - xs[i]) * direction)
    adv, base = np.array(adv), np.array(base)
    np.testing.assert_array_equal(scored[0], adv)
    np.testing.assert_array_equal(scored[1], adv)
    # a row norm may round its last bit unlike the 1-D norm of that row
    np.testing.assert_allclose(scored[2], base, rtol=0, atol=1e-12)
    net_a, net_b = nets

    def fooled(net, points):
        return float((~is_correct(margin_batch(net, points), labels[kept])).mean())

    assert ((report["fooling_rate_transfer"], report["fooling_rate_source"],
             report["fooling_rate_random_baseline"])
            == (fooled(net_b, adv), fooled(net_a, adv), fooled(net_b, base)))


def test_transfer_cross_model_needs_second_architecture():
    cfg = small_config()
    with pytest.raises(ValueError, match="dims_b"):
        run_transfer(cfg, "cross_model")
    with pytest.raises(ValueError, match="mode"):
        run_transfer(cfg, "sideways")


def test_symmetry_counts_each_kind_of_skipped_trial(monkeypatch):
    # trial 0's training diverges, trial 1's hits its epoch cap, trial 2 has an
    # unconverged projection and trial 3 a converged one at distance 0; trials 4
    # and 5 pass, as every trial of seed 0 does unpatched
    train_fresh, project_dataset = blab.experiments._train_fresh, blab.experiments.project_dataset
    trained, projections = [], []

    def training(dims, data, cfg, seed):
        trained.append(seed)
        if len(trained) == 1:
            raise NumericError("training loss diverged")
        if len(trained) == 2:  # one epoch falls short of the criterion: train raises
            cfg = dataclasses.replace(cfg, max_epochs=1)
        return train_fresh(dims, data, cfg, seed)

    def projecting(net, data):
        _, results = project_dataset(net, data)
        projections.append(results)
        if len(projections) == 1:
            results[1] = dataclasses.replace(results[1], converged=False)
        elif len(projections) == 2:
            results[2] = dataclasses.replace(results[2], point=data.samples[2].copy())
        return Dataset(np.array([r.point for r in results]), data.labels.copy()), results

    monkeypatch.setattr("blab.experiments._train_fresh", training)
    monkeypatch.setattr("blab.experiments.project_dataset", projecting)
    report = run_symmetry_experiment("square_xor", trials=6, master_seed=0)
    assert (len(trained), len(projections)) == (6, 4)
    assert report["failed_trials"] == 4
    assert sum(report["cluster_sizes"]) == 2


def test_symmetry_experiment_shape():
    report = run_symmetry_experiment("square_xor", trials=6, master_seed=1)
    assert list(report) == ["layout", "perturb", "trials", "failed_trials", "cluster_count",
                            "cluster_sizes", "dominant_fraction", "within_cluster_transfer",
                            "cross_cluster_transfer"]
    assert report["trials"] == 6
    assert sum(report["cluster_sizes"]) + report["failed_trials"] == 6
    assert report["cluster_count"] == len(report["cluster_sizes"])
    assert 0.0 <= report["dominant_fraction"] <= 1.0
