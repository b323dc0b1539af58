import dataclasses
import importlib.util
import json
import math
import os
import re
import shutil
import signal
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blab.boundary
import blab.cli
import blab.experiments
import blab.nn
from blab.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_FAIL, EXIT_INTERRUPTED, EXIT_NUMERIC, EXIT_OK,
                      main)
from blab.config import DatasetSpec
from blab.data import DataError, NumericError, export_csv
from blab.experiments import build_dataset, checkpoint_resume, records_to_csv, records_to_svg
from blab.nn import margin_batch

ROOT = Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "configs" / "blobs2d.cfg")
TRANSFER_CONFIG = str(Path(CONFIG).with_name("transfer2d.cfg"))
CONFIG_DIR = str(Path(CONFIG).parent)


def _assert_views_are_the_derivation(run):
    # records.csv and chart.svg render exactly the records a resume of the run
    # derives: a copy set to stop at its completed iterations resumes writing nothing
    copy = run.with_name(run.name + "_derived")
    shutil.copytree(run, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["config"]["experiment"]["iterations"] = str(manifest["completed_iterations"])
    (copy / "manifest.json").write_text(json.dumps(manifest))
    files = {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()}
    records = checkpoint_resume(copy)
    assert {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()} == files
    assert (run / "records.csv").read_bytes() == records_to_csv(records).encode()
    assert (run / "chart.svg").read_bytes() == records_to_svg(records).encode()
    shutil.rmtree(copy)


def test_show_config_roundtrip(capsys, tmp_path):
    assert main(["show-config", CONFIG, "--set", "experiment.iterations=2"]) == EXIT_OK
    text = capsys.readouterr().out
    echoed = tmp_path / "echo.cfg"
    echoed.write_text(text)
    assert main(["show-config", str(echoed)]) == EXIT_OK
    assert capsys.readouterr().out == text


def test_python_m_blab_runs_the_command_line(capsys):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "blab", "show-config", CONFIG],
                          env=env, capture_output=True, text=True, timeout=120)
    assert main(["show-config", CONFIG]) == EXIT_OK
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, capsys.readouterr().out, "")


def test_iterproj_command_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["iterproj", CONFIG, "--iterations", "1", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "records.csv").exists()
    assert (out / "chart.svg").exists()
    assert (out / "manifest.json").exists()
    svg = (out / "chart.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    _assert_views_are_the_derivation(out)


def test_gentrack_names_both_files_it_writes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["gentrack", CONFIG, "--iterations", "1", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (f"wrote {out / 'records.csv'} and {out / 'chart.svg'} "
                                       "(2 records, test accuracy tracked)\n")
    assert (out / "chart.svg").read_text().startswith("<svg")
    _assert_views_are_the_derivation(out)


def test_every_run_directory_file_gets_the_mode_open_gives(tmp_path):
    out = tmp_path / "run"
    umask = os.umask(0o022)
    try:
        assert main(["iterproj", CONFIG, "--iterations", "1", "--out", str(out)]) == EXIT_OK
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(umask)
    modes = {str(p.relative_to(out)): stat.S_IMODE(p.stat().st_mode)
             for p in out.rglob("*") if p.is_file()}
    assert sorted(modes) == ["chart.svg", "checkpoints/iter_1.blab", "manifest.json",
                             "projections/iter_1.csv", "records.csv", "working/iter_0.csv",
                             "working/iter_1.csv"]
    assert modes == dict.fromkeys(modes, stat.S_IMODE((tmp_path / "plain").stat().st_mode))


def test_gen_data_csv_and_idx(tmp_path):
    csv_out = tmp_path / "blobs.csv"
    assert main(["gen-data", "--kind", "blobs", "--out", str(csv_out),
                 "--per-class", "5", "--seed", "3"]) == EXIT_OK
    assert csv_out.read_text().startswith("label,f0,f1\n")

    idx_out = tmp_path / "img.idx"
    assert main(["gen-data", "--kind", "blobs", "--dim", "4", "--per-class", "3",
                 "--format", "idx", "--out", str(idx_out), "--seed", "3"]) == EXIT_OK
    assert idx_out.exists() and idx_out.with_suffix(".labels.idx").exists()

    # the generator is the one experiments use
    spec_out = tmp_path / "spec.csv"
    export_csv(build_dataset(DatasetSpec(source="blobs", seed=3, dim=3, per_class=6,
                                         center_distance=2.5, sigma=0.3)), spec_out)
    cli_out = tmp_path / "cli.csv"
    assert main(["gen-data", "--kind", "blobs", "--out", str(cli_out), "--dim", "3",
                 "--per-class", "6", "--distance", "2.5", "--sigma", "0.3",
                 "--seed", "3"]) == EXIT_OK
    assert cli_out.read_bytes() == spec_out.read_bytes()


def test_gen_data_without_blob_flags_writes_the_default_spec(tmp_path):
    spec_out, cli_out = tmp_path / "spec.csv", tmp_path / "cli.csv"
    export_csv(build_dataset(DatasetSpec(source="blobs")), spec_out)
    assert main(["gen-data", "--kind", "blobs", "--out", str(cli_out)]) == EXIT_OK
    assert cli_out.read_bytes() == spec_out.read_bytes()


@pytest.mark.parametrize("flag, value", [("--dim", "2"), ("--per-class", "40"),
                                         ("--distance", "4.0"), ("--sigma", "0.5"),
                                         ("--seed", "9")])
def test_a_blob_flag_with_a_layout_kind_exits_2_writing_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "sq.csv"
    assert main(["gen-data", "--kind", "square_xor", flag, value, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: --kind square_xor takes no blob flag, "
                                       f"got {flag}\n")
    assert list(tmp_path.iterdir()) == []


def test_idx_export_of_a_non_square_dimension_exits_2_before_generating(
        tmp_path, monkeypatch, capsys):
    # a flag combination no image grid can hold, so a command-line mistake
    def no_dataset(*args, **kwargs):
        raise AssertionError("built a dataset that cannot be written")

    monkeypatch.setattr(blab.cli, "build_dataset", no_dataset)
    out = tmp_path / "x.idx"
    for kind, dim in ((["--dim", "3"], 3), (["--kind", "square_xor"], 2)):
        assert main(["gen-data", "--format", "idx", "--out", str(out)] + kind) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: idx export needs a square "
                                           f"feature dimension, got {dim}\n")
        assert list(tmp_path.iterdir()) == []


def test_bad_config_exit_codes(tmp_path):
    assert main(["iterproj", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("[train]\nlearning_rate = banana\n")
    assert main(["iterproj", str(bad)]) == EXIT_CONFIG


def test_iterproj_rejects_csv_labels_outside_0_1(tmp_path, capsys):
    for label in ("2", "-1"):
        data = tmp_path / f"data{label}.csv"
        data.write_text(f"label,f0,f1\n0,-1.0,0.0\n1,1.0,0.0\n{label},1.5,0.5\n")
        cfg = tmp_path / f"csv{label}.cfg"
        cfg.write_text(f"[dataset]\nsource = csv\ncsv_path = {data}\n\n"
                       "[network]\ndims = 2,4,2\n\n[experiment]\niterations = 1\n")
        out = tmp_path / f"run{label}"
        assert main(["iterproj", str(cfg), "--out", str(out)]) == EXIT_DATA
        assert f"line 4: label '{label}'" in capsys.readouterr().err
        manifest = out / "manifest.json"
        assert not manifest.exists() or json.loads(manifest.read_text())["status"] != "running"
    # widths no network has, whatever the data: show-config refuses them too
    for key, dims in (("network.dims", "2"), ("network.dims", "2,0,2"),
                      ("experiment.dims_b", "2,0,2")):
        assert main(["show-config", CONFIG, "--set", f"{key}={dims}"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


def test_iterproj_rejects_csv_with_non_numeric_value_or_no_features(tmp_path, capsys):
    cases = (("label,x0\n0,a\n1,2\n", "data0.csv, line 2: "),
             ("label\n0\n1\n", "data1.csv: header has no feature column"),
             ("label,x0\n0,1\n1, nan\n", "data2.csv, line 3: non-finite value 'nan'"))
    for k, (text, message) in enumerate(cases):
        data = tmp_path / f"data{k}.csv"
        data.write_text(text)
        cfg = tmp_path / f"csv{k}.cfg"
        cfg.write_text(f"[dataset]\nsource = csv\ncsv_path = {data}\n\n"
                       "[network]\ndims = 1,4,2\n\n[experiment]\niterations = 1\n")
        assert main(["iterproj", str(cfg), "--out", str(tmp_path / f"run{k}")]) == EXIT_DATA
        assert message in capsys.readouterr().err


def test_iterproj_rejects_csv_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "latin.csv"
    data.write_bytes(b"label,f0,f1\n0,-1.0,0.0\n1,1.0,0.0\xff\n")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(f"[dataset]\nsource = csv\ncsv_path = {data}\n\n"
                   "[network]\ndims = 2,4,2\n\n[experiment]\niterations = 1\n")
    assert main(["iterproj", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_DATA
    assert "latin.csv: not UTF-8 text" in capsys.readouterr().err


def test_bad_network_dims_fail_before_the_run_directory(tmp_path, capsys):
    # wrong input width for 2-D data, no layers at all, wrong output width
    for k, dims in enumerate(("3,4,2", "", "2,4,3")):
        out = tmp_path / f"run{k}"
        assert main(["iterproj", CONFIG, "--iterations", "1", "--out", str(out),
                     "--set", f"network.dims={dims}"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        manifest = out / "manifest.json"
        assert not manifest.exists() or json.loads(manifest.read_text())["status"] != "running"
    # widths no network has, whatever the data: show-config refuses them too
    for key, dims in (("network.dims", "2"), ("network.dims", "2,0,2"),
                      ("experiment.dims_b", "2,0,2")):
        assert main(["show-config", CONFIG, "--set", f"{key}={dims}"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


def test_non_finite_config_values_fail_before_the_run_directory(tmp_path, capsys):
    transfer_cfg = str(Path(CONFIG).with_name("transfer2d.cfg"))
    for k, (command, config, key) in enumerate((("iterproj", CONFIG, "train.learning_rate"),
                                                ("transfer", transfer_cfg, "experiment.kappa"))):
        out = tmp_path / f"out{k}"
        assert main([command, config, "--set", f"{key}=nan", "--out", str(out)]) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_cli_floats_exit_2_before_running(tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv in (["symmetry", "--trials", "1", "--kappa", "inf"],
                 ["symmetry", "--trials", "1", "--perturb", "nan"],
                 ["gen-data", "--distance", "nan"],
                 ["gen-data", "--sigma", "inf"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(out)])
        assert exit_info.value.code == EXIT_CONFIG
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()


def test_impossible_dataset_values_exit_2_before_writing(tmp_path, capsys):
    # wrong whatever the data files hold, so config errors, not data errors
    for k, (key, value, message) in enumerate((
            ("dim", "0", "dataset dim must be >= 1"),
            ("per_class", "0", "per_class must be >= 1"),
            ("sigma", "0", "sigma must be positive"),
            ("subset", "3", "subset must be even"),
            ("subset", "-2", "subset must be even"),
            ("class_b", "3", "class_a and class_b must differ"))):
        out = tmp_path / f"run{k}"
        assert main(["iterproj", CONFIG, "--set", f"dataset.{key}={value}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()
    data_out = tmp_path / "blobs.csv"
    for flag, value, message in (("--dim", "0", "dataset dim must be >= 1"),
                                 ("--per-class", "0", "per_class must be >= 1"),
                                 ("--per-class", "-1", "per_class must be >= 1"),
                                 ("--sigma", "0", "sigma must be positive")):
        assert main(["gen-data", flag, value, "--out", str(data_out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not data_out.exists()


def test_iterations_flag_is_the_last_override(tmp_path, capsys):
    for command in ("iterproj", "gentrack"):
        out = tmp_path / f"{command}0"
        assert main([command, CONFIG, "--iterations", "0", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: iterations must be >= 1\n"
        assert not out.exists()
    out = tmp_path / "run"
    assert main(["iterproj", CONFIG, "--set", "experiment.iterations=0", "--iterations", "1",
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (f"wrote {out / 'records.csv'} and {out / 'chart.svg'} "
                                       "(2 records)\n")


def test_empty_held_out_split_exits_3_naming_per_class(tmp_path, capsys):
    # 0.25 of 2 samples per class rounds to 0: gentrack's test set, transfer's evaluation set
    transfer_cfg = str(Path(CONFIG).with_name("transfer2d.cfg"))
    for k, (command, config) in enumerate((("gentrack", CONFIG), ("transfer", transfer_cfg))):
        out = tmp_path / f"out{k}"
        assert main([command, config, "--set", "dataset.per_class=2",
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "held-out split is empty" in err and "dataset.per_class" in err
        assert not out.exists()


# input files a row writes into the working directory, which its argv names
CSV_SOURCE = ["--set", "dataset.source=csv", "--set", "dataset.csv_path=data.csv"]
IDX_SOURCE = ["--set", "dataset.source=idx", "--set", "dataset.images_path=m.images.idx",
              "--set", "dataset.labels_path=m.labels.idx", "--set", "dataset.class_a=3"]
ONE_CLASS_CSV = {"data.csv": "label,f0,f1\n" + "".join(f"0,{k}.0,{k % 3}.0\n" for k in range(8))}
ONE_CLASS_MESSAGE = ("data error: data.csv: every row has label 0; "
                     "a dataset holds both classes 0 and 1\n")
# 0.25 of class 1's one sample rounds to 0, so the held-out part lacks class 1
LONE_CLASS_1_CSV = {"data.csv": ONE_CLASS_CSV["data.csv"] + "1,5.0,5.0\n"}
LONE_CLASS_1_MESSAGE = ("data error: held-out split holds one class only (0.25 of each class "
                        "split off, 7/2 samples); raise dataset.per_class\n")
# 40 images of 1x2 pixels: 10 of class 3, 15 each of classes 5 and 7
IDX_357 = {"m.images.idx": struct.pack(">IIII", 2051, 40, 1, 2) + bytes(80),
           "m.labels.idx": struct.pack(">II", 2049, 40) + bytes([3] * 10 + [5] * 15 + [7] * 15)}


@pytest.mark.parametrize("argv, files, message", [
    (["show-config", CONFIG, "--set", "dataset.source=foo"], None,
     "config error: unknown dataset source 'foo'; choose from blobs, idx, csv, symmetric\n"),
    (["iterproj", CONFIG, "--set", "dataset.source=symmetric",
      "--set", "dataset.layout_kind=hexagon"], None,
     "config error: unknown dataset layout_kind 'hexagon'; choose from square_xor, "
     "mirrored_pairs\n"),
    (["transfer", TRANSFER_CONFIG, "--set", "network.dims=3,4,2"], None,
     "config error: network input width 3 != data dimension 2\n"),
    (["transfer", TRANSFER_CONFIG, "--mode", "cross_model", "--set", "experiment.dims_b=3,4,2"],
     None, "config error: network input width 3 != data dimension 2\n"),
    (["iterproj", CONFIG, *CSV_SOURCE], ONE_CLASS_CSV, ONE_CLASS_MESSAGE),
    (["gentrack", CONFIG, *CSV_SOURCE], ONE_CLASS_CSV, ONE_CLASS_MESSAGE),
    (["transfer", TRANSFER_CONFIG, *CSV_SOURCE], ONE_CLASS_CSV, ONE_CLASS_MESSAGE),
    (["gentrack", CONFIG, *CSV_SOURCE], LONE_CLASS_1_CSV, LONE_CLASS_1_MESSAGE),
    (["transfer", TRANSFER_CONFIG, *CSV_SOURCE], LONE_CLASS_1_CSV, LONE_CLASS_1_MESSAGE),
    (["iterproj", CONFIG, *IDX_SOURCE, "--set", "dataset.class_b=9"], IDX_357,
     "data error: class 9 absent from m.labels.idx\n"),
    (["iterproj", CONFIG, *IDX_SOURCE, "--set", "dataset.class_b=5", "--set", "dataset.subset=30"],
     IDX_357, "data error: class_a = 3 has only 10 samples; dataset.subset = 30 needs 15\n"),
    # an empty path would read Path(""), the working directory
    (["iterproj", CONFIG, "--set", "dataset.source=csv"], None,
     "config error: dataset source csv needs dataset.csv_path\n"),
    (["gentrack", CONFIG, "--set", "dataset.source=csv"], None,
     "config error: dataset source csv needs dataset.csv_path\n"),
    (["transfer", TRANSFER_CONFIG, "--set", "dataset.source=csv"], None,
     "config error: dataset source csv needs dataset.csv_path\n"),
    (["iterproj", CONFIG, "--set", "dataset.source=idx", "--set", "dataset.labels_path=l.idx"],
     None, "config error: dataset source idx needs dataset.images_path\n"),
    (["transfer", TRANSFER_CONFIG, "--set", "dataset.source=idx",
      "--set", "dataset.images_path=i.idx"], None,
     "config error: dataset source idx needs dataset.labels_path\n"),
    (["iterproj", CONFIG, "--set", "dataset.source=csv", "--set", f"dataset.csv_path={CONFIG_DIR}"],
     None, f"data error: cannot read {CONFIG_DIR}: Is a directory\n"),
    (["gentrack", CONFIG, "--set", "dataset.source=idx", "--set",
      f"dataset.images_path={CONFIG_DIR}", "--set", "dataset.labels_path=l.idx"], None,
     f"data error: cannot read {CONFIG_DIR}: Is a directory\n"),
    # derive_seed hashes a master seed's low 64 bits: -1 and 2**65 - 1 would replay 2**64 - 1
    (["iterproj", CONFIG, "--set", "experiment.master_seed=-1"], None,
     "config error: experiment.master_seed must be in [0, 2**64), got -1\n"),
    (["transfer", TRANSFER_CONFIG, "--set", f"experiment.master_seed={2**65 - 1}"], None,
     f"config error: experiment.master_seed must be in [0, 2**64), got {2**65 - 1}\n"),
    (["symmetry", "--seed", "-3"], None,
     "config error: symmetry --seed must be in [0, 2**64), got -3\n"),
    (["symmetry", "--seed", str(2**64)], None,
     f"config error: symmetry --seed must be in [0, 2**64), got {2**64}\n"),
], ids=["unknown-source", "unknown-layout", "dims-width", "dims_b-width", "iterproj-one-class",
        "gentrack-one-class", "transfer-one-class", "gentrack-split-lacks-class",
        "transfer-split-lacks-class", "idx-class-absent", "idx-class-below-subset",
        "iterproj-no-csv-path", "gentrack-no-csv-path",
        "transfer-no-csv-path", "iterproj-no-images-path", "transfer-no-labels-path",
        "csv-path-is-a-directory", "images-path-is-a-directory", "iterproj-master-seed-below-0",
        "transfer-master-seed-past-2-64", "symmetry-seed-below-0", "symmetry-seed-past-2-64"])
def test_input_faults_exit_with_their_class_code_before_training(
        tmp_path, monkeypatch, capsys, argv, files, message):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a network for a run that should have been refused")

    monkeypatch.setattr(blab.experiments, "train", no_training)
    monkeypatch.chdir(tmp_path)
    for name, content in (files or {}).items():
        (tmp_path / name).write_bytes(content.encode() if isinstance(content, str) else content)
    out = tmp_path / "out"
    code = EXIT_CONFIG if message.startswith("config error") else EXIT_DATA
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_out_that_cannot_be_a_directory_exits_2_before_training(tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a network for a run that should have been refused")

    monkeypatch.setattr(blab.experiments, "train", no_training)
    afile = tmp_path / "afile"
    afile.write_text("not a run\n")
    for command in ("iterproj", "gentrack"):
        for out, reason in ((afile, "File exists"), (afile / "sub", "Not a directory")):
            assert main([command, CONFIG, "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (f"config error: cannot create run directory "
                                               f"{out}: {reason}\n")
    assert afile.read_text() == "not a run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_a_fresh_cascade_refuses_a_non_empty_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["iterproj", CONFIG, "--iterations", "3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def no_training(*args, **kwargs):
        raise AssertionError("trained a network for a run that should have been refused")

    with monkeypatch.context() as patch:
        patch.setattr(blab.experiments, "train", no_training)
        for command in ("iterproj", "gentrack"):
            assert main([command, CONFIG, "--iterations", "1", "--out", str(out),
                         "--set", "experiment.master_seed=9"]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: run directory {out} is not empty\n"
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # an existing empty directory is a fresh run's to fill
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["iterproj", CONFIG, "--iterations", "1", "--out", str(empty)]) == EXIT_OK
    assert (empty / "records.csv").exists()


@pytest.mark.parametrize("argv, out, reason", [
    (["symmetry", "--trials", "1", "--out"], "adir", "Is a directory"),
    (["gen-data", "--out"], "adir", "Is a directory"),
    (["gen-data", "--format", "idx", "--dim", "4", "--out"], "adir", "Is a directory"),
    (["transfer", TRANSFER_CONFIG, "--out"], "nodir/t.json", "No such file or directory"),
    (["gen-data", "--out"], "nodir/x.csv", "No such file or directory"),
    (["gen-data", "--out"], "afile/x.csv", "Not a directory"),
], ids=["symmetry-into-directory", "csv-into-directory", "idx-into-directory",
        "transfer-missing-parent", "csv-missing-parent", "csv-parent-is-a-file"])
def test_output_path_that_cannot_be_written_exits_2_naming_it(
        tmp_path, monkeypatch, capsys, argv, out, reason):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(blab.cli, "run_transfer", lambda cfg, mode: TRANSFER_REPORT)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("a file\n")
    assert main(argv + [out]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write {out}: {reason}\n"
    # no temporary file is left behind, and the file is left as it was
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile"]
    assert (tmp_path / "afile").read_text() == "a file\n"


@pytest.mark.parametrize("argv", [["transfer", TRANSFER_CONFIG], ["symmetry", "--trials", "1"]],
                         ids=["transfer", "symmetry"])
def test_report_path_is_checked_before_the_experiment(tmp_path, monkeypatch, capsys, argv):
    def no_experiment(*args, **kwargs):
        raise AssertionError("ran an experiment whose report cannot be written")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(blab.cli, "run_transfer", no_experiment)
    monkeypatch.setattr(blab.cli, "run_symmetry_experiment", no_experiment)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("a file\n")
    for out, reason in (("adir", "Is a directory"), ("nodir/r.json", "No such file or directory"),
                        ("afile/r.json", "Not a directory")):
        assert main(argv + ["--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot write {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile"]
    assert (tmp_path / "afile").read_text() == "a file\n"


def test_config_path_that_is_a_directory_exits_2_before_the_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["iterproj", CONFIG_DIR, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: cannot parse config: cannot read "
                                       f"{CONFIG_DIR}: Is a directory\n")
    assert not out.exists()


# the keys, in their order, of the reports that transfer and symmetry write
TRANSFER_REPORT = {"mode": "cross_model", "kappa": 0.1, "valid": True, "n_samples": 40,
                   "fooling_rate_transfer": 0.825, "fooling_rate_source": 1.0,
                   "fooling_rate_random_baseline": 0.15}
SYMMETRY_REPORT = {"layout": "square_xor", "perturb": 0.0, "trials": 20, "failed_trials": 1,
                   "cluster_count": 2, "cluster_sizes": [12, 7], "dominant_fraction": 12 / 19,
                   "within_cluster_transfer": 0.5625, "cross_cluster_transfer": None}


def test_transfer_report_bytes_are_frozen(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(blab.cli, "run_transfer", lambda cfg, mode: TRANSFER_REPORT)
    out = tmp_path / "report.json"
    assert main(["transfer", TRANSFER_CONFIG, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (
        b'{\n  "mode": "cross_model",\n  "kappa": 0.1,\n  "valid": true,\n'
        b'  "n_samples": 40,\n  "fooling_rate_transfer": 0.825,\n'
        b'  "fooling_rate_source": 1.0,\n  "fooling_rate_random_baseline": 0.15\n}\n')
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_symmetry_report_bytes_are_frozen(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(blab.cli, "run_symmetry_experiment", lambda *a, **kw: SYMMETRY_REPORT)
    out = tmp_path / "report.json"
    assert main(["symmetry", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (
        b'{\n  "layout": "square_xor",\n  "perturb": 0.0,\n  "trials": 20,\n'
        b'  "failed_trials": 1,\n  "cluster_count": 2,\n  "cluster_sizes": [\n    12,\n'
        b'    7\n  ],\n  "dominant_fraction": 0.631578947368421,\n'
        b'  "within_cluster_transfer": 0.5625,\n  "cross_cluster_transfer": null\n}\n')
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_symmetry_refuses_fewer_than_one_trial(tmp_path, capsys):
    out = tmp_path / "report.json"
    for trials in ("0", "-2"):
        assert main(["symmetry", "--trials", trials, "--out", str(out)]) == EXIT_CONFIG
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_symmetry_flags_left_out_keep_the_experiment_defaults(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(blab.cli, "run_symmetry_experiment",
                        lambda *args, **kwargs: calls.append((args, kwargs)) or {})
    out = str(tmp_path / "report.json")
    assert main(["symmetry", "--out", out]) == EXIT_OK
    assert main(["symmetry", "--trials", "3", "--seed", "4", "--kappa", "0.2",
                 "--out", out]) == EXIT_OK
    assert calls == [(("square_xor", 20), {}),
                     (("square_xor", 3), {"master_seed": 4, "kappa": 0.2})]


def test_removed_optimizer_settings_exit_2_before_the_run_directory(tmp_path, capsys):
    sgd = tmp_path / "sgd.cfg"
    sgd.write_text(Path(CONFIG).read_text().replace("optimizer = adam",
                                                    "optimizer = sgd_momentum"))
    for k, (config, extra, message) in enumerate((
            (CONFIG, ["--set", "train.momentum=0.5"], "unknown config key train.momentum"),
            (CONFIG, ["--set", "train.adam_betas=0.8,0.99"], "unknown config key train.adam_betas"),
            (CONFIG, ["--set", "train.adam_epsilon=1e-7"], "unknown config key train.adam_epsilon"),
            (CONFIG, ["--set", "train.seed=12345"], "unknown config key train.seed"),
            (CONFIG, ["--set", "experiment.unconverged_abort_fraction=-1"],
             "unknown config key experiment.unconverged_abort_fraction"),
            (CONFIG, ["--set", "experiment.eval_fraction=0.5"],
             "unknown config key experiment.eval_fraction"),
            (CONFIG, ["--set", "experiment.test_fraction=1.5"],
             "unknown config key experiment.test_fraction"),
            (CONFIG, ["--set", "train.batch_size=0"], "batch_size must be >= 1"),
            (CONFIG, ["--set", "train.max_epochs=0"], "max_epochs must be >= 1"),
            (CONFIG, ["--set", "train.accuracy_target=0"], "accuracy_target must be in (0, 1]"),
            (CONFIG, ["--set", "train.accuracy_target=1.5"],
             "accuracy_target must be in (0, 1]"),
            (str(sgd), [], "adam is the only optimizer"))):
        out = tmp_path / f"run{k}"
        assert main(["iterproj", config, "--iterations", "1", "--out", str(out)] + extra) \
            == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_max_epochs_past_the_init_stream_exits_2_before_the_run_directory(tmp_path, capsys):
    # epoch e shuffles with Philox stream e, and stream 71447 draws the initial weights
    ok, refused = tmp_path / "ok", tmp_path / "refused"
    assert main(["iterproj", CONFIG, "--iterations", "1", "--out", str(ok),
                 "--set", "train.max_epochs=71447"]) == EXIT_OK
    assert (ok / "records.csv").is_file()
    assert main(["iterproj", CONFIG, "--iterations", "1", "--out", str(refused),
                 "--set", "train.max_epochs=71448"]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: max_epochs must be <= 71447: epoch 71447's "
                                       "shuffle would replay init_network's weight stream\n")
    assert not refused.exists()


def test_a_dataset_seed_outside_0_to_2_63_exits_2_writing_nothing(tmp_path, capsys):
    # make_rng keys Philox exactly only below 2**63: seeds -1, -2 and -5 drew the same blobs
    ok = tmp_path / "ok"
    assert main(["iterproj", CONFIG, "--iterations", "1", "--out", str(ok),
                 "--set", f"dataset.seed={2**63 - 1}"]) == EXIT_OK
    assert (ok / "records.csv").is_file()
    for seed in (-1, 2**63):
        run, data = tmp_path / f"run{seed}", tmp_path / f"data{seed}.csv"
        assert main(["iterproj", CONFIG, "--iterations", "1", "--out", str(run),
                     "--set", f"dataset.seed={seed}"]) == EXIT_CONFIG
        assert main(["gen-data", "--seed", str(seed), "--out", str(data)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: dataset seed must be in [0, 2**63), got {seed}\n" * 2
        assert not run.exists() and not data.exists()


def test_kappa_at_or_below_zero_exits_2_before_training(tmp_path, monkeypatch, capsys):
    # an overshoot of x + (1 + kappa) * v crosses the boundary only for kappa > 0
    def no_training(*args, **kwargs):
        raise AssertionError("trained a network for a run that should have been refused")

    monkeypatch.setattr(blab.experiments, "train", no_training)
    transfer_cfg = str(Path(CONFIG).with_name("transfer2d.cfg"))
    out = tmp_path / "report.json"
    for argv in (["transfer", transfer_cfg, "--set", "experiment.kappa=-3"],
                 ["transfer", transfer_cfg, "--set", "experiment.kappa=0"],
                 ["symmetry", "--trials", "1", "--kappa", "0"],
                 ["symmetry", "--trials", "1", "--kappa", "-0.5"]):
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert "kappa must be positive" in capsys.readouterr().err
        assert not out.exists()
    # transfer reads kappa from its config only
    with pytest.raises(SystemExit) as exit_info:
        main(["transfer", transfer_cfg, "--kappa", "0.2", "--out", str(out)])
    assert exit_info.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --kappa 0.2" in capsys.readouterr().err


def test_symmetry_unknown_layout_exits_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["symmetry", "--layout", "bogus", "--trials", "1", "--out", str(out)])
    assert exit_info.value.code == EXIT_CONFIG
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def _assert_ended_in_iteration_2(out, status):
    # iteration 1's record and checkpoint stay
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["completed_iterations"]) == (status, 1)
    rows = (out / "records.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["iteration", "0", "1"]
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["iter_1.blab"]
    _assert_views_are_the_derivation(out)


def _assert_iteration_2_aborts(tmp_path, monkeypatch, capsys, fault, status, reason,
                               code=EXIT_NUMERIC):
    # the fault strikes iteration 2's training; a NumericError names the iteration
    real_train = blab.experiments.train
    calls = []

    def train_with_fault(net, data, cfg, seed):
        calls.append(seed)
        return (fault if len(calls) == 2 else real_train)(net, data, cfg, seed)

    monkeypatch.setattr(blab.experiments, "train", train_with_fault)
    out = tmp_path / "run"
    assert main(["iterproj", CONFIG, "--iterations", "3", "--out", str(out)]) == code
    prefix = "numeric failure: iteration 2: " if code == EXIT_NUMERIC else "data error: "
    assert capsys.readouterr().err == f"{prefix}{reason}\n"
    _assert_ended_in_iteration_2(out, status)


def test_training_divergence_aborts_the_run(tmp_path, monkeypatch, capsys):
    def diverging(net, data, cfg, seed):
        raise NumericError("training loss diverged: non-finite loss at epoch 0")

    _assert_iteration_2_aborts(tmp_path, monkeypatch, capsys, diverging, "aborted_training",
                               "training loss diverged: non-finite loss at epoch 0")


def test_non_finite_parameters_after_an_epoch_abort_the_run(tmp_path, monkeypatch, capsys):
    # every batch loss is finite, so only the end-of-epoch parameter check can see the
    # infinite gradient's Adam step (inf / inf) leave the weights NaN
    real_gradients = blab.nn._nll_gradients

    def infinite_gradients(net, x, onehot):
        _, grads = real_gradients(net, x, onehot)
        return 1.0, [np.full_like(g, np.inf) for g in grads]

    monkeypatch.setattr(blab.nn, "_nll_gradients", infinite_gradients)
    out = tmp_path / "run"
    assert main(["iterproj", CONFIG, "--iterations", "2", "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err == ("numeric failure: iteration 1: training loss diverged: "
                                       "network parameters are non-finite\n")
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["completed_iterations"]) == ("aborted_training", 0)


def test_a_data_error_in_training_aborts_the_run(tmp_path, monkeypatch, capsys):
    def refusing(net, data, cfg, seed):
        raise DataError("samples contain non-finite values")

    _assert_iteration_2_aborts(tmp_path, monkeypatch, capsys, refusing, "aborted_training",
                               "samples contain non-finite values", code=EXIT_DATA)


def test_a_fault_in_blab_aborts_the_run_and_propagates(tmp_path, monkeypatch):
    real_save = blab.experiments.RunDirectory.save_iteration

    def save_failing_at_2(self, k, *args):
        if k == 2:
            raise RuntimeError("not a blab error")
        real_save(self, k, *args)

    monkeypatch.setattr(blab.experiments.RunDirectory, "save_iteration", save_failing_at_2)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="not a blab error"):
        main(["iterproj", CONFIG, "--iterations", "3", "--out", str(out)])
    _assert_ended_in_iteration_2(out, "aborted_write")


OVERFLOW = "a feature's mean or standard deviation overflows"


@pytest.mark.parametrize("argv, code, err", [
    (["iterproj", CONFIG, "--set", "train.learning_rate=1e300"], EXIT_NUMERIC,
     "numeric failure: iteration 1: training loss diverged: non-finite loss at epoch 1"),
    (["iterproj", CONFIG, "--set", "dataset.center_distance=1e308"], EXIT_NUMERIC,
     f"numeric failure: iteration 1: {OVERFLOW}"),
    (["iterproj", CONFIG, "--set", "dataset.sigma=1e300"], EXIT_NUMERIC,
     f"numeric failure: iteration 1: {OVERFLOW}"),
    (["gen-data", "--sigma", "1e308"], EXIT_DATA, "data error: samples contain non-finite values"),
    # an overshoot margin that overflows is not a misclassification, so no fooling rate counts it
    (["transfer", TRANSFER_CONFIG, "--set", "experiment.kappa=1e308"], EXIT_NUMERIC,
     "numeric failure: 38 of 40 perturbed points have a non-finite margin"),
    (["symmetry", "--kappa", "1e308", "--trials", "3"], EXIT_NUMERIC,
     "numeric failure: 2 of 4 perturbed points have a non-finite margin"),
], ids=["learning_rate", "center_distance", "sigma", "gen_data_sigma", "transfer_kappa",
        "symmetry_kappa"])
def test_a_diverging_run_prints_one_line(tmp_path, argv, code, err):
    # numpy's overflow warnings would come first, each with a source line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "blab.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (code, err + "\n")
    if argv[0] == "iterproj":
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["completed_iterations"]) == ("aborted_training", 0)
        rows = (out / "records.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["iteration", "0"]
    else:
        assert not out.exists()


def test_a_non_finite_record_gets_a_finite_chart(tmp_path):
    # record 0's mean_nn_distance overflows, then standardizing the features does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-m", "blab.cli", "iterproj", CONFIG, "--iterations",
                           "1", "--out", str(out), "--set", "dataset.center_distance=3e154",
                           "--set", "dataset.sigma=4e153"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_NUMERIC,
                                              f"numeric failure: iteration 1: {OVERFLOW}\n")
    assert (out / "records.csv").read_text().splitlines()[1] == "0,inf,0.0,,,0,"
    text = (out / "chart.svg").read_text()
    assert text.startswith("<svg") and "nan" not in text and "inf" not in text


def test_epoch_cap_aborts_the_run(tmp_path, monkeypatch, capsys):
    real_train = blab.experiments.train

    def capped_at_one_epoch(net, data, cfg, seed):
        return real_train(net, data, dataclasses.replace(cfg, max_epochs=1), seed)

    _assert_iteration_2_aborts(tmp_path, monkeypatch, capsys, capped_at_one_epoch,
                               "aborted_training", "training hit the epoch cap (accuracy 0.733)")


def test_epoch_cap_ends_transfer_without_a_report(tmp_path, capsys):
    # one epoch leaves the source net at 0.933 train accuracy: no report on an undertrained net
    out = tmp_path / "report.json"
    assert main(["transfer", TRANSFER_CONFIG, "--set", "train.max_epochs=1",
                 "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", "numeric failure: training hit the epoch cap "
                                       "(accuracy 0.933)\n")
    assert not out.exists()


def test_misclassified_sample_aborts_the_projection(tmp_path, monkeypatch, capsys):
    real_train = blab.experiments.train

    def leaving_one_wrong(net, data, cfg, seed):
        report = real_train(net, data, cfg, seed)
        # lower the margin past the least confident class-1 sample only
        m = np.sort(margin_batch(net, data.samples[data.labels == 1]))
        net.biases[-1][1] -= 0.5 * (m[0] + m[1])
        return report

    _assert_iteration_2_aborts(
        tmp_path, monkeypatch, capsys, leaving_one_wrong, "aborted_projection",
        "sample 25 is misclassified; projection requires a trained separator")


def test_unconverged_projections_abort_the_run(tmp_path, monkeypatch, capsys):
    real_train = blab.experiments.train

    def leaving_no_projection_converged(net, data, cfg, seed):
        # no margin is within a negative tolerance of the boundary
        monkeypatch.setattr(blab.boundary, "BOUNDARY_TOLERANCE", -1.0)
        return real_train(net, data, cfg, seed)

    _assert_iteration_2_aborts(tmp_path, monkeypatch, capsys, leaving_no_projection_converged,
                               "aborted_projection", "30/30 projections did not converge")


def test_interrupt_ends_the_run_cleanly_and_resumes_byte_identical(tmp_path, monkeypatch, capsys):
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert main(["iterproj", CONFIG, "--iterations", "3", "--out", str(full)]) == EXIT_OK
    real_train = blab.experiments.train
    seeds = []

    def train_interrupted_at_iteration_2(net, data, cfg, seed):
        seeds.append(seed)
        if len(seeds) == 2:
            raise KeyboardInterrupt
        return real_train(net, data, cfg, seed)

    monkeypatch.setattr(blab.experiments, "train", train_interrupted_at_iteration_2)
    capsys.readouterr()
    assert main(["iterproj", CONFIG, "--iterations", "3", "--out", str(cut)]) == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "interrupted\n"
    manifest = json.loads((cut / "manifest.json").read_text())
    assert manifest["status"] == "interrupted" and manifest["completed_iterations"] == 1
    _assert_views_are_the_derivation(cut)
    monkeypatch.undo()
    checkpoint_resume(cut)
    assert json.loads((cut / "manifest.json").read_text())["status"] == "finished"
    _assert_views_are_the_derivation(cut)
    assert (cut / "chart.svg").read_bytes() == (full / "chart.svg").read_bytes()
    assert (cut / "records.csv").read_bytes() == (full / "records.csv").read_bytes()
    for sub in ("projections", "working", "checkpoints"):
        names = sorted(p.name for p in (full / sub).iterdir())
        assert sorted(p.name for p in (cut / sub).iterdir()) == names
        for name in names:
            assert (cut / sub / name).read_bytes() == (full / sub / name).read_bytes()


def test_sigterm_ends_the_run_like_an_interrupt(tmp_path, monkeypatch, capsys):
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert main(["iterproj", CONFIG, "--iterations", "3", "--out", str(full)]) == EXIT_OK
    real_train = blab.experiments.train
    seeds = []

    def train_terminated_at_iteration_2(net, data, cfg, seed):
        seeds.append(seed)
        if len(seeds) == 2:
            os.kill(os.getpid(), signal.SIGTERM)
        return real_train(net, data, cfg, seed)

    def unhandled(signum, frame):
        unhandled.calls += 1

    unhandled.calls = 0
    monkeypatch.setattr(blab.experiments, "train", train_terminated_at_iteration_2)
    # a SIGTERM that main does not handle lands here, not in pytest's default
    outer = signal.signal(signal.SIGTERM, unhandled)
    try:
        capsys.readouterr()
        code = main(["iterproj", CONFIG, "--iterations", "3", "--out", str(cut)])
        assert signal.getsignal(signal.SIGTERM) is unhandled
    finally:
        signal.signal(signal.SIGTERM, outer)
    assert (code, unhandled.calls) == (EXIT_INTERRUPTED, 0)
    assert capsys.readouterr().err == "interrupted\n"
    manifest = json.loads((cut / "manifest.json").read_text())
    assert manifest["status"] == "interrupted" and manifest["completed_iterations"] == 1
    _assert_views_are_the_derivation(cut)
    monkeypatch.undo()
    checkpoint_resume(cut)
    assert (cut / "records.csv").read_bytes() == (full / "records.csv").read_bytes()
    for sub in ("projections", "working", "checkpoints"):
        for path in (full / sub).iterdir():
            assert (cut / sub / path.name).read_bytes() == path.read_bytes()


def test_a_write_that_fails_mid_cascade_ends_the_run_aborted(tmp_path, monkeypatch, capsys):
    run = tmp_path / "run"
    blocked = run / "checkpoints" / "iter_2.blab"
    real_train = blab.experiments.train

    def train_then_block(*args, **kwargs):
        # a fresh run refuses a non-empty run directory, so block iteration
        # 2's checkpoint only once iteration 1 is saved
        if (run / "checkpoints" / "iter_1.blab").exists():
            blocked.mkdir(exist_ok=True)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(blab.experiments, "train", train_then_block)
    assert main(["iterproj", CONFIG, "--iterations", "3", "--out", str(run)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write {blocked}: Is a directory\n"
    manifest = json.loads((run / "manifest.json").read_text())
    assert (manifest["status"], manifest["completed_iterations"]) == ("aborted_write", 1)
    # records.csv ends with the last completed iteration, whose phi waits for iteration 2
    rows = (run / "records.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1"]
    assert rows[-1].endswith(",1.0,,0,")
    _assert_views_are_the_derivation(run)
    blocked.rmdir()
    monkeypatch.undo()
    assert len(checkpoint_resume(run)) == 4
    assert json.loads((run / "manifest.json").read_text())["status"] == "finished"
    _assert_views_are_the_derivation(run)


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "nonsense"])
    assert exit_info.value.code == EXIT_CONFIG
    assert re.search(r"invalid choice: 'nonsense' \(choose from '?claims'?, '?gradients'?, "
                     r"'?oracle'?\)", capsys.readouterr().err)


def test_verify_claims_passes_end_to_end(capsys):
    assert main(["verify", "claims"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("[PASS] ") for line in lines)


def test_a_failing_verify_suite_exits_1_and_writes_the_failing_case(tmp_path, monkeypatch, capsys):
    failing = {"instance": 7, "prod_h": 0.5, "prod_f": 1.0}
    monkeypatch.setitem(blab.cli.SUITES, "claims", lambda: (
        [("holds", True, ""), ("breaks", False, "prod_h=0.5")], failing))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "claims"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "[PASS] holds\n[FAIL] breaks  (prod_h=0.5)\n"
    assert json.loads((tmp_path / "verify_claims_failure.json").read_text()) == failing
    assert err == "failing case serialized to verify_claims_failure.json\n"


def test_transfer2d_runs_the_cross_model_mode(tmp_path):
    out = tmp_path / "report.json"
    assert main(["transfer", TRANSFER_CONFIG, "--mode", "cross_model", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["mode"] == "cross_model" and report["n_samples"] > 0
    rates = [v for k, v in report.items() if k.startswith("fooling_rate_")]
    assert len(rates) == 3 and all(0 <= r <= 1 for r in rates)


def test_784d_cascade_on_generated_idx_data(tmp_path, monkeypatch):
    # the idx dataset source and the benchmark's 784-d network, on blobs that
    # gen-data writes; one iteration takes about 1.5 s, against a 3-s budget
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # where its dataclasses find their module
    spec.loader.exec_module(bench)
    images = tmp_path / "blobs784.idx"
    assert main(["gen-data", "--dim", "784", "--per-class", "20", "--format", "idx",
                 "--seed", "7", "--out", str(images)]) == EXIT_OK
    cfg = tmp_path / "cascade784.cfg"
    cfg.write_text(bench.CASCADE784_CONFIG.format(
        images=images, labels=images.with_suffix(".labels.idx"), subset=8))
    out = tmp_path / "run"
    assert main(["iterproj", str(cfg), "--iterations", "1", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["status"] == "finished"
    record = (out / "records.csv").read_text().splitlines()[2].split(",")
    assert all(math.isfinite(float(v)) for v in record[1:3])
    assert (record[3], record[5]) == ("1.0", "0")


def test_verify_lets_an_internal_error_propagate(monkeypatch):
    # a fault in blab itself is not reported as a config error
    def broken_suite():
        raise ValueError("no decision boundary inside bounds")

    monkeypatch.setitem(blab.cli.SUITES, "oracle", broken_suite)
    with pytest.raises(ValueError, match="no decision boundary"):
        main(["verify", "oracle"])
