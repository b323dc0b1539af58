import ast
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from blab.cli import EXIT_CONFIG, EXIT_OK, main
from blab.config import ConfigError, DatasetSpec, ExperimentConfig, parse_config, serialize_config
from blab.nn import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def test_parse_bundled_config():
    cfg = parse_config(CONFIG_DIR / "blobs2d.cfg")
    assert cfg.dataset.source == "blobs"
    assert cfg.dataset.per_class == 15
    assert cfg.dims == [2, 32, 32, 2]
    assert cfg.train.batch_size == 30
    assert cfg.train.optimizer == "adam"
    assert cfg.iterations == 5


def test_benchmark_configs_load(tmp_path):
    # every config template the benchmark writes must parse, or its setup runs fail
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    templates = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and getattr(node.targets[0], "id", "").endswith("_CONFIG")}
    assert sorted(templates) == ["CASCADE784_CONFIG", "ORACLE_CONFIG", "SYMMETRY_CONFIG"]
    cfgs = {}
    for name, template in templates.items():
        p = tmp_path / f"{name}.cfg"
        p.write_text(template.format(images="img.idx", labels="lab.idx", subset=8, seed=5))
        cfgs[name] = parse_config(p)
    cascade = cfgs["CASCADE784_CONFIG"]
    assert cascade.train.optimizer == "adam" and cascade.dims == [784, 500, 256, 128, 32, 2]
    assert cfgs["SYMMETRY_CONFIG"].dataset.source == "symmetric"
    assert cfgs["ORACLE_CONFIG"].dataset.seed == 5


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/path.cfg")


def test_unknown_section_and_key(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("[plumbing]\nvalve = 3\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config(p)
    p.write_text("[train]\nlearning_rt = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(p)


def test_invalid_value_is_config_error(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("[train]\nlearning_rate = -1\n")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_overrides_beat_file_values():
    cfg = parse_config(CONFIG_DIR / "blobs2d.cfg",
                       ["train.learning_rate=0.005", "experiment.iterations=2",
                        "network.dims=2,8,2"])
    assert cfg.train.learning_rate == 0.005
    assert cfg.iterations == 2
    assert cfg.dims == [2, 8, 2]
    with pytest.raises(ConfigError, match="section.key"):
        parse_config(CONFIG_DIR / "blobs2d.cfg", ["iterations=2"])
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(CONFIG_DIR / "blobs2d.cfg", ["train.warmup=5"])


def test_a_key_set_twice_keeps_its_first_place_and_takes_its_last_value():
    blobs = CONFIG_DIR / "blobs2d.cfg"
    # the earlier value is never parsed
    assert parse_config(blobs, ["train.batch_size=abc", "train.batch_size=8"]).train.batch_size == 8
    # learning_rate is applied first, so its bad value is the one reported
    with pytest.raises(ConfigError, match=r"^bad value for train.learning_rate: 'x3'$"):
        parse_config(blobs, ["train.learning_rate=x1", "train.batch_size=x2",
                             "train.learning_rate=x3"])


def test_override_keys_and_values_are_stripped():
    cfg = parse_config(CONFIG_DIR / "blobs2d.cfg", [" train.batch_size = 7 ", "network.dims= 2,4,2"])
    assert cfg.train.batch_size == 7 and cfg.dims == [2, 4, 2]


def test_set_strings_on_the_command_line(capsys):
    blobs = str(CONFIG_DIR / "blobs2d.cfg")
    assert main(["show-config", blobs, "--set", "train.batch_size=abc",
                 "--set", "train.batch_size=8"]) == EXIT_OK
    assert "\nbatch_size = 8\n" in capsys.readouterr().out
    for item, form in (("foo", "section.key=value"), ("foo=1", "section.key")):
        assert main(["show-config", blobs, "--set", item]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: override 'foo' must be {form}\n")


def test_serialize_parse_roundtrip(tmp_path):
    cfg = replace(parse_config(CONFIG_DIR / "blobs2d.cfg"), dims_b=[2, 8, 2])
    text = serialize_config(cfg)
    p = tmp_path / "echo.cfg"
    p.write_text(text)
    assert parse_config(p) == cfg


def _every_field_changed() -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetSpec(source="idx", seed=7, dim=3, per_class=9, center_distance=2.5,
                            sigma=0.25, images_path="img.idx", labels_path="lab.idx",
                            class_a=1, class_b=7, subset=40, csv_path="d.csv",
                            layout_kind="mirrored_pairs"),
        dims=[3, 5, 2],
        train=TrainConfig(learning_rate=0.05, max_epochs=77, batch_size=8,
                          accuracy_target=0.95),
        iterations=3, master_seed=2**64 - 1, kappa=0.3, dims_b=[3, 4, 2])  # the largest seed


def test_every_field_roundtrips(tmp_path, capsys):
    cfg = _every_field_changed()
    default = ExperimentConfig()
    for changed, base in ((cfg, default), (cfg.dataset, default.dataset),
                          (cfg.train, default.train)):
        for f in fields(base):
            if f.name != "optimizer":  # adam, its default, is its only legal value
                assert getattr(changed, f.name) != getattr(base, f.name), f.name
    text = serialize_config(cfg)
    p = tmp_path / "all.cfg"
    p.write_text(text)
    assert parse_config(p) == cfg
    assert main(["show-config", str(p)]) == EXIT_OK
    assert capsys.readouterr().out == text


def test_list_values_and_bad_values(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("[network]\ndims = 2, 6,4 ,2\n\n[experiment]\ndims_b =\n")
    cfg = parse_config(p)
    assert cfg.dims == [2, 6, 4, 2] and cfg.dims_b is None
    assert "dims_b" not in serialize_config(cfg)
    for bad in ("[network]\ndims = 2,x,2\n", "[experiment]\niterations = many\n"):
        p.write_text(bad)
        with pytest.raises(ConfigError):
            parse_config(p)


def test_projector_section_is_refused(tmp_path, capsys):
    # the solver settings are constants in blab.boundary, not config keys
    p = tmp_path / "old.cfg"
    p.write_text("[network]\ndims = 2,8,2\n\n[projector]\nboundary_tolerance = 1e-6\n")
    assert main(["show-config", str(p)]) == EXIT_CONFIG
    assert "unknown config section [projector]" in capsys.readouterr().err


def test_non_finite_float_values_are_config_errors():
    # a NaN passes every `<=` range check, so each float key is checked for it
    default = ExperimentConfig()
    keys = []
    for section, obj in (("dataset", default.dataset), ("train", default.train),
                         ("experiment", default)):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, float):
                keys.append(f"{section}.{f.name}")
    assert len(keys) == 5
    for key in keys:
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key.split('.')[1]} must be finite"):
                parse_config(CONFIG_DIR / "blobs2d.cfg", [f"{key}={bad}"])


def _parts(cfg: ExperimentConfig) -> dict:
    return {"dataset": cfg.dataset, "train": cfg.train, "experiment": cfg}


@pytest.mark.parametrize("part, key", [("dataset", "per_class"), ("train", "batch_size"),
                                       ("experiment", "iterations")])
def test_a_config_cannot_be_changed_in_place(part, key):
    cfg = parse_config(CONFIG_DIR / "blobs2d.cfg")
    with pytest.raises(FrozenInstanceError):
        setattr(_parts(cfg)[part], key, 7)
    assert getattr(_parts(cfg)[part], key) != 7


# one invalid value per line: the --set string and the field it sets
_BAD_VALUES = {
    "dataset": [("dataset.per_class=0", "per_class", 0),
                ("dataset.source=parquet", "source", "parquet")],
    "train": [("train.batch_size=0", "batch_size", 0),
              ("train.max_epochs=71448", "max_epochs", 71448)],
    "experiment": [("experiment.iterations=0", "iterations", 0),
                   ("network.dims=2,8,3", "dims", [2, 8, 3]),
                   ("experiment.kappa=nan", "kappa", float("nan"))],
}


@pytest.mark.parametrize("part", list(_BAD_VALUES))
def test_replace_checks_a_value_as_parsing_does(part):
    blobs = CONFIG_DIR / "blobs2d.cfg"
    cfg = parse_config(blobs)
    for item, key, value in _BAD_VALUES[part]:
        with pytest.raises(ConfigError) as parsed:
            parse_config(blobs, [item])
        with pytest.raises(ConfigError) as replaced:
            replace(_parts(cfg)[part], **{key: value})
        assert str(replaced.value) == str(parsed.value), item


def test_a_config_wrong_in_two_sections_reports_the_first_checked(capsys):
    # [dataset] is checked first, then [train], then [network] and [experiment]
    blobs = CONFIG_DIR / "blobs2d.cfg"
    bad = {"dataset.per_class=0": "dataset per_class must be >= 1",
           "train.batch_size=0": "batch_size must be >= 1",
           "network.dims=2,8,3": "output layer must have exactly 2 logits",
           "experiment.iterations=0": "iterations must be >= 1"}
    items = list(bad)
    for i, first in enumerate(items[:2]):
        for later in items[i + 1:]:
            for sets in ([first, later], [later, first]):
                with pytest.raises(ConfigError, match=f"^{bad[first]}$"):
                    parse_config(blobs, sets)
    assert main(["show-config", str(blobs), "--set", "train.batch_size=0",
                 "--set", "experiment.iterations=0"]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: batch_size must be >= 1\n")


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    p = tmp_path / "latin.cfg"
    p.write_bytes(b"[train]\nlearning_rate = 0.1\xff\n")
    with pytest.raises(ConfigError, match="cannot parse .*latin.cfg"):
        parse_config(p)


_SECTIONS = ["dataset", "network", "train", "experiment", "DEFAULT"]
_KEYS = ([f.name for f in fields(DatasetSpec)] + [f.name for f in fields(TrainConfig)]
         + [f.name for f in fields(ExperimentConfig)])
_TEXT = st.text(st.sampled_from(list("[]=:;#%., \t\n")) | st.characters(codec="utf-8"),
                max_size=12)
_VALUES = st.sampled_from(["", "0", "-1", "2,4,2", "1e400", "nan", "inf", "adam", "csv",
                           "idx", "blobs", "9" * 5000, "1, 2", " 3 "]) | _TEXT
_LINES = st.tuples(st.sampled_from(_KEYS) | _TEXT, st.sampled_from([" = ", ":", "=", " "]),
                   _VALUES).map("".join)
_BLOCKS = st.tuples(st.sampled_from(_SECTIONS) | _TEXT,
                    st.lists(_LINES, max_size=4)).map(
    lambda block: "\n".join([f"[{block[0]}]", *block[1]]))
# SECTION.KEY=VALUE strings, some without the "." or the "="
_SETS = st.tuples(st.sampled_from(_SECTIONS) | _TEXT, st.sampled_from([".", ""]),
                  st.sampled_from(_KEYS) | _TEXT, st.sampled_from(["=", " = ", ""]),
                  _VALUES).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(_BLOCKS, max_size=4).map("\n".join) | _TEXT, st.lists(_SETS, max_size=3))
def test_arbitrary_config_text_parses_or_raises_config_error(tmp_path_factory, text, sets):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = parse_config(path, sets)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
