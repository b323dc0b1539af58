import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blab.data import (DataError, Dataset, export_csv, gen_gaussian_blobs,
                       gen_symmetric_layout, import_csv, load_idx, sample_balanced, save_idx)
from blab.nn import init_network, save_checkpoint
from blab.rng import make_rng


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]))
    with pytest.raises(DataError, match="classes 0 and 1"):
        Dataset(np.zeros((3, 2)), np.zeros(3))
    d = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]))
    assert len(d) == 3 and d.dim == 2


@given(st.lists(st.integers(-2, 3), min_size=1, max_size=20))
def test_a_dataset_holds_exactly_the_classes_0_and_1(labels):
    samples = np.zeros((len(labels), 2))
    if sorted(set(labels)) == [0, 1]:
        np.testing.assert_array_equal(Dataset(samples, np.array(labels)).labels, labels)
    else:
        with pytest.raises(DataError):
            Dataset(samples, np.array(labels))


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(10, 16)).astype(np.float64) / 255.0
    data = Dataset(pixels, np.arange(10) % 2)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx(data, img, lab, 4)
    back = load_idx(img, lab, 0, 1)
    np.testing.assert_allclose(back.samples, data.samples, atol=1e-12)
    np.testing.assert_array_equal(back.labels, data.labels)
    with pytest.raises(DataError, match="side\\*side"):  # 5 x 5 pixels for 16 features
        save_idx(data, img, lab, 5)
    # three categories: load_idx keeps two, class_a -> 0 and class_b -> 1, in file order
    digits = [3, 5, 7, 3, 5, 7, 7, 5, 3, 3]
    lab.write_bytes(struct.pack(">II", 2049, 10) + bytes(digits))
    pair = load_idx(img, lab, 5, 3)
    keep = [k for k, d in enumerate(digits) if d in (3, 5)]
    np.testing.assert_array_equal(pair.samples, back.samples[keep])
    np.testing.assert_array_equal(pair.labels, [1, 0, 1, 0, 0, 1, 1])


@pytest.mark.parametrize("write", [
    lambda path: export_csv(gen_symmetric_layout("square_xor"), path),
    lambda path: save_checkpoint(init_network([2, 4, 2], seed=0), path),
], ids=["export_csv", "save_checkpoint"])
def test_interrupted_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch, write):
    target = tmp_path / "out"
    target.write_bytes(b"old bytes\n")
    staged = []

    def interrupted_rename(src, dst):
        staged.append(Path(src).read_bytes())
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted_rename)
    with pytest.raises(KeyboardInterrupt):
        write(target)
    monkeypatch.undo()
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    # the interrupt came after the whole file was staged; uninterrupted, it replaces
    write(target)
    assert staged == [target.read_bytes()]


def test_idx_bad_magic(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", 1234, 1, 1, 1) + b"\x00")
    lab.write_bytes(struct.pack(">II", 2049, 1) + b"\x00")
    with pytest.raises(DataError, match="magic"):
        load_idx(img, lab, 0, 1)


def test_idx_truncated_payload(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + b"\x00" * 3)
    lab.write_bytes(struct.pack(">II", 2049, 2) + b"\x00\x01")
    with pytest.raises(DataError, match="truncated"):
        load_idx(img, lab, 0, 1)
    # whole images, but one label of the two the header counts
    img.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + b"\x00" * 8)
    lab.write_bytes(struct.pack(">II", 2049, 2) + b"\x00")
    with pytest.raises(DataError, match=f"truncated IDX label payload in {re.escape(str(lab))}"):
        load_idx(img, lab, 0, 1)


_IDX_WORDS = st.sampled_from([0, 1, 2, 3, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_arbitrary_idx_files_load_a_dataset_or_raise_data_error(tmp_path_factory, data):
    def idx(magic, words):
        # header words small, huge or random; a payload within one byte of
        # the declared length when that is short; then perhaps a cut
        head = [data.draw(st.just(magic) | _IDX_WORDS, label="magic"), *words]
        n = int(np.prod(words, dtype=object)) + data.draw(st.integers(-1, 1), label="slack")
        body = st.binary(min_size=n, max_size=n) if 0 <= n <= 64 else st.binary(max_size=64)
        raw = struct.pack(f">{len(head)}I", *head) + data.draw(body, label="payload")
        return raw[:data.draw(st.none() | st.integers(0, len(raw)), label="cut")]

    base = tmp_path_factory.getbasetemp()
    img, lab = base / "fuzz_img.idx", base / "fuzz_lab.idx"
    count, rows, cols = (data.draw(_IDX_WORDS, label=name) for name in ("count", "rows", "cols"))
    img.write_bytes(idx(2051, [count, rows, cols]))
    lab.write_bytes(idx(2049, [data.draw(st.just(count) | _IDX_WORDS, label="labels")]))
    # two label values the file holds, where it holds two, so a load can succeed
    pair = sorted(set(lab.read_bytes()[8:]))[:2]
    try:
        loaded = load_idx(img, lab, *(pair if len(pair) == 2 else (0, 1)))
    except DataError:
        return
    assert isinstance(loaded, Dataset) and loaded.dim >= 1


def test_idx_without_pixels_is_a_data_error(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 2049, 2) + b"\x00\x01")
    for count, rows, cols in ((2, 0, 5), (0, 2**32 - 1, 2**32 - 1)):
        img.write_bytes(struct.pack(">IIII", 2051, count, rows, cols))
        with pytest.raises(DataError, match="no pixels"):
            load_idx(img, lab, 0, 1)


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", 2051, 2, 1, 1) + b"\x00\x01")
    lab.write_bytes(struct.pack(">II", 2049, 3) + b"\x00\x01\x02")
    with pytest.raises(DataError, match="mismatch"):
        load_idx(img, lab, 0, 1)


def test_load_idx_relabels_two_classes_and_names_an_absent_one(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", 2051, 5, 1, 2) + bytes(range(10)))
    lab.write_bytes(struct.pack(">II", 2049, 5) + bytes([3, 5, 7, 3, 5]))
    out = load_idx(img, lab, 3, 5)
    np.testing.assert_array_equal(out.labels, [0, 1, 0, 1])
    np.testing.assert_array_equal(out.samples * 255, [[0, 1], [2, 3], [6, 7], [8, 9]])
    with pytest.raises(DataError):  # every kept sample would be class 1
        load_idx(img, lab, 3, 3)
    with pytest.raises(DataError, match=f"^class 9 absent from {re.escape(str(lab))}$"):
        load_idx(img, lab, 3, 9)


def test_sample_balanced():
    data = Dataset(np.arange(40, dtype=float).reshape(20, 2),
                   np.array([0] * 12 + [1] * 8))
    names = ("class_a = 3", "class_b = 5")
    sub = sample_balanced(data, 10, 1, names)
    assert (sub.labels == 0).sum() == 5 and (sub.labels == 1).sum() == 5
    again = sample_balanced(data, 10, 1, names)
    np.testing.assert_array_equal(sub.samples, again.samples)
    with pytest.raises(DataError, match="^class_a = 3 has only 12 samples; "
                                        "dataset.subset = 30 needs 15$"):
        sample_balanced(data, 30, 1, names)
    with pytest.raises(DataError, match="^class_b = 5 has only 8 samples; "
                                        "dataset.subset = 20 needs 10$"):
        sample_balanced(data, 20, 1, names)


def test_gen_gaussian_blobs():
    data = gen_gaussian_blobs(10, 3, 5.0, 0.1, seed=2)
    assert data.samples.shape == (20, 3)
    assert (data.labels[:10] == 0).all() and (data.labels[10:] == 1).all()
    for rows, center in ((slice(0, 10), [-2.5, 0, 0]), (slice(10, 20), [2.5, 0, 0])):
        assert np.linalg.norm(data.samples[rows].mean(axis=0) - center) < 0.5


@pytest.mark.parametrize("dim", [1, 2, 784])
def test_gen_gaussian_blobs_is_the_explicit_center_draw_bit_for_bit(dim):
    # the centres -d/2 and +d/2 on the first axis, class 0 drawn first from one stream
    rng = make_rng(11, stream=0xB10B)
    expected = []
    for x in (-1.5, 1.5):
        center = np.zeros(dim)
        center[0] = x
        expected.append(center + 0.7 * rng.standard_normal((6, dim)))
    data = gen_gaussian_blobs(6, dim, 3.0, 0.7, seed=11)
    assert data.samples.tobytes() == np.vstack(expected).tobytes()
    np.testing.assert_array_equal(data.labels, [0] * 6 + [1] * 6)


def test_symmetric_layouts():
    sq = gen_symmetric_layout("square_xor")
    np.testing.assert_array_equal(sq.labels, [0, 0, 1, 1])
    assert sq.samples.shape == (4, 2)
    mp = gen_symmetric_layout("mirrored_pairs")
    np.testing.assert_array_equal(mp.labels, [0, 0, 1, 1])
    with pytest.raises(DataError):
        gen_symmetric_layout("hexagon")


def test_layout_perturbation_moves_one_point():
    base = gen_symmetric_layout("square_xor").samples
    pert = gen_symmetric_layout("square_xor", perturb=0.3).samples
    moved = np.linalg.norm(pert - base, axis=1)
    assert moved[0] == pytest.approx(0.3)
    np.testing.assert_array_equal(pert[1:], base[1:])


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((7, 4)), rng.integers(0, 2, 7))
    path = tmp_path / "d.csv"
    export_csv(data, path)
    back = import_csv(path)
    np.testing.assert_array_equal(back.samples, data.samples)
    np.testing.assert_array_equal(back.labels, data.labels)


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(DataError):
        import_csv(path)
    path.write_text("label,f0\n")
    with pytest.raises(DataError):
        import_csv(path)


def test_csv_rejects_non_numeric_value_and_missing_features(tmp_path):
    path = tmp_path / "values.csv"
    path.write_text("label,x0\n0,a\n1,2\n")
    with pytest.raises(DataError, match=r"values\.csv, line 2: .*'a'"):
        import_csv(path)
    path.write_text("label\n0\n1\n")
    with pytest.raises(DataError, match="no feature column"):
        import_csv(path)


_CSV_CHARS = st.sampled_from(list("01,.-+e_ \t\r\nlabinfx")) | st.characters(codec="utf-8")
_CSV_FIELD = (st.sampled_from(["0", "1", "2", "-1.5", "1e400", "nan", "a", ""])
              | st.text(_CSV_CHARS, max_size=4))
# arbitrary text, and comma-separated lines that reach past the header check
_CSV_BODY = st.text(_CSV_CHARS, max_size=60) | st.lists(
    st.lists(_CSV_FIELD, min_size=1, max_size=4).map(",".join), max_size=5).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["", "label\n", "label,f0\n", "label,f0,f1\n"]), _CSV_BODY)
def test_import_csv_on_arbitrary_text_loads_or_raises_data_error(tmp_path_factory, head, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(head + body, encoding="utf-8")
    try:
        data = import_csv(path)
    except DataError:
        return
    assert isinstance(data, Dataset) and data.dim >= 1


def test_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"label,f0\n0,1.0\n1,2\xff\n")
    with pytest.raises(DataError, match=r"latin\.csv: not UTF-8 text"):
        import_csv(path)


_VALID_CSV = b"label,f0,f1\n0,1.5,2\n1,-1,0.5e1\n"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_import_csv_on_arbitrary_bytes_loads_or_raises_data_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_bytes.csv"
    raw = bytearray(data.draw(st.sampled_from([b"", b"label,f0\n", _VALID_CSV]), label="base"))
    for _ in range(data.draw(st.integers(0, 4), label="mutations")):
        if raw:
            i = data.draw(st.integers(0, len(raw) - 1), label="at")
            raw[i] = data.draw(st.integers(0, 255), label="byte")
    path.write_bytes(bytes(raw) + data.draw(st.binary(max_size=24), label="tail"))
    try:
        loaded = import_csv(path)
    except DataError:
        return
    assert isinstance(loaded, Dataset) and loaded.dim >= 1


@pytest.mark.parametrize("label", ["2", "-1", "x"])
def test_csv_rejects_out_of_range_label(tmp_path, label):
    path = tmp_path / "labels.csv"
    path.write_text(f"label,f0\n0,1.0\n{label},2.0\n")
    with pytest.raises(DataError, match=r"labels\.csv, line 3: label"):
        import_csv(path)


@given(st.lists(st.tuples(st.integers(0, 1),
                          st.lists(st.floats(-1e100, 1e100, allow_nan=False, width=64),
                                   min_size=3, max_size=3)),
                min_size=1, max_size=8))
def test_csv_roundtrip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    labels = [label for label, _ in rows]
    if len(set(labels)) == 2:
        data = Dataset(np.array([x for _, x in rows]), np.array(labels))
        export_csv(data, path)
        back = import_csv(path)
        np.testing.assert_array_equal(back.samples, data.samples)
        np.testing.assert_array_equal(back.labels, data.labels)
    else:  # no one-class Dataset exists to export
        path.write_text("label,f0,f1,f2\n" + "".join(
            f"{label}," + ",".join(map(repr, x)) + "\n" for label, x in rows))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: every row has label"):
            import_csv(path)
