import dataclasses
import hashlib
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blab.config import parse_config
from blab.data import ConfigError, DataError, Dataset, NumericError
from blab.experiments import build_dataset
from blab.nn import (FORWARD_BLOCK_ROWS, INIT_STREAM, TrainConfig, _nll_gradients, accuracy, active_units,
                     check_layer_dims, forward_batch, grad_input, init_network, load_checkpoint,
                     log_softmax, margin, margin_batch, save_checkpoint, train)
from helpers import linear_net

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "blobs2d.cfg"


def test_max_epochs_stops_before_the_shuffles_reach_the_init_stream():
    # train shuffles epoch e with Philox stream e; stream 71447 draws init_network's weights
    assert INIT_STREAM == 71447
    TrainConfig(max_epochs=71447)
    with pytest.raises(ConfigError, match="max_epochs must be <= 71447: epoch 71447's shuffle "
                                          "would replay init_network's weight stream"):
        TrainConfig(max_epochs=71448)


def test_init_determinism_and_validation():
    a = init_network([3, 8, 2], seed=5)
    b = init_network([3, 8, 2], seed=5)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert all((bias == 0).all() for bias in a.biases)
    assert not np.array_equal(a.weights[0], init_network([3, 8, 2], seed=6).weights[0])
    for bad in ([3], [3, 8, 3], [3, 0, 2], [3, -1, 2]):
        with pytest.raises(ValueError):
            init_network(bad, seed=0)


def test_margin_is_logit_difference():
    net = init_network([4, 6, 2], seed=1)
    x = np.array([0.3, -1.2, 0.5, 2.0])
    logits = forward_batch(net, x[None, :])[0]
    assert margin(net, x) == pytest.approx(logits[1] - logits[0])
    np.testing.assert_allclose(margin_batch(net, x[None, :]), [margin(net, x)])


def test_forward_rejects_wrong_dimension():
    net = init_network([4, 6, 2], seed=1)
    with pytest.raises(ValueError, match=re.escape("input shape (1, 3) is not (rows, 4)")):
        margin(net, np.zeros(3))
    # the row functions take (rows, 4) arrays only; margin is the one-sample entry point
    for fn in (margin_batch, grad_input, active_units):
        for shape in ((1, 3), (4,), (1, 1, 4)):
            with pytest.raises(ValueError, match=re.escape(f"input shape {shape} is not (rows, 4)")):
                fn(net, np.zeros(shape))
    assert margin(net, np.zeros(4)) == 0.0


def _single_pass_margin(net, x):
    h = x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if k < len(net.weights) - 1:
            h = np.maximum(h, 0.0)
    return h[:, 1] - h[:, 0]


def _equal_blocks(rows):
    """forward_batch's equal blocks of at most FORWARD_BLOCK_ROWS rows, as (start, stop) pairs."""
    blocks = -(-rows // FORWARD_BLOCK_ROWS)
    edges = [rows * i // blocks for i in range(blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("dims", [[2, 16, 16, 2], [2, 32, 32, 2]])
def test_blocked_margin_batch_matches_one_pass_bit_for_bit(dims):
    # heights around the block, the 2D fan sweep's 1920 ray ends on blobs2d
    # (30 samples x 64 rays, four 480-row blocks) and the oracle grid's 120701
    # points; 2049 and 4097 would leave a 1-row block if blocks were all 2048
    # tall. [2,16,16,2] matches one pass at every one of them. [2,32,32,2]
    # matches one pass up to one block; BLAS orders a taller product's sums
    # differently, so 1130 of 1920 rows and 70950 of 120701 differ from one
    # pass, and each block matches one pass over that block instead.
    rng = np.random.default_rng(11)
    net = init_network(dims, seed=4)
    net.biases = [rng.standard_normal(b.shape) for b in net.biases]
    x = rng.uniform(-3.0, 3.0, (120701, 2))
    for rows in (1, FORWARD_BLOCK_ROWS - 1, FORWARD_BLOCK_ROWS, 1920, 2047, 2048, 2049,
                 4097, 120701):
        if dims == [2, 16, 16, 2] or rows <= FORWARD_BLOCK_ROWS:
            expected = _single_pass_margin(net, x[:rows])
        else:
            expected = np.concatenate([_single_pass_margin(net, x[start:stop])
                                       for start, stop in _equal_blocks(rows)])
        np.testing.assert_array_equal(margin_batch(net, x[:rows]), expected)


def _traced_peak(fn, net, x):
    """Peak bytes that Python traces while fn(net, x) runs."""
    tracemalloc.start()
    try:
        fn(net, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_margin_batch_memory_is_bounded_by_the_block():
    net = init_network([2, 16, 16, 2], seed=4)
    x = np.random.default_rng(12).uniform(-3.0, 3.0, (120701, 2))
    peak = _traced_peak(margin_batch, net, x)
    # one pass at once holds 120701x16 float64 activations per layer (44 MiB)
    assert peak <= 4 * 2**20


def test_linear_net_margin():
    net = linear_net([2.0, -1.0], 0.5)
    assert margin(net, [1.0, 1.0]) == pytest.approx(1.5)
    np.testing.assert_allclose(grad_input(net, [[1.0, 1.0]]), [[2.0, -1.0]])


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=2))
def test_log_softmax_normalizes(logits):
    p = np.exp(log_softmax(np.array(logits)))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p >= 0).all()


def test_grad_input_matches_finite_differences():
    net = init_network([3, 10, 10, 2], seed=9)
    rng = np.random.default_rng(4)
    step = 1e-6
    for _ in range(10):
        x = rng.standard_normal(3)
        g = grad_input(net, x[None])[0]
        for i in range(3):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            fd = (margin(net, hi) - margin(net, lo)) / (2 * step)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_training_gradients_match_central_differences_of_the_batch_nll():
    net = init_network([3, 5, 4, 2], seed=2)
    rng = np.random.default_rng(6)
    x, onehot = rng.standard_normal((7, 3)), np.eye(2)[rng.integers(0, 2, 7)]

    def nll():
        return float(-(log_softmax(forward_batch(net, x)) * onehot).sum(axis=1).mean())

    loss, grads = _nll_gradients(net, x, onehot)
    assert loss == nll()
    step = 1e-6
    for p, g in zip(net.weights + net.biases, grads, strict=True):
        assert g.shape == p.shape
        for i in np.ndindex(p.shape):
            keep = p[i]
            p[i] = keep + step
            hi = nll()
            p[i] = keep - step
            lo = nll()
            p[i] = keep
            assert g[i] == pytest.approx((hi - lo) / (2 * step), rel=1e-5, abs=1e-8)


def _pre_activation_grad(net, x):
    """Reference: one backprop pass that keeps every hidden layer's float
    pre-activations for all rows."""
    h = x
    pre_acts = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre_acts.append(h @ w.T + b)
        h = np.maximum(pre_acts[-1], 0.0)
    delta = np.broadcast_to(net.weights[-1][1] - net.weights[-1][0], h.shape)
    for w, z in zip(net.weights[-2::-1], pre_acts[::-1]):
        delta = (delta * (z > 0)) @ w
    return np.ascontiguousarray(delta)


def test_active_units_are_the_signs_of_the_pre_activations():
    rng = np.random.default_rng(14)
    net = init_network([3, 10, 6, 2], seed=2)
    net.biases = [rng.standard_normal(b.shape) for b in net.biases]
    x = rng.standard_normal((50, 3))
    h, expected = x, []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w.T + b
        expected.append(z > 0)
        h = np.maximum(z, 0.0)
    active = active_units(net, x)
    assert [a.shape for a in active] == [(50, 10), (50, 6)]
    for got, want in zip(active, expected, strict=True):
        np.testing.assert_array_equal(got, want)
    assert active_units(init_network([3, 2], seed=2), x) == []


@pytest.mark.parametrize("dims", [[2, 32, 32, 2], [784, 500, 256, 128, 32, 2]])
def test_masked_grad_input_matches_pre_activation_backprop(dims):
    rng = np.random.default_rng(13)
    net = init_network(dims, seed=4)
    net.biases = [0.3 * rng.standard_normal(b.shape) for b in net.biases]
    x = rng.uniform(-3.0, 3.0, (3000, dims[0]))
    for rows in (1, FORWARD_BLOCK_ROWS - 1, FORWARD_BLOCK_ROWS):
        np.testing.assert_array_equal(grad_input(net, x[:rows]),
                                      _pre_activation_grad(net, x[:rows]))
    # taller batches go through in forward_batch's equal blocks
    for rows in (1536, 3000):
        expected = np.vstack([_pre_activation_grad(net, x[start:stop])
                              for start, stop in _equal_blocks(rows)])
        np.testing.assert_array_equal(grad_input(net, x[:rows]), expected)


def test_grad_input_memory_is_bounded_by_the_block():
    net = init_network([784, 500, 256, 128, 32, 2], seed=4)
    x = np.random.default_rng(14).uniform(0.0, 1.0, (3000, 784))
    peak = _traced_peak(grad_input, net, x)
    # the 3000x784 result is 17.9 MiB of the peak; one pass keeping every
    # hidden layer's float pre-activations for all rows peaks at 62.5 MiB
    assert peak <= 36 * 2**20


def test_a_2d_reroot_holds_one_block_at_a_time():
    # about the height of the slide's tallest 2-D re-root on blobs2d. A block
    # of 512 rows keeps each [2,32,32,2] layer's activations at 128 KiB, below
    # glibc's mmap threshold; 1024-row blocks peaked at 558 and 628 KiB here
    net = init_network([2, 32, 32, 2], seed=4)
    x = np.random.default_rng(15).uniform(-3.0, 3.0, (3500, 2))
    layer = 512 * 32 * x.itemsize  # one 512-row block's activations of one hidden layer
    for fn in (margin_batch, grad_input):
        # three layers' activations of one block, and the (3500, 2) result with its margins
        assert _traced_peak(fn, net, x) <= 3 * layer + 2 * x.nbytes, fn.__name__


def test_accuracy_zero_margin_counts_wrong():
    net = linear_net([1.0, 0.0], 0.0)
    data = Dataset(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([0, 1]))
    assert accuracy(net, data) == 0.0  # both samples sit exactly on the boundary


def test_train_reaches_criterion_and_is_deterministic(easy_blobs):
    cfg = TrainConfig(learning_rate=1e-2, max_epochs=2000, batch_size=16,
                      accuracy_target=0.95)
    net_a = init_network([2, 16, 2], seed=3)
    train(net_a, easy_blobs, cfg, seed=11)  # returning means accuracy 1.0
    assert accuracy(net_a, easy_blobs) == 1.0  # holds on raw, unstandardized inputs
    net_b = init_network([2, 16, 2], seed=3)
    train(net_b, easy_blobs, cfg, seed=11)
    for wa, wb in zip(net_a.weights, net_b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_adam_training_keeps_its_bits(tmp_path, easy_blobs):
    # 60 epochs of 3 Adam steps, then the whitening fold, which train makes before it
    # raises at the epoch cap; the digest freezes Adam at betas (0.9, 0.999) and epsilon 1e-8
    cfg = TrainConfig(learning_rate=1e-2, max_epochs=60, batch_size=16,
                      accuracy_target=1.0)
    net = init_network([2, 16, 16, 2], seed=3)
    with pytest.raises(NumericError, match=r"^training hit the epoch cap \(accuracy 1\.000\)$"):
        train(net, easy_blobs, cfg, seed=11)
    path = tmp_path / "net.blab"
    save_checkpoint(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e7b7539a195e08e54af4411af547efa6650123bf3ee1f72ebd7b75c44e9694fc")


def test_train_validates_inputs(easy_blobs):
    net = init_network([2, 8, 2], seed=0)
    with pytest.raises(ValueError):
        train(net, easy_blobs, TrainConfig(optimizer="adagrad"), 0)
    with pytest.raises(ValueError):
        train(net, easy_blobs, TrainConfig(learning_rate=-1.0), 0)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        train(net, easy_blobs, TrainConfig(batch_size=0), 0)


def test_checkpoint_roundtrip_bit_exact(tmp_path, easy_blobs):
    net = init_network([2, 16, 8, 2], seed=21)
    train(net, easy_blobs, TrainConfig(max_epochs=50), seed=2)
    path = tmp_path / "net.blab"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.layer_dims == net.layer_dims
    for wa, wb, ba, bb in zip(net.weights, back.weights, net.biases, back.biases):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)


def test_checkpoint_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.blab"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="bad.blab: bad checkpoint magic"):
        load_checkpoint(bad)
    net = init_network([2, 2], seed=0)
    path = tmp_path / "v.blab"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version field
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="v.blab: unsupported checkpoint version 99"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut, field", [(10, "header"), (14, "layer 0 shape"),
                                        (199, "layer 0 weights"), (300, "layer 0 biases"),
                                        (683, "layer 1 biases")])
def test_truncated_checkpoint_names_file_and_field(tmp_path, cut, field):
    # [2, 16, 2]: 12-byte header, then per layer an 8-byte shape, weights, biases;
    # layer 0 spans bytes 12-404 and layer 1 ends the 684-byte file
    path = tmp_path / "cut.blab"
    save_checkpoint(init_network([2, 16, 2], seed=0), path)
    raw = path.read_bytes()
    assert len(raw) == 684
    path.write_bytes(raw[:cut])
    with pytest.raises(DataError, match=f"cut.blab: checkpoint truncated in {field} "):
        load_checkpoint(path)


def _checkpoint_bytes(*layers) -> bytes:
    raw = b"BLAB" + struct.pack("<II", 1, len(layers))
    for rows, cols in layers:
        raw += struct.pack("<II", rows, cols) + bytes(8 * rows * cols + 8 * rows)
    return raw


@pytest.mark.parametrize("layers, message", [
    ((), "checkpoint has no layers"),                       # 12 bytes
    (((0, 0),), "all layer dimensions must be positive"),   # 20 bytes
    (((16, 2), (2, 8)), "layer 1 takes 8 inputs but layer 0 has 16 outputs"),
    (((3, 2),), "output layer must have exactly 2 logits"),
])
def test_checkpoint_rejects_bad_shapes(tmp_path, layers, message):
    path = tmp_path / "shape.blab"
    path.write_bytes(_checkpoint_bytes(*layers))
    with pytest.raises(DataError, match=f"shape.blab: {message}"):
        load_checkpoint(path)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_checkpoint_loads_a_valid_net_or_raises(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.blab"
    save_checkpoint(init_network([2, 16, 2], seed=0), path)
    raw = bytearray(path.read_bytes())
    del raw[data.draw(st.integers(0, len(raw)), label="cut"):]
    for _ in range(data.draw(st.integers(0, 4), label="mutations")):
        if raw:
            # the header and layer 0's shape (bytes 0-19) decide most outcomes
            i = data.draw(st.integers(0, 19) | st.integers(0, len(raw) - 1), label="at")
            raw[min(i, len(raw) - 1)] = data.draw(st.integers(0, 255), label="byte")
    path.write_bytes(bytes(raw))
    try:
        net = load_checkpoint(path)
    except DataError:
        return
    assert check_layer_dims(net.layer_dims) == net.layer_dims
    assert [w.shape for w in net.weights] == list(zip(net.layer_dims[1:], net.layer_dims[:-1]))
    assert [b.shape for b in net.biases] == [(d,) for d in net.layer_dims[1:]]


def test_criterion_met_means_every_raw_sample_is_correct():
    # train fits standardized inputs and folds the map back into the first
    # layer afterwards; the fold must not cost a sample its sign
    cfg = parse_config(CONFIG)
    for seed in range(8):
        data = build_dataset(dataclasses.replace(cfg.dataset, seed=seed))
        net = init_network(cfg.dims, seed)
        train(net, data, cfg.train, seed)  # it returned: the criterion is met
        assert accuracy(net, data) == 1.0, f"dataset seed {seed}"
