"""Dense feed-forward binary classifier with manual backprop.

The network has ReLU hidden layers and exactly two linear output logits.
Its scalar margin (logit1 - logit0) is the classification function whose
zero set is the decision boundary everything else in this package probes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .data import ConfigError, DataError, Dataset, NumericError, read_bytes, write_file
from .rng import make_rng

CHECKPOINT_MAGIC = b"BLAB"
CHECKPOINT_VERSION = 1
# Most rows in one block of a batched forward or gradient pass, so a pass
# holds one block's temporaries: the 2D fan sweep's 1920 ray ends on blobs2d
# run as two 960-row blocks, the oracle grid's 8192-point slabs as eight
# 1024-row blocks and the 1600-row pool of criteria 01/02 at 784-d as two
# 800-row blocks. test_margin_batch_memory_is_bounded_by_the_block and
# test_grad_input_memory_is_bounded_by_the_block pin the memory it bounds.
FORWARD_BLOCK_ROWS = 1024
# train's only update rule is Adam (Kingma & Ba, ICLR 2015), with their suggested settings
ADAM_BETAS = (0.9, 0.999)
ADAM_EPSILON = 1e-8


@dataclass
class MlpNetwork:
    weights: list[np.ndarray]  # weights[k] has shape (layer_dims[k+1], layer_dims[k])
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [w.shape[0] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]


def check_finite_fields(cfg) -> None:
    """ConfigError naming the first float field of a config dataclass that is
    NaN or infinite. A NaN passes every ordered comparison a range check makes."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass
class TrainConfig:
    optimizer: str = "adam"  # adam is the only optimizer
    learning_rate: float = 1e-2
    max_epochs: int = 10000
    batch_size: int = 32
    accuracy_target: float = 0.90

    def validate(self) -> None:
        check_finite_fields(self)
        if self.optimizer != "adam":
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; adam is the only optimizer")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.accuracy_target <= 1:
            raise ConfigError("accuracy_target must be in (0, 1]")


@dataclass
class TrainReport:
    epochs_run: int
    final_train_accuracy: float
    final_loss: float
    stopped_reason: str  # criterion_met | epoch_cap


def check_layer_dims(layer_dims, input_dim: int | None = None) -> list[int]:
    """Layer widths as ints; ConfigError unless they describe a network this
    module builds and, when input_dim is given, one that accepts such inputs."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ConfigError("need at least an input and an output layer")
    if any(d <= 0 for d in dims):
        raise ConfigError("all layer dimensions must be positive")
    if dims[-1] != 2:
        raise ConfigError("output layer must have exactly 2 logits")
    if input_dim is not None and dims[0] != input_dim:
        raise ConfigError(f"network input width {dims[0]} != data dimension {input_dim}")
    return dims


def init_network(layer_dims, seed: int) -> MlpNetwork:
    """He-scaled normal weights, zero biases; bitwise deterministic per seed."""
    dims = check_layer_dims(layer_dims)
    rng = make_rng(seed, stream=0x11717)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(scale * rng.standard_normal((fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpNetwork(weights, biases)


def _check_input(net: MlpNetwork, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.input_dim:
        raise ValueError(f"input dimension {x.shape[-1]} != network input {net.input_dim}")
    return x


def _walk(net: MlpNetwork, h: np.ndarray):
    """Each layer's output for the rows h, first to last: every hidden
    layer's ReLU activation, then the logits. Each array is a fresh one the
    caller may keep, and a caller that stops early skips the later layers.
    Forward passes, input gradients and training all apply the layers here."""
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
        yield h


def _walk_back(net: MlpNetwork, delta: np.ndarray, masks: list[np.ndarray]):
    """Backprop of delta, a gradient at the logits, through the hidden layers'
    masks of active units: the gradient at each layer's output before its
    ReLU, last layer first, then at the input. train and grad_input use it."""
    yield delta
    for w, mask in zip(net.weights[:0:-1], masks[::-1]):
        delta = delta @ w
        delta *= mask
        yield delta
    yield delta @ net.weights[0]


def _forward_block(net: MlpNetwork, h: np.ndarray) -> np.ndarray:
    for h in _walk(net, h):  # keeps one layer's activation at a time
        pass
    return h


def active_units(net: MlpNetwork, x: np.ndarray) -> list[np.ndarray]:
    """Per hidden layer, a bool (batch, width) array of which ReLU units the
    rows x switch on: their activation pattern. The margin is affine on the
    inputs that share one pattern."""
    return [a > 0 for a in islice(_walk(net, _check_input(net, x)), len(net.weights) - 1)]


def _in_blocks(block_fn, net: MlpNetwork, x: np.ndarray, width: int) -> np.ndarray:
    """block_fn(net, rows) over the rows of x, in equal blocks of at most
    FORWARD_BLOCK_ROWS rows, into one (len(x), width) result."""
    blocks = -(-len(x) // FORWARD_BLOCK_ROWS)
    if blocks <= 1:
        return block_fn(net, x)
    out = np.empty((len(x), width))
    edges = [len(x) * i // blocks for i in range(blocks + 1)]
    for start, stop in zip(edges[:-1], edges[1:]):
        out[start:stop] = block_fn(net, x[start:stop])
    return out


def forward_batch(net: MlpNetwork, x: np.ndarray) -> np.ndarray:
    """Logits for a (batch, n) input array.

    A batch taller than FORWARD_BLOCK_ROWS goes through the layers in equal
    blocks of at most that many rows, so a pass holds one block's
    activations, not the whole batch's. Equal blocks keep every block at
    least half that tall: BLAS takes other kernels for a short product (one
    row, or a few at width 32), and a short tail block would change its
    rows' last bits against a single pass. Equal blocks match one pass bit
    for bit at the heights the tests check, but not at every height: on
    [2,32,32,2], 1025 rows split 512 + 513 differ from one pass in 613
    rows."""
    return _in_blocks(_forward_block, net, _check_input(net, x), 2)


def margin_batch(net: MlpNetwork, x: np.ndarray) -> np.ndarray:
    logits = forward_batch(net, x)
    return logits[:, 1] - logits[:, 0]


def margin(net: MlpNetwork, x) -> float:
    """Scalar classifier value: logit1 - logit0. Sign is the predicted label, zero set is the boundary."""
    return float(margin_batch(net, np.asarray(x, dtype=np.float64)[None, :])[0])


def _grad_block(net: MlpNetwork, h: np.ndarray) -> np.ndarray:
    d_logits = np.repeat([[-1.0, 1.0]], len(h), axis=0)  # d(margin)/d(logits)
    for g in _walk_back(net, d_logits, active_units(net, h)):  # one layer's gradient at a time
        pass
    return g


def grad_input(net: MlpNetwork, x) -> np.ndarray:
    """Gradient of the margin w.r.t. the input, by backprop. Takes one
    sample (n,) or rows (batch, n) and returns the same shape; one sample
    goes through as a batch of one row.

    Backprop needs only each hidden layer's bool mask of active units, not
    its activations. Rows go through in forward_batch's equal blocks, so a
    pass holds one block's masks and gradients besides the result; a batch
    taller than FORWARD_BLOCK_ROWS may differ from one pass in its last bits."""
    x = _check_input(net, x)
    g = _in_blocks(_grad_block, net, np.atleast_2d(x), net.input_dim)
    return g[0] if x.ndim == 1 else g


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def is_correct(margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per sample, whether sign(margin) matches the label; margin 0 counts as wrong."""
    return np.where(labels == 1, margins > 0, margins < 0)


def accuracy(net: MlpNetwork, data: Dataset) -> float:
    """Fraction of samples whose margin sign matches the label (see is_correct)."""
    return float(is_correct(margin_batch(net, data.samples), data.labels).mean())


def _nll_gradients(net: MlpNetwork, x: np.ndarray, onehot: np.ndarray):
    """Mean NLL of the rows x, whose one-hot labels are onehot, and its
    gradients for net.weights + net.biases: one forward and one backward walk."""
    acts = [x, *_walk(net, x)]  # kept for backprop
    logp = log_softmax(acts[-1])
    walk = _walk_back(net, (np.exp(logp) - onehot) / len(x), [a > 0 for a in acts[1:-1]])
    grads_w, grads_b = [], []
    for a, delta in zip(acts[-2::-1], walk):  # zip stops before the input gradient
        grads_w.insert(0, delta.T @ a)
        grads_b.insert(0, delta.sum(axis=0))
    return float(-(logp * onehot).sum(axis=1).mean()), grads_w + grads_b


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(net: MlpNetwork, data: Dataset, cfg: TrainConfig, seed: int) -> TrainReport:
    """Mini-batch NLL training with Adam until every sample is correct and mean
    true-class confidence reaches cfg.accuracy_target, or max_epochs.
    Mutates net in place; deterministic for a fixed seed, which orders the
    mini-batches. numpy's float warnings are off; the non-finite checks report divergence.

    Inputs are standardized internally and the affine map is folded back
    into the first layer afterwards, so the returned network acts on raw
    inputs. Repeated boundary projection shrinks working sets into tiny
    off-center clouds; without this the optimization stalls long before
    every sample is correct."""
    cfg.validate()
    if not data.both_classes_present():
        raise DataError("training data must contain both classes")
    _check_input(net, data.samples)
    batch_size = min(cfg.batch_size, len(data))

    mu = data.samples.mean(axis=0)
    sd = data.samples.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    if not np.isfinite([mu, sd]).all():  # finite inputs too large to standardize
        raise NumericError("a feature's mean or standard deviation overflows")
    data = Dataset((data.samples - mu) / sd, data.labels)

    def fold_whitening() -> None:
        net.biases[0] = net.biases[0] - net.weights[0] @ (mu / sd)
        net.weights[0] = net.weights[0] / sd

    # Adam's moments, one per parameter array of net.weights + net.biases
    params = net.weights + net.biases
    moments = [np.zeros_like(p) for p in params]
    velocities = [np.zeros_like(p) for p in params]
    b1, b2 = ADAM_BETAS
    step = 0

    labels_onehot = np.eye(2)[data.labels]

    epoch_loss = float("nan")
    for epoch in range(cfg.max_epochs):
        order = make_rng(seed, stream=epoch).permutation(len(data))
        losses = []
        for start in range(0, len(data), batch_size):
            idx = order[start:start + batch_size]
            batch_loss, grads = _nll_gradients(net, data.samples[idx], labels_onehot[idx])
            if not np.isfinite(batch_loss):
                raise NumericError(f"training loss diverged: non-finite loss at epoch {epoch}")
            losses.append(batch_loss)

            step += 1
            for i, (p, g) in enumerate(zip(params, grads)):
                moments[i] = b1 * moments[i] + (1 - b1) * g
                velocities[i] = b2 * velocities[i] + (1 - b2) * g ** 2
                m_hat = moments[i] / (1 - b1 ** step)
                v_hat = velocities[i] / (1 - b2 ** step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)

        if not all(np.isfinite(p).all() for p in params):
            raise NumericError("training loss diverged: network parameters are non-finite")
        epoch_loss = float(np.mean(losses))
        # one pass gives both stop tests: every sample correct, and the mean
        # true-class probability at the target
        logits = forward_batch(net, data.samples)
        acc = float(is_correct(logits[:, 1] - logits[:, 0], data.labels).mean())
        if acc == 1.0 and (np.exp(log_softmax(logits)[np.arange(len(data)), data.labels]).mean()
                           >= cfg.accuracy_target):
            fold_whitening()
            return TrainReport(epoch + 1, acc, epoch_loss, "criterion_met")
    fold_whitening()
    return TrainReport(cfg.max_epochs, acc, epoch_loss, "epoch_cap")


def save_checkpoint(net: MlpNetwork, path) -> None:
    """Binary little-endian checkpoint; round-trips bit-exactly."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(net.weights))]
    for w, b in zip(net.weights, net.biases):
        parts += [struct.pack("<II", *w.shape), np.ascontiguousarray(w, dtype="<f8").tobytes(),
                  np.ascontiguousarray(b, dtype="<f8").tobytes()]
    write_file(path, b"".join(parts))


def load_checkpoint(path) -> MlpNetwork:
    """The network save_checkpoint wrote to path; DataError naming path if not one."""
    raw = read_bytes(path)
    pos = 4

    def read(n: int, what: str) -> bytes:
        # checked against the file size first, so a corrupt shape never
        # asks for a huge buffer
        nonlocal pos
        if pos + n > len(raw):
            raise DataError(f"{path}: checkpoint truncated in {what} "
                            f"({len(raw) - pos} of {n} bytes left)")
        pos += n
        return raw[pos - n:pos]

    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {raw[:4]!r}")
    version, n_layers = struct.unpack("<II", read(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if n_layers == 0:
        raise DataError(f"{path}: checkpoint has no layers")
    weights, biases = [], []
    for k in range(n_layers):
        rows, cols = struct.unpack("<II", read(8, f"layer {k} shape"))
        if k and cols != weights[-1].shape[0]:
            raise DataError(f"{path}: layer {k} takes {cols} inputs but layer "
                            f"{k - 1} has {weights[-1].shape[0]} outputs")
        w = np.frombuffer(read(8 * rows * cols, f"layer {k} weights"),
                          dtype="<f8").reshape(rows, cols)
        b = np.frombuffer(read(8 * rows, f"layer {k} biases"), dtype="<f8")
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    net = MlpNetwork(weights, biases)
    try:
        check_layer_dims(net.layer_dims)
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None
    return net
