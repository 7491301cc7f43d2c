"""Minimal convolutional networks with explicit forward and backward passes.

Everything runs in float64 so finite-difference oracles stay tight.  Layers
are freestanding objects with their own backward rules,
`backward(ctx, dy, need_param_grads, need_input_grad=True) -> (dx, grads)`,
where a layer may return None for what it was not asked for; a MicroNet is an
ordered stack ending in a sigmoid head, with per-layer trainability flags
realizing the freeze/fine-tune phases and per-parameter Adam state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .data import LabeledSample
from .errors import ConfigError, DataError, NumericError
from .imageio import write_file
from .weighting import mean_bce, sigmoid

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Conv2d:
    """Valid-padding, stride-1 convolution over (N, C, H, W) inputs."""

    kind = "conv2d"

    def __init__(self, in_ch: int, out_ch: int, ksize: int, rng: np.random.Generator | None = None):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.ksize = ksize
        self.trainable = True
        if rng is None:
            w = np.zeros((out_ch, in_ch, ksize, ksize))
        else:
            scale = np.sqrt(2.0 / (in_ch * ksize * ksize))
            w = rng.standard_normal((out_ch, in_ch, ksize, ksize)) * scale
        self.params = {"w": w, "b": np.zeros(out_ch)}

    def _bands(self, x):
        """Yield (di, band): im2col of kernel row di as one (N, C*K, OH*OW) copy."""
        k = self.ksize
        win = sliding_window_view(x, (k, k), axis=(2, 3))  # (N, C, OH, OW, K, K)
        for di in range(k):
            yield di, win[..., di, :].transpose(0, 1, 4, 2, 3).reshape(len(x), self.in_ch * k, -1)

    def forward(self, x, training, rng):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DataError(f"conv2d expects (N,{self.in_ch},H,W), got {x.shape}")
        n, _, h, w = x.shape
        oh, ow = h - self.ksize + 1, w - self.ksize + 1
        if oh < 1 or ow < 1:
            raise DataError(f"conv2d kernel {self.ksize} larger than input {h}x{w}")
        # One (O, C*K) @ (C*K, OH*OW) GEMM per kernel row and image, onto the bias.
        y = np.broadcast_to(self.params["b"][:, None], (n, self.out_ch, oh * ow)).copy()
        for di, band in self._bands(x):
            y += self.params["w"][:, :, di].reshape(self.out_ch, -1) @ band
        return y.reshape(n, self.out_ch, oh, ow), x

    def backward(self, ctx, dy, need_param_grads, need_input_grad=True):
        x, wt = ctx, self.params["w"]
        (n, c, h, w), (o, _, k, _) = x.shape, wt.shape
        oh, ow = dy.shape[2:]
        dx = grads = None
        if need_param_grads:
            dw, dyf = np.empty_like(wt), dy.reshape(n, o, -1)
            for di, band in self._bands(x):
                dw[:, :, di] = (dyf @ band.transpose(0, 2, 1)).sum(0).reshape(o, c, k)
            grads = {"w": dw, "b": dy.sum(axis=(0, 2, 3))}
        if need_input_grad:  # one (N*OH*OW, O) @ (O, C) GEMM per kernel tap, in NHWC
            dyt, dx = dy.transpose(0, 2, 3, 1).reshape(-1, o), np.zeros((n, h, w, c))
            for di, dj in np.ndindex(k, k):
                dx[:, di : di + oh, dj : dj + ow] += (dyt @ wt[:, :, di, dj]).reshape(n, oh, ow, c)
            dx = dx.transpose(0, 3, 1, 2)
        return dx, grads


class Relu:
    kind = "relu"
    trainable = False
    params: dict = {}

    def forward(self, x, training, rng):
        return np.maximum(x, 0.0), x > 0

    def backward(self, ctx, dy, need_param_grads, need_input_grad=True):
        return dy * ctx, None


class MaxPool2:
    """2x2 max pooling, stride 2; odd trailing rows/columns are dropped and get
    zero gradient. A window's gradient goes to its first maximum in row-major
    order, the element argmax picks, so a tie (an all-zero window after a
    ReLU) routes it to one element."""

    kind = "maxpool2"
    trainable = False
    params: dict = {}

    def forward(self, x, training, rng):
        oh, ow = x.shape[2] // 2, x.shape[3] // 2
        if oh < 1 or ow < 1:
            raise DataError(f"maxpool2 needs at least 2x2 input, got {x.shape[2]}x{x.shape[3]}")
        p = _phases(x, oh, ow)
        y = np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3]))
        return y, (x, y)

    def backward(self, ctx, dy, need_param_grads, need_input_grad=True):
        x, y = ctx
        dx, free = np.zeros(x.shape), np.ones(y.shape, dtype=bool)
        for phase, grad in zip(_phases(x, *y.shape[2:]), _phases(dx, *y.shape[2:])):
            hit = (phase == y) & free
            free ^= hit  # hit lies inside free: this is free &= ~hit
            np.multiply(dy, hit, out=grad)
        dx += 0.0  # the -0.0 of a negative dy times a miss becomes +0.0
        return dx, None


def _phases(x, oh, ow):
    """The four strided (N, C, OH, OW) views of the 2x2 windows, in row-major order."""
    return [x[:, :, i : 2 * oh : 2, j : 2 * ow : 2] for i in (0, 1) for j in (0, 1)]


class Dense:
    """Fully connected layer; flattens any input to (N, in_features)."""

    kind = "dense"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None):
        self.in_features = in_features
        self.out_features = out_features
        self.trainable = True
        if rng is None:
            w = np.zeros((in_features, out_features))
        else:
            w = rng.standard_normal((in_features, out_features)) * np.sqrt(2.0 / in_features)
        self.params = {"w": w, "b": np.zeros(out_features)}

    def forward(self, x, training, rng):
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.in_features:
            raise DataError(
                f"dense expects {self.in_features} features, got {flat.shape[1]} from {x.shape}"
            )
        return flat @ self.params["w"] + self.params["b"], (x.shape, flat)

    def backward(self, ctx, dy, need_param_grads, need_input_grad=True):
        in_shape, flat = ctx
        dx = grads = None
        if need_param_grads:
            grads = {"w": flat.T @ dy, "b": dy.sum(axis=0)}
        if need_input_grad:
            dx = (dy @ self.params["w"].T).reshape(in_shape)
        return dx, grads


class Dropout:
    """Inverted dropout: surviving units are scaled by 1/(1-rate) at training time."""

    kind = "dropout"
    trainable = False
    params: dict = {}

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise DataError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, training, rng):
        if not training or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ValueError("training-mode dropout needs a random generator")
        keep = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * keep, keep

    def backward(self, ctx, dy, need_param_grads, need_input_grad=True):
        if ctx is None:
            return dy, None
        return dy * ctx, None


class SigmoidHead:
    """Squeezes (N, 1) logits to (N,) probabilities via a stable sigmoid."""

    kind = "sigmoid_head"
    trainable = False
    params: dict = {}

    def forward(self, x, training, rng):
        p = sigmoid(x.reshape(x.shape[0]))
        return p, (x.shape, p)

    def backward(self, ctx, dy, need_param_grads, need_input_grad=True):
        in_shape, p = ctx
        return (dy * p * (1.0 - p)).reshape(in_shape), None


@dataclass
class MicroNet:
    architecture_id: str
    layers: list
    head_start: int
    input_side: int
    version: int = 0
    adam: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        kinds = [layer.kind for layer in self.layers]
        if kinds.count("sigmoid_head") != 1 or kinds[-1] != "sigmoid_head":
            raise ValueError("a MicroNet needs exactly one sigmoid_head, at the end")
        if "conv2d" not in kinds:
            raise ValueError("a MicroNet needs at least one conv2d layer")

    @property
    def final_conv_index(self) -> int:
        return max(i for i, layer in enumerate(self.layers) if layer.kind == "conv2d")

    def parameterized(self) -> list[int]:
        return [i for i, layer in enumerate(self.layers) if layer.params]

    def trainable_params(self) -> list[tuple[int, str]]:
        out = []
        for i in self.parameterized():
            if self.layers[i].trainable:
                out.extend((i, name) for name in sorted(self.layers[i].params))
        return out


@dataclass
class ForwardCache:
    probs: np.ndarray
    ctxs: list  # None below `start`
    conv_activation: np.ndarray | None  # None when the final conv is below `start`
    net_version: int
    start: int = 0


def forward(
    net: MicroNet,
    batch: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    start: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Run layers `start`.. of the stack; dropout fires only when training=True.

    With start=0, `batch` is an (N, C, H, W) image batch; otherwise it is the
    output of layer `start - 1`, and the cache holds no context below `start`,
    so backprop cannot reach below it.
    """
    x = np.asarray(batch, dtype=np.float64)
    if start == 0 and x.ndim != 4:
        raise DataError(f"expected (N, C, H, W) batch, got shape {x.shape}")
    ctxs = [None] * start
    conv_activation = None
    conv_idx = net.final_conv_index
    for i in range(start, len(net.layers)):
        x, ctx = net.layers[i].forward(x, training, rng)
        ctxs.append(ctx)
        if i == conv_idx:
            conv_activation = x
    return x, ForwardCache(
        probs=x,
        ctxs=ctxs,
        conv_activation=conv_activation,
        net_version=net.version,
        start=start,
    )


def _check_cache(net: MicroNet, cache: ForwardCache) -> None:
    if cache.net_version != net.version:
        raise ValueError(
            f"stale forward cache: built at version {cache.net_version}, net is at {net.version}"
        )


def _lowest_trainable(net: MicroNet) -> int:
    return min((i for i, _ in net.trainable_params()), default=len(net.layers) - 1)


def _backprop(
    net: MicroNet, cache: ForwardCache, dy: np.ndarray, stop: int, input_grad: bool = True
) -> tuple[np.ndarray | None, dict]:
    """Run the layer backward rules from just below the sigmoid head down to
    layer `stop`; return the gradient at `stop`'s input (None when
    `input_grad` is False, so `stop` skips computing it) and the parameter
    gradients of the trainable layers passed on the way."""
    _check_cache(net, cache)
    if stop < cache.start:
        raise ValueError(f"forward cache starts at layer {cache.start}, cannot backprop to {stop}")
    param_grads = {}
    for i in range(len(net.layers) - 2, stop - 1, -1):
        layer = net.layers[i]
        need_params = bool(layer.params) and layer.trainable
        dy, grads = layer.backward(cache.ctxs[i], dy, need_params, i > stop or input_grad)
        for name, g in (grads or {}).items():
            param_grads[(i, name)] = g
    return dy, param_grads


def backward(net: MicroNet, cache: ForwardCache, labels: np.ndarray) -> dict:
    """Backprop mean BCE into {(layer, name): gradient} for every trainable
    parameter. The pass stops at the lowest trainable layer, and that layer
    skips its input gradient: the layers below it are frozen, so no gradient
    of theirs would be used.
    """
    y = np.asarray(labels, dtype=np.float64)
    n = y.shape[0]
    if cache.probs.shape[0] != n:
        raise ValueError(f"cache holds {cache.probs.shape[0]} rows, labels {n}")
    # Fused sigmoid+BCE derivative at the logit, averaged over the batch.
    dy = ((cache.probs - y) / n).reshape(cache.ctxs[-1][0])
    return _backprop(net, cache, dy, _lowest_trainable(net), input_grad=False)[1]


def class_score_gradient(net: MicroNet, cache: ForwardCache, class_id: int) -> np.ndarray:
    """Gradient of the pre-sigmoid class score w.r.t. the final conv activations.

    The positive class scores the raw logit; the negative class its negation.
    """
    if class_id not in (0, 1):
        raise ValueError(f"class_id must be 0 or 1, got {class_id}")
    dy = np.full(cache.ctxs[-1][0], 1.0 if class_id == 1 else -1.0)
    return _backprop(net, cache, dy, net.final_conv_index + 1)[0]


def adam_step(net: MicroNet, grads: dict, lr: float) -> MicroNet:
    """Standard Adam on every trainable parameter; frozen ones are untouched."""
    for key in net.trainable_params():
        i, name = key
        if key not in grads:
            raise ValueError(f"missing gradient for trainable parameter layer{i}.{name}")
        g = grads[key]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient at layer{i}.{net.layers[i].kind}.{name}")
        slot = net.adam.setdefault(key, {"m": np.zeros_like(g), "v": np.zeros_like(g), "t": 0})
        slot["t"] += 1
        slot["m"] = ADAM_BETA1 * slot["m"] + (1 - ADAM_BETA1) * g
        slot["v"] = ADAM_BETA2 * slot["v"] + (1 - ADAM_BETA2) * g * g
        m_hat = slot["m"] / (1 - ADAM_BETA1 ** slot["t"])
        v_hat = slot["v"] / (1 - ADAM_BETA2 ** slot["t"])
        net.layers[i].params[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    net.version += 1
    return net


def batch_tensor(samples: list[LabeledSample]) -> np.ndarray:
    return np.stack([s.payload for s in samples])[:, None, :, :].astype(np.float64)


def _infer(layers: list, inputs: list[LabeledSample] | np.ndarray, batch_size: int) -> np.ndarray:
    """Inference-mode outputs of `layers` for every input, in batches of
    `batch_size`: labeled samples, or an array of inputs to the first layer,
    one per image.  No backward context is kept, so each layer's input is
    freed as soon as its output exists."""
    out = np.empty(0)
    for i in range(0, len(inputs), batch_size):
        x = inputs[i : i + batch_size]
        x = x if isinstance(x, np.ndarray) else batch_tensor(x)
        for layer in layers:
            x = layer.forward(x, False, None)[0]
        if i == 0:
            out = np.empty((len(inputs), *x.shape[1:]))
        out[i : i + len(x)] = x
    return out


def predict_proba(
    net: MicroNet, samples: list[LabeledSample] | np.ndarray, batch_size: int = 64, start: int = 0
) -> np.ndarray:
    """Inference-mode probabilities, batched.

    `samples` are labeled samples, or an array of the inputs to layer
    `start`, one per image, as `_run_epochs` stores them.
    """
    return _infer(net.layers[start:], samples, batch_size)


def _run_epochs(
    net: MicroNet,
    train: list[LabeledSample],
    val: list[LabeledSample],
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    phase: str,
    history: list[dict],
) -> None:
    labels = np.array([s.label for s in train], dtype=np.int64)
    val_y = np.array([s.label for s in val], dtype=np.int64)
    # Layers below `stop` are frozen and draw no random numbers, so they give
    # each image the same output in every epoch: run them once, here.
    dropouts = [i for i, layer in enumerate(net.layers) if layer.kind == "dropout"]
    stop = min([_lowest_trainable(net), *dropouts])
    # The same batches as `predict_proba`, so what runs on them matches it bit for bit.
    feats = _infer(net.layers[:stop], train, batch_size)
    val_feats = _infer(net.layers[:stop], val, batch_size)
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        losses = []
        for start in range(0, len(train), batch_size):
            take = order[start : start + batch_size]
            y = labels[take]
            probs, cache = forward(net, feats[take], training=True, rng=rng, start=stop)
            losses.append(mean_bce(probs, y))
            grads = backward(net, cache, y)
            adam_step(net, grads, lr)
        record = {"phase": phase, "epoch": epoch, "train_loss": float(np.mean(losses))}
        if val:
            record["val_loss"] = mean_bce(predict_proba(net, val_feats, batch_size, stop), val_y)
        history.append(record)


def set_trainability(net: MicroNet, unfreeze_top: int) -> None:
    """Train the head and the top `unfreeze_top` backbone layers; 0 is phase 1."""
    backbone = [i for i in net.parameterized() if i < net.head_start]
    to_unfreeze = set(backbone[len(backbone) - unfreeze_top :]) if unfreeze_top > 0 else set()
    for i in net.parameterized():
        net.layers[i].trainable = i >= net.head_start or i in to_unfreeze


def train_two_phase(
    net: MicroNet,
    train: list[LabeledSample],
    val: list[LabeledSample],
    config: RunConfig,
    rng: np.random.Generator,
) -> tuple[MicroNet, list[dict]]:
    """Head-only training at the head rate, then fine-tuning of the top of
    the backbone at the (small) main rate.

    Frozen backbone parameters are bit-identical across phase 1; phase 2
    touches only the configured unfrozen suffix plus the head.  Each phase
    runs its frozen, dropout-free prefix of layers over the training and
    validation sets once, and every batch of every epoch, and every epoch's
    validation score, starts from that stored output.
    """
    if not train:
        raise DataError("training set is empty")
    history: list[dict] = []
    set_trainability(net, 0)
    _run_epochs(
        net, train, val, config.freeze_epochs, config.head_learning_rate,
        config.batch_size, rng, "freeze", history,
    )
    set_trainability(net, config.unfreeze_top)
    _run_epochs(
        net, train, val, config.finetune_epochs, config.learning_rate,
        config.batch_size, rng, "finetune", history,
    )
    return net, history


# Base-learner layouts. Three small, deliberately different stacks: two
# depths of 3x3 blocks and one wider single 5x5 block.  Extra trailing
# pooling keeps the dense head nearly location-invariant, which is what
# lets these nets generalize across subjects at desk scale.
_LAYOUTS = {
    "convA": {"blocks": [(5, 3), (10, 3)], "extra_pools": 1, "hidden": 24},
    "convB": {"blocks": [(6, 3), (12, 3)], "extra_pools": 1, "hidden": 16},
    "convC": {"blocks": [(8, 5)], "extra_pools": 2, "hidden": 16},
}
BASE_ARCHITECTURES = tuple(_LAYOUTS)


def architecture_ids(k: int) -> list[str]:
    """K distinct architecture ids, cycling the base layouts with suffixes."""
    ids = []
    for i in range(k):
        base = BASE_ARCHITECTURES[i % len(BASE_ARCHITECTURES)]
        rep = i // len(BASE_ARCHITECTURES)
        ids.append(base if rep == 0 else f"{base}_r{rep}")
    return ids


def build_micronet(
    architecture_id: str,
    input_side: int,
    dropout_rate: float,
    rng: np.random.Generator,
) -> MicroNet:
    """Construct one of the registered layouts at the given input size."""
    base = architecture_id.split("_r")[0]
    if base not in _LAYOUTS:
        raise ValueError(f"unknown architecture {architecture_id!r} (bases: {BASE_ARCHITECTURES})")
    layout = _LAYOUTS[base]
    layers: list = []
    c, side = 1, input_side
    for out_ch, ksize in layout["blocks"]:
        layers.append(Conv2d(c, out_ch, ksize, rng))
        layers.append(Relu())
        layers.append(MaxPool2())
        c, side = out_ch, (side - ksize + 1) // 2
        if side < 1:
            raise ConfigError(f"input side {input_side} too small for {architecture_id}")
    for _ in range(layout["extra_pools"]):
        if side >= 2:
            layers.append(MaxPool2())
            side //= 2
    head_start = len(layers)
    layers.append(Dense(c * side * side, layout["hidden"], rng))
    layers.append(Relu())
    layers.append(Dropout(dropout_rate))
    layers.append(Dense(layout["hidden"], 1, rng))
    layers.append(SigmoidHead())
    return MicroNet(
        architecture_id=architecture_id,
        layers=layers,
        head_start=head_start,
        input_side=input_side,
    )


# Checkpoint layer table: kind -> (class, constructor fields in header order).
# Layers with parameters also record their trainability after those fields.
_LAYER_KINDS = {
    "conv2d": (Conv2d, ("in_ch", "out_ch", "ksize")),
    "relu": (Relu, ()),
    "maxpool2": (MaxPool2, ()),
    "dense": (Dense, ("in_features", "out_features")),
    "dropout": (Dropout, ("rate",)),
    "sigmoid_head": (SigmoidHead, ()),
}


def _layer_spec(layer) -> dict:
    spec = {"kind": layer.kind}
    spec.update((name, getattr(layer, name)) for name in _LAYER_KINDS[layer.kind][1])
    if layer.params:
        spec["trainable"] = layer.trainable
    return spec


def _layer_from_spec(spec: dict):
    if spec["kind"] not in _LAYER_KINDS:
        raise DataError(f"unknown layer kind in checkpoint: {spec['kind']}")
    cls, fields = _LAYER_KINDS[spec["kind"]]
    layer = cls(*(spec[name] for name in fields))
    if layer.params:
        layer.trainable = spec["trainable"]
    return layer


def _header(net: MicroNet) -> dict:
    return {
        "architecture_id": net.architecture_id,
        "input_side": net.input_side,
        "head_start": net.head_start,
        "layers": [_layer_spec(layer) for layer in net.layers],
    }


def save_checkpoint(net: MicroNet, path: str | Path) -> None:
    """One-line JSON header plus a flat little-endian float64 parameter block."""
    blocks = []
    for i in net.parameterized():
        for name in sorted(net.layers[i].params):
            blocks.append(net.layers[i].params[name].astype("<f8").tobytes())
    write_file(path, json.dumps(_header(net)).encode("utf-8") + b"\n" + b"".join(blocks))


def load_checkpoint(path: str | Path) -> MicroNet:
    """Inverse of save_checkpoint; any malformed file raises DataError."""
    line, newline, block = Path(path).read_bytes().partition(b"\n")
    if not newline:
        raise DataError(f"checkpoint has no header line: {path}")
    try:
        header = json.loads(line.decode("utf-8"))
        net = MicroNet(
            architecture_id=header["architecture_id"],
            layers=[_layer_from_spec(spec) for spec in header["layers"]],
            head_start=header["head_start"],
            input_side=header["input_side"],
        )
        side, head = net.input_side, net.head_start
        typed = [isinstance(net.architecture_id, str), type(side) is int and side > 0,
                 type(head) is int and 0 <= head < len(net.layers)]
        typed += [isinstance(layer.trainable, bool) for layer in net.layers]
        if header != _header(net) or not all(typed):
            raise DataError("unknown keys or values of the wrong type in the header")
    except (ValueError, KeyError, TypeError, MemoryError, RecursionError) as exc:
        # DataError is a ValueError: the rules broken above land here too.
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from exc
    params = [(layer.params, name) for layer in net.layers for name in sorted(layer.params)]
    expected = 8 * sum(p[name].size for p, name in params)
    if len(block) != expected:
        raise DataError(f"checkpoint parameter block is {len(block)} bytes, not {expected}: {path}")
    values = np.frombuffer(block, dtype="<f8")
    offset = 0
    for p, name in params:
        p[name] = values[offset : offset + p[name].size].reshape(p[name].shape).copy()
        offset += p[name].size
    return net
