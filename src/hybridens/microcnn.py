"""Minimal convolutional networks with explicit forward and backward passes.

Everything runs in float64 so finite-difference oracles stay tight.  Layers
are freestanding objects with their own backward rules,
`backward(ctx, dy, need_param_grads, need_input_grad=True) -> (dx, grads)`,
where a layer may return None for what it was not asked for; a MicroNet is an
ordered stack ending in a sigmoid head, with per-layer trainability flags
realizing the freeze/fine-tune phases over one flat parameter vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
IM2COL_VALUES = 2**17  # per im2col chunk (1 MiB), whatever the batch or input side


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

    def _columns(self, x):
        """Yield (i, cols): the whole-window im2col (n, C*K*K, OH*OW) of images
        i..i+n of x, in chunks of at most IM2COL_VALUES values (one image at
        least).  Each chunk overwrites the one before it in one buffer."""
        k = self.ksize
        win = sliding_window_view(x, (k, k), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
        rows, cells = self.in_ch * k * k, win.shape[4] * win.shape[5]
        step = max(1, IM2COL_VALUES // (rows * cells))
        buf = np.empty((min(len(x), step), *win.shape[1:]))
        for i in range(0, len(x), step):
            chunk = buf[: len(x) - i]
            np.copyto(chunk, win[i : i + len(chunk)])
            yield i, chunk.reshape(len(chunk), rows, cells)

    def forward(self, x, training, rng):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DataError(f"conv2d expects (N,{self.in_ch},H,W), got {x.shape}")
        n, _, h, w = x.shape
        oh, ow = h - self.ksize + 1, w - self.ksize + 1
        if oh < 1 or ow < 1:
            raise DataError(f"conv2d kernel {self.ksize} larger than input {h}x{w}")
        # One (O, C*K*K) @ (C*K*K, OH*OW) GEMM per image, written into y.
        y, wt = np.empty((n, self.out_ch, oh * ow)), self.params["w"].reshape(self.out_ch, -1)
        for i, cols in self._columns(x):
            np.matmul(wt, cols, out=y[i : i + len(cols)])
        y += self.params["b"][:, None]
        return y.reshape(n, self.out_ch, oh, ow), x

    def backward(self, ctx, dy, need_param_grads, need_input_grad=True):
        x, wt = ctx, self.params["w"]
        (n, c, h, w), (o, _, k, _) = x.shape, wt.shape
        oh, ow = dy.shape[2:]
        dx = grads = None
        if need_param_grads:  # one (O, OH*OW) @ (OH*OW, C*K*K) GEMM per image, summed
            per_image, dyf = np.empty((n, o, c * k * k)), dy.reshape(n, o, -1)
            for i, cols in self._columns(x):
                j = i + len(cols)
                np.matmul(dyf[i:j], cols.transpose(0, 2, 1), out=per_image[i:j])
            grads = {"w": per_image.sum(0).reshape(wt.shape), "b": dy.sum(axis=(0, 2, 3))}
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
    zero gradient.  Training and batch inference feed it none: they cut each
    image to the window the head sees (`extent`), so only `forward` on whole
    images, as Grad-CAM runs it, does.  A window's gradient goes to its first
    maximum in row-major order, the element argmax picks, so a tie (an
    all-zero window after a ReLU) routes it to one element."""

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
    """`flat` holds every parameter in checkpoint order, and `layer.params[name]`
    views it from `spans[(layer, name)]`; `moments` and `steps` are Adam's state."""

    architecture_id: str
    layers: list
    head_start: int
    input_side: int
    version: int = 0

    def __post_init__(self) -> None:
        kinds = [layer.kind for layer in self.layers]
        if kinds.count("sigmoid_head") != 1 or kinds[-1] != "sigmoid_head":
            raise ValueError("a MicroNet needs exactly one sigmoid_head, at the end")
        if "conv2d" not in kinds:
            raise ValueError("a MicroNet needs at least one conv2d layer")
        keys = [(i, name) for i in self.parameterized() for name in sorted(self.layers[i].params)]
        sizes = [self.layers[i].params[name].size for i, name in keys]
        self.spans = dict(zip(keys, np.cumsum([0, *sizes[:-1]]).tolist()))
        self.flat = np.concatenate([self.layers[i].params[name].ravel() for i, name in keys])
        self.moments = np.zeros((2, self.flat.size))
        self.steps = dict.fromkeys(keys, 0)
        self._bind()

    def __reduce__(self):
        # Each parameter once, in `flat`; the layers go as their checkpoint specs.
        return _unpickled_net, (_header(self), self.version, self.flat, self.moments, self.steps)

    def _bind(self) -> None:
        for (i, name), lo in self.spans.items():
            params = self.layers[i].params
            params[name] = self.flat[lo : lo + params[name].size].reshape(params[name].shape)

    @property
    def final_conv_index(self) -> int:
        return max(i for i, layer in enumerate(self.layers) if layer.kind == "conv2d")

    def parameterized(self) -> list[int]:
        return [i for i, layer in enumerate(self.layers) if layer.params]

    def trainable_params(self) -> list[tuple[int, str]]:
        return [key for key in self.spans if self.layers[key[0]].trainable]


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
    """Standard Adam on every trainable parameter; frozen ones are untouched.

    The trainable parameters, which must be a trailing slice of `net.flat`,
    step together, but each keeps its own step count: a head trained in
    phase 1 carries its count into phase 2, where a newly unfrozen layer starts at 0."""
    keys = net.trainable_params()
    if keys:
        if keys != list(net.spans)[len(net.spans) - len(keys) :]:
            raise ValueError(f"trainable parameters {keys} are not a trailing slice of the net")
        for i, name in keys:
            if (i, name) not in grads:
                raise ValueError(f"missing gradient for trainable parameter layer{i}.{name}")
        g = np.concatenate([grads[key].ravel() for key in keys])
        if not np.isfinite(g).all():
            i, name = next(key for key in keys if not np.isfinite(grads[key]).all())
            raise NumericError(f"non-finite gradient at layer{i}.{net.layers[i].kind}.{name}")
        lo = net.spans[keys[0]]
        m, v = net.moments[:, lo:]
        for key in keys:
            net.steps[key] += 1
        sizes = [net.layers[i].params[name].size for i, name in keys]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / np.repeat([1 - ADAM_BETA1 ** net.steps[key] for key in keys], sizes)
        v_hat = v / np.repeat([1 - ADAM_BETA2 ** net.steps[key] for key in keys], sizes)
        net.flat[lo:] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    net.version += 1
    return net


def extent(net: MicroNet, side: int) -> int:
    """How many leading rows (or columns) of an image axis `side` long reach
    `net`'s first dense layer: valid convolutions and floor 2x2 pooling never
    read the rest.  `side` when there is no dense layer, or when the layers
    would reject that side, so that they still do."""
    top = next((i for i, layer in enumerate(net.layers) if layer.kind == "dense"), 0)
    walk = [layer for layer in net.layers[:top] if layer.kind in ("conv2d", "maxpool2")]
    s = side
    for layer in walk:
        s = s - layer.ksize + 1 if layer.kind == "conv2d" else s // 2
        if s < 1:
            return side
    for layer in reversed(walk):
        s = s + layer.ksize - 1 if layer.kind == "conv2d" else 2 * s
    return s


def batch_tensor(samples: list[LabeledSample], net: MicroNet) -> np.ndarray:
    """The (N, 1, H, W) float64 batch of the payloads' top-left windows that
    reach `net`'s head, sliced before they are stacked: one copy."""
    shape = samples[0].payload.shape
    if any(s.payload.shape != shape for s in samples):
        raise DataError(f"a batch mixes image shapes {sorted({s.payload.shape for s in samples})}")
    h, w = (extent(net, side) for side in shape)
    return np.stack([s.payload[:h, :w] for s in samples], dtype=np.float64)[:, None]


def _infer(net: MicroNet, inputs, batch_size: int, start: int, stop: int) -> np.ndarray:
    """Inference-mode outputs of layers `start`..`stop - 1` for every input, in
    batches of `batch_size`: labeled samples (with start 0), or an array of
    inputs to layer `start`, one per image.  No backward context is kept, so
    each layer's input is freed as soon as its output exists."""
    out = np.empty(0)
    for i in range(0, len(inputs), batch_size):
        x = inputs[i : i + batch_size]
        x = x if isinstance(x, np.ndarray) else batch_tensor(x, net)
        for layer in net.layers[start:stop]:
            x = layer.forward(x, False, None)[0]
        if i == 0:
            out = np.empty((len(inputs), *x.shape[1:]))
        out[i : i + len(x)] = x
    return out


def predict_proba(
    net: MicroNet, samples: list[LabeledSample] | np.ndarray, batch_size: int = 64, start: int = 0
) -> np.ndarray:
    """Inference-mode probabilities, batched.

    `samples` are labeled samples, of which only the window `batch_tensor`
    cuts is read, or an array of the inputs to layer `start`, one per image,
    as `_run_epochs` stores them.
    """
    return _infer(net, samples, batch_size, start, len(net.layers))


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
    feats = _infer(net, train, batch_size, 0, stop)
    val_feats = _infer(net, val, batch_size, 0, stop)
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


def training_cost(architecture_id: str, config: RunConfig) -> int:
    """Multiply-adds per image of the top `config.unfreeze_top` conv layers,
    which phase 2 trains: a static proxy for how long a net of this layout trains."""
    costs, c, side = [], 1, config.input_side
    for out_ch, ksize in _LAYOUTS[architecture_id.split("_r")[0]]["blocks"]:
        side -= ksize - 1
        costs.append(out_ch * c * ksize * ksize * side * side)
        c, side = out_ch, side // 2
    return sum(costs[::-1][: config.unfreeze_top])


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
    if layer.params:  # conv2d and dense, whose fields are all sizes
        if not all(type(spec[name]) is int and spec[name] >= 1 for name in fields):
            raise DataError(f"{spec['kind']} sizes must be integers of at least 1")
        layer.trainable = spec["trainable"]
    return layer


def _header(net: MicroNet) -> dict:
    return {
        "architecture_id": net.architecture_id,
        "input_side": net.input_side,
        "head_start": net.head_start,
        "layers": [_layer_spec(layer) for layer in net.layers],
    }


def _unpickled_net(header: dict, version: int, flat, moments, steps) -> MicroNet:
    layers = [_layer_from_spec(spec) for spec in header["layers"]]
    net = MicroNet(header["architecture_id"], layers, header["head_start"], header["input_side"])
    net.version, net.flat[:], net.moments, net.steps = version, flat, moments, steps
    return net


def save_checkpoint(net: MicroNet, path: str | Path) -> None:
    """One-line JSON header plus `net.flat` as little-endian float64."""
    write_file(path, json.dumps(_header(net)).encode() + b"\n" + net.flat.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> MicroNet:
    """Inverse of save_checkpoint; any malformed file raises DataError."""
    line, newline, block = Path(path).read_bytes().partition(b"\n")
    if not newline:
        raise DataError(f"checkpoint has no header line: {path}")
    try:
        header = json.loads(line.decode("utf-8"))
        layers = [_layer_from_spec(spec) for spec in header["layers"]]
        size = sum(p.size for layer in layers for p in layer.params.values())
        if len(block) != 8 * size:  # before `flat` is written: a huge claimed net allocates nothing
            raise DataError(f"parameter block is {len(block)} bytes, not {8 * size}")
        net = MicroNet(
            architecture_id=header["architecture_id"],
            layers=layers,
            head_start=header["head_start"],
            input_side=header["input_side"],
        )
        side, head = net.input_side, net.head_start
        typed = [isinstance(net.architecture_id, str), type(side) is int and side > 0,
                 type(head) is int and 0 <= head < len(net.layers)]
        typed += [isinstance(layer.trainable, bool) for layer in net.layers]
        if header != _header(net) or not all(typed):
            raise DataError("unknown keys or values of the wrong type in the header")
        top = next((i for i, layer in enumerate(layers) if layer.kind == "dense"), None)
        if top is not None:  # worked out from the sizes: no image of `side` is made
            c, s = 1, side
            for layer in layers[:top]:
                if layer.kind == "conv2d":
                    c, s = layer.out_ch, max(s - layer.ksize + 1, 0)
                elif layer.kind == "maxpool2":
                    s //= 2
            if c * s * s != layers[top].in_features:
                raise DataError(f"input side {side} brings {c * s * s} features to the "
                                f"first dense layer, which takes {layers[top].in_features}")
    except (ValueError, KeyError, TypeError, MemoryError, RecursionError) as exc:
        # DataError is a ValueError: the rules broken above land here too.
        raise DataError(f"malformed checkpoint {path}: {exc!r}") from exc
    net.flat[:] = np.frombuffer(block, dtype="<f8")
    return net
