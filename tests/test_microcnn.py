import copy
import hashlib
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridens import microcnn
from hybridens.config import RunConfig
from hybridens.data import LabeledSample
from hybridens.errors import ConfigError, DataError, NumericError
from hybridens.microcnn import (
    Conv2d,
    Dense,
    Dropout,
    MaxPool2,
    MicroNet,
    Relu,
    SigmoidHead,
    adam_step,
    backward,
    batch_tensor,
    build_micronet,
    forward,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
    set_trainability,
    train_two_phase,
)
from hybridens.weighting import mean_bce
from oracle_utils import fd_gradient, rel_error, resized_checkpoint


def tiny_net(rng, dropout=0.0, side=10):
    after = (side - 2) // 2 - 2  # conv3 -> pool -> conv3
    layers = [
        Conv2d(1, 2, 3, rng),
        Relu(),
        MaxPool2(),
        Conv2d(2, 3, 3, rng),
        Relu(),
        Dense(3 * after * after, 4, rng),
        Relu(),
        Dropout(dropout),
        Dense(4, 1, rng),
        SigmoidHead(),
    ]
    return MicroNet("tiny", layers, head_start=5, input_side=side)


def param_digest(net, indices=None):
    picked = indices if indices is not None else net.parameterized()
    h = hashlib.sha256()
    for i in picked:
        for name in sorted(net.layers[i].params):
            h.update(net.layers[i].params[name].tobytes())
    return h.hexdigest()


def make_blob_samples(rng, n, side=12):
    samples = []
    for i in range(n):
        label = i % 2
        img = np.full((side, side), 0.1)
        r, c = rng.integers(3, side - 3, 2)
        img[r - 1 : r + 2, c - 1 : c + 2] += 0.3 + 0.5 * label
        samples.append(LabeledSample(f"s{i}", 0, np.clip(img, 0, 1), label))
    return samples


def test_identity_kernel_conv_is_identity():
    conv = Conv2d(1, 1, 1, None)
    conv.params["w"][:] = 1.0
    x = np.random.default_rng(0).random((2, 1, 5, 5))
    y, _ = conv.forward(x, False, None)
    assert np.array_equal(y, x)


def test_all_ones_kernel_sums_window():
    conv = Conv2d(1, 1, 3, None)
    conv.params["w"][:] = 1.0
    y, _ = conv.forward(np.ones((1, 1, 3, 3)), False, None)
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == 9.0


def test_forward_shape_error_names_layer():
    net = tiny_net(np.random.default_rng(0))
    with pytest.raises(DataError, match="conv2d"):
        forward(net, np.zeros((1, 2, 10, 10)))
    with pytest.raises(DataError, match="dense"):
        forward(net, np.zeros((1, 1, 14, 14)))


def test_dropout_inference_ignores_rng():
    net = tiny_net(np.random.default_rng(1), dropout=0.5)
    x = np.random.default_rng(2).random((3, 1, 10, 10))
    p1, _ = forward(net, x, training=False, rng=np.random.default_rng(3))
    p2, _ = forward(net, x, training=False, rng=np.random.default_rng(99))
    assert np.array_equal(p1, p2)


def test_dropout_training_scales_survivors():
    layer = Dropout(0.5)
    x = np.ones((1, 1000))
    y, _ = layer.forward(x, True, np.random.default_rng(0))
    assert set(np.unique(y)) <= {0.0, 2.0}


def test_inverted_dropout_expectation_matches_inference():
    # Averaging training-mode outputs of a linear probe over many masks
    # approaches the inference-mode output.
    rng = np.random.default_rng(4)
    layer = Dropout(0.3)
    x = rng.random((1, 50))
    acc = np.zeros_like(x)
    n = 60000
    for _ in range(n):
        y, _ = layer.forward(x, True, rng)
        acc += y
    inference, _ = layer.forward(x, False, None)
    assert np.max(np.abs(acc / n - inference)) <= 1e-2


def test_backward_zero_upstream_gives_zero_param_grads():
    rng = np.random.default_rng(5)
    dense = Dense(6, 3, rng)
    _, ctx = dense.forward(rng.random((4, 6)), False, None)
    _, grads = dense.backward(ctx, np.zeros((4, 3)), True)
    assert not grads["w"].any()
    assert not grads["b"].any()


def test_dense_bce_gradient_closed_form():
    # For sigmoid(x @ w) with mean BCE, dL/dw = mean((p - y) x).
    rng = np.random.default_rng(6)
    x = rng.random((8, 5))
    y = rng.integers(0, 2, 8)
    dense = Dense(5, 1, rng)
    head = SigmoidHead()
    z, dctx = dense.forward(x, False, None)
    p, hctx = head.forward(z, False, None)
    dz = ((p - y) / len(y)).reshape(-1, 1)
    _, grads = dense.backward(dctx, dz, True)
    expected = x.T @ ((p - y) / len(y))
    assert np.allclose(grads["w"][:, 0], expected, atol=1e-14)


@pytest.mark.parametrize(
    "kind, unfreeze_top",
    [
        pytest.param("conv2d", None, id="conv2d"),
        pytest.param("dense", None, id="dense"),
        pytest.param("dense", 0, id="dense-phase1"),
        pytest.param("conv2d", 1, id="conv2d-unfreeze1"),
        pytest.param("dense", 1, id="dense-unfreeze1"),
    ],
)
def test_parameter_gradients_match_finite_differences(kind, unfreeze_top):
    # None leaves every layer trainable; otherwise set_trainability picks them.
    rng = np.random.default_rng(7)
    net = tiny_net(rng)
    if unfreeze_top is not None:
        set_trainability(net, unfreeze_top)
    x = rng.random((3, 1, 10, 10))
    y = rng.integers(0, 2, 3)

    def loss():
        p, _ = forward(net, x, training=False)
        return mean_bce(p, y)

    _, cache = forward(net, x, training=False)
    grads = backward(net, cache, y)
    assert sorted(grads) == net.trainable_params()
    checked = 0
    for (i, name), analytic in grads.items():
        if net.layers[i].kind != kind:
            continue
        checked += 1
        P = net.layers[i].params[name]

        def f(theta, P=P):
            old = P.copy()
            P[...] = theta
            value = loss()
            P[...] = old
            return value

        numeric = fd_gradient(f, P)
        assert rel_error(analytic, numeric) <= 1e-4
    assert checked > 0


def test_backward_stops_at_the_lowest_trainable_layer():
    rng = np.random.default_rng(7)
    net = tiny_net(rng)
    set_trainability(net, 1)  # conv layer 3 and the head train; conv layer 0 is frozen
    ran, input_grad = [], []
    for i, layer in enumerate(net.layers):
        def recording(ctx, dy, need, *rest, i=i, rule=layer.backward):
            ran.append(i)
            input_grad.append(rest[0] if rest else True)
            return rule(ctx, dy, need, *rest)

        layer.backward = recording
    _, cache = forward(net, rng.random((2, 1, 10, 10)))
    grads = backward(net, cache, np.array([1, 0]))
    assert ran == list(range(len(net.layers) - 2, 2, -1))
    # Only the lowest trainable layer (conv layer 3) skips its input gradient.
    assert input_grad == [True] * (len(ran) - 1) + [False]
    assert sorted(grads) == net.trainable_params()


def test_forward_from_a_later_layer_matches_the_full_pass():
    rng = np.random.default_rng(7)
    net = tiny_net(rng)
    x = rng.random((3, 1, 10, 10))
    y = np.array([1, 0, 1])
    feats = x
    for layer in net.layers[: net.head_start]:
        feats, _ = layer.forward(feats, False, None)
    full_p, full_cache = forward(net, x)
    part_p, part_cache = forward(net, feats, start=net.head_start)
    assert part_p.tobytes() == full_p.tobytes()
    assert part_cache.ctxs[: net.head_start] == [None] * net.head_start
    set_trainability(net, 0)  # the head is the lowest trainable layer
    full, part = backward(net, full_cache, y), backward(net, part_cache, y)
    assert sorted(part) == sorted(full)
    assert all(part[k].tobytes() == full[k].tobytes() for k in full)
    set_trainability(net, 1)  # conv layer 3 trains, but the cache starts at the head
    with pytest.raises(ValueError, match="starts at layer 5"):
        backward(net, part_cache, y)


@pytest.mark.parametrize(
    "arch, side, expected",
    [("convA", 32, 30), ("convB", 32, 30), ("convC", 32, 28),
     ("convA", 16, 14), ("convB", 16, 14), ("convC", 16, 12)],
)
def test_extent_is_the_window_the_dense_head_sees(arch, side, expected):
    # convA at 16 px: 16 -conv3-> 14 -pool-> 7 -conv3-> 5 -pool-> 2 -pool-> 1,
    # and back: 1 -> 2 -> 4 -> 6 -> 12 -> 14.
    rng = np.random.default_rng(side)
    net = build_micronet(arch, side, 0.0, rng)
    assert microcnn.extent(net, side) == expected
    assert microcnn.extent(net, 4) == 4  # too small for the layers: left whole
    # At these sides batch inference gives the whole image's bits, so runs at
    # 16 and 32 px score each image as `forward()` on it does.
    images = rng.random((5, side, side))
    full = forward(net, images[:, None])[0]
    assert predict_proba(net, _images_as_samples(images)).tobytes() == full.tobytes()


def _images_as_samples(images):
    return [LabeledSample(f"s{i}", 0, image, i % 2) for i, image in enumerate(images)]


def _dense_input_shape(net, x):
    for layer in net.layers[: net.head_start]:
        x = layer.forward(x, False, None)[0]
    return x.shape


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["tiny", *microcnn.BASE_ARCHITECTURES]), data=st.data())
def test_predict_proba_reads_only_the_window_the_head_sees(kind, data):
    side = data.draw(st.integers(8 if kind == "tiny" else 10, 48), label="net side")
    near = st.integers(max(8, side - 3), min(48, side + 3))
    h, w = (data.draw(near | st.integers(8, 48), label=axis) for axis in "hw")
    rng = np.random.default_rng(side)
    net = tiny_net(rng, side=side) if kind == "tiny" else build_micronet(kind, side, 0.25, rng)
    images = rng.random((3, h, w))
    try:
        full = forward(net, images[:, None])[0]
    except DataError:  # a size the whole stack rejects is rejected on the window too
        with pytest.raises(DataError):
            predict_proba(net, _images_as_samples(images))
        return
    probs = predict_proba(net, _images_as_samples(images))
    eh, ew = microcnn.extent(net, h), microcnn.extent(net, w)
    assert probs.tobytes() == forward(net, images[:, None, :eh, :ew])[0].tobytes()
    # A GEMM over fewer columns may round its last ones in another kernel
    # (convA built at 12 px does), so the full image agrees to rounding.
    assert rel_error(probs, full) <= 1e-12
    noisy = images.copy()
    noisy[:, eh:] = rng.normal(0.0, 1e3, noisy[:, eh:].shape)
    noisy[:, :, ew:] = rng.normal(0.0, 1e3, noisy[:, :, ew:].shape)
    assert predict_proba(net, _images_as_samples(noisy)).tobytes() == probs.tobytes()
    # No smaller window would do: one row or column less changes what the head sees.
    shape = _dense_input_shape(net, images[:, None])
    for cut in (images[:, None, : eh - 1], images[:, None, :, : ew - 1]):
        try:
            assert _dense_input_shape(net, cut) != shape
        except DataError:
            pass


def test_predict_proba_rejects_a_batch_of_mixed_image_shapes():
    net = build_micronet("convA", 32, 0.25, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    samples = _images_as_samples([rng.random((32, 32)), rng.random((31, 31))])
    with pytest.raises(DataError, match="mixes image shapes"):
        predict_proba(net, samples)


@pytest.mark.parametrize("arch", ["tiny", *microcnn.BASE_ARCHITECTURES])
def test_gradients_on_the_window_match_the_full_images(arch):
    """With every layer trainable, the conv gradients on the window sum the
    full images' terms less exact zeros, so only their rounding may move;
    every other gradient is the same bits."""
    rng = np.random.default_rng(48)
    net = tiny_net(rng, side=11) if arch == "tiny" else build_micronet(arch, 32, 0.0, rng)
    images = rng.random((5, net.input_side, net.input_side))
    y = np.array([1, 0, 1, 1, 0])
    window = batch_tensor(_images_as_samples(images), net)
    assert window.shape[2] == window.shape[3] < net.input_side
    full = backward(net, forward(net, images[:, None])[1], y)
    cut = backward(net, forward(net, window)[1], y)
    assert sorted(cut) == sorted(full) == net.trainable_params()
    for key, g in full.items():
        if net.layers[key[0]].kind == "conv2d":
            assert rel_error(cut[key], g) <= 1e-12, key
        else:
            assert cut[key].tobytes() == g.tobytes(), key


@pytest.mark.parametrize("kind", ["relu", "maxpool2", "sigmoid_head"])
def test_parameterless_layer_input_gradients(kind):
    rng = np.random.default_rng(8)
    if kind == "relu":
        layer, shape = Relu(), (2, 2, 4, 4)
        # keep inputs off the kink so central differences are valid
        x = rng.uniform(0.02, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    elif kind == "maxpool2":
        layer, shape = MaxPool2(), (2, 2, 4, 4)
        x = rng.random(shape)
    else:
        layer, shape = SigmoidHead(), (2, 1)
        x = rng.uniform(-2.0, 2.0, shape)
    c = rng.random(layer.forward(x, False, None)[0].shape)

    def objective(flat):
        y, _ = layer.forward(flat.reshape(shape), False, None)
        return float(np.sum(c * y))

    _, ctx = layer.forward(x, False, None)
    dx, _ = layer.backward(ctx, c, False)
    numeric = fd_gradient(objective, x.ravel().copy())
    assert rel_error(dx.ravel(), numeric) <= 1e-4


@pytest.mark.parametrize("ksize", [3, 5])
def test_conv_input_gradient_matches_finite_differences(ksize):
    rng = np.random.default_rng(20 + ksize)
    layer = Conv2d(3, 4, ksize, rng)
    layer.params["b"][:] = rng.standard_normal(4)
    x = rng.standard_normal((2, 3, 9, 8))  # H != W catches a swapped axis
    y, ctx = layer.forward(x, False, None)
    c = rng.standard_normal(y.shape)

    def objective(flat):
        return float(np.sum(c * layer.forward(flat.reshape(x.shape), False, None)[0]))

    dx, grads = layer.backward(ctx, c, True)
    assert dx.shape == x.shape
    assert rel_error(dx.ravel(), fd_gradient(objective, x.ravel().copy())) <= 1e-4
    no_dx, same = layer.backward(ctx, c, True, need_input_grad=False)
    assert no_dx is None
    assert sorted(same) == sorted(grads)
    assert all(same[name].tobytes() == grads[name].tobytes() for name in grads)


def _chunked_conv(rng):
    """A conv layer and a batch that fills three im2col chunks and one more image."""
    layer = Conv2d(2, 3, 3, rng)
    layer.params["b"][:] = rng.standard_normal(3)
    per_chunk = microcnn.IM2COL_VALUES // (2 * 3 * 3 * 10 * 9)
    assert per_chunk >= 2
    return layer, rng.standard_normal((3 * per_chunk + 1, 2, 12, 11))


def _loop_conv(layer, x):
    """Valid convolution as a sum of shifted inputs, one kernel tap at a time."""
    w, k = layer.params["w"], layer.ksize
    oh, ow = x.shape[2] - k + 1, x.shape[3] - k + 1
    y = np.zeros((len(x), layer.out_ch, oh, ow)) + layer.params["b"][:, None, None]
    for o, c, di, dj in np.ndindex(layer.out_ch, layer.in_ch, k, k):
        y[:, o] += w[o, c, di, dj] * x[:, c, di : di + oh, dj : dj + ow]
    return y


def test_conv_chunks_match_a_loop_reference_and_each_image_alone():
    layer, x = _chunked_conv(np.random.default_rng(30))
    y, _ = layer.forward(x, False, None)
    assert np.max(np.abs(y - _loop_conv(layer, x))) <= 1e-12
    for i in range(len(x)):
        assert y[i].tobytes() == layer.forward(x[i : i + 1], False, None)[0][0].tobytes(), i


def test_conv_weight_gradient_through_the_chunks_matches_finite_differences():
    rng = np.random.default_rng(31)
    layer, x = _chunked_conv(rng)
    y, ctx = layer.forward(x, False, None)
    c = rng.standard_normal(y.shape)

    def objective(theta):
        old = layer.params["w"].copy()
        layer.params["w"][...] = theta
        value = float(np.sum(c * layer.forward(x, False, None)[0]))
        layer.params["w"][...] = old
        return value

    _, grads = layer.backward(ctx, c, True, need_input_grad=False)
    assert rel_error(grads["w"], fd_gradient(objective, layer.params["w"].copy())) <= 1e-4
    assert np.allclose(grads["b"], c.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)


def test_conv_forward_and_weight_gradient_peak_below_the_band_kernel():
    # convC's trainable conv at desk scale.  The per-kernel-row kernel this
    # replaced peaked at 3,163,625 traced bytes here: the output, one
    # (N, C*K, OH*OW) band and one GEMM product the size of the output.
    rng = np.random.default_rng(32)
    layer, x = Conv2d(1, 8, 5, rng), rng.random((24, 1, 32, 32))
    dy = rng.standard_normal((24, 8, 28, 28))
    tracemalloc.start()
    try:
        _, ctx = layer.forward(x, True, None)
        layer.backward(ctx, dy, True, need_input_grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_163_625


def _argmax_pool(x, dy):
    """2x2/2 max pooling by argmax over each window, and its gradient routing."""
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    windows = (x[:, :, : 2 * oh, : 2 * ow].reshape(n, c, oh, 2, ow, 2)
               .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4))
    idx = windows.argmax(axis=-1)
    y = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    scatter = np.zeros((n, c, oh, ow, 4))
    np.put_along_axis(scatter, idx[..., None], dy[..., None], axis=-1)
    dx = np.zeros(x.shape)
    dx[:, :, : 2 * oh, : 2 * ow] = (scatter.reshape(n, c, oh, ow, 2, 2)
                                    .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * oh, 2 * ow))
    return y, dx


_Z = -0.0
_POOL_CASES = {
    "all-zero": np.zeros((2, 3, 4, 6)),
    "signed-zero-ties": np.array([[[[_Z, 0.0, 0.0, _Z, _Z, _Z],
                                    [0.0, _Z, _Z, 0.0, _Z, -1.0],
                                    [-2.0, _Z, -1.0, -1.0, 0.0, 0.0],
                                    [0.0, -3.0, -1.0, _Z, 0.0, 0.0]]]]),
    "repeated-maxima": np.array([[[[1.0, 1.0, 0.2, 0.7, 0.5, 0.3],
                                   [0.5, 1.0, 0.7, 0.7, 0.5, 0.5],
                                   [0.1, 0.4, 2.0, 1.0, 3.0, 3.0],
                                   [0.4, 0.4, 2.0, 2.0, 3.0, 3.0]]]]),
    "odd-trailing": np.random.default_rng(30).choice([-1.0, _Z, 0.0, 0.5, 1.0], (2, 2, 5, 7)),
}


@pytest.mark.parametrize("case", sorted(_POOL_CASES))
def test_maxpool_matches_argmax_bit_for_bit(case):
    x = _POOL_CASES[case]
    layer = MaxPool2()
    y, ctx = layer.forward(x, False, None)
    dy = np.random.default_rng(31).standard_normal(y.shape)  # both signs
    dx, _ = layer.backward(ctx, dy, False)
    ref_y, ref_dx = _argmax_pool(x, dy)
    # The gradient goes to the first maximum of each window, as argmax picks
    # it; every other element, trailing rows and columns included, gets +0.0.
    assert dx.tobytes() == ref_dx.tobytes()
    assert not np.signbit(dx[dx == 0]).any()
    # np.maximum returns either zero of a +0.0/-0.0 tie, so the forward value
    # is bit-exact up to the sign of a zero maximum.
    assert (y + 0.0).tobytes() == (ref_y + 0.0).tobytes()
    if not np.signbit(x[x == 0]).any():
        assert y.tobytes() == ref_y.tobytes()


def test_dropout_gradient_with_frozen_mask():
    rng_mask = np.random.default_rng(9)
    layer = Dropout(0.4)
    x = np.random.default_rng(10).random((3, 20))
    _, ctx = layer.forward(x, True, rng_mask)
    c = np.random.default_rng(11).random((3, 20))

    def objective(flat):
        return float(np.sum(c * flat.reshape(3, 20) * ctx))

    dx, _ = layer.backward(ctx, c, False)
    numeric = fd_gradient(objective, x.ravel().copy())
    assert rel_error(dx.ravel(), numeric) <= 1e-6


def test_adam_frozen_net_is_identity():
    rng = np.random.default_rng(12)
    net = tiny_net(rng)
    for i in net.parameterized():
        net.layers[i].trainable = False
    before = param_digest(net)
    x = rng.random((2, 1, 10, 10))
    _, cache = forward(net, x)
    grads = backward(net, cache, np.array([1, 0]))
    adam_step(net, grads, 1e-2)
    assert param_digest(net) == before


def test_adam_first_step_magnitude():
    # With constant gradient g, the first Adam step is lr * g / (|g| + eps).
    rng = np.random.default_rng(13)
    net = tiny_net(rng)
    key = (8, "b")  # final dense bias, a single scalar
    g = 0.37
    grads = {k: np.zeros_like(net.layers[k[0]].params[k[1]]) for k in net.trainable_params()}
    grads[key] = np.array([g])
    before = net.layers[8].params["b"].copy()
    adam_step(net, grads, lr=1e-3)
    delta = net.layers[8].params["b"][0] - before[0]
    assert delta == pytest.approx(-1e-3 * g / (abs(g) + 1e-8), rel=1e-12)


def test_adam_zero_lr_is_identity():
    rng = np.random.default_rng(14)
    net = tiny_net(rng)
    before = param_digest(net)
    x = rng.random((2, 1, 10, 10))
    _, cache = forward(net, x)
    adam_step(net, backward(net, cache, np.array([1, 0])), 0.0)
    assert param_digest(net) == before


def test_adam_rejects_non_finite_gradient_with_path():
    rng = np.random.default_rng(15)
    net = tiny_net(rng)
    x = rng.random((2, 1, 10, 10))
    _, cache = forward(net, x)
    grads = backward(net, cache, np.array([1, 0]))
    key = next(iter(grads))
    grads[key][...] = np.nan
    with pytest.raises(NumericError, match=f"layer{key[0]}"):
        adam_step(net, grads, 1e-3)


def reference_adam_step(net, state, grads, lr):
    """Adam one parameter at a time, keeping each one's moments and step
    count in `state`, {(layer, name): {"m", "v", "t"}}."""
    for key in net.trainable_params():
        i, name = key
        g = grads[key]
        slot = state.setdefault(key, {"m": np.zeros_like(g), "v": np.zeros_like(g), "t": 0})
        slot["t"] += 1
        slot["m"] = microcnn.ADAM_BETA1 * slot["m"] + (1 - microcnn.ADAM_BETA1) * g
        slot["v"] = microcnn.ADAM_BETA2 * slot["v"] + (1 - microcnn.ADAM_BETA2) * g * g
        m_hat = slot["m"] / (1 - microcnn.ADAM_BETA1 ** slot["t"])
        v_hat = slot["v"] / (1 - microcnn.ADAM_BETA2 ** slot["t"])
        net.layers[i].params[name] -= lr * m_hat / (np.sqrt(v_hat) + microcnn.ADAM_EPS)


def test_adam_matches_a_per_parameter_reference_bit_for_bit_across_phases():
    rng = np.random.default_rng(17)
    net, reference = (build_micronet("convA", 16, 0.0, np.random.default_rng(18)) for _ in "ab")
    state = {}
    # Freeze, fine-tune the top conv, then both convs, then freeze again: the
    # head's step count runs on while each conv's starts when it is unfrozen.
    for unfreeze_top, steps, lr in ((0, 3, 1e-2), (1, 3, 2e-3), (2, 2, 1e-3), (0, 2, 1e-2)):
        set_trainability(net, unfreeze_top)
        set_trainability(reference, unfreeze_top)
        for _ in range(steps):
            grads = {(i, name): rng.standard_normal(net.layers[i].params[name].shape)
                     * 10.0 ** rng.uniform(-6, 2) for i, name in net.trainable_params()}
            adam_step(net, {key: g.copy() for key, g in grads.items()}, lr)
            reference_adam_step(reference, state, grads, lr)
            assert param_digest(net) == param_digest(reference)
    assert net.steps == {
        key: slot["t"] for key, slot in state.items()
    } == {(0, "b"): 2, (0, "w"): 2, (3, "b"): 5, (3, "w"): 5,
          (7, "b"): 10, (7, "w"): 10, (10, "b"): 10, (10, "w"): 10}


def random_adam_steps(net, rng, steps, lr):
    for _ in range(steps):
        adam_step(net, {(i, name): rng.standard_normal(net.layers[i].params[name].shape)
                        for i, name in net.trainable_params()}, lr)


@pytest.mark.parametrize("round_trip", [lambda net: pickle.loads(pickle.dumps(net)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_net_copied_partway_through_training_ends_bit_identical(round_trip):
    def train(copy_after_phase1):
        net = build_micronet("convA", 16, 0.0, np.random.default_rng(48))
        rng = np.random.default_rng(49)
        set_trainability(net, 0)
        random_adam_steps(net, rng, 3, 1e-2)
        if copy_after_phase1:
            net = round_trip(net)
        random_adam_steps(net, rng, 3, 1e-2)
        set_trainability(net, 1)
        random_adam_steps(net, rng, 3, 1e-3)
        return net

    copied, kept = train(True), train(False)
    assert copied.flat.tobytes() == kept.flat.tobytes()
    assert param_digest(copied) == param_digest(kept)
    assert copied.moments.tobytes() == kept.moments.tobytes()
    assert copied.steps == kept.steps


def test_a_pickled_net_carries_each_parameter_once():
    """Only `flat` carries the parameter values; the layers' views are not
    pickled as arrays of their own, and the copy keeps the net's state."""
    net = build_micronet("convA", 32, 0.25, np.random.default_rng(52))
    set_trainability(net, 1)
    random_adam_steps(net, np.random.default_rng(53), 2, 1e-2)
    with_views = len(pickle.dumps(vars(net)))  # the net's fields, views included
    assert with_views - len(pickle.dumps(net)) >= net.flat.nbytes
    assert all(np.shares_memory(net.flat, net.layers[i].params[name]) for i, name in net.spans)
    copied = pickle.loads(pickle.dumps(net))
    assert microcnn._header(copied) == microcnn._header(net)  # kinds, sizes, rates, trainable
    assert copied.version == net.version == 2
    assert copied.steps == net.steps
    assert copied.flat.tobytes() == net.flat.tobytes()
    assert copied.moments.tobytes() == net.moments.tobytes()


def test_unpickled_and_loaded_nets_train_their_layer_arrays(tmp_path):
    net = build_micronet("convB", 16, 0.25, np.random.default_rng(50))
    save_checkpoint(net, tmp_path / "net.ckpt")
    for other in (pickle.loads(pickle.dumps(net)), load_checkpoint(tmp_path / "net.ckpt")):
        params = [other.layers[i].params[name] for i, name in other.spans]
        assert all(np.shares_memory(other.flat, p) for p in params)
        before = [p.copy() for p in params]
        set_trainability(other, 2)
        adam_step(other, {key: np.ones(p.shape) for key, p in zip(other.spans, params)}, 1e-2)
        assert all((p < b).all() for p, b in zip(params, before))


def test_adam_step_rejects_a_trainable_set_that_is_not_a_trailing_slice():
    net = build_micronet("convA", 16, 0.0, np.random.default_rng(51))
    set_trainability(net, 2)
    random_adam_steps(net, np.random.default_rng(52), 2, 1e-2)
    net.layers[7].trainable = False  # the first dense layer, between trainable convs and head
    flat, moments, steps = net.flat.copy(), net.moments.copy(), dict(net.steps)
    grads = {(i, name): np.ones(net.layers[i].params[name].shape)
             for i, name in net.trainable_params()}
    with pytest.raises(ValueError, match="trailing slice"):
        adam_step(net, grads, 1e-2)
    assert net.flat.tobytes() == flat.tobytes()
    assert net.moments.tobytes() == moments.tobytes()
    assert net.steps == steps


@pytest.mark.parametrize("arch", microcnn.BASE_ARCHITECTURES)
def test_set_trainability_leaves_a_trailing_slice_trainable(arch):
    net = build_micronet(arch, 32, 0.25, np.random.default_rng(53))
    keys = list(net.spans)
    backbone = [i for i in net.parameterized() if i < net.head_start]
    for unfreeze_top in range(len(backbone) + 1):
        set_trainability(net, unfreeze_top)
        trainable = net.trainable_params()
        assert trainable == keys[len(keys) - len(trainable) :]
        assert len({i for i, _ in trainable} - {*backbone}) == 2  # the two dense layers
        assert len({i for i, _ in trainable} & {*backbone}) == unfreeze_top


def test_stale_cache_rejected():
    rng = np.random.default_rng(16)
    net = tiny_net(rng)
    x = rng.random((2, 1, 10, 10))
    _, cache = forward(net, x)
    adam_step(net, backward(net, cache, np.array([1, 0])), 1e-3)
    with pytest.raises(ValueError, match="stale"):
        backward(net, cache, np.array([1, 0]))


def make_config(**kw):
    defaults = dict(
        seed=0, input_side=12, batch_size=8, dropout_rate=0.0, folds=2,
        freeze_epochs=2, finetune_epochs=2, head_learning_rate=1e-2,
        learning_rate=1e-3,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_two_phase_zero_epochs_returns_initial_net():
    rng = np.random.default_rng(17)
    net = tiny_net(rng, side=12)
    before = param_digest(net)
    samples = make_blob_samples(np.random.default_rng(18), 8)
    net, history = train_two_phase(
        net, samples, [], make_config(freeze_epochs=0, finetune_epochs=0),
        np.random.default_rng(19),
    )
    assert param_digest(net) == before
    assert history == []


def test_two_phase_freezing_contract():
    rng = np.random.default_rng(20)
    net = tiny_net(rng, side=12)
    backbone = [i for i in net.parameterized() if i < net.head_start]
    backbone_before = param_digest(net, backbone)
    samples = make_blob_samples(np.random.default_rng(21), 12)
    net, _ = train_two_phase(
        net, samples, [], make_config(finetune_epochs=0, freeze_epochs=3),
        np.random.default_rng(22),
    )
    # phase 1 only: every backbone parameter bit-identical
    assert param_digest(net, backbone) == backbone_before

    # phase 2 with unfreeze_top=1: only the last backbone conv changes
    frozen_prefix = backbone[:-1]
    prefix_before = param_digest(net, frozen_prefix)
    last_before = param_digest(net, [backbone[-1]])
    net, _ = train_two_phase(
        net, samples, [], make_config(freeze_epochs=0, finetune_epochs=3, unfreeze_top=1),
        np.random.default_rng(23),
    )
    assert param_digest(net, frozen_prefix) == prefix_before
    assert param_digest(net, [backbone[-1]]) != last_before


def test_two_phase_rejects_empty_training_set():
    net = tiny_net(np.random.default_rng(24), side=12)
    with pytest.raises(DataError, match="empty"):
        train_two_phase(net, [], [], make_config(), np.random.default_rng(25))


def test_training_is_bit_deterministic():
    samples = make_blob_samples(np.random.default_rng(26), 10)

    def run():
        net = tiny_net(np.random.default_rng(27), dropout=0.25, side=12)
        net, _ = train_two_phase(net, samples, [], make_config(dropout_rate=0.25),
                                 np.random.default_rng(28))
        return param_digest(net)

    assert run() == run()


def reference_two_phase(net, train, val, config, rng):
    """The training loop with no stored prefix: every batch runs the whole
    stack from its images, cut to the window the head sees as
    train_two_phase cuts them, with the same rng draws, and each epoch
    scores `val` through `predict_proba`."""
    labels = np.array([s.label for s in train], dtype=np.int64)
    val_y = np.array([s.label for s in val], dtype=np.int64)
    losses, val_losses = [], []
    for unfreeze_top, epochs, lr in (
        (0, config.freeze_epochs, config.head_learning_rate),
        (config.unfreeze_top, config.finetune_epochs, config.learning_rate),
    ):
        set_trainability(net, unfreeze_top)
        for _ in range(epochs):
            order = rng.permutation(len(train))
            epoch_losses = []
            for start in range(0, len(train), config.batch_size):
                take = order[start : start + config.batch_size]
                batch = batch_tensor([train[i] for i in take], net)
                probs, cache = forward(net, batch, training=True, rng=rng)
                epoch_losses.append(mean_bce(probs, labels[take]))
                adam_step(net, backward(net, cache, labels[take]), lr)
            losses.append(float(np.mean(epoch_losses)))
            val_losses.append(mean_bce(predict_proba(net, val, config.batch_size), val_y))
    return net, losses, val_losses


@pytest.mark.parametrize("arch", microcnn.BASE_ARCHITECTURES)
@pytest.mark.parametrize(
    "unfreeze_top, freeze_epochs",
    [(0, 2), (1, 2), (2, 2), (1, 0)],
    ids=["unfreeze0", "unfreeze1", "unfreeze2", "unfreeze1-nofreeze"],
)
def test_training_matches_a_full_forward_loop_bit_for_bit(arch, unfreeze_top, freeze_epochs):
    samples = make_blob_samples(np.random.default_rng(40), 11, side=16)
    config = make_config(input_side=16, batch_size=4, dropout_rate=0.25,
                         freeze_epochs=freeze_epochs, finetune_epochs=2,
                         unfreeze_top=unfreeze_top)

    def fresh():
        return build_micronet(arch, 16, 0.25, np.random.default_rng(41))

    val = make_blob_samples(np.random.default_rng(46), 5, side=16)  # batches of 4 and 1
    net, history = train_two_phase(fresh(), samples, val, config, np.random.default_rng(42))
    ref, ref_losses, ref_val = reference_two_phase(fresh(), samples, val, config,
                                                   np.random.default_rng(42))
    assert [h["train_loss"] for h in history] == ref_losses
    assert np.array([h["val_loss"] for h in history]).tobytes() == np.array(ref_val).tobytes()
    assert param_digest(net) == param_digest(ref)
    assert net.version == ref.version == (freeze_epochs + 2) * 3


def test_frozen_prefix_runs_once_per_training_phase():
    net = tiny_net(np.random.default_rng(43), side=12)
    set_trainability(net, 0)  # phase 1: layers 0-4 are frozen and dropout-free
    calls = {0: 0, net.head_start: 0}
    for i in calls:
        def counting(x, training, rng, i=i, rule=net.layers[i].forward):
            calls[i] += 1
            return rule(x, training, rng)

        net.layers[i].forward = counting
    samples = make_blob_samples(np.random.default_rng(44), 10)
    val = make_blob_samples(np.random.default_rng(47), 5)
    epochs, batch_size = 3, 4
    microcnn._run_epochs(net, samples, val, epochs, 1e-2, batch_size,
                         np.random.default_rng(45), "freeze", [])
    batches = -(-len(samples) // batch_size) + -(-len(val) // batch_size)
    assert calls == {0: batches, net.head_start: epochs * batches}


def test_history_records_losses():
    samples = make_blob_samples(np.random.default_rng(29), 10)
    net = tiny_net(np.random.default_rng(30), side=12)
    _, history = train_two_phase(net, samples[:8], samples[8:], make_config(),
                                 np.random.default_rng(31))
    assert len(history) == 4
    assert {h["phase"] for h in history} == {"freeze", "finetune"}
    assert all("train_loss" in h and "val_loss" in h for h in history)


def test_final_training_loss_drops_on_separable_data():
    samples = make_blob_samples(np.random.default_rng(32), 16)
    net = tiny_net(np.random.default_rng(33), side=12)
    _, history = train_two_phase(
        net, samples, [], make_config(freeze_epochs=8, finetune_epochs=8), np.random.default_rng(34)
    )
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(35)
    net = build_micronet("convB", 32, 0.5, rng)
    net.layers[0].trainable = False
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.architecture_id == net.architecture_id
    assert loaded.head_start == net.head_start
    assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
    assert loaded.layers[0].trainable is False
    assert param_digest(loaded) == param_digest(net)
    second = tmp_path / "net2.ckpt"
    save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_every_net_built_at_a_side_it_takes_loads_from_its_checkpoint(tmp_path):
    """The loader's input-side rule rejects no net that the library or the
    tests build: each layout at every side from 9 to 40 px, and tiny_net."""
    nets = [tiny_net(np.random.default_rng(0), side=side) for side in (10, 11, 12)]
    for arch in ("convA", "convB", "convC"):
        for side in range(9, 41):
            try:
                nets.append(build_micronet(arch, side, 0.25, np.random.default_rng(side)))
            except ConfigError:  # too small for this layout
                assert side < 12
    for net in nets:
        save_checkpoint(net, tmp_path / "net.ckpt")
        assert load_checkpoint(tmp_path / "net.ckpt").input_side == net.input_side


def test_checkpoint_header_line_is_pinned(tmp_path):
    # Checkpoints written by earlier versions must keep loading, so the
    # header's keys, their order and its spacing may not drift.
    net = build_micronet("convC", 24, 0.25, np.random.default_rng(0))
    net.layers[-2].trainable = False
    save_checkpoint(net, tmp_path / "net.ckpt")
    line = (tmp_path / "net.ckpt").read_bytes().split(b"\n", 1)[0]
    assert line == (
        b'{"architecture_id": "convC", "input_side": 24, "head_start": 5, "layers": ['
        b'{"kind": "conv2d", "in_ch": 1, "out_ch": 8, "ksize": 5, "trainable": true}, '
        b'{"kind": "relu"}, {"kind": "maxpool2"}, {"kind": "maxpool2"}, {"kind": "maxpool2"}, '
        b'{"kind": "dense", "in_features": 32, "out_features": 16, "trainable": true}, '
        b'{"kind": "relu"}, {"kind": "dropout", "rate": 0.25}, '
        b'{"kind": "dense", "in_features": 16, "out_features": 1, "trainable": false}, '
        b'{"kind": "sigmoid_head"}]}'
    )


def test_checkpoint_bytes_are_pinned(tmp_path):
    # The whole file, parameter block included, so the parameter order of
    # the block cannot drift either.
    save_checkpoint(build_micronet("convA", 16, 0.25, np.random.default_rng(3)), tmp_path / "n.ckpt")
    digest = hashlib.sha256((tmp_path / "n.ckpt").read_bytes()).hexdigest()
    assert digest == "58eff448e23bc862294e42415033220ad98d1cce1f85e80577a5dc756706a0e0"


@pytest.fixture(scope="module")
def clean_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "convC.ckpt"
    save_checkpoint(build_micronet("convC", 12, 0.25, np.random.default_rng(41)), path)
    return path.read_bytes()


def _with_header(raw, change):
    line, _, block = raw.partition(b"\n")
    header = json.loads(line)
    change(header)
    return json.dumps(header).encode() + b"\n" + block


def _set(keys, value):
    def change(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return change


MALFORMED_CHECKPOINTS = {
    "no newline": lambda raw: raw[: raw.index(b"\n")],
    "header not utf-8": lambda raw: b"\xff" + raw,
    "header not json": lambda raw: b"{" + raw,
    "header not an object": lambda raw: b"[]\n" + raw.partition(b"\n")[2],
    "missing key": lambda raw: _with_header(raw, lambda h: h.pop("head_start")),
    "unknown key": lambda raw: _with_header(raw, _set(["stride"], 2)),
    "layers not a list": lambda raw: _with_header(raw, _set(["layers"], 3)),
    "unknown layer kind": lambda raw: _with_header(raw, _set(["layers", 1, "kind"], "tanh")),
    "missing layer field": lambda raw: _with_header(raw, lambda h: h["layers"][0].pop("ksize")),
    "unknown layer field": lambda raw: _with_header(raw, _set(["layers", 0, "stride"], 2)),
    "negative channels": lambda raw: _with_header(raw, _set(["layers", 0, "out_ch"], -8)),
    "fractional kernel": lambda raw: _with_header(raw, _set(["layers", 0, "ksize"], 2.5)),
    "dropout rate above 1": lambda raw: _with_header(raw, _set(["layers", 7, "rate"], 2.0)),
    "trainable not a bool": lambda raw: _with_header(raw, _set(["layers", 0, "trainable"], "no")),
    "input side a string": lambda raw: _with_header(raw, _set(["input_side"], "12")),
    "input side too large to resize to": lambda raw: _with_header(raw, _set(["input_side"], 2**62)),
    "input side the head does not take": lambda raw: _with_header(raw, _set(["input_side"], 64)),
    "head start out of range": lambda raw: _with_header(raw, _set(["head_start"], 99)),
    "no sigmoid head": lambda raw: _with_header(raw, lambda h: h["layers"].pop()),
    "zero kernel": lambda raw: resized_checkpoint(raw, 0, "ksize", 0),
    "zero in channels": lambda raw: resized_checkpoint(raw, 0, "in_ch", 0),
    "zero out channels": lambda raw: resized_checkpoint(raw, 0, "out_ch", 0),
    "zero dense inputs": lambda raw: resized_checkpoint(raw, 5, "in_features", 0),
    "zero dense outputs": lambda raw: resized_checkpoint(raw, 8, "out_features", 0),
    "boolean size": lambda raw: resized_checkpoint(raw, 8, "out_features", True),
    "short parameter block": lambda raw: raw[:-8],
    "trailing bytes": lambda raw: raw + b"\0",
}


@pytest.mark.parametrize("damage", list(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_raises_data_error(clean_checkpoint, tmp_path, damage):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MALFORMED_CHECKPOINTS[damage](clean_checkpoint))
    with pytest.raises(DataError, match="checkpoint"):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, 2**16), pos=st.integers(0, 2**16), flip=st.integers(0, 255))
def test_damaged_checkpoint_loads_or_raises_data_error(
    clean_checkpoint, tmp_path_factory, cut, pos, flip
):
    raw = bytearray(clean_checkpoint[: cut % (len(clean_checkpoint) + 1)])
    if raw:
        raw[pos % len(raw)] ^= flip
    path = tmp_path_factory.mktemp("fuzz") / "damaged.ckpt"
    path.write_bytes(bytes(raw))
    try:
        net = load_checkpoint(path)
    except DataError:
        return
    assert isinstance(net, MicroNet)


def test_registered_architectures_build_and_stay_small():
    rng = np.random.default_rng(36)
    for k, arch in enumerate(microcnn.architecture_ids(5)):
        net = build_micronet(arch, 32, 0.5, rng)
        n_params = sum(
            net.layers[i].params[name].size
            for i in net.parameterized()
            for name in net.layers[i].params
        )
        assert n_params <= 100_000
        p, _ = forward(net, np.zeros((1, 1, 32, 32)))
        assert 0.0 < p[0] < 1.0
    assert len(set(microcnn.architecture_ids(5))) == 5


def test_blob_dataset_reaches_90_percent_validation_accuracy():
    # Established empirically with the repo's seeded generator: a two-conv
    # micro-net clears 90% validation accuracy within 30 epochs.
    from hybridens.data import load_image_dir, split_dataset
    from hybridens.seeding import rng_for
    from hybridens.synth import SynthSpec, synth_data
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        synth_data(SynthSpec(subjects_per_class=20, slices_per_subject=4,
                             image_side=32, seed=5), tmp)
        samples = load_image_dir(tmp, 32)
        split = split_dataset(samples, (0.6, 0.2, 0.2), seed=5)
        train = [samples[i] for i in split.train_ids]
        val = [samples[i] for i in split.val_ids]
        config = RunConfig(
            seed=5, input_side=32, dropout_rate=0.25, freeze_epochs=10,
            finetune_epochs=15, head_learning_rate=1e-2, learning_rate=2e-3,
        )
        net = build_micronet("convA", 32, 0.25, rng_for(5, "init", "convA"))
        net, _ = train_two_phase(net, train, val, config, rng_for(5, "train", "convA"))
        preds = predict_proba(net, val)
        labels = np.array([s.label for s in val])
        acc = np.mean((preds > 0.5).astype(int) == labels)
        assert acc >= 0.9
