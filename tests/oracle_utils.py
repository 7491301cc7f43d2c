"""Independent oracles shared across the test suite.

These deliberately avoid the library's own code paths: AUC by brute-force
pair counting, gradients by central finite differences, simplex optima by
grid search and by their optimality conditions, PNG files by a minimal
encoder of their own (all five filter types, 8 and 16 bits), checkpoint
parameter blocks by their header's sizes.  Expected values asserted
elsewhere were computed with these.
`weight_iterates`, `recording_learner` and `stand_in_nets` are the
exceptions: they watch the library's own weight fit and out-of-fold jobs.
"""

from __future__ import annotations

import functools
import json
import pickle
import signal
import struct
import zlib
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np

from hybridens import microcnn, pipeline, weighting
from hybridens.config import RunConfig


def mw_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney statistic: fraction of pos/neg pairs ranked correctly, ties half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def fd_gradient(f, theta: np.ndarray, h_scale: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at theta, h = h_scale*max(1,|t|)."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        h = h_scale * max(1.0, abs(theta[idx]))
        bumped = theta.copy()
        bumped[idx] = theta[idx] + h
        fp = f(bumped)
        bumped[idx] = theta[idx] - h
        fm = f(bumped)
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative disagreement between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def grid_simplex2_bce(preds: np.ndarray, labels: np.ndarray, step: float = 1e-3):
    """Best mean BCE over the K=2 simplex by grid search on the first weight."""
    best_loss, best_a = np.inf, None
    y = np.asarray(labels, dtype=np.float64)
    for a1 in np.arange(0.0, 1.0 + step / 2, step):
        q = np.clip(preds @ np.array([a1, 1.0 - a1]), 1e-12, 1 - 1e-12)
        loss = float(-np.mean(y * np.log(q) + (1 - y) * np.log(1 - q)))
        if loss < best_loss:
            best_loss, best_a = loss, a1
    return best_loss, best_a


def simplex_kkt_gap(alpha, preds, labels) -> float:
    """How far simplex weights are from minimising mean BCE (clipped as the
    library clips): the largest gradient entry where alpha > 0 less the
    smallest entry, 0 at the optimum.  The gradient is written out here, as
    d(-log L)/dq per row, with L the likelihood of the row's label."""
    alpha = np.asarray(alpha, dtype=np.float64)
    assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-12, alpha
    q = np.clip(np.asarray(preds) @ alpha, 1e-12, 1 - 1e-12)
    per_row = np.where(np.asarray(labels) == 1, -1.0 / q, 1.0 / (1.0 - q))
    grad = np.asarray(preds).T @ per_row / len(per_row)
    return float(grad[alpha > 0].max() - grad.min())


def logistic_objective(w, b, feats, y, l2: float) -> float:
    """Mean BCE of sigmoid(feats w + b) plus (l2/2)||w||^2, through logaddexp."""
    z = feats @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * float(w @ w))


def logistic_objective_gradient(w, b, feats, y, l2: float) -> np.ndarray:
    """Gradient of `logistic_objective` as one vector: the w entries, then b."""
    r = np.exp(-np.logaddexp(0.0, -(feats @ w + b))) - y
    return np.append(feats.T @ r / len(y) + l2 * w, np.mean(r))


def weight_iterates(preds, labels):
    """`optimize_weights(preds, labels)` and the weights of every step: the
    fit evaluates `bce_gradient` once per step at the current weights, so
    the iterates are those arguments, then the returned alpha."""
    seen, gradient = [], weighting.bce_gradient

    def recording(alpha, *args):
        seen.append(np.array(alpha))
        return gradient(alpha, *args)

    weighting.bce_gradient = recording
    try:
        fit = weighting.optimize_weights(preds, labels)
    finally:
        weighting.bce_gradient = gradient
    return fit, seen + [fit.alpha]


def recording_learner(learner, calls: list):
    """`learner`, appending (fold, fit ids, holdout ids) to `calls` on each call."""

    def recording(fold, fit_samples, holdout_samples):
        calls.append((fold, {s.sample_id for s in fit_samples},
                      {s.sample_id for s in holdout_samples}))
        return learner(fold, fit_samples, holdout_samples)

    return recording


def fit_predict_of(*learners):
    """The `fit_predict` of `stacking.oof_predictions` that runs each learner
    `(fold, fit_samples, holdout_samples) -> probabilities` on each split, in
    fold order and learner order, and makes learner k column k."""

    def fit_predict(splits):
        return [np.column_stack([learner(*split) for learner in learners]) for split in splits]

    return fit_predict


def stand_in_nets(monkeypatch, learners, samples, folds):
    """`pipeline._fit_predict_oof` of a 16 px config with K = len(learners),
    whose nets are stand-ins: the net of architecture k, trained on `fit`,
    predicts `learners[k](fold, fit, holdout)` for the holdout of `fold`.
    Everything else is the pipeline's: its jobs, their keys, `_train_net`
    and `pool_map`.  The patches reach pool workers only when they fork."""
    arch_ids = microcnn.architecture_ids(len(learners))
    fold_of = {samples[i].sample_id: fold for i, fold in folds.fold_of.items()}

    def train(net, fit, val, config, rng):
        return SimpleNamespace(architecture_id=net.architecture_id, fit=fit), []

    def predict(net, holdout, batch_size):
        learner = learners[arch_ids.index(net.architecture_id)]
        return learner(fold_of[holdout[0].sample_id], net.fit, holdout)

    monkeypatch.setattr(microcnn, "train_two_phase", train)
    monkeypatch.setattr(microcnn, "predict_proba", predict)
    return functools.partial(pipeline._fit_predict_oof, RunConfig(K=len(learners), input_side=16))


def assert_holdouts_are_folds(calls: list, samples, train_ids, folds) -> None:
    """Each recorded holdout is exactly its fold's training samples, and each
    fit set is the rest of the training samples: the two never overlap."""
    train = {samples[i].sample_id for i in train_ids}
    for fold, fit, held in calls:
        assert held == {samples[i].sample_id for i in train_ids if folds.fold_of[i] == fold}
        assert held and not fit & held and fit | held == train, fold


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that runs each job in this process
    when it is submitted and records each submission in `submitted` as the
    job it names, in submission order.  It runs the pool's initializer here,
    once, as each worker runs it in its own process, but against a stand-in
    glibc handle that records the initializer's `mallopt` calls in
    `libc_calls`, and it keeps the worker state that the initializer sets
    for itself: the allocator, signal handlers and `pipeline._worker_jobs`
    of this process, and so of every later test, stay the caller's.  The
    initializer raises again each signal that `pool_map` has noted so far,
    so a stand-in that sends one sends it after this runs."""

    submitted: list = []
    libc_calls: list = []
    _processes: dict = {}  # no worker process for a stop to end

    def __init__(self, workers, initializer, initargs):
        libc, jobs = pipeline._libc, pipeline._worker_jobs
        handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
        pipeline._libc = SimpleNamespace(mallopt=lambda *args: self.libc_calls.append(args))
        try:
            initializer(*initargs)
            self.worker_jobs = pipeline._worker_jobs
        finally:
            pipeline._libc, pipeline._worker_jobs = libc, jobs
            for sig, handler in handlers.items():
                signal.signal(sig, handler)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, number):
        self.submitted.append(self.worker_jobs[1][number])
        future = Future()
        jobs, pipeline._worker_jobs = pipeline._worker_jobs, self.worker_jobs
        try:
            future.set_result(self.run(fn, number))
        except Exception as exc:  # the future holds it, as a worker's would
            future.set_exception(exc)
        finally:
            pipeline._worker_jobs = jobs
        return future

    def run(self, fn, number):
        return fn(number)


class PicklingPool(RecordingPool):
    """A RecordingPool that sends the initializer's arguments, each
    submission and each result through pickle, as a spawned worker receives
    and returns them, and records the size of each pickled (function, job
    number) pair in `job_bytes`."""

    job_bytes: list = []

    def __init__(self, workers, initializer, initargs):
        super().__init__(workers, initializer, pickle.loads(pickle.dumps(initargs)))

    def run(self, fn, number):
        sent = pickle.dumps((fn, number))
        self.job_bytes.append(len(sent))
        fn, number = pickle.loads(sent)
        return pickle.loads(pickle.dumps(fn(number)))


def resized_checkpoint(raw: bytes, layer: int, field: str, value) -> bytes:
    """The checkpoint `raw` with one layer field set to `value` and a zero
    parameter block of the length the new header implies."""
    header = json.loads(raw.partition(b"\n")[0])
    header["layers"][layer][field] = value
    count = 0
    for spec in header["layers"]:
        if spec["kind"] == "conv2d":
            count += spec["out_ch"] * (spec["in_ch"] * spec["ksize"] ** 2 + 1)
        elif spec["kind"] == "dense":
            count += spec["out_features"] * (spec["in_features"] + 1)
    return json.dumps(header).encode() + b"\n" + bytes(8 * count)


def make_png(array: np.ndarray, filter_type: int = 0, depth: int = 8) -> bytes:
    """Minimal grayscale PNG encoder used as an independent oracle: `array`
    holds the integer samples, `depth` is 8 or 16 bits, and every row is
    written with `filter_type`, 0-4 (None, Sub, Up, Average, Paeth).  Another
    type byte is written over unfiltered bytes, as a damaged file holds it."""
    h, w = array.shape
    bpp = depth // 8
    data = np.asarray(array).astype(">u2" if depth == 16 else np.uint8).view(np.uint8)
    data = data.reshape(h, w * bpp).astype(np.int64)

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + ctype
            + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, depth, 0, 0, 0, 0)
    rows = bytearray()
    up = np.zeros(w * bpp, dtype=np.int64)
    for line in data:
        # The byte bpp places to the left, in this row and in the row above.
        left, up_left = np.zeros_like(line), np.zeros_like(up)
        left[bpp:], up_left[bpp:] = line[:-bpp], up[:-bpp]
        p = left + up - up_left
        pa, pb, pc = abs(p - left), abs(p - up), abs(p - up_left)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, up_left))
        predictor = {1: left, 2: up, 3: (left + up) // 2, 4: paeth}.get(filter_type, 0)
        rows += bytes([filter_type]) + bytes(((line - predictor) % 256).astype(np.uint8))
        up = line
    idat = zlib.compress(bytes(rows))
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )
