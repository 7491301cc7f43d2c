"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import functools
import hashlib
import json
import time

import numpy as np
import pytest

from hybridens import gradcam, microcnn, pipeline
from hybridens.config import RunConfig
from hybridens.data import (
    FoldAssignment,
    LabeledSample,
    load_image_dir,
    load_predictions_csv,
    split_dataset,
)
from hybridens.metrics import auc, roc_curve
from hybridens.microcnn import (
    Conv2d,
    Dense,
    Dropout,
    MaxPool2,
    Relu,
    SigmoidHead,
    build_micronet,
    forward,
    predict_proba,
    train_two_phase,
)
from hybridens.pipeline import run_pipeline
from hybridens.seeding import rng_for
from hybridens.stacking import meta_gradient, oof_predictions, train_meta
from hybridens.synth import SynthSpec, synth_data
from hybridens.weighting import bce_gradient, mean_bce
from oracle_utils import (
    assert_holdouts_are_folds,
    fd_gradient,
    fit_predict_of,
    grid_simplex2_bce,
    logistic_objective,
    logistic_objective_gradient,
    mw_auc,
    recording_learner,
    rel_error,
    simplex_kkt_gap,
    weight_iterates,
)

DESK_CONFIG = dict(
    input_side=32, batch_size=24, dropout_rate=0.25, folds=5, freeze_epochs=10,
    finetune_epochs=15, head_learning_rate=1e-2, learning_rate=2e-3,
)


def _pass(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    data = root / "data"
    synth_data(
        SynthSpec(subjects_per_class=8, slices_per_subject=2, image_side=24, seed=33),
        data,
    )
    config = RunConfig(seed=33, **{**DESK_CONFIG, "folds": 3, "input_side": 24,
                                   "freeze_epochs": 4, "finetune_epochs": 4})
    out = root / "out"
    report = run_pipeline(config, data, out)
    return data, out, config, report


def test_c1_structural_reproduction(small_run):
    # Reference-scale table numbers are not reproducible at desk scale; the
    # artifact reproduces the report's row/column structure instead: three
    # base models, the weighted-averaging row, the stacked row, and the
    # hybrid row, each scored as ACC/SEN/SPE/AUC.
    _, out, _, report = small_run
    models = [row["model"] for row in report.rows]
    assert models == ["convA", "convB", "convC", "weighted", "stacked", "hybrid"]
    for row in report.rows:
        assert set(row) == {"model", "acc", "sen", "spe", "auc"}
    header = (out / "report.txt").read_text().splitlines()[0]
    assert header.split() == ["Model", "ACC", "(%)", "SEN", "(%)", "SPE", "(%)", "AUC"]
    _pass("C1 structural-reproduction", "6 rows x ACC/SEN/SPE/AUC")


def test_c2_fusion_dominance_on_synthetic_data(tmp_path):
    started = time.time()
    margins_acc, margins_auc, gaps = [], [], []
    for seed in (1, 2, 3, 4, 5):
        data, out = tmp_path / f"d{seed}", tmp_path / f"o{seed}"
        synth_data(
            SynthSpec(subjects_per_class=20, slices_per_subject=4, image_side=32, seed=seed),
            data,
        )
        config = RunConfig(seed=seed, **DESK_CONFIG)
        # pyproject.toml makes a weight fit that stops at its step cap an error here too.
        report = run_pipeline(config, data, out)
        acc = {r["model"]: r["acc"] for r in report.rows}
        area = {r["model"]: r["auc"] for r in report.rows}
        base_acc = max(acc[m] for m in ("convA", "convB", "convC"))
        base_auc = max(area[m] for m in ("convA", "convB", "convC"))
        margins_acc.append(acc["hybrid"] - base_acc)
        margins_auc.append(area["hybrid"] - base_auc)
        # The weights the run wrote minimise BCE on the validation table it wrote.
        alpha = json.loads((out / "weights.json").read_text())["alpha"]
        gaps.append(simplex_kkt_gap(alpha, *load_predictions_csv(out / "preds_val.csv")))
    elapsed = time.time() - started
    assert all(m >= -0.005 for m in margins_acc), margins_acc
    assert all(m >= -0.005 for m in margins_auc), margins_auc
    assert max(gaps) <= 1e-9, gaps
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    _pass(
        "C2 fusion-dominance",
        f"worst margins acc {min(margins_acc):+.4f}, auc {min(margins_auc):+.4f}, "
        f"worst weight KKT gap {max(gaps):.1e}, {elapsed:.0f}s",
    )


def _layer_case(kind: str, point: int):
    rng = np.random.default_rng(1000 + point)
    if kind == "conv2d":
        layer = Conv2d(2, 3, 3, rng)
        x = rng.random((2, 2, 6, 6))
    elif kind == "dense":
        layer = Dense(8, 3, rng)
        x = rng.random((3, 8))
    elif kind == "relu":
        layer = Relu()
        x = rng.uniform(0.02, 1.0, (2, 3, 4, 4)) * rng.choice([-1.0, 1.0], (2, 3, 4, 4))
    elif kind == "maxpool2":
        layer = MaxPool2()
        x = rng.random((2, 3, 6, 6))
    elif kind == "dropout":
        layer = Dropout(0.4)
        x = rng.random((3, 20))
    else:
        layer = SigmoidHead()
        x = rng.uniform(-2, 2, (4, 1))
    return layer, x, rng


@pytest.mark.parametrize(
    "kind", ["conv2d", "dense", "relu", "maxpool2", "dropout", "sigmoid_head"]
)
def test_c3_network_gradient_oracles(kind):
    worst = 0.0
    for point in range(20):
        layer, x, _ = _layer_case(kind, point)
        mask_seed = 7000 + point
        if layer.params:
            # parameterized: check d(loss)/d(theta) through a sigmoid readout
            probe = np.random.default_rng(2000 + point).random(
                layer.forward(x, False, None)[0].shape
            )

            def loss():
                y, _ = layer.forward(x, False, None)
                return float(np.sum(probe * y) + 0.5 * np.sum(y * y) / y.size)

            _, ctx = layer.forward(x, False, None)
            y0, _ = layer.forward(x, False, None)
            dy = probe + y0 / y0.size
            _, grads = layer.backward(ctx, dy, True)
            for name, analytic in grads.items():
                P = layer.params[name]

                def f(theta, P=P):
                    old = P.copy()
                    P[...] = theta
                    value = loss()
                    P[...] = old
                    return value

                worst = max(worst, rel_error(analytic, fd_gradient(f, P)))
        else:
            training = kind == "dropout"
            rng_fwd = np.random.default_rng(mask_seed)
            out0, ctx = layer.forward(x, training, rng_fwd)
            probe = np.random.default_rng(2000 + point).random(out0.shape)
            dx, _ = layer.backward(ctx, probe, False)

            def f_input(flat):
                y, _ = layer.forward(
                    flat.reshape(x.shape), training, np.random.default_rng(mask_seed)
                )
                return float(np.sum(probe * y))

            worst = max(worst, rel_error(dx.ravel(), fd_gradient(f_input, x.ravel().copy())))
    assert worst <= 1e-4, f"{kind}: worst rel err {worst:.2e}"
    _pass(f"C3 gradient-oracle[{kind}]", f"worst rel err {worst:.2e}")


def test_c3_meta_and_weight_gradient_oracles():
    rng = np.random.default_rng(17)
    worst_meta = worst_alpha = 0.0
    for _ in range(20):
        feats = rng.random((25, 3))
        y = rng.integers(0, 2, 25).astype(np.float64)
        w = rng.normal(size=3)
        b = float(rng.normal())
        l2 = float(rng.random())
        p = 1.0 / (1.0 + np.exp(-(feats @ w + b)))
        gw, gb = meta_gradient(p, w, feats, y, l2)
        fw = fd_gradient(lambda t: logistic_objective(t, b, feats, y, l2), w, h_scale=1e-6)
        fb = fd_gradient(
            lambda t: logistic_objective(w, float(t[0]), feats, y, l2), np.array([b]), h_scale=1e-6
        )[0]
        worst_meta = max(worst_meta, rel_error(np.append(gw, gb), np.append(fw, fb)))

        preds = np.clip(rng.random((25, 4)), 0.05, 0.95)
        labels = rng.integers(0, 2, 25)
        alpha = rng.dirichlet(np.ones(4))
        analytic = bce_gradient(alpha, preds, labels)
        numeric = fd_gradient(lambda a: mean_bce(preds @ a, labels), alpha, h_scale=1e-6)
        worst_alpha = max(worst_alpha, rel_error(analytic, numeric))
    assert worst_meta <= 1e-5
    assert worst_alpha <= 1e-5
    _pass(
        "C3 gradient-oracle[meta,alpha]",
        f"meta {worst_meta:.2e}, alpha {worst_alpha:.2e}",
    )


def test_c4_simplex_optimizer_matches_grid_search():
    rng = np.random.default_rng(23)
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 60))
        preds = rng.random((n, 2))
        labels = rng.integers(0, 2, n)
        fit, iterates = weight_iterates(preds, labels)
        for it in iterates:
            assert it.min() >= 0.0
            assert abs(it.sum() - 1.0) <= 1e-12
        best, _ = grid_simplex2_bce(preds, labels, step=1e-3)
        worst_gap = max(worst_gap, fit.val_bce - best)
        assert fit.val_bce <= best + 1e-4
    _pass("C4 simplex-optimizer", f"worst BCE gap to grid {worst_gap:.2e}")


def test_c5_auc_equals_pair_counting_oracle():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[rng.integers(0, n)] = 1 - labels[0]
        # quantized scores force heavy ties
        scores = np.round(rng.random(n), int(rng.integers(1, 3)))
        gap = abs(auc(roc_curve(labels, scores)) - mw_auc(labels, scores))
        worst = max(worst, gap)
    assert worst <= 1e-12
    _pass("C5 auc-oracle", f"worst |trapezoid - pairs| {worst:.1e}")


def _mean_learner(fold, fit_samples, holdout_samples):
    return np.full(len(holdout_samples), float(np.mean([s.label for s in fit_samples])))


def test_c6_oof_leakage_audit(small_run, monkeypatch):
    data, out, config, _ = small_run
    # audit a CNN-backed table at pipeline scale
    samples = load_image_dir(data, config.input_side)
    split = split_dataset(samples, (0.6, 0.2, 0.2), config.seed)
    from hybridens.data import assign_folds

    # Each OOF net records the ids it trained on and the ids it predicted.
    nets = []
    train, predict = microcnn.train_two_phase, microcnn.predict_proba

    def recording_train(net, fit, *args):
        nets.append(({s.sample_id for s in fit}, set()))
        return train(net, fit, *args)

    def recording_predict(net, query, *args):
        nets[-1][1].update(s.sample_id for s in query)
        return predict(net, query, *args)

    monkeypatch.setattr(microcnn, "train_two_phase", recording_train)
    monkeypatch.setattr(microcnn, "predict_proba", recording_predict)
    # The patches reach pool workers only when they are forked; run serially.
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 1)
    folds = assign_folds(samples, split.train_ids, config.folds, config.seed)
    fit_predict = functools.partial(pipeline._fit_predict_oof, config)
    table = oof_predictions(samples, split.train_ids, folds, fit_predict)
    assert not np.isnan(table.matrix).any()
    assert len(nets) == config.K * config.folds
    # The builtin map runs the jobs in (fold, k) order.
    calls = [(j // config.K, fit, held) for j, (fit, held) in enumerate(nets)]
    assert_holdouts_are_folds(calls, samples, split.train_ids, folds)
    assert table.fold_of.tolist() == [folds.fold_of[i] for i in split.train_ids]

    # leave-one-out boundary: k equals the training-sample count
    loo_samples = [
        LabeledSample(f"s{i}", 0, np.zeros((2, 2)), i % 2) for i in range(6)
    ]
    loo_folds = FoldAssignment(fold_of={i: i for i in range(6)}, k=6)
    loo_calls = []
    loo_learner = recording_learner(_mean_learner, loo_calls)
    oof_predictions(loo_samples, list(range(6)), loo_folds, fit_predict_of(loo_learner))
    assert [fold for fold, _, _ in loo_calls] == list(range(6))
    assert_holdouts_are_folds(loo_calls, loo_samples, range(6), loo_folds)
    assert all(len(fit) == 5 for _, fit, _ in loo_calls)
    rows = table.matrix.shape[0]
    _pass("C6 oof-leakage", f"{rows} rows, {len(nets)} nets + leave-one-out audited")


def _digest(net, indices):
    h = hashlib.sha256()
    for i in indices:
        for name in sorted(net.layers[i].params):
            h.update(net.layers[i].params[name].tobytes())
    return h.hexdigest()


def test_c7_freezing_contract(small_run):
    data, _, config, _ = small_run
    samples = load_image_dir(data, config.input_side)
    split = split_dataset(samples, (0.6, 0.2, 0.2), config.seed)
    train = [samples[i] for i in split.train_ids]
    val = [samples[i] for i in split.val_ids]
    net = build_micronet("convB", config.input_side, config.dropout_rate, rng_for(1, "c7"))
    backbone = [i for i in net.parameterized() if i < net.head_start]
    head = [i for i in net.parameterized() if i >= net.head_start]
    init_backbone = _digest(net, backbone)

    phase1 = RunConfig(**{**config.to_dict(), "finetune_epochs": 0})
    net, _ = train_two_phase(net, train, val, phase1, rng_for(2, "c7"))
    assert _digest(net, backbone) == init_backbone

    frozen_prefix = backbone[:-1]
    prefix_before = _digest(net, frozen_prefix)
    suffix_before = _digest(net, [backbone[-1]])
    head_before = _digest(net, head)
    phase2 = RunConfig(**{**config.to_dict(), "freeze_epochs": 0, "unfreeze_top": 1})
    net, _ = train_two_phase(net, train, val, phase2, rng_for(3, "c7"))
    assert _digest(net, frozen_prefix) == prefix_before
    assert _digest(net, [backbone[-1]]) != suffix_before
    assert _digest(net, head) != head_before
    _pass("C7 freezing-contract", "backbone checksum stable; only suffix moved")


def test_c8_gradcam_correctness_and_localization(tmp_path):
    # exact hand evaluations on fixed 2x2 stacks
    cam = gradcam.compute_cam(np.array([0.5]), np.array([[[1.0, -1.0], [2.0, 0.0]]]))
    assert np.array_equal(cam, [[0.5, 0.0], [1.0, 0.0]])
    assert gradcam.channel_importance(np.array([[[1.0, -1.0], [2.0, 0.0]]]))[0] == 0.5

    data = tmp_path / "zero-noise"
    seed = 11
    synth_data(
        SynthSpec(subjects_per_class=20, slices_per_subject=4, image_side=32,
                  noise_sigma=0.0, seed=seed),
        data,
    )
    truth = json.loads((data / "blobs.json").read_text())["subjects"]
    samples = load_image_dir(data, 32)
    split = split_dataset(samples, (0.6, 0.2, 0.2), seed)
    train = [samples[i] for i in split.train_ids]
    val = [samples[i] for i in split.val_ids]
    config = RunConfig(seed=seed, **DESK_CONFIG)
    vy = np.array([s.label for s in val])
    best_net, best_auc = None, -1.0
    for arch in microcnn.architecture_ids(3):
        net = build_micronet(arch, 32, config.dropout_rate, rng_for(seed, "init", arch))
        net, _ = train_two_phase(net, train, val, config, rng_for(seed, "train", arch))
        area = auc(roc_curve(vy, predict_proba(net, val)))
        if area > best_auc:
            best_net, best_auc = net, area

    hits = total = 0
    rr, cc = np.mgrid[0:32, 0:32]
    for s in [samples[i] for i in split.test_ids + split.val_ids]:
        if s.label != 1:
            continue
        if predict_proba(best_net, [s])[0] <= config.threshold:
            continue
        cam = gradcam.explain(best_net, s.payload, class_id=1)
        assert cam.map.min() >= 0.0
        mass = cam.map.sum()
        if mass == 0:
            continue
        centroid_r = float((cam.map * rr).sum() / mass)
        centroid_c = float((cam.map * cc).sum() / mass)
        t = truth[s.subject_id]
        half = 2.0 * t["radius"]  # bounding box dilated to twice its size
        total += 1
        if abs(centroid_r - t["row"]) <= half and abs(centroid_c - t["col"]) <= half:
            hits += 1
    rate = hits / total
    assert total >= 10
    assert rate >= 0.8, f"localization rate {rate:.0%} over {total} positives"
    _pass("C8 gradcam", f"hand cases exact; localization {hits}/{total} = {rate:.0%}")


C9_FILES = ("report.json", "weights.json", "oof.csv", "meta.json",
            "roc_stacked.csv", "roc_hybrid.csv")


def _c9_run(data, out):
    config = RunConfig(seed=44, **{**DESK_CONFIG, "folds": 3, "input_side": 24,
                                   "freeze_epochs": 4, "finetune_epochs": 4})
    run_pipeline(config, data, out)
    return config


@pytest.fixture(scope="module")
def c9_first_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("c9")
    data = root / "data"
    synth_data(
        SynthSpec(subjects_per_class=8, slices_per_subject=2, image_side=24, seed=44),
        data,
    )
    config = _c9_run(data, root / "run1")
    return data, root / "run1", config


def test_c9_determinism_of_full_pipeline(c9_first_run, tmp_path):
    data, first, _ = c9_first_run
    _c9_run(data, tmp_path / "run2")
    for name in C9_FILES:
        assert (first / name).read_bytes() == (tmp_path / "run2" / name).read_bytes(), (
            f"{name} differs between identical runs"
        )
    _pass("C9 determinism", f"{', '.join(C9_FILES)} byte-identical")


def _fuse_large_shaped(rows: int, seed: int):
    """Three columns built as the fuse-large benchmark builds its CSV."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, rows)
    cols = [np.round(1.0 / (1.0 + np.exp(-(s * (2 * labels - 1) + rng.standard_normal(rows)))), 6)
            for s in (0.5, 1.0, 1.5)]
    return np.stack(cols, axis=1), labels


def test_c3_meta_learner_reaches_its_ridge_optimum(c9_first_run):
    # The gradient of the ridge objective, computed here from the fitted
    # (w, b), is zero to 1e-9: on the C9 run's own OOF table and meta.json,
    # and on 50,000 rows shaped like the fuse-large benchmark's held-in half.
    _, out, config = c9_first_run
    matrix, labels = load_predictions_csv(out / "oof.csv")
    meta = json.loads((out / "meta.json").read_text())
    fuse_feats, fuse_labels = _fuse_large_shaped(50_000, 1)
    fit = train_meta(fuse_feats, fuse_labels, config.meta_ridge)
    cases = {
        "c9 oof": (matrix, labels, np.array(meta["w"]), meta["b"]),
        "fuse-large shape": (fuse_feats, fuse_labels, fit.w, fit.b),
    }
    gaps = {}
    for name, (feats, y, w, b) in cases.items():
        grad = logistic_objective_gradient(w, b, feats, y.astype(np.float64),
                                           config.meta_ridge / len(y))
        gaps[name] = float(np.max(np.abs(grad)))
    assert all(gap <= 1e-9 for gap in gaps.values()), gaps
    _pass("C3 meta-learner optimum", ", ".join(f"{k} max |grad| {v:.1e}" for k, v in gaps.items()))
