import faulthandler
import json
import math
import multiprocessing
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridens import cli, pipeline
from hybridens.config import RunConfig
from hybridens.data import assign_folds, load_image_dir, load_predictions_csv, save_predictions_csv
from hybridens.errors import ConfigError, DataError, NumericError
from hybridens.imageio import bilinear_resize, read_image, write_pgm
from hybridens.microcnn import load_checkpoint
from hybridens.pipeline import _oof_factories, fuse_only, render_table, run_pipeline, score_rows
from hybridens.stacking import oof_predictions, train_meta
from hybridens.synth import SynthSpec, synth_data
from hybridens.weighting import optimize_weights

TINY = dict(
    input_side=16, batch_size=16, dropout_rate=0.25, folds=2, freeze_epochs=2,
    finetune_epochs=2, head_learning_rate=1e-2, learning_rate=1e-3,
    weight_steps=150, meta_epochs=150,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One small but complete pipeline run shared by the structural tests."""
    root = tmp_path_factory.mktemp("tiny")
    data = root / "data"
    synth_data(
        SynthSpec(subjects_per_class=6, slices_per_subject=2, image_side=16, seed=21),
        data,
    )
    config = RunConfig(seed=21, **TINY)
    report = run_pipeline(config, data, root / "out")
    return data, root / "out", report


def test_report_has_six_rows_in_table_order(tiny_run):
    _, _, report = tiny_run
    models = [row["model"] for row in report.rows]
    assert models == ["convA", "convB", "convC", "weighted", "stacked", "hybrid"]
    for row in report.rows:
        for key in ("acc", "sen", "spe", "auc"):
            assert row[key] is None or 0.0 <= row[key] <= 1.0


def test_report_files_all_exist_and_parse(tiny_run):
    _, out, report = tiny_run
    files = report.files
    for key in ("weights", "meta", "oof", "preds_val", "preds_test"):
        assert (out / files[key]).is_file()
    for path in files["roc"].values():
        text = (out / path).read_text()
        assert text.startswith("fpr,tpr")
    for path in files["checkpoints"].values():
        assert (out / path).is_file()
    assert files["explanations"]
    for path in files["explanations"]:
        assert (out / path).is_file()
    report_doc = json.loads((out / "report.json").read_text())
    assert report_doc["rows"] == report.rows
    weights_doc = json.loads((out / "weights.json").read_text())
    assert len(weights_doc["alpha"]) == 3
    assert abs(sum(weights_doc["alpha"]) - 1.0) <= 1e-9
    assert {"alpha", "val_bce", "steps_used"} == set(weights_doc)
    meta_doc = json.loads((out / "meta.json").read_text())
    assert len(meta_doc["w"]) == 3 and "b" in meta_doc


def test_explanations_cover_both_classes(tiny_run):
    _, out, report = tiny_run
    stems = [Path(p).name for p in report.files["explanations"]]
    assert any(name.startswith("class0_") for name in stems)
    assert any(name.startswith("class1_") for name in stems)
    overlays = [p for p in report.files["explanations"] if p.endswith("_overlay.ppm")]
    raw = (out / overlays[0]).read_bytes()
    assert raw.startswith(b"P6\n16 16\n255\n")


def test_oof_csv_matches_schema(tiny_run):
    _, out, _ = tiny_run
    lines = (out / "oof.csv").read_text().strip().splitlines()
    assert lines[0] == "id,fold,p1,p2,p3,label"
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert cells[1] in {"0", "1"}
        assert all(0.0 <= float(c) <= 1.0 for c in cells[2:5])


def test_pipeline_fusion_matches_fuse_refit(tiny_run):
    # Refitting from the persisted prediction tables reproduces the run's
    # fusion parameters exactly: same matrix in, same weights out.
    _, out, report = tiny_run
    config = RunConfig(**report.config)
    val_matrix, val_labels, _ = load_predictions_csv(out / "preds_val.csv")
    refit = optimize_weights(val_matrix, val_labels, config.weight_steps, config.weight_step_size)
    assert json.loads((out / "weights.json").read_text())["alpha"] == [
        float(a) for a in refit.alpha
    ]
    oof_lines = (out / "oof.csv").read_text().strip().splitlines()[1:]
    matrix = np.array([[float(v) for v in line.split(",")[2:5]] for line in oof_lines])
    labels = np.array([int(line.split(",")[-1]) for line in oof_lines])
    meta = train_meta(matrix, labels, config.meta_epochs, config.meta_lr, config.meta_l2)
    assert json.loads((out / "meta.json").read_text()) == meta.to_dict()


def test_report_txt_mirrors_rows(tiny_run):
    _, out, report = tiny_run
    text = (out / "report.txt").read_text()
    assert text == render_table(report.rows)
    assert text.splitlines()[0].split() == ["Model", "ACC", "(%)", "SEN", "(%)", "SPE", "(%)", "AUC"]


def test_roc_from_folds_pools_oof_predictions(tiny_run, tmp_path):
    data, _, report = tiny_run
    from hybridens.metrics import roc_curve, roc_points_csv

    config = RunConfig(**report.config)
    out = tmp_path / "pooled"
    pooled = run_pipeline(config, data, out, roc_from_folds=True)
    lines = (out / "oof.csv").read_text().strip().splitlines()[1:]
    matrix = np.array([[float(v) for v in line.split(",")[2:5]] for line in lines])
    labels = np.array([int(line.split(",")[-1]) for line in lines])
    expected = roc_points_csv(roc_curve(labels, matrix[:, 0]))
    assert (out / pooled.files["roc"]["convA"]).read_text() == expected


def make_fuse_csv(path, n=80, seed=0, perfect_first=False):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    if perfect_first:
        p1 = labels.astype(float)
    else:
        p1 = np.clip(0.6 * labels + 0.2 + rng.normal(0, 0.05, n), 0, 1)
    p2 = np.clip(rng.random(n), 0, 1)
    save_predictions_csv(path, np.column_stack([p1, p2]), labels, [str(i) for i in range(n)])
    return labels


def test_fuse_only_perfect_column(tmp_path):
    path = tmp_path / "p.csv"
    make_fuse_csv(path, perfect_first=True)
    config = RunConfig(K=2, seed=3)
    report = fuse_only(path, config)
    by_model = {r["model"]: r for r in report.rows}
    assert report.alpha[0] >= 0.99
    assert by_model["hybrid"]["acc"] == 1.0


def test_fuse_only_constant_columns_flag_half_auc(tmp_path):
    path = tmp_path / "p.csv"
    labels = np.array([0, 1] * 20)
    matrix = np.full((40, 2), 0.5)
    save_predictions_csv(path, matrix, labels, [str(i) for i in range(40)])
    report = fuse_only(path, RunConfig(K=2, seed=4))
    assert np.allclose(report.alpha, 0.5, atol=1e-12)
    for row in report.rows:
        assert row["auc"] == 0.5


def test_fuse_only_anticorrelated_columns_stacking_wins(tmp_path):
    # p2 = 1 - p1 carries the same information with reversed sign; the
    # meta-learner can weight it negatively, the convex weights cannot.
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 2, 120)
    p1 = 0.6 * labels + 0.2
    matrix = np.column_stack([p1, 1.0 - p1])
    path = tmp_path / "p.csv"
    save_predictions_csv(path, matrix, labels, [str(i) for i in range(120)])
    report = fuse_only(path, RunConfig(K=2, seed=5))
    by_model = {r["model"]: r for r in report.rows}
    assert by_model["stacked"]["acc"] >= by_model["weighted"]["acc"]
    assert by_model["stacked"]["acc"] == 1.0


def test_fuse_only_rejects_k_mismatch(tmp_path):
    path = tmp_path / "p.csv"
    make_fuse_csv(path)
    from hybridens.errors import ConfigError

    with pytest.raises(ConfigError, match="K=3"):
        fuse_only(path, RunConfig(K=3, seed=0))


def test_cli_synth_run_evaluate_and_explain(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert cli.main([
        "synth-data", "--out", str(data), "--subjects-per-class", "6",
        "--slices-per-subject", "2", "--image-side", "16", "--seed", "31",
    ]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(seed=31, **TINY)))
    assert cli.main(["run", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 6

    assert cli.main(["evaluate", "--preds", str(out / "preds_test.csv")]) == 0
    assert cli.main([
        "fuse", "--preds", str(out / "preds_val.csv"), "--out", str(tmp_path / "fused"),
        "--seed", "2",
    ]) == 0
    assert (tmp_path / "fused" / "weights.json").is_file()

    image = next((data / "pos").glob("*.pgm"))
    assert cli.main([
        "explain", "--checkpoint", str(out / "checkpoints" / "convA.ckpt"),
        "--image", str(image), "--out", str(tmp_path / "xai"), "--class-id", "1",
    ]) == 0
    assert list((tmp_path / "xai").glob("*_overlay.ppm"))


def test_oof_learner_factories_pickle():
    factories = _oof_factories(RunConfig(seed=3, **TINY))
    learner = pickle.loads(pickle.dumps(factories[1]))(2)
    assert (learner.arch, learner.fold, learner.config.seed) == ("convB", 2, 3)


def test_cli_train_base_writes_what_run_writes(tiny_run, tmp_path):
    data, run_out, _ = tiny_run
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(seed=21, **TINY)))
    out = tmp_path / "bases"
    assert cli.main(["train-base", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 0
    names = ["preds_val.csv", "preds_test.csv"]
    names += [f"checkpoints/{arch}.ckpt" for arch in ("convA", "convB", "convC")]
    for name in names:
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name


def test_cli_explain_resizes_to_the_net_input(tiny_run, tmp_path):
    data, run_out, _ = tiny_run
    checkpoint = run_out / "checkpoints" / "convA.ckpt"
    side = load_checkpoint(checkpoint).input_side
    image = read_image(next((data / "pos").glob("*.pgm")))
    large = tmp_path / "large_00.pgm"
    write_pgm(large, bilinear_resize(image, 2 * side, 2 * side))
    assert cli.main(["explain", "--checkpoint", str(checkpoint), "--image", str(large),
                     "--out", str(tmp_path / "xai")]) == 0
    assert read_image(tmp_path / "xai" / "large_00_cam.pgm").shape == (side, side)

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(checkpoint.read_bytes()[:-100])
    assert cli.main(["explain", "--checkpoint", str(truncated), "--image", str(large),
                     "--out", str(tmp_path / "xai")]) == 3


def test_cli_exit_codes(tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"K": 1}')
    data = tmp_path / "d"
    synth_data(SynthSpec(subjects_per_class=3, slices_per_subject=1, image_side=16, seed=1), data)
    assert cli.main(["run", "--config", str(bad_config), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 2
    for doc in ('{"K": "3"}', '{"threshold": "0.5"}', '{"batch_size": NaN}'):
        bad_config.write_text(doc)
        assert cli.main(["run", "--config", str(bad_config), "--data", str(data),
                         "--out", str(tmp_path / "o")]) == 2, doc
    assert cli.main(["run", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o")]) == 3
    empty = tmp_path / "empty"
    for label in ("pos", "neg"):
        (empty / label).mkdir(parents=True)
        (empty / label / "s1_00.pgm").write_bytes(b"P5\n0 0\n255\n")
    assert cli.main(["run", "--data", str(empty), "--out", str(tmp_path / "o")]) == 3
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("id,p1,p2,label\na,2.0,0.1,1\n")
    assert cli.main(["evaluate", "--preds", str(bad_csv)]) == 3
    # Flags nothing reads are not registered, so argparse rejects them.
    for argv in (
        ["explain", "--checkpoint", "f.ckpt", "--image", "x.pgm", "--out", "o", "--config", "c"],
        ["explain", "--checkpoint", "f.ckpt", "--image", "x.pgm", "--out", "o", "--seed", "3"],
        ["synth-data", "--out", "o", "--config", "c"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv


def test_cli_run_exits_4_when_an_oof_learner_fails(tmp_path, monkeypatch, capsys):
    def diverge(self, fit_samples):
        raise NumericError(f"loss diverged for {self.arch}")

    monkeypatch.setattr(pipeline._CnnLearner, "fit", diverge)
    # The patch reaches pool workers only when they are forked; run serially.
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 1)
    data = tmp_path / "d"
    synth_data(SynthSpec(subjects_per_class=6, slices_per_subject=2, image_side=16, seed=1), data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(seed=1, **TINY)))
    assert cli.main(["run", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 4
    assert "stage oof: base learner 0 failed on fold 0: loss diverged" in capsys.readouterr().err


def test_every_job_run_pipeline_submits_pickles(tiny_run, tmp_path, monkeypatch):
    """Jobs and results make a round trip through pickle, as they do under
    any start method, and every output file stays byte-identical."""
    data, run_out, _ = tiny_run
    submitted = []

    def pickling_map(fn, jobs):
        for job in jobs:
            fn, job = pickle.loads(pickle.dumps((fn, job)))
            submitted.append(fn.__name__)
            yield pickle.loads(pickle.dumps(fn(job)))

    @contextmanager
    def job_map(jobs):
        yield pickling_map

    monkeypatch.setattr(pipeline, "job_map", job_map)
    out = tmp_path / "out"
    run_pipeline(RunConfig(seed=21, **TINY), data, out)
    assert submitted == ["_train_base"] * 3 + ["_fit_predict"] * 6
    written = sorted(p.relative_to(run_out) for p in run_out.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    for name in written:
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name


def test_oof_through_a_spawn_pool_matches_the_builtin_map(tmp_path):
    data = tmp_path / "d"
    synth_data(SynthSpec(subjects_per_class=3, slices_per_subject=2, image_side=16, seed=5), data)
    samples = load_image_dir(data, 16)
    ids = list(range(len(samples)))
    folds = assign_folds(samples, ids, 2, seed=5)
    factories = _oof_factories(RunConfig(seed=5, **TINY))
    serial = oof_predictions(samples, ids, folds, factories)
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        pooled = oof_predictions(samples, ids, folds, factories, pool.map)
    assert pooled.matrix.tobytes() == serial.matrix.tobytes()
    assert pooled.labels.tolist() == serial.labels.tolist()
    assert pooled.fold_of.tolist() == serial.fold_of.tolist()
    assert pooled.train_ids == serial.train_ids
    assert pooled.fold_train_ids == serial.fold_train_ids


class DyingLearner:
    """Ends its process in the middle of a fit."""

    def __init__(self, fold):
        self.fold = fold

    def fit(self, samples):
        os._exit(1)


def test_a_worker_dying_mid_fit_ends_the_run_in_a_stage_oof_error(tmp_path, monkeypatch):
    # Both patches act in this process, so they hold under any start method.
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 2)
    monkeypatch.setattr(pipeline, "_oof_factories", lambda config: [DyingLearner] * config.K)
    data = tmp_path / "d"
    synth_data(SynthSpec(subjects_per_class=6, slices_per_subject=2, image_side=16, seed=1), data)
    # A hang would stall the suite, so the whole process ends after 120 s.
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="stage oof") as info:
            run_pipeline(RunConfig(seed=1, **TINY), data, tmp_path / "o")
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert time.perf_counter() - started < 60
    assert (tmp_path / "o" / "weights.json").exists()
    assert not (tmp_path / "o" / "oof.csv").exists()


_SCORES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5, -0.2]),
    st.floats(),
)


@st.composite
def _score_tables(draw):
    n, k = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_SCORES, min_size=k, max_size=k), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def _unless_taxonomy_error(call):
    try:
        return call()
    except (ConfigError, DataError, NumericError):
        return None


@settings(max_examples=300, deadline=None)
@given(table=_score_tables())
@example(table=(np.array([[18015.0]]), np.array([0])))  # raised IndexError in project_simplex
def test_score_arrays_fuse_and_score_or_raise_a_taxonomy_error(table):
    matrix, labels = table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-class labels and invalid matmuls warn
        fit = _unless_taxonomy_error(lambda: optimize_weights(matrix, labels, 50, 0.5))
        meta = _unless_taxonomy_error(lambda: train_meta(matrix, labels, 50, 0.5))
    if fit is not None:
        assert np.all(fit.alpha >= 0.0) and abs(fit.alpha.sum() - 1.0) <= 1e-9, fit.alpha
    if meta is not None:
        assert np.all(np.isfinite(meta.w)) and math.isfinite(meta.b), meta
    scores = {f"p{k + 1}": matrix[:, k] for k in range(matrix.shape[1])}
    rows = _unless_taxonomy_error(lambda: score_rows(scores, labels, 0.5))
    for row in rows or []:
        for key in ("acc", "sen", "spe", "auc"):
            assert row[key] is None or 0.0 <= row[key] <= 1.0, row
