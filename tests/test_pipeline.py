import csv
import faulthandler
import functools
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections import Counter
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
from hybridens.microcnn import architecture_ids, load_checkpoint
from hybridens.pipeline import fuse_only, render_table, run_pipeline, score_rows
from hybridens.stacking import MetaLearner, oof_predictions, train_meta
from hybridens.synth import SynthSpec, synth_data
from hybridens.weighting import optimize_weights
from oracle_utils import simplex_kkt_gap

TINY = dict(
    input_side=16, batch_size=16, dropout_rate=0.25, folds=2, freeze_epochs=2,
    finetune_epochs=2, head_learning_rate=1e-2, learning_rate=1e-3,
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


@pytest.fixture(scope="module")
def quoted_run(tmp_path_factory):
    """A small run on files whose ids hold a comma and a double quote, with
    the target of every `os.replace` recorded."""
    root = tmp_path_factory.mktemp("quoted")
    data = synth_data(
        SynthSpec(subjects_per_class=6, slices_per_subject=2, image_side=16, seed=21),
        root / "data",
    )
    for image in sorted(data.glob("*/*.pgm")):
        image.rename(image.with_name('a,"' + image.name))
    replaced, original = [], os.replace

    def recording_replace(src, dst):
        replaced.append(Path(dst))
        original(src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", recording_replace)
        report = run_pipeline(RunConfig(seed=21, **TINY), data, root / "out")
    return data, root / "out", report, replaced


def test_prediction_csvs_quote_ids_with_commas_and_quotes(quoted_run):
    data, out, report, _ = quoted_run
    sample_ids = {s.sample_id for s in load_image_dir(data)}
    assert all(',"' in sample_id for sample_id in sample_ids)
    for name, rows in (("oof", report.counts["train"]), ("preds_val", report.counts["val"]),
                       ("preds_test", report.counts["test"])):
        with open(out / report.files[name], newline="") as fh:
            header, *body = csv.reader(fh)
        assert len(body) == rows, name
        assert all(len(row) == len(header) for row in body), name
        assert {row[0] for row in body} <= sample_ids and len({row[0] for row in body}) == rows


def test_every_run_file_is_moved_into_place_by_os_replace(quoted_run):
    _, out, _, replaced = quoted_run
    written = [p for p in out.rglob("*") if p.is_file()]
    assert len(written) == len(replaced) == len(set(replaced))
    assert set(written) == set(replaced)
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]


def test_pipeline_fusion_matches_fuse_refit(tiny_run):
    # Refitting from the persisted prediction tables reproduces the run's
    # fusion parameters exactly: same matrix in, same weights out.
    _, out, report = tiny_run
    config = RunConfig(**report.config)
    val_matrix, val_labels = load_predictions_csv(out / "preds_val.csv")
    refit = optimize_weights(val_matrix, val_labels)
    assert json.loads((out / "weights.json").read_text())["alpha"] == [
        float(a) for a in refit.alpha
    ]
    oof_lines = (out / "oof.csv").read_text().strip().splitlines()[1:]
    matrix = np.array([[float(v) for v in line.split(",")[2:5]] for line in oof_lines])
    labels = np.array([int(line.split(",")[-1]) for line in oof_lines])
    meta = train_meta(matrix, labels, config.meta_ridge)
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
    matrix, labels = load_predictions_csv(out / "oof.csv")
    alpha = np.array(json.loads((out / "weights.json").read_text())["alpha"])
    meta = MetaLearner(**{k: np.array(v) if k == "w" else v
                          for k, v in json.loads((out / "meta.json").read_text()).items()})
    oof_scores = pipeline._model_scores(matrix, ["convA", "convB", "convC"], alpha, meta,
                                        config.fusion_combine_rule)
    assert list(pooled.files["roc"]) == list(oof_scores)
    for name, scores in oof_scores.items():
        expected = roc_points_csv(roc_curve(labels, scores))
        assert (out / pooled.files["roc"][name]).read_text() == expected, name


def test_evaluate_and_fuse_read_a_runs_oof_csv(tiny_run, tmp_path):
    """oof.csv has a fold column after the id, which both commands read past."""
    _, out, _ = tiny_run
    oof = out / "oof.csv"
    assert oof.read_text().startswith("id,fold,p1,p2,p3,label\n")
    assert cli.main(["evaluate", "--preds", str(oof), "--out", str(tmp_path / "ev")]) == 0
    assert cli.main(["fuse", "--preds", str(oof), "--out", str(tmp_path / "fused")]) == 0
    assert len(list((tmp_path / "fused").glob("roc_*.csv"))) == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_write_rocs_writes_each_curve_as_if_alone(tmp_path_factory, seed):
    """`write_rocs` formats each fraction once for all its curves, yet every
    file is the curve's text formatted alone.  Curves of a second label set
    go through the same call, so a table that mixed denominators would show."""
    from hybridens import metrics

    rng = np.random.default_rng(seed)
    curves = {}
    for set_id in range(2):
        n = int(rng.integers(2, 150))
        labels = rng.integers(0, 2, n)
        labels[rng.permutation(n)[:2]] = (0, 1)
        for kind, scores in (
            ("tied", np.round(rng.random(n), 1)),
            ("few", rng.choice(rng.standard_normal(3), n)),
            ("signed_zeros", rng.choice([0.0, -0.0, 0.25, -0.25], n)),
            ("normal", rng.standard_normal(n)),
        ):
            curves[f"{kind}{set_id}"] = metrics.roc_curve(labels, scores)
    out = tmp_path_factory.mktemp("rocs")
    files = pipeline.write_rocs(out, curves)
    for name, curve in curves.items():
        assert (out / files[name]).read_text() == metrics.roc_points_csv(curve), name


def test_each_model_curve_is_built_once(tmp_path, monkeypatch):
    """`score_rows` and `write_rocs` share one ROC curve per model, and the
    fusion path calls each step through its module attribute, where the
    benchmark's layer trace wraps it."""
    from hybridens import metrics, stacking

    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.update([name])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((metrics, "roc_curve"), (metrics, "auc"), (metrics, "roc_points_csv"),
                        (stacking, "train_meta"), (pipeline, "score_rows")):
        count(owner, name)
    rng = np.random.default_rng(2)
    path = tmp_path / "p.csv"
    save_predictions_csv(path, rng.random((60, 3)), rng.integers(0, 2, 60), list("x" * 60))
    fuse_only(path, RunConfig(seed=2), tmp_path / "fuse")
    assert calls == {"roc_curve": 6, "auc": 6, "roc_points_csv": 6, "train_meta": 1,
                     "score_rows": 1}
    assert len(list((tmp_path / "fuse").glob("roc_*.csv"))) == 6
    calls.clear()
    assert cli.main(["evaluate", "--preds", str(path), "--out", str(tmp_path / "ev")]) == 0
    assert calls == {"roc_curve": 3, "auc": 3, "roc_points_csv": 3, "score_rows": 1}
    assert len(list((tmp_path / "ev").glob("roc_*.csv"))) == 3



def test_fuse_and_evaluate_trim_the_heap_when_they_return(tmp_path, monkeypatch):
    """Each call hands the C heap's free pages back once, on success or error."""
    trims = []
    monkeypatch.setattr(pipeline, "_malloc_trim", trims.append)
    rng = np.random.default_rng(2)
    path = tmp_path / "p.csv"
    save_predictions_csv(path, rng.random((60, 3)), rng.integers(0, 2, 60), list("x" * 60))
    assert len(fuse_only(path, RunConfig(seed=2), tmp_path / "fuse").rows) == 6
    assert trims == [0]
    assert cli.main(["evaluate", "--preds", str(path), "--out", str(tmp_path / "ev")]) == 0
    assert trims == [0, 0]
    with pytest.raises(DataError):
        fuse_only(tmp_path / "missing.csv", RunConfig(seed=2))
    assert trims == [0, 0, 0]

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
    # The weights minimise BCE on the four validation rows: here the vertex (1, 0, 0).
    alpha = json.loads((out / "weights.json").read_text())["alpha"]
    assert simplex_kkt_gap(alpha, *load_predictions_csv(out / "preds_val.csv")) <= 1e-9

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


def oof_learners(config):
    """The OOF learners `run_pipeline` passes to `oof_predictions`."""
    return [functools.partial(pipeline._oof_net, config, a) for a in architecture_ids(config.K)]


def test_oof_learners_pickle():
    learner = pickle.loads(pickle.dumps(oof_learners(RunConfig(seed=3, **TINY))[1]))
    assert learner.func is pipeline._oof_net
    assert (learner.args[0].seed, learner.args[1]) == (3, "convB")


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


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
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
    # An output directory that cannot be made, and a stage that fails with an
    # error outside the taxonomy, each end in one stderr line and exit 5.
    good_csv, blocker = tmp_path / "good.csv", tmp_path / "blocker"
    make_fuse_csv(good_csv)
    blocker.write_text("a file, not a directory")
    capsys.readouterr()
    assert cli.main(["evaluate", "--preds", str(good_csv), "--out", str(blocker / "x")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1, err

    def crash(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(pipeline, "split_dataset", crash)
    assert cli.main(["run", "--data", str(data), "--out", str(tmp_path / "o")]) == 5
    assert capsys.readouterr().err == "run failed: stage split: division by zero\n"
    # Flags nothing reads are not registered, so argparse rejects them.
    for argv in (
        ["explain", "--checkpoint", "f.ckpt", "--image", "x.pgm", "--out", "o", "--config", "c"],
        ["explain", "--checkpoint", "f.ckpt", "--image", "x.pgm", "--out", "o", "--seed", "3"],
        ["synth-data", "--out", "o", "--config", "c"],
        ["fuse", "--preds", "p.csv", "--holdin-fraction", "0.5"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv


def test_cli_run_exits_2_when_input_side_is_too_small_for_a_layout(tmp_path, capsys):
    # convA's two 3x3 conv + pool blocks need a side of at least 10.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, seed=1, input_side=8)))
    data = tmp_path / "d"
    synth_data(SynthSpec(subjects_per_class=6, slices_per_subject=1, image_side=16, seed=1), data)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: stage train-base: input side 8 too small for convA\n", err


@pytest.mark.parametrize(
    "field", ["meta_epochs", "meta_lr", "meta_l2", "weight_steps", "weight_step_size"])
def test_cli_rejects_a_config_with_a_removed_meta_learner_field(tmp_path, capsys, field):
    # meta_ridge replaced the meta-learner's gradient-descent fields, and the
    # weight fit takes no step settings; a config that still names one of these
    # fields is a configuration error, not a silently ignored key.
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"seed": 1, field: 1}))
    make_fuse_csv(tmp_path / "p.csv")
    capsys.readouterr()
    assert cli.main(["fuse", "--config", str(config), "--preds", str(tmp_path / "p.csv"),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown config fields" in err and field in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [b'{"seed": 1\xff}', b"[" * 100_000], ids=["not-utf8", "deep"])
def test_cli_exits_2_on_a_config_file_that_json_cannot_read(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    make_fuse_csv(tmp_path / "p.csv")
    capsys.readouterr()
    assert cli.main(["fuse", "--config", str(config), "--preds", str(tmp_path / "p.csv"),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file is not valid JSON: {config}: "), err
    assert not (tmp_path / "o").exists()


def test_cli_run_rejects_an_unknown_explain_model_before_any_work(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, seed=1)))
    data = tmp_path / "d"
    synth_data(SynthSpec(subjects_per_class=6, slices_per_subject=1, image_side=16, seed=1), data)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "o"), "--explain-model", "convD"]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err == "config error: unknown explain model 'convD' (have ['convA', 'convB', 'convC'])\n"


def test_importing_the_package_loads_no_process_pool_machinery():
    code = ("import sys, hybridens; "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'numpy') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]", out


def test_cli_run_exits_4_when_an_oof_learner_fails(tmp_path, monkeypatch, capsys):
    def diverge(config, arch, fold, fit_samples, holdout_samples):
        raise NumericError(f"loss diverged for {arch}")

    monkeypatch.setattr(pipeline, "_oof_net", diverge)
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
    assert submitted == ["_train_net"] * 3 + ["_fit_predict"] * 6
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
    learners = oof_learners(RunConfig(seed=5, **TINY))
    serial = oof_predictions(samples, ids, folds, learners)
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        pooled = oof_predictions(samples, ids, folds, learners, pool.map)
    assert pooled.matrix.tobytes() == serial.matrix.tobytes()
    assert pooled.labels.tolist() == serial.labels.tolist()
    assert pooled.fold_of.tolist() == serial.fold_of.tolist()
    assert pooled.train_ids == serial.train_ids


def die_mid_fit(config, arch, fold, fit_samples, holdout_samples):
    """An OOF learner that ends its process in the middle of a fit."""
    os._exit(1)


def test_a_worker_dying_mid_fit_ends_the_run_in_a_stage_oof_error(tmp_path, monkeypatch):
    # Both patches act in this process, so they hold under any start method.
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 2)
    monkeypatch.setattr(pipeline, "_oof_net", die_mid_fit)
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


_SPREAD = np.array([0.1, 0.9, 0.2, 0.8, 0.7, 0.3])
_MIXED = np.array([0, 1, 0, 1, 0, 0])


@settings(max_examples=300, deadline=None)
@given(table=_score_tables(), ridge=st.sampled_from([0.0, 1.0, 1e6]))
# A one-entry table once raised IndexError in the simplex projection the weight fit used.
@example(table=(np.array([[18015.0]]), np.array([0])), ridge=1.0)
# A full Newton step lands on the vertex (1, 0) itself, with no weight above 1.
@example(table=(np.array([[0.9, 0.5], [0.2, 0.5], [0.8, 0.5], [0.1, 0.5]]), np.array([1, 0, 1, 0])),
         ridge=1.0)
# A finite gradient with an overflowing Hessian raises before any LAPACK call.
@example(table=(np.array([[1e150, 0.5], [0.5, 0.2]]), np.array([0, 1])), ridge=1.0)
# Scores outside [0, 1] still leave the weights on the simplex.
@example(table=(np.array([[-0.2, 0.3164202166186826, -0.2],
                          [0.06353037371430614, 5e-324, 0.7582184572497676]]), np.array([1, 1])),
         ridge=1.0)
@example(table=(np.array([[0.2, 0.9], [0.7, 0.4]]), np.array([1, 1])), ridge=0.0)  # one class
@example(table=(np.array([[0.3, 0.8, 0.5]]), np.array([1])), ridge=1.0)  # one row
@example(table=(np.column_stack([np.full(6, 0.4), _SPREAD]), _MIXED), ridge=0.0)  # constant column
# Two identical columns make the Newton system singular at ridge 0.
@example(table=(np.column_stack([_SPREAD, _SPREAD]), _MIXED), ridge=0.0)
def test_score_arrays_fuse_and_score_or_raise_a_taxonomy_error(table, ridge):
    matrix, labels = table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-class labels and invalid matmuls warn
        fit = _unless_taxonomy_error(lambda: optimize_weights(matrix, labels))
        meta = _unless_taxonomy_error(lambda: train_meta(matrix, labels, ridge))
    if fit is not None:
        assert np.all(fit.alpha >= 0.0) and abs(fit.alpha.sum() - 1.0) <= 1e-9, fit.alpha
        assert fit.alpha.max() <= 1.0, fit.alpha
    if meta is not None:
        assert np.all(np.isfinite(meta.w)) and math.isfinite(meta.b), meta
    scores = {f"p{k + 1}": matrix[:, k] for k in range(matrix.shape[1])}
    rows = _unless_taxonomy_error(
        lambda: score_rows(scores, labels, 0.5, pipeline.roc_curves(labels, scores)))
    for row in rows or []:
        for key in ("acc", "sen", "spe", "auc"):
            assert row[key] is None or 0.0 <= row[key] <= 1.0, row
