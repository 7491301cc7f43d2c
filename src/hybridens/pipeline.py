"""End-to-end orchestration: train bases, fuse, evaluate, explain.

Stages run in a fixed order and write their artifacts as soon as they
complete, so a failing stage leaves everything before it on disk.  The
whole run is a pure function of (config, data directory): random streams
are derived from the run seed per stage and architecture.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import signal
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import gradcam, metrics, microcnn, stacking, weighting
from .config import RunConfig
from .data import (
    DatasetSplit,
    LabeledSample,
    assign_folds,
    load_image_dir,
    load_predictions_csv,
    save_predictions_csv,
    split_dataset,
)
from .errors import ConfigError, DataError, Stopped, error_context
from .imageio import write_file, write_pgm, write_ppm
from .seeding import rng_for

SPLIT_RATIOS = (0.6, 0.2, 0.2)
FIT_FRACTION = 0.5  # share of each class that `fuse_only` fits on


try:  # glibc's malloc_trim and mallopt; where either is missing, its call is skipped
    _libc = ctypes.CDLL(None)
except (OSError, TypeError):
    _libc = None


def returns_free_heap(fn):
    """Make `fn` hand the free pages of the C heap back to the system when it returns.

    A pass over a 100k-row prediction table frees tens of MB of numpy arrays.
    glibc keeps a freed page resident while any small live chunk sits above it
    in the heap, and whether one did changed from run to run: the same fuse and
    evaluate calls left 0 or 10-14 MB resident, which a caller then carried.
    """
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if hasattr(_libc, "malloc_trim"):
                _libc.malloc_trim(0)
    return run


@dataclass
class RunReport:
    seed: int
    task: str
    config: dict
    counts: dict
    rows: list[dict]
    alpha: list[float]
    meta: dict
    files: dict


def _worker_count(jobs: int) -> int:
    """One worker per CPU this process may run on, and no more than `jobs`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def pool_map(fn: Callable, jobs: list) -> list:
    """`list(map(fn, jobs))` through a process pool, or through the builtin
    `map` when only one worker would run.  Each job is seeded by its own tag
    and its result is placed by its index, so no output depends on the
    worker count.  A job is a tuple that starts with its submission key: the
    pool submits in ascending key order, ties in input order, so keys that
    put the longest jobs first keep any worker from idling at the end
    (Graham's longest-processing-time rule).  Results come back in input
    order, so the first failing job in input order raises.

    Each pool worker starts with `(fn, jobs)`: a forked worker inherits
    them, and under spawn or forkserver the pool's initializer pickles them
    once per worker.  A submission then carries only its job number.  The
    initializer also fixes glibc's mmap and trim thresholds in each worker.

    In the main thread, while the pool is open, a SIGTERM with its default
    action raises `Stopped`.  That, Ctrl-C or a failing job ends the workers
    before it leaves.  While the workers start, both signals are only noted
    (an exception raised in the hooks that run after a fork is lost): Python
    runs a handler in the main thread, whichever thread a signal reached.  Once
    they run, the caller's SIGINT handler comes back and the noted ones are raised."""
    workers = _worker_count(len(jobs))
    if workers <= 1:
        return list(map(fn, jobs))
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(jobs)), key=lambda i: jobs[i][0])
    stop = (signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            and threading.current_thread() is threading.main_thread())
    _held.clear()
    saved = {sig: signal.signal(sig, lambda signum, frame: _held.append(signum))
             for sig in (signal.SIGINT, signal.SIGTERM) if stop}
    try:
        with ProcessPoolExecutor(workers, initializer=_keep_jobs, initargs=(fn, jobs)) as pool:
            try:
                futures = {i: pool.submit(_run_job, i) for i in order}
                if stop:  # the workers have started: a signal noted or to come raises here
                    signal.signal(signal.SIGINT, saved[signal.SIGINT])
                    signal.signal(signal.SIGTERM, _stop)
                    for signum in _held:
                        signal.raise_signal(signum)
                return [futures[i].result() for i in range(len(jobs))]
            except BaseException:  # ending the workers breaks the pool: its queued jobs fail
                for process in list(pool._processes.values()):
                    process.terminate()
                raise
    finally:
        for sig, handler in saved.items():
            signal.signal(sig, handler)


def _stop(signum: int, frame) -> None:
    raise Stopped(signal.Signals(signum).name)


_held: list[int] = []  # the signals noted while a pool's workers started
_worker_jobs: tuple = ()  # (fn, jobs), set in each pool worker by `_keep_jobs`


def _keep_jobs(fn: Callable, jobs: list) -> None:
    """A pool worker's initializer: keep `fn` and the jobs that its submissions
    name by number, and fix glibc's mmap threshold at 4 MiB and its trim
    threshold at 8 MiB, so training's large temporaries (1.2 MB conv outputs)
    reuse heap pages, not fresh mappings.  Only pool workers run this: the
    caller's allocator stays.  A worker leaves Ctrl-C to its parent, and
    SIGTERM ends it, even one it noted before this ran.

    A worker also ends with the run, even a SIGKILLed one: a thread waits for
    the pipe `multiprocessing` keeps to it from the run to close (a forked
    worker holds those of the workers forked before it open until it ends)."""
    import multiprocessing

    global _worker_jobs
    _worker_jobs = fn, jobs
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for signum in _held:
        signal.raise_signal(signum)
    run = multiprocessing.parent_process()
    if run:  # None only where a stand-in pool runs this in the caller's process
        threading.Thread(target=_exit_after, args=(run,), daemon=True).start()
    if hasattr(_libc, "mallopt"):
        _libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        _libc.mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _exit_after(run) -> None:
    """End this pool worker once process `run` has ended."""
    run.join()
    os._exit(1)


def _run_job(i: int):
    """A pool worker's side of `pool_map`: `fn` of job number `i`."""
    fn, jobs = _worker_jobs
    return fn(jobs[i])


def _json_value(x: float) -> float | None:
    return None if (isinstance(x, float) and math.isnan(x)) else float(x)


def _subject_means(
    model_scores: dict[str, np.ndarray], labels: np.ndarray, subject_ids: list[str]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each model's mean score per subject, subjects in sorted order, and each
    subject's label (its last slice's)."""
    ids = np.asarray(subject_ids)
    members = [ids == subject for subject in sorted(set(subject_ids))]
    means = {name: np.array([np.mean(s[m]) for m in members]) for name, s in model_scores.items()}
    return means, np.array([labels[m][-1] for m in members], dtype=np.int64)


def score_rows(
    model_scores: dict, labels: np.ndarray, tau: float
) -> tuple[list[dict], dict[str, metrics.RocCurve]]:
    """ACC/SEN/SPE/AUC rows, and the ROC curve per model that each AUC comes from."""
    rows, curves = [], {}
    for name, scores in model_scores.items():
        curves[name] = metrics.roc_curve(labels, scores)
        acc, sen, spe = metrics.acc_sen_spe(labels, np.asarray(scores, dtype=np.float64) > tau)
        rows.append({"model": name, "acc": _json_value(acc), "sen": _json_value(sen),
                     "spe": _json_value(spe), "auc": _json_value(metrics.auc(curves[name]))})
    return rows, curves


def render_table(rows: list[dict]) -> str:
    """Plain-text table with the ACC/SEN/SPE/AUC columns of the run report."""
    lines = [f"{'Model':<14}{'ACC (%)':>10}{'SEN (%)':>10}{'SPE (%)':>10}{'AUC':>8}"]
    for row in rows:
        cells = []
        for key, width, scale, digits in (
            ("acc", 10, 100.0, 2),
            ("sen", 10, 100.0, 2),
            ("spe", 10, 100.0, 2),
            ("auc", 8, 1.0, 3),
        ):
            v = row[key]
            cells.append(f"{'--':>{width}}" if v is None else f"{v * scale:>{width}.{digits}f}")
        lines.append(f"{row['model']:<14}" + "".join(cells))
    return "\n".join(lines) + "\n"


def _write_json(path: Path, doc: dict) -> None:
    write_file(path, json.dumps(doc, indent=2) + "\n")


def write_report(out_dir: Path, doc: dict) -> None:
    """`report.json` holds the whole document, `report.txt` its rows as a table."""
    _write_json(out_dir / "report.json", doc)
    write_file(out_dir / "report.txt", render_table(doc["rows"]))


def write_rocs(out_dir: Path, curves: dict[str, metrics.RocCurve]) -> dict[str, str]:
    """One `roc_<model>.csv` per curve; returns model -> file name.

    The curves share one table of formatted fractions: curves of the same
    labels reach mostly the same counts, so each is formatted once."""
    files, texts = {}, {}
    for name, curve in curves.items():
        files[name] = f"roc_{name}.csv"
        write_file(out_dir / files[name], metrics.roc_points_csv(curve, texts))
    return files


def _train_net(job: tuple):
    """Build one net, two-phase-train it on `fit` (scoring `val` each epoch
    when given) and predict each query set with it.  A base net (fold None)
    draws from the ("init"|"train", arch) streams and returns (net, history,
    predictions).  An out-of-fold net draws from ("oof-init"|"oof-train",
    arch, fold), names its learner and fold in its errors and returns only
    its one query set's predictions.  `job[0]` is read by `pool_map` only."""
    _, config, arch, fold, fit, val, queries = job
    stage, tags, context = "", (arch,), contextlib.nullcontext()
    if fold is not None:
        k = microcnn.architecture_ids(config.K).index(arch)
        stage, tags = "oof-", (arch, fold)
        context = error_context(f"base learner {k} failed on fold {fold}")
    with context:
        init_rng = rng_for(config.seed, stage + "init", *tags)
        net = microcnn.build_micronet(arch, config.input_side, config.dropout_rate, init_rng)
        net, history = microcnn.train_two_phase(
            net, fit, val, config, rng_for(config.seed, stage + "train", *tags)
        )
        preds = [microcnn.predict_proba(net, q, config.batch_size) for q in queries]
    return (net, history, preds) if fold is None else preds[0]


def train_bases(
    config: RunConfig,
    samples: list[LabeledSample],
    split: DatasetSplit,
    out_dir: Path,
) -> tuple[dict[str, microcnn.MicroNet], np.ndarray, np.ndarray, list[list[dict]]]:
    """Two-phase-train the K base nets; return them with val/test predictions.
    Writes the checkpoints, their histories, `preds_val.csv` and `preds_test.csv`.
    The nets train through `pool_map`, keyed costliest first (`microcnn.training_cost`)."""
    train = [samples[i] for i in split.train_ids]
    val = [samples[i] for i in split.val_ids]
    test = [samples[i] for i in split.test_ids]
    arch_ids = microcnn.architecture_ids(config.K)
    ckpt_dir = out_dir / "checkpoints"
    nets: dict[str, microcnn.MicroNet] = {}
    val_preds = np.zeros((len(val), config.K))
    test_preds = np.zeros((len(test), config.K))
    histories = []
    jobs = [(-microcnn.training_cost(arch, config), config, arch, None, train, val, [val, test])
            for arch in arch_ids]
    for k, (net, history, (val_p, test_p)) in enumerate(pool_map(_train_net, jobs)):
        arch = arch_ids[k]
        microcnn.save_checkpoint(net, ckpt_dir / f"{arch}.ckpt")
        _write_json(ckpt_dir / f"{arch}_history.json", {"architecture_id": arch, "epochs": history})
        nets[arch] = net
        val_preds[:, k] = val_p
        test_preds[:, k] = test_p
        histories.append(history)
    for name, part, preds in (("val", val, val_preds), ("test", test, test_preds)):
        labels = np.array([s.label for s in part], dtype=np.int64)
        save_predictions_csv(
            out_dir / f"preds_{name}.csv", preds, labels, [s.sample_id for s in part]
        )
    return nets, val_preds, test_preds, histories


def base_stages(
    config: RunConfig, data_dir: str | Path, out_dir: Path
) -> tuple[list[LabeledSample], DatasetSplit, dict[str, microcnn.MicroNet], np.ndarray, np.ndarray]:
    """A run's first stages, which `hybridens train-base` runs alone: ingest,
    split and train-base (`train_bases`), each failure named by its stage."""
    with error_context("stage ingest"):
        samples = load_image_dir(data_dir, config.input_side)
    with error_context("stage split"):
        split = split_dataset(samples, SPLIT_RATIOS, config.seed)
    with error_context("stage train-base"):
        nets, val_preds, test_preds, _ = train_bases(config, samples, split, out_dir)
    return samples, split, nets, val_preds, test_preds


def _fit_predict_oof(config: RunConfig, splits: list[tuple]) -> list[np.ndarray]:
    """Each (fold, fit, holdout) split's (len(holdout), K) probabilities from
    its K out-of-fold nets, which train without a validation set (nothing
    reads their loss history).  The jobs are in (fold, k) order, keyed (fold,
    -training cost), so a pool submits fold by fold, costliest net first."""
    arch_ids = microcnn.architecture_ids(config.K)
    jobs = [((fold, -microcnn.training_cost(arch, config)), config, arch, fold, fit, [], [holdout])
            for fold, fit, holdout in splits for arch in arch_ids]
    preds = pool_map(_train_net, jobs)
    return [np.column_stack(preds[j:j + config.K]) for j in range(0, len(preds), config.K)]


def _model_scores(
    preds: np.ndarray, names: list[str], alpha: np.ndarray, meta: stacking.MetaLearner, rule: str
) -> dict[str, np.ndarray]:
    """Each base column under its name, then the three fused predictions."""
    scores = {name: preds[:, k] for k, name in enumerate(names)}
    scores["weighted"] = weighting.weighted_predict(alpha, preds)
    scores["stacked"] = stacking.meta_predict(meta, preds)
    scores["hybrid"] = stacking.hybrid_predict(scores["weighted"], scores["stacked"], rule)
    return scores


def _pick_explained(
    test: list[LabeledSample], scores: np.ndarray, tau: float
) -> dict[int, LabeledSample]:
    """First correctly classified test sample per class, else first of the class."""
    chosen: dict[int, LabeledSample] = {}
    for label in (0, 1):
        members = [(s, p) for s, p in zip(test, scores) if s.label == label]
        if not members:
            continue
        correct = [s for s, p in members if int(p > tau) == label]
        chosen[label] = correct[0] if correct else members[0][0]
    return chosen


def write_explanation(
    net: microcnn.MicroNet, image: np.ndarray, class_id: int, out_dir: Path, stem: str, source: dict
) -> list[str]:
    """Grad-CAM overlay, heatmap and a JSON note (which ends with `source`)
    for one image; returns the file names written under `out_dir`."""
    cam = gradcam.explain(net, image, class_id=class_id)
    write_ppm(out_dir / f"{stem}_overlay.ppm", gradcam.render_overlay(cam, image))
    write_pgm(out_dir / f"{stem}_cam.pgm", gradcam.normalize_cam(cam.map))
    doc = {"class_id": cam.class_id, "source_layer": cam.source_layer, "model": net.architecture_id}
    _write_json(out_dir / f"{stem}.json", {**doc, **source})
    return [f"{stem}_overlay.ppm", f"{stem}_cam.pgm", f"{stem}.json"]


def write_explanations(
    net: microcnn.MicroNet, chosen: dict[int, LabeledSample], out_dir: Path
) -> list[str]:
    """One `write_explanation` per chosen sample, under `out_dir/explanations`."""
    ex_dir = out_dir / "explanations"
    written = []
    for label, sample in sorted(chosen.items()):
        stem = f"class{label}_{sample.sample_id.replace('/', '-')}"
        names = write_explanation(
            net, sample.payload, label, ex_dir, stem, {"sample": sample.sample_id}
        )
        written += [f"explanations/{name}" for name in names]
    return written


def run_pipeline(
    config: RunConfig,
    data_dir: str | Path,
    out_dir: str | Path,
    roc_from_folds: bool = False,
    explain_model: str | None = None,
) -> RunReport:
    """Execute the full training/fusion/evaluation/explanation pipeline."""
    arch_ids = microcnn.architecture_ids(config.K)
    if explain_model not in (None, *arch_ids):
        raise ConfigError(f"unknown explain model {explain_model!r} (have {arch_ids})")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    samples, split, nets, val_preds, test_preds = base_stages(config, data_dir, out)
    val = [samples[i] for i in split.val_ids]
    test = [samples[i] for i in split.test_ids]
    val_labels = np.array([s.label for s in val], dtype=np.int64)
    test_labels = np.array([s.label for s in test], dtype=np.int64)

    with error_context("stage weights"):
        fit = weighting.optimize_weights(val_preds, val_labels)
        _write_json(out / "weights.json", fit.to_dict())

    with error_context("stage oof"):
        folds = assign_folds(samples, split.train_ids, config.folds, config.seed)
        oof = stacking.oof_predictions(
            samples, split.train_ids, folds, functools.partial(_fit_predict_oof, config)
        )
        oof_ids = [samples[i].sample_id for i in oof.train_ids]
        save_predictions_csv(out / "oof.csv", oof.matrix, oof.labels, oof_ids, oof.fold_of)

    with error_context("stage meta"):
        meta = stacking.train_meta(oof.matrix, oof.labels, config.meta_ridge)
        _write_json(out / "meta.json", meta.to_dict())

    with error_context("stage evaluate"):  # rows and ROC files score the same level
        rule = config.fusion_combine_rule
        model_scores = _model_scores(test_preds, arch_ids, fit.alpha, meta, rule)
        scores, labels = model_scores, test_labels
        if config.eval_level == "subject_mean":
            scores, labels = _subject_means(scores, labels, [s.subject_id for s in test])
        rows, curves = score_rows(scores, labels, config.threshold)
        if roc_from_folds:
            scores, labels = _model_scores(oof.matrix, arch_ids, fit.alpha, meta, rule), oof.labels
            if config.eval_level == "subject_mean":
                ids = [samples[i].subject_id for i in oof.train_ids]
                scores, labels = _subject_means(scores, labels, ids)
            curves = score_rows(scores, labels, config.threshold)[1]
        roc_files = write_rocs(out, curves)

    with error_context("stage explain"):
        if explain_model is None:
            val_aucs = {
                arch: metrics.auc(metrics.roc_curve(val_labels, val_preds[:, k]))
                for k, arch in enumerate(arch_ids)
            }
            explain_model = max(arch_ids, key=lambda a: val_aucs[a])
        combined = model_scores["hybrid"]
        chosen = _pick_explained(test, combined, config.threshold)
        explanation_files = write_explanations(nets[explain_model], chosen, out)

    with error_context("stage report"):
        report = RunReport(
            seed=config.seed,
            task=config.task_name,
            config=config.to_dict(),
            counts={"train": len(split.train_ids), "val": len(val), "test": len(test)},
            rows=rows,
            alpha=[float(a) for a in fit.alpha],
            meta=meta.to_dict(),
            files={
                "weights": "weights.json",
                "meta": "meta.json",
                "oof": "oof.csv",
                "preds_val": "preds_val.csv",
                "preds_test": "preds_test.csv",
                "roc": roc_files,
                "checkpoints": {arch: f"checkpoints/{arch}.ckpt" for arch in arch_ids},
                "explanations": explanation_files,
                "explained_model": explain_model,
            },
        )
        write_report(out, asdict(report))
    return report


@returns_free_heap
def fuse_only(
    preds_csv: str | Path, config: RunConfig, out_dir: str | Path | None = None
) -> RunReport:
    """Learn fusion from a held-in split of an external prediction table.

    Rows are split per class with the run seed; weights and meta-learner are
    fit on the held-in rows (FIT_FRACTION of each class) and every model
    is scored on the remainder.
    """
    matrix, labels = load_predictions_csv(preds_csv)
    if matrix.shape[1] != config.K:
        raise ConfigError(f"config K={config.K} but CSV has {matrix.shape[1]} columns")
    rng = rng_for(config.seed, "fuse-split")
    fit_parts, eval_parts = [], []
    for label in (0, 1):
        members = np.flatnonzero(labels == label)
        rng.shuffle(members)
        cut = int(round(len(members) * FIT_FRACTION))
        fit_parts.append(members[:cut])
        eval_parts.append(members[cut:])
    fit_rows, eval_rows = np.sort(np.concatenate(fit_parts)), np.sort(np.concatenate(eval_parts))
    if not fit_rows.size or not eval_rows.size:
        raise DataError("held-in split left an empty side; need more rows")

    fit_matrix, fit_labels = matrix[fit_rows], labels[fit_rows]
    fit = weighting.optimize_weights(fit_matrix, fit_labels)
    meta = stacking.train_meta(fit_matrix, fit_labels, config.meta_ridge)
    eval_matrix, eval_labels = matrix[eval_rows], labels[eval_rows]
    names = [f"p{k + 1}" for k in range(matrix.shape[1])]
    model_scores = _model_scores(eval_matrix, names, fit.alpha, meta, config.fusion_combine_rule)
    rows, curves = score_rows(model_scores, eval_labels, config.threshold)
    report = RunReport(
        seed=config.seed,
        task=config.task_name,
        config=config.to_dict(),
        counts={"fit": len(fit_rows), "eval": len(eval_rows)},
        rows=rows,
        alpha=[float(a) for a in fit.alpha],
        meta=meta.to_dict(),
        files={},
    )
    if out_dir is not None:
        out = Path(out_dir)
        _write_json(out / "weights.json", fit.to_dict())
        _write_json(out / "meta.json", meta.to_dict())
        report.files = {
            "weights": "weights.json",
            "meta": "meta.json",
            "roc": write_rocs(out, curves),
        }
        write_report(out, asdict(report))
    return report
