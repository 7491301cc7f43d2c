"""Binary-classification scoring: confusion counts, ACC/SEN/SPE, ROC, AUC."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class RocCurve:
    """ROC points from (0, 0) to (1, 1) as integer counts: `fp[i]` negatives and
    `tp[i]` positives at or above threshold step i, both nondecreasing from 0.
    The last entries are the class sizes, so `fpr` and `tpr` are the counts over them."""

    fp: np.ndarray
    tp: np.ndarray

    @property
    def fpr(self) -> np.ndarray:
        return self.fp / self.fp[-1]

    @property
    def tpr(self) -> np.ndarray:
        return self.tp / self.tp[-1]


def confusion(labels, predictions) -> ConfusionMatrix:
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if labels.shape != predictions.shape:
        raise DataError(
            f"labels and predictions have different lengths: {labels.shape} vs {predictions.shape}"
        )
    if labels.size == 0:
        raise DataError("cannot score an empty sample set")
    tp = int(np.sum((labels == 1) & (predictions == 1)))
    fp = int(np.sum((labels == 0) & (predictions == 1)))
    tn = int(np.sum((labels == 0) & (predictions == 0)))
    fn = int(np.sum((labels == 1) & (predictions == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def acc_sen_spe(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """(accuracy, sensitivity, specificity) as fractions.

    A class with no members makes its rate undefined; that slot is returned
    as NaN rather than a fabricated 0 or 1.
    """
    total = cm.total
    acc = (cm.tp + cm.tn) / total
    sen = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else math.nan
    spe = cm.tn / (cm.tn + cm.fp) if (cm.tn + cm.fp) > 0 else math.nan
    return acc, sen, spe


def roc_curve(labels, scores) -> RocCurve:
    """ROC points, one per distinct score plus the (0, 0) start.

    Equal scores collapse into a single threshold step, which draws tied
    positive/negative groups as diagonal segments; together with the
    trapezoid rule this makes the curve's area exactly the Mann-Whitney
    statistic with ties counted one half.
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise DataError("labels and scores have different lengths")
    if not np.all(np.isfinite(scores)):
        raise DataError("ROC scores must be finite; got NaN or infinity")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != labels.size:
        raise DataError("ROC labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(labels[order] == 1, dtype=np.int64)
    # The last index of each run of equal scores closes one threshold step.
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]), ranked.size - 1)
    return RocCurve(fp=np.append(0, ends + 1 - tp[ends]), tp=np.append(0, tp[ends]))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve, summed left to right."""
    x, y = curve.fpr, curve.tpr
    return float(np.cumsum((x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0)[-1])


def roc_points_csv(curve: RocCurve, texts: dict | None = None) -> str:
    """Render the curve as `fpr,tpr` CSV text, each value as its shortest `repr`.

    `texts` is a table of the fractions formatted so far, which this call
    fills and reads; curves that share it format each fraction once.
    """
    texts = {} if texts is None else texts
    cells = [_fraction_texts(counts, texts) for counts in (curve.fp, curve.tp)]
    return "fpr,tpr\n" + "\n".join(map(",".join, zip(*cells))) + "\n"


def _fraction_texts(counts: np.ndarray, texts: dict) -> np.ndarray:
    """The `repr` of each `counts[i] / counts[-1]`, formatting only the counts
    that `texts[counts[-1]]` lacks and adding them there.

    A table entry is (sorted counts, their texts), closed by the sentinel
    count n + 1 so that every count finds a slot with `searchsorted`.
    """
    n = int(counts[-1])
    known, known_texts = texts.get(n, (np.array([n + 1]), np.array([""], dtype=object)))
    # Sorted: the first of each run of equal neighbours lists every count once.
    distinct = counts[np.append(True, counts[1:] != counts[:-1])]
    at = np.searchsorted(known, distinct)
    missing = known[at] != distinct
    if missing.any():
        new, at = distinct[missing], at[missing]
        fresh = repr((new / n).tolist())[1:-1].split(", ")
        known = np.insert(known, at, new)
        known_texts = np.insert(known_texts, at, np.array(fresh, dtype=object))
        texts[n] = (known, known_texts)
    return known_texts[np.searchsorted(known, counts)]
