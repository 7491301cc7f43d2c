"""Binary-classification scoring: ACC/SEN/SPE, ROC, AUC."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


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


def acc_sen_spe(labels, predictions) -> tuple[float, float, float]:
    """(accuracy, sensitivity, specificity) of 0/1 predictions, as fractions.

    A class with no members makes its rate undefined; that slot is returned
    as NaN rather than a fabricated 0 or 1.
    """
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
    acc = (tp + tn) / (tp + fp + tn + fn)
    sen = tp / (tp + fn) if (tp + fn) > 0 else math.nan
    spe = tn / (tn + fp) if (tn + fp) > 0 else math.nan
    return acc, sen, spe


def roc_curve(labels, scores) -> RocCurve:
    """ROC points, one per distinct score plus the (0, 0) start.

    Equal scores collapse into a single threshold step, which draws tied
    positive/negative groups as diagonal segments; together with the
    trapezoid rule this makes the curve's area exactly the Mann-Whitney
    statistic with ties counted one half.  The order inside a run of equal
    scores changes neither `fp` nor `tp`, so the sort need not be stable.
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
    order = np.argsort(-scores)
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
    fpr, tpr = (_fraction_texts(counts, texts) for counts in (curve.fp, curve.tp))
    parts = ["fpr,tpr\n"]
    # One fixed-width row per point, 2**16 rows (3 MiB) at a time: numpy madvises huge pages
    # from 4 MiB, which made the peak RSS jump by 10 MB from one run to the next.
    for f, t in zip(*(np.split(a, range(1 << 16, a.size, 1 << 16)) for a in (fpr, tpr))):
        rows = np.zeros(f.size, [("fpr", f.dtype), ("sep", "S1"), ("tpr", t.dtype), ("nl", "S1")])
        rows["fpr"], rows["sep"], rows["tpr"], rows["nl"] = f, b",", t, b"\n"
        rows = rows.view(np.uint8)  # no `repr` holds the padding spaces dropped here
        parts.append(str(memoryview(rows[rows != ord(" ")]), "ascii"))
    return "".join(parts)


def _fraction_texts(counts: np.ndarray, texts: dict) -> np.ndarray:
    """The space-padded `repr` of each `counts[i] / counts[-1]`, from `texts[counts[-1]]`:
    a bytes array indexed by count, holding `b""` where not yet formatted, which this fills."""
    n = int(counts[-1])
    # 22 bytes hold the longest `repr` of k/n for any 0 <= k <= n < 10**99.
    table = texts.setdefault(n, np.zeros(n + 1, dtype="S22"))
    # Sorted: the first of each run of equal neighbours lists every count once.
    distinct = counts[np.append(True, counts[1:] != counts[:-1])]
    new = distinct[table[distinct] == b""]
    if new.size:
        fresh = f"%-{table.itemsize}r" * new.size % tuple((new / n).tolist())
        assert len(fresh) == table.itemsize * new.size, "a longer text would shift those after it"
        table[new] = np.frombuffer(fresh.encode("ascii"), dtype=table.dtype)
    return table[counts]
