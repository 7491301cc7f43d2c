"""Output checks computed apart from the program.

Each check either recomputes a reported number with an independent method
(rank-based AUC, confusion recount, trapezoid over the written ROC points)
or tests a property the method must have (simplex weights, no OOF leak,
non-negative heatmaps).  A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

AUC_TOL = 1e-12
BCE_EPS = 1e-12


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rank_auc(labels, scores) -> float:
    """Mann-Whitney AUC from average ranks: ties count one half."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(s, kind="mergesort")
    ordered = s[order]
    starts = np.r_[0, np.flatnonzero(np.diff(ordered)) + 1]
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rates(labels, scores, tau: float) -> tuple[float, float, float]:
    """(accuracy, sensitivity, specificity) recounted at `p > tau`."""
    y = np.asarray(labels)
    hard = np.asarray(scores) > tau
    tp = int(np.sum(hard & (y == 1)))
    tn = int(np.sum(~hard & (y == 0)))
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    return (tp + tn) / len(y), tp / n_pos, tn / n_neg


def check_row(row: dict, labels, scores, tau: float) -> None:
    """A report row's AUC and ACC/SEN/SPE against independent recounts."""
    name = row["model"]
    auc = rank_auc(labels, scores)
    require(abs(row["auc"] - auc) <= AUC_TOL,
            f"{name}: reported AUC {row['auc']!r} != rank AUC {auc!r}")
    for key, value in zip(("acc", "sen", "spe"), rates(labels, scores, tau)):
        require(abs(row[key] - value) <= AUC_TOL,
                f"{name}: reported {key} {row[key]!r} != recount {value!r}")


def check_simplex(alpha, what: str) -> None:
    a = np.asarray(alpha, dtype=np.float64)
    require(bool(np.all(a >= 0.0)) and abs(float(a.sum()) - 1.0) <= 1e-12,
            f"{what} {a.tolist()} is not on the simplex")


def roc_file_area(path: Path) -> float:
    """Trapezoid area under the `fpr,tpr` points of a written ROC CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["fpr", "tpr"], f"{path.name}: bad header")
    pts = [(float(x), float(y)) for x, y in rows[1:]]
    require(pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0),
            f"{path.name}: curve does not run from (0,0) to (1,1)")
    return sum((x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


def check_roc_files(out: Path, rows: list[dict], names) -> None:
    by_model = {row["model"]: row for row in rows}
    for name in names:
        area = roc_file_area(out / f"roc_{name}.csv")
        require(abs(by_model[name]["auc"] - area) <= AUC_TOL,
                f"{name}: reported AUC {by_model[name]['auc']!r} != ROC file area {area!r}")


def bce(p, y) -> float:
    q = np.clip(np.asarray(p, dtype=np.float64), BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(y, dtype=np.float64)
    return float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))


def sigmoid(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def read_table(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, list[dict]]:
    """(ids, probability matrix, labels, raw rows) of a prediction-style CSV
    whose first column is the id and last the label."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = [j for j, h in enumerate(header) if h.startswith("p")]
    ids = [r[0] for r in body]
    matrix = np.array([[float(r[j]) for j in cols] for r in body])
    labels = np.array([int(r[-1]) for r in body])
    return ids, matrix, labels, [dict(zip(header, r)) for r in body]


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def read_netpbm(path: Path) -> np.ndarray:
    """8-bit binary PGM (H, W) or PPM (H, W, 3) as written by the program."""
    raw = Path(path).read_bytes()
    magic, dims, maxval, pixels = raw.split(b"\n", 3)
    require(maxval == b"255" and magic in (b"P5", b"P6"), f"{path.name}: not an 8-bit PGM/PPM")
    w, h = (int(v) for v in dims.split())
    planes = 3 if magic == b"P6" else 1
    img = np.frombuffer(pixels, dtype=np.uint8)
    require(img.size == w * h * planes, f"{path.name}: pixel block is {img.size} bytes")
    return img.reshape((h, w, 3) if planes == 3 else (h, w))


def subject_of(sample_id: str) -> str:
    return sample_id.rpartition("_")[0]


def centroid_in_box(cam: np.ndarray, truth: dict) -> bool | None:
    """Is the heatmap's centroid inside the blob box dilated to twice its
    size?  None when the map carries no mass."""
    mass = float(cam.sum())
    if mass == 0.0:
        return None
    rr, cc = np.mgrid[0 : cam.shape[0], 0 : cam.shape[1]]
    row = float((cam * rr).sum() / mass)
    col = float((cam * cc).sum() / mass)
    half = 2.0 * truth["radius"]
    return abs(row - truth["row"]) <= half and abs(col - truth["col"]) <= half
