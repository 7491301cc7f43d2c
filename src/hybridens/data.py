"""Samples, subject-grouped stratified splitting, fold assignment, ingestion.

Splitting and fold assignment operate on subjects, never on slices: all
slices of a subject stay together, which is what keeps validation and test
metrics honest when subjects contribute multiple slices.
"""

from __future__ import annotations

import csv
import io
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .imageio import bilinear_resize, read_image, write_file
from .seeding import rng_for

LABEL_DIRS = {"neg": 0, "pos": 1}


@dataclass
class LabeledSample:
    """One grayscale slice (or precomputed prediction row) with its label."""

    subject_id: str
    slice_index: int
    payload: np.ndarray
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label!r}")
        if self.slice_index < 0:
            raise DataError(f"slice_index must be nonnegative, got {self.slice_index}")

    @property
    def sample_id(self) -> str:
        return f"{self.subject_id}_{self.slice_index:02d}"


@dataclass
class DatasetSplit:
    train_ids: list[int]
    val_ids: list[int]
    test_ids: list[int]


@dataclass
class FoldAssignment:
    """Maps each training-sample index to a fold id in [0, k)."""

    fold_of: dict[int, int]
    k: int


def _subject_table(samples: list[LabeledSample]) -> dict[str, dict]:
    """Group sample indices by subject; subject label is the majority label."""
    table: dict[str, dict] = {}
    for i, s in enumerate(samples):
        entry = table.setdefault(s.subject_id, {"indices": [], "labels": []})
        entry["indices"].append(i)
        entry["labels"].append(s.label)
    for entry in table.values():
        entry["label"] = int(np.mean(entry["labels"]) >= 0.5)
    return table


def _apportion(count: int, ratios: tuple[float, float, float]) -> list[int]:
    """Largest-remainder apportionment of `count` items into three bins."""
    exact = [count * r for r in ratios]
    base = [int(np.floor(e)) for e in exact]
    short = count - sum(base)
    order = sorted(range(3), key=lambda j: (-(exact[j] - base[j]), j))
    for j in order[:short]:
        base[j] += 1
    return base


def split_dataset(
    samples: list[LabeledSample],
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> DatasetSplit:
    """Stratified, subject-grouped train/val/test split.

    Subjects of each class are shuffled with the given seed and apportioned
    by largest remainder, so partition sizes land within one subject of each
    class's exact share and the whole split is reproducible from the seed.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DataError(f"ratios must be three positive fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {ratios} (sum {sum(ratios)})")
    if not samples:
        raise DataError("cannot split an empty sample list")
    subjects = _subject_table(samples)
    if len(subjects) < 3:
        raise DataError(
            f"need at least 3 subjects to fill train/val/test, got {len(subjects)}"
        )
    rng = rng_for(seed, "split")
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label in (0, 1):
        ids = sorted(sid for sid, e in subjects.items() if e["label"] == label)
        if not ids:
            continue
        rng.shuffle(ids)
        counts = _apportion(len(ids), tuple(ratios))
        cursor = 0
        for part, n in zip(parts, counts):
            for sid in ids[cursor : cursor + n]:
                part.extend(subjects[sid]["indices"])
            cursor += n
    train, val, test = (sorted(p) for p in parts)
    return DatasetSplit(train_ids=train, val_ids=val, test_ids=test)


def assign_folds(
    samples: list[LabeledSample],
    train_ids: list[int],
    k: int,
    seed: int = 0,
) -> FoldAssignment:
    """Stratified, subject-grouped k-fold assignment over training samples.

    Subjects are shuffled per class and dealt round-robin, so fold sizes in
    subjects differ by at most one and each class spreads as evenly as the
    grouping allows.
    """
    if k < 2:
        raise DataError(f"fold count must be >= 2, got {k}")
    subset = [samples[i] for i in train_ids]
    subjects = _subject_table(subset)
    if len(subjects) < k:
        raise DataError(f"k={k} exceeds the {len(subjects)} training subjects")
    rng = rng_for(seed, "folds")
    fold_of: dict[int, int] = {}
    position = 0
    for label in (0, 1):
        ids = sorted(sid for sid, e in subjects.items() if e["label"] == label)
        if not ids:
            continue
        rng.shuffle(ids)
        for sid in ids:
            fold = position % k
            for local in subjects[sid]["indices"]:
                fold_of[train_ids[local]] = fold
            position += 1
    return FoldAssignment(fold_of=fold_of, k=k)


def load_image_dir(path: str | Path, input_side: int | None = None) -> list[LabeledSample]:
    """Ingest `<root>/<pos|neg>/<subject>_<slice>.{pgm,png}` into samples.

    Intensities arrive in [0, 1]; if `input_side` is given every image is
    bilinearly resized to that square size.  Regular files directly under
    the root (e.g. generator sidecars) are ignored; unknown subdirectories
    are rejected.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"dataset root is not a directory: {root}")
    samples: list[LabeledSample] = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        if child.name not in LABEL_DIRS:
            raise DataError(f"unknown label directory (want pos/ or neg/): {child}")
        label = LABEL_DIRS[child.name]
        for file in sorted(child.iterdir()):
            if file.name.startswith("."):
                continue
            stem = file.stem
            if "_" not in stem:
                raise DataError(f"filename must look like <subject>_<slice>: {file}")
            subject, _, slice_part = stem.rpartition("_")
            if not slice_part.isdecimal():  # exactly the digits int() reads
                raise DataError(f"slice index is not an integer in: {file}")
            image = read_image(file)
            if input_side is not None:
                image = bilinear_resize(image, input_side, input_side)
            samples.append(
                LabeledSample(
                    subject_id=f"{child.name}/{subject}",
                    slice_index=int(slice_part),
                    payload=image,
                    label=label,
                )
            )
    if not samples:
        raise DataError(f"no samples found under: {root}")
    return samples


def load_predictions_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an `id[,fold],p1,...,pK,label` CSV into (N, K) probabilities and labels.

    Returns (matrix, labels); ids and folds are not read.  Every probability
    must lie in [0, 1] and every label in {0, 1}; violations name the
    offending line, and the earliest one is named first.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"empty predictions CSV: {path}")
            header = [h.strip() for h in header]
            lead = 2 if header[1:2] == ["fold"] else 1  # columns before p1
            if len(header) < lead + 2 or header[0] != "id" or header[-1] != "label":
                raise DataError(f"{path}: header must be id,p1,...,pK,label, got {header}")
            expected = [f"p{i}" for i in range(1, len(header) - lead)]
            if header[lead:-1] != expected:
                raise DataError(
                    f"{path}: probability columns must be {expected}, got {header[lead:-1]}"
                )
            table = _numpy_table(path, lead, len(expected))
            if table is None:  # numpy's reader refused the file or could not decide it
                fh.seek(0)
                table = _parse_rows(fh, path, lead, len(expected))
    except OSError as exc:
        raise DataError(f"cannot read predictions CSV: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 CSV: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over the reader's size limit
        raise DataError(f"{path}: malformed CSV: {exc}") from exc
    return table


def _numpy_table(path: Path, lead: int, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(matrix, labels) of the rows after the header as numpy's C reader parses
    them, or None where the row-wise rules must decide.  numpy reads no file
    named for a compression it would undo, nor one whose raw bytes hold
    - a NUL, which numpy drops from the end of a string, or a byte 0x1c-0x1f,
      which numpy strips from around a number and float() does not;
    - a block of half csv.field_size_limit() bytes (at most 64 KB) with no LF,
      since a line over the limit fills one and numpy has no field size limit;
    - a double quote, since a quoted field may span lines and so pass the
      limit unseen.
    The table is kept if every label is exactly "0" or "1" and every
    probability lies in [0, 1]."""
    if path.suffix in (".bz2", ".gz", ".lzma", ".xz"):
        return None
    step = max(1, min(csv.field_size_limit() // 2, 1 << 16))
    with open(path, "rb") as raw:
        while chunk := raw.read(step):
            if b"\n" not in chunk or any(b in chunk for b in b'\0\x1c\x1d\x1e\x1f"'):
                return None
    # A bytes label takes a quarter of the memory; numpy refuses a non-Latin-1 one.
    dtype = [("lead", "U1", (lead,)), ("p", "f8", (k,)), ("label", "S2")]
    try:
        with warnings.catch_warnings():  # an empty body: the row-wise parser words it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                               encoding="utf-8", ndmin=1)
    except (OSError, ValueError):  # a row numpy cannot read, or a byte that is not UTF-8
        return None
    values, labels = table["p"], table["label"]
    ones = labels == b"1"
    if (not len(table) or not (ones | (labels == b"0")).all()
            or not ((values >= 0.0) & (values <= 1.0)).all()):  # NaN fails too
        return None
    values = np.ascontiguousarray(values)
    del table, labels  # before the labels' int64 copy
    return values, ones.astype(np.int64)


def _parse_rows(fh, path: Path, lead: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The row-wise rules: parse `fh` from its header on, one `csv` row at a
    time, and raise for the first bad row, or let the decoding or CSV error
    met before any bad row propagate."""
    values, labels = array("d"), array("q")
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if lineno == 1 or not row:  # the header, checked by the caller, or a blank row
            continue
        if len(row) != lead + k + 1:
            raise DataError(f"{path}:{lineno}: expected {lead + k + 1} fields, got {len(row)}")
        try:
            probs = list(map(float, row[lead:-1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric probability") from exc
        for v in probs:
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{path}:{lineno}: probability {v} outside [0, 1]")
        label = row[-1].strip()
        if label not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {row[-1]!r}")
        values.extend(probs)
        labels.append(label == "1")
    if not labels:
        raise DataError(f"no data rows in predictions CSV: {path}")
    return np.array(values).reshape(-1, k), np.array(labels)


def save_predictions_csv(
    path: str | Path, matrix: np.ndarray, labels: np.ndarray, ids: list[str],
    folds: np.ndarray | None = None,
) -> None:
    """Write the `id[,fold],p1,...,pK,label` schema read by :func:`load_predictions_csv`,
    with the `fold` column when `folds` is given.  Lines end in LF;
    fields are quoted as RFC 4180 asks, only where they need it."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n, k = matrix.shape
    if len(labels) != n or len(ids) != n or (folds is not None and len(folds) != n):
        raise ValueError("matrix, labels, ids and folds must have matching lengths")
    if folds is None:
        head, lead = ["id"], [[i] for i in ids]
    else:
        head, lead = ["id", "fold"], [[i, int(f)] for i, f in zip(ids, folds)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(head + [f"p{i}" for i in range(1, k + 1)] + ["label"])
    for i in range(n):
        writer.writerow(lead[i] + [repr(float(v)) for v in matrix[i]] + [int(labels[i])])
    write_file(path, buf.getvalue())
