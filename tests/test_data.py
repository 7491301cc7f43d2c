import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridens import data
from hybridens.data import (
    LabeledSample,
    assign_folds,
    load_image_dir,
    load_predictions_csv,
    save_predictions_csv,
    split_dataset,
)
from hybridens.errors import DataError
from hybridens.imageio import write_file, write_pgm
from oracle_utils import make_png


def make_samples(n_subjects, slices_per_subject=1, labels=None):
    samples = []
    for s in range(n_subjects):
        label = labels[s] if labels is not None else s % 2
        for i in range(slices_per_subject):
            samples.append(
                LabeledSample(f"s{s:03d}", i, np.zeros((4, 4)) + label * 0.5, label)
            )
    return samples


def partition_subjects(samples, ids):
    return {samples[i].subject_id for i in ids}


def test_split_100_subjects_60_20_20():
    samples = make_samples(100)
    split = split_dataset(samples, (0.6, 0.2, 0.2), seed=7)
    assert (len(split.train_ids), len(split.val_ids), len(split.test_ids)) == (60, 20, 20)


def test_split_keeps_subject_slices_together():
    samples = make_samples(5, slices_per_subject=4)
    split = split_dataset(samples, (0.6, 0.2, 0.2), seed=3)
    groups = [partition_subjects(samples, ids) for ids in
              (split.train_ids, split.val_ids, split.test_ids)]
    for a in range(3):
        for b in range(a + 1, 3):
            assert not (groups[a] & groups[b])
    # every slice lands with its subject
    assert sum(map(len, (split.train_ids, split.val_ids, split.test_ids))) == len(samples)


def test_split_stratifies_exactly_on_balanced_classes():
    # 5 subjects per class at (0.6, 0.2, 0.2) admits only one class layout:
    # 3/3, 1/1, 1/1.  Exhaustively check both classes in every partition.
    samples = make_samples(10, labels=[0] * 5 + [1] * 5)
    for seed in range(20):
        split = split_dataset(samples, (0.6, 0.2, 0.2), seed=seed)
        for ids, want in ((split.train_ids, 3), (split.val_ids, 1), (split.test_ids, 1)):
            labels = [samples[i].label for i in ids]
            assert labels.count(0) == want and labels.count(1) == want


def test_split_deterministic_per_seed():
    samples = make_samples(30, slices_per_subject=2)
    a = split_dataset(samples, (0.6, 0.2, 0.2), seed=11)
    b = split_dataset(samples, (0.6, 0.2, 0.2), seed=11)
    assert (a.train_ids, a.val_ids, a.test_ids) == (b.train_ids, b.val_ids, b.test_ids)
    c = split_dataset(samples, (0.6, 0.2, 0.2), seed=12)
    assert (a.train_ids, a.val_ids, a.test_ids) != (c.train_ids, c.val_ids, c.test_ids)


@settings(max_examples=40, deadline=None)
@given(
    n_subjects=st.integers(3, 40),
    slices=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
def test_split_partitions_cover_and_never_overlap(n_subjects, slices, seed):
    samples = make_samples(n_subjects, slices_per_subject=slices)
    split = split_dataset(samples, (0.6, 0.2, 0.2), seed=seed)
    all_ids = sorted(split.train_ids + split.val_ids + split.test_ids)
    assert all_ids == list(range(len(samples)))
    assert not (partition_subjects(samples, split.train_ids)
                & partition_subjects(samples, split.val_ids))
    assert not (partition_subjects(samples, split.train_ids)
                & partition_subjects(samples, split.test_ids))
    assert not (partition_subjects(samples, split.val_ids)
                & partition_subjects(samples, split.test_ids))


def test_split_rejects_bad_ratios_and_tiny_datasets():
    samples = make_samples(10)
    with pytest.raises(DataError, match="sum to 1"):
        split_dataset(samples, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(DataError, match="at least 3 subjects"):
        split_dataset(make_samples(2), (0.6, 0.2, 0.2), seed=0)


def test_assign_folds_even_division():
    samples = make_samples(10)
    folds = assign_folds(samples, list(range(10)), k=5, seed=0)
    sizes = sorted(list(folds.fold_of.values()).count(f) for f in range(5))
    assert sizes == [2, 2, 2, 2, 2]


def test_assign_folds_uneven_division():
    samples = make_samples(10)
    folds = assign_folds(samples, list(range(10)), k=3, seed=1)
    sizes = sorted(list(folds.fold_of.values()).count(f) for f in range(3))
    assert sizes == [3, 3, 4]


def test_assign_folds_deterministic():
    samples = make_samples(12, slices_per_subject=2)
    ids = list(range(len(samples)))
    a = assign_folds(samples, ids, k=4, seed=9)
    b = assign_folds(samples, ids, k=4, seed=9)
    assert a.fold_of == b.fold_of


def test_assign_folds_groups_subject_slices():
    samples = make_samples(6, slices_per_subject=3)
    ids = list(range(len(samples)))
    folds = assign_folds(samples, ids, k=3, seed=2)
    for subject in {s.subject_id for s in samples}:
        slice_folds = {folds.fold_of[i] for i in ids if samples[i].subject_id == subject}
        assert len(slice_folds) == 1


def test_assign_folds_rejects_k_beyond_subjects():
    samples = make_samples(4)
    with pytest.raises(DataError, match="exceeds"):
        assign_folds(samples, list(range(4)), k=5, seed=0)


def test_split_and_folds_are_pinned_to_their_seeded_streams():
    # Subjects in unsorted order, 1-4 slices each, and one (e) whose slices
    # tie, which counts as positive.  A change to the "split" or "folds"
    # stream, to the order before the shuffle or to the majority rule moves
    # these ids.
    layout = {"h": [1, 1], "c": [0, 0, 0], "e": [0, 1], "a": [0, 0], "j": [0],
              "f": [1, 1, 1], "b": [1], "i": [0, 0, 0, 0], "d": [1, 1], "g": [0]}
    samples = [LabeledSample(sid, i, np.zeros(1), label)
               for sid, labels in layout.items() for i, label in enumerate(labels)]
    split = split_dataset(samples, (0.6, 0.2, 0.2), seed=5)
    assert split.train_ids == [0, 1, 2, 3, 4, 9, 13, 18, 19, 20]  # h c j b d g
    assert split.val_ids == [5, 6, 7, 8]  # e a
    assert split.test_ids == [10, 11, 12, 14, 15, 16, 17]  # f i
    folds = assign_folds(samples, split.train_ids, k=3, seed=5)
    assert folds.fold_of == {2: 0, 3: 0, 4: 0, 18: 0, 19: 0, 9: 1, 13: 1, 20: 2, 0: 2, 1: 2}


def test_load_image_dir_layout(tmp_path):
    (tmp_path / "pos").mkdir()
    (tmp_path / "neg").mkdir()
    write_pgm(tmp_path / "pos" / "s1_00.pgm", np.full((8, 8), 1.0))
    write_pgm(tmp_path / "neg" / "s2_00.pgm", np.zeros((8, 8)))
    samples = load_image_dir(tmp_path, 8)
    assert len(samples) == 2
    by_label = {s.label: s for s in samples}
    assert by_label[1].subject_id == "pos/s1"
    assert by_label[0].subject_id == "neg/s2"
    assert by_label[1].payload[0, 0] == 1.0


def test_load_image_dir_resizes_with_corner_preservation(tmp_path):
    (tmp_path / "pos").mkdir()
    yy, xx = np.mgrid[0:16, 0:16].astype(np.float64)
    ramp = (yy + xx) / 40.0
    write_pgm(tmp_path / "pos" / "s1_00.pgm", ramp)
    stored = load_image_dir(tmp_path, input_side=16)[0].payload
    resized = load_image_dir(tmp_path, input_side=32)[0].payload
    assert resized.shape == (32, 32)
    assert resized[0, 0] == stored[0, 0]
    assert resized[-1, -1] == stored[-1, -1]


def test_load_image_dir_rejections(tmp_path):
    with pytest.raises(DataError, match="no samples"):
        (tmp_path / "pos").mkdir()
        load_image_dir(tmp_path, 4)
    (tmp_path / "maybe").mkdir()
    with pytest.raises(DataError, match="unknown label directory"):
        load_image_dir(tmp_path, 4)
    (tmp_path / "maybe").rmdir()
    bad = tmp_path / "pos" / "s1_00.pgm"
    bad.write_bytes(b"not an image")
    with pytest.raises(DataError, match="s1_00.pgm"):
        load_image_dir(tmp_path, 4)
    bad.unlink()
    write_pgm(tmp_path / "pos" / "s1_\u00b2.pgm", np.zeros((4, 4)))  # isdigit(), but not int()
    with pytest.raises(DataError, match="slice index is not an integer"):
        load_image_dir(tmp_path, 4)


def test_load_image_dir_ignores_root_files(tmp_path):
    (tmp_path / "pos").mkdir()
    write_pgm(tmp_path / "pos" / "s1_00.pgm", np.zeros((4, 4)))
    (tmp_path / "blobs.json").write_text("{}")
    (tmp_path / "pos" / "._s1_01.pgm").write_bytes(b"not an image")  # a dotfile is skipped too
    assert len(load_image_dir(tmp_path, 4)) == 1


@settings(max_examples=30, deadline=None)
@given(names=st.lists(
    st.tuples(st.sampled_from(["1", "01", "001"]), st.sampled_from([".pgm", ".png"])),
    min_size=2, max_size=2, unique=True,
))
def test_load_image_dir_rejects_two_files_for_one_slice(tmp_path_factory, names):
    root = tmp_path_factory.mktemp("dup")
    (root / "pos").mkdir()
    paths = [root / "pos" / f"a_{number}{suffix}" for number, suffix in names]
    for path in paths:
        if path.suffix == ".png":
            write_file(path, make_png(np.zeros((4, 4))))
        else:
            write_pgm(path, np.zeros((4, 4)))
    with pytest.raises(DataError) as info:
        load_image_dir(root, 4)
    assert str(info.value) == f"{min(paths)} and {max(paths)} are both slice pos/a_01"


def test_predictions_csv_shape(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,p1,p2,label\na,0.1,0.9,1\nb,0.4,0.6,0\nc,0.5,0.5,1\n")
    matrix, labels = load_predictions_csv(path)
    assert matrix.shape == (3, 2)
    assert labels.tolist() == [1, 0, 1]


def test_predictions_csv_k_inferred_from_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,p1,p2,p3,label\na,0.1,0.2,0.3,0\n")
    matrix, _ = load_predictions_csv(path)
    assert matrix.shape == (1, 3)


def test_predictions_csv_rejections_name_the_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,p1,p2,label\na,0.1,0.9,1\nb,1.2,0.3,0\n")
    with pytest.raises(DataError, match=r"p\.csv:3"):
        load_predictions_csv(path)
    path.write_text("id,p1,p2,label\na,0.1,1\n")
    with pytest.raises(DataError, match=r"p\.csv:2"):
        load_predictions_csv(path)
    path.write_text("id,p1,p2,label\na,0.1,0.9,2\n")
    with pytest.raises(DataError, match="label must be 0 or 1"):
        load_predictions_csv(path)


def test_predictions_csv_streams_so_an_earlier_bad_row_is_named_first(tmp_path):
    """Rows are checked as they are read.  A malformed row is reported before
    a non-UTF-8 byte or an over-long field that the reader meets only later;
    a bad byte inside the first decoded chunk is still reported first, and an
    over-long field in valid UTF-8 is reported as a CSV error, not an encoding one."""
    path = tmp_path / "p.csv"
    head = b"id,p1,p2,label\na,0.1,0.9,1\nb,0.3,0\n"
    filler = b"".join(b"r%05d,0.5,0.5,1\n" % i for i in range(1000))  # past one read chunk
    long_field = b"c," + b"1" * 200_000 + b",0.1,1\n"
    for tail in (filler + b"c,0.\xff,0.1,1\n", long_field):
        path.write_bytes(head + tail)
        with pytest.raises(DataError, match=r"p\.csv:3: expected 4 fields, got 3"):
            load_predictions_csv(path)
    path.write_bytes(head + b"c,0.\xff,0.1,1\n")
    with pytest.raises(DataError, match="not a UTF-8 CSV"):
        load_predictions_csv(path)
    path.write_bytes(b"id,p1,p2,label\n" + long_field)
    with pytest.raises(DataError, match=r"p\.csv: malformed CSV: field larger than field limit"):
        load_predictions_csv(path)


CHUNK = 4096  # rows, about 70 KB: each bad line below lies past the first 64 KB block


def good_rows(n):
    return b"".join(b"r%05d,0.5,0.25,%d\n" % (i, i % 2) for i in range(n))


@pytest.mark.parametrize("body, message", [
    # the first row of the second block
    (good_rows(CHUNK) + b"b,1.5,0.25,1\n", rf":{CHUNK + 2}: probability 1.5 outside \[0, 1\]"),
    # blank lines count as lines, also where they straddle a block boundary
    (good_rows(CHUNK - 2) + b"\n" * 4 + b"b,0.5,x,1\n", rf":{CHUNK + 4}: non-numeric probability"),
    # an earlier bad row, then a bad byte or an over-long field in the same block
    (good_rows(CHUNK) + b"b,0.3,0\n" + good_rows(1000) + b"c,0.\xff,0.1,1\n",
     rf":{CHUNK + 2}: expected 4 fields, got 3"),
    (good_rows(CHUNK) + b"b,0.3,0\n" + b"c," + b"1" * 200_000 + b",0.1,1\n",
     rf":{CHUNK + 2}: expected 4 fields, got 3"),
    (good_rows(CHUNK + 5) + b"b,0.5,0.5,01\n", rf":{CHUNK + 7}: label must be 0 or 1, got '01'"),
], ids=["second-block", "blank-lines", "then-bad-byte", "then-long-field", "label"])
def test_predictions_csv_names_the_earliest_bad_line_across_blocks(tmp_path, body, message):
    path = tmp_path / "p.csv"
    path.write_bytes(b"id,p1,p2,label\n" + body)
    with pytest.raises(DataError, match=r"p\.csv" + message):
        load_predictions_csv(path)


def test_predictions_csv_blocks_join_in_order(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"id,p1,p2,label\n" + good_rows(CHUNK - 2) + b"\n" * 4 + good_rows(CHUNK))
    matrix, labels = load_predictions_csv(path)
    assert matrix.shape == (2 * CHUNK - 2, 2) and np.all(matrix == [0.5, 0.25])
    assert labels.tolist() == [i % 2 for i in range(CHUNK - 2)] + [i % 2 for i in range(CHUNK)]


def test_predictions_csv_written_by_hybridens_skips_the_row_wise_parser(tmp_path, monkeypatch):
    """numpy's reader alone takes what save_predictions_csv writes, the fold
    column included, and CRLF line ends."""
    monkeypatch.setattr(data, "_parse_rows", mock.Mock(side_effect=AssertionError))
    rng = np.random.default_rng(3)
    matrix, labels = rng.random((50, 3)), rng.integers(0, 2, 50)
    path = tmp_path / "p.csv"
    save_predictions_csv(path, matrix, labels, [f"pos/s{i:03d}_00.pgm" for i in range(50)], labels)
    back, back_labels = load_predictions_csv(path)
    assert np.array_equal(back, matrix) and np.array_equal(back_labels, labels)
    path.write_bytes(CLEAN_CSV)
    assert load_predictions_csv(path)[1].tolist() == [1, 0, 1, 0, 1]


def test_predictions_csv_reads_past_a_fold_column(tmp_path):
    plain, folded = tmp_path / "plain.csv", tmp_path / "folded.csv"
    matrix, labels = np.array([[0.25, 0.5], [1.0, 1e-05]]), np.array([1, 0])
    save_predictions_csv(plain, matrix, labels, ["a", "b"])
    save_predictions_csv(folded, matrix, labels, ["a", "b"], np.array([1, 0]))
    for path in (plain, folded):
        back, back_labels = load_predictions_csv(path)
        assert np.array_equal(back, matrix) and np.array_equal(back_labels, labels)
    folded.write_text("id,fold,p1,p2,label\na,0,0.1,0.9,1\nb,1,0.3,0.2\n")
    with pytest.raises(DataError, match=r"folded\.csv:3: expected 5 fields, got 4"):
        load_predictions_csv(folded)
    folded.write_text("id,fold,label\na,0,1\n")
    with pytest.raises(DataError, match="header must be"):
        load_predictions_csv(folded)


def test_predictions_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    matrix = rng.random((6, 3))
    labels = rng.integers(0, 2, 6)
    path = tmp_path / "p.csv"
    ids = [f"r{i}" for i in range(5)] + ['a,"b']
    save_predictions_csv(path, matrix, labels, ids)
    back, back_labels = load_predictions_csv(path)
    assert np.array_equal(back, matrix)
    assert np.array_equal(back_labels, labels)
    with open(path, newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["id"] + ids
    assert b"\r" not in path.read_bytes()


def test_predictions_csv_fold_column_follows_the_id(tmp_path):
    path = tmp_path / "oof.csv"
    save_predictions_csv(path, np.array([[0.25, 0.5], [1.0, 1e-05]]), np.array([1, 0]),
                         ["a", "b"], np.array([1, 0]))
    assert path.read_text() == "id,fold,p1,p2,label\na,1,0.25,0.5,1\nb,0,1.0,1e-05,0\n"
    with pytest.raises(ValueError, match="matching lengths"):
        save_predictions_csv(path, np.zeros((2, 2)), np.zeros(2), ["a", "b"], np.zeros(3))


CLEAN_CSV = (
    b"id,p1,p2,label\r\na,0.1,0.9,1\r\nb,0.4,0.6,0\r\nc,0.5,0.5,1\r\n"
    b"d,1.0,0.0,0\r\ne,0.0,1.0,1\r\n"
)


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, 2**16), pos=st.integers(0, 2**16), flip=st.integers(0, 255))
@example(cut=len(CLEAN_CSV), pos=16, flip=0xFF)  # a byte that is not UTF-8
@example(cut=len(CLEAN_CSV), pos=27, flip=0x13)  # label "1\x1e": int() rejects what strip() drops
def test_damaged_predictions_csv_parses_or_raises_data_error(tmp_path_factory, cut, pos, flip):
    raw = bytearray(CLEAN_CSV[: cut % (len(CLEAN_CSV) + 1)])
    if raw:
        raw[pos % len(raw)] ^= flip
    path = tmp_path_factory.mktemp("fuzz") / "damaged.csv"
    path.write_bytes(bytes(raw))
    try:
        matrix, labels = load_predictions_csv(path)
    except DataError:
        return
    assert matrix.shape[0] == len(labels)
    assert np.all((matrix >= 0.0) & (matrix <= 1.0)) and set(labels.tolist()) <= {0, 1}


def read_outcome(path):
    """(matrix, labels) from load_predictions_csv, or its DataError message."""
    try:
        return load_predictions_csv(path)
    except DataError as exc:
        return str(exc)


VALID_IDS = st.sampled_from(["a", "r00001", "", '"a,b"', '"a""b"', 'a"b'])
VALID_PROBS = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "-0.0", ".5", "1e-400", '"0.25"', " 0.75 ", "\f0.25\v", "\t1"]),
)
VALID_LABELS = st.sampled_from(["0", "1", '"1"'])
ODD_CELLS = st.one_of(
    st.sampled_from([
        " 1", "0\t", "1.0", "+1", "01", "1\x00", "\x1c0.5", "0.5\x1f", "0.1_2", "\u0661", "nan",
        "inf", "1.5", "", "x", "0.5,0.5", '"a\nb"', '"a\r\nb"', '"0.5\n"', '"1', "\xa00.5",
        "0.5\u2028", "\x850.5",
    ]),
    st.text(max_size=3),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r", "\n\n"])  # mostly one line a row


@st.composite
def prediction_csvs(draw):
    """A header and up to four rows of valid cells, where a row may have one
    cell replaced by an odd one, and every line end is drawn."""
    fold = draw(st.booleans())
    text = ("id,fold,p1,p2,label" if fold else "id,p1,p2,label") + draw(LINE_ENDS)
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(VALID_IDS)] + ["1"] * fold + [draw(VALID_PROBS), draw(VALID_PROBS),
                                                    draw(VALID_LABELS)]
        if draw(st.integers(0, 2)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
        text += ",".join(row) + draw(LINE_ENDS)
    return text.encode()


HEAD = b"id,p1,p2,label\n"


@settings(max_examples=400, deadline=None)
@given(raw=prediction_csvs())
# Each example is a place where numpy's reader and the row-wise rules part:
@example(raw=HEAD + b"a,0.5,0.5,1\x00\n")  # numpy drops a string's trailing NUL
@example(raw=HEAD + b"i" * 131_073 + b",0.5,0.5,1\n")  # numpy has no field size limit
@example(raw=HEAD + b'"' + b"i\n" * 65_537 + b'",0.5,0.5,1\n')  # nor across lines
@example(raw=HEAD + b'"x,0.5,0.5,1\ny",0.5,0.5,0\n')  # one record over two full-width lines
@example(raw=HEAD + b"a,0.5,0.5,1.0\n")  # a float parse takes these labels
@example(raw=HEAD + b"a,0.5,0.5,+1\n")
@example(raw=HEAD + b"a,0.5,0.5,01\n")
@example(raw=b"id,p1,p2,p3,label\na,0.1,0.2,0.3,1,0.5\n")  # a sixth column
@example(raw=HEAD + b"a,0.1_2,0.5,1\n")  # float() takes these, numpy does not
@example(raw=HEAD + "a,0.5,\u0661,1\n".encode())
@example(raw=HEAD + b"a,\f0.5\v,0.25,1\n")
@example(raw=HEAD + b"a,\x1c0.5,0.25,1\n")  # numpy strips \x1c-\x1f, float() does not
@example(raw=b"id,p1,p2,label\ra,0.5,0.25,1\rb,0.5,0.5,0\r")
@example(raw=HEAD + b'"a,b",0.5,0.25,1\n"a""b",0.5,0.5,0\n"a\nb",0.25,0.5,1\n')
@example(raw=HEAD + b"a,0.5,0.\xff5,1\n")
@example(raw=HEAD + b"a,0.5,nan,1\n")  # numpy's only value check is the range
def test_predictions_csv_reader_matches_the_row_wise_rules(tmp_path_factory, raw):
    """numpy's reader decides nothing on its own: with it or without it (the
    row-wise parser alone), a file gives the same bits or the same message."""
    path = tmp_path_factory.mktemp("diff") / "p.csv"
    path.write_bytes(raw)
    got = read_outcome(path)
    with mock.patch.object(data, "_numpy_table", lambda *args: None):
        want = read_outcome(path)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    for have, ref in zip(got, want):
        assert have.dtype == ref.dtype and have.shape == ref.shape
        assert have.tobytes() == ref.tobytes()  # np.array_equal, and the sign of -0.0
