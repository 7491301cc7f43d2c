import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hybridens import cli
from hybridens.data import load_image_dir
from hybridens.errors import ConfigError
from hybridens.synth import BLOB_RADIUS, SynthSpec, synth_data


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_counts_and_layout(tmp_path):
    spec = SynthSpec(subjects_per_class=10, slices_per_subject=4, image_side=24, seed=3)
    root = synth_data(spec, tmp_path / "d")
    pos = list((root / "pos").glob("*.pgm"))
    neg = list((root / "neg").glob("*.pgm"))
    assert len(pos) == 40 and len(neg) == 40
    samples = load_image_dir(root, 24)
    assert len(samples) == 80
    assert sum(s.label for s in samples) == 40


def test_same_seed_is_byte_identical(tmp_path):
    spec = SynthSpec(subjects_per_class=4, slices_per_subject=2, image_side=16, seed=9)
    a = synth_data(spec, tmp_path / "a")
    b = synth_data(spec, tmp_path / "b")
    assert dir_digest(a) == dir_digest(b)
    c = synth_data(SynthSpec(subjects_per_class=4, slices_per_subject=2,
                             image_side=16, seed=10), tmp_path / "c")
    assert dir_digest(a) != dir_digest(c)


def test_zero_noise_mean_intensity_oracle_is_perfect(tmp_path):
    # With no noise and an amplitude gap of 0.6, thresholding the image mean
    # separates the classes exactly.
    spec = SynthSpec(
        subjects_per_class=10, slices_per_subject=2, image_side=32, noise_sigma=0.0, seed=2,
    )
    root = synth_data(spec, tmp_path / "d")
    samples = load_image_dir(root, 32)
    means = np.array([s.payload.mean() for s in samples])
    labels = np.array([s.label for s in samples])
    cut = (means[labels == 1].min() + means[labels == 0].max()) / 2
    assert np.mean((means > cut).astype(int) == labels) == 1.0


def test_sidecar_records_subject_geometry(tmp_path):
    spec = SynthSpec(subjects_per_class=3, slices_per_subject=2, image_side=24, seed=4)
    root = synth_data(spec, tmp_path / "d")
    truth = json.loads((root / "blobs.json").read_text())
    assert truth["seed"] == 4
    assert len(truth["subjects"]) == 6
    for key, entry in truth["subjects"].items():
        assert set(entry) == {"label", "row", "col", "radius", "jitter"}
        assert entry["radius"] == BLOB_RADIUS
        assert 0 <= entry["row"] <= 23 and 0 <= entry["col"] <= 23
    # The "synth" stream fixes every centre; a draw added to or dropped from
    # a subject's draws moves the next subject's.
    second = truth["subjects"]["neg/s0001"]
    assert (second["row"], second["col"]) == (11.181939354921358, 11.206388897557314)
    # sidecar subjects match the files on disk
    samples = load_image_dir(root, 24)
    assert {s.subject_id for s in samples} == set(truth["subjects"])


def test_pixels_stay_in_unit_range(tmp_path):
    spec = SynthSpec(subjects_per_class=3, slices_per_subject=2, image_side=16,
                     noise_sigma=0.5, seed=6)
    root = synth_data(spec, tmp_path / "d")
    for s in load_image_dir(root, 16):
        assert s.payload.min() >= 0.0 and s.payload.max() <= 1.0


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        SynthSpec(subjects_per_class=0)
    with pytest.raises(ConfigError):
        SynthSpec(noise_sigma=-0.1)


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
def test_cli_rejects_a_noise_level_that_is_not_finite_and_nonnegative(tmp_path, capsys, sigma):
    out = tmp_path / "d"
    assert cli.main(["synth-data", "--out", str(out), "--noise-sigma", sigma]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: noise_sigma must be a finite number >= 0, got {float(sigma)}\n"
    assert not out.exists()
