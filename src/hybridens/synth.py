"""Seeded synthetic slice generator.

Each subject gets a fixed blob location; positives carry a bright Gaussian
blob, negatives a dimmer one, over a flat background with additive noise.
Ground-truth blob geometry goes to a sidecar JSON so explanation heatmaps
can be scored against known coordinates.  Same seed, same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .imageio import write_file, write_pgm
from .seeding import rng_for

BACKGROUND = 0.1
BLOB_RADIUS = 5.0
BLOB_INTENSITY = {0: 0.3, 1: 0.9}  # by class, added to BACKGROUND
SLICE_JITTER = 4.0  # per-axis bound of a slice's blob offset, in pixels


@dataclass
class SynthSpec:
    subjects_per_class: int = 10
    slices_per_subject: int = 20
    image_side: int = 32
    noise_sigma: float = 0.04
    seed: int = 0

    def __post_init__(self) -> None:
        if self.subjects_per_class < 1 or self.slices_per_subject < 1:
            raise ConfigError("subject and slice counts must be positive")
        if self.image_side < 8:
            raise ConfigError(f"image_side must be at least 8, got {self.image_side}")
        if not 0.0 <= self.noise_sigma < float("inf"):  # NaN fails too
            raise ConfigError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")


def _blob(side: int, row: float, col: float, amplitude: float) -> np.ndarray:
    rr, cc = np.mgrid[0:side, 0:side].astype(np.float64)
    sigma = BLOB_RADIUS / 2.0
    return amplitude * np.exp(-((rr - row) ** 2 + (cc - col) ** 2) / (2.0 * sigma**2))


def synth_data(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write the pos/neg PGM layout plus a `blobs.json` ground-truth sidecar."""
    root = Path(out_dir)
    rng = rng_for(spec.seed, "synth")
    truth: dict[str, dict] = {}
    margin = BLOB_RADIUS + SLICE_JITTER + 2.0
    lo, hi = margin, spec.image_side - 1 - margin
    if hi <= lo:  # image too small for the margin; park blobs centrally
        lo = hi = (spec.image_side - 1) / 2.0
    for label, class_dir in ((0, "neg"), (1, "pos")):
        amp = BLOB_INTENSITY[label]
        for subj in range(spec.subjects_per_class):
            subject = f"s{label}{subj:03d}"
            row = float(rng.uniform(lo, hi))
            col = float(rng.uniform(lo, hi))
            rng.random()  # a spare draw: dropping it would shift every later draw and file
            truth[f"{class_dir}/{subject}"] = {
                "label": label,
                "row": row,
                "col": col,
                "radius": BLOB_RADIUS,
                "jitter": SLICE_JITTER,
            }
            for idx in range(spec.slices_per_subject):
                # slices share the subject's blob; the center wobbles per slice
                dr, dc = rng.uniform(-SLICE_JITTER, SLICE_JITTER, 2)
                image = BACKGROUND + _blob(spec.image_side, row + dr, col + dc, amp)
                if spec.noise_sigma > 0:
                    image = image + rng.normal(0.0, spec.noise_sigma, image.shape)
                write_pgm(root / class_dir / f"{subject}_{idx:02d}.pgm", image)
    sidecar = {
        "image_side": spec.image_side,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
        "subjects": truth,
    }
    write_file(root / "blobs.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return root
