"""Seeded synthetic slice generator.

Each subject gets a fixed blob location; positives carry a bright Gaussian
blob, negatives a dimmer one, over a flat background with additive noise.
Ground-truth blob geometry goes to a sidecar JSON so explanation heatmaps
can be scored against known coordinates.  Same seed, same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .imageio import write_file, write_pgm
from .seeding import rng_for

BACKGROUND = 0.1


@dataclass
class SynthSpec:
    subjects_per_class: int = 10
    slices_per_subject: int = 20
    image_side: int = 32
    blob_radius_range: tuple[float, float] = (5.0, 5.0)
    blob_intensity_by_class: dict[int, float] = field(default_factory=lambda: {0: 0.3, 1: 0.9})
    slice_jitter: float = 4.0
    noise_sigma: float = 0.04
    seed: int = 0

    def __post_init__(self) -> None:
        if self.subjects_per_class < 1 or self.slices_per_subject < 1:
            raise ConfigError("subject and slice counts must be positive")
        if self.image_side < 8:
            raise ConfigError(f"image_side must be at least 8, got {self.image_side}")
        lo, hi = self.blob_radius_range
        if not 0 < lo <= hi:
            raise ConfigError(f"bad blob_radius_range {self.blob_radius_range}")
        for label in (0, 1):
            amp = self.blob_intensity_by_class.get(label)
            if amp is None or not 0.0 <= amp <= 1.0 - BACKGROUND:
                raise ConfigError(
                    f"blob intensity for class {label} must lie in [0, {1.0 - BACKGROUND}]"
                )
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        if self.slice_jitter < 0:
            raise ConfigError("slice_jitter must be nonnegative")


def _blob(side: int, row: float, col: float, radius: float, amplitude: float) -> np.ndarray:
    rr, cc = np.mgrid[0:side, 0:side].astype(np.float64)
    sigma = radius / 2.0
    return amplitude * np.exp(-((rr - row) ** 2 + (cc - col) ** 2) / (2.0 * sigma**2))


def synth_data(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write the pos/neg PGM layout plus a `blobs.json` ground-truth sidecar."""
    root = Path(out_dir)
    rng = rng_for(spec.seed, "synth")
    truth: dict[str, dict] = {}
    for label, class_dir in ((0, "neg"), (1, "pos")):
        amp = spec.blob_intensity_by_class[label]
        for subj in range(spec.subjects_per_class):
            subject = f"s{label}{subj:03d}"
            margin = spec.blob_radius_range[1] + spec.slice_jitter + 2.0
            lo, hi = margin, spec.image_side - 1 - margin
            if hi <= lo:  # image too small for the margin; park blobs centrally
                lo = hi = (spec.image_side - 1) / 2.0
            row = float(rng.uniform(lo, hi))
            col = float(rng.uniform(lo, hi))
            radius = float(rng.uniform(*spec.blob_radius_range))
            truth[f"{class_dir}/{subject}"] = {
                "label": label,
                "row": row,
                "col": col,
                "radius": radius,
                "jitter": spec.slice_jitter,
            }
            for idx in range(spec.slices_per_subject):
                # slices share the subject's blob; the center wobbles per slice
                dr, dc = rng.uniform(-spec.slice_jitter, spec.slice_jitter, 2)
                image = BACKGROUND + _blob(spec.image_side, row + dr, col + dc, radius, amp)
                if spec.noise_sigma > 0:
                    image = image + rng.normal(0.0, spec.noise_sigma, image.shape)
                write_pgm(root / class_dir / f"{subject}_{idx:02d}.pgm", np.clip(image, 0.0, 1.0))
    sidecar = {
        "image_side": spec.image_side,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
        "subjects": truth,
    }
    write_file(root / "blobs.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return root
