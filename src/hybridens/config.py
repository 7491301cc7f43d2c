"""Run configuration: one dataclass, mirrored 1:1 by the config JSON."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

COMBINE_RULES = ("mean", "weighted_only", "stacked_only")
EVAL_LEVELS = ("slice", "subject_mean")


_TYPE_NAMES = {"int": "an integer", "float": "a finite number", "str": "a string"}


def _has_type(value, kind: str) -> bool:
    """Exact field types: bools are not numbers, and an integer may stand for a float."""
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    return isinstance(value, str)


@dataclass
class RunConfig:
    """Hyperparameters for a full pipeline run.

    Defaults follow the reference training recipe (Adam at 2e-5 for
    fine-tuning, batch 24, dropout 0.5, threshold 0.5, 10 folds, 224 px
    input); desk-scale experiments override `input_side` and the epoch
    counts.  `learning_rate` drives the fine-tuning phase,
    `head_learning_rate` the head-only phase.
    """

    K: int = 3
    seed: int = 0
    learning_rate: float = 2e-5
    head_learning_rate: float = 1e-3
    batch_size: int = 24
    dropout_rate: float = 0.5
    threshold: float = 0.5
    folds: int = 10
    freeze_epochs: int = 5
    finetune_epochs: int = 5
    input_side: int = 224
    fusion_combine_rule: str = "mean"
    unfreeze_top: int = 1
    meta_ridge: float = 1.0
    eval_level: str = "slice"
    task_name: str = "AD_vs_MCI"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[f.type]}, got {value!r:.40}")
        if self.K < 2:
            raise ConfigError(f"K must be >= 2, got {self.K}")
        if self.learning_rate <= 0 or self.head_learning_rate <= 0:
            raise ConfigError("learning rates must be positive")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.freeze_epochs < 0 or self.finetune_epochs < 0:
            raise ConfigError("epoch counts must be nonnegative")
        if self.input_side < 1:
            raise ConfigError(f"input_side must be positive, got {self.input_side}")
        if self.fusion_combine_rule not in COMBINE_RULES:
            raise ConfigError(
                f"fusion_combine_rule must be one of {COMBINE_RULES}, "
                f"got {self.fusion_combine_rule!r}"
            )
        if self.unfreeze_top < 0:
            raise ConfigError("unfreeze_top must be nonnegative")
        if self.meta_ridge < 0:
            raise ConfigError(f"meta_ridge must be nonnegative, got {self.meta_ridge}")
        if self.eval_level not in EVAL_LEVELS:
            raise ConfigError(f"eval_level must be one of {EVAL_LEVELS}, got {self.eval_level!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config JSON must be an object: {path}")
        return cls.from_dict(doc)
