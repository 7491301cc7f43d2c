"""Hybrid convolutional ensemble at desk scale.

Small trainable conv nets with two-phase (freeze, fine-tune) training are
fused two ways: a learned convex combination of their probabilities and a
logistic meta-learner trained on out-of-fold predictions; the blend of the
two is the hybrid prediction.  Grad-CAM heatmaps explain any base model.
"""

from .config import RunConfig
from .data import (
    DatasetSplit,
    FoldAssignment,
    LabeledSample,
    assign_folds,
    load_image_dir,
    load_predictions_csv,
    split_dataset,
)
from .errors import ConfigError, DataError, NumericError
from .gradcam import CamHeatmap, channel_importance, compute_cam, explain, render_overlay
from .metrics import ConfusionMatrix, RocCurve, acc_sen_spe, auc, confusion, roc_curve
from .microcnn import MicroNet, adam_step, backward, build_micronet, forward, train_two_phase
from .pipeline import RunReport, fuse_only, run_pipeline
from .stacking import MetaLearner, OofTable, hybrid_predict, meta_predict, oof_predictions, train_meta
from .synth import SynthSpec, synth_data
from .weighting import WeightFit, optimize_weights, project_simplex, weighted_predict

__all__ = [
    "RunConfig",
    "DatasetSplit",
    "FoldAssignment",
    "LabeledSample",
    "assign_folds",
    "load_image_dir",
    "load_predictions_csv",
    "split_dataset",
    "ConfigError",
    "DataError",
    "NumericError",
    "CamHeatmap",
    "channel_importance",
    "compute_cam",
    "explain",
    "render_overlay",
    "ConfusionMatrix",
    "RocCurve",
    "acc_sen_spe",
    "auc",
    "confusion",
    "roc_curve",
    "MicroNet",
    "adam_step",
    "backward",
    "build_micronet",
    "forward",
    "train_two_phase",
    "RunReport",
    "fuse_only",
    "run_pipeline",
    "MetaLearner",
    "OofTable",
    "hybrid_predict",
    "meta_predict",
    "oof_predictions",
    "train_meta",
    "SynthSpec",
    "synth_data",
    "WeightFit",
    "optimize_weights",
    "project_simplex",
    "weighted_predict",
]

__version__ = "0.1.0"
