"""Hybrid convolutional ensemble at desk scale.

Small trainable conv nets with two-phase (freeze, fine-tune) training are
fused two ways: a learned convex combination of their probabilities and a
logistic meta-learner trained on out-of-fold predictions; the blend of the
two is the hybrid prediction.  Grad-CAM heatmaps explain any base model.
Import the submodules (`from hybridens import pipeline`); the package itself
re-exports nothing.
"""

__version__ = "0.1.0"
