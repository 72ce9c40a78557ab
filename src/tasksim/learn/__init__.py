"""Native classifier implementations behind a single train/predict interface.

Five algorithms: naive_bayes (Gaussian, or multinomial on pure tf-idf
content), knn, tree (gain-ratio binary splits), forest (bagged trees with
per-split feature subsets), and svm_smo (linear SVM, one-vs-rest, each
machine trained by SMO with maximal-violating-pair selection until its KKT
gap is below svm_tol). All are deterministic given the seed.
"""

from .base import (
    ALGORITHMS,
    LearnerConfig,
    TrainedModel,
    predict,
    predict_batch,
    train,
)
from .io import load_model, save_model

__all__ = [
    "ALGORITHMS",
    "LearnerConfig",
    "TrainedModel",
    "train",
    "predict",
    "predict_batch",
    "save_model",
    "load_model",
]
