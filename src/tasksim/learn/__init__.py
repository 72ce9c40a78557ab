"""Native classifier implementations behind a single train/predict interface.

Five algorithms: naive_bayes (Gaussian, or multinomial on pure tf-idf
content), knn, tree (gain-ratio binary splits), forest (bagged trees with
per-split feature subsets), and svm_smo (linear SVM, one-vs-rest, each
machine trained by SMO with maximal-violating-pair selection until its KKT
gap is below svm_tol). All are deterministic given the seed. Models live in
memory only; the CLI refits them for every fold.
"""

from .base import (
    ALGORITHMS,
    LearnerConfig,
    TrainedModel,
    predict_batch,
    train,
)

__all__ = [
    "ALGORITHMS",
    "LearnerConfig",
    "TrainedModel",
    "train",
    "predict_batch",
]
