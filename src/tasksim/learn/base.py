"""Shared learner types and the train/predict dispatch."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..features import FeatureMatrix
from . import forest, knn, naive_bayes, svm, tree

ALGORITHMS = ("naive_bayes", "knn", "tree", "forest", "svm_smo")
_MODULES = dict(zip(ALGORITHMS, (naive_bayes, knn, tree, forest, svm)))


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of knn, tree, forest and svm_smo (naive_bayes has
    none); defaults are conventional.

    forest_feature_fraction None means the square-root rule: per split,
    round(sqrt(n_features)) candidate features.
    """

    knn_k: int = 1
    tree_min_leaf: int = 2
    forest_trees: int = 100
    forest_feature_fraction: float | None = None
    svm_C: float = 1.0
    svm_tol: float = 1e-3

    def validate(self) -> None:
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.tree_min_leaf < 1:
            raise ValueError("tree_min_leaf must be >= 1")
        if self.forest_trees < 1:
            raise ValueError("forest_trees must be >= 1")
        if self.forest_feature_fraction is not None and not 0 < self.forest_feature_fraction <= 1:
            raise ValueError("forest_feature_fraction must be in (0, 1]")
        if self.svm_C <= 0:
            raise ValueError("svm_C must be positive")
        if self.svm_tol <= 0:
            raise ValueError("svm_tol must be positive")


@dataclass(frozen=True)
class TrainedModel:
    algorithm: str
    classes: tuple[str, ...]
    parameters: dict


def _as_rows(X) -> tuple[np.ndarray, frozenset]:
    if isinstance(X, FeatureMatrix):
        return X.rows, X.provenance
    rows = np.asarray(X, dtype=float)
    if rows.ndim != 2:
        raise ValueError("feature input must be 2-dimensional")
    return rows, frozenset()


def train(
    algorithm: str,
    X,
    y: Sequence[str],
    config: LearnerConfig | None = None,
    seed: int = 0,
) -> TrainedModel:
    """Fit `algorithm` on feature rows X (FeatureMatrix or 2-D array) and
    labels y. The Python code runs on one thread, though numpy's BLAS may
    split a product such as the SVM Gram matrix over threads of its own; the
    fit is fully determined by the seed."""
    config = config or LearnerConfig()
    config.validate()
    rows, provenance = _as_rows(X)
    labels = list(y)
    if len(labels) != rows.shape[0]:
        raise ValueError(
            f"label count {len(labels)} does not match row count {rows.shape[0]}"
        )
    if rows.size and not np.all(np.isfinite(rows)):
        raise ValueError("training features contain non-finite values")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValueError("training data must contain at least two classes")
    class_index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([class_index[label] for label in labels], dtype=np.intp)

    trainers = {
        "naive_bayes": lambda: naive_bayes.fit(rows, y_idx, len(classes), provenance),
        "knn": lambda: knn.fit(rows, y_idx, config),
        "tree": lambda: tree.fit(rows, y_idx, len(classes), config),
        "forest": lambda: forest.fit(rows, y_idx, len(classes), config, seed),
        "svm_smo": lambda: svm.fit(rows, y_idx, len(classes), config),
    }
    if algorithm not in trainers:
        raise ValueError(f"unknown algorithm '{algorithm}' (choose from {ALGORITHMS})")
    parameters = trainers[algorithm]()
    return TrainedModel(algorithm=algorithm, classes=classes, parameters=parameters)


def predict_batch(model: TrainedModel, X) -> tuple[list[str], np.ndarray]:
    """Labels and per-class score rows for every row of X (as wide as the
    training rows). The label is the argmax score; exact ties go to the
    earlier class in model.classes. A score that is not finite raises
    FloatingPointError (an ArithmeticError)."""
    rows, _ = _as_rows(X)
    width = model.parameters["n_features"]
    if rows.shape[1] != width:
        raise ValueError(f"expected {width} features, got {rows.shape[1]}")
    score_rows = _MODULES[model.algorithm].scores(model.parameters, rows)
    if not np.all(np.isfinite(score_rows)):
        raise FloatingPointError("non-finite prediction scores")
    picks = np.argmax(score_rows, axis=1)
    labels = [model.classes[i] for i in picks]
    return labels, score_rows
