"""k-nearest-neighbors with Euclidean distance.

Neighbor order is (distance, training index), so duplicated distances
resolve to the earliest-stored instance and prediction is deterministic.
"""

from __future__ import annotations

import numpy as np


def fit(rows: np.ndarray, y_idx: np.ndarray, config) -> dict:
    k = min(config.knn_k, rows.shape[0])
    return {
        "X": rows.copy(),
        "y_idx": y_idx.copy(),
        "k": k,
        "n_classes": int(y_idx.max()) + 1,
        "n_features": rows.shape[1],
    }


def scores(params: dict, rows: np.ndarray) -> np.ndarray:
    """Per-class vote fractions among the k nearest training rows."""
    train = params["X"]
    k = params["k"]
    # squared distances suffice for ranking
    d2 = (
        np.sum(rows * rows, axis=1)[:, None]
        - 2.0 * rows @ train.T
        + np.sum(train * train, axis=1)[None, :]
    )
    out = np.zeros((rows.shape[0], params["n_classes"]))
    # stable argsort keeps training-index order on distance ties
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = params["y_idx"][nearest]
    for c in range(params["n_classes"]):
        out[:, c] = np.sum(votes == c, axis=1) / k
    return out
