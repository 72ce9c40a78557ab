"""Naive Bayes: multinomial event model on pure tf-idf content features,
Gaussian everywhere else."""

from __future__ import annotations

import numpy as np


def fit(rows: np.ndarray, y_idx: np.ndarray, n_classes: int, config, provenance) -> dict:
    counts = np.bincount(y_idx, minlength=n_classes).astype(float)
    log_prior = np.log(counts / counts.sum())
    if provenance == frozenset({"content"}):
        # fractional tf-idf weights are treated as (non-integer) event counts
        totals = np.zeros((n_classes, rows.shape[1]))
        np.add.at(totals, y_idx, rows)
        smoothed = totals + 1.0
        log_prob = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return {
            "event_model": "multinomial",
            "n_features": rows.shape[1],
            "log_prior": log_prior,
            "feature_log_prob": log_prob,
        }
    mean = np.zeros((n_classes, rows.shape[1]))
    var = np.zeros((n_classes, rows.shape[1]))
    for c in range(n_classes):
        members = rows[y_idx == c]
        mean[c] = members.mean(axis=0)
        var[c] = members.var(axis=0)  # population variance
    var = np.maximum(var, config.nb_variance_floor)
    return {
        "event_model": "gaussian",
        "n_features": rows.shape[1],
        "log_prior": log_prior,
        "mean": mean,
        "var": var,
    }


def scores(params: dict, rows: np.ndarray) -> np.ndarray:
    """Posterior probabilities per class; each row sums to 1."""
    if params["event_model"] == "multinomial":
        joint = params["log_prior"] + rows @ params["feature_log_prob"].T
    else:
        mean, var = params["mean"], params["var"]
        # sum of per-feature Gaussian log densities, vectorized over classes
        joint = np.empty((rows.shape[0], mean.shape[0]))
        for c in range(mean.shape[0]):
            diff = rows - mean[c]
            joint[:, c] = params["log_prior"][c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * var[c]) + diff * diff / var[c], axis=1
            )
    shifted = joint - joint.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)
