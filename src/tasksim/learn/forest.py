"""Random forest: bootstrapped gain-ratio trees with per-split feature
subsets, all grown together level by level into one node table whose
roots 0..trees-1 are the trees in order (see tree.grow).

Tree t uses the generator default_rng(seed + t): first its bootstrap
sample, integers(0, n, size=n); then, at each depth, random((open nodes of
t, n_features)) keys, one row per open node in breadth-first order. Each
node's candidate columns are those with its m smallest keys, in column
order. The draws depend only on t and the tree's own growth, so any
evaluation order reproduces the same forest.
"""

from __future__ import annotations

import math

import numpy as np

from . import tree


def _subset_size(n_features: int, fraction: float | None) -> int:
    if fraction is None:
        return max(1, round(math.sqrt(n_features)))
    return max(1, round(n_features * fraction))


def fit(rows: np.ndarray, y_idx: np.ndarray, n_classes: int, config, seed: int) -> dict:
    n, n_features = rows.shape
    m = min(_subset_size(n_features, config.forest_feature_fraction), n_features)
    rngs = [np.random.default_rng(seed + t) for t in range(config.forest_trees)]
    samples = [rng.integers(0, n, size=n) for rng in rngs]

    def draw_columns(node_tree: np.ndarray) -> np.ndarray:
        per_tree = np.bincount(node_tree, minlength=len(rngs))
        keys = np.vstack([rngs[t].random((c, n_features)) for t, c in enumerate(per_tree) if c])
        # sorted so split ties still resolve by global feature index
        return np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)

    grown = tree.grow(rows, y_idx, n_classes, config.tree_min_leaf, samples, draw_columns)
    return dict(grown, n_classes=n_classes)


def scores(params: dict, rows: np.ndarray) -> np.ndarray:
    """Fraction of trees voting for each class."""
    picks = np.argmax(tree.leaf_distributions(params, rows), axis=2)
    votes = (picks[:, :, None] == np.arange(params["n_classes"])).sum(axis=0)
    return votes / params["n_trees"]
