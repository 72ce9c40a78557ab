"""Random forest: bootstrapped gain-ratio trees with per-split feature
subsets, all grown together level by level into one node table whose
roots 0..trees-1 are the trees in order (see tree.grow).

Every draw comes from tasksim.stream, whose docstring defines split, the
seed's key and the mapping of a draw into [0, b).

- Tree t draws its bootstrap from split(key, 2t) and its candidate columns
  from split(key, 2t + 1). Bootstrap row i is draw i of the first, mapped
  to [0, n).
- A tree numbers the nodes it draws columns for 0, 1, 2, ... breadth
  first: depth by depth, in node order. Its node j takes draws r = 0..m-1
  from split(split(column key, j), r).
- A node's m columns come from Floyd's sampling (Bentley & Floyd, CACM
  1987): for r = 0..m-1, with j = F - m + r, draw r maps to c in
  [0, j + 1), and the node takes c unless it already holds it, else j. The
  m distinct columns are sorted, so split ties still resolve by global
  feature index.

A tree's draws depend only on the seed, its index and its own growth, so
any evaluation order reproduces the same forest, and a forest of 5 trees is
the first 5 trees of a forest of 10 with the same seed.
"""

from __future__ import annotations

import math

import numpy as np

from .. import stream
from . import tree


def _tree_keys(seed: int, n_trees: int) -> np.ndarray:
    """(trees, 2) keys: each tree's bootstrap key, then its column key."""
    counters = np.arange(2 * n_trees, dtype=np.uint64)
    return stream.split(stream.key(seed), counters).reshape(n_trees, 2)


def bootstraps(seed: int, n_trees: int, n: int) -> np.ndarray:
    """(trees, n) array: each tree's bootstrap sample of row indices."""
    keys = _tree_keys(seed, n_trees)[:, :1]
    return stream.below(stream.split(keys, np.arange(n, dtype=np.uint64)), n)


def _floyd(u: np.ndarray, n_features: int) -> np.ndarray:
    """Each node's m distinct columns in [0, n_features), sorted, from its m
    draws; u is (m, nodes), one array step per draw index."""
    m = u.shape[0]
    # draw r maps into [0, n_features - m + r + 1)
    bounds = np.arange(n_features - m + 1, n_features + 1, dtype=np.uint64)
    picks = stream.below(u, bounds[:, None])
    for r in range(1, m):
        taken = (picks[:r] == picks[r]).any(axis=0)
        picks[r, taken] = n_features - m + r
    return np.sort(picks.T, axis=1)


def _subset_size(n_features: int, fraction: float | None) -> int:
    if fraction is None:
        return max(1, round(math.sqrt(n_features)))
    return max(1, round(n_features * fraction))


def fit(rows: np.ndarray, y_idx: np.ndarray, n_classes: int, config, seed: int) -> dict:
    n, n_features = rows.shape
    m = min(_subset_size(n_features, config.forest_feature_fraction), n_features)
    n_trees = config.forest_trees
    column_keys = _tree_keys(seed, n_trees)[:, 1]
    drawn = np.zeros(n_trees, dtype=np.intp)  # nodes each tree has drawn for
    draw_index = np.arange(m, dtype=np.uint64)[:, None]

    def draw_columns(node_tree: np.ndarray) -> np.ndarray:
        # node_tree is sorted: a tree's open nodes sit side by side
        per_tree = np.bincount(node_tree, minlength=n_trees)
        first = np.cumsum(per_tree) - per_tree
        node_no = drawn[node_tree] + np.arange(node_tree.size) - first[node_tree]
        drawn[:] += per_tree
        node_keys = stream.split(column_keys[node_tree], node_no.astype(np.uint64))
        return _floyd(stream.split(node_keys, draw_index), n_features)

    samples = list(bootstraps(seed, n_trees, n))
    grown = tree.grow(rows, y_idx, n_classes, config.tree_min_leaf, samples, draw_columns)
    return dict(grown, n_classes=n_classes)


def scores(params: dict, rows: np.ndarray) -> np.ndarray:
    """Fraction of trees voting for each class."""
    picks = np.argmax(tree.leaf_distributions(params, rows), axis=2)
    votes = (picks[:, :, None] == np.arange(params["n_classes"])).sum(axis=0)
    return votes / params["n_trees"]
