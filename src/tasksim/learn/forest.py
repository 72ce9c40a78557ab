"""Random forest: bootstrapped gain-ratio trees with per-split feature
subsets, all grown together level by level into one node table whose
roots 0..trees-1 are the trees in order (see tree.grow).

Every random draw is a pure function of its coordinates: a counter-based
stream (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC
2011) made of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) in whole-array
numpy uint64 code, so numpy.random is never imported.

- split(state, c) is SplitMix64's output c + 1 from `state`: its finalizer
  applied to state + (c + 1) * 0x9E3779B97F4A7C15, all mod 2**64.
- The seed, a non-negative integer of any size, gives the key: starting
  from 0, key = split(key, word) for each 64-bit word of the seed, low word
  first.
- Tree t draws its bootstrap from split(key, 2t) and its candidate columns
  from split(key, 2t + 1). Bootstrap row i is draw i of the first, mapped
  to [0, n).
- A tree numbers the nodes it draws columns for 0, 1, 2, ... breadth
  first: depth by depth, in node order. Its node j takes draws r = 0..m-1
  from split(split(column key, j), r).
- A draw u maps to [0, b) as ((u >> 32) * b) >> 32, exact in uint64 for
  b < 2**32. Each value then has probability within 2**-32 of 1 / b, so
  the mapped draw is at most b / 2**32 from uniform in total variation.
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
import operator

import numpy as np

from . import tree

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WORD = (1 << 64) - 1


def _split(state: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """SplitMix64's output counter + 1 from each state, broadcast. Both are
    uint64 arrays: a product of numpy scalars warns when it wraps."""
    z = state + (counter + 1) * _GAMMA
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _below(u: np.ndarray, bound) -> np.ndarray:
    """Draws u mapped to [0, bound) by a 32-bit multiply-shift; bound (an
    int or a broadcast array) is below 2**32."""
    return ((u >> 32) * bound >> 32).astype(np.intp)


def _tree_keys(seed: int, n_trees: int) -> np.ndarray:
    """(trees, 2) keys: each tree's bootstrap key, then its column key."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = np.zeros(1, dtype=np.uint64)
    while True:
        key = _split(key, np.array([seed & _WORD], dtype=np.uint64))
        seed >>= 64
        if not seed:
            break
    return _split(key, np.arange(2 * n_trees, dtype=np.uint64)).reshape(n_trees, 2)


def bootstraps(seed: int, n_trees: int, n: int) -> np.ndarray:
    """(trees, n) array: each tree's bootstrap sample of row indices."""
    keys = _tree_keys(seed, n_trees)[:, :1]
    return _below(_split(keys, np.arange(n, dtype=np.uint64)), n)


def _floyd(u: np.ndarray, n_features: int) -> np.ndarray:
    """Each node's m distinct columns in [0, n_features), sorted, from its m
    draws; u is (m, nodes), one array step per draw index."""
    m = u.shape[0]
    # draw r maps into [0, n_features - m + r + 1)
    picks = _below(u, np.arange(n_features - m + 1, n_features + 1, dtype=np.uint64)[:, None])
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
        node_keys = _split(column_keys[node_tree], node_no.astype(np.uint64))
        return _floyd(_split(node_keys, draw_index), n_features)

    samples = list(bootstraps(seed, n_trees, n))
    grown = tree.grow(rows, y_idx, n_classes, config.tree_min_leaf, samples, draw_columns)
    return dict(grown, n_classes=n_classes)


def scores(params: dict, rows: np.ndarray) -> np.ndarray:
    """Fraction of trees voting for each class."""
    picks = np.argmax(tree.leaf_distributions(params, rows), axis=2)
    votes = (picks[:, :, None] == np.arange(params["n_classes"])).sum(axis=0)
    return votes / params["n_trees"]
