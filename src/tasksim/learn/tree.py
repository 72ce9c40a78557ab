"""Decision tree: top-down induction with binary numeric splits chosen by
information gain ratio.

An impure node splits whenever any valid split exists, even at zero gain;
on consistent data this drives training accuracy to 1.0 with min_leaf 1.
Tie order for splits: highest gain ratio, then lowest feature index, then
lowest threshold. Thresholds are midpoints of adjacent distinct values and
rows go left when value <= threshold; if rounding collapses a midpoint onto
the right value it falls back to the left value, keeping partitions
float-exact.

Trees grow level by level, as in SLIQ (Mehta, Agrawal & Rissanen, 1996) and
SPRINT (Shafer, Agrawal & Mehta, 1996) but exact, with no binning: `grow`
splits every open node of one depth, across all the trees it is given, with
array code. A node is open when it is impure and holds at least 2 * min_leaf
rows. Each column's values are ranked once; at each depth the rows of every
(open node, candidate column) pair are sorted by rank with one stable
argsort, and class counts come from one cumulative sum. That argsort, and
the one that partitions rows among children, sort their keys in the
narrowest unsigned dtype that holds them: keys below 2**16 are then
radix-sorted. Candidate columns
come from a column rule: `tree` offers every column, `forest` draws a
subset. Columns constant over a node's rows are dropped before scoring.
Each tree is the tree a depth-first build makes, bit for bit. All the
trees grown together share one node table, numbered level by level.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Upper bound on the elements of a block's (rows x columns x classes)
# scratch tensor; a level is cut into blocks of (node, column) pairs under
# it, and a block holds at least one pair.
_BLOCK = 1 << 14


def _xlog2x(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a, dtype=float)
    np.log2(a, out=out, where=a > 0)
    return a * out


def _runs(weights: np.ndarray):
    """(start, stop) runs of consecutive items whose weights sum to at most
    _BLOCK, or a single item that alone exceeds it."""
    ends = np.cumsum(weights)
    start = 0
    while start < weights.size:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _BLOCK, side="right")), start + 1)
        yield start, stop
        start = stop


def _narrow(key: np.ndarray, bound: int) -> np.ndarray:
    """`key`, whose entries lie in [0, bound), in the narrowest unsigned
    dtype that holds them: a stable argsort of 8- or 16-bit keys is a radix
    sort, and it orders equal keys as a wider sort does."""
    return key.astype(np.min_scalar_type(max(bound - 1, 0)), copy=False)


def _gather(rank, rows, node_start, size, pair_node, pair_col):
    """Each pair's node rows, flattened pair after pair in node order, with
    sort keys that order them by pair, then by value in the pair's column;
    plus each pair's first and past-the-end element."""
    seg = size[pair_node]
    ends = np.cumsum(seg)
    starts = ends - seg
    elem_row = rows[np.arange(ends[-1]) + np.repeat(node_start[pair_node] - starts, seg)]
    n_rows = rank.shape[1]
    key = rank.reshape(-1)[np.repeat(pair_col * n_rows, seg) + elem_row]
    key += np.repeat(np.arange(seg.size) * n_rows, seg)
    return elem_row, key, starts, ends


def _varying(rank, rows, node_start, size, pair_node, pair_col) -> np.ndarray:
    """Mask of pairs whose column is not constant over the node's rows;
    a constant column has no valid split."""
    _, key, starts, _ = _gather(rank, rows, node_start, size, pair_node, pair_col)
    return np.minimum.reduceat(key, starts) < np.maximum.reduceat(key, starts)


def _score_block(rank, onehot, xlog2x, rows, node_start, size, counts, pair_node, pair_col,
                 min_leaf):
    """Gain ratio of every valid cut of a block of (node, column) pairs.

    A cut after a pair's p-th smallest value is valid when the values at p
    and p + 1 differ and both sides keep at least min_leaf rows. Returns, in
    (pair, position) order, each valid cut's ratio, its pair (index into the
    block) and the rows holding the values either side of it.
    """
    elem_row, key, starts, ends = _gather(rank, rows, node_start, size, pair_node, pair_col)
    order = np.argsort(_narrow(key, pair_node.size * rank.shape[1]), kind="stable")
    elem_row, key = elem_row[order], key[order]
    n_int = size[pair_node]
    left_int = np.arange(1, key.size + 1) - np.repeat(starts, n_int)
    right_int = np.repeat(ends, n_int) - np.arange(1, key.size + 1)
    e = np.flatnonzero(
        (key[1:] > key[:-1]) & (left_int[:-1] >= min_leaf) & (right_int[:-1] >= min_leaf)
    )
    cut_pair = key[e] // rank.shape[1]
    cum = np.zeros((key.size + 1, onehot.shape[1]), dtype=np.intp)
    np.cumsum(onehot[elem_row], axis=0, out=cum[1:])
    left_counts = cum[e + 1] - cum[starts[cut_pair]]
    right_counts = counts[pair_node[cut_pair]] - left_counts

    # the gain ratio, element by element, with the float operations (and
    # their order) of the depth-first reference in the tests: splits must
    # match it bit for bit
    n = n_int[cut_pair].astype(float)
    parent_entropy = np.log2(n_int.astype(float)) - xlog2x[counts[pair_node]].sum(axis=1) / n_int
    left_sizes = left_int[e].astype(float)
    right_sizes = n - left_sizes
    h_left = np.log2(left_sizes) - xlog2x[left_counts].sum(axis=1) / left_sizes
    h_right = np.log2(right_sizes) - xlog2x[right_counts].sum(axis=1) / right_sizes
    gain = parent_entropy[cut_pair] - (left_sizes * h_left + right_sizes * h_right) / n
    np.maximum(gain, 0.0, out=gain)
    q = left_sizes / n
    split_info = -(_xlog2x(q) + _xlog2x(1.0 - q))
    return gain / split_info, cut_pair, elem_row[e], elem_row[e + 1]


def _dense_rank(X: np.ndarray) -> np.ndarray:
    """(columns, rows) array: each value's rank among its column's distinct
    values."""
    order = np.argsort(X.T, axis=1)
    ordered = np.take_along_axis(X.T, order, axis=1)
    step = np.zeros(order.shape, dtype=np.intp)
    np.cumsum(ordered[:, 1:] > ordered[:, :-1], axis=1, out=step[:, 1:])
    rank = np.empty_like(step)
    np.put_along_axis(rank, order, step, axis=1)
    return rank


def _best_splits(X, rank, onehot, xlog2x, rows, node_start, size, counts, open_nodes, columns,
                 min_leaf):
    """(nodes, features, thresholds) of the open nodes that have a valid
    split; `columns` holds each open node's sorted candidate columns."""
    pair_node = np.repeat(open_nodes, columns.shape[1])
    pair_col = columns.ravel()
    keep = np.concatenate([
        _varying(rank, rows, node_start, size, pair_node[a:b], pair_col[a:b])
        for a, b in _runs(size[pair_node])
    ])
    pair_node, pair_col = pair_node[keep], pair_col[keep]
    none = np.zeros(0, dtype=np.intp)
    parts = [(np.zeros(0), none, none, none)]
    for a, b in _runs(size[pair_node] * onehot.shape[1]):
        ratio, cut_pair, left_row, right_row = _score_block(
            rank, onehot, xlog2x, rows, node_start, size, counts,
            pair_node[a:b], pair_col[a:b], min_leaf,
        )
        parts.append((ratio, cut_pair + a, left_row, right_row))
    ratio, cut_pair, left_row, right_row = (np.concatenate(x) for x in zip(*parts))
    if not ratio.size:
        return none, none, np.zeros(0)
    # cuts run node by node, then by column, then by value, so each node's
    # first cut at its maximum ratio has the lowest feature and threshold
    cut_node = pair_node[cut_pair]
    node_starts = np.flatnonzero(np.r_[True, cut_node[1:] != cut_node[:-1]])
    best = np.maximum.reduceat(ratio, node_starts)
    lengths = np.diff(np.r_[node_starts, ratio.size])
    hits = np.where(ratio == np.repeat(best, lengths), np.arange(ratio.size), ratio.size)
    win = np.minimum.reduceat(hits, node_starts)
    feature = pair_col[cut_pair[win]]
    left_value, right_value = X[left_row[win], feature], X[right_row[win], feature]
    midpoint = (left_value + right_value) / 2.0
    collapsed = ~((left_value <= midpoint) & (midpoint < right_value))
    midpoint[collapsed] = left_value[collapsed]
    return cut_node[win], feature, midpoint


def grow(
    X: np.ndarray,
    y_idx: np.ndarray,
    n_classes: int,
    min_leaf: int,
    roots: Sequence[np.ndarray],
    columns: Callable[[np.ndarray], np.ndarray],
) -> dict:
    """Grow one tree per root row set (indices into X; repeats allowed) and
    return them as one node table, numbered level by level.

    Nodes 0..len(roots)-1 are the roots, in order; each depth's nodes follow
    the previous depth's, and a split node's children sit side by side
    (right = left + 1). Leaves have feature, left and right -1.

    `columns(node_tree)` is called once per depth with the tree index of
    each open node, in node order, and returns a (len(node_tree), m) array
    of each node's candidate columns, sorted. With no column in X, no node
    opens and `columns` is never called.
    """
    onehot = np.zeros((X.shape[0], n_classes), dtype=np.intp)
    onehot[np.arange(X.shape[0]), y_idx] = 1
    rank = _dense_rank(X)
    rows = np.concatenate(roots)
    # x log2 x of every class count a node can hold
    xlog2x = _xlog2x(np.arange(max(root.size for root in roots) + 1, dtype=float))
    size = np.array([root.size for root in roots], dtype=np.intp)
    node_tree = np.arange(len(roots))
    n_numbered = 0  # nodes of all depths so far, the current one included
    levels = []  # per depth: feature, threshold, left, dist
    while size.size:
        n_nodes = size.size
        n_numbered += n_nodes
        node_start = np.cumsum(size) - size
        elem_node = np.repeat(np.arange(n_nodes), size)
        counts = np.bincount(
            elem_node * n_classes + y_idx[rows], minlength=n_nodes * n_classes
        ).reshape(n_nodes, n_classes)
        open_nodes = np.flatnonzero((counts.max(axis=1) < size) & (size >= 2 * min_leaf))
        split, feature_at, threshold_at = open_nodes[:0], open_nodes[:0], np.zeros(0)
        if open_nodes.size and X.shape[1]:  # no column, no split
            split, feature_at, threshold_at = _best_splits(
                X, rank, onehot, xlog2x, rows, node_start, size, counts, open_nodes,
                columns(node_tree[open_nodes]), min_leaf,
            )
        feature = np.full(n_nodes, -1, dtype=np.intp)
        threshold = np.zeros(n_nodes)
        feature[split] = feature_at
        threshold[split] = threshold_at
        child_of = np.full(n_nodes, -1, dtype=np.intp)
        child_of[split] = np.arange(0, 2 * split.size, 2)
        left = np.where(child_of >= 0, n_numbered + child_of, -1)
        levels.append((feature, threshold, left, counts / size[:, None]))

        # stable partition: each split node's rows go to its left child
        # (value <= threshold), then its right child, in node order
        member = child_of[elem_node] >= 0
        split_rows, split_node = rows[member], elem_node[member]
        go_right = ~(X[split_rows, feature[split_node]] <= threshold[split_node])
        child = child_of[split_node] + go_right
        rows = split_rows[np.argsort(_narrow(child, 2 * split.size), kind="stable")]
        size = np.bincount(child, minlength=2 * split.size)
        node_tree = np.repeat(node_tree[split], 2)
    feature, threshold, left, dist = (np.concatenate(x) for x in zip(*levels))
    return {
        "feature": feature, "threshold": threshold, "left": left,
        "right": np.where(left >= 0, left + 1, -1), "dist": dist,
        "n_trees": len(roots), "n_features": X.shape[1],
    }


def fit(rows: np.ndarray, y_idx: np.ndarray, n_classes: int, config) -> dict:
    n, n_features = rows.shape
    every = np.arange(n_features)
    return grow(
        rows, y_idx, n_classes, config.tree_min_leaf, [np.arange(n)],
        lambda node_tree: np.broadcast_to(every, (node_tree.size, n_features)),
    )


def leaf_distributions(params: dict, rows: np.ndarray) -> np.ndarray:
    """Each tree's leaf class distribution for each row, shaped (trees,
    rows, classes). Every (tree, row) pair starts at its tree's root, and
    all are routed at once, one depth per step."""
    feature, threshold, left, right, dist = (
        params[key] for key in ("feature", "threshold", "left", "right", "dist")
    )
    n_trees, n_rows = params["n_trees"], rows.shape[0]
    node = np.repeat(np.arange(n_trees), n_rows)
    row = np.tile(np.arange(n_rows), n_trees)
    live = np.arange(node.size)
    while live.size:
        at = node[live]
        inner = feature[at] >= 0
        live, at = live[inner], at[inner]
        go_left = rows[row[live], feature[at]] <= threshold[at]
        node[live] = np.where(go_left, left[at], right[at])
    return dist[node].reshape(n_trees, n_rows, dist.shape[1])


def scores(params: dict, rows: np.ndarray) -> np.ndarray:
    return leaf_distributions(params, rows)[0]
