"""Clustering of tasks from a similarity matrix, plus cluster summaries.

Partitioning around medoids (PAM): the inputs are pairwise similarities
with no coordinate embedding, so centroid methods do not apply.
Dissimilarity is 1 - similarity throughout.

PAM is deterministic: greedy seeding and fixed tie orders, no random draws.
The seed argument is recorded in the result for config echo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .semsim import SimilarityMatrix

# PAM reads the dissimilarity matrix in blocks of whole rows, sized to stay
# in a core's cache while each block is scored: about _BUILD_CELLS or
# _SWAP_CELLS float64 cells (the swap search keeps three such arrays), but
# never fewer than _MIN_BLOCK_ROWS rows, since numpy's per-call cost
# outweighs the cache misses of longer blocks.
_BUILD_CELLS = 1 << 16
_SWAP_CELLS = 1 << 14
_MIN_BLOCK_ROWS = 32
# The most rows per block in the swap search.
_SWAP_BLOCK = 256


@dataclass(frozen=True)
class Clustering:
    """A hard partition: task id -> cluster id, one medoid per cluster,
    cluster ids dense 0..k-1. `converged` is False when the search stopped
    at its step limit with an improving swap left."""

    assignments: dict
    medoids: dict
    k: int
    total_dissimilarity: float
    seed: int
    converged: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if set(self.medoids) != set(range(self.k)):
            raise ValueError("cluster ids must be dense 0..k-1")
        for cluster, medoid in self.medoids.items():
            if self.assignments.get(medoid) != cluster:
                raise ValueError(
                    f"medoid {medoid!r} not assigned to its cluster {cluster}"
                )
        for task_id, cluster in self.assignments.items():
            if not 0 <= cluster < self.k:
                raise ValueError(
                    f"task {task_id!r} assigned to unknown cluster {cluster}"
                )
        if self.total_dissimilarity < 0:
            raise ValueError("total dissimilarity must be non-negative")

    def groups(self) -> list[list]:
        """Every cluster's members, in assignment order, from one pass."""
        groups: list[list] = [[] for _ in range(self.k)]
        for tid, cluster in self.assignments.items():
            groups[cluster].append(tid)
        return groups


def check_k(k: int, n: int) -> None:
    """Raise ValueError unless k_medoids accepts k clusters of n tasks."""
    if n < 2:
        raise ValueError(f"clustering needs at least 2 tasks, got {n}")
    if not 2 <= k <= n:
        raise ValueError(f"k must be between 2 and {n}, got {k}")


def _check_matrix(sim: SimilarityMatrix, k: int) -> np.ndarray:
    n = len(sim.task_ids)
    if len(set(sim.task_ids)) != n:
        raise ValueError("similarity matrix has duplicate task ids")
    check_k(k, n)
    return 1.0 - sim.values


def _cost(d: np.ndarray, medoids: list) -> float:
    return float(d[:, medoids].min(axis=1).sum())


def _block_rows(n: int, cells: int) -> int:
    return max(cells // n, _MIN_BLOCK_ROWS)


def _greedy_build(d: np.ndarray, k: int) -> list:
    """Classic PAM seeding: first the point with minimum total distance,
    then whichever point reduces the cost most. Ties go to the lowest
    index.

    Each gain is the sum over the rows of max(nearest - d, 0). The rows are
    scored in cache-sized blocks, and each block is summed together with
    the running gains, kept as the first row of its buffer. numpy sums a
    C-ordered array of two or more columns over axis 0 one row after
    another, so the rows still add in order, and every gain is
    bit-identical to one sum over the whole n x n array. Once every point
    sits on a medoid, every gain is 0: the remaining medoids are then the
    lowest free indices, and no more passes are made."""
    n = d.shape[0]
    totals = d.sum(axis=0)
    medoids = [int(np.argmin(totals))]
    nearest = d[:, medoids[0]].copy()
    rows = _block_rows(n, _BUILD_CELLS)
    work = np.empty((min(rows, n) + 1, n))
    while len(medoids) < k:
        if not nearest.any():
            free = np.ones(n, dtype=bool)
            free[medoids] = False
            medoids += np.flatnonzero(free)[: k - len(medoids)].tolist()
            break
        gains = None
        for lo in range(0, n, rows):
            block = d[lo : lo + rows]
            w = work[1 : len(block) + 1]
            np.subtract(nearest[lo : lo + rows, None], block, out=w)
            np.maximum(w, 0.0, out=w)
            if gains is None:
                gains = w.sum(axis=0)
            else:
                work[0] = gains
                gains = work[: len(block) + 1].sum(axis=0)
        gains[medoids] = -1.0
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[:, best])
    return medoids


def _swap_costs(d: np.ndarray, medoid_cols: np.ndarray) -> np.ndarray:
    """The cost of every swap, as a k x n array: entry (p, c) is the cost
    after medoid position p moves to point c.

    FastPAM1 (Schubert & Rousseeuw, "Faster k-Medoids Clustering: Improving
    the PAM, CLARA, and CLARANS Algorithms", SISAP 2019): from each point's
    nearest (dn) and second-nearest (ds) medoid distance, the cost is the
    sum over all points of min(d, dn), shared by every p, plus, over the
    points of p alone, min(d, ds) - min(d, dn), since they lose p. d is
    read once per step, in blocks of whole rows taken cluster by cluster,
    so that the rows of one cluster in a block are one sum over axis 0."""
    n, k = medoid_cols.shape
    near = np.argmin(medoid_cols, axis=1)
    order = np.argsort(near, kind="stable")
    by_cluster = medoid_cols[order]
    dn = by_cluster[np.arange(n), near[order]][:, None]
    ds = np.partition(by_cluster, 1, axis=1)[:, 1:2]
    # cluster p's rows end at ends[p] in `order`
    ends = np.cumsum(np.bincount(near, minlength=k)).tolist()
    rows = min(_block_rows(n, _SWAP_CELLS), _SWAP_BLOCK)
    shared = np.zeros(n)
    costs = np.zeros((k, n))
    to_near = np.empty((min(rows, n), n))
    p = 0
    for lo in range(0, n, rows):
        r = d[order[lo : lo + rows]]
        hi = lo + len(r)
        a = to_near[: len(r)]
        np.minimum(r, dn[lo:hi], out=a)
        shared += a.sum(axis=0)
        np.minimum(r, ds[lo:hi], out=r)
        np.subtract(r, a, out=r)
        at = lo
        while at < hi:
            while ends[p] <= at:
                p += 1
            stop = min(ends[p], hi)
            costs[p] += r[at - lo : stop - lo].sum(axis=0)
            at = stop
    costs += shared
    return costs


def _best_swap(d: np.ndarray, medoids: list, cost: float):
    """The swap PAM accepts next, as (cost, medoid position, candidate), or
    None when no swap lowers the cost.

    The accepted swap is the lowest (cost, medoid index, candidate index)
    triple, each cost summed as min(rest, d[:, candidate]).sum(axis=0).
    `_swap_costs` sums in another order, so every swap within `tol` of its
    lowest cost is re-scored that way. Both sums add non-negative terms,
    so each errs by at most about n * 2**-53 of the swap's cost; for the
    swaps near the lowest, that is far below `tol` = 1e-9 * (1 + cost) at
    any n that fits in memory, so the winner is always among them."""
    n = d.shape[0]
    # d is never negative, so no swap lowers a zero cost
    if cost == 0.0 or len(medoids) == n:
        return None
    medoid_cols = d[:, medoids]
    costs = _swap_costs(d, medoid_cols)
    costs[:, medoids] = np.inf
    tol = 1e-9 * (1.0 + cost)
    low = costs.min()
    if low > cost + tol:
        return None
    tied = costs <= low + tol
    cols = np.flatnonzero(tied.any(axis=0))
    # gathered columns are column-major, so each one sums on its own, in
    # the same order as in PAM's full candidate block
    to_cols = d[:, cols]
    # medoids whose removal moves no point (duplicates, zero-cost
    # clusterings) leave the same distances behind and share one scoring
    scored = {}
    best = None
    for p in np.flatnonzero(tied.any(axis=1)):
        rest_min = np.delete(medoid_cols, p, axis=1).min(axis=1)
        key = rest_min.tobytes()
        if key not in scored:
            scored[key] = np.minimum(rest_min[:, None], to_cols).sum(axis=0)
        swap_costs = scored[key]
        c = int(np.argmin(swap_costs))
        candidate = (float(swap_costs[c]), medoids[p], int(cols[c]), int(p))
        if best is None or candidate[:3] < best[:3]:
            best = candidate
    if best is None or best[0] >= cost:
        return None
    return best[0], best[3], best[2]


def _swap_passes(d: np.ndarray, medoids: list, max_iter: int, trace):
    """Best-improvement SWAP until no swap lowers the cost (or max_iter).
    Cost is strictly decreasing so the loop terminates. Returns the
    medoids, their cost, and whether no improving swap was left."""
    cost = _cost(d, medoids)
    if trace is not None:
        trace.append(cost)
    for _ in range(max_iter):
        best = _best_swap(d, medoids, cost)
        if best is None:
            return medoids, cost, True
        cost, p, candidate = best
        medoids[p] = candidate
        if trace is not None:
            trace.append(cost)
    return medoids, cost, _best_swap(d, medoids, cost) is None


def _as_clustering(
    d: np.ndarray, medoids: list, task_ids, seed: int, converged: bool
) -> Clustering:
    order = sorted(medoids)
    nearest = np.argmin(d[:, order], axis=1)
    assignments = {}
    for i, task_id in enumerate(task_ids):
        assignments[task_id] = int(nearest[i])
    # A medoid always sits at dissimilarity 0 from itself; pin it to its own
    # cluster in case another medoid ties at 0.
    for cluster, m in enumerate(order):
        assignments[task_ids[m]] = cluster
    total = sum(
        float(d[i, order[assignments[task_ids[i]]]])
        for i in range(len(task_ids))
    )
    medoid_map = {cluster: task_ids[m] for cluster, m in enumerate(order)}
    return Clustering(
        assignments, medoid_map, len(order), total, seed, converged
    )


def k_medoids(
    sim: SimilarityMatrix,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    *,
    trace: list | None = None,
) -> Clustering:
    """PAM on 1 - similarity. Deterministic; pass a list as `trace` to
    record the cost after seeding and after each accepted swap. The
    result's `converged` is False when `max_iter` swaps ran and an
    improving swap was still left."""
    d = _check_matrix(sim, k)
    medoids = _greedy_build(d, k)
    medoids, _, converged = _swap_passes(d, medoids, max_iter, trace)
    return _as_clustering(d, medoids, sim.task_ids, seed, converged)


def purity(clustering: Clustering, labels: Mapping[str, str]) -> float:
    """Fraction of tasks in their cluster's majority category."""
    missing = [tid for tid in clustering.assignments if tid not in labels]
    if missing:
        raise ValueError(f"id mismatch: no label for {missing[0]!r}")
    if not clustering.assignments:
        return 0.0
    agreeing = 0
    for ids in clustering.groups():
        counts: dict = {}
        for tid in ids:
            category = labels[tid]
            counts[category] = counts.get(category, 0) + 1
        if counts:
            agreeing += max(counts.values())
    return agreeing / len(clustering.assignments)


def category_distribution(clustering: Clustering, corpus) -> dict:
    """Per cluster, the fraction of members in each category; categories
    with no members in the cluster are omitted. Rows sum to 1."""
    by_id = {task.id: task.category for task in corpus}
    if set(by_id) != set(clustering.assignments):
        raise ValueError(
            "id mismatch: clustering and corpus cover different tasks"
        )
    table: dict = {}
    for cluster, ids in enumerate(clustering.groups()):
        row: dict = {}
        for tid in ids:
            category = by_id[tid]
            row[category] = row.get(category, 0) + 1
        table[cluster] = {
            category: count / len(ids) for category, count in sorted(row.items())
        }
    return table
