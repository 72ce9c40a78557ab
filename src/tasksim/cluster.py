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


@dataclass(frozen=True)
class Clustering:
    """A hard partition: task id -> cluster id, one medoid per cluster,
    cluster ids dense 0..k-1."""

    assignments: dict
    medoids: dict
    k: int
    total_dissimilarity: float
    seed: int

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

    def members(self, cluster: int) -> list:
        return [tid for tid, c in self.assignments.items() if c == cluster]


def check_k(k: int, n: int) -> None:
    """Raise ValueError unless k_medoids accepts k clusters of n tasks."""
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


def _greedy_build(d: np.ndarray, k: int) -> list:
    """Classic PAM seeding: first the point with minimum total distance,
    then whichever point reduces the cost most. Ties go to the lowest
    index."""
    n = d.shape[0]
    totals = d.sum(axis=0)
    medoids = [int(np.argmin(totals))]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
        gains[medoids] = -1.0
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[:, best])
    return medoids


def _swap_passes(d: np.ndarray, medoids: list, max_iter: int, trace):
    """Best-improvement SWAP until no swap lowers the cost (or max_iter).
    The accepted swap is the lowest (cost, medoid index, candidate index)
    triple; cost is strictly decreasing so the loop terminates."""
    n = d.shape[0]
    cost = _cost(d, medoids)
    if trace is not None:
        trace.append(cost)
    for _ in range(max_iter):
        medoid_cols = d[:, medoids]
        others = np.array(sorted(set(range(n)) - set(medoids)), dtype=int)
        if others.size == 0:
            break
        # distances to the candidates, copied once per step; k >= 2, so a
        # medoid always leaves at least one other behind
        to_others = d[:, others]
        best = None
        for p, m in enumerate(medoids):
            rest_min = np.delete(medoid_cols, p, axis=1).min(axis=1)
            swap_costs = np.minimum(rest_min[:, None], to_others).sum(axis=0)
            c = int(np.argmin(swap_costs))
            candidate = (float(swap_costs[c]), m, int(others[c]), p)
            if best is None or candidate[:3] < best[:3]:
                best = candidate
        if best is None or best[0] >= cost:
            break
        cost = best[0]
        medoids[best[3]] = best[2]
        if trace is not None:
            trace.append(cost)
    return medoids, cost


def _as_clustering(
    d: np.ndarray, medoids: list, task_ids, seed: int
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
    return Clustering(assignments, medoid_map, len(order), total, seed)


def k_medoids(
    sim: SimilarityMatrix,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    *,
    trace: list | None = None,
) -> Clustering:
    """PAM on 1 - similarity. Deterministic; pass a list as `trace` to
    record the cost after seeding and after each accepted swap."""
    d = _check_matrix(sim, k)
    medoids = _greedy_build(d, k)
    medoids, _ = _swap_passes(d, medoids, max_iter, trace)
    return _as_clustering(d, medoids, sim.task_ids, seed)


def purity(clustering: Clustering, labels: Mapping[str, str]) -> float:
    """Fraction of tasks in their cluster's majority category."""
    missing = [tid for tid in clustering.assignments if tid not in labels]
    if missing:
        raise ValueError(f"id mismatch: no label for {missing[0]!r}")
    if not clustering.assignments:
        return 0.0
    agreeing = 0
    for cluster in range(clustering.k):
        counts: dict = {}
        for tid in clustering.members(cluster):
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
    for cluster in range(clustering.k):
        ids = clustering.members(cluster)
        row: dict = {}
        for tid in ids:
            category = by_id[tid]
            row[category] = row.get(category, 0) + 1
        table[cluster] = {
            category: count / len(ids) for category, count in sorted(row.items())
        }
    return table
