"""Clustering of tasks from a similarity matrix, plus cluster summaries.

Partitioning around medoids (PAM): the inputs are pairwise similarities
with no coordinate embedding, so centroid methods do not apply.
Dissimilarity is 1 - similarity throughout, so every entry of d lies in
[0, 1].

PAM is deterministic: greedy seeding and fixed tie orders, no random draws.
`k_medoids` keeps its seed argument in the result, and nothing reads it
there; report headers echo the CLI's `--seed` instead.

Both phases make exactly classic PAM's choices without a full pass over
d per step. Each keeps its scores from one step to the next (the seeding's
gains, the swap search's FastPAM1 table, whose fresh build and updates use
one routine, `_add_terms`) and updates them from the points whose nearest
medoid moved, with a proven bound on how far a kept score can lie from the
float PAM's own sum gives. Only the candidates inside that error window of
the best kept score are scored again, with PAM's sum; PAM's choice is
always among them, since a kept score errs by at most the bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .semsim import SimilarityMatrix

# PAM reads the dissimilarity matrix in blocks of whole rows, sized to stay
# in a core's cache while each block is scored: about _BUILD_CELLS or
# _SWAP_CELLS float64 cells (the swap table's terms use two such arrays), but
# never fewer than _MIN_BLOCK_ROWS rows, since numpy's per-call cost
# outweighs the cache misses of longer blocks.
_BUILD_CELLS = 1 << 16
_SWAP_CELLS = 1 << 14
_MIN_BLOCK_ROWS = 32
# When kept scores stop paying: the seeding scores every candidate afresh
# once its window holds more than n / _WINDOW_SHARE of them, and for good
# once a fresh pass ties that many at the best gain; the swap search
# rebuilds its table once its error bound passes _REBUILD_SHARE of the
# tolerance.
_WINDOW_SHARE = 8
_REBUILD_SHARE = 0.25
# twice the unit roundoff: one float64 rounding errs by at most half this
# of its result
_ULP = 2.0**-52


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
    """Raise TypeError unless k is an integer (a numpy one too), and
    ValueError unless k_medoids accepts k clusters of n tasks."""
    try:
        operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None
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


def _block_rows(n: int, cells: int) -> int:
    return max(cells // n, _MIN_BLOCK_ROWS)


def _gains(
    d: np.ndarray, nearest: np.ndarray, cols, work: np.ndarray
) -> np.ndarray:
    """PAM's seeding gains, each the sum over the rows of
    max(nearest - d, 0), of every point (`cols` None) or of the points
    `cols` (at least two).

    The rows are scored in blocks of as many rows as the flat buffer `work`
    holds next to the running gains, and each block is summed together
    with the running gains, kept as the first row of its buffer. numpy sums
    a C-ordered array of two or more columns over axis 0 one row after
    another, so the rows still add in order, and every gain is
    bit-identical to one sum over the whole n x n array."""
    n = d.shape[0]
    width = n if cols is None else len(cols)
    rows = len(work) // width - 1
    gains = None
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        w = work[: (hi - lo + 1) * width].reshape(hi - lo + 1, width)
        block = w[1:]
        if cols is None:
            np.subtract(nearest[lo:hi, None], d[lo:hi], out=block)
        else:
            np.take(d[lo:hi], cols, axis=1, out=block, mode="clip")
            np.subtract(nearest[lo:hi, None], block, out=block)
        np.maximum(block, 0.0, out=block)
        if gains is None:
            gains = block.sum(axis=0)
        else:
            w[0] = gains
            gains = w.sum(axis=0)
    return gains


def _drop_gains(
    d: np.ndarray, kept: np.ndarray, old: np.ndarray, new: np.ndarray,
    rows: int, work: np.ndarray,
) -> None:
    """Take from each kept gain what the rows whose nearest distance fell
    from `old` to `new` no longer add: max(old - d, 0) - max(new - d, 0),
    which is min(max(old - d, 0), old - new)."""
    n = d.shape[0]
    moved = np.flatnonzero(new < old)
    drop = old - new
    for lo in range(0, len(moved), rows):
        idx = moved[lo : lo + rows]
        block = work[: len(idx) * n].reshape(len(idx), n)
        np.take(d, idx, axis=0, out=block, mode="clip")
        np.subtract(old[idx, None], block, out=block)
        np.maximum(block, 0.0, out=block)
        np.minimum(block, drop[idx, None], out=block)
        kept -= block.sum(axis=0)


def _greedy_build(d: np.ndarray, k: int) -> list:
    """Classic PAM seeding: first the point with minimum total distance,
    then whichever point reduces the cost most. Ties go to the lowest
    index.

    A point's gain G is the float PAM's sum gives, adding the rows in
    order, of max(nearest - d, 0); `_gains` scores it bit for bit. The first
    gains are scored in one such pass, and then kept: when a medoid is
    added, each kept gain loses the terms of the rows whose nearest
    distance fell. Kept gains drift from G by rounding, so a bound E on
    |kept - G| is kept too. It is 0 after a full pass, and each update adds
    the rounding of three sums of at most n + 2 terms in [0, 1] (PAM's sum
    before and after, and the update), 3 (n + 2) 2**-52 max(1, largest
    gain + E). PAM's choice has the largest G, so its kept gain is at least
    the largest kept gain minus 2E, and so is that of any point tied with
    it. So PAM's choice is the one point of a window of one; a wider
    window is scored again with `_gains`, and its best point, lowest index
    on ties, is PAM's choice.

    A window of more than n / _WINDOW_SHARE points is scored in a full
    pass. If a full pass ties that many points at the best gain (a matrix
    with few distinct rows), no gains are kept from then on: every later
    step is a full pass, as in plain PAM. Once every point sits on a
    medoid, every gain is 0: the remaining medoids are then the lowest
    free indices, and no more passes are made."""
    n = d.shape[0]
    totals = d.sum(axis=0)
    medoids = [int(np.argmin(totals))]
    nearest = d[:, medoids[0]].copy()
    rows = min(_block_rows(n, _BUILD_CELLS), n)
    work = np.empty((rows + 1) * n)
    kept = None  # gains kept from the last step, -inf at the medoids
    keep, err = True, 0.0
    while len(medoids) < k:
        if not nearest.any():
            free = np.ones(n, dtype=bool)
            free[medoids] = False
            medoids += np.flatnonzero(free)[: k - len(medoids)].tolist()
            break
        if kept is not None:
            top = float(kept.max())
            window = np.flatnonzero(kept >= top - 2.0 * err)
            if len(window) * _WINDOW_SHARE > n:
                kept = None
        if kept is None:
            gains = _gains(d, nearest, None, work)
            gains[medoids] = -np.inf
            best = int(np.argmax(gains))
            top = float(gains[best])
            if keep and np.count_nonzero(gains == top) * _WINDOW_SHARE > n:
                keep = False
            if keep:
                kept, err = gains, 0.0
        elif len(window) == 1:
            best = int(window[0])
        else:
            best = int(window[np.argmax(_gains(d, nearest, window, work))])
        medoids.append(best)
        new = np.minimum(nearest, d[:, best])
        if kept is not None and len(medoids) < k:
            kept[best] = -np.inf
            err += 3 * (n + 2) * _ULP * max(1.0, top + err)
            _drop_gains(d, kept, nearest, new, rows, work)
        nearest = new
    return medoids


def _nearest_two(medoid_cols: np.ndarray):
    """Each point's nearest medoid position (lowest on ties), and its
    nearest and second-nearest medoid distance."""
    near = np.argmin(medoid_cols, axis=1)
    at_near = (np.arange(len(near)), near)
    dn = medoid_cols[at_near]
    # gathered columns are column-major; a row-wise min is faster on them
    rest = medoid_cols.copy(order="K")
    rest[at_near] = np.inf
    return near, dn, rest.min(axis=1)


def _add_terms(costs, d, points, near, dn, ds, op=np.add) -> np.ndarray:
    """Add to `costs` (`op` np.subtract: take out) the FastPAM1 terms that
    `points` put in their nearest medoid position's row, min(d, ds) -
    min(d, dn), given every point's `near`, `dn` and `ds`; return the sum
    of their shared terms, min(d, dn), which belong in every row. The rows
    of d are read in blocks, in order of nearest position, so that one
    position's rows in a block are one sum over axis 0."""
    n = d.shape[0]
    owner = near[points]
    points = points[np.argsort(owner, kind="stable")]
    # position p's points end at ends[p] in `points`
    ends = np.cumsum(np.bincount(owner, minlength=len(costs))).tolist()
    rows = _block_rows(n, _SWAP_CELLS)
    shared = np.zeros(n)
    to_near = np.empty((min(rows, len(points)), n))
    p = 0
    for lo in range(0, len(points), rows):
        idx = points[lo : lo + rows]
        r = d[idx]
        hi = lo + len(r)
        a = to_near[: len(r)]
        np.minimum(r, dn[idx, None], out=a)
        shared += a.sum(axis=0)
        np.minimum(r, ds[idx, None], out=r)
        np.subtract(r, a, out=r)
        at = lo
        while at < hi:
            while ends[p] <= at:
                p += 1
            stop = min(ends[p], hi)
            op(costs[p], r[at - lo : stop - lo].sum(axis=0), out=costs[p])
            at = stop
    return shared


def _swap_costs(d: np.ndarray, medoid_cols: np.ndarray) -> np.ndarray:
    """The cost of every swap, as a k x n array: entry (p, c) is the cost
    after medoid position p moves to point c.

    FastPAM1 (Schubert & Rousseeuw, "Faster k-Medoids Clustering: Improving
    the PAM, CLARA, and CLARANS Algorithms", SISAP 2019): from each point's
    nearest (dn) and second-nearest (ds) medoid distance, the cost is the
    sum over all points of min(d, dn), shared by every p, plus, over the
    points of p alone, min(d, ds) - min(d, dn), since they lose p. Every
    term is put in by `_add_terms`, in one pass over d."""
    n, k = medoid_cols.shape
    costs = np.zeros((k, n))
    costs += _add_terms(costs, d, np.arange(n), *_nearest_two(medoid_cols))
    return costs


class _SwapTable:
    """A swap search's medoid columns, each point's nearest medoid position
    and nearest and second-nearest medoid distance (`near`, `dn`, `ds`),
    and its FastPAM1 table (`costs`), kept across accepted swaps.

    After a swap, `_add_terms` takes out the old terms of the m points
    whose three values changed and puts in their new ones, in b blocks per
    call, and the change in their shared terms goes into every row. `err`
    bounds how far the updates have moved the table from the one
    `_swap_costs` would build; each adds 2**-52 (4 (m + 1)**2 + (2 b + 1) n).
    The four sums of at most m terms in [0, 1] (own and shared, old and
    new) each err by about m**2 2**-53 and their shared difference by
    m 2**-53, which the first part covers with room for second-order terms.
    Each entry takes an add per block and call, and one for the shared
    change, each within 2**-53 of a value of at most 2n (a moved point adds
    at most 1 to the shared sum and 1 to its own row)."""

    def __init__(self, d: np.ndarray, medoid_cols: np.ndarray):
        self.d = d
        self.medoid_cols = medoid_cols
        self.near, self.dn, self.ds = _nearest_two(self.medoid_cols)
        self.costs, self.err = None, 0.0

    def scores(self, tol: float) -> np.ndarray:
        """The table, built afresh if there is none or `err` has passed
        _REBUILD_SHARE of `tol`."""
        if self.costs is None or self.err > _REBUILD_SHARE * tol:
            self.costs = _swap_costs(self.d, self.medoid_cols)
            self.err = 0.0
        return self.costs

    def swap(self, p: int, candidate: int) -> None:
        """Move medoid position p to `candidate`, and update the table.
        Called only after `scores`, as a swap is only taken from it."""
        d, old = self.d, (self.near, self.dn, self.ds)
        self.medoid_cols[:, p] = d[:, candidate]
        new = self.near, self.dn, self.ds = _nearest_two(self.medoid_cols)
        moved = np.flatnonzero(np.any([o != w for o, w in zip(old, new)], 0))
        gone = _add_terms(self.costs, d, moved, *old, np.subtract)
        self.costs += _add_terms(self.costs, d, moved, *new) - gone
        m, n = len(moved), len(d)
        blocks = -(-m // _block_rows(n, _SWAP_CELLS))
        self.err += _ULP * (4 * (m + 1) ** 2 + (2 * blocks + 1) * n)


def _best_swap(d: np.ndarray, medoids: list, cost: float, table: _SwapTable):
    """The swap PAM accepts next, as (cost, medoid position, candidate), or
    None when no swap lowers the cost.

    The accepted swap is the lowest (cost, medoid index, candidate index)
    triple, each cost summed as min(rest, d[:, candidate]).sum(axis=0).
    The kept table sums in another order, so every swap within `tol` of its
    lowest cost is re-scored that way. A fresh table and PAM's sum both add
    non-negative terms, so each errs by at most about n * 2**-53 of the
    swap's cost, far below `tol` = 1e-9 * (1 + cost) at any n that fits in
    memory; the table's updates add at most its bound `err`, which is kept
    below tol / 4 by rebuilding. So any swap's table cost is within tol / 2
    of PAM's, and the winner is always among the swaps re-scored."""
    # d is never negative, so no swap lowers a zero cost
    if cost == 0.0:
        return None
    tol = 1e-9 * (1.0 + cost)
    costs = table.scores(tol).copy()
    costs[:, medoids] = np.inf
    low = costs.min()
    if low > cost + tol:
        return None
    tied = costs <= low + tol
    cols = np.flatnonzero(tied.any(axis=0))
    # gathered columns are column-major, so each one sums on its own, in
    # the same order as in PAM's full candidate block
    to_cols = d[:, cols]
    best = None
    for p in np.flatnonzero(tied.any(axis=1)):
        # the nearest distance without p: ds where p is nearest, else dn
        rest_min = np.where(table.near == p, table.ds, table.dn)
        swap_costs = np.minimum(rest_min[:, None], to_cols).sum(axis=0)
        c = int(np.argmin(swap_costs))
        candidate = (float(swap_costs[c]), medoids[p], int(cols[c]), int(p))
        if best is None or candidate[:3] < best[:3]:
            best = candidate
    if best[0] >= cost:
        return None
    return best[0], best[3], best[2]


def _swap_passes(d: np.ndarray, medoids: list, max_iter: int, trace):
    """Best-improvement SWAP until no swap lowers the cost (or max_iter).
    Cost is strictly decreasing so the loop terminates. Returns the
    medoids, their cost, and whether no improving swap was left."""
    medoid_cols = d[:, medoids]
    cost = float(medoid_cols.min(axis=1).sum())
    if trace is not None:
        trace.append(cost)
    # d is never negative, so no swap lowers a zero cost
    if cost == 0.0 or len(medoids) == len(d):
        return medoids, cost, True
    table = _SwapTable(d, medoid_cols)
    for _ in range(max_iter):
        best = _best_swap(d, medoids, cost, table)
        if best is None:
            return medoids, cost, True
        cost, p, candidate = best
        medoids[p] = candidate
        table.swap(p, candidate)
        if trace is not None:
            trace.append(cost)
    return medoids, cost, _best_swap(d, medoids, cost, table) is None


def _as_clustering(
    d: np.ndarray, medoids: list, task_ids, seed: int, converged: bool
) -> Clustering:
    order = np.array(sorted(medoids))  # np.sort pages in 0.25 MB more of numpy
    nearest = np.argmin(d[:, order], axis=1)
    # A medoid always sits at dissimilarity 0 from itself; pin it to its own
    # cluster in case another medoid ties at 0.
    nearest[order] = np.arange(len(order))
    # summed in task order, as Python floats
    total = sum(d[np.arange(len(d)), order[nearest]].tolist())
    return Clustering(
        dict(zip(task_ids, nearest.tolist())),
        {cluster: task_ids[m] for cluster, m in enumerate(order.tolist())},
        len(order), total, seed, converged,
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
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    d = _check_matrix(sim, k)
    medoids = _greedy_build(d, k)
    medoids, _, converged = _swap_passes(d, medoids, max_iter, trace)
    return _as_clustering(d, medoids, sim.task_ids, seed, converged)


def _category_counts(clustering: Clustering, category_of: Mapping):
    """The clustered tasks' categories, sorted, and how many members of
    each cluster have each one, as a (cluster x category) array."""
    categories = [category_of[tid] for tid in clustering.assignments]
    names = sorted(set(categories))  # np.unique pages in 0.25 MB more of numpy
    column = {name: j for j, name in enumerate(names)}
    pairs = zip(clustering.assignments.values(), categories)
    keys = [cluster * len(names) + column[category] for cluster, category in pairs]
    counts = np.bincount(keys, minlength=clustering.k * len(names))
    return names, counts.reshape(clustering.k, len(names))


def purity(clustering: Clustering, labels: Mapping[str, str]) -> float:
    """Fraction of tasks in their cluster's majority category."""
    missing = [tid for tid in clustering.assignments if tid not in labels]
    if missing:
        raise ValueError(f"id mismatch: no label for {missing[0]!r}")
    _, counts = _category_counts(clustering, labels)
    return int(counts.max(axis=1).sum()) / len(clustering.assignments)


def category_distribution(clustering: Clustering, corpus) -> dict:
    """Per cluster, the fraction of members in each category; categories
    with no members in the cluster are omitted. Rows sum to 1."""
    by_id = {task.id: task.category for task in corpus}
    if set(by_id) != set(clustering.assignments):
        raise ValueError(
            "id mismatch: clustering and corpus cover different tasks"
        )
    names, counts = _category_counts(clustering, by_id)
    sizes = counts.sum(axis=1).tolist()
    return {
        cluster: {name: n / sizes[cluster] for name, n in zip(names, row) if n}
        for cluster, row in enumerate(counts.tolist())
    }
