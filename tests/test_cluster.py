"""Partitioning around medoids and cluster summaries (purity, category
distribution, rendered tables)."""

import collections
import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasksim.cluster as pam
from conftest import make_task
from tasksim.cluster import (
    Clustering,
    _greedy_build,
    _swap_costs,
    _swap_passes,
    category_distribution,
    check_k,
    k_medoids,
    purity,
)
from tasksim.reports import render_distribution_csv, render_distribution_text
from tasksim.semsim import SimilarityMatrix


def sim_from(values, ids=None):
    values = np.asarray(values, dtype=float)
    if ids is None:
        ids = tuple(f"t{i}" for i in range(values.shape[0]))
    return SimilarityMatrix(
        task_ids=tuple(ids), values=values, measure="required_action"
    )


def random_sim(seed, n, ids=None):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    return sim_from(m, ids)


def block_sim(sizes, within=0.9, across=0.1):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = len(labels)
    values = np.where(labels[:, None] == labels[None, :], within, across)
    np.fill_diagonal(values, 1.0)
    return sim_from(values)


def brute_force_cost(sim, k):
    d = 1.0 - sim.values
    n = d.shape[0]
    return min(
        float(d[:, list(m)].min(axis=1).sum())
        for m in itertools.combinations(range(n), k)
    )


def medoid_positions(clustering, sim):
    pos = {tid: i for i, tid in enumerate(sim.task_ids)}
    return [pos[tid] for tid in clustering.medoids.values()]


def test_two_blocks_become_clusters():
    sim = block_sim([3, 3])
    result = k_medoids(sim, 2)
    assert result.medoids == {0: "t0", 1: "t3"}
    assert sorted(result.groups()[0]) == ["t0", "t1", "t2"]
    assert sorted(result.groups()[1]) == ["t3", "t4", "t5"]
    # four non-medoids at dissimilarity 0.1 each
    assert result.total_dissimilarity == pytest.approx(0.4, abs=1e-12)
    assert result.k == 2


def test_medoid_minimizes_within_cluster_distance():
    # t0 is closer to both blockmates than they are to each other.
    values = np.full((5, 5), 0.1)
    values[0, 1] = values[1, 0] = 0.9
    values[0, 2] = values[2, 0] = 0.9
    values[1, 2] = values[2, 1] = 0.8
    values[3, 4] = values[4, 3] = 0.9
    np.fill_diagonal(values, 1.0)
    result = k_medoids(sim_from(values), 2)
    assert result.medoids == {0: "t0", 1: "t3"}
    assert sorted(result.groups()[0]) == ["t0", "t1", "t2"]


def test_k_equal_to_n_costs_nothing():
    result = k_medoids(block_sim([3, 3]), 6)
    assert result.total_dissimilarity == 0.0
    assert sorted(result.assignments.values()) == list(range(6))
    assert set(result.medoids.values()) == set(result.assignments)


def test_matches_brute_force_on_separated_instances():
    # Clearly separated blocks with noisy similarities: PAM lands on the
    # enumerated optimum every time here. (On adversarial matrices, single
    # swap search can stop at a local optimum; see the local-optimality
    # property below for the unconditional guarantee.)
    rng = np.random.default_rng(42)
    for _ in range(150):
        n_blocks = int(rng.integers(2, 4))
        sizes = rng.integers(1, 4, size=n_blocks)
        while sizes.sum() < n_blocks + 1 or sizes.sum() > 8:
            sizes = rng.integers(1, 4, size=n_blocks)
        labels = np.repeat(np.arange(n_blocks), sizes)
        n = len(labels)
        values = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    values[i, j] = 1.0
                elif labels[i] == labels[j]:
                    values[i, j] = values[j, i] = rng.uniform(0.75, 0.95)
                else:
                    values[i, j] = values[j, i] = rng.uniform(0.05, 0.30)
        sim = sim_from(values)
        result = k_medoids(sim, n_blocks)
        assert result.total_dissimilarity == pytest.approx(
            brute_force_cost(sim, n_blocks), abs=1e-9
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=8),
    k=st.integers(min_value=2, max_value=3),
)
def test_no_single_swap_improves_the_result(seed, n, k):
    sim = random_sim(seed, n)
    d = 1.0 - sim.values
    result = k_medoids(sim, k)
    medoids = medoid_positions(result, sim)
    cost = float(d[:, medoids].min(axis=1).sum())
    assert result.total_dissimilarity == pytest.approx(cost, abs=1e-9)
    for p in range(k):
        for c in range(n):
            if c in medoids:
                continue
            trial = list(medoids)
            trial[p] = c
            assert d[:, trial].min(axis=1).sum() >= cost - 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=4, max_value=8),
    k=st.integers(min_value=2, max_value=3),
)
def test_every_task_sits_with_a_nearest_medoid(seed, n, k):
    sim = random_sim(seed, n)
    d = 1.0 - sim.values
    result = k_medoids(sim, k)
    medoids = medoid_positions(result, sim)
    pos = {tid: i for i, tid in enumerate(sim.task_ids)}
    by_cluster = dict(zip(result.medoids.keys(), medoids))
    for tid, cluster in result.assignments.items():
        own = d[pos[tid], by_cluster[cluster]]
        assert own <= d[pos[tid], medoids].min() + 1e-12


def test_trace_is_strictly_decreasing():
    # Seed picked so the SWAP phase actually fires twice.
    trace = []
    result = k_medoids(random_sim(3, 7), 3, trace=trace)
    assert len(trace) == 3
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert result.total_dissimilarity == pytest.approx(trace[-1], abs=1e-9)


def test_trace_monotone_across_seeds():
    for seed in range(25):
        trace = []
        k_medoids(random_sim(seed, 8), 3, trace=trace)
        assert trace, "seeding cost is always recorded"
        assert all(b < a for a, b in zip(trace, trace[1:]))


def test_max_iter_zero_keeps_the_seeding():
    full_trace = []
    full = k_medoids(random_sim(3, 7), 3, trace=full_trace)
    bare_trace = []
    bare = k_medoids(random_sim(3, 7), 3, max_iter=0, trace=bare_trace)
    assert bare_trace == full_trace[:1]
    assert bare.total_dissimilarity > full.total_dissimilarity


def test_a_negative_max_iter_is_refused():
    with pytest.raises(ValueError, match="max_iter must be non-negative, got -1"):
        k_medoids(random_sim(3, 3), 2, max_iter=-1)


def test_converged_flags_a_search_cut_short():
    assert not k_medoids(random_sim(3, 7), 3, max_iter=0).converged
    assert k_medoids(random_sim(3, 7), 3).converged


# PAM's seeding and swap search in their plain form, kept as the oracle:
# the library scores swaps another way (FastPAM1) but must make exactly
# these choices.

def pam_greedy_build(d, k):
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


def pam_swap_passes(d, medoids, max_iter, trace):
    n = d.shape[0]
    cost = float(d[:, medoids].min(axis=1).sum())
    trace.append(cost)
    for _ in range(max_iter):
        medoid_cols = d[:, medoids]
        others = np.array(sorted(set(range(n)) - set(medoids)), dtype=int)
        if others.size == 0:
            break
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
        trace.append(cost)
    return medoids, cost


def dissimilarity(kind, rng, n):
    if kind == "thirds":  # massive ties
        m = rng.integers(0, 4, size=(n, n)) / 3
    else:
        m = rng.uniform(size=(n, n))
    if kind == "duplicates":  # repeated rows and columns
        pick = rng.integers(0, max(2, n // 3), size=n)
        m = m[np.ix_(pick, pick)]
    m = (m + m.T) / 2
    if kind == "rounded":
        m = np.round(m, 2)
    if kind == "near_symmetric":
        m = np.clip(m + rng.uniform(-5e-10, 5e-10, size=(n, n)), 0.0, 1.0)
    if kind == "clumps":  # at most 3 distinct points: zero cost from k = 3
        pick = rng.integers(0, 3, size=n)
        m[pick[:, None] == pick[None, :]] = 1.0
    np.fill_diagonal(m, 1.0)
    return 1.0 - sim_from(m).values


def assert_pams_choices(d, k):
    seeded = pam_greedy_build(d, k)
    assert _greedy_build(d, k) == seeded
    expected, got = [], []
    medoids, cost = pam_swap_passes(d, list(seeded), 100, expected)
    assert _swap_passes(d, list(seeded), 100, got) == (medoids, cost, True)
    assert got == expected


@pytest.mark.parametrize("block_rows", [None, 5, 7])
@pytest.mark.parametrize(
    "kind", ["uniform", "thirds", "duplicates", "rounded", "near_symmetric"]
)
def test_swap_search_makes_pams_exact_choices(kind, block_rows, monkeypatch):
    if block_rows is not None:  # many row blocks per step, not one
        monkeypatch.setattr("tasksim.cluster._BUILD_CELLS", 1)
        monkeypatch.setattr("tasksim.cluster._SWAP_CELLS", 1)
        monkeypatch.setattr("tasksim.cluster._MIN_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(40):
        n = int(rng.integers(4, 81))
        k = int(rng.integers(2, min(n, 20) + 1))
        assert_pams_choices(dissimilarity(kind, rng, n), k)
    # larger instances: the kept gains and table are updated in many steps,
    # and in blocks of 7 rows, a ragged last block
    for _ in range(3):
        n = int(rng.integers(100, 201))
        k = int(rng.integers(2, 41))
        assert_pams_choices(dissimilarity(kind, rng, n), k)


@pytest.mark.parametrize("kind", ["uniform", "thirds", "duplicates", "clumps"])
def test_greedy_build_makes_pams_exact_choices(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for n in range(2, 41):
        d = dissimilarity(kind, rng, n)
        for k in {2, int(rng.integers(2, n + 1)), n}:
            assert _greedy_build(d, k) == pam_greedy_build(d, k)


@pytest.mark.parametrize("kind", ["uniform", "thirds", "duplicates", "clumps"])
def test_greedy_build_in_many_blocks_makes_pams_exact_choices(kind, monkeypatch):
    # a block budget of a few rows: dozens of blocks per pass, and a last
    # block that is shorter than the rest
    monkeypatch.setattr("tasksim.cluster._BUILD_CELLS", 1)
    monkeypatch.setattr("tasksim.cluster._MIN_BLOCK_ROWS", 3)
    rng = np.random.default_rng(sum(map(ord, kind)) + 1)
    for _ in range(20):
        n = int(rng.integers(4, 121))
        k = int(rng.integers(2, min(n, 20) + 1))
        d = dissimilarity(kind, rng, n)
        assert _greedy_build(d, k) == pam_greedy_build(d, k)


def test_build_stops_scoring_once_every_point_sits_on_a_medoid():
    # 3 distinct points among 30: after 3 medoids every gain is 0, and
    # PAM takes the lowest free indices
    d = dissimilarity("clumps", np.random.default_rng(4), 30)
    seeded = pam_greedy_build(d, 12)
    assert d[:, seeded[:3]].min(axis=1).max() == 0.0
    assert seeded[3:] == sorted(set(range(30)) - set(seeded[:3]))[:9]
    assert _greedy_build(d, 12) == seeded


@pytest.mark.parametrize("max_iter", [0, 1, 100])
def test_a_zero_cost_seeding_is_converged_without_scoring(max_iter, monkeypatch):
    def no_scoring(*args):
        raise AssertionError("a zero-cost seeding was scored")

    monkeypatch.setattr("tasksim.cluster._swap_costs", no_scoring)
    d = dissimilarity("clumps", np.random.default_rng(5), 30)
    seeded = pam_greedy_build(d, 5)
    expected = []
    medoids, cost = pam_swap_passes(d, list(seeded), max_iter, expected)
    assert (medoids, cost, expected) == (seeded, 0.0, [0.0])
    got = []
    assert _swap_passes(d, list(seeded), max_iter, got) == (seeded, 0.0, True)
    assert got == [0.0]


@pytest.mark.parametrize("kind", ["uniform", "thirds", "duplicates"])
def test_swap_costs_equal_each_swaps_cost(kind, monkeypatch):
    monkeypatch.setattr("tasksim.cluster._SWAP_CELLS", 1)
    monkeypatch.setattr("tasksim.cluster._MIN_BLOCK_ROWS", 7)
    rng = np.random.default_rng(sum(map(ord, kind)) + 2)
    n, k = 50, 6
    d = dissimilarity(kind, rng, n)
    medoids = list(rng.choice(n, size=k, replace=False))
    got = _swap_costs(d, d[:, medoids])
    for p in range(k):
        for c in range(n):
            swapped = medoids[:p] + [c] + medoids[p + 1 :]
            cost = d[:, swapped].min(axis=1).sum()
            assert got[p, c] == pytest.approx(cost, rel=1e-12, abs=1e-12)


def count_calls(monkeypatch, name, key=lambda *args: True):
    """Replace tasksim.cluster's `name` with a spy that counts, per value
    of key(*args), the calls it passes on."""
    real = getattr(pam, name)
    counts = collections.Counter()

    def spy(*args):
        counts[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(pam, name, spy)
    return counts


@pytest.mark.parametrize("k", [15, 40])
@pytest.mark.parametrize("kind", ["uniform", "rounded", "near_symmetric"])
def test_kept_scores_make_pams_exact_choices_at_scale(kind, k):
    # 300 points: the seeding keeps its gains for dozens of steps, and the
    # swap search keeps its table across swaps
    d = dissimilarity(kind, np.random.default_rng(sum(map(ord, kind)) + k), 300)
    assert_pams_choices(d, k)


@pytest.mark.parametrize("kind", ["thirds", "duplicates", "clumps"])
def test_seeding_fallbacks_make_pams_exact_choices(kind, monkeypatch):
    passes = count_calls(monkeypatch, "_gains", lambda d, near, cols, work: cols is None)
    updates = count_calls(monkeypatch, "_drop_gains")
    rng = np.random.default_rng(sum(map(ord, kind)) + 3)
    tie_rule = window_fallback = 0
    for _ in range(40):
        n = int(rng.integers(4, 121))
        k = int(rng.integers(2, min(n, 40) + 1))
        d = dissimilarity(kind, rng, n)
        passes.clear()
        updates.clear()
        assert_pams_choices(d, k)
        if passes[True] >= 2:
            # a fresh pass after the first: either gains were never kept
            # (the first pass tied too many points), or a window was too wide
            tie_rule += not updates
            window_fallback += bool(updates)
    assert tie_rule and window_fallback


def test_a_swap_that_moves_many_points_updates_the_table(monkeypatch):
    # at k = 2-3 one swap can change most points' nearest medoids; the
    # table is still updated from them, not built afresh
    builds = count_calls(monkeypatch, "_swap_costs")
    moved_shares = []
    real_swap = pam._SwapTable.swap

    def swap(table, p, candidate):
        before = table.near, table.dn, table.ds
        real_swap(table, p, candidate)
        after = table.near, table.dn, table.ds
        changed = np.logical_or.reduce([x != y for x, y in zip(before, after)])
        moved_shares.append(changed.mean())

    monkeypatch.setattr(pam._SwapTable, "swap", swap)
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(50, 71))
        d = dissimilarity("rounded", rng, n)
        for k in (2, 3):
            builds.clear()
            assert_pams_choices(d, k)
            assert builds[True] <= 1
    assert max(moved_shares) > 0.25


@pytest.mark.parametrize("many_blocks", [False, True])
@pytest.mark.parametrize(
    "kind", ["uniform", "thirds", "duplicates", "rounded", "near_symmetric"]
)
def test_the_kept_table_stays_within_its_bound_of_a_fresh_one(
    kind, many_blocks, monkeypatch
):
    # ("clumps" is left out: its cost is 0 from k = 3, so it never swaps)
    if many_blocks:
        monkeypatch.setattr("tasksim.cluster._SWAP_CELLS", 1)
        monkeypatch.setattr("tasksim.cluster._MIN_BLOCK_ROWS", 3)
    swaps = 0
    real_swap = pam._SwapTable.swap

    def swap(table, p, candidate):
        nonlocal swaps
        real_swap(table, p, candidate)
        fresh = _swap_costs(table.d, table.medoid_cols)
        assert np.abs(table.costs - fresh).max() <= table.err
        swaps += 1

    monkeypatch.setattr(pam._SwapTable, "swap", swap)
    for k in (15, 40):
        d = dissimilarity(kind, np.random.default_rng(sum(map(ord, kind)) + k), 300)
        _swap_passes(d, _greedy_build(d, k), 100, [])
    assert swaps


def test_a_table_past_its_error_bound_is_built_afresh(monkeypatch):
    # with no error allowed, every update's bound forces a fresh table
    monkeypatch.setattr("tasksim.cluster._REBUILD_SHARE", 0.0)
    builds = count_calls(monkeypatch, "_swap_costs")
    d = dissimilarity("uniform", np.random.default_rng(8), 120)
    trace = []
    _swap_passes(d, pam_greedy_build(d, 20), 100, trace)
    assert len(trace) > 10  # one table per step: a first one, and one per swap
    assert builds[True] == len(trace)
    assert_pams_choices(d, 20)


def test_a_swap_only_rounding_favours_is_taken_as_pam_takes_it():
    # From the seeding {1, 2}, swapping 1 for 4 keeps the cost at 1/2, but
    # PAM's sum reads it one rounding step lower, so PAM takes it and then
    # reaches cost 1/3. That swap's FastPAM1 delta is not negative: only
    # re-scoring the swaps within tolerance of the best finds it.
    sixths = np.array([
        [6, 6, 5, 4, 0],
        [6, 6, 3, 4, 5],
        [5, 3, 6, 3, 2],
        [4, 4, 3, 6, 5],
        [0, 5, 2, 5, 6],
    ]) / 6
    d = 1.0 - sim_from(sixths).values
    expected = []
    medoids, _ = pam_swap_passes(d, pam_greedy_build(d, 2), 100, expected)
    assert medoids == [4, 0]
    assert expected == [0.5, 0.4999999999999999, 0.33333333333333326]
    trace = []
    result = k_medoids(sim_from(sixths), 2, trace=trace)
    assert trace == expected
    assert result.medoids == {0: "t0", 1: "t4"}


def test_partition_survives_task_reordering():
    sim = random_sim(5, 8)
    result = k_medoids(sim, 3)
    perm = list(np.random.default_rng(99).permutation(8))
    shuffled = sim_from(
        sim.values[np.ix_(perm, perm)], [sim.task_ids[p] for p in perm]
    )
    reordered = k_medoids(shuffled, 3)
    as_sets = lambda r: {frozenset(r.groups()[c]) for c in range(r.k)}
    assert as_sets(result) == as_sets(reordered)
    assert set(result.medoids.values()) == set(reordered.medoids.values())
    assert result.total_dissimilarity == pytest.approx(
        reordered.total_dissimilarity, abs=1e-9
    )


def test_identical_points_keep_their_medoids_apart():
    # With every pairwise similarity 1 the two medoids tie at distance zero
    # from everything; each still lands in its own cluster.
    result = k_medoids(sim_from(np.ones((4, 4))), 2)
    assert result.medoids == {0: "t0", 1: "t1"}
    assert result.assignments["t0"] == 0
    assert result.assignments["t1"] == 1
    assert result.total_dissimilarity == 0.0


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_tasks_name_the_task_count(n):
    message = f"^clustering needs at least 2 tasks, got {n}$"
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match=message):
            check_k(k, n)
    with pytest.raises(ValueError, match=message):
        k_medoids(sim_from(np.ones((n, n))), 2)


def test_k_bounds_and_duplicate_ids_rejected():
    sim = block_sim([3, 3])
    with pytest.raises(ValueError, match="between 2 and 6"):
        k_medoids(sim, 1)
    with pytest.raises(ValueError, match="between 2 and 6"):
        k_medoids(sim, 7)
    dup = sim_from(np.where(np.eye(3) == 1, 1.0, 0.5), ids=("a", "a", "b"))
    with pytest.raises(ValueError, match="duplicate task ids"):
        k_medoids(dup, 2)


def test_k_must_be_an_integer():
    sim = block_sim([3, 3])
    # refused, not rounded up to some number of clusters
    with pytest.raises(TypeError, match="k must be an integer, got 2.5"):
        k_medoids(sim, 2.5)
    with pytest.raises(TypeError, match="got '2'"):
        check_k("2", 6)
    assert k_medoids(sim, np.int64(2)).k == 2


@pytest.mark.parametrize("seed", range(6))
def test_total_is_the_task_order_sum_of_each_tasks_dissimilarity(seed):
    # rows repeat, so medoids tie at 0 from each other's duplicates and each
    # must still be pinned to its own cluster
    rng = np.random.default_rng(seed)
    base = random_sim(seed, 6).values
    pick = np.concatenate([np.arange(6), rng.integers(0, 6, 18)])
    values = base[np.ix_(pick, pick)]
    np.fill_diagonal(values, 1.0)
    sim = sim_from(values)
    for k in (2, 6, 12, 24):
        result = k_medoids(sim, k)
        medoids = medoid_positions(result, sim)
        d = 1.0 - values
        expected = sum(
            float(d[i, medoids[result.assignments[tid]]])
            for i, tid in enumerate(sim.task_ids)
        )
        assert type(result.total_dissimilarity) is float
        assert result.total_dissimilarity.hex() == expected.hex()


def test_clustering_rejects_malformed_partitions():
    with pytest.raises(ValueError, match="at least 1"):
        Clustering({}, {}, 0, 0.0, 0)
    with pytest.raises(ValueError, match="dense"):
        Clustering({"a": 0, "b": 2}, {0: "a", 2: "b"}, 2, 0.0, 0)
    with pytest.raises(ValueError, match="not assigned to its cluster"):
        Clustering({"a": 1, "b": 0}, {0: "a", 1: "b"}, 2, 0.0, 0)
    with pytest.raises(ValueError, match="unknown cluster"):
        Clustering({"a": 0, "b": 5}, {0: "a"}, 1, 0.0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        Clustering({"a": 0}, {0: "a"}, 1, -1.0, 0)


def manual_clustering(assignments, medoids):
    return Clustering(assignments, medoids, len(medoids), 0.0, 0)


def test_purity_of_a_perfect_partition():
    result = k_medoids(block_sim([3, 3]), 2)
    labels = {"t0": "x", "t1": "x", "t2": "x", "t3": "y", "t4": "y", "t5": "y"}
    assert purity(result, labels) == 1.0


def test_purity_counts_majorities():
    clustering = manual_clustering(
        {"t0": 0, "t1": 0, "t2": 0, "t3": 1, "t4": 1},
        {0: "t0", 1: "t3"},
    )
    labels = {"t0": "x", "t1": "x", "t2": "y", "t3": "z", "t4": "z"}
    assert purity(clustering, labels) == pytest.approx(0.8)
    six = manual_clustering(
        {"t0": 0, "t1": 0, "t2": 0, "t3": 1, "t4": 1, "t5": 1},
        {0: "t0", 1: "t3"},
    )
    labels6 = {"t0": "x", "t1": "x", "t2": "y",
               "t3": "z", "t4": "z", "t5": "z"}
    assert purity(six, labels6) == pytest.approx(5 / 6)


def test_purity_requires_a_label_for_every_task():
    clustering = manual_clustering({"t0": 0, "t1": 0}, {0: "t0"})
    with pytest.raises(ValueError, match="id mismatch: no label for 't1'"):
        purity(clustering, {"t0": "x"})


def category_corpus():
    spec = [
        ("t0", "signup"), ("t1", "signup"), ("t2", "watch"),
        ("t3", "review"), ("t4", "review"), ("t5", "review"),
    ]
    return [
        make_task(id=tid, category=category, html="<p>Do the thing now.</p>")
        for tid, category in spec
    ]


def category_split():
    return manual_clustering(
        {"t0": 0, "t1": 0, "t2": 0, "t3": 1, "t4": 1, "t5": 1},
        {0: "t0", 1: "t3"},
    )


def test_category_distribution_fractions():
    table = category_distribution(category_split(), category_corpus())
    assert table[0] == {"signup": pytest.approx(2 / 3),
                        "watch": pytest.approx(1 / 3)}
    # review never appears in cluster 0, so its key is absent entirely
    assert "review" not in table[0]
    assert table[1] == {"review": pytest.approx(1.0)}
    for row in table.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_category_distribution_checks_ids():
    corpus = category_corpus()
    with pytest.raises(ValueError, match="id mismatch"):
        category_distribution(category_split(), corpus[:-1])
    extra = corpus + [make_task(id="t9", category="watch")]
    with pytest.raises(ValueError, match="id mismatch"):
        category_distribution(category_split(), extra)


def test_distribution_text_layout():
    text = render_distribution_text(category_split(), category_corpus())
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["cluster", "size", "review", "signup", "watch"]
    assert lines[1].split() == ["0", "3", "-", "0.67", "0.33"]
    assert lines[2].split() == ["1", "3", "1.00", "-", "-"]
    # every column is padded to a common width
    assert len({len(line) for line in lines}) == 1
    assert text.endswith("\n")


def test_distribution_csv_round_trip():
    out = render_distribution_csv(category_split(), category_corpus())
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["cluster", "size", "medoid",
                       "review", "signup", "watch"]
    assert rows[1][:3] == ["0", "3", "t0"]
    assert rows[2][:3] == ["1", "3", "t3"]
    for row in rows[1:]:
        fractions = [float(v) for v in row[3:] if v != "-"]
        assert sum(fractions) == pytest.approx(1.0, abs=1e-9)
    assert rows[1][3] == "-"
    assert rows[1][4] == f"{2 / 3:.6f}"


def test_distribution_renderers_are_stable():
    clustering, corpus = category_split(), category_corpus()
    assert render_distribution_text(clustering, corpus) == (
        render_distribution_text(category_split(), category_corpus())
    )
    assert render_distribution_csv(clustering, corpus) == (
        render_distribution_csv(category_split(), category_corpus())
    )
