"""Partitioning around medoids and cluster summaries (purity, category
distribution, rendered tables)."""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task
from tasksim.cluster import (
    Clustering,
    category_distribution,
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
    assert sorted(result.members(0)) == ["t0", "t1", "t2"]
    assert sorted(result.members(1)) == ["t3", "t4", "t5"]
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
    assert sorted(result.members(0)) == ["t0", "t1", "t2"]


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


def test_partition_survives_task_reordering():
    sim = random_sim(5, 8)
    result = k_medoids(sim, 3)
    perm = list(np.random.default_rng(99).permutation(8))
    shuffled = sim_from(
        sim.values[np.ix_(perm, perm)], [sim.task_ids[p] for p in perm]
    )
    reordered = k_medoids(shuffled, 3)
    as_sets = lambda r: {frozenset(r.members(c)) for c in range(r.k)}
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


def test_k_bounds_and_duplicate_ids_rejected():
    sim = block_sim([3, 3])
    with pytest.raises(ValueError, match="between 2 and 6"):
        k_medoids(sim, 1)
    with pytest.raises(ValueError, match="between 2 and 6"):
        k_medoids(sim, 7)
    dup = sim_from(np.where(np.eye(3) == 1, 1.0, 0.5), ids=("a", "a", "b"))
    with pytest.raises(ValueError, match="duplicate task ids"):
        k_medoids(dup, 2)


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
