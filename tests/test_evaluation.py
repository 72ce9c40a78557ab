"""Fold construction, metric arithmetic, cross-validation plumbing, grids."""

import csv
import io
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task
from tasksim import evaluation
from tasksim.evaluation import (
    EvaluationError,
    all_feature_set_combinations,
    compute_metrics,
    cross_validate,
    grid_run,
    ordered_feature_sets,
    stratified_folds,
)
from tasksim.reports import render_grid_csv, render_grid_text, render_report_text


def vocab_corpus(n_per=12, seed=0):
    """Tasks whose descriptions use category-specific vocabulary, so content
    features separate the categories almost perfectly."""
    words = {
        "review": ["opinion", "rating", "feedback", "paragraph"],
        "signup": ["register", "account", "membership", "confirm"],
        "watch": ["video", "stream", "episode", "minutes"],
    }
    rng = random.Random(seed)
    tasks = []
    for category, pool in words.items():
        for j in range(n_per):
            body = " ".join(rng.choice(pool) for _ in range(12))
            tasks.append(
                make_task(
                    id=f"{category}-{j}",
                    title=f"{category} task",
                    html=f"<p>{body}.</p>",
                    category=category,
                )
            )
    return tasks


# ---------------------------------------------------------------- folds


def test_proportional_classes_give_exact_folds():
    y = ["a"] * 60 + ["b"] * 40
    folds = stratified_folds(y, 10, seed=3)
    for fold in folds:
        counts = Counter(y[i] for i in fold)
        assert counts == {"a": 6, "b": 4}


def test_small_class_spreads_one_per_fold():
    y = ["big"] * 20 + ["small"] * 3
    folds = stratified_folds(y, 10, seed=5)
    small_counts = [sum(y[i] == "small" for i in fold) for fold in folds]
    assert sorted(small_counts, reverse=True) == [1, 1, 1] + [0] * 7


def test_same_seed_same_folds():
    y = ["a", "b", "c"] * 7
    assert stratified_folds(y, 5, seed=42) == stratified_folds(y, 5, seed=42)


def test_fold_errors():
    with pytest.raises(ValueError):
        stratified_folds(["a", "b"], 1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(["a", "b", "a"], 4, seed=0)


@given(
    labels=st.lists(st.sampled_from("abc"), min_size=10, max_size=60),
    k=st.sampled_from([2, 5, 10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_folds_partition_with_balanced_classes(labels, k, seed):
    folds = stratified_folds(labels, k, seed)
    assert len(folds) == k
    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(len(labels)))
    assert len(set(flat)) == len(flat)
    for cls in set(labels):
        counts = [sum(labels[i] == cls for i in fold) for fold in folds]
        assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------- metrics


def test_perfect_diagonal():
    report = compute_metrics([[5, 0], [0, 5]], ("a", "b"))
    assert report.weighted_f1 == pytest.approx(1.0, abs=1e-12)
    assert report.per_class["a"] == (1.0, 1.0, 1.0, 5)


def test_hand_computed_two_class_matrix():
    # Frozen by hand from the definitions: for class a, TP=3, FP=2, FN=1.
    report = compute_metrics([[3, 1], [2, 4]], ("a", "b"))
    a = report.per_class["a"]
    assert a.precision == pytest.approx(0.6, abs=1e-9)
    assert a.recall == pytest.approx(0.75, abs=1e-9)
    assert a.f1 == pytest.approx(2.0 / 3.0, abs=1e-9)
    b = report.per_class["b"]
    assert b.precision == pytest.approx(0.8, abs=1e-9)
    assert b.recall == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert b.f1 == pytest.approx(8.0 / 11.0, abs=1e-9)
    assert report.weighted_f1 == pytest.approx(116.0 / 165.0, abs=1e-9)
    assert report.n_instances == 10


def test_absent_class_gets_zeros():
    # Class c has no instances and is never predicted.
    report = compute_metrics(
        [[2, 0, 0], [0, 3, 0], [0, 0, 0]], ("a", "b", "c")
    )
    assert report.per_class["c"] == (0.0, 0.0, 0.0, 0)
    assert report.weighted_f1 == pytest.approx(1.0, abs=1e-12)


def test_metrics_validation():
    with pytest.raises(ValueError):
        compute_metrics([[1, 2, 3]], ("a",))
    with pytest.raises(ValueError):
        compute_metrics([[1, 0], [0, 1]], ("a", "b", "c"))
    with pytest.raises(ValueError):
        compute_metrics([[1, -1], [0, 1]], ("a", "b"))


@given(st.lists(st.integers(0, 30), min_size=9, max_size=9))
def test_weighted_f1_matches_per_class_recomputation(entries):
    matrix = np.array(entries).reshape(3, 3)
    report = compute_metrics(matrix, ("a", "b", "c"))
    total = matrix.sum()
    supports = [report.per_class[c].support for c in report.classes]
    assert supports == [int(r) for r in matrix.sum(axis=1)]
    assert report.n_instances == total
    expected = (
        sum(
            report.per_class[c].support / total * report.per_class[c].f1
            for c in report.classes
        )
        if total
        else 0.0
    )
    assert abs(report.weighted_f1 - expected) <= 1e-12


# ---------------------------------------------------------------- set algebra


def test_ordered_feature_sets_is_canonical():
    assert ordered_feature_sets({"semantic", "factual"}) == ("factual", "semantic")
    assert ordered_feature_sets(["content"]) == ("content",)
    with pytest.raises(ValueError):
        ordered_feature_sets(["content", "content"])
    with pytest.raises(ValueError):
        ordered_feature_sets(["tfidf"])
    with pytest.raises(ValueError):
        ordered_feature_sets([])


def test_all_combinations_has_fifteen_unique_entries():
    combos = all_feature_set_combinations()
    assert len(combos) == 15
    assert len(set(combos)) == 15
    assert all(combos)
    assert combos[0] == ("factual",)
    assert combos[-1] == ("factual", "content", "structural", "semantic")


# ---------------------------------------------------------------- cross_validate


def test_separable_corpus_scores_high():
    tasks = vocab_corpus()
    report = cross_validate(tasks, {"content"}, "naive_bayes", 3, seed=9)
    assert report.weighted_f1 >= 0.9
    assert report.n_instances == len(tasks)
    assert len(report.fold_scores) == 3
    assert report.config_echo["feature_sets"] == ("content",)


def test_constant_features_hit_majority_baseline():
    html = "<p>Identical description text for every task here.</p>"
    tasks = [
        make_task(id=f"t{i}", html=html, category="a" if i < 7 else "b")
        for i in range(10)
    ]
    # Always-predict-majority gives class a P=0.7, R=1.0 and class b zeros.
    expected = 0.7 * (2 * 0.7 / 1.7)
    for algorithm in ("naive_bayes", "tree"):
        report = cross_validate(tasks, {"structural"}, algorithm, 5, seed=2)
        assert report.confusion.tolist() == [[7, 0], [3, 0]]
        assert report.weighted_f1 == pytest.approx(expected, abs=1e-9)


def test_fold_failure_carries_fold_index(monkeypatch):
    def failing_train(*args, **kwargs):
        raise ValueError("knn_k must be >= 1")

    monkeypatch.setattr(evaluation, "train", failing_train)
    tasks = vocab_corpus(n_per=4)
    with pytest.raises(EvaluationError, match="fold 0 failed: knn_k"):
        cross_validate(tasks, {"structural"}, "knn", 3, seed=0)


def test_unknown_algorithm_rejected_before_any_fold():
    with pytest.raises(ValueError, match="unknown algorithm"):
        cross_validate(vocab_corpus(n_per=4), {"structural"}, "jrip", 3, seed=0)


def test_fitting_sees_training_split_only(monkeypatch):
    tasks = vocab_corpus(n_per=6)
    labels = [t.category for t in tasks]
    folds = stratified_folds(labels, 3, seed=11)
    ids = [t.id for t in tasks]
    seen_per_call = []
    real = evaluation.fit_extractor

    def spy(name, train_tasks, **kwargs):
        train_tasks = tuple(train_tasks)
        seen_per_call.append({t.id for t in train_tasks})
        return real(name, train_tasks, **kwargs)

    monkeypatch.setattr(evaluation, "fit_extractor", spy)
    cross_validate(tasks, {"content"}, "naive_bayes", 3, seed=11)
    assert len(seen_per_call) == 3
    for fold, seen in zip(folds, seen_per_call):
        held_out = {ids[i] for i in fold}
        assert seen == set(ids) - held_out
        assert not seen & held_out


def test_cross_validate_deterministic():
    tasks = vocab_corpus(n_per=5)
    a = cross_validate(tasks, {"content", "structural"}, "forest", 3, seed=4)
    b = cross_validate(tasks, {"content", "structural"}, "forest", 3, seed=4)
    assert a.confusion.tolist() == b.confusion.tolist()
    assert a.weighted_f1 == b.weighted_f1
    assert a.fold_scores == b.fold_scores


# ---------------------------------------------------------------- grid


def test_grid_cardinality_singletons():
    tasks = vocab_corpus(n_per=4)
    singletons = [("factual",), ("content",), ("structural",), ("semantic",)]
    grid = grid_run(
        tasks, singletons, ("naive_bayes", "knn", "tree"), k=2, seed=1
    )
    assert len(grid.reports) == 12
    assert grid.combinations == tuple(singletons)


def test_grid_cell_matches_standalone_run():
    tasks = vocab_corpus(n_per=4)
    combos = [("structural",), ("content",)]
    grid = grid_run(tasks, combos, ("naive_bayes",), k=2, seed=100)
    for cell_no, combo in enumerate(combos):
        standalone = cross_validate(
            tasks, combo, "naive_bayes", 2, seed=100 + cell_no
        )
        cell = grid.reports[(combo, "naive_bayes")]
        assert cell.confusion.tolist() == standalone.confusion.tolist()
        assert cell.weighted_f1 == standalone.weighted_f1


def test_grid_deterministic():
    tasks = vocab_corpus(n_per=4)
    combos = [("content",), ("content", "semantic")]
    one = grid_run(tasks, combos, ("naive_bayes", "tree"), k=2, seed=7)
    two = grid_run(tasks, combos, ("naive_bayes", "tree"), k=2, seed=7)
    for key in one.reports:
        assert one.reports[key].weighted_f1 == two.reports[key].weighted_f1
        assert (
            one.reports[key].confusion.tolist()
            == two.reports[key].confusion.tolist()
        )


def test_grid_rejects_bad_inputs():
    tasks = vocab_corpus(n_per=4)
    with pytest.raises(ValueError):
        grid_run(tasks, [("content",), ("content",)], ("tree",), k=2, seed=0)
    with pytest.raises(ValueError):
        grid_run(tasks, [("content",)], ("boosting",), k=2, seed=0)
    # a repeated algorithm's second cell once overwrote its first
    with pytest.raises(ValueError, match="duplicate algorithms"):
        grid_run(tasks, [("content",)], ("tree", "tree"), k=2, seed=0)


def test_grid_rejects_empty_algorithm_list():
    # an empty grid once rendered a table with no scores, and its CSV raised
    tasks = vocab_corpus(n_per=4)
    with pytest.raises(ValueError, match="empty algorithm list"):
        grid_run(tasks, [["structural"]], (), k=2)


def test_grid_rejects_empty_combination_list():
    tasks = vocab_corpus(n_per=4)
    with pytest.raises(ValueError, match="empty feature-set combination list"):
        grid_run(tasks, [], ("tree",), k=2)


# ---------------------------------------------------------------- rendering


@pytest.fixture(scope="module")
def small_grid():
    tasks = vocab_corpus(n_per=4)
    combos = [("structural",), ("content",), ("content", "structural")]
    return grid_run(tasks, combos, ("naive_bayes", "tree"), k=2, seed=3)


def test_grid_text_layout(small_grid):
    text = render_grid_text(small_grid)
    lines = text.splitlines()
    assert lines[0].split() == ["feature_sets", "naive_bayes", "tree"]
    assert len(lines) == 1 + len(small_grid.combinations)
    assert lines[3].startswith("content+structural")
    assert render_grid_text(small_grid) == text


def test_grid_csv_round_trips(small_grid):
    text = render_grid_csv(small_grid)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert header[:3] == ["feature_sets", "algorithm", "weighted_f1"]
    assert len(body) == len(small_grid.reports)
    for row in body:
        combo = tuple(row[0].split("+"))
        report = small_grid.reports[(combo, row[1])]
        assert row[2] == f"{report.weighted_f1:.6f}"
    assert render_grid_csv(small_grid) == text


def test_report_text_contents(small_grid):
    report = small_grid.reports[(("content",), "naive_bayes")]
    text = render_report_text(report)
    assert f"weighted_f1: {report.weighted_f1:.6f}" in text
    assert "confusion (rows actual, columns predicted):" in text
    for name in report.classes:
        assert name in text
    assert render_report_text(report) == text
