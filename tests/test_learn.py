"""Tests for the five native classifiers: closed-form oracles, brute-force
agreement, convergence conditions, and determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasksim.features import FeatureMatrix
from tasksim.learn import (
    ALGORITHMS,
    LearnerConfig,
    predict,
    predict_batch,
    train,
)
from tasksim.learn import svm


def blobs(seed=0, n_per=20, centers=((0.0, 0.0), (8.0, 8.0), (-8.0, 8.0))):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for i, center in enumerate(centers):
        X.append(rng.normal(loc=center, scale=0.5, size=(n_per, 2)))
        y.extend([f"c{i}"] * n_per)
    return np.vstack(X), y


def training_accuracy(model, X, y):
    labels, _ = predict_batch(model, X)
    return sum(a == b for a, b in zip(labels, y)) / len(y)


class TestNaiveBayes:
    def test_gaussian_posterior_closed_form(self):
        X = np.array([[-1.0], [0.0], [1.0], [1.0], [2.0], [3.0]])
        y = ["A", "A", "A", "B", "B", "B"]
        model = train("naive_bayes", X, y)
        # equal priors, both classes have population variance 2/3:
        # log-odds at x = 3*(1-x); at 0.8 the posterior for A is 1/(1+e^-0.6)
        _, scores = predict(model, np.array([0.8]))
        assert scores[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.6)), abs=1e-9)

    def test_widely_separated_classes(self):
        rng = np.random.default_rng(3)
        X = np.concatenate([rng.normal(0, 1, 30), rng.normal(10, 1, 30)]).reshape(-1, 1)
        y = ["A"] * 30 + ["B"] * 30
        model = train("naive_bayes", X, y)
        label, _ = predict(model, np.array([1.0]))
        assert label == "A"

    def test_posteriors_sum_to_one(self):
        X, y = blobs()
        model = train("naive_bayes", X, y)
        _, scores = predict_batch(model, X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_multinomial_on_content_provenance(self):
        rows = np.abs(np.random.default_rng(0).normal(size=(10, 4)))
        fm = FeatureMatrix(("a", "b", "c", "d"), rows, frozenset({"content"}))
        y = ["x"] * 5 + ["y"] * 5
        model = train("naive_bayes", fm, y)
        assert model.parameters["event_model"] == "multinomial"

    def test_gaussian_on_other_provenance(self):
        rows = np.random.default_rng(0).normal(size=(10, 4))
        fm = FeatureMatrix(("a", "b", "c", "d"), rows, frozenset({"structural"}))
        model = train("naive_bayes", fm, ["x"] * 5 + ["y"] * 5)
        assert model.parameters["event_model"] == "gaussian"
        combined = FeatureMatrix(("a", "b"), np.abs(rows[:, :2]), frozenset({"content", "factual"}))
        model = train("naive_bayes", combined, ["x"] * 5 + ["y"] * 5)
        assert model.parameters["event_model"] == "gaussian"

    def test_variance_floor_handles_constant_features(self):
        X = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 1.0], [1.0, 2.0]])
        model = train("naive_bayes", X, ["a", "a", "b", "b"])
        _, scores = predict(model, np.array([1.0, 5.5]))
        assert np.all(np.isfinite(scores))


class TestKnn:
    def test_k1_training_row_exact(self):
        X, y = blobs(seed=1)
        model = train("knn", X, y, LearnerConfig(knn_k=1))
        label, scores = predict(model, X[7])
        assert label == y[7]
        assert scores.max() == 1.0

    def test_k1_training_accuracy_unique_rows(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = [f"c{i % 4}" for i in range(40)]
        model = train("knn", X, y, LearnerConfig(knn_k=1))
        assert training_accuracy(model, X, y) == 1.0

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 4))
        y = [f"c{i % 3}" for i in range(60)]
        Q = rng.normal(size=(25, 4))
        for k in (1, 3, 5):
            model = train("knn", X, y, LearnerConfig(knn_k=k))
            labels, _ = predict_batch(model, Q)
            for q, got in zip(Q, labels):
                dists = sorted(
                    (float(np.linalg.norm(q - X[i])), i) for i in range(len(y))
                )
                votes = {}
                for _, i in dists[:k]:
                    votes[y[i]] = votes.get(y[i], 0) + 1
                best = max(sorted(votes), key=lambda c: votes[c])
                assert got == best

    def test_vote_fractions(self):
        X = np.array([[0.0], [0.1], [5.0]])
        y = ["a", "a", "b"]
        model = train("knn", X, y, LearnerConfig(knn_k=3))
        _, scores = predict(model, np.array([0.0]))
        np.testing.assert_allclose(scores, [2 / 3, 1 / 3])

    def test_distance_tie_resolved_by_training_index(self):
        X = np.array([[1.0], [-1.0]])
        y = ["b", "a"]
        model = train("knn", X, y, LearnerConfig(knn_k=1))
        label, _ = predict(model, np.array([0.0]))
        assert label == "b"  # equal distance: earlier training row wins

    def test_score_tie_broken_by_class_order(self):
        X = np.array([[0.0], [1.0]])
        y = ["z", "a"]
        model = train("knn", X, y, LearnerConfig(knn_k=2))
        label, scores = predict(model, np.array([0.5]))
        assert scores[0] == scores[1] == 0.5
        assert label == "a"  # classes sorted; first max wins


class TestTree:
    def test_perfect_single_feature_split(self):
        X = np.array([[0.0, 7.0], [1.0, 7.0], [10.0, 7.0], [11.0, 7.0]])
        y = ["a", "a", "b", "b"]
        model = train("tree", X, y, LearnerConfig(tree_min_leaf=1))
        assert len(model.parameters["feature"]) == 3  # root + two leaves
        assert model.parameters["feature"][0] == 0
        assert training_accuracy(model, X, y) == 1.0

    def test_xor_needs_zero_gain_split(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = ["a", "b", "b", "a"]
        model = train("tree", X, y, LearnerConfig(tree_min_leaf=1))
        assert training_accuracy(model, X, y) == 1.0

    def test_min_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = ["a"] * 5 + ["b"] * 5
        model = train("tree", X, y, LearnerConfig(tree_min_leaf=3))
        feature = model.parameters["feature"]
        left, right = model.parameters["left"], model.parameters["right"]
        dist = model.parameters["dist"]
        # count rows reaching each leaf by replaying the training data
        labels, _ = predict_batch(model, X)
        assert set(labels) == {"a", "b"}

    def test_leaf_distribution_scores(self):
        X = np.array([[0.0], [0.0], [0.0], [5.0]])
        y = ["a", "a", "b", "b"]
        model = train("tree", X, y, LearnerConfig(tree_min_leaf=1))
        _, scores = predict(model, np.array([0.0]))
        np.testing.assert_allclose(scores, [2 / 3, 1 / 3])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_consistent_data_training_accuracy(self, data_seed):
        rng = np.random.default_rng(data_seed)
        X = rng.integers(0, 4, size=(30, 3)).astype(float)
        # labels are a deterministic function of x, so the data is consistent
        y = [f"c{int(r[0] + 2 * r[1] + r[2]) % 3}" for r in X]
        if len(set(y)) < 2:
            return
        model = train("tree", X, y, LearnerConfig(tree_min_leaf=1))
        assert training_accuracy(model, X, y) == 1.0

    def test_deterministic(self):
        X, y = blobs(seed=4)
        a = train("tree", X, y)
        b = train("tree", X, y)
        np.testing.assert_array_equal(a.parameters["threshold"], b.parameters["threshold"])


class TestForest:
    def test_separated_blobs_perfect_training_vote(self):
        X, y = blobs(seed=2)
        config = LearnerConfig(forest_trees=30, forest_feature_fraction=1.0)
        model = train("forest", X, y, config, seed=9)
        labels, scores = predict_batch(model, X)
        assert labels == y
        # with both features at every split the gaps are found by every tree,
        # and a unanimous vote must read as score 1.0
        assert np.all(scores.max(axis=1) == 1.0)

    def test_training_accuracy_consistent_data(self):
        X, y = blobs(seed=12, n_per=15)
        model = train(
            "forest", X, y, LearnerConfig(forest_trees=50, tree_min_leaf=1), seed=3
        )
        assert training_accuracy(model, X, y) == 1.0

    def test_seed_determinism(self):
        X, y = blobs(seed=6)
        a = train("forest", X, y, LearnerConfig(forest_trees=10), seed=5)
        b = train("forest", X, y, LearnerConfig(forest_trees=10), seed=5)
        Xq = np.random.default_rng(0).normal(size=(10, 2)) * 6
        _, sa = predict_batch(a, Xq)
        _, sb = predict_batch(b, Xq)
        np.testing.assert_array_equal(sa, sb)

    def test_different_seeds_differ(self):
        X, y = blobs(seed=6, n_per=10)
        a = train("forest", X, y, LearnerConfig(forest_trees=5), seed=1)
        b = train("forest", X, y, LearnerConfig(forest_trees=5), seed=2)
        trees_a = a.parameters["trees"][0]["threshold"]
        trees_b = b.parameters["trees"][0]["threshold"]
        assert not (
            len(trees_a) == len(trees_b) and np.array_equal(trees_a, trees_b)
        )

    def test_feature_fraction_config(self):
        X, y = blobs(seed=8)
        model = train(
            "forest", X, y, LearnerConfig(forest_trees=5, forest_feature_fraction=1.0), seed=0
        )
        assert len(model.parameters["trees"]) == 5


class TestSvmSmo:
    def test_two_separable_points(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        y = ["a", "b"]
        model = train("svm_smo", X, y, seed=0)
        assert training_accuracy(model, X, y) == 1.0

    def test_separable_set_perfect(self):
        X, y = blobs(seed=13, n_per=10, centers=((0, 0), (6, 6)))
        model = train("svm_smo", X, y, seed=1)
        assert training_accuracy(model, X, y) == 1.0

    def test_kkt_conditions_within_tol(self):
        rng = np.random.default_rng(21)
        separable = (
            np.vstack([rng.normal((0, 0), 0.7, (10, 2)), rng.normal((5, 5), 0.7, (10, 2))]),
            ["a"] * 10 + ["b"] * 10,
        )
        # three overlapping classes plus rows repeated under another label:
        # multipliers reach C, and a repeated row pairs with its twin along a
        # direction of zero curvature
        rng = np.random.default_rng(31)
        X = np.vstack([rng.normal(c, 1.0, (12, 2)) for c in ((0, 0), (1.5, 0), (0.75, 1.2))])
        overlapping = (
            np.vstack([X, X[:4], X[12:16]]),
            ["a"] * 12 + ["b"] * 12 + ["c"] * 12 + ["b"] * 4 + ["c"] * 4,
        )
        config = LearnerConfig()
        C, tol = config.svm_C, config.svm_tol
        for X, y in (separable, overlapping):
            model = train("svm_smo", X, y, config, seed=4)
            std = (X - model.parameters["mean"]) / model.parameters["std"]
            for machine in model.parameters["machines"]:
                alpha, ybin = machine["alpha"], machine["y"]
                f = std @ machine["w"] + machine["b"]
                margins = ybin * f
                for a, m in zip(alpha, margins):
                    if a < 1e-8:
                        assert m >= 1 - tol - 1e-8
                    elif a > C - 1e-8:
                        assert m <= 1 + tol + 1e-8
                    else:
                        assert abs(m - 1) <= tol + 1e-8
        # the overlapping set, trained last, has multipliers at C in every machine
        assert all(np.any(m["alpha"] > C - 1e-8) for m in model.parameters["machines"])

    def test_step_cap_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(svm, "_MAX_STEPS", 1)
        X, y = blobs(seed=13, n_per=10, centers=((0, 0), (6, 6)))
        with pytest.raises(RuntimeError, match=r"class 0 .*KKT gap"):
            train("svm_smo", X, y)

    def test_label_invariance_under_feature_scaling(self):
        X, y = blobs(seed=17, n_per=12, centers=((0, 0), (4, 1), (1, 4)))
        model_raw = train("svm_smo", X, y, seed=2)
        model_scaled = train("svm_smo", X * 37.0, y, seed=2)
        Q = np.random.default_rng(1).normal(size=(20, 2)) * 3
        labels_raw, _ = predict_batch(model_raw, Q)
        labels_scaled, _ = predict_batch(model_scaled, Q * 37.0)
        assert labels_raw == labels_scaled

    def test_decision_values_as_scores(self):
        X, y = blobs(seed=19, n_per=8)
        model = train("svm_smo", X, y, seed=0)
        _, scores = predict(model, X[0])
        assert scores.shape == (3,)
        assert np.all(np.isfinite(scores))

    def test_seed_determinism(self):
        X, y = blobs(seed=23, n_per=10)
        a = train("svm_smo", X, y, seed=7)
        b = train("svm_smo", X, y, seed=7)
        for ma, mb in zip(a.parameters["machines"], b.parameters["machines"]):
            np.testing.assert_array_equal(ma["w"], mb["w"])
            assert ma["b"] == mb["b"]


class TestTrainValidation:
    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="two classes"):
            train("tree", X, ["a"] * 4)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            train("tree", np.zeros((4, 2)), ["a", "b"])

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            train("perceptron", np.zeros((4, 2)), ["a", "a", "b", "b"])

    def test_nan_rejected(self):
        X = np.array([[0.0], [float("nan")], [1.0], [2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            train("knn", X, ["a", "a", "b", "b"])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="knn_k"):
            train("knn", np.zeros((4, 1)), ["a", "a", "b", "b"], LearnerConfig(knn_k=0))
        with pytest.raises(ValueError, match="svm_C"):
            LearnerConfig(svm_C=-1).validate()

    def test_predict_dimension_mismatch(self):
        X, y = blobs(seed=1, n_per=5)
        for algorithm in ALGORITHMS:
            model = train(algorithm, X, y, LearnerConfig(forest_trees=3))
            with pytest.raises(ValueError, match="features"):
                predict(model, np.zeros(7))

    def test_classes_sorted(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        model = train("knn", X, ["zeta", "alpha", "zeta", "alpha"])
        assert model.classes == ("alpha", "zeta")
