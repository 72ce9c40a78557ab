"""Tests for the five native classifiers: closed-form oracles, brute-force
agreement, convergence conditions, and determinism."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tasksim.corpus import load_corpus
from tasksim.evaluation import stratified_folds
from tasksim.features import FeatureMatrix, combine_features, fit_extractor
from tasksim.learn import (
    ALGORITHMS,
    LearnerConfig,
    predict_batch,
    train,
)
from tasksim.learn import forest, naive_bayes, svm, tree
from tasksim.synth import synthetic_corpus_text


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


# The depth-first builder that the level-wise grower replaced, kept as the
# reference `tree` must reproduce bit for bit: one node at a time, every
# column, candidate splits scored in chunks of columns.

_ORACLE_CHUNK = 512


def _oracle_xlog2x(a):
    out = np.zeros_like(a, dtype=float)
    np.log2(a, out=out, where=a > 0)
    return a * out


def oracle_best_split(X, onehot, rows, min_leaf, columns):
    n = rows.size
    if n < 2 * min_leaf:
        return None
    hot = onehot[rows]
    sizes = np.arange(1, n, dtype=float)
    parent_counts = hot.sum(axis=0)
    parent_entropy = np.log2(float(n)) - _oracle_xlog2x(parent_counts).sum() / n

    best = None  # (ratio, feature, threshold)
    for start in range(0, columns.size, _ORACLE_CHUNK):
        cols = columns[start : start + _ORACLE_CHUNK]
        values = X[np.ix_(rows, cols)]
        order = np.argsort(values, axis=0, kind="stable")
        sorted_values = np.take_along_axis(values, order, axis=0)
        cum = np.cumsum(hot[order], axis=0)  # (n, m, k)

        left_counts = cum[:-1]
        right_counts = parent_counts[None, None, :] - left_counts
        left_sizes = sizes[:, None]
        right_sizes = n - left_sizes
        h_left = np.log2(left_sizes) - _oracle_xlog2x(left_counts).sum(axis=2) / left_sizes
        h_right = np.log2(right_sizes) - _oracle_xlog2x(right_counts).sum(axis=2) / right_sizes
        gain = parent_entropy - (left_sizes * h_left + right_sizes * h_right) / n
        np.maximum(gain, 0.0, out=gain)
        q = left_sizes / n
        split_info = -(_oracle_xlog2x(q) + _oracle_xlog2x(1.0 - q))
        ratio = gain / split_info

        valid = (sorted_values[1:] > sorted_values[:-1]) & (
            (left_sizes >= min_leaf) & (right_sizes >= min_leaf)
        )
        ratio[~valid] = -np.inf
        if not np.any(valid):
            continue
        flat = np.argmax(ratio.T)
        ci, pi = divmod(flat, n - 1)
        left_value = float(sorted_values[pi, ci])
        right_value = float(sorted_values[pi + 1, ci])
        midpoint = (left_value + right_value) / 2.0
        if not left_value <= midpoint < right_value:
            midpoint = left_value
        cand = (float(ratio[pi, ci]), int(cols[ci]), midpoint)
        if best is None or (cand[0], -cand[1], -cand[2]) > (best[0], -best[1], -best[2]):
            best = cand
    if best is None:
        return None
    return best[1], best[2]


class _OracleBuilder:
    def __init__(self, X, y_idx, n_classes, min_leaf):
        self.X = X
        self.onehot = np.zeros((X.shape[0], n_classes))
        self.onehot[np.arange(X.shape[0]), y_idx] = 1.0
        self.min_leaf = min_leaf
        self.all_columns = np.arange(X.shape[1])
        self.feature, self.threshold, self.left, self.right, self.dist = [], [], [], [], []

    def build(self, rows):
        counts = self.onehot[rows].sum(axis=0)
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.dist.append(counts / rows.size)
        if counts.max() == rows.size:  # pure
            return node
        found = oracle_best_split(self.X, self.onehot, rows, self.min_leaf, self.all_columns)
        if found is None:
            return node
        j, thr = found
        mask = self.X[rows, j] <= thr
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self.build(rows[mask])
        self.right[node] = self.build(rows[~mask])
        return node


def oracle_tree(X, y_idx, n_classes, min_leaf):
    builder = _OracleBuilder(X, y_idx, n_classes, min_leaf)
    builder.build(np.arange(X.shape[0]))
    return {
        "feature": np.array(builder.feature, dtype=np.intp),
        "threshold": np.array(builder.threshold),
        "left": np.array(builder.left, dtype=np.intp),
        "right": np.array(builder.right, dtype=np.intp),
        "dist": np.vstack(builder.dist),
        "n_features": X.shape[1],
    }


TABLE_KEYS = {"feature", "threshold", "left", "right", "dist", "n_trees", "n_features"}


def preorder(table, root):
    """The nodes of the tree at `root`, depth-first, left subtree first."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if table["feature"][node] >= 0:
            stack.extend((table["right"][node], table["left"][node]))
    return order


def assert_same_tree(table, root, expected):
    """The tree at `root` of a node table is the tree at node 0 of
    `expected`, node for node in preorder, and every node of the table
    hangs under one of its roots."""
    assert table.keys() - {"n_classes"} == TABLE_KEYS
    assert table["n_features"] == expected["n_features"]
    for key in ("feature", "threshold", "left", "right", "dist"):
        assert table[key].dtype == expected[key].dtype, key
    nodes, ref_nodes = preorder(table, root), preorder(expected, 0)
    assert len(nodes) == len(ref_nodes)
    for node, ref in zip(nodes, ref_nodes):
        assert table["feature"][node] == expected["feature"][ref]
        assert table["threshold"][node] == expected["threshold"][ref]
        assert np.array_equal(table["dist"][node], expected["dist"][ref])
        if expected["feature"][ref] >= 0:
            assert table["left"][node] >= 0
            assert table["right"][node] == table["left"][node] + 1
        else:
            assert table["left"][node] == table["right"][node] == -1
    reached = np.zeros(table["feature"].size, dtype=bool)
    for r in range(table["n_trees"]):
        reached[preorder(table, r)] = True
    assert reached.all(), "unreachable nodes"


def leaf_counts(params, X):
    """Training rows reaching each node, replayed one row at a time."""
    reached = np.zeros(len(params["feature"]), dtype=int)
    for row in X:
        node = 0
        while params["feature"][node] >= 0:
            go_left = row[params["feature"][node]] <= params["threshold"][node]
            node = params["left"][node] if go_left else params["right"][node]
        reached[node] += 1
    return reached


FEATURE_SET_CASES = [
    ("factual",), ("content",), ("structural",), ("semantic",),
    ("factual", "content", "structural", "semantic"),
]


@pytest.fixture(scope="module")
def seeded_folds(tmp_path_factory):
    """Training rows of fold 0 of a seeded 100-task corpus, per feature set."""
    path = tmp_path_factory.mktemp("learn") / "synthetic100.jsonl"
    path.write_text(synthetic_corpus_text(7, categories=5, per_category=20), encoding="utf-8")
    tasks = list(load_corpus(path))
    labels = [task.category for task in tasks]
    classes = sorted(set(labels))
    held_out = set(stratified_folds(labels, 5, 7)[0])
    train_tasks = [t for i, t in enumerate(tasks) if i not in held_out]
    y_idx = np.array([classes.index(t.category) for t in train_tasks])
    folds = {}
    for sets in FEATURE_SET_CASES:
        extractors = [fit_extractor(name, train_tasks) for name in sets]
        X = combine_features([ext.matrix(train_tasks) for ext in extractors]).rows
        folds[sets] = (X, y_idx, len(classes))
    return folds


@pytest.fixture(scope="module")
def structural_fold_300(tmp_path_factory):
    """Training rows of fold 0 of a seeded 300-task corpus, structural set."""
    path = tmp_path_factory.mktemp("learn") / "synthetic300.jsonl"
    path.write_text(synthetic_corpus_text(7, categories=5, per_category=60), encoding="utf-8")
    tasks = list(load_corpus(path))
    labels = [task.category for task in tasks]
    classes = sorted(set(labels))
    held_out = set(stratified_folds(labels, 10, 7)[0])
    train_tasks = [t for i, t in enumerate(tasks) if i not in held_out]
    y_idx = np.array([classes.index(t.category) for t in train_tasks])
    X = fit_extractor("structural", train_tasks).matrix(train_tasks).rows
    return X, y_idx, len(classes)


class TestNaiveBayes:
    def test_gaussian_posterior_closed_form(self):
        X = np.array([[-1.0], [0.0], [1.0], [1.0], [2.0], [3.0]])
        y = ["A", "A", "A", "B", "B", "B"]
        model = train("naive_bayes", X, y)
        # equal priors, both classes have population variance 2/3:
        # log-odds at x = 3*(1-x); at 0.8 the posterior for A is 1/(1+e^-0.6)
        _, (scores,) = predict_batch(model, np.array([[0.8]]))
        assert scores[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.6)), abs=1e-9)

    def test_widely_separated_classes(self):
        rng = np.random.default_rng(3)
        X = np.concatenate([rng.normal(0, 1, 30), rng.normal(10, 1, 30)]).reshape(-1, 1)
        y = ["A"] * 30 + ["B"] * 30
        model = train("naive_bayes", X, y)
        (label,), _ = predict_batch(model, np.array([[1.0]]))
        assert label == "A"

    def test_posteriors_sum_to_one(self):
        X, y = blobs()
        model = train("naive_bayes", X, y)
        _, scores = predict_batch(model, X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_multinomial_on_content_provenance(self):
        rows = np.abs(np.random.default_rng(0).normal(size=(10, 4)))
        fm = FeatureMatrix(rows, frozenset({"content"}))
        y = ["x"] * 5 + ["y"] * 5
        model = train("naive_bayes", fm, y)
        assert model.parameters["event_model"] == "multinomial"

    def test_gaussian_on_other_provenance(self):
        rows = np.random.default_rng(0).normal(size=(10, 4))
        fm = FeatureMatrix(rows, frozenset({"structural"}))
        model = train("naive_bayes", fm, ["x"] * 5 + ["y"] * 5)
        assert model.parameters["event_model"] == "gaussian"
        combined = FeatureMatrix(np.abs(rows[:, :2]), frozenset({"content", "factual"}))
        model = train("naive_bayes", combined, ["x"] * 5 + ["y"] * 5)
        assert model.parameters["event_model"] == "gaussian"

    def test_variance_floor_handles_constant_features(self):
        X = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 1.0], [1.0, 2.0]])
        model = train("naive_bayes", X, ["a", "a", "b", "b"])
        _, (scores,) = predict_batch(model, np.array([[1.0, 5.5]]))
        assert np.all(np.isfinite(scores))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 40),
        n_cols=st.integers(0, 40),
        n_classes=st.integers(1, 4),
    )
    @example(seed=0, n_rows=40, n_cols=1, n_classes=2)
    def test_multinomial_totals_add_rows_as_add_at_does(self, seed, n_rows, n_cols, n_classes):
        rng = np.random.default_rng(seed)
        rows = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.7)
        # every class has a member, as in `train`; one has exactly one
        _, y_idx = np.unique(rng.integers(0, n_classes, n_rows - 1), return_inverse=True)
        single = y_idx.max(initial=-1) + 1
        y_idx = np.insert(y_idx, rng.integers(0, n_rows), single)
        params = naive_bayes.fit(rows, y_idx, single + 1, frozenset({"content"}))
        totals = np.zeros((single + 1, n_cols))
        np.add.at(totals, y_idx, rows)
        smoothed = totals + 1.0
        expected = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        assert np.array_equal(params["feature_log_prob"], expected)


class TestKnn:
    def test_k1_training_row_exact(self):
        X, y = blobs(seed=1)
        model = train("knn", X, y, LearnerConfig(knn_k=1))
        (label,), (scores,) = predict_batch(model, X[7][None])
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
        _, (scores,) = predict_batch(model, np.array([[0.0]]))
        np.testing.assert_allclose(scores, [2 / 3, 1 / 3])

    def test_distance_tie_resolved_by_training_index(self):
        X = np.array([[1.0], [-1.0]])
        y = ["b", "a"]
        model = train("knn", X, y, LearnerConfig(knn_k=1))
        (label,), _ = predict_batch(model, np.array([[0.0]]))
        assert label == "b"  # equal distance: earlier training row wins

    def test_score_tie_broken_by_class_order(self):
        X = np.array([[0.0], [1.0]])
        y = ["z", "a"]
        model = train("knn", X, y, LearnerConfig(knn_k=2))
        (label,), (scores,) = predict_batch(model, np.array([[0.5]]))
        assert scores[0] == scores[1] == 0.5
        assert label == "a"  # classes sorted; first max wins


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_distances_are_refused(self):
        # 1e200 squared overflows: the neighbour order would be arbitrary
        X = np.array([[0.0, 1.0], [1e200, 0.0], [2.0, 1.0], [3.0, 0.0]])
        model = train("knn", X, ["a", "a", "b", "b"], LearnerConfig(knn_k=1))
        with pytest.raises(FloatingPointError, match="non-finite prediction scores"):
            predict_batch(model, np.array([[0.0, 1.0]]))
        with pytest.raises(FloatingPointError):
            predict_batch(model, np.array([[1e200, 1.0]]))

    def test_large_finite_distances_keep_their_order(self):
        # squares near 1e300 stay finite and rank as before
        X = np.array([[1e150], [-2e150], [3e149]])
        model = train("knn", X, ["a", "b", "c"], LearnerConfig(knn_k=1))
        labels, _ = predict_batch(model, np.array([[0.0], [-1.5e150], [5e149]]))
        assert labels == ["c", "b", "c"]


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
        reached = leaf_counts(model.parameters, X)
        leaves = feature < 0
        assert np.all(reached[leaves] >= 3)
        assert reached.sum() == len(y)
        assert np.array_equal(left[~leaves] >= 0, right[~leaves] >= 0)
        np.testing.assert_allclose(dist.sum(axis=1), 1.0)

    def test_min_leaf_respected_on_tied_data(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 3, size=(60, 3)).astype(float)
        y = [f"c{v}" for v in rng.integers(0, 3, size=60)]
        for min_leaf in (2, 3, 5):
            params = train("tree", X, y, LearnerConfig(tree_min_leaf=min_leaf)).parameters
            reached = leaf_counts(params, X)
            assert np.all(reached[params["feature"] < 0] >= min_leaf)
            assert np.all(reached[params["feature"] >= 0] == 0)

    def test_leaf_distribution_scores(self):
        X = np.array([[0.0], [0.0], [0.0], [5.0]])
        y = ["a", "a", "b", "b"]
        model = train("tree", X, y, LearnerConfig(tree_min_leaf=1))
        _, (scores,) = predict_batch(model, np.array([[0.0]]))
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

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 40),
        n_cols=st.integers(1, 6),
        n_classes=st.integers(2, 4),
        min_leaf=st.integers(1, 3),
        levels=st.integers(1, 5),
        duplicated=st.booleans(),
        adjacent=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_depth_first_oracle(
        self, seed, n_rows, n_cols, n_classes, min_leaf, levels, duplicated, adjacent
    ):
        # few distinct integer values: many tied values and tied gain ratios
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n_rows, n_cols)).astype(float)
        if duplicated:
            X[n_rows // 2 :] = X[: n_rows - n_rows // 2]
        if adjacent:
            # consecutive floats, whose midpoints can round onto the right value
            X = 1.0 + X * np.finfo(float).eps
        y_idx = rng.integers(0, n_classes, size=n_rows)
        params = tree.fit(X, y_idx, n_classes, LearnerConfig(tree_min_leaf=min_leaf))
        assert_same_tree(params, 0, oracle_tree(X, y_idx, n_classes, min_leaf))

    @pytest.mark.parametrize("sets", FEATURE_SET_CASES, ids="+".join)
    @pytest.mark.parametrize("min_leaf", [1, 2])
    def test_feature_set_fold_matches_oracle(self, seeded_folds, sets, min_leaf):
        X, y_idx, n_classes = seeded_folds[sets]
        params = tree.fit(X, y_idx, n_classes, LearnerConfig(tree_min_leaf=min_leaf))
        assert_same_tree(params, 0, oracle_tree(X, y_idx, n_classes, min_leaf))


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
        trees_a = a.parameters["threshold"][preorder(a.parameters, 0)]
        trees_b = b.parameters["threshold"][preorder(b.parameters, 0)]
        assert not (
            len(trees_a) == len(trees_b) and np.array_equal(trees_a, trees_b)
        )

    def test_feature_fraction_config(self):
        X, y = blobs(seed=8)
        model = train(
            "forest", X, y, LearnerConfig(forest_trees=5, forest_feature_fraction=1.0), seed=0
        )
        assert model.parameters["n_trees"] == 5

    def test_full_fraction_trees_are_bootstrap_trees(self):
        # with every column a candidate, tree t is the tree grown on its
        # bootstrap rows, which is also what the depth-first build made
        rng = np.random.default_rng(21)
        X = rng.integers(0, 4, size=(30, 4)).astype(float)
        y_idx = rng.integers(0, 3, size=30)
        y = [f"c{i}" for i in y_idx]
        config = LearnerConfig(forest_trees=12, forest_feature_fraction=1.0)
        model = train("forest", X, y, config, seed=40)
        table = model.parameters
        assert table["n_trees"] == 12
        for t, sample in enumerate(forest.bootstraps(40, 12, 30)):
            expected = tree.fit(X[sample], y_idx[sample], 3, config)
            assert_same_tree(table, t, expected)
            assert_same_tree(table, t, oracle_tree(X[sample], y_idx[sample], 3, 2))

    def test_trees_match_oracle_with_keys_either_side_of_16_bits(self, monkeypatch):
        # 300 rows: a level's sort keys fit 16 bits while it has few (node,
        # column) pairs, and need 32 once it has more than 2**16 / 300
        narrowed = []
        narrow = tree._narrow

        def recorded(key, bound):
            out = narrow(key, bound)
            narrowed.append(out.dtype)
            return out

        monkeypatch.setattr(tree, "_narrow", recorded)
        rng = np.random.default_rng(5)
        X = rng.integers(0, 8, size=(300, 5)).astype(float)
        y_idx = rng.integers(0, 3, size=300)
        y = [f"c{i}" for i in y_idx]
        config = LearnerConfig(forest_trees=6, forest_feature_fraction=1.0, tree_min_leaf=1)
        single = tree.fit(X, y_idx, 3, config)
        assert_same_tree(single, 0, oracle_tree(X, y_idx, 3, 1))
        table = train("forest", X, y, config, seed=8).parameters
        for t, sample in enumerate(forest.bootstraps(8, 6, 300)):
            assert_same_tree(table, t, oracle_tree(X[sample], y_idx[sample], 3, 1))
        assert {np.dtype(np.uint16), np.dtype(np.uint32)} <= set(narrowed)

    def test_table_is_numbered_level_by_level(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 4, size=(50, 5)).astype(float)
        y = [f"c{i}" for i in rng.integers(0, 3, size=50)]
        table = train("forest", X, y, LearnerConfig(forest_trees=7), seed=2).parameters
        feature, left, right = table["feature"], table["left"], table["right"]
        split = feature >= 0
        assert np.array_equal(left < 0, ~split) and np.array_equal(right < 0, ~split)
        # each depth's children follow it, in the order of their parents
        level = np.arange(table["n_trees"])
        numbered = level.size
        while level.size:
            inner = level[split[level]]
            children = numbered + np.arange(2 * inner.size)
            assert np.array_equal(left[inner], children[0::2])
            assert np.array_equal(right[inner], children[1::2])
            level, numbered = children, numbered + children.size
        assert numbered == feature.size

    def test_forest_grows_in_blocks_not_nodes(self, monkeypatch):
        # per-node work would call the block kernel about once per split node
        calls = []
        kernel = tree._score_block

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(tree, "_score_block", counted)
        rng = np.random.default_rng(0)
        X = rng.integers(0, 6, size=(40, 9)).astype(float)
        y = [f"c{i}" for i in rng.integers(0, 5, size=40)]
        model = train("forest", X, y, LearnerConfig(forest_trees=100), seed=0)
        split_nodes = int((model.parameters["feature"] >= 0).sum())
        assert split_nodes > 500
        assert 0 < len(calls) < split_nodes / 10

    @staticmethod
    def column_rule(monkeypatch, n_features, m, n_trees=10, seed=3):
        """The `columns(node_tree)` callback a forest fit hands the grower,
        for a fit whose nodes draw m of n_features columns."""
        captured = {}

        def grow(X, y_idx, n_classes, min_leaf, roots, columns):
            captured["columns"] = columns
            return {}

        monkeypatch.setattr(forest.tree, "grow", grow)
        config = LearnerConfig(forest_trees=n_trees, forest_feature_fraction=m / n_features)
        forest.fit(np.zeros((2, n_features)), np.array([0, 1]), 2, config, seed)
        return captured["columns"]

    @pytest.mark.parametrize("n_features, m", [(9, 3), (50, 7), (9586, 98)])
    def test_node_columns_are_distinct_sorted_and_uniform(self, monkeypatch, n_features, m):
        columns = self.column_rule(monkeypatch, n_features, m)
        # four depths of 5000 open nodes each, spread unevenly over 10 trees
        depths = [np.repeat(np.arange(10), np.bincount(np.arange(5000) * d % 10, minlength=10))
                  for d in (1, 3, 7, 1)]
        drawn = np.vstack([columns(node_tree) for node_tree in depths])
        assert drawn.shape == (20000, m)
        assert drawn.min() >= 0 and drawn.max() < n_features
        assert np.all(np.diff(drawn, axis=1) > 0)  # sorted, hence distinct
        # each column is a node's candidate with probability m / F
        p = m / n_features
        mean, sd = 20000 * p, math.sqrt(20000 * p * (1 - p))
        counts = np.bincount(drawn.ravel(), minlength=n_features)
        assert np.all(np.abs(counts - mean) <= 6 * sd)

    def test_fewer_trees_are_the_first_trees_of_more(self):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 5, size=(60, 9)).astype(float)
        y = [f"c{i}" for i in rng.integers(0, 3, size=60)]
        five = train("forest", X, y, LearnerConfig(forest_trees=5), seed=12).parameters
        ten = train("forest", X, y, LearnerConfig(forest_trees=10), seed=12).parameters
        assert five["n_trees"] == 5
        for t in range(5):
            nodes, ref_nodes = preorder(five, t), preorder(ten, t)
            assert len(nodes) == len(ref_nodes) > 1
            for key in ("feature", "threshold", "dist"):
                assert np.array_equal(five[key][nodes], ten[key][ref_nodes]), key

    @pytest.mark.filterwarnings("error")
    def test_any_non_negative_seed_fits_without_a_warning(self):
        X, y = blobs(seed=6, n_per=10)
        config = LearnerConfig(forest_trees=5)
        fits = {
            seed: train("forest", X, y, config, seed=seed).parameters
            for seed in (0, 2**64 - 1, 2**70, 2**70 % 2**64)
        }
        # the seed's high word counts: 2**70 and 0 agree in the low one
        assert not np.array_equal(forest.bootstraps(2**70, 5, 30), forest.bootstraps(0, 5, 30))
        assert not all(
            np.array_equal(fits[2**70][key], fits[0][key])
            for key in ("feature", "threshold", "left")
        )
        with pytest.raises(ValueError, match="non-negative"):
            train("forest", X, y, config, seed=-1)


# The per-tree router that `tree.leaf_distributions` replaced, and the
# forest vote built on it, kept as the reference prediction must match
# exactly.

def oracle_leaf_distributions(params, rows, root=0):
    feature, threshold = params["feature"], params["threshold"]
    left, right = params["left"], params["right"]
    node = np.full(rows.shape[0], root, dtype=np.intp)
    while True:
        feat = feature[node]
        active = feat >= 0
        if not np.any(active):
            break
        value = rows[np.arange(rows.shape[0]), np.maximum(feat, 0)]
        go_left = value <= threshold[node]
        node = np.where(active, np.where(go_left, left[node], right[node]), node)
    return params["dist"][node]


def oracle_forest_scores(params, rows):
    votes = np.zeros((rows.shape[0], params["n_classes"]))
    for root in range(params["n_trees"]):
        picks = np.argmax(oracle_leaf_distributions(params, rows, root), axis=1)
        votes[np.arange(rows.shape[0]), picks] += 1.0
    return votes / params["n_trees"]


class TestRouting:
    @pytest.mark.parametrize("seed", range(6))
    def test_scores_match_per_tree_router(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(40, 6)).astype(float)
        X = np.vstack([X, X[:8]])  # duplicated training rows
        y_idx = rng.integers(0, 3, size=X.shape[0])
        y = [f"c{i}" for i in y_idx]
        config = LearnerConfig(forest_trees=25, tree_min_leaf=1 + seed % 3)
        queries = rng.integers(-1, 6, size=(30, 6)) + rng.choice([0.0, 0.5], size=(30, 6))
        rows = np.vstack([queries, queries[:5], X])  # duplicated query rows
        params = train("forest", X, y, config, seed=seed).parameters
        assert np.array_equal(forest.scores(params, rows), oracle_forest_scores(params, rows))
        # a tree grown on one class is a single leaf, here among 24 others
        roots = [rng.integers(0, X.shape[0], size=X.shape[0]) for _ in range(24)]
        roots.insert(10, np.flatnonzero(y_idx == 0))
        params = dict(
            tree.grow(
                X, y_idx, 3, config.tree_min_leaf, roots,
                lambda node_tree: np.sort(rng.random((node_tree.size, 6)).argsort(axis=1)[:, :3],
                                          axis=1),
            ),
            n_classes=3,
        )
        assert params["feature"][10] == -1
        assert np.array_equal(forest.scores(params, rows), oracle_forest_scores(params, rows))
        distributions = tree.leaf_distributions(params, rows)
        for t in range(8, 12):
            assert np.array_equal(distributions[t], oracle_leaf_distributions(params, rows, t))
        single = train("tree", X, y, config).parameters
        assert np.array_equal(tree.scores(single, rows), oracle_leaf_distributions(single, rows))


# The SMO loop that rebuilt its masks, gradient view and curvature row with
# whole-vector numpy calls at every step, kept as the reference `svm.fit`
# must reproduce bit for bit and step for step. The step cap is left out.


def oracle_solve(K, y, C, tol):
    n = len(y)
    diag = np.diag(K)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Q alpha - e with Q = y y' * K
    pos = y > 0
    steps = 0
    while True:
        viol = -y * grad
        up = np.where(pos, alpha < C, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < C)
        i = np.argmax(np.where(up, viol, -np.inf))
        m, M = viol[i], viol[low].min()
        if m - M < tol:
            break
        steps += 1
        gain = m - viol
        curv = np.maximum(diag[i] + diag - 2.0 * K[i], svm._TAU)
        j = np.argmax(np.where(low & (gain > 0.0), gain**2 / curv, -np.inf))
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        lam = min(gain[j] / curv[j], room_i, room_j)
        alpha[i] = (C if pos[i] else 0.0) if lam == room_i else alpha[i] + y[i] * lam
        alpha[j] = (0.0 if pos[j] else C) if lam == room_j else alpha[j] - y[j] * lam
        grad += y * (lam * (K[i] - K[j]))
    yg = y * grad
    free = (alpha > 0.0) & (alpha < C)
    rho = yg[free].mean() if free.any() else -(m + M) / 2.0
    return alpha, -rho, steps


def assert_svm_matches_oracle(rows, y_idx, n_classes, config):
    """Fit through svm.fit and through the oracle; every machine must agree."""
    params = svm.fit(rows, y_idx, n_classes, config)
    std = rows.std(axis=0)
    standardized = (rows - rows.mean(axis=0)) / np.where(std > 0.0, std, 1.0)
    gram = standardized @ standardized.T
    for c, machine in enumerate(params["machines"]):
        y = np.where(y_idx == c, 1.0, -1.0)
        alpha, b, steps = oracle_solve(gram, y, config.svm_C, config.svm_tol)
        assert np.array_equal(machine["alpha"], alpha)
        assert machine["b"] == b
        assert np.array_equal(machine["w"], (alpha * y) @ standardized)
        assert machine["steps"] == steps
        assert machine["kkt_gap"] < config.svm_tol
    return params


class TestSvmSmo:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(5, 40),
        n_classes=st.integers(2, 5),
        wide=st.booleans(),
        twins=st.integers(0, 6),
        C=st.sampled_from([0.05, 1.0, 20.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, seed, n_rows, n_classes, wide, twins, C):
        rng = np.random.default_rng(seed)
        if wide:
            # tf-idf-like: many columns, most cells zero
            X = rng.exponential(1.0, size=(n_rows, 60)) * (rng.random((n_rows, 60)) < 0.08)
        else:
            X = rng.normal(size=(n_rows, 3)) + rng.integers(0, 3, size=(n_rows, 1))
        y_idx = np.resize(np.arange(n_classes), n_rows)
        rng.shuffle(y_idx)
        # rows repeated under another label: zero-curvature pairs, floored at _TAU
        copies = rng.integers(0, n_rows, size=twins)
        X = np.vstack([X, X[copies]])
        y_idx = np.concatenate([y_idx, (y_idx[copies] + 1) % n_classes])
        config = LearnerConfig(svm_C=C)
        assert_svm_matches_oracle(X, y_idx, n_classes, config)

    def test_matches_oracle_on_bounded_and_flat_pairs(self):
        # three overlapping classes, each with rows repeated under another label
        rng = np.random.default_rng(31)
        X = np.vstack([rng.normal(c, 1.0, (12, 2)) for c in ((0, 0), (1.5, 0), (0.75, 1.2))])
        X = np.vstack([X, X[:4], X[12:16], X[24:28]])
        y_idx = np.array([0] * 12 + [1] * 12 + [2] * 12 + [1] * 4 + [2] * 4 + [0] * 4)
        config = LearnerConfig()
        params = assert_svm_matches_oracle(X, y_idx, 3, config)
        assert all(np.any(m["alpha"] == config.svm_C) for m in params["machines"])
        std = (X - X.mean(axis=0)) / X.std(axis=0)
        assert np.sum(svm._curvature(std @ std.T) == svm._TAU) > len(X)

    @pytest.mark.parametrize("sets", FEATURE_SET_CASES, ids="+".join)
    def test_feature_set_fold_matches_oracle(self, seeded_folds, sets):
        X, y_idx, n_classes = seeded_folds[sets]
        assert_svm_matches_oracle(X, y_idx, n_classes, LearnerConfig())

    @pytest.mark.parametrize("C", [1.0, 0.05])
    def test_long_structural_fold_matches_oracle(self, structural_fold_300, C):
        # thousands of steps, with multipliers leaving and re-entering their
        # bounds, where the other oracle cases stop at 46 rows
        X, y_idx, n_classes = structural_fold_300
        params = assert_svm_matches_oracle(X, y_idx, n_classes, LearnerConfig(svm_C=C))
        assert sum(m["steps"] for m in params["machines"]) > 1000
        for machine in params["machines"]:
            assert np.any(machine["alpha"] == C)
            assert np.any((machine["alpha"] > 0.0) & (machine["alpha"] < C))

    def test_one_class_machines_take_no_step(self):
        # a class absent from the rows, or the only class: I_up or I_low is
        # empty, so the machine stops at once with a gap of 0
        X = np.random.default_rng(2).normal(size=(12, 3))
        params = assert_svm_matches_oracle(X, np.resize([0, 1], 12), 3, LearnerConfig())
        assert params["machines"][2]["steps"] == 0
        (machine,) = svm.fit(X, np.zeros(12, dtype=int), 1, LearnerConfig())["machines"]
        assert (machine["steps"], machine["kkt_gap"], machine["b"]) == (0, 0.0, 1.0)
        assert not machine["alpha"].any()

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_column_scale_is_refused(self):
        # the standard deviation of 1e200 and 0 overflows; dividing by it
        # would zero the column without a word
        X = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        with pytest.raises(FloatingPointError, match="standard deviation overflows"):
            train("svm_smo", X, ["a", "a", "b", "b"])

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
        _, (scores,) = predict_batch(model, X[0][None])
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
                predict_batch(model, np.zeros((1, 7)))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_predict_refuses_a_non_finite_row(self, algorithm):
        # NaN fails every split test, so a tree would send it right, to 'b'
        model = train(
            algorithm, np.array([[0.0], [1.0], [2.0], [3.0]]), ["a", "a", "b", "b"],
            LearnerConfig(forest_trees=3),
        )
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                predict_batch(model, np.array([[bad]]))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rows_with_no_column(self, algorithm):
        # as in a content fold whose vocabulary is empty
        model = train(algorithm, np.zeros((6, 0)), ["a", "b"] * 3, LearnerConfig(forest_trees=3))
        labels, scores = predict_batch(model, np.zeros((4, 0)))
        assert set(labels) <= {"a", "b"}
        assert scores.shape == (4, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_scores_are_an_arithmetic_error(self):
        # the Gaussian variance overflows, so every class scores NaN
        X = np.array([[1e200], [0.0], [1.0], [2.0]])
        model = train("naive_bayes", X, ["a", "a", "b", "b"])
        with pytest.raises(FloatingPointError, match="non-finite prediction scores"):
            predict_batch(model, np.array([[1.0]]))

    def test_classes_sorted(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        model = train("knn", X, ["zeta", "alpha", "zeta", "alpha"])
        assert model.classes == ("alpha", "zeta")
