"""End-to-end acceptance checks: one test per numbered release criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Everything here goes through public entry points only; the hand-computed
constants are frozen in the assertions rather than derived from the code
under test.

Known red: the k-medoids global-optimality check (criterion 9, second half)
fails by design. The seeded build plus best-improvement single-swap search
stops at genuine local optima on a small fraction of instances; that test
records the gap instead of relaxing the assertion.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import _oracle_required_action_similarity, make_task

from tasksim.cluster import category_distribution, k_medoids, purity
from tasksim.corpus import load_corpus
from tasksim.evaluation import compute_metrics, cross_validate, grid_run, stratified_folds
from tasksim.features import (
    ContentConfig,
    content_matrix,
    fit_content_model,
    gunning_fog,
)
from tasksim.learn import ALGORITHMS, LearnerConfig, predict_batch, train
from tasksim.reports import render_distribution_text
from tasksim.semsim import (
    SIMILARITY_MEASURES,
    default_wordlist,
    extract_verb_phrases,
    similarity_matrix,
)
from tasksim.synth import synthetic_corpus_text
from tasksim.wordnet import bundled_mini_wordnet_dir, load_wordnet, word_similarity


@pytest.fixture(scope="module")
def mini_wn():
    return load_wordnet(bundled_mini_wordnet_dir())


@pytest.fixture(scope="module")
def corpus300(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "synthetic300.jsonl"
    path.write_text(synthetic_corpus_text(7), encoding="utf-8")
    return load_corpus(path)


@pytest.fixture(scope="module")
def corpus200(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "synthetic200.jsonl"
    path.write_text(synthetic_corpus_text(11, categories=5, per_category=40), encoding="utf-8")
    return load_corpus(path)


@pytest.fixture(scope="module")
def corpus_small(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "synthetic24.jsonl"
    path.write_text(synthetic_corpus_text(3, categories=3, per_category=8), encoding="utf-8")
    return load_corpus(path)


# --------------------------------------------------------------------------
# 1. classification quality on the default synthetic corpus
# --------------------------------------------------------------------------

def test_criterion_01_synthetic_corpus_classification(corpus300):
    started = time.perf_counter()
    report = cross_validate(corpus300, ("content",), "svm_smo", k=10, seed=7)
    assert report.weighted_f1 >= 0.90
    grid = grid_run(
        corpus300, (("content",), ("structural",)), ALGORITHMS, k=10, seed=7
    )
    for algo in ALGORITHMS:
        content = grid.weighted_f1(("content",), algo)
        structural = grid.weighted_f1(("structural",), algo)
        assert content > structural, (algo, content, structural)
    assert time.perf_counter() - started < 120.0


# --------------------------------------------------------------------------
# 2. classifier oracles
# --------------------------------------------------------------------------

def _blobs(seed, n_per, centers=((0.0, 0.0), (8.0, 8.0), (-8.0, 8.0))):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for i, center in enumerate(centers):
        X.append(rng.normal(loc=center, scale=0.5, size=(n_per, 2)))
        y.extend([f"c{i}"] * n_per)
    return np.vstack(X), y


def test_criterion_02_classifier_oracles():
    # gaussian nb closed form: equal priors, both classes have population
    # variance 2/3, so the log-odds at x are 3*(1-x); the posterior for A
    # at x=0.8 is 1/(1+e^-0.6)
    X = np.array([[-1.0], [0.0], [1.0], [1.0], [2.0], [3.0]])
    y = ["A", "A", "A", "B", "B", "B"]
    model = train("naive_bayes", X, y)
    _, (scores,) = predict_batch(model, np.array([[0.8]]))
    assert abs(scores[0] - 1.0 / (1.0 + math.exp(-0.6))) <= 1e-9

    # k=1 nearest neighbour equals exhaustive search on 100 fresh queries
    rng = np.random.default_rng(2)
    Xt = rng.normal(size=(50, 5))
    yt = [f"c{i % 4}" for i in range(50)]
    model = train("knn", Xt, yt, LearnerConfig(knn_k=1))
    queries = rng.normal(size=(100, 5))
    labels, _ = predict_batch(model, queries)
    for q, got in zip(queries, labels):
        nearest = min(range(len(yt)), key=lambda i: float(np.linalg.norm(q - Xt[i])))
        assert got == yt[nearest]

    # smo satisfies the kkt conditions within tol on separable 20-point sets
    config = LearnerConfig()
    for data_seed in (21, 22, 23):
        rng = np.random.default_rng(data_seed)
        X2 = np.vstack(
            [rng.normal((0, 0), 0.7, (10, 2)), rng.normal((5, 5), 0.7, (10, 2))]
        )
        y2 = ["a"] * 10 + ["b"] * 10
        model = train("svm_smo", X2, y2, config, seed=4)
        std = (X2 - model.parameters["mean"]) / model.parameters["std"]
        for machine in model.parameters["machines"]:
            margins = machine["y"] * (std @ machine["w"] + machine["b"])
            for a, m in zip(machine["alpha"], margins):
                if a < 1e-8:
                    assert m >= 1 - config.svm_tol - 1e-8
                elif a > config.svm_C - 1e-8:
                    assert m <= 1 + config.svm_tol + 1e-8
                else:
                    assert abs(m - 1) <= config.svm_tol + 1e-8

    # tree and forest memorize consistent data when a leaf may hold one point
    rng = np.random.default_rng(6)
    X3 = rng.integers(0, 4, size=(30, 3)).astype(float)
    y3 = [f"c{int(r[0] + 2 * r[1] + r[2]) % 3}" for r in X3]
    tree = train("tree", X3, y3, LearnerConfig(tree_min_leaf=1))
    labels3, _ = predict_batch(tree, X3)
    assert labels3 == y3
    Xb, yb = _blobs(seed=12, n_per=15)
    forest = train(
        "forest", Xb, yb, LearnerConfig(forest_trees=50, tree_min_leaf=1), seed=3
    )
    labelsb, _ = predict_batch(forest, Xb)
    assert labelsb == yb


# --------------------------------------------------------------------------
# 3. metrics oracle
# --------------------------------------------------------------------------

def test_criterion_03_metrics_oracle(corpus_small):
    # class A: precision 3/5, recall 3/4, F1 = 2pr/(p+r) = 2/3
    report = compute_metrics(np.array([[3, 1], [2, 4]]), ("A", "B"))
    assert abs(report.per_class["A"].f1 - 2.0 / 3.0) <= 1e-9

    cells = ((("factual",), "knn"), (("structural",), "tree"),
             (("content",), "naive_bayes"))
    for sets, algo in cells:
        cv = cross_validate(corpus_small, sets, algo, k=4, seed=5)
        assert int(cv.confusion.sum()) == len(corpus_small)


# --------------------------------------------------------------------------
# 4. stratification balance
# --------------------------------------------------------------------------

def test_criterion_04_stratified_fold_balance():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(10, 61))
        n_classes = int(rng.integers(1, 5))
        labels = [f"c{v}" for v in rng.integers(0, n_classes, n)]
        for k in (2, 5, 10):
            folds = stratified_folds(labels, k, seed=int(rng.integers(1_000_000)))
            assert sorted(i for fold in folds for i in fold) == list(range(n))
            for cls in set(labels):
                counts = [sum(labels[i] == cls for i in fold) for fold in folds]
                assert max(counts) - min(counts) <= 1


# --------------------------------------------------------------------------
# 5. tf-idf oracle
# --------------------------------------------------------------------------

def test_criterion_05_tfidf_oracle(corpus_small):
    docs = [
        make_task(id="d1", title="", html="<p>click video</p>"),
        make_task(id="d2", title="", html="<p>click</p>"),
        make_task(id="d3", title="", html="<p>video offer video</p>"),
    ]
    model = fit_content_model(docs, ContentConfig(ngram_range=(1, 1), min_df=1))
    assert model.n_docs == 3
    assert model.doc_freq["click"] == 2 and model.doc_freq["offer"] == 1

    # hand computation for the document "click offer": pre-normalization,
    # click weighs 1*ln(3/2) = 0.4054651081 and offer 1*ln(3/1); the L2
    # normalization preserves their ratio
    assert abs(math.log(1.5) - 0.4054651081) <= 1e-9
    (vec,) = content_matrix(model, [make_task(id="q", title="", html="<p>click offer</p>")])
    click = vec[model.vocabulary["click"]]
    offer = vec[model.vocabulary["offer"]]
    assert abs(click / offer - 0.4054651081 / 1.0986122887) <= 1e-9

    (single,) = content_matrix(model, [docs[1]])
    assert abs(single[model.vocabulary["click"]] - 1.0) <= 1e-9

    fitted = fit_content_model(list(corpus_small))
    for row in content_matrix(fitted, corpus_small):
        norm = float(np.linalg.norm(row))
        if norm > 0:
            assert abs(norm - 1.0) <= 1e-9


# --------------------------------------------------------------------------
# 6. readability and structural-ratio invariance
# --------------------------------------------------------------------------

_SUITE_WORDS = (
    "media", "panel", "button", "survey", "banner", "detail", "margin",
    "packet", "signal", "folder", "ticket", "bundle", "corner", "filter",
    "garden", "hammer", "jacket", "kitten", "ladder", "magnet",
)


def _random_html(rng):
    """110-170 words folded into sentences, paragraphs, sometimes bullets."""
    n_words = int(rng.integers(110, 171))
    words = [
        _SUITE_WORDS[rng.integers(0, len(_SUITE_WORDS))] + str(rng.integers(0, 50))
        for _ in range(n_words)
    ]
    sentences = []
    i = 0
    while i < len(words):
        chunk = words[i : i + int(rng.integers(5, 13))]
        i += len(chunk)
        if len(chunk) > 6 and rng.random() < 0.5:
            chunk[3] += ","
        sentences.append(" ".join(chunk).capitalize() + ".")
    per_para = max(1, len(sentences) // int(rng.integers(1, 4)))
    paras = [
        "<p>" + " ".join(sentences[j : j + per_para]) + "</p>"
        for j in range(0, len(sentences), per_para)
    ]
    if rng.random() < 0.4:
        paras.append("<ul><li>First extra item.</li><li>Second extra item.</li></ul>")
    return "".join(paras)


def test_criterion_06_readability_and_duplication_invariance():
    assert gunning_fog(20, 2, 2) == 8.0

    # concatenating a text with itself doubles the two counts and leaves
    # every ratio feature unchanged
    rng = np.random.default_rng(60)
    for _ in range(50):
        html = _random_html(rng)
        va = make_task(html=html).analysis.structural
        vb = make_task(html=html + html).analysis.structural
        assert vb[0] == 2 * va[0]
        assert vb[1] == 2 * va[1]
        np.testing.assert_allclose(vb[2:], va[2:], atol=1e-9)


# --------------------------------------------------------------------------
# 7. wordnet parsing and path similarity
# --------------------------------------------------------------------------

def test_criterion_07_wordnet_parsing_and_similarity(mini_wn):
    assert mini_wn.synset_count() == 30
    assert mini_wn.edge_count() == 24
    # dog..cat shortest hypernym path has 4 edges, so similarity is 1/5;
    # the bundled miniature database reproduces the full database's value
    assert abs(word_similarity(mini_wn, "dog", "cat", "n") - 0.2) <= 1e-9

    full_dir = os.environ.get("WORDNET_DIR")
    if full_dir:
        full = load_wordnet(full_dir)
        assert abs(word_similarity(full, "dog", "cat", "n") - 0.2) <= 1e-9


# --------------------------------------------------------------------------
# 8. similarity-matrix properties
# --------------------------------------------------------------------------

def test_criterion_08_similarity_matrix_properties(corpus200, mini_wn):
    wordlist = default_wordlist()
    for measure in SIMILARITY_MEASURES:
        matrix = similarity_matrix(corpus200, measure, wn=mini_wn, wordlist=wordlist)
        values = matrix.values
        assert float(np.abs(values - values.T).max()) <= 1e-9
        assert np.all(np.diag(values) == 1.0)
        assert values.min() >= 0.0 and values.max() <= 1.0

    # self-similarity under the measure's pair definition, not the pinned
    # diagonal
    phrase_sets = [extract_verb_phrases(task, mini_wn) for task in corpus200]
    assert all(phrase_sets), "generator opens every description with a verb"
    for phrases in phrase_sets:
        assert _oracle_required_action_similarity(phrases, phrases, mini_wn) == 1.0


# --------------------------------------------------------------------------
# 9. clustering
# --------------------------------------------------------------------------

_PHRASE_VERBS = (
    "register", "join", "subscribe", "enroll", "activate",
    "install", "download", "launch", "configure", "update",
    "watch", "view", "stream", "play", "observe",
    "search", "find", "browse", "click", "visit",
    "review", "rate", "comment", "describe", "summarize",
)
_PHRASE_NOUNS = ("account", "software", "video", "website", "opinion",
                 "email", "computer", "message")
_PHRASE_FILLER = ("quickly", "carefully", "zxqvw", "blorpt", "every", "single",
                  "time", "with", "great", "attention", "frumious", "detail")


def _action_tasks(rng, n):
    """n tiny tasks whose descriptions mix verbs, nouns, and filler."""
    tasks = []
    for i in range(n):
        sents = []
        for _ in range(int(rng.integers(1, 3))):
            verb = _PHRASE_VERBS[rng.integers(0, len(_PHRASE_VERBS))]
            noun = _PHRASE_NOUNS[rng.integers(0, len(_PHRASE_NOUNS))]
            tail = " ".join(
                _PHRASE_FILLER[rng.integers(0, len(_PHRASE_FILLER))]
                for _ in range(int(rng.integers(0, 6)))
            )
            sent = f"{verb.capitalize()} the {noun} {tail}.".replace(" .", ".")
            sents.append(sent)
        tasks.append(make_task(id=f"t{i}", html="<p>" + " ".join(sents) + "</p>"))
    return tasks


def _brute_force_cost(sim, k):
    d = 1.0 - sim.values
    n = len(sim.task_ids)
    return min(
        float(d[:, list(subset)].min(axis=1).sum())
        for subset in itertools.combinations(range(n), k)
    )


def test_criterion_09_clustering_quality_and_monotonicity(corpus200, mini_wn):
    # the objective never worsens across swap passes
    rng = np.random.default_rng(7)
    traces = []
    for n in (6, 7, 8):
        sim = similarity_matrix(_action_tasks(rng, n), "required_action", wn=mini_wn)
        trace = []
        k_medoids(sim, 3, seed=0, trace=trace)
        assert all(b < a for a, b in zip(trace, trace[1:]))
        traces.append(trace)
    assert any(len(t) > 1 for t in traces)  # at least one instance swapped

    # clustering by required action recovers the generator's categories
    matrix = similarity_matrix(corpus200, "required_action", wn=mini_wn)
    clustering = k_medoids(matrix, 5, seed=7)
    labels = {task.id: task.category for task in corpus200}
    assert purity(clustering, labels) >= 0.7

    distribution = category_distribution(clustering, corpus200)
    for row in distribution.values():
        assert abs(sum(row.values()) - 1.0) <= 1e-9
    lines = render_distribution_text(clustering, corpus200).splitlines()
    categories = sorted({task.category for task in corpus200})
    assert lines[0].split() == ["cluster", "size"] + categories
    assert len(lines) == 1 + clustering.k


def test_criterion_09_pam_equals_brute_force_on_all_small_instances(mini_wn):
    # Deliberately red. The build step plus best-improvement single-swap
    # search is a local search, and on a few percent of small instances it
    # terminates at a genuine local optimum (no improving single swap
    # exists) above the global one. This check records that gap against
    # exhaustive search instead of quietly weakening the assertion.
    wordlist = default_wordlist()
    rng = np.random.default_rng(7)
    misses = []
    total = 0
    for measure in SIMILARITY_MEASURES:
        for n in range(4, 9):
            for _ in range(10):
                tasks = _action_tasks(rng, n)
                sim = similarity_matrix(tasks, measure, wn=mini_wn, wordlist=wordlist)
                for k in (2, 3):
                    total += 1
                    pam = k_medoids(sim, k, seed=0).total_dissimilarity
                    best = _brute_force_cost(sim, k)
                    if pam > best + 1e-9:
                        misses.append((measure, n, k, pam - best))
    worst = max((gap for *_, gap in misses), default=0.0)
    assert not misses, (
        f"k-medoids missed the global optimum on {len(misses)} of {total} "
        f"small instances (worst gap {worst:.4f}, smallest instance "
        f"{min(misses, key=lambda m: m[1])[:3]}); every miss is a genuine "
        "single-swap local optimum"
    )


# --------------------------------------------------------------------------
# 10. CLI determinism, repeated runs, parallel execution
# --------------------------------------------------------------------------

def test_criterion_10_cli_determinism_under_parallel_runs(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(synthetic_corpus_text(3, categories=3, per_category=6), encoding="utf-8")
    mini = str(bundled_mini_wordnet_dir())

    def commands(run_dir):
        d = str(run_dir)
        c = str(corpus)
        return {
            "synth": ["synth", "--seed", "3", "--categories", "3",
                      "--per-category", "6", "--out", f"{d}/synth.jsonl"],
            "ingest": ["ingest", "--corpus", c, "--out", f"{d}/ingest.txt"],
            "cv": ["cv", "--corpus", c, "--sets", "content", "--algo", "knn",
                   "--folds", "3", "--out", f"{d}/cv.txt"],
            "grid": ["grid", "--corpus", c, "--sets", "factual,structural",
                     "--algo", "knn,tree", "--folds", "3", "--format", "csv",
                     "--out", f"{d}/grid.csv"],
            "sim": ["sim", "--corpus", c, "--measure", "comprehensibility",
                    "--format", "csv", "--out", f"{d}/sim.csv"],
            "cluster": ["cluster", "--corpus", c, "--measure", "required_action",
                        "--wordnet", mini, "--k", "3", "--out", f"{d}/cluster.txt"],
            "report": ["report", "--corpus", c, "--folds", "3", "--k", "3",
                       "--wordnet", mini, "--out", f"{d}/report"],
        }

    runs = []
    for phase, parallel in (("run1", False), ("run2", True)):
        run_dir = tmp_path / phase
        run_dir.mkdir()
        cmds = commands(run_dir)
        if parallel:
            procs = {
                name: subprocess.Popen(
                    [sys.executable, "-m", "tasksim.cli", *argv],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
                for name, argv in cmds.items()
            }
            for name, proc in procs.items():
                _, err = proc.communicate()
                assert proc.returncode == 0, (name, err)
        else:
            for name, argv in cmds.items():
                proc = subprocess.run(
                    [sys.executable, "-m", "tasksim.cli", *argv],
                    capture_output=True, text=True,
                )
                assert proc.returncode == 0, (name, proc.stderr)
        outputs = {
            str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()
        }
        runs.append(outputs)

    first, second = runs
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
