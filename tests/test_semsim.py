"""Verb phrases, the two similarity measures, and matrix invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task
from tasksim import features, semsim
from tasksim.cli import generate_synthetic_corpus
from tasksim.corpus import load_corpus
from tasksim.semsim import (
    COMPREHENSIBILITY_FEATURE_NAMES,
    SIMILARITY_MEASURES,
    ComprehensibilityVector,
    CorpusStats,
    SimilarityMatrix,
    VerbPhrase,
    comprehensibility_similarity,
    comprehensibility_stats,
    comprehensibility_vector,
    default_wordlist,
    extract_verb_phrases,
    phrase_similarity,
    presence_document_frequencies,
    required_action_similarity,
    similarity_matrix,
    unusual_word_ratio,
)
from tasksim.wordnet import bundled_mini_wordnet_dir, load_wordnet


@pytest.fixture(scope="module")
def wn():
    return load_wordnet(bundled_mini_wordnet_dir())


def text_task(description, title="", id="t1", category="misc"):
    html = f"<p>{description}</p>" if description else ""
    return make_task(id=id, title=title, html=html, category=category)


# ---------------------------------------------------------------- phrases


def test_sign_up_and_confirm(wn):
    phrases = extract_verb_phrases(
        text_task("Sign up and confirm your email."), wn
    )
    assert [p.verb_lemma for p in phrases] == ["sign", "confirm"]
    assert phrases[0].argument_lemmas == ()
    assert phrases[1].argument_lemmas == ("email",)
    assert phrases[0].surface.startswith("Sign")


def test_empty_text_has_no_phrases(wn):
    assert extract_verb_phrases(text_task(""), wn) == []


def test_declarative_heading_has_no_phrases(wn):
    assert extract_verb_phrases(text_task("Quality assurance report"), wn) == []


def test_comma_and_to_precede_triggers(wn):
    phrases = extract_verb_phrases(
        text_task("Download the email, watch your cat. I want to subscribe."),
        wn,
    )
    assert [p.verb_lemma for p in phrases] == ["download", "watch", "subscribe"]
    assert phrases[0].argument_lemmas == ("email",)
    assert phrases[1].argument_lemmas == ("cat",)


def test_phrase_span_caps_at_six_words(wn):
    phrases = extract_verb_phrases(
        text_task("Run aa bb cc dd ee email."), wn
    )
    assert len(phrases) == 1
    assert phrases[0].argument_lemmas == ()  # email is past the cap
    assert phrases[0].surface == "Run aa bb cc dd ee"


def test_title_sentences_are_scanned_too(wn):
    phrases = extract_verb_phrases(
        text_task("Confirm your email.", title="Join now"), wn
    )
    assert [p.verb_lemma for p in phrases] == ["join", "confirm"]


def test_mid_sentence_verb_without_preceder_is_skipped(wn):
    phrases = extract_verb_phrases(
        text_task("You should watch something today."), wn
    )
    assert phrases == []


# ---------------------------------------------------------------- phrase sim


def test_verb_only_phrase_similarity(wn):
    p = VerbPhrase("watch", (), "watch")
    q = VerbPhrase("download", (), "download")
    # Sibling verb groups under the shared root: path length 2.
    assert phrase_similarity(p, q, wn) == pytest.approx(1 / 3, abs=1e-12)


def test_argument_blending(wn):
    p = VerbPhrase("watch", ("dog",), "watch the dog")
    q = VerbPhrase("download", ("cat",), "download a cat")
    expected = 0.7 * (1 / 3) + 0.3 * (1 / 5)
    assert phrase_similarity(p, q, wn) == pytest.approx(expected, abs=1e-12)
    # One side without arguments falls back to the verb alone.
    bare = VerbPhrase("download", (), "download")
    assert phrase_similarity(p, bare, wn) == pytest.approx(1 / 3, abs=1e-12)


def test_identical_phrase_lists_score_one(wn):
    phrases = extract_verb_phrases(
        text_task("Sign up and confirm your email."), wn
    )
    assert phrases
    assert required_action_similarity(phrases, phrases, wn) == pytest.approx(
        1.0, abs=1e-12
    )


def test_empty_side_scores_zero(wn):
    phrases = [VerbPhrase("sign", (), "sign")]
    assert required_action_similarity(phrases, [], wn) == 0.0
    assert required_action_similarity([], phrases, wn) == 0.0
    assert required_action_similarity([], [], wn) == 0.0


def test_required_action_symmetric(wn):
    A = extract_verb_phrases(text_task("Watch the cat. Download the email."), wn)
    B = extract_verb_phrases(text_task("Register and rate the dog."), wn)
    ab = required_action_similarity(A, B, wn)
    ba = required_action_similarity(B, A, wn)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0.0 <= ab <= 1.0


def test_required_action_hand_value(wn):
    A = [VerbPhrase("watch", (), "watch")]
    B = [
        VerbPhrase("view", (), "view"),  # same synset as watch: 1.0
        VerbPhrase("download", (), "download"),  # 1/3
    ]
    # Forward: watch's best match is view (1.0). Backward: view matches 1.0,
    # download 1/3, mean 2/3. Symmetrized: (1 + 2/3)/2.
    expected = (1.0 + (1.0 + 1 / 3) / 2) / 2
    assert required_action_similarity(A, B, wn) == pytest.approx(
        expected, abs=1e-12
    )


# ---------------------------------------------------------------- unusual words


def test_all_listed_words_are_usual():
    task = text_task("Download the app now.")
    df = {"download": 1, "the": 1, "app": 1, "now": 1}
    wordlist = frozenset({"download", "the", "app", "now"})
    assert unusual_word_ratio(task, df, wordlist) == 0.0


def test_one_unknown_rare_token():
    task = text_task("download xqzt app now")
    df = {"download": 10, "xqzt": 1, "app": 8, "now": 9}
    wordlist = frozenset({"download", "app", "now"})
    assert unusual_word_ratio(task, df, wordlist) == 0.25


def test_frequent_unlisted_token_is_usual():
    task = text_task("blorp")
    assert unusual_word_ratio(task, {"blorp": 6}, frozenset()) == 0.0
    assert unusual_word_ratio(task, {"blorp": 5}, frozenset()) == 1.0


def test_token_level_counting():
    task = text_task("xqzt xqzt common")
    df = {"xqzt": 1, "common": 9}
    assert unusual_word_ratio(task, df, frozenset({"common"})) == pytest.approx(
        2 / 3
    )


def test_empty_description_ratio_zero():
    assert unusual_word_ratio(text_task(""), {}, frozenset()) == 0.0


@given(st.sets(st.sampled_from(["aa", "bb", "cc", "dd"])))
def test_growing_wordlist_never_raises_ratio(extra):
    task = text_task("aa bb cc dd aa")
    df = {"aa": 1, "bb": 2, "cc": 3, "dd": 9}
    base = unusual_word_ratio(task, df, frozenset())
    grown = unusual_word_ratio(task, df, frozenset(extra))
    assert grown <= base


def test_presence_df_counts_tasks_not_tokens():
    tasks = [
        text_task("alpha alpha beta", id="t1"),
        text_task("alpha gamma", id="t2"),
    ]
    df = presence_document_frequencies(tasks)
    assert df["alpha"] == 2  # present in two tasks, despite three mentions
    assert df["beta"] == 1
    assert df["gamma"] == 1


def test_default_wordlist_loads():
    words = default_wordlist()
    assert len(words) > 500
    assert "the" in words and "download" in words


# ---------------------------------------------------------------- comprehensibility


def test_vector_shape_and_validation():
    task = text_task("Download the app now.")
    df = presence_document_frequencies([task])
    vec = comprehensibility_vector(task, df, default_wordlist())
    assert vec.values.shape == (len(COMPREHENSIBILITY_FEATURE_NAMES),)
    assert len(COMPREHENSIBILITY_FEATURE_NAMES) == 10
    with pytest.raises(ValueError):
        ComprehensibilityVector(np.zeros(9))
    with pytest.raises(ValueError):
        ComprehensibilityVector(np.append(np.zeros(9), 1.5))


def test_identical_vectors_score_one():
    stats = CorpusStats(np.zeros(10), np.ones(10))
    u = ComprehensibilityVector(np.append(np.arange(9.0), 0.5))
    assert comprehensibility_similarity(u, u, stats) == 1.0


def test_unit_zscore_distance_everywhere_halves():
    stats = CorpusStats(np.zeros(10), np.ones(10))
    u = np.zeros(10)
    v = np.ones(10)
    assert comprehensibility_similarity(u, v, stats) == pytest.approx(
        0.5, abs=1e-12
    )
    assert comprehensibility_similarity(v, u, stats) == pytest.approx(
        0.5, abs=1e-12
    )


def test_dimension_mismatch_rejected():
    stats = CorpusStats(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        comprehensibility_similarity(np.zeros(10), np.zeros(10), stats)
    with pytest.raises(ValueError, match="dimension mismatch"):
        comprehensibility_similarity(np.zeros(3), np.zeros(4), stats)


def test_stats_floor_degenerate_std():
    vecs = [ComprehensibilityVector(np.zeros(10)) for _ in range(3)]
    stats = comprehensibility_stats(vecs)
    assert np.all(stats.std == 1e-9)
    assert comprehensibility_similarity(vecs[0], vecs[1], stats) == 1.0


# ---------------------------------------------------------------- matrices


def small_corpus():
    return [
        text_task("Sign up and confirm your email.", id="a", title="Join now"),
        text_task("Watch the cat today.", id="b", title="Watch this"),
        text_task("Quality assurance report", id="c"),
    ]


def test_matrix_invariants_both_measures(wn):
    for measure in ("required_action", "comprehensibility"):
        matrix = similarity_matrix(small_corpus(), measure, wn=wn)
        n = len(matrix.task_ids)
        assert matrix.values.shape == (n, n)
        assert np.all(np.diag(matrix.values) == 1.0)
        assert np.max(np.abs(matrix.values - matrix.values.T)) <= 1e-9
        assert matrix.values.min() >= 0.0 and matrix.values.max() <= 1.0


def test_identical_tasks_fully_similar(wn):
    twins = [
        text_task("Sign up and confirm your email.", id="x"),
        text_task("Sign up and confirm your email.", id="y"),
    ]
    for measure in ("required_action", "comprehensibility"):
        matrix = similarity_matrix(twins, measure, wn=wn)
        assert matrix.pair("x", "y") == pytest.approx(1.0, abs=1e-12)


def test_matrices_equal_cold_and_warm(wn, tmp_path):
    path = tmp_path / "corpus.jsonl"
    generate_synthetic_corpus(path, seed=3, per_category=6)
    tasks = list(load_corpus(path))
    features._ANALYSES.clear()
    cold = [similarity_matrix(tasks, m, wn=wn).values for m in SIMILARITY_MEASURES]
    warm = [similarity_matrix(tasks, m, wn=wn).values for m in SIMILARITY_MEASURES]
    for a, b in zip(cold, warm):
        assert np.array_equal(a, b)


def pairwise_reference(tasks, measure, wn):
    """The matrix built from the pair functions, one call per pair."""
    n = len(tasks)
    expected = np.eye(n)
    if measure == "required_action":
        phrases = [extract_verb_phrases(t, wn) for t in tasks]

        def pair(i, j):
            return required_action_similarity(phrases[i], phrases[j], wn)
    else:
        df = presence_document_frequencies(tasks)
        words = default_wordlist()
        vectors = [comprehensibility_vector(t, df, words) for t in tasks]
        stats = comprehensibility_stats(vectors) if vectors else None

        def pair(i, j):
            return comprehensibility_similarity(vectors[i], vectors[j], stats)
    for i in range(n):
        for j in range(n):
            if i != j:
                expected[i, j] = pair(i, j)
    return expected


def exactness_corpus():
    """Noun arguments (one phrase with two), phraseless tasks, and a task
    with eleven phrases, where a segment sum such as np.add.reduceat adds
    in another order than Python's sum."""
    return small_corpus() + [
        text_task(
            "Watch the cat. Download the email, and rate the dog.", id="d"
        ),
        text_task("", id="e", title="Quality report"),
        text_task(
            "Download your cat, watch the dog and confirm the email.", id="f"
        ),
        text_task(
            "Watch the cat. Download the email. Rate the dog. Sign up. "
            "Confirm your email. Register now. Review the cat and dog. "
            "Click and watch the email. Subscribe to the dog. View the cat.",
            id="g",
        ),
        text_task("Review the email and cat.", id="h", title="Join now"),
        # act is the verb root, at 1/2 from every verb; 0.7 * 1/2 + 0.3 * 1
        # rounds apart from 0.7 * 1/2 + (1.0 - 0.7) * 1.
        text_task("Act on the cat.", id="i"),
        text_task("Watch the cat.", id="j"),
    ]


def test_matrix_matches_pairwise_calls(wn):
    tasks = exactness_corpus()
    phrases = [extract_verb_phrases(t, wn) for t in tasks]
    assert max(len(p) for p in phrases) >= 9
    assert sum(not p for p in phrases) >= 2
    assert any(len(q.argument_lemmas) >= 2 for p in phrases for q in p)
    for n in (0, 1, 2, 3, len(tasks)):
        for measure in ("required_action", "comprehensibility"):
            matrix = similarity_matrix(tasks[:n], measure, wn=wn)
            expected = pairwise_reference(tasks[:n], measure, wn)
            assert np.array_equal(matrix.values, expected), (n, measure)


def test_phraseless_tasks_keep_unit_diagonal(wn):
    # Pairwise self-similarity would be 0 for empty phrase sets; the matrix
    # diagonal is 1 by definition regardless.
    tasks = [text_task("Quality assurance report", id=f"t{i}") for i in range(2)]
    matrix = similarity_matrix(tasks, "required_action", wn=wn)
    assert np.all(np.diag(matrix.values) == 1.0)
    assert matrix.pair("t0", "t1") == 0.0


def test_matrix_refuses_oversized_corpora(wn, monkeypatch):
    monkeypatch.setattr(semsim, "MAX_MATRIX_TASKS", 2)

    def no_extraction(*args):
        raise AssertionError("phrases extracted before the size check")

    monkeypatch.setattr(semsim, "extract_verb_phrases", no_extraction)
    for measure in ("required_action", "comprehensibility"):
        with pytest.raises(ValueError) as info:
            similarity_matrix(small_corpus(), measure, wn=wn)
        assert str(info.value) == (
            "3 tasks exceed the similarity matrix limit of 2 tasks"
        )
    matrix = similarity_matrix(small_corpus()[:2], "comprehensibility")
    assert matrix.values.shape == (2, 2)


def test_matrix_requires_resources(wn):
    with pytest.raises(ValueError, match="WordNet"):
        similarity_matrix(small_corpus(), "required_action")
    with pytest.raises(ValueError, match="unknown measure"):
        similarity_matrix(small_corpus(), "cosine", wn=wn)


def test_matrix_validation_rejects_bad_values():
    ids = ("a", "b")
    good = np.array([[1.0, 0.5], [0.5, 1.0]])
    SimilarityMatrix(ids, good, "required_action")
    with pytest.raises(ValueError, match="diagonal"):
        SimilarityMatrix(ids, np.array([[0.9, 0.5], [0.5, 1.0]]), "required_action")
    with pytest.raises(ValueError, match="symmetric"):
        SimilarityMatrix(ids, np.array([[1.0, 0.4], [0.5, 1.0]]), "required_action")
    # symmetry is checked in row blocks; here only the second block sees it
    late = np.full((300, 300), 0.5)
    np.fill_diagonal(late, 1.0)
    late[290, 270] = 0.5 + 5e-10
    many = tuple(f"t{i}" for i in range(300))
    SimilarityMatrix(many, late, "required_action")
    late[290, 270] = 0.6
    with pytest.raises(ValueError, match="symmetric"):
        SimilarityMatrix(many, late, "required_action")
    with pytest.raises(ValueError, match="outside"):
        SimilarityMatrix(ids, np.array([[1.0, 1.5], [1.5, 1.0]]), "required_action")
    with pytest.raises(ValueError, match="unknown measure"):
        SimilarityMatrix(ids, good, "cosine")
    with pytest.raises(ValueError, match="shape"):
        SimilarityMatrix(("a",), good, "required_action")


_WORD_POOL = [
    "download", "watch", "register", "review", "click", "email", "cat",
    "dog", "report", "xqzt", "the", "your", "now", "please", "and", ",",
]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrix_invariants_on_random_corpora(data, wn):
    n_tasks = data.draw(st.integers(0, 6))
    tasks = []
    for i in range(n_tasks):
        words = data.draw(
            st.lists(st.sampled_from(_WORD_POOL), min_size=0, max_size=30)
        )
        tasks.append(text_task(" ".join(words), id=f"t{i}"))
    measure = data.draw(st.sampled_from(["required_action", "comprehensibility"]))
    matrix = similarity_matrix(tasks, measure, wn=wn)
    assert np.all(np.diag(matrix.values) == 1.0)
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.all((matrix.values >= 0.0) & (matrix.values <= 1.0))
    expected = pairwise_reference(tasks, measure, wn)
    assert np.array_equal(matrix.values, expected)
