"""Verb phrases, the two similarity measures, and matrix invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _oracle_phrase_similarity,
    _oracle_required_action_similarity,
    make_task,
)
from tasksim import semsim
from tasksim.corpus import load_corpus
from tasksim.semsim import (
    SIMILARITY_MEASURES,
    SimilarityMatrix,
    VerbPhrase,
    default_wordlist,
    extract_verb_phrases,
    load_wordlist,
    presence_document_frequencies,
    similarity_matrix,
    unusual_word_ratio,
)
from tasksim import reports
from tasksim.reports import _aligned, csv_text, matrix_text_chunks, render_matrix_csv
from tasksim.synth import synthetic_corpus_text
from tasksim.text import items, split_sentences
from tasksim.wordnet import NOUN, VERB, bundled_mini_wordnet_dir, lemmatize, load_wordnet


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


def _oracle_extract_verb_phrases(task, wn):
    """The scanner as it was before tasks kept their sentences: it splits
    both fields itself and tests each item for a preceder in turn."""
    phrases = []
    sentences = split_sentences(task.title) + split_sentences(
        task.description_text
    )
    for sentence in sentences:
        words = items(sentence)
        triggers = []
        for i, text in enumerate(words):
            if text == ",":
                continue
            preceded = i > 0 and words[i - 1].lower() in {
                "to", "and", "or", "then", ",", "please",
            }
            if not (i == 0 or preceded):
                continue
            verb = lemmatize(text, VERB, wn)
            if verb is not None:
                triggers.append((i, verb))
        for t, (start_item, verb) in enumerate(triggers):
            end_item = (
                triggers[t + 1][0] if t + 1 < len(triggers) else len(words)
            )
            arguments = []
            words_taken = 1
            for j in range(start_item + 1, end_item):
                text = words[j]
                if text == ",":
                    continue
                if words_taken >= 6:
                    break
                words_taken += 1
                noun = lemmatize(text, NOUN, wn)
                if noun is not None:
                    arguments.append(noun)
            phrases.append(VerbPhrase(verb, tuple(arguments)))
    return phrases


# Bundled-WordNet verbs (some in inflected or capitalized forms) and nouns,
# the preceders in several cases, commas, sentence ends and filler, so that
# phrases start mid-sentence, end at the next trigger and run past six words.
_PHRASE_PIECES = st.sampled_from([
    "watch", "Watch", "ran", "running", "sign", "confirm", "DOWNLOAD",
    "review", "act", "email", "cat", "dogs", "ox", "message", "computer",
    "Cat", "e-mail", "cat's", "to", "To", "and", "AND", "or", "then",
    "Then", "please", "Please", ",", ", ", " ,", "the", "your", "now", "aa",
    "xqzt", "--", "3", ".", "!", "?", "\n", "e.g.", "J.",
])


def _phrase_text(max_size):
    return st.lists(_PHRASE_PIECES, max_size=max_size).map(" ".join)


@given(description=_phrase_text(40), title=_phrase_text(8))
@settings(max_examples=300, deadline=None)
def test_phrases_match_the_item_tuple_scanner(wn, description, title):
    task = text_task(description, title=title)
    assert extract_verb_phrases(task, wn) == _oracle_extract_verb_phrases(task, wn)


def test_phrases_match_the_item_tuple_scanner_on_the_synthetic_corpus(wn, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(synthetic_corpus_text(seed=7), encoding="utf-8")
    tasks = list(load_corpus(path))
    found = [extract_verb_phrases(task, wn) for task in tasks]
    assert found == [_oracle_extract_verb_phrases(task, wn) for task in tasks]
    # with the bundled WordNet every task has a phrase, none an argument
    assert all(found)


# ---------------------------------------------------------------- phrase sim


def test_verb_only_phrase_similarity(wn):
    p = VerbPhrase("watch", ())
    q = VerbPhrase("download", ())
    # Sibling verb groups under the shared root: path length 2.
    assert _oracle_phrase_similarity(p, q, wn) == pytest.approx(1 / 3, abs=1e-12)


def test_argument_blending(wn):
    p = VerbPhrase("watch", ("dog",))
    q = VerbPhrase("download", ("cat",))
    expected = 0.7 * (1 / 3) + 0.3 * (1 / 5)
    assert _oracle_phrase_similarity(p, q, wn) == pytest.approx(expected, abs=1e-12)
    # One side without arguments falls back to the verb alone.
    bare = VerbPhrase("download", ())
    assert _oracle_phrase_similarity(p, bare, wn) == pytest.approx(1 / 3, abs=1e-12)


def test_identical_phrase_lists_score_one(wn):
    phrases = extract_verb_phrases(
        text_task("Sign up and confirm your email."), wn
    )
    assert phrases
    assert _oracle_required_action_similarity(phrases, phrases, wn) == pytest.approx(
        1.0, abs=1e-12
    )


def test_empty_side_scores_zero(wn):
    phrases = [VerbPhrase("sign", ())]
    assert _oracle_required_action_similarity(phrases, [], wn) == 0.0
    assert _oracle_required_action_similarity([], phrases, wn) == 0.0
    assert _oracle_required_action_similarity([], [], wn) == 0.0


def test_required_action_symmetric(wn):
    A = extract_verb_phrases(text_task("Watch the cat. Download the email."), wn)
    B = extract_verb_phrases(text_task("Register and rate the dog."), wn)
    ab = _oracle_required_action_similarity(A, B, wn)
    ba = _oracle_required_action_similarity(B, A, wn)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0.0 <= ab <= 1.0


def test_required_action_hand_value(wn):
    A = [VerbPhrase("watch", ())]
    B = [
        VerbPhrase("view", ()),  # same synset as watch: 1.0
        VerbPhrase("download", ()),  # 1/3
    ]
    # Forward: watch's best match is view (1.0). Backward: view matches 1.0,
    # download 1/3, mean 2/3. Symmetrized: (1 + 2/3)/2.
    expected = (1.0 + (1.0 + 1 / 3) / 2) / 2
    assert _oracle_required_action_similarity(A, B, wn) == pytest.approx(
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


def test_wordlist_with_byte_order_mark_loads_the_same(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    text = "hello\n# comment\nWorld\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_wordlist(marked) == load_wordlist(plain) == {"hello", "world"}


# ---------------------------------------------------------------- comprehensibility


def _oracle_comprehensibility_similarity(a, b, mean, std):
    """The comprehensibility measure of two vectors: 1/(1+d), d their
    Euclidean distance once z-scored with the corpus mean and std, over the
    square root of their length; squares summed left to right, as
    `similarity_matrix` sums them."""
    za = ((a - mean) / std).tolist()
    zb = ((b - mean) / std).tolist()
    squares = 0.0
    for x, y in zip(za, zb):
        squares += (x - y) * (x - y)
    return 1.0 / (1.0 + math.sqrt(squares) / math.sqrt(len(za)))


def test_identical_vectors_score_one():
    u = np.append(np.arange(9.0), 0.5)
    assert _oracle_comprehensibility_similarity(u, u, np.zeros(10), np.ones(10)) == 1.0


def test_unit_zscore_distance_everywhere_halves():
    mean, std = np.zeros(10), np.ones(10)
    u = np.zeros(10)
    v = np.ones(10)
    assert _oracle_comprehensibility_similarity(u, v, mean, std) == pytest.approx(
        0.5, abs=1e-12
    )
    assert _oracle_comprehensibility_similarity(v, u, mean, std) == pytest.approx(
        0.5, abs=1e-12
    )


@pytest.mark.parametrize(
    "column, value, message",
    [
        (2, np.nan, "non-finite"),
        (0, np.inf, "non-finite"),
        (8, -np.inf, "non-finite"),
    ],
)
def test_stacked_rows_refuse_non_finite_features(monkeypatch, column, value, message):
    tasks = small_corpus()
    structural = tasks[1].analysis.structural.copy()
    structural[column] = value
    bad = dataclasses.replace(tasks[1].analysis, structural=structural)
    monkeypatch.setitem(vars(tasks[1]), "analysis", bad)
    with pytest.raises(ValueError, match=message):
        similarity_matrix(tasks, "comprehensibility")


@pytest.mark.parametrize(
    "ratio, message",
    [(1.5, r"outside \[0, 1\]"), (-0.25, r"outside \[0, 1\]"), (np.nan, "non-finite")],
)
def test_stacked_rows_refuse_a_bad_ratio(monkeypatch, ratio, message):
    tasks = small_corpus()
    real = semsim.unusual_word_ratio

    def patched(task, corpus_df, wordlist):
        return ratio if task is tasks[2] else real(task, corpus_df, wordlist)

    monkeypatch.setattr(semsim, "unusual_word_ratio", patched)
    with pytest.raises(ValueError, match=message):
        similarity_matrix(tasks, "comprehensibility")


def test_stats_floor_degenerate_std():
    # equal comprehensibility rows: every column's std is 0, floored at
    # 1e-9, so every z-score is 0 and every pair fully similar
    tasks = [text_task("Download the app now.", id=f"t{i}") for i in range(3)]
    matrix = similarity_matrix(tasks, "comprehensibility")
    assert np.all(matrix.values == 1.0)


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
        assert matrix.task_ids == ("x", "y")
        assert matrix.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_matrices_equal_cold_and_warm(wn, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(synthetic_corpus_text(seed=3, per_category=6), encoding="utf-8")
    tasks = [dataclasses.replace(task) for task in load_corpus(path)]
    assert not any("analysis" in vars(task) for task in tasks)
    cold = [similarity_matrix(tasks, m, wn=wn).values for m in SIMILARITY_MEASURES]
    warm = [similarity_matrix(tasks, m, wn=wn).values for m in SIMILARITY_MEASURES]
    for a, b in zip(cold, warm):
        assert np.array_equal(a, b)


def pairwise_reference(tasks, measure, wn):
    """The matrix built from the pair oracles, one call per pair."""
    n = len(tasks)
    expected = np.eye(n)
    if measure == "required_action":
        phrases = [extract_verb_phrases(t, wn) for t in tasks]

        def pair(i, j):
            return _oracle_required_action_similarity(phrases[i], phrases[j], wn)
    else:
        df = presence_document_frequencies(tasks)
        words = default_wordlist()
        vectors = [
            np.append(t.analysis.structural, unusual_word_ratio(t, df, words))
            for t in tasks
        ]
        if vectors:
            mean = np.mean(vectors, axis=0)
            std = np.maximum(np.std(vectors, axis=0), 1e-9)

        def pair(i, j):
            return _oracle_comprehensibility_similarity(vectors[i], vectors[j], mean, std)
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
    assert matrix.values[0, 1] == 0.0


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_matrix_validation_rejects_non_finite_values(bad):
    # NaN passes both the range check and the symmetry check by comparing
    # False, so only an explicit finiteness check stops it from being
    # clustered
    values = np.full((4, 4), 0.5)
    np.fill_diagonal(values, 1.0)
    values[0, 1] = values[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        SimilarityMatrix(("a", "b", "c", "d"), values, "required_action")


def _oracle_render_matrix_csv(matrix):
    """The matrix CSV as csv.writer wrote it, one quoted cell at a time."""
    return csv_text(["id", *matrix.task_ids], (
        [task_id] + ["%.6f" % v for v in values.tolist()]
        for task_id, values in zip(matrix.task_ids, matrix.values)
    ))


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(
        st.one_of(
            st.sampled_from(["a,b", 'say "hi"', "", " pad ", "two\nlines", "t1"]),
            st.text(alphabet='ab,"\n\r ;', max_size=5),
        ),
        unique=True,
        max_size=7,
    ),
    seed=st.integers(0, 2**16),
)
def test_matrix_csv_matches_csv_writer(ids, seed):
    rng = np.random.default_rng(seed)
    n = len(ids)
    values = rng.choice([0.0, -0.0, 1.0, 0.1234565, 0.9999996], size=(n, n))
    values = np.where(rng.random((n, n)) < 0.5, values, rng.random((n, n)))
    values = np.triu(values) + np.triu(values, 1).T
    np.fill_diagonal(values, 1.0)
    if n > 1:
        values[0, 1] = values[1, 0] = -0.0
    matrix = SimilarityMatrix(tuple(ids), values, "comprehensibility")
    assert render_matrix_csv(matrix) == _oracle_render_matrix_csv(matrix)


def _tricky_matrix(n, share, seed):
    """A valid n x n similarity matrix of uniform cells, about `share` of
    them drawn instead from values that % formatting rounds at a tie, that
    are already short decimals, or that sit at the ends of [0, 1], and then
    one -0.0 pair; with ids that need quoting or are shorter or longer than
    a 5-wide cell."""
    rng = np.random.default_rng(seed)
    pools = [
        rng.integers(0, 129, (n, n)) / 128,  # 1/128 = 0.0078125, a tie at 6
        rng.integers(0, 2**20 + 1, (n, n)) / 2**20,
        np.round(rng.random((n, n)), 6),
        np.round(rng.random((n, n)), 7),  # 0.1234565: close to a tie at 6
        np.round(rng.random((n, n)), 4),  # 0.1235: close to a tie at 3
        rng.choice([1 - 2**-53, 0.0, 1.0], (n, n)),
    ]
    values = rng.random((n, n))
    pick = np.where(rng.random((n, n)) < share,
                    rng.integers(0, len(pools), (n, n)), -1)
    for k, pool in enumerate(pools):
        values = np.where(pick == k, pool, values)
    if share and n > 1:
        # one pair only, so that most rows stay on the array path
        i, j = sorted(rng.choice(n, 2, replace=False))
        values[i, j] = -0.0
    # mirror the upper triangle, keeping the sign of a -0.0
    values = np.where(np.triu(np.ones((n, n), dtype=bool)), values, values.T)
    np.fill_diagonal(values, 1.0)
    ids = ['a,"b"', "", " pad ", "two\nlines", "longer than five", "t"]
    ids = (ids + [f"t{i}" for i in range(n)])[:n]
    return SimilarityMatrix(tuple(rng.permutation(ids)), values, "comprehensibility")


# a matrix this wide spans several blocks of rows
_SEVERAL_BLOCKS = 300
assert _SEVERAL_BLOCKS > 2 * (reports._BLOCK_CELLS // _SEVERAL_BLOCKS)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 7, _SEVERAL_BLOCKS]),
    share=st.sampled_from([0.0, 0.002, 0.1, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(n=_SEVERAL_BLOCKS, share=0.002, seed=0)
@example(n=_SEVERAL_BLOCKS, share=1.0, seed=1)
def test_matrix_csv_matches_csv_writer_at_ties_and_across_blocks(n, share, seed):
    matrix = _tricky_matrix(n, share, seed)
    assert render_matrix_csv(matrix) == _oracle_render_matrix_csv(matrix)


def _oracle_render_matrix_text(matrix):
    """The matrix table as `_aligned` lays out its "%.3f" cells."""
    return _aligned([["id", *matrix.task_ids]] + [
        [task_id] + ["%.3f" % v for v in values.tolist()]
        for task_id, values in zip(matrix.task_ids, matrix.values)
    ])


@pytest.mark.parametrize("ids, values", [
    ((), np.zeros((0, 0))),
    (("a",), np.ones((1, 1))),
    (("a task id",), np.ones((1, 1))),
    # "-0.000" is 6 wide, so it widens its column "c" only; 0.0005 is
    # stored a little above 0.0005, so "%.3f" rounds it up
    (("ab", "abcdefgh", "c"),
     np.array([[1.0, 0.0005, 0.5], [0.0005, 1.0, -0.0], [0.5, 0.0, 1.0]])),
], ids=["empty", "1x1", "1x1-long-id", "signed-zero"])
def test_matrix_text_matches_aligned_table(ids, values):
    matrix = SimilarityMatrix(ids, values, "comprehensibility")
    assert "".join(matrix_text_chunks(matrix)) == _oracle_render_matrix_text(matrix)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 7, _SEVERAL_BLOCKS]),
    share=st.sampled_from([0.0, 0.002, 0.1, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(n=_SEVERAL_BLOCKS, share=0.1, seed=0)
def test_matrix_text_matches_aligned_table_on_random_matrices(n, share, seed):
    matrix = _tricky_matrix(n, share, seed)
    assert "".join(matrix_text_chunks(matrix)) == _oracle_render_matrix_text(matrix)


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
