"""Tests for the four feature sets and their combination."""

import dataclasses
import itertools
import math
import re
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasksim import features
from tasksim.cli import generate_synthetic_corpus
from tasksim.corpus import load_corpus, strip_html
from tasksim.features import (
    FEATURE_SET_NAMES,
    ContentConfig,
    FeatureMatrix,
    combine_features,
    content_matrix,
    content_vector,
    factual_features,
    fit_content_model,
    fit_country_vocab,
    fit_employer_vocab,
    fit_extractor,
    fit_host_vocab,
    gunning_fog,
    lexical_diversity,
    default_sentiment_lexicon,
    load_sentiment_lexicon,
    semantic_features,
    structural_features,
)
from tasksim import text as text_module
from tasksim.text import split_sentences, stem, stopwords, tokenize

from conftest import TOKEN_TEXT, make_task
from test_text import _SENTENCE_TEXT


def _oracle_named_entity_count(description: str) -> int:
    """The count as it was made before the analysis read it off its token
    stream: split the description again, re-tokenize every sentence and
    skip each sentence's first word token."""
    count = 0
    for sentence in split_sentences(description):
        words = [
            w for w in re.findall(r"[A-Za-z0-9'-]+", sentence)
            if re.search(r"[A-Za-z0-9]", w)
        ]
        for word in words[1:]:
            if word[0].isupper() and word.lower() not in stopwords():
                count += 1
    return count


def _oracle_analysis(task):
    """The analysis as it was built from `tokenize` token streams, kept as
    the reference: (title stems, description stems, lower words, structural
    row, named entities)."""
    stops = stopwords()
    stream = tokenize(task.description_text)
    tokens = stream.tokens
    words = stream.surfaces
    n_words, n_sents = len(words), len(stream.sentences)
    complex_words = sum(1 for w in words if features.count_syllables(w) >= 3)

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    structural = np.array([
        float(n_words),
        float(task.structure.bullet_count),
        n_words / n_sents if n_sents else 0.0,
        task.description_text.count(",") / n_sents if n_sents else 0.0,
        sum(len(w) for w in words) / n_words if n_words else 0.0,
        mean(task.structure.paragraph_lengths),
        mean(task.structure.line_lengths),
        gunning_fog(n_words, n_sents, complex_words),
        lexical_diversity(stream),
    ])
    named_entities = sum(
        1
        for prev, tok in zip(tokens, tokens[1:])
        if tok.sentence_index == prev.sentence_index
        and tok.surface[0].isupper()
        and tok.normalized not in stops
    )
    return (
        tuple(stem(t) for t in tokenize(task.title).normalized if t not in stops),
        tuple(stem(t) for t in stream.normalized if t not in stops),
        stream.normalized,
        structural,
        named_entities,
    )


def names_of(vocab):
    return sorted(vocab, key=vocab.__getitem__)


class TestFactual:
    def test_payment_per_minute(self):
        task = make_task(payment=0.30, time_to_finish=10)
        vec = factual_features(task, {}, {})
        assert vec[4] == pytest.approx(0.03)
        assert vec[5] == 0.0

    def test_zero_time_to_finish_flagged(self):
        task = make_task(time_to_finish=0)
        vec = factual_features(task, {}, {})
        assert vec[4] == 0.0
        assert vec[5] == 1.0

    def test_unseen_employer_other_column(self):
        vocab = {"empA": 0, "empB": 1}
        task = make_task(employer="stranger")
        vec = factual_features(task, vocab, {})
        # columns: 6 numerics, then empA, empB, other
        assert list(vec[6:9]) == [0.0, 0.0, 1.0]

    def test_seen_employer_hot(self):
        vocab = {"emp1": 0, "empB": 1}
        vec = factual_features(make_task(employer="emp1"), vocab, {})
        assert list(vec[6:9]) == [1.0, 0.0, 0.0]

    def test_empty_countries_all_zero(self):
        cvocab = {"US": 0, "DE": 1}
        vec = factual_features(make_task(countries=()), {}, cvocab)
        assert list(vec[-3:]) == [0.0, 0.0, 0.0]

    def test_country_multi_hot_and_other(self):
        cvocab = {"DE": 0, "US": 1}
        vec = factual_features(make_task(countries=("US", "FR")), {}, cvocab)
        assert list(vec[-3:]) == [0.0, 1.0, 1.0]

    def test_vocab_fitting_sorted(self):
        tasks = [make_task(employer="zeta"), make_task(id="t2", employer="alpha")]
        assert names_of(fit_employer_vocab(tasks)) == ["alpha", "zeta"]
        tasks = [make_task(countries=("US", "DE"))]
        assert names_of(fit_country_vocab(tasks)) == ["DE", "US"]


class TestGunningFog:
    def test_hand_example(self):
        assert gunning_fog(20, 2, 2) == pytest.approx(8.0, abs=1e-12)

    def test_zero_counts(self):
        assert gunning_fog(0, 0, 0) == 0.0
        assert gunning_fog(5, 0, 0) == 0.0
        assert gunning_fog(0, 1, 0) == 0.0

    @given(
        st.integers(1, 500), st.integers(1, 50), st.integers(0, 500)
    )
    @settings(max_examples=200)
    def test_doubling_invariance(self, words, sentences, complex_words):
        complex_words = min(complex_words, words)
        a = gunning_fog(words, sentences, complex_words)
        b = gunning_fog(2 * words, 2 * sentences, 2 * complex_words)
        assert a == pytest.approx(b, abs=1e-9)


class TestLexicalDiversity:
    def test_all_distinct(self):
        assert lexical_diversity(tokenize("a b c")) == 1.0

    def test_half(self):
        assert lexical_diversity(tokenize("a a b b")) == 0.5

    def test_cap_at_window(self):
        text = " ".join(["word"] * 200)
        assert lexical_diversity(tokenize(text)) == pytest.approx(0.01)

    def test_empty(self):
        assert lexical_diversity(tokenize("")) == 0.0


class TestStructural:
    def test_comma_average(self):
        task = make_task(html="a, b. c d.")
        vec = structural_features(task)
        assert vec[3] == pytest.approx(0.5)

    def test_empty_description_all_zero(self):
        task = make_task(html="")
        assert np.all(structural_features(task) == 0)

    def test_word_count_and_bullets(self):
        task = make_task(html="<ul><li>one two</li><li>three</li></ul>")
        vec = structural_features(task)
        assert vec[0] == 3.0
        assert vec[1] == 2.0

    def test_avg_chars_per_word(self):
        task = make_task(html="ab abcd")
        vec = structural_features(task)
        assert vec[4] == pytest.approx(3.0)

    def test_title_excluded(self):
        a = structural_features(make_task(title="one", html="same text here."))
        b = structural_features(make_task(title="a very different long title", html="same text here."))
        assert np.array_equal(a, b)

    def test_duplication_invariance_on_long_text(self):
        words = " ".join(f"w{i}" for i in range(120))
        html = f"<p>{words}.</p>"
        single = make_task(html=html)
        double = make_task(html=html + html)
        va, vb = structural_features(single), structural_features(double)
        # word count and bullets double; every other feature is unchanged
        assert vb[0] == 2 * va[0]
        assert vb[1] == 2 * va[1]
        np.testing.assert_allclose(vb[2:], va[2:], atol=1e-9)

    def test_duplication_doubles_bullets(self):
        html = "<ul><li>alpha beta</li></ul>"
        va = structural_features(make_task(html=html))
        vb = structural_features(make_task(html=html + html))
        assert vb[1] == 2 * va[1]


class TestSemantic:
    def test_sentiment_hand_example(self):
        lex = {"good": 1, "bad": -1}
        task = make_task(html="good good bad")
        vec = semantic_features(task, lex, {})
        assert vec[-1] == pytest.approx((2 - 1) / 3)

    def test_sentiment_no_hits(self):
        vec = semantic_features(make_task(html="neutral words only"), {"good": 1}, {})
        assert vec[-1] == 0.0

    def test_named_entity_mid_sentence(self):
        task = make_task(html="Visit Facebook today.")
        vec = semantic_features(task, {}, {})
        assert vec[-2] == 1.0

    def test_sentence_initial_capital_not_entity(self):
        task = make_task(html="Visit the site.")
        vec = semantic_features(task, {}, {})
        assert vec[-2] == 0.0

    def test_stopword_capital_not_entity(self):
        task = make_task(html="go The end.")
        vec = semantic_features(task, {}, {})
        assert vec[-2] == 0.0

    def test_host_multi_hot(self):
        vocab = {"a.com": 0, "b.com": 1}
        task = make_task(html='<a href="http://b.com/x">l</a>')
        vec = semantic_features(task, {}, vocab)
        assert list(vec[:3]) == [0.0, 1.0, 0.0]

    def test_unseen_host_other(self):
        task = make_task(html='<a href="http://new.org/x">l</a>')
        vec = semantic_features(task, {}, {"a.com": 0})
        assert list(vec[:2]) == [0.0, 1.0]

    @given(TOKEN_TEXT)
    @settings(max_examples=300)
    def test_named_entities_match_per_sentence_count(self, description):
        task = dataclasses.replace(make_task(), description_text=description)
        assert task.analysis.named_entities == _oracle_named_entity_count(description)

    @given(st.one_of(TOKEN_TEXT, _SENTENCE_TEXT), st.one_of(TOKEN_TEXT, _SENTENCE_TEXT))
    @settings(max_examples=300)
    def test_analysis_matches_token_stream_oracle(self, title, description):
        task = dataclasses.replace(
            make_task(html="<ul><li>a b</li></ul><p>c, d e</p>"),
            title=title, description_text=description,
        )
        got = features.build_analysis(task)
        title_stems, description_stems, lower_words, structural, entities = (
            _oracle_analysis(task)
        )
        assert got.title_stems == title_stems
        assert got.description_stems == description_stems
        assert got.lower_words == lower_words
        assert got.structural.tobytes() == structural.tobytes()
        assert got.named_entities == entities

    def test_fit_host_vocab(self):
        tasks = [make_task(html='<a href="http://z.com">l</a>'), make_task(id="t2")]
        assert names_of(fit_host_vocab(tasks)) == ["z.com"]

    @given(st.lists(st.sampled_from(["good", "bad", "meh"]), max_size=30))
    @settings(max_examples=100)
    def test_sentiment_bounds_and_polarity_flip(self, words):
        html = " ".join(words)
        lex = {"good": 1, "bad": -1}
        flipped = {"good": -1, "bad": 1}
        task = make_task(html=html)
        s = semantic_features(task, lex, {})[-1]
        f = semantic_features(task, flipped, {})[-1]
        assert -1.0 <= s <= 1.0
        assert f == pytest.approx(-s)

    def test_lexicon_file_parsing(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("# comment\ngood\t+1\nbad\t-1\n", encoding="utf-8")
        assert load_sentiment_lexicon(p) == {"good": 1, "bad": -1}
        bad = tmp_path / "bad.tsv"
        bad.write_text("good\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_sentiment_lexicon(bad)

    def test_lexicon_with_byte_order_mark_loads_the_same(self, tmp_path):
        plain, marked = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
        text = "good\t+1\nbad\t-1\n"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_sentiment_lexicon(marked) == load_sentiment_lexicon(plain)
        assert load_sentiment_lexicon(marked) == {"good": 1, "bad": -1}

    def test_default_lexicon_is_the_bundled_file(self):
        bundled = Path(features.__file__).resolve().parent / "resources" / "sentiment.tsv"
        lexicon = default_sentiment_lexicon()
        assert lexicon
        assert lexicon == load_sentiment_lexicon(bundled)

    def test_default_lexicon_is_read_once(self, monkeypatch):
        reads = []

        def counting_load(path):
            reads.append(path)
            return load_sentiment_lexicon(path)

        monkeypatch.setattr(features, "load_sentiment_lexicon", counting_load)
        features._default_lexicon_key.cache_clear()
        tasks = [make_task(id="t1", html="a good day"), make_task(id="t2", html="a bad day")]
        first = fit_extractor("semantic", tasks).matrix(tasks).rows
        second = fit_extractor("semantic", tasks[:1]).matrix(tasks).rows
        assert len(reads) == 1
        assert np.array_equal(first[:, -2:], second[:, -2:])
        # callers get a fresh copy, so changing one leaves the shared key alone
        default_sentiment_lexicon()["good"] = -1
        assert features._default_lexicon_key() == features._lexicon_key(
            load_sentiment_lexicon(reads[0])
        )


class TestContentModel:
    def tasks(self):
        return [
            make_task(id="t1", title="", html="click the link and click again"),
            make_task(id="t2", title="", html="click here"),
            make_task(id="t3", title="", html="watch a video"),
        ]

    def test_min_df_threshold(self):
        model = fit_content_model(self.tasks(), ContentConfig(ngram_range=(1, 1), min_df=2))
        assert "click" in model.vocabulary
        assert "video" not in model.vocabulary

    def test_max_features_truncation(self):
        tasks = [
            make_task(id="a", title="", html="alpha beta"),
            make_task(id="b", title="", html="alpha beta"),
            make_task(id="c", title="", html="alpha"),
        ]
        model = fit_content_model(tasks, ContentConfig(ngram_range=(1, 1), min_df=2, max_features=1))
        assert set(model.vocabulary) == {"alpha"}

    def test_truncation_tie_lexicographic(self):
        tasks = [
            make_task(id="a", title="", html="zed yak"),
            make_task(id="b", title="", html="zed yak"),
        ]
        model = fit_content_model(tasks, ContentConfig(ngram_range=(1, 1), min_df=2, max_features=1))
        assert set(model.vocabulary) == {"yak"}

    def test_raw_weight_value(self):
        # "click" appears in 2 of 3 docs: idf = ln(3/2)
        model = fit_content_model(self.tasks(), ContentConfig(ngram_range=(1, 1), min_df=2))
        task = make_task(id="q", title="", html="click")
        vec = content_vector(model, task)
        # single-term doc: normalized weight is 1, but the raw weight is ln(1.5)
        tf_idf = 1 * math.log(3 / 2)
        assert tf_idf == pytest.approx(0.4054651081, abs=1e-9)
        assert vec[model.vocabulary["click"]] == pytest.approx(1.0)

    def test_oov_only_doc_zero_vector(self):
        model = fit_content_model(self.tasks(), ContentConfig(ngram_range=(1, 1), min_df=2))
        vec = content_vector(model, make_task(id="q", title="", html="unrelated terms"))
        assert np.all(vec == 0)

    def test_l2_norm_unit(self):
        model = fit_content_model(self.tasks(), ContentConfig(ngram_range=(1, 1), min_df=1))
        vec = content_vector(model, make_task(id="q", title="", html="click the video"))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_bigrams_in_vocabulary(self):
        tasks = [
            make_task(id="a", title="", html="install app now"),
            make_task(id="b", title="", html="install app today"),
        ]
        model = fit_content_model(tasks, ContentConfig(min_df=2))
        assert "instal app" in model.vocabulary

    def test_ngrams_do_not_cross_title_boundary(self):
        tasks = [
            make_task(id="a", title="alpha", html="beta"),
            make_task(id="b", title="alpha", html="beta"),
        ]
        model = fit_content_model(tasks, ContentConfig(min_df=2))
        assert "alpha beta" not in model.vocabulary

    def test_title_tokens_counted(self):
        tasks = [
            make_task(id="a", title="signup bonus", html="x"),
            make_task(id="b", title="signup fast", html="y"),
        ]
        model = fit_content_model(tasks, ContentConfig(ngram_range=(1, 1), min_df=2))
        assert "signup" in model.vocabulary

    def test_empty_training_set_error(self):
        with pytest.raises(ValueError, match="empty"):
            fit_content_model([])

    def test_permutation_invariance(self):
        tasks = self.tasks()
        a = fit_content_model(tasks)
        b = fit_content_model(list(reversed(tasks)))
        assert a.vocabulary == b.vocabulary
        assert a.doc_freq == b.doc_freq

    def test_weights_nonnegative(self):
        model = fit_content_model(self.tasks(), ContentConfig(min_df=1))
        for html in ("click here", "watch the video", "unrelated"):
            vec = content_vector(model, make_task(id="q", title="", html=html))
            assert np.all(vec >= 0)


def _oracle_fit_content_model(tasks, config):
    """fit_content_model as it was defined before the term table: document
    frequencies from one Counter update per task."""
    df = Counter()
    for task in tasks:
        df.update(task.analysis.terms(config.ngram_range).keys())
    eligible = [t for t, c in df.items() if c >= config.min_df]
    eligible.sort(key=lambda t: (-df[t], t))
    kept = sorted(eligible[: config.max_features])
    return (
        {t: i for i, t in enumerate(kept)},
        {t: df[t] for t in kept},
        len(tasks),
    )


def _oracle_content_vector(vocabulary, doc_freq, n_docs, ngram_range, task):
    """content_vector as it was defined before the term table: one dict
    lookup per term of the task."""
    vec = np.zeros(len(vocabulary))
    for term, tf in task.analysis.terms(ngram_range).items():
        idx = vocabulary.get(term)
        if idx is not None:
            vec[idx] = tf * math.log(n_docs / doc_freq[term])
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


_CONTENT_WORDS = ["click", "link", "video", "watch", "app", "install", "rate",
                  "review", "signup", "email", "the", "now"]
_UNSEEN = itertools.count()


@settings(max_examples=150, deadline=None)
@given(
    train_texts=st.lists(
        st.lists(st.sampled_from(_CONTENT_WORDS), max_size=12), min_size=1, max_size=8
    ),
    eval_texts=st.lists(
        st.lists(st.sampled_from(_CONTENT_WORDS + ["outsider", "stranger"]), max_size=8),
        max_size=4,
    ),
    ngram_range=st.sampled_from([(1, 1), (1, 2)]),
    min_df=st.integers(0, 3),
    max_features=st.sampled_from([1, 2, 3, 5, 10000]),
)
def test_content_model_and_matrix_match_the_counter_definition(
    train_texts, eval_texts, ngram_range, min_df, max_features
):
    train = [
        make_task(id=f"t{i}", title=" ".join(words[:2]), html=" ".join(words[2:]))
        for i, words in enumerate(train_texts)
    ]
    # eval tasks: vocabulary and out-of-vocabulary words, a term no task in
    # this process has had before, and an empty text
    fresh = f"unheard{next(_UNSEEN)}word"
    evaluated = [
        make_task(id=f"e{i}", title="", html=" ".join(words + [fresh] * (i % 2)))
        for i, words in enumerate(eval_texts)
    ] + [make_task(id="empty", title="", html="")]
    config = ContentConfig(ngram_range=ngram_range, min_df=min_df, max_features=max_features)
    model = fit_content_model(train, config)
    vocabulary, doc_freq, n_docs = _oracle_fit_content_model(train, config)
    assert list(model.vocabulary.items()) == list(vocabulary.items())
    assert model.doc_freq == doc_freq
    assert model.n_docs == n_docs
    assert fresh not in model.vocabulary
    ids = [features._TERM_IDS[term] for term in vocabulary]
    assert model.columns[ids].tolist() == list(vocabulary.values())
    assert np.count_nonzero(model.columns >= 0) == len(vocabulary)
    assert model.idf.tolist() == [math.log(n_docs / doc_freq[t]) for t in vocabulary]
    for tasks in (train, evaluated):
        expected = np.array([
            _oracle_content_vector(vocabulary, doc_freq, n_docs, ngram_range, task)
            for task in tasks
        ]).reshape(len(tasks), len(vocabulary))
        assert np.array_equal(content_matrix(model, tasks), expected)
        for task, row in zip(tasks, expected):
            assert np.array_equal(content_vector(model, task), row)
    assert not content_matrix(model, evaluated[-1:]).any()


class TestCombine:
    def build(self, rows, tag):
        return FeatureMatrix(np.array(rows, dtype=float), frozenset({tag}))

    def test_concatenation_width(self):
        a = self.build([[1, 2], [4, 5]], "factual")
        b = self.build([[3], [6]], "structural")
        combined = combine_features([a, b])
        assert combined.n_cols == 3
        assert combined.n_rows == 2
        # columns keep the order of the parts
        np.testing.assert_array_equal(combined.rows, [[1, 2, 3], [4, 5, 6]])
        assert combined.provenance == {"factual", "structural"}

    def test_single_part_keeps_rows(self):
        a = self.build([[1]], "semantic")
        combined = combine_features([a])
        np.testing.assert_array_equal(combined.rows, a.rows)
        assert combined.provenance == {"semantic"}

    def test_row_mismatch_error(self):
        a = self.build([[1], [2]], "factual")
        b = self.build([[3]], "structural")
        with pytest.raises(ValueError, match="row-count"):
            combine_features([a, b])

    def test_recombining_keeps_rows_and_tags(self):
        a = self.build([[1]], "factual")
        b = self.build([[2]], "structural")
        once = combine_features([a, b])
        twice = combine_features([once])
        np.testing.assert_array_equal(twice.rows, once.rows)
        assert twice.provenance == once.provenance

    def test_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(np.array([[float("nan")]]), frozenset({"factual"}))

    def test_matrix_rejects_non_2d_rows(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureMatrix(np.zeros(3), frozenset({"factual"}))

    def test_matrix_has_only_rows_and_provenance(self):
        fields = [f.name for f in dataclasses.fields(FeatureMatrix)]
        assert fields == ["rows", "provenance"]


class TestFittedExtractor:
    def corpus(self):
        return [
            make_task(id="t1", html="<p>install the app</p>", employer="a"),
            make_task(id="t2", html="<p>install now</p>", employer="b"),
            make_task(id="t3", html="<p>watch this video</p>", employer="a"),
        ]

    @pytest.mark.parametrize("set_name", ["factual", "content", "structural", "semantic"])
    def test_each_set_produces_matrix(self, set_name):
        tasks = self.corpus()
        ext = fit_extractor(set_name, tasks)
        mat = ext.matrix(tasks)
        assert mat.n_rows == 3
        assert mat.provenance == {set_name}
        assert np.all(np.isfinite(mat.rows))

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError, match="unknown feature set"):
            fit_extractor("bogus", self.corpus())

    def test_rows_are_positional_for_every_set(self):
        # unseen employer, country and host: each lands in an "other" column
        # rather than widening the matrix
        tasks = self.corpus() + [
            make_task(id="t4", html='<p>Visit <a href="http://new.example">Acme</a> now</p>',
                      employer="c", countries=("FR",)),
        ]
        for set_name in FEATURE_SET_NAMES:
            ext = fit_extractor(set_name, tasks[:2])
            whole = ext.matrix(tasks)
            assert whole.n_cols == ext.n_cols, set_name
            assert ext.matrix([]).rows.shape == (0, ext.n_cols), set_name
            for i, task in enumerate(tasks):
                alone = ext.matrix([task])
                assert alone.n_cols == ext.n_cols, set_name
                np.testing.assert_array_equal(alone.rows[0], whole.rows[i], err_msg=set_name)

    def test_structural_title_independence(self):
        # structural extraction ignores any fitted state
        ext = fit_extractor("structural", self.corpus())
        single = ext.matrix([make_task(html="three words here.")])
        assert single.rows[0][0] == 3.0


def _cold(tasks):
    """Equal copies of the tasks that have not been analysed yet."""
    copies = [dataclasses.replace(task) for task in tasks]
    assert not any("analysis" in vars(task) for task in copies)
    return copies


def _analysis_fields(analysis):
    arrays = [analysis.structural, *analysis.term_ids((1, 1)), *analysis.term_ids((1, 2))]
    return (
        analysis.title_stems,
        analysis.description_stems,
        analysis.lower_words,
        analysis.named_entities,
        *(array.tobytes() for array in arrays),
    )


class TestTaskAnalysis:
    @pytest.fixture
    def tasks(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        generate_synthetic_corpus(path, seed=3, per_category=6)
        return list(load_corpus(path))

    @staticmethod
    def fitted_rows(name, train, held_out):
        ext = fit_extractor(name, train)
        return ext.matrix(train).rows, ext.matrix(held_out).rows

    @pytest.mark.parametrize("name", FEATURE_SET_NAMES)
    def test_matrices_equal_cold_and_warm(self, tasks, name):
        train, held_out = _cold(tasks[::3] + tasks[1::3]), _cold(tasks[2::3])
        cold = self.fitted_rows(name, train, held_out)
        warm = self.fitted_rows(name, train, held_out)
        train, held_out = _cold(train), _cold(held_out)
        for task in held_out:
            task.analysis
        held_out_first = self.fitted_rows(name, train, held_out)
        for got in (warm, held_out_first):
            assert np.array_equal(got[0], cold[0])
            assert np.array_equal(got[1], cold[1])

    def test_content_ranges_do_not_share_terms(self, tasks):
        tasks = _cold(tasks)
        unigrams = fit_content_model(tasks, ContentConfig(ngram_range=(1, 1)))
        both = fit_content_model(tasks, ContentConfig(ngram_range=(1, 2)))
        again = fit_content_model(tasks, ContentConfig(ngram_range=(1, 1)))
        assert not any(" " in term for term in unigrams.vocabulary)
        assert any(" " in term for term in both.vocabulary)
        assert again.vocabulary == unigrams.vocabulary
        assert again.doc_freq == unigrams.doc_freq

    def test_returned_arrays_do_not_reach_the_cache(self, tasks):
        task = tasks[0]
        expected = structural_features(task)
        first = structural_features(task)
        first[:] = -1.0
        assert np.array_equal(structural_features(task), expected)
        with pytest.raises(ValueError):
            task.analysis.structural[0] = -1.0
        for name in ("content", "structural", "semantic"):
            ext = fit_extractor(name, tasks)
            before = ext.matrix(tasks).rows.copy()
            ext.matrix(tasks).rows[:] = -1.0
            assert np.array_equal(ext.matrix(tasks).rows, before)

    def test_fresh_analysis_splits_each_field_once(self, monkeypatch):
        original = text_module.split_sentences
        calls = []

        def counting(s):
            calls.append(s)
            return original(s)

        holders = [
            module for name, module in list(sys.modules.items())
            if name.startswith("tasksim")
            and getattr(module, "split_sentences", None) is original
        ]
        assert text_module in holders
        for module in holders:
            monkeypatch.setattr(module, "split_sentences", counting)
        task = make_task(title="Rate it. Then go", html="<p>One here. Two there!</p>")
        assert task.analysis is task.analysis
        assert sorted(calls) == sorted([task.title, task.description_text])

    def test_equal_tasks_get_equal_analyses(self, tasks):
        task = tasks[0]
        (twin,) = _cold([task])
        assert twin.analysis is not task.analysis
        assert _analysis_fields(twin.analysis) == _analysis_fields(task.analysis)
        # the kept analysis is no field: equality, hash and repr ignore it
        assert twin == task and hash(twin) == hash(task) and repr(twin) == repr(task)
        retitled = dataclasses.replace(task, title=task.title + " Review the shop")
        assert retitled.analysis is not task.analysis
        assert retitled.analysis.title_stems != task.analysis.title_stems
        assert retitled.analysis.description_stems == task.analysis.description_stems

    def test_analyses_die_with_their_tasks(self, tasks):
        for name in FEATURE_SET_NAMES:
            fit_extractor(name, tasks).matrix(tasks)
        task_refs = [weakref.ref(task) for task in tasks]
        analysis_refs = [weakref.ref(task.analysis) for task in tasks]
        del tasks[:]
        # checked before any collection: an analysis that referred back to
        # its task would make a cycle that only gc.collect() frees
        assert all(ref() is None for ref in task_refs + analysis_refs)
