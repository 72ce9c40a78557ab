"""Tests for sentence splitting, tokenization, stemming and syllable counts."""

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasksim.text import (
    TokenStream,
    count_syllables,
    sentence_items,
    split_sentences,
    stem,
    stopwords,
    tokenize,
    word_tokens,
)

from conftest import TOKEN_TEXT


def _oracle_is_abbreviation(prefix: str) -> bool:
    m = re.search(r"\S+$", prefix)
    if m is None:
        return False
    tok = m.group(0).lstrip("(\"'[")
    if re.fullmatch(r"[A-Z]", tok):
        return True
    return (tok + ".").lower() in {"e.g.", "i.e.", "etc.", "vs.", "dr.", "mr."}


def _oracle_split_sentences(text: str) -> list[str]:
    """The prefix-scanning split_sentences, kept as the reference: each
    candidate period re-scans the whole prefix before it."""
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            sentences.append(text[start:i])
            start = i + 1
            i += 1
            continue
        if c in ".!?":
            j = i
            while j + 1 < n and text[j + 1] in ".!?":
                j += 1
            at_end = j + 1 >= n or text[j + 1].isspace()
            if at_end and not (
                c == "." and j == i and _oracle_is_abbreviation(text[:i])
            ):
                sentences.append(text[start : j + 1])
                start = j + 1
            i = j + 1
            continue
        i += 1
    sentences.append(text[start:])
    return [s for s in (s.strip() for s in sentences) if s]


def _oracle_sentence_stream(sentence: str):
    """The verb-phrase scanner semsim once had of its own, kept as the
    reference for sentence_items: word tokens and commas with character
    spans, in order."""
    items = []
    for match in re.finditer(r"[A-Za-z0-9'-]+|,", sentence):
        text = match.group(0)
        if text != "," and not any(ch.isalnum() for ch in text):
            continue
        items.append((text, match.start(), match.end()))
    return items


# Texts built from the pieces that matter to sentence boundaries: initials,
# abbreviations (any case), brackets and quotes before a token, terminator
# runs, and every kind of whitespace, newlines included.
_SENTENCE_TEXT = st.lists(
    st.one_of(
        st.sampled_from([
            "J", "a", "Go", "word", "e.g", "E.G", "i.e", "etc", "Etc", "vs",
            "Dr", "mr", "(", "[", '"', "'", '("', "x.y", "3", "J\n", "etc\n",
        ]),
        st.sampled_from([".", "..", "...", "?", "!", "?!", "!?", ".?", ","]),
        st.sampled_from([" ", "  ", "\n", "\n\n", " \n", "\t", "\r", "\u00a0"]),
        st.text(alphabet="aJ.!? \n(\"'[e", max_size=6),
    ),
    max_size=40,
).map("".join)


class TestSplitSentences:
    def test_basic_terminators(self):
        assert split_sentences("Hi. Go now!") == ["Hi.", "Go now!"]

    def test_abbreviation_not_boundary(self):
        assert split_sentences("Visit e.g. this site.") == ["Visit e.g. this site."]

    def test_single_letter_abbreviation(self):
        assert split_sentences("John J. Smith wrote it.") == ["John J. Smith wrote it."]

    def test_lowercase_single_letter_is_boundary(self):
        assert split_sentences("a, b. c d.") == ["a, b.", "c d."]

    def test_newline_is_boundary(self):
        assert split_sentences("First line\nsecond line") == ["First line", "second line"]

    def test_question_and_ellipsis(self):
        assert split_sentences("Really? Wait... done.") == ["Really?", "Wait...", "done."]

    def test_no_empty_sentences(self):
        assert split_sentences("  \n\n .  ") == ["."]
        assert split_sentences("") == []

    def test_terminator_kept(self):
        for s in split_sentences("One. Two! Three?"):
            assert s[-1] in ".!?"

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300))
    @settings(max_examples=200)
    def test_sentences_nonempty_and_stripped(self, text):
        for s in split_sentences(text):
            assert s == s.strip()
            assert s

    @given(_SENTENCE_TEXT)
    @settings(max_examples=500)
    def test_matches_prefix_scanning_oracle(self, text):
        assert split_sentences(text) == _oracle_split_sentences(text)

    def test_period_after_one_newline_reads_the_token_before_it(self):
        # "J" before a single newline still guards the period, as the oracle's
        # `\S+$` (which also matches before one final newline) finds it
        assert split_sentences("J\n. x") == ["J", ". x"]
        assert split_sentences("J\n\n. x") == ["J", ".", "x"]
        assert split_sentences("J \n. x") == ["J", ".", "x"]

    def test_long_text_is_linear(self):
        # 4x the text should cost about 4x the time; the prefix-scanning
        # version took about 16x
        unit = "Dr. Smith e.g. said J. Doe wrote it. " * 1000

        def seconds(text):
            start = time.perf_counter()
            split_sentences(text)
            return time.perf_counter() - start

        small = min(seconds(unit) for _ in range(3))
        large = min(seconds(unit * 4) for _ in range(3))
        assert large < 8 * small


    def test_only_a_lone_period_is_checked_for_an_abbreviation(self):
        # a run of terminators ends the sentence even after an initial or
        # an abbreviation
        assert split_sentences("Call J.. Then go.") == ["Call J..", "Then go."]
        assert split_sentences("Dr.? Yes. etc.! No") == ["Dr.?", "Yes.", "etc.!", "No"]


class TestTokenize:
    def test_spec_options_chain(self):
        stream = tokenize(
            "Click the link!", drop_stopwords=True, stem_tokens=True
        )
        assert stream.normalized == ("click", "link")

    def test_hyphenated_is_single_token(self):
        assert tokenize("sign-up").normalized == ("sign-up",)

    def test_apostrophe_stays_inside_word(self):
        assert tokenize("don't stop").normalized == ("don't", "stop")

    def test_sentence_indices(self):
        stream = tokenize("One two. Three.")
        assert [t.sentence_index for t in stream] == [0, 0, 1]

    def test_sentence_items_hand_example(self):
        assert sentence_items("Go, e-mail it!") == [
            ("Go", 0, 2), (",", 2, 3), ("e-mail", 4, 10), ("it", 11, 13),
        ]

    @given(TOKEN_TEXT)
    @settings(max_examples=300)
    def test_sentence_items_match_old_stream(self, text):
        assert sentence_items(text) == _oracle_sentence_stream(text)
        for sentence in split_sentences(text):
            assert sentence_items(sentence) == _oracle_sentence_stream(sentence)

    @given(TOKEN_TEXT)
    @settings(max_examples=200)
    def test_stream_keeps_its_sentences(self, text):
        stream = tokenize(text)
        assert stream.sentences == tuple(split_sentences(text))
        for tok in stream:
            assert tok.surface in word_tokens(stream.sentences[tok.sentence_index])

    def test_long_hyphen_run_is_linear(self):
        # a run of hyphens and apostrophes with no letter or digit holds no
        # word token; 4x the run should cost about 4x the time, where a
        # pattern that retries the run from each of its characters takes 16x
        def seconds(text):
            start = time.perf_counter()
            word_tokens(text)
            sentence_items(text)
            return time.perf_counter() - start

        unit = "-'" * 2500
        small = min(seconds(unit) for _ in range(5))
        large = min(seconds(unit * 4) for _ in range(5))
        assert large < 8 * small

    def test_word_tokens_helper(self):
        assert word_tokens("a b-c, d!") == ["a", "b-c", "d"]
        assert word_tokens("-- !!") == []

    @given(
        st.one_of(
            _SENTENCE_TEXT,
            st.text(alphabet="ab-'3.!? \n,", max_size=80),
            st.text(max_size=80),
        )
    )
    @settings(max_examples=300)
    def test_word_surfaces_are_the_word_tokens(self, text):
        # sentence splitting never cuts a word token, so the per-sentence
        # stream holds exactly the word tokens of the whole text
        stream = tokenize(text)
        assert stream.surfaces == tuple(word_tokens(text))
        assert stream.normalized == tuple(w.lower() for w in word_tokens(text))

    def test_stopword_list_loaded(self):
        stops = stopwords()
        assert "the" in stops and "and" in stops
        assert "click" not in stops

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_default_tokens_lowercase_wordlike(self, text):
        for tok in tokenize(text):
            assert re.fullmatch(r"[a-z0-9'-]+", tok.normalized)
            assert re.search(r"[a-z0-9]", tok.normalized)

    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_retokenizing_join_is_fixed_point(self, text):
        # joining word tokens with spaces and tokenizing again is stable
        once = tokenize(text).normalized
        again = tokenize(" ".join(once)).normalized
        assert again == once

    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_sentence_indices_nondecreasing(self, text):
        idx = [t.sentence_index for t in tokenize(text)]
        assert idx == sorted(idx)


class TestStem:
    # Expected values derived by hand from the original 1980 rule tables.
    FROZEN = [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("bled", "bled"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("hopping", "hop"),
        ("falling", "fall"),
        ("filing", "file"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("digitizer", "digit"),
        ("operator", "oper"),
        ("decisiveness", "decis"),
        ("triplicate", "triplic"),
        ("formalize", "formal"),
        ("electrical", "electr"),
        ("hopeful", "hope"),
        ("goodness", "good"),
        ("adjustable", "adjust"),
        ("replacement", "replac"),
        ("adoption", "adopt"),
        ("activate", "activ"),
        ("effective", "effect"),
        ("argue", "argu"),
        ("argument", "argument"),
        ("transition", "transit"),
        ("installation", "instal"),
        ("classification", "classif"),
        ("crowdsourcing", "crowdsourc"),
        ("similarity", "similar"),
        ("comprehensibility", "comprehens"),
        # original rule table keeps -bli and -ogi endings
        ("nobly", "nobli"),
        ("geology", "geologi"),
    ]

    @pytest.mark.parametrize("word,expected", FROZEN)
    def test_frozen_vocabulary(self, word, expected):
        assert stem(word) == expected

    def test_short_words_unchanged(self):
        assert stem("a") == "a"
        assert stem("to") == "to"
        assert stem("is") == "is"

    @given(st.from_regex(r"[a-z]{1,20}", fullmatch=True))
    @settings(max_examples=300)
    def test_stem_never_longer(self, word):
        out = stem(word)
        assert len(out) <= len(word) + 1  # only the +e restorations can grow a stem
        assert out

    @given(st.from_regex(r"[a-z]{3,15}", fullmatch=True))
    @settings(max_examples=300)
    def test_stem_deterministic(self, word):
        assert stem(word) == stem(word)


class TestCountSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("banana", 3),
            ("table", 2),
            ("make", 1),
            ("see", 1),
            ("the", 1),
            ("rhythm", 1),
            ("beautiful", 3),
            ("idea", 2),
            ("ple", 1),
            ("apple", 2),
        ],
    )
    def test_examples(self, word, expected):
        assert count_syllables(word) == expected

    def test_case_insensitive(self):
        assert count_syllables("TABLE") == count_syllables("table")

    @given(st.from_regex(r"[A-Za-z]{1,20}", fullmatch=True))
    @settings(max_examples=300)
    def test_at_least_one(self, word):
        assert count_syllables(word) >= 1


class TestTokenStream:
    def test_len_and_iter(self):
        stream = tokenize("one two three")
        assert len(stream) == 3
        assert [t.normalized for t in stream] == ["one", "two", "three"]

    def test_surfaces_preserved(self):
        stream = tokenize("Hello World")
        assert stream.surfaces == ("Hello", "World")
        assert stream.normalized == ("hello", "world")

    def test_is_value_object(self):
        a = tokenize("x y")
        b = tokenize("x y")
        assert a == b
        assert isinstance(a, TokenStream)
