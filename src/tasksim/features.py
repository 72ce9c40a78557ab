"""Feature extraction: factual, content (tf-idf), structural, semantic sets.

Every extractor is fitted on training tasks only and builds the rows of any
task list, empty too, in one array, so each set's column layout and width
are written once, in its row builder. Fitting and extraction are pure, so
per-fold refits cannot leak evaluation data. `combine_features` concatenates
sets column-wise for the grid runs.

Text is analysed once per task: `MicroTask.analysis` tokenizes, stems and
measures the task on first use and keeps the `TaskAnalysis` on the task, so
folds, grid cells and feature sets share it. The analysis depends on the
task alone, never on a training split.

The content set reads a term table. Each distinct n-gram term gets an
integer id the first time any task's analysis asks for it, from one table
shared by all tasks; ids are never reused or renumbered. Once per task and
n-gram range, the analysis keeps its distinct term ids and their counts as
two arrays. A fold's fit is then a fixed number of array calls: one
`np.bincount` over the training tasks' ids for the document frequencies,
one integer sort of the kept ids by their lexicographic rank (the ranks of
the whole table, kept until the table grows) and one `math.log` per
distinct document frequency. A fold's matrix is one scatter of `tf * idf`
into the kept columns and one batched row norm. The sentiment score is
likewise counted once per task and lexicon.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .corpus import MicroTask
from .text import count_syllables, stem, stopwords, word_tokens

__all__ = [
    "FEATURE_SET_NAMES",
    "FeatureMatrix",
    "ContentConfig",
    "ContentModel",
    "FittedExtractor",
    "TaskAnalysis",
    "build_analysis",
    "combine_features",
    "content_matrix",
    "fit_content_model",
    "fit_country_vocab",
    "fit_employer_vocab",
    "fit_extractor",
    "fit_host_vocab",
    "gunning_fog",
    "load_sentiment_lexicon",
    "default_sentiment_lexicon",
]

FEATURE_SET_NAMES = ("factual", "content", "structural", "semantic")

_TTR_WINDOW = 100


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Numeric task-by-feature matrix with the tags of the sets it holds; a
    column is known by its position, in the order README's feature table gives."""

    rows: np.ndarray
    provenance: frozenset[str]

    def __post_init__(self):
        if self.rows.ndim != 2:
            raise ValueError("feature rows must be a 2-D array")
        if self.rows.size and not np.all(np.isfinite(self.rows)):
            raise ValueError("non-finite feature value")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]


# ---------------------------------------------------------------------------
# factual
# ---------------------------------------------------------------------------

def _vocab(values: Iterable[str]) -> dict[str, int]:
    """Each distinct value at its index in sorted order."""
    return {value: i for i, value in enumerate(sorted(set(values)))}


def fit_employer_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    return _vocab(t.employer for t in tasks if t.employer)


def fit_country_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    return _vocab(c for t in tasks for c in t.countries)


def _hot(vocab: Mapping[str, int], per_task: list[Iterable[str]]) -> np.ndarray:
    """One multi-hot row per task over vocab's columns plus a last "other"
    column that any value missing from vocab sets."""
    out = np.zeros((len(per_task), len(vocab) + 1))
    for i, values in enumerate(per_task):
        for value in values:
            out[i, vocab.get(value, len(vocab))] = 1.0
    return out


def _factual_rows(
    tasks: list[MicroTask], employer_vocab: Mapping[str, int], country_vocab: Mapping[str, int]
) -> np.ndarray:
    """One factual row per task: payment/time/position numerics, payment
    per minute (0 with its own flag column when time_to_finish is 0),
    employer one-hot plus "other", country multi-hot plus "other". Empty
    country set means the task is open to all countries and leaves every
    country column at 0."""
    timed = [t.time_to_finish > 0 for t in tasks]
    numerics = [
        [t.payment for t in tasks],
        [t.time_to_rate for t in tasks],
        [t.time_to_finish for t in tasks],
        [t.positions for t in tasks],
        [t.payment / t.time_to_finish if ok else 0.0 for t, ok in zip(tasks, timed)],
        [0.0 if ok else 1.0 for ok in timed],
    ]
    employers = _hot(employer_vocab, [(t.employer,) if t.employer else () for t in tasks])
    countries = _hot(country_vocab, [t.countries for t in tasks])
    return np.hstack([np.array(numerics, dtype=float).T, employers, countries])


# ---------------------------------------------------------------------------
# structural
# ---------------------------------------------------------------------------

STRUCTURAL_FEATURE_NAMES = (
    "word_count",
    "bullet_count",
    "avg_words_per_sentence",
    "avg_commas_per_sentence",
    "avg_chars_per_word",
    "avg_paragraph_length",
    "avg_line_length",
    "gunning_fog",
    "lexical_diversity",
)


def gunning_fog(words: int, sentences: int, complex_words: int) -> float:
    """0.4 * (words/sentences + 100 * complex/words); 0 when words or
    sentences is 0. A complex word has three or more syllables."""
    if words == 0 or sentences == 0:
        return 0.0
    return 0.4 * (words / sentences + 100.0 * complex_words / words)


def _structural_rows(tasks: list[MicroTask]) -> np.ndarray:
    """Each task's nine layout/readability features, as its analysis
    computed them on description_text (title excluded)."""
    rows = [t.analysis.structural for t in tasks]
    return np.reshape(rows, (len(tasks), len(STRUCTURAL_FEATURE_NAMES)))


def _structural_row(
    task: MicroTask, words, lower_words, n_sents, complex_words
) -> np.ndarray:
    """The structural features of one task. Averages with a zero
    denominator are 0; the type-token ratio reads the first 100 lowercased
    words, and is 0 if there are none. No word token crosses a newline, so
    the blank-line-separated paragraphs' word counts sum to `len(words)`;
    lines are the non-empty newline-separated parts, in characters."""
    text = task.description_text
    n_words = len(words)
    lines = [len(line) for line in text.split("\n") if line]
    window = lower_words[:_TTR_WINDOW]
    return np.array(
        [
            float(n_words),
            float(task.structure.bullet_count),
            n_words / n_sents if n_sents else 0.0,
            text.count(",") / n_sents if n_sents else 0.0,
            sum(map(len, words)) / n_words if n_words else 0.0,
            n_words / (text.count("\n\n") + 1),
            sum(lines) / len(lines) if lines else 0.0,
            gunning_fog(n_words, n_sents, complex_words),
            len(set(window)) / len(window) if window else 0.0,
        ]
    )


# ---------------------------------------------------------------------------
# semantic
# ---------------------------------------------------------------------------

def fit_host_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    return _vocab(h for t in tasks for h in t.structure.url_hosts)


def load_sentiment_lexicon(path) -> dict[str, int]:
    """Parse a `word<TAB>+1|-1` lexicon file; '#' starts a comment line."""
    lexicon: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in ("+1", "-1"):
            raise ValueError(f"line {line_no}: expected 'word<TAB>+1|-1'")
        lexicon[parts[0].lower()] = int(parts[1])
    return lexicon


def default_sentiment_lexicon() -> dict[str, int]:
    return load_sentiment_lexicon(
        Path(__file__).resolve().parent / "resources" / "sentiment.tsv"
    )


# Every lexicon seen, as its (word, polarity) pairs, interned by content: a
# task's sentiment is cached under the interned key, so that each fold's
# copy of the same lexicon finds it by identity.
_LEXICONS: dict[frozenset, frozenset] = {}


def _lexicon_key(lexicon: Mapping[str, int]) -> frozenset:
    key = frozenset(lexicon.items())
    return _LEXICONS.setdefault(key, key)


@functools.cache
def _default_lexicon_key() -> frozenset:
    """The bundled lexicon, read and interned once per process."""
    return _lexicon_key(default_sentiment_lexicon())


def _semantic_rows(
    tasks: list[MicroTask], lexicon: frozenset, host_vocab: Mapping[str, int]
) -> np.ndarray:
    """One semantic row per task: link-host multi-hot plus "other",
    mid-sentence capitalized token count, and lexicon sentiment
    (pos-neg)/max(1, pos+neg)."""
    hosts = _hot(host_vocab, [t.structure.url_hosts for t in tasks])
    entities = [float(t.analysis.named_entities) for t in tasks]
    return np.column_stack([hosts, entities, [t.analysis.sentiment(lexicon) for t in tasks]])


# ---------------------------------------------------------------------------
# content (tf-idf)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContentConfig:
    ngram_range: tuple[int, int] = (1, 2)
    min_df: int = 2
    max_features: int = 10000


# The term table: every n-gram term an analysis has asked for, at its id.
# It only grows, so an id stays valid for the life of the process.
_TERM_IDS: dict[str, int] = {}
_TERMS: list[str] = []


def _term_id(term: str) -> int:
    term_id = _TERM_IDS.get(term)
    if term_id is None:
        term_id = _TERM_IDS[term] = len(_TERMS)
        _TERMS.append(term)
    return term_id


@dataclass(frozen=True, eq=False)
class ContentModel:
    """A fitted tf-idf vocabulary over `n_docs` training tasks, in the form a
    matrix reads: `columns` (term-table id -> column, -1 where the term has
    no column) and `idf` (ln(n_docs/df) per column); a term that entered the
    term table after the fit lies past the end of `columns` and so has no
    column either. Columns are in lexicographic term order.

    `vocabulary` (each kept term -> its column) and `doc_freq` (each kept
    term -> its document frequency) are made from the kept ids on first
    read; a CV fold never reads them."""

    n_docs: int
    ngram_range: tuple[int, int]
    columns: np.ndarray = field(repr=False)
    idf: np.ndarray = field(repr=False)
    # the kept term-table ids in column order, and their document frequencies
    _kept: np.ndarray = field(repr=False)
    _kept_df: np.ndarray = field(repr=False)

    @functools.cached_property
    def vocabulary(self) -> dict[str, int]:
        return {_TERMS[i]: column for column, i in enumerate(self._kept.tolist())}

    @functools.cached_property
    def doc_freq(self) -> dict[str, int]:
        return dict(zip(self.vocabulary, self._kept_df.tolist()))


# Each term-table id's position in the lexicographic order of the whole
# table, rebuilt when the table has grown since it was made.
_RANK = np.empty(0, dtype=np.intp)


def _term_ranks() -> np.ndarray:
    global _RANK
    if len(_RANK) != len(_TERMS):
        _RANK = np.empty(len(_TERMS), dtype=np.intp)
        _RANK[sorted(range(len(_TERMS)), key=_TERMS.__getitem__)] = np.arange(len(_TERMS))
    return _RANK


def fit_content_model(
    training_tasks: Iterable[MicroTask], config: ContentConfig | None = None
) -> ContentModel:
    """Build the tf-idf vocabulary from title+description n-grams of the
    training tasks: keep terms with document frequency >= min_df, truncate to
    max_features by descending df (ties lexicographic), columns in
    lexicographic order."""
    config = config or ContentConfig()
    tasks = list(training_tasks)
    if not tasks:
        raise ValueError("cannot fit a content model on an empty training set")
    ids = [task.analysis.term_ids(config.ngram_range)[0] for task in tasks]
    df = np.bincount(np.concatenate(ids), minlength=len(_TERMS))
    eligible = np.flatnonzero(df >= max(config.min_df, 1))
    kept = eligible[np.argsort(_term_ranks()[eligible])]
    if len(kept) > config.max_features:
        # a stable sort by -df over lexicographic order ranks by (-df, term)
        ranked = np.argsort(-df[kept], kind="stable")[: config.max_features]
        kept = kept[np.sort(ranked)]
    kept_df = df[kept]
    distinct, which = np.unique(kept_df, return_inverse=True)
    columns = np.full(len(_TERMS), -1, dtype=np.intp)
    columns[kept] = np.arange(len(kept))
    return ContentModel(
        n_docs=len(tasks),
        ngram_range=config.ngram_range,
        columns=columns,
        # math.log, not np.log: their last bits can differ
        idf=np.array([math.log(len(tasks) / d) for d in distinct.tolist()])[which],
        _kept=kept,
        _kept_df=kept_df,
    )


def content_matrix(model: ContentModel, tasks: Iterable[MicroTask]) -> np.ndarray:
    """One row per task of tf * ln(n_docs/df) over vocabulary terms,
    L2-normalized when nonzero, scattered into one matrix; out-of-vocabulary
    terms are ignored."""
    tables = [task.analysis.term_ids(model.ngram_range) for task in tasks]
    out = np.zeros((len(tables), len(model.idf)))
    if not tables:
        return out
    ids = np.concatenate([ids for ids, _ in tables])
    tf = np.concatenate([tf for _, tf in tables])
    rows = np.repeat(np.arange(len(tables)), [len(ids) for ids, _ in tables])
    known = ids < len(model.columns)
    cols = model.columns[ids[known]]
    hit = cols >= 0
    cols = cols[hit]
    out[rows[known][hit], cols] = tf[known][hit] * model.idf[cols]
    # each row's dot with itself, the same BLAS ddot as np.linalg.norm of
    # that row alone (einsum's sum need not match its bits); a zero row is
    # divided by 1 and stays as it is
    norms = np.sqrt(np.vecdot(out, out))
    out /= np.where(norms > 0, norms, 1.0)[:, None]
    return out


# ---------------------------------------------------------------------------
# per-task analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TaskAnalysis:
    """What the feature sets and the comprehensibility measure read from one
    task's text: `MicroTask.analysis`, built once per task object by
    `build_analysis` from the task's `sentences` (the one split of its title
    and of its description, which the verb-phrase scanner reads too) and the
    `word_tokens` of each sentence. It holds no reference to its task. Treat
    it as read-only (`structural` and the `term_ids` arrays are read-only
    arrays)."""

    # title and description tokens, stopwords dropped, stemmed
    title_stems: tuple[str, ...]
    description_stems: tuple[str, ...]
    # description word tokens, lowercased
    lower_words: tuple[str, ...]
    # the nine structural features of the description
    structural: np.ndarray
    # description word tokens that start with a capital, are no stopword
    # and are not the first word token of their sentence
    named_entities: int
    _term_ids: dict = field(default_factory=dict, repr=False)
    _sentiment: dict = field(default_factory=dict, repr=False)

    def terms(self, ngram_range: tuple[int, int]) -> Counter:
        """Counts of the title and description n-grams of stems for each n
        in ngram_range; n-grams never cross the title/description boundary."""
        lo, hi = ngram_range
        terms: list[str] = []
        for toks in (self.title_stems, self.description_stems):
            for n in range(lo, hi + 1):
                terms.extend(" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1))
        return Counter(terms)

    def term_ids(self, ngram_range: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """The distinct `terms(ngram_range)` as term-table ids, and their
        counts as floats, in the same order; made once per range."""
        try:
            return self._term_ids[ngram_range]
        except (KeyError, TypeError):  # not made yet, or a list for a range
            key = tuple(ngram_range)
        table = self._term_ids.get(key)
        if table is None:
            counts = self.terms(key)
            ids = np.fromiter(map(_term_id, counts), dtype=np.intp, count=len(counts))
            tf = np.fromiter(counts.values(), dtype=float, count=len(counts))
            ids.setflags(write=False)
            tf.setflags(write=False)
            table = self._term_ids[key] = (ids, tf)
        return table

    def sentiment(self, lexicon: frozenset) -> float:
        """(pos - neg) / max(1, pos + neg) over the lowercased description
        words, for a lexicon interned by `_lexicon_key`; counted once per
        lexicon."""
        score = self._sentiment.get(lexicon)
        if score is None:
            polarities = dict(lexicon)
            pos = neg = 0
            for tok in self.lower_words:
                polarity = polarities.get(tok)
                if polarity == 1:
                    pos += 1
                elif polarity == -1:
                    neg += 1
            score = self._sentiment[lexicon] = (pos - neg) / max(1, pos + neg)
        return score


@functools.lru_cache(maxsize=None)
def _word_facts(word: str) -> tuple[str, str | None, bool, bool]:
    """What an analysis reads of one word token: its lowercase form; the
    stem of that, or None for a stopword; whether it is a named entity
    where it is not sentence-initial (it starts with a capital and is no
    stopword); and whether it is complex (three or more syllables).
    Memoized by surface form, as `stem` is."""
    lower = word.lower()
    stop = lower in stopwords()
    return (
        lower,
        None if stop else stem(lower),
        word[0].isupper() and not stop,
        count_syllables(word) >= 3,
    )


_LOWER, _STEM, _ENTITY, _COMPLEX = (operator.itemgetter(i) for i in range(4))


def build_analysis(task: MicroTask) -> TaskAnalysis:
    """The `TaskAnalysis` of one task, from `task.sentences`, the
    `word_tokens` of each sentence and each token's `_word_facts`."""
    title_sentences, sentences = task.sentences
    words: list[str] = []
    facts: list[tuple] = []
    named_entities = 0
    for sentence in sentences:
        sentence_words = word_tokens(sentence)
        sentence_facts = list(map(_word_facts, sentence_words))
        words += sentence_words
        facts += sentence_facts
        named_entities += sum(map(_ENTITY, sentence_facts[1:]))
    lower_words = tuple(map(_LOWER, facts))
    complex_words = sum(map(_COMPLEX, facts))
    structural = _structural_row(
        task, words, lower_words, len(sentences), complex_words
    )
    structural.setflags(write=False)
    title_stems = (
        _word_facts(w)[1] for s in title_sentences for w in word_tokens(s)
    )
    return TaskAnalysis(
        title_stems=tuple(t for t in title_stems if t is not None),
        description_stems=tuple(t for t in map(_STEM, facts) if t is not None),
        lower_words=lower_words,
        structural=structural,
        named_entities=named_entities,
    )


# ---------------------------------------------------------------------------
# combination and fitted-extractor plumbing
# ---------------------------------------------------------------------------

def combine_features(parts: list[FeatureMatrix]) -> FeatureMatrix:
    """Column-wise concatenation in the order given (CV passes the sets in
    FEATURE_SET_NAMES order), tagged with the union of the parts' tags; a
    single part is returned as it is."""
    if not parts:
        raise ValueError("no feature matrices to combine")
    if len(parts) == 1:
        return parts[0]
    n_rows = parts[0].n_rows
    for part in parts:
        if part.n_rows != n_rows:
            raise ValueError(f"row-count mismatch: {part.n_rows} vs {n_rows}")
    rows = np.hstack([part.rows for part in parts])
    provenance = frozenset().union(*(part.provenance for part in parts))
    return FeatureMatrix(rows, provenance)


@dataclass(frozen=True)
class FittedExtractor:
    """One feature set fitted on training tasks: `matrix` maps any task list,
    empty too, to an equally wide FeatureMatrix of its `rows` array."""

    set_name: str
    rows: Callable[[list[MicroTask]], np.ndarray]

    def matrix(self, tasks: Iterable[MicroTask]) -> FeatureMatrix:
        return FeatureMatrix(self.rows(list(tasks)), frozenset({self.set_name}))


def fit_extractor(
    set_name: str,
    train_tasks: Iterable[MicroTask],
    *,
    sentiment_lexicon: Mapping[str, int] | None = None,
) -> FittedExtractor:
    """Fit one named feature set ("factual", "content", "structural",
    "semantic") on the given training tasks; content uses the default
    ContentConfig."""
    train = tuple(train_tasks)
    if set_name == "factual":
        employer_vocab = fit_employer_vocab(train)
        country_vocab = fit_country_vocab(train)
        return FittedExtractor(
            set_name, lambda tasks: _factual_rows(tasks, employer_vocab, country_vocab)
        )
    if set_name == "structural":
        return FittedExtractor(set_name, _structural_rows)
    if set_name == "semantic":
        if sentiment_lexicon is None:
            lexicon = _default_lexicon_key()
        else:
            lexicon = _lexicon_key(sentiment_lexicon)
        host_vocab = fit_host_vocab(train)
        return FittedExtractor(
            set_name, lambda tasks: _semantic_rows(tasks, lexicon, host_vocab)
        )
    if set_name == "content":
        model = fit_content_model(train)
        return FittedExtractor(set_name, lambda tasks: content_matrix(model, tasks))
    raise ValueError(f"unknown feature set '{set_name}'")
