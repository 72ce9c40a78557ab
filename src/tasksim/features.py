"""Feature extraction: factual, content (tf-idf), structural, semantic sets.

Every extractor is fitted on training tasks only and applied to any task;
fitting and extraction are pure so per-fold refits cannot leak evaluation
data. `combine_features` concatenates sets column-wise for the grid runs.

Text is analysed once per task: `analyse` tokenizes, stems and measures a
task on first request and keeps the `TaskAnalysis` while the task lives, so
folds, grid cells and feature sets share it. The analysis depends on the
task alone, never on a training split.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable, Mapping

import numpy as np

from .corpus import MicroTask
from .text import count_syllables, split_sentences, stem, stopwords, tokenize, word_tokens

__all__ = [
    "FEATURE_SET_NAMES",
    "FeatureMatrix",
    "ContentConfig",
    "ContentModel",
    "FittedExtractor",
    "TaskAnalysis",
    "analyse",
    "combine_features",
    "content_vector",
    "factual_features",
    "fit_content_model",
    "fit_country_vocab",
    "fit_employer_vocab",
    "fit_extractor",
    "fit_host_vocab",
    "gunning_fog",
    "lexical_diversity",
    "load_sentiment_lexicon",
    "default_sentiment_lexicon",
    "semantic_features",
    "structural_features",
]

FEATURE_SET_NAMES = ("factual", "content", "structural", "semantic")

_TTR_WINDOW = 100


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Numeric task-by-feature matrix with set provenance tags."""

    column_names: tuple[str, ...]
    rows: np.ndarray
    provenance: frozenset[str]

    def __post_init__(self):
        if len(set(self.column_names)) != len(self.column_names):
            raise ValueError("duplicate column names")
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.column_names):
            raise ValueError("row width does not match column names")
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

def fit_employer_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    names = sorted({t.employer for t in tasks if t.employer})
    return {name: i for i, name in enumerate(names)}


def fit_country_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    codes = sorted({c for t in tasks for c in t.countries})
    return {code: i for i, code in enumerate(codes)}


def factual_feature_names(
    employer_vocab: Mapping[str, int], country_vocab: Mapping[str, int]
) -> tuple[str, ...]:
    employers = sorted(employer_vocab, key=employer_vocab.__getitem__)
    countries = sorted(country_vocab, key=country_vocab.__getitem__)
    return (
        "payment",
        "time_to_rate",
        "time_to_finish",
        "positions",
        "payment_per_minute",
        "payment_per_minute_undefined",
        *(f"employer={e}" for e in employers),
        "employer=<other>",
        *(f"country={c}" for c in countries),
        "country=<other>",
    )


def factual_features(
    task: MicroTask,
    employer_vocab: Mapping[str, int],
    country_vocab: Mapping[str, int],
) -> np.ndarray:
    """Factual vector: payment/time/position numerics, payment per minute
    (0 with its own flag column when time_to_finish is 0), employer one-hot
    plus "other", country multi-hot plus "other". Empty country set means the
    task is open to all countries and leaves every country column at 0."""
    if task.time_to_finish > 0:
        ppm, undefined = task.payment / task.time_to_finish, 0.0
    else:
        ppm, undefined = 0.0, 1.0
    emp = np.zeros(len(employer_vocab) + 1)
    if task.employer:
        idx = employer_vocab.get(task.employer)
        emp[len(employer_vocab) if idx is None else idx] = 1.0
    ctry = np.zeros(len(country_vocab) + 1)
    for code in task.countries:
        idx = country_vocab.get(code)
        ctry[len(country_vocab) if idx is None else idx] = 1.0
    head = np.array(
        [task.payment, task.time_to_rate, task.time_to_finish, task.positions, ppm, undefined]
    )
    return np.concatenate([head, emp, ctry])


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


def lexical_diversity(tokens) -> float:
    """Type-token ratio over the first 100 normalized tokens; 0 if empty."""
    window = list(tokens.normalized[:_TTR_WINDOW])
    if not window:
        return 0.0
    return len(set(window)) / len(window)


def structural_features(task: MicroTask) -> np.ndarray:
    """The nine layout/readability features, computed on description_text
    (title excluded). Averages with a zero denominator are 0."""
    return analyse(task).structural.copy()


def _structural_row(task: MicroTask, stream, sentences: tuple[str, ...]) -> np.ndarray:
    text = task.description_text
    words = stream.surfaces
    n_words = len(words)
    n_sents = len(sentences)
    complex_words = sum(1 for w in words if count_syllables(w) >= 3)
    struct = task.structure

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    return np.array(
        [
            float(n_words),
            float(struct.bullet_count),
            n_words / n_sents if n_sents else 0.0,
            text.count(",") / n_sents if n_sents else 0.0,
            sum(len(w) for w in words) / n_words if n_words else 0.0,
            mean(struct.paragraph_lengths),
            mean(struct.line_lengths),
            gunning_fog(n_words, n_sents, complex_words),
            lexical_diversity(stream),
        ]
    )


# ---------------------------------------------------------------------------
# semantic
# ---------------------------------------------------------------------------

def fit_host_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    hosts = sorted({h for t in tasks for h in t.structure.url_hosts})
    return {h: i for i, h in enumerate(hosts)}


def load_sentiment_lexicon(path) -> dict[str, int]:
    """Parse a `word<TAB>+1|-1` lexicon file; '#' starts a comment line."""
    lexicon: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
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
    data = resources.files("tasksim.resources").joinpath("sentiment.tsv").read_text("utf-8")
    lexicon: dict[str, int] = {}
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, polarity = line.split("\t")
        lexicon[word.lower()] = int(polarity)
    return lexicon


def semantic_feature_names(host_vocab: Mapping[str, int]) -> tuple[str, ...]:
    hosts = sorted(host_vocab, key=host_vocab.__getitem__)
    return (*(f"host={h}" for h in hosts), "host=<other>", "named_entity_count", "sentiment")


def _named_entity_count(sentences: Iterable[str]) -> int:
    stops = stopwords()
    count = 0
    for sentence in sentences:
        for word in word_tokens(sentence)[1:]:
            if word[0].isupper() and word.lower() not in stops:
                count += 1
    return count


def semantic_features(
    task: MicroTask,
    sentiment_lexicon: Mapping[str, int],
    host_vocab: Mapping[str, int],
) -> np.ndarray:
    """Link-host multi-hot plus "other", mid-sentence capitalized token count,
    and lexicon sentiment (pos-neg)/max(1, pos+neg)."""
    hosts = np.zeros(len(host_vocab) + 1)
    for host in task.structure.url_hosts:
        idx = host_vocab.get(host)
        hosts[len(host_vocab) if idx is None else idx] = 1.0
    analysis = analyse(task)
    pos = neg = 0
    for tok in analysis.lower_words:
        polarity = sentiment_lexicon.get(tok)
        if polarity == 1:
            pos += 1
        elif polarity == -1:
            neg += 1
    sentiment = (pos - neg) / max(1, pos + neg)
    tail = np.array([float(analysis.named_entities), sentiment])
    return np.concatenate([hosts, tail])


# ---------------------------------------------------------------------------
# content (tf-idf)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContentConfig:
    ngram_range: tuple[int, int] = (1, 2)
    min_df: int = 2
    max_features: int = 10000


@dataclass(frozen=True)
class ContentModel:
    vocabulary: dict[str, int]
    doc_freq: dict[str, int]
    n_docs: int
    ngram_range: tuple[int, int]


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
    df: Counter = Counter()
    for task in tasks:
        df.update(analyse(task).terms(config.ngram_range).keys())
    eligible = [t for t, c in df.items() if c >= config.min_df]
    eligible.sort(key=lambda t: (-df[t], t))
    kept = sorted(eligible[: config.max_features])
    return ContentModel(
        vocabulary={t: i for i, t in enumerate(kept)},
        doc_freq={t: df[t] for t in kept},
        n_docs=len(tasks),
        ngram_range=config.ngram_range,
    )


def content_vector(model: ContentModel, task: MicroTask) -> np.ndarray:
    """tf * ln(n_docs/df) over vocabulary terms, L2-normalized when nonzero;
    out-of-vocabulary terms are ignored."""
    vec = np.zeros(len(model.vocabulary))
    for term, tf in analyse(task).terms(model.ngram_range).items():
        idx = model.vocabulary.get(term)
        if idx is not None:
            vec[idx] = tf * math.log(model.n_docs / model.doc_freq[term])
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


# ---------------------------------------------------------------------------
# per-task analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TaskAnalysis:
    """What the feature sets and the comprehensibility measure read from one
    task's text. Built once per task by `analyse`; treat it as read-only
    (`structural` is a read-only array, `terms` Counters are shared)."""

    # title and description tokens, stopwords dropped, stemmed
    title_stems: tuple[str, ...]
    description_stems: tuple[str, ...]
    # description word tokens as written and lowercased, and its sentences
    words: tuple[str, ...]
    lower_words: tuple[str, ...]
    sentences: tuple[str, ...]
    structural: np.ndarray
    named_entities: int
    _terms: dict = field(default_factory=dict, repr=False)

    def terms(self, ngram_range: tuple[int, int]) -> Counter:
        """Counts of the title and description n-grams of stems for each n
        in ngram_range; n-grams never cross the title/description boundary."""
        key = tuple(ngram_range)
        counts = self._terms.get(key)
        if counts is None:
            lo, hi = key
            terms: list[str] = []
            for toks in (self.title_stems, self.description_stems):
                for n in range(lo, hi + 1):
                    terms.extend(
                        " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
                    )
            counts = self._terms[key] = Counter(terms)
        return counts


# Entries go when their task is garbage-collected.
_ANALYSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def analyse(task: MicroTask) -> TaskAnalysis:
    """The task's TaskAnalysis, built on the first request and kept while
    the task lives."""
    analysis = _ANALYSES.get(task)
    if analysis is None:
        analysis = _ANALYSES[task] = _build_analysis(task)
    return analysis


def _build_analysis(task: MicroTask) -> TaskAnalysis:
    stops = stopwords()
    stream = tokenize(task.description_text)
    lower_words = stream.normalized
    sentences = tuple(split_sentences(task.description_text))
    structural = _structural_row(task, stream, sentences)
    structural.setflags(write=False)
    return TaskAnalysis(
        title_stems=tuple(
            stem(t) for t in tokenize(task.title).normalized if t not in stops
        ),
        description_stems=tuple(stem(t) for t in lower_words if t not in stops),
        words=stream.surfaces,
        lower_words=lower_words,
        sentences=sentences,
        structural=structural,
        named_entities=_named_entity_count(sentences),
    )


# ---------------------------------------------------------------------------
# combination and fitted-extractor plumbing
# ---------------------------------------------------------------------------

def combine_features(parts: list[FeatureMatrix]) -> FeatureMatrix:
    """Column-wise concatenation. Single-set parts get their names prefixed
    with the set tag; already-combined parts keep theirs."""
    if not parts:
        raise ValueError("no feature matrices to combine")
    n_rows = parts[0].n_rows
    for part in parts:
        if part.n_rows != n_rows:
            raise ValueError(
                f"row-count mismatch: {part.n_rows} vs {n_rows}"
            )
    names: list[str] = []
    for part in parts:
        if len(part.provenance) == 1:
            (tag,) = part.provenance
            names.extend(f"{tag}:{c}" for c in part.column_names)
        else:
            names.extend(part.column_names)
    rows = np.hstack([part.rows for part in parts]) if parts else np.zeros((0, 0))
    provenance = frozenset().union(*(part.provenance for part in parts))
    return FeatureMatrix(tuple(names), rows, provenance)


@dataclass(frozen=True)
class FittedExtractor:
    """One feature set fitted on training tasks; maps any task list to a
    FeatureMatrix with stable columns."""

    set_name: str
    _extract: Callable

    def matrix(self, tasks: Iterable[MicroTask]) -> FeatureMatrix:
        return self._extract(tuple(tasks))


def _stack(rows: list[np.ndarray], width: int) -> np.ndarray:
    if rows:
        return np.vstack(rows)
    return np.zeros((0, width))


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
        names = factual_feature_names(employer_vocab, country_vocab)

        def extract(tasks):
            rows = [factual_features(t, employer_vocab, country_vocab) for t in tasks]
            return FeatureMatrix(names, _stack(rows, len(names)), frozenset({"factual"}))

    elif set_name == "structural":
        names = STRUCTURAL_FEATURE_NAMES

        def extract(tasks):
            rows = [structural_features(t) for t in tasks]
            return FeatureMatrix(names, _stack(rows, len(names)), frozenset({"structural"}))

    elif set_name == "semantic":
        lexicon = dict(sentiment_lexicon) if sentiment_lexicon is not None else default_sentiment_lexicon()
        host_vocab = fit_host_vocab(train)
        names = semantic_feature_names(host_vocab)

        def extract(tasks):
            rows = [semantic_features(t, lexicon, host_vocab) for t in tasks]
            return FeatureMatrix(names, _stack(rows, len(names)), frozenset({"semantic"}))

    elif set_name == "content":
        model = fit_content_model(train)
        names = tuple(sorted(model.vocabulary, key=model.vocabulary.__getitem__))

        def extract(tasks):
            rows = [content_vector(model, t) for t in tasks]
            return FeatureMatrix(names, _stack(rows, len(names)), frozenset({"content"}))

    else:
        raise ValueError(f"unknown feature set '{set_name}'")

    return FittedExtractor(set_name, extract)
