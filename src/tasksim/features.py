"""Feature extraction: factual, content (tf-idf), structural, semantic sets.

Every extractor is fitted on training tasks only and applied to any task;
fitting and extraction are pure so per-fold refits cannot leak evaluation
data. `combine_features` concatenates sets column-wise for the grid runs.

Text is analysed once per task: `MicroTask.analysis` tokenizes, stems and
measures the task on first use and keeps the `TaskAnalysis` on the task, so
folds, grid cells and feature sets share it. The analysis depends on the
task alone, never on a training split.

The content set reads a term table. Each distinct n-gram term gets an
integer id the first time any task's analysis asks for it, from one table
shared by all tasks; ids are never reused or renumbered. Once per task and
n-gram range, the analysis keeps its distinct term ids and their counts as
two arrays. A fold's fit is then one `np.bincount` over the training tasks'
ids for the document frequencies, and a fold's matrix is one scatter of
`tf * idf` into the kept columns. The sentiment score is likewise counted
once per task and lexicon.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .corpus import MicroTask
from .text import count_syllables, split_sentences, stem, stopwords, word_tokens

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
_FACTUAL_NUMERICS = 6  # payment, 2 times, positions, payment per minute, its flag
_SEMANTIC_SCALARS = 2  # named_entity_count, sentiment


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

def fit_employer_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    names = sorted({t.employer for t in tasks if t.employer})
    return {name: i for i, name in enumerate(names)}


def fit_country_vocab(tasks: Iterable[MicroTask]) -> dict[str, int]:
    codes = sorted({c for t in tasks for c in t.countries})
    return {code: i for i, code in enumerate(codes)}


def _hot(vocab: Mapping[str, int], values) -> np.ndarray:
    """Multi-hot over vocab's columns plus a last "other" column that any
    value missing from vocab sets."""
    out = np.zeros(len(vocab) + 1)
    for value in values:
        out[vocab.get(value, len(vocab))] = 1.0
    return out


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
    head = np.array(
        [task.payment, task.time_to_rate, task.time_to_finish, task.positions, ppm, undefined]
    )
    employer = (task.employer,) if task.employer else ()
    return np.concatenate(
        [head, _hot(employer_vocab, employer), _hot(country_vocab, task.countries)]
    )


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
    return _type_token_ratio(tokens.normalized)


def _type_token_ratio(words) -> float:
    window = words[:_TTR_WINDOW]
    return len(set(window)) / len(window) if window else 0.0


def structural_features(task: MicroTask) -> np.ndarray:
    """The nine layout/readability features, computed on description_text
    (title excluded). Averages with a zero denominator are 0."""
    return task.analysis.structural.copy()


def _structural_row(task: MicroTask, words, lower_words, n_sents) -> np.ndarray:
    text = task.description_text
    n_words = len(words)
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
            _type_token_ratio(lower_words),
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


def semantic_features(
    task: MicroTask,
    sentiment_lexicon: Mapping[str, int],
    host_vocab: Mapping[str, int],
) -> np.ndarray:
    """Link-host multi-hot plus "other", mid-sentence capitalized token count,
    and lexicon sentiment (pos-neg)/max(1, pos+neg)."""
    return _semantic_row(task, _lexicon_key(sentiment_lexicon), host_vocab)


def _semantic_row(
    task: MicroTask, lexicon: frozenset, host_vocab: Mapping[str, int]
) -> np.ndarray:
    analysis = task.analysis
    tail = np.array([float(analysis.named_entities), analysis.sentiment(lexicon)])
    return np.concatenate([_hot(host_vocab, task.structure.url_hosts), tail])


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


@dataclass(frozen=True)
class ContentModel:
    """A fitted tf-idf vocabulary: `vocabulary` maps each kept term to its
    column (columns in lexicographic term order), `doc_freq` gives its
    document frequency among the `n_docs` training tasks.

    The fit also stores the same model in the form a matrix reads:
    `columns` (term-table id -> column, -1 where the term has no column) and
    `idf` (ln(n_docs/df) per column); a term that entered the term table
    after the fit lies past the end of `columns` and so has no column
    either."""

    vocabulary: dict[str, int]
    doc_freq: dict[str, int]
    n_docs: int
    ngram_range: tuple[int, int]
    columns: np.ndarray = field(repr=False, compare=False)
    idf: np.ndarray = field(repr=False, compare=False)


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
    eligible = np.flatnonzero(df >= max(config.min_df, 1)).tolist()
    kept = sorted(eligible, key=_TERMS.__getitem__)
    if len(kept) > config.max_features:
        # a stable sort by -df over lexicographic order ranks by (-df, term)
        ranked = np.argsort(-df[kept], kind="stable")[: config.max_features]
        kept = [kept[i] for i in sorted(ranked.tolist())]
    terms = [_TERMS[i] for i in kept]
    kept_df = df[kept].tolist()
    columns = np.full(len(_TERMS), -1, dtype=np.intp)
    columns[kept] = np.arange(len(kept))
    return ContentModel(
        vocabulary=dict(zip(terms, range(len(terms)))),
        doc_freq=dict(zip(terms, kept_df)),
        n_docs=len(tasks),
        ngram_range=config.ngram_range,
        columns=columns,
        # math.log, not np.log: their last bits can differ
        idf=np.array([math.log(len(tasks) / d) for d in kept_df]),
    )


def content_matrix(model: ContentModel, tasks: Iterable[MicroTask]) -> np.ndarray:
    """One content_vector row per task, scattered into one matrix."""
    tables = [task.analysis.term_ids(model.ngram_range) for task in tasks]
    out = np.zeros((len(tables), len(model.vocabulary)))
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
    # the norm of each dense row, as content_vector always took it; a zero
    # row is divided by 1 and so stays as it is
    norms = np.array([np.linalg.norm(row) for row in out])
    out /= np.where(norms > 0, norms, 1.0)[:, None]
    return out


def content_vector(model: ContentModel, task: MicroTask) -> np.ndarray:
    """tf * ln(n_docs/df) over vocabulary terms, L2-normalized when nonzero;
    out-of-vocabulary terms are ignored."""
    return content_matrix(model, [task])[0]


# ---------------------------------------------------------------------------
# per-task analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TaskAnalysis:
    """What the feature sets and the comprehensibility measure read from one
    task's text: `MicroTask.analysis`, built once per task object by
    `build_analysis` from one `split_sentences` of the title and one of the
    description, and the `word_tokens` of each sentence. It holds no
    reference to its task. Treat it as read-only (`structural` and the
    `term_ids` arrays are read-only arrays)."""

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


def build_analysis(task: MicroTask) -> TaskAnalysis:
    stops = stopwords()
    sentences = split_sentences(task.description_text)
    words: list[str] = []
    named_entities = 0
    for sentence in sentences:
        sentence_words = word_tokens(sentence)
        words += sentence_words
        named_entities += sum(
            1 for w in sentence_words[1:] if w[0].isupper() and w.lower() not in stops
        )
    lower_words = tuple(w.lower() for w in words)
    title_words = (
        w.lower() for s in split_sentences(task.title) for w in word_tokens(s)
    )
    structural = _structural_row(task, words, lower_words, len(sentences))
    structural.setflags(write=False)
    return TaskAnalysis(
        title_stems=tuple(stem(t) for t in title_words if t not in stops),
        description_stems=tuple(stem(t) for t in lower_words if t not in stops),
        lower_words=lower_words,
        structural=structural,
        named_entities=named_entities,
    )


# ---------------------------------------------------------------------------
# combination and fitted-extractor plumbing
# ---------------------------------------------------------------------------

def combine_features(parts: list[FeatureMatrix]) -> FeatureMatrix:
    """Column-wise concatenation in the order given (CV passes the sets in
    FEATURE_SET_NAMES order), tagged with the union of the parts' tags."""
    if not parts:
        raise ValueError("no feature matrices to combine")
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
    empty too, to an `n_cols`-wide FeatureMatrix of one `rows` row per task."""

    set_name: str
    n_cols: int
    rows: Callable[[list[MicroTask]], np.ndarray]

    def matrix(self, tasks: Iterable[MicroTask]) -> FeatureMatrix:
        tasks = list(tasks)
        rows = self.rows(tasks) if tasks else np.zeros((0, self.n_cols))
        return FeatureMatrix(rows, frozenset({self.set_name}))


def _each(row: Callable[[MicroTask], np.ndarray]) -> Callable[[list[MicroTask]], np.ndarray]:
    return lambda tasks: np.vstack([row(task) for task in tasks])


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
            set_name,
            _FACTUAL_NUMERICS + len(employer_vocab) + 1 + len(country_vocab) + 1,
            _each(lambda task: factual_features(task, employer_vocab, country_vocab)),
        )
    if set_name == "structural":
        n_cols = len(STRUCTURAL_FEATURE_NAMES)
        return FittedExtractor(set_name, n_cols, _each(structural_features))
    if set_name == "semantic":
        if sentiment_lexicon is None:
            lexicon = _default_lexicon_key()
        else:
            lexicon = _lexicon_key(sentiment_lexicon)
        host_vocab = fit_host_vocab(train)
        return FittedExtractor(
            set_name,
            len(host_vocab) + 1 + _SEMANTIC_SCALARS,
            _each(lambda task: _semantic_row(task, lexicon, host_vocab)),
        )
    if set_name == "content":
        model = fit_content_model(train)
        return FittedExtractor(
            set_name,
            len(model.vocabulary),
            lambda tasks: content_matrix(model, tasks),
        )
    raise ValueError(f"unknown feature set '{set_name}'")
