"""Task-to-task similarity along two views of a description.

Required action: verb phrases pulled from title and description with a
positional trigger heuristic, compared through WordNet path similarity.
Comprehensibility: the nine structural features plus the ratio of unusual
words, compared as z-scored vectors. Both views produce matrices with unit
diagonal, symmetric, valued in [0, 1].

The verb trigger is a lexicon/position rule, not a POS tagger: deterministic
and offline, good on imperative task prose, known to misfire on declarative
text.

The pair functions (`required_action_similarity`,
`comprehensibility_similarity`) define the measures; `similarity_matrix`
builds a whole matrix with array code that gives the same numbers, bit for
bit. For required action it maps each phrase to its kind (verb lemma plus
argument lemmas; a corpus repeats few kinds many times), asks WordNet once
per distinct verb pair and noun pair, and turns the two lemma tables into
one kind-by-kind phrase table. Task rows are then filled in blocks of
`_ROW_BLOCK` straight into the n x n output, so no other n x n array is
made. Corpora of more than `MAX_MATRIX_TASKS` tasks are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import MicroTask
from .features import STRUCTURAL_FEATURE_NAMES
from .text import sentence_items, split_sentences
from .wordnet import NOUN, VERB, WordNetGraph, lemmatize, word_similarity

SIMILARITY_MEASURES = ("required_action", "comprehensibility")

COMPREHENSIBILITY_FEATURE_NAMES = STRUCTURAL_FEATURE_NAMES + (
    "unusual_word_ratio",
)

# A word in more tasks than this is never unusual.
_DF_THRESHOLD = 5

_TRIGGER_PRECEDERS = frozenset({"to", "and", "or", "then", ",", "please"})
_PHRASE_SPAN_CAP = 6

# Share of a phrase similarity that comes from the verbs when both phrases
# carry arguments.
_VERB_WEIGHT = 0.7

# The largest corpus similarity_matrix accepts: one float64 matrix of this
# many tasks takes 2 GiB.
MAX_MATRIX_TASKS = 16384
# Task rows computed at a time while filling a matrix.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class VerbPhrase:
    """One action mention: the trigger's verb lemma, noun lemmas from the
    rest of the span, and the covered source text."""

    verb_lemma: str
    argument_lemmas: tuple[str, ...]
    surface: str


def extract_verb_phrases(task: MicroTask, wn: WordNetGraph) -> list[VerbPhrase]:
    """Verb phrases from every sentence of title plus description.

    A token triggers a phrase if it lemmatizes as a verb and is either
    sentence-initial or preceded by to/and/or/then/please or a comma. The
    phrase runs to the next trigger or sentence end, at most six word tokens;
    non-trigger tokens with a noun lemmatization become arguments.
    """
    phrases: list[VerbPhrase] = []
    sentences = split_sentences(task.title) + split_sentences(
        task.description_text
    )
    for sentence in sentences:
        items = sentence_items(sentence)
        triggers = []
        for i, (text, _, _) in enumerate(items):
            if text == ",":
                continue
            preceded = i > 0 and items[i - 1][0].lower() in _TRIGGER_PRECEDERS
            if not (i == 0 or preceded):
                continue
            verb = lemmatize(text, VERB, wn)
            if verb is not None:
                triggers.append((i, verb))
        for t, (start_item, verb) in enumerate(triggers):
            end_item = (
                triggers[t + 1][0] if t + 1 < len(triggers) else len(items)
            )
            arguments = []
            words_taken = 1  # the trigger itself
            last_included = start_item
            for j in range(start_item + 1, end_item):
                text = items[j][0]
                if text == ",":
                    continue
                if words_taken >= _PHRASE_SPAN_CAP:
                    break
                words_taken += 1
                last_included = j
                noun = lemmatize(text, NOUN, wn)
                if noun is not None:
                    arguments.append(noun)
            surface = sentence[items[start_item][1] : items[last_included][2]]
            phrases.append(VerbPhrase(verb, tuple(arguments), surface))
    return phrases


def phrase_similarity(
    p: VerbPhrase,
    q: VerbPhrase,
    wn: WordNetGraph,
) -> float:
    """Verb similarity, blended with the best argument pair when both
    phrases carry arguments; verb-only (full weight) otherwise."""
    verbs = word_similarity(wn, p.verb_lemma, q.verb_lemma, VERB)
    if p.argument_lemmas and q.argument_lemmas:
        nouns = max(
            word_similarity(wn, a, b, NOUN)
            for a in p.argument_lemmas
            for b in q.argument_lemmas
        )
        return _VERB_WEIGHT * verbs + (1.0 - _VERB_WEIGHT) * nouns
    return verbs


def required_action_similarity(
    A: Sequence[VerbPhrase],
    B: Sequence[VerbPhrase],
    wn: WordNetGraph,
) -> float:
    """Mean best-match phrase similarity, averaged over both directions.
    Zero when either side has no phrases."""
    if not A or not B:
        return 0.0

    def best(p, side):
        return max(phrase_similarity(p, q, wn) for q in side)

    forward = sum(best(p, B) for p in A) / len(A)
    backward = sum(best(q, A) for q in B) / len(B)
    return (forward + backward) / 2.0


def _lemma_table(
    lemmas: Sequence[str], pos: str, wn: WordNetGraph
) -> np.ndarray:
    """word_similarity of every two lemmas, asked once per unordered pair
    (the measure is symmetric)."""
    table = np.empty((len(lemmas), len(lemmas)))
    for i, a in enumerate(lemmas):
        for j in range(i, len(lemmas)):
            table[i, j] = table[j, i] = word_similarity(wn, a, lemmas[j], pos)
    return table


def _positions(items: Iterable) -> dict:
    """Each distinct item's index, in order of first appearance."""
    return {item: i for i, item in enumerate(dict.fromkeys(items))}


def _kind_table(kinds: Sequence[tuple], wn: WordNetGraph) -> np.ndarray:
    """phrase_similarity of every two phrase kinds (verb lemma, argument
    lemmas), from one verb table and one noun table."""
    verbs = _positions(verb for verb, _ in kinds)
    verb_of = [verbs[verb] for verb, _ in kinds]
    table = _lemma_table(list(verbs), VERB, wn)[np.ix_(verb_of, verb_of)]
    with_args = [k for k, (_, args) in enumerate(kinds) if args]
    if with_args:
        arguments = [a for k in with_args for a in kinds[k][1]]
        nouns = _positions(arguments)
        flat = [nouns[a] for a in arguments]
        counts = np.array([len(kinds[k][1]) for k in with_args])
        starts = np.cumsum(counts) - counts
        # The best argument pair of every two kinds: max over one side's
        # arguments, then over the other's.
        best = np.maximum.reduceat(
            _lemma_table(list(nouns), NOUN, wn)[flat], starts, axis=0
        )
        best = np.maximum.reduceat(best[:, flat], starts, axis=1)
        both = np.ix_(with_args, with_args)
        table[both] = _VERB_WEIGHT * table[both] + (1.0 - _VERB_WEIGHT) * best
    return table


def _phrase_means(best, phrase_kinds, starts, lens) -> np.ndarray:
    """Row t: the mean of `best`'s rows over task t's phrases (kinds
    phrase_kinds[starts[t]:starts[t] + lens[t]]). The rows are added one
    phrase offset at a time, left to right as Python's sum adds them; a
    segment reduction would pair the terms in another order."""
    total = np.zeros((len(lens), best.shape[1]))
    for r in range(lens.max()):
        has = lens > r
        total[has] += best[phrase_kinds[starts[has] + r]]
    return total / lens[:, None]


def _fill_required_action(values, phrase_sets, wn: WordNetGraph) -> None:
    """Off-diagonal required_action_similarity of every two tasks into
    `values`, whose rows and columns of phraseless tasks are left as they
    are (they score 0)."""
    keys = [
        (p.verb_lemma, p.argument_lemmas)
        for phrases in phrase_sets
        for p in phrases
    ]
    kinds = _positions(keys)
    phrase_kinds = np.array([kinds[key] for key in keys], dtype=np.intp)
    lens = np.array([len(phrases) for phrases in phrase_sets], dtype=np.intp)
    tasks = np.flatnonzero(lens)
    if not tasks.size:
        return
    lens = lens[tasks]
    starts = np.cumsum(lens) - lens
    table = _kind_table(list(kinds), wn)
    # best[k, t]: how well phrase kind k matches its best phrase of task t.
    best = np.maximum.reduceat(table[:, phrase_kinds], starts, axis=1)
    for lo in range(0, len(tasks), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        forward = _phrase_means(best, phrase_kinds, starts[block], lens[block])
        backward = _phrase_means(best[:, block], phrase_kinds, starts, lens)
        values[np.ix_(tasks[block], tasks)] = (forward + backward.T) / 2.0


def presence_document_frequencies(
    tasks: Iterable[MicroTask],
) -> Counter[str]:
    """How many tasks mention each token in their description at least once."""
    df: Counter[str] = Counter()
    for task in tasks:
        df.update(set(task.analysis.lower_words))
    return df


def load_wordlist(path) -> frozenset:
    words = set()
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


def default_wordlist() -> frozenset:
    return load_wordlist(
        Path(__file__).resolve().parent / "resources" / "wordlist.txt"
    )


def unusual_word_ratio(
    task: MicroTask,
    corpus_df: Mapping[str, int],
    wordlist: frozenset,
) -> float:
    """Share of description tokens found in at most five tasks corpus-wide
    and missing from the word list. Token-level: repeats count repeatedly."""
    tokens = task.analysis.lower_words
    if not tokens:
        return 0.0
    unusual = sum(
        1
        for tok in tokens
        if corpus_df.get(tok, 0) <= _DF_THRESHOLD and tok not in wordlist
    )
    return unusual / len(tokens)


@dataclass(frozen=True, eq=False)
class ComprehensibilityVector:
    """Nine structural features plus the unusual-word ratio, in the order of
    COMPREHENSIBILITY_FEATURE_NAMES."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(COMPREHENSIBILITY_FEATURE_NAMES),):
            raise ValueError(
                f"comprehensibility vector needs "
                f"{len(COMPREHENSIBILITY_FEATURE_NAMES)} values, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("comprehensibility vector has non-finite values")
        if not 0.0 <= values[-1] <= 1.0:
            raise ValueError("unusual_word_ratio outside [0, 1]")
        object.__setattr__(self, "values", values)


def comprehensibility_vector(
    task: MicroTask,
    corpus_df: Mapping[str, int],
    wordlist: frozenset,
) -> ComprehensibilityVector:
    ratio = unusual_word_ratio(task, corpus_df, wordlist)
    return ComprehensibilityVector(np.append(task.analysis.structural, ratio))


class CorpusStats(NamedTuple):
    mean: np.ndarray
    std: np.ndarray


def comprehensibility_stats(
    vectors: Sequence[ComprehensibilityVector],
) -> CorpusStats:
    """Per-feature mean and population standard deviation (floored at 1e-9)
    for z-scoring."""
    if not vectors:
        raise ValueError("no vectors to compute stats from")
    stacked = np.vstack([v.values for v in vectors])
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-9)
    return CorpusStats(mean, std)


def _vector_values(v) -> np.ndarray:
    if isinstance(v, ComprehensibilityVector):
        return v.values
    return np.asarray(v, dtype=float)


def _z_similarities(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """1/(1+d) of every row of za against every row of zb, z-scored
    vectors both. The squared differences are summed one column at a time,
    left to right, so a pair gets the same bits from any call and on any
    machine."""
    squares = np.zeros((za.shape[0], zb.shape[0]))
    for c in range(za.shape[1]):
        diff = za[:, c, None] - zb[None, :, c]
        squares += diff * diff
    return 1.0 / (1.0 + np.sqrt(squares) / np.sqrt(za.shape[1]))


def comprehensibility_similarity(u, v, stats: CorpusStats) -> float:
    """1/(1+d) where d is the z-scored Euclidean distance scaled by the
    square root of the dimension."""
    a = _vector_values(u)
    b = _vector_values(v)
    if a.shape != b.shape or a.shape != stats.mean.shape:
        raise ValueError(
            f"dimension mismatch: {a.shape} vs {b.shape} vs stats "
            f"{stats.mean.shape}"
        )
    za = (a - stats.mean) / stats.std
    zb = (b - stats.mean) / stats.std
    return float(_z_similarities(za[None], zb[None])[0, 0])


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Pairwise task similarities under one measure; unit diagonal by
    definition, symmetric within 1e-9, values in [0, 1]."""

    task_ids: tuple[str, ...]
    values: np.ndarray
    measure: str

    def __post_init__(self):
        if self.measure not in SIMILARITY_MEASURES:
            raise ValueError(f"unknown measure '{self.measure}'")
        values = np.asarray(self.values, dtype=float)
        n = len(self.task_ids)
        if values.shape != (n, n):
            raise ValueError(
                f"similarity matrix shape {values.shape} does not match "
                f"{n} task ids"
            )
        if n:
            # NaN fails no comparison below, so it is refused first
            low, high = values.min(), values.max()
            if not (np.isfinite(low) and np.isfinite(high)):
                raise ValueError("similarity values must be finite")
            if not np.all(np.diag(values) == 1.0):
                raise ValueError("similarity diagonal must be exactly 1")
            # in row blocks, so that no n x n temporary is made
            for lo in range(0, n, _ROW_BLOCK):
                rows = values[lo : lo + _ROW_BLOCK]
                cols = values[:, lo : lo + _ROW_BLOCK].T
                if np.max(np.abs(rows - cols), initial=0.0) > 1e-9:
                    raise ValueError("similarity matrix not symmetric")
            if low < 0.0 or high > 1.0:
                raise ValueError("similarity values outside [0, 1]")
        object.__setattr__(self, "values", values)

    def pair(self, id_a: str, id_b: str) -> float:
        i = self.task_ids.index(id_a)
        j = self.task_ids.index(id_b)
        return float(self.values[i, j])


def similarity_matrix(
    corpus,
    measure: str,
    *,
    wn: WordNetGraph | None = None,
    wordlist: frozenset | None = None,
) -> SimilarityMatrix:
    """Pairwise similarity of every task pair under the given measure.

    required_action needs a loaded WordNet graph; comprehensibility uses
    corpus-wide document frequencies and the (bundled by default) word list.
    The diagonal is 1 by definition, whatever the pairwise value would be.
    Every other entry equals the pair function's value exactly. Phrases are
    deduplicated into kinds and WordNet is asked once per distinct lemma
    pair; rows are filled in blocks. More than MAX_MATRIX_TASKS tasks raise
    ValueError before any work.
    """
    tasks = list(corpus)
    n = len(tasks)
    if n > MAX_MATRIX_TASKS:
        raise ValueError(
            f"{n} tasks exceed the similarity matrix limit of "
            f"{MAX_MATRIX_TASKS} tasks"
        )
    ids = tuple(task.id for task in tasks)
    values = np.zeros((n, n))
    if measure == "required_action":
        if wn is None:
            raise ValueError("required_action measure needs a WordNet graph")
        phrase_sets = [extract_verb_phrases(task, wn) for task in tasks]
        _fill_required_action(values, phrase_sets, wn)
    elif measure == "comprehensibility":
        df = presence_document_frequencies(tasks)
        words = wordlist if wordlist is not None else default_wordlist()
        vectors = [comprehensibility_vector(task, df, words) for task in tasks]
        if vectors:
            stats = comprehensibility_stats(vectors)
            stacked = np.vstack([v.values for v in vectors])
            z = (stacked - stats.mean) / stats.std
            for lo in range(0, n, _ROW_BLOCK):
                values[lo : lo + _ROW_BLOCK] = _z_similarities(
                    z[lo : lo + _ROW_BLOCK], z
                )
    else:
        raise ValueError(f"unknown measure '{measure}'")
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(ids, values, measure)
