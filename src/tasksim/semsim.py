"""Task-to-task similarity along two views of a description.

Required action: verb phrases pulled from title and description with a
positional trigger heuristic. Two phrases score the WordNet path
similarity of their verbs; when both carry arguments, that is weighted 0.7
and the best-scoring pair of their argument nouns 0.3. Two tasks score the
mean, over one task's phrases, of each phrase's best score against the
other task's phrases, averaged over both directions; a task without
phrases scores 0.

Comprehensibility: the nine structural features plus the ratio of unusual
words, each z-scored with its corpus mean and population standard
deviation (floored at 1e-9). Two tasks score 1/(1+d), where d is the
Euclidean distance of their z-scored vectors divided by the square root
of their length.

Both views produce matrices with unit diagonal, symmetric, valued in
[0, 1].

The verb trigger is a lexicon/position rule, not a POS tagger: deterministic
and offline, good on imperative task prose, known to misfire on declarative
text.

Both views read a task's text through what the task keeps: the phrase
scanner reads `task.sentences`, the one split of title and description
that `task.analysis` is built from too, and comprehensibility reads the
analysis.

`similarity_matrix` builds a whole matrix with array code. The measures'
pair definitions are kept as test oracles, which every matrix entry off
the diagonal equals bit for bit: `_oracle_required_action_similarity` in
tests/conftest.py and `_oracle_comprehensibility_similarity` in
tests/test_semsim.py. For required action the matrix takes each distinct
phrase as one kind (a phrase is its verb lemma and argument lemmas, and a
corpus repeats few kinds many times), asks WordNet once per distinct verb
pair and noun pair, and turns the two lemma tables into one kind-by-kind
phrase table. For comprehensibility it fills one (n, 10) array of every
task's values and checks it once, refusing a non-finite value or an
unusual-word ratio outside [0, 1]. Task rows are then filled in blocks of `_ROW_BLOCK`
straight into the n x n output, so no other n x n array is made. Corpora of more than `MAX_MATRIX_TASKS` tasks are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import MicroTask
from .features import STRUCTURAL_FEATURE_NAMES
from .text import items
from .wordnet import NOUN, VERB, WordNetGraph, item_lemmas, word_similarity

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


class VerbPhrase(NamedTuple):
    """One action mention: the trigger's verb lemma and noun lemmas from
    the rest of the span. Equal phrases are one phrase kind."""

    verb_lemma: str
    argument_lemmas: tuple[str, ...]


def extract_verb_phrases(task: MicroTask, wn: WordNetGraph) -> list[VerbPhrase]:
    """Verb phrases from every sentence of title plus description.

    A token triggers a phrase if it lemmatizes as a verb and is either
    sentence-initial or preceded by to/and/or/then/please or a comma. The
    phrase runs to the next trigger or sentence end, at most six word tokens;
    non-trigger tokens with a noun lemmatization become arguments.

    The sentences are the task's `sentences`, split once per task object and
    shared with its analysis. Each sentence's items are walked once, with
    one look-up per item in the graph's lemma memo (`item_lemmas`).
    """
    phrases: list[VerbPhrase] = []
    lemmas_of = wn._lemmas
    title_sentences, description_sentences = task.sentences
    for sentence in title_sentences + description_sentences:
        verb = None  # the open phrase's verb lemma
        previous = None  # the item before, None at the sentence start
        for word in items(sentence):
            verb_lemma, noun = lemmas_of.get(word) or item_lemmas(word, wn)
            if verb_lemma is not None and (
                previous is None or previous.lower() in _TRIGGER_PRECEDERS
            ):
                if verb is not None:
                    phrases.append(VerbPhrase(verb, tuple(arguments)))
                verb, arguments, words_taken = verb_lemma, [], 1
            elif (
                verb is not None
                and word != ","
                and words_taken < _PHRASE_SPAN_CAP
            ):
                words_taken += 1
                if noun is not None:
                    arguments.append(noun)
            previous = word
        if verb is not None:
            phrases.append(VerbPhrase(verb, tuple(arguments)))
    return phrases


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
    """The phrase similarity of every two phrase kinds (verb lemma,
    argument lemmas), from one verb table and one noun table."""
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
    """Off-diagonal required-action similarity of every two tasks into
    `values`, whose rows and columns of phraseless tasks are left as they
    are (they score 0)."""
    phrases = [p for task_phrases in phrase_sets for p in task_phrases]
    kinds = _positions(phrases)
    phrase_kinds = np.array([kinds[p] for p in phrases], dtype=np.intp)
    lens = np.array([len(ps) for ps in phrase_sets], dtype=np.intp)
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


def _comprehensibility_rows(
    tasks: Sequence[MicroTask],
    corpus_df: Mapping[str, int],
    wordlist: frozenset,
) -> np.ndarray:
    """Each task's nine structural features and unusual-word ratio as one
    row of an (n, 10) array, in the order of COMPREHENSIBILITY_FEATURE_NAMES.
    A non-finite value or a ratio outside [0, 1] raises ValueError."""
    rows = np.empty((len(tasks), len(COMPREHENSIBILITY_FEATURE_NAMES)))
    rows[:, :-1] = [task.analysis.structural for task in tasks]
    rows[:, -1] = [unusual_word_ratio(task, corpus_df, wordlist) for task in tasks]
    if not np.all(np.isfinite(rows)):
        raise ValueError("comprehensibility vector has non-finite values")
    if not np.all((0.0 <= rows[:, -1]) & (rows[:, -1] <= 1.0)):
        raise ValueError("unusual_word_ratio outside [0, 1]")
    return rows


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


def check_matrix_size(n: int) -> None:
    """Refuse a corpus of more than MAX_MATRIX_TASKS tasks."""
    if n > MAX_MATRIX_TASKS:
        raise ValueError(
            f"{n} tasks exceed the similarity matrix limit of "
            f"{MAX_MATRIX_TASKS} tasks"
        )


def similarity_matrix(
    corpus,
    measure: str,
    *,
    wn: WordNetGraph | None = None,
    wordlist: frozenset | None = None,
) -> SimilarityMatrix:
    """Pairwise similarity of every task pair under the given measure.

    required_action needs a loaded WordNet graph. A pair of tasks scores
    the mean of each phrase's best phrase similarity in the other task,
    averaged over both directions, or 0 if either task has no verb phrase;
    two phrases score their verbs' WordNet path similarity, weighted 0.7
    against their best argument-noun pair's 0.3 when both carry arguments.
    Phrases are deduplicated into kinds and WordNet is asked once per
    distinct lemma pair.

    comprehensibility uses corpus-wide document frequencies and the
    (bundled by default) word list. A pair scores 1/(1+d), d the Euclidean
    distance of the two tasks' z-scored comprehensibility vectors over the
    square root of their length; each column is z-scored with its corpus
    mean and population standard deviation, floored at 1e-9. The vectors
    are the rows of one array, which raises ValueError for a non-finite
    value or an unusual-word ratio outside [0, 1].

    The diagonal is 1 by definition, whatever the pairwise value would be.
    Every other entry equals the pair oracle's value exactly (see the
    module docstring). Matrix rows are filled in blocks. More than
    MAX_MATRIX_TASKS tasks raise ValueError before any work.
    """
    tasks = list(corpus)
    n = len(tasks)
    check_matrix_size(n)
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
        if tasks:
            rows = _comprehensibility_rows(tasks, df, words)
            std = np.maximum(rows.std(axis=0), 1e-9)
            z = (rows - rows.mean(axis=0)) / std
            for lo in range(0, n, _ROW_BLOCK):
                values[lo : lo + _ROW_BLOCK] = _z_similarities(
                    z[lo : lo + _ROW_BLOCK], z
                )
    else:
        raise ValueError(f"unknown measure '{measure}'")
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(ids, values, measure)
