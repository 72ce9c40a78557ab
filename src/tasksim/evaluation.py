"""Stratified cross-validation over (feature sets x classifier) grids.

The pooled confusion matrix across folds is the primary aggregate; per-fold
weighted F1 values are kept alongside it. All feature models (tf-idf
vocabulary, one-hot vocabularies) are refitted on each fold's training split
so no held-out text can leak into fitting.

Folds are drawn from tasksim.stream, the counter-based stream the forest
draws from, on a branch of the seed's key that no forest draw reads (see
that module), so no CV pass imports numpy.random.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import stream
from .features import FEATURE_SET_NAMES, FeatureMatrix, fit_extractor
from .learn import ALGORITHMS, predict_batch, train


class EvaluationError(RuntimeError):
    """A cross-validation run that could not be completed."""


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Metrics for one grid cell (or any single confusion matrix).

    `confusion` rows are actual classes, columns predicted, both in the order
    of `classes`. `fold_scores` holds the weighted F1 of each fold separately;
    the headline `weighted_f1` comes from the pooled confusion instead.
    """

    classes: tuple[str, ...]
    confusion: np.ndarray
    per_class: dict[str, ClassMetrics]
    weighted_f1: float
    fold_scores: tuple[float, ...] = ()
    config_echo: dict = field(default_factory=dict)

    @property
    def n_instances(self) -> int:
        return int(self.confusion.sum())


def stratified_folds(y: Sequence[str], k: int, seed: int) -> list[list[int]]:
    """Partition indices 0..len(y)-1 into k folds, preserving class balance.

    Classes are taken in sorted label order. Each class's indices are
    shuffled and dealt round-robin, so per class the fold counts differ by
    at most one. The shuffle orders class c's members by a stable argsort
    of their draws split(split(fold key, c), i), i being a member's place in
    the class's ascending index list and the fold key that of the
    non-negative integer `seed` (see tasksim.stream). Returns each fold as
    a sorted index list.
    """
    labels = list(y)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > len(labels):
        raise ValueError(f"k={k} exceeds dataset size {len(labels)}")
    by_class: dict[str, list[int]] = {}
    for idx, label in enumerate(labels):
        by_class.setdefault(label, []).append(idx)
    classes = sorted(by_class)
    sizes = [len(by_class[label]) for label in classes]
    members = np.concatenate([by_class[label] for label in classes])
    # each member's place in its class's index list, class by class
    place = np.arange(len(labels)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    branch = np.array([stream.FOLD_BRANCH], dtype=np.uint64)
    class_keys = stream.split(
        stream.split(stream.key(seed), branch), np.arange(len(classes), dtype=np.uint64)
    )
    draws = stream.split(np.repeat(class_keys, sizes), place.astype(np.uint64))
    # sorted by class, then by draw, the j-th of a class goes to fold j % k
    order = np.lexsort((draws, np.repeat(np.arange(len(classes)), sizes)))
    fold_of = np.empty(len(labels), dtype=np.intp)
    fold_of[members[order]] = place % k
    return [np.flatnonzero(fold_of == fold).tolist() for fold in range(k)]


def compute_metrics(
    confusion,
    classes: Sequence[str],
    *,
    fold_scores: tuple[float, ...] = (),
    config_echo: dict | None = None,
) -> EvaluationReport:
    """Per-class precision/recall/F1 and weighted F1 from a confusion matrix.

    Rows are actual, columns predicted; every entry must be a non-negative
    whole number (3.0 is one, 2.5 and NaN are not). Every 0/0 ratio (empty
    class, class never predicted) is defined as 0.
    """
    matrix = np.asarray(confusion)
    classes = tuple(classes)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {matrix.shape}")
    if matrix.shape[0] != len(classes):
        raise ValueError(
            f"confusion matrix is {matrix.shape[0]}x{matrix.shape[0]} "
            f"but {len(classes)} classes were given"
        )
    if np.any(matrix < 0):
        raise ValueError("confusion matrix entries must be non-negative")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, refused below
        counts = matrix.astype(np.int64)
    if not np.array_equal(counts, matrix):
        raise ValueError("confusion matrix entries must be finite whole numbers")
    matrix = counts

    per_class: dict[str, ClassMetrics] = {}
    total = int(matrix.sum())
    weighted = 0.0
    for i, name in enumerate(classes):
        tp = int(matrix[i, i])
        support = int(matrix[i].sum())
        predicted = int(matrix[:, i].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        per_class[name] = ClassMetrics(precision, recall, f1, support)
        if total:
            weighted += support / total * f1
    return EvaluationReport(
        classes=classes,
        confusion=matrix,
        per_class=per_class,
        weighted_f1=weighted,
        fold_scores=tuple(fold_scores),
        config_echo=dict(config_echo) if config_echo else {},
    )


def ordered_feature_sets(feature_sets: Iterable[str]) -> tuple[str, ...]:
    """Normalize a collection of feature-set tags to canonical order."""
    requested = list(feature_sets)
    seen = set()
    for name in requested:
        if name not in FEATURE_SET_NAMES:
            raise ValueError(f"unknown feature set '{name}'")
        if name in seen:
            raise ValueError(f"duplicate feature set '{name}'")
        seen.add(name)
    if not seen:
        raise ValueError("at least one feature set is required")
    return tuple(name for name in FEATURE_SET_NAMES if name in seen)


def all_feature_set_combinations() -> list[tuple[str, ...]]:
    """All 15 non-empty subsets of the four feature sets, smallest first."""
    combos: list[tuple[str, ...]] = []
    for size in range(1, len(FEATURE_SET_NAMES) + 1):
        combos.extend(itertools.combinations(FEATURE_SET_NAMES, size))
    return combos


def _combined_matrix(extractors, tasks) -> FeatureMatrix:
    """The extractors' rows side by side, checked once."""
    parts = [ext.rows(tasks) for ext in extractors]
    rows = parts[0] if len(parts) == 1 else np.hstack(parts)
    return FeatureMatrix(rows, frozenset(ext.set_name for ext in extractors))


def cross_validate(
    corpus,
    feature_sets: Iterable[str],
    algorithm: str,
    k: int,
    seed: int,
    *,
    sentiment_lexicon: Mapping[str, int] | None = None,
) -> EvaluationReport:
    """Stratified k-fold cross-validation of one (feature sets, algorithm)
    cell; returns pooled metrics plus per-fold weighted F1.

    `corpus` is anything iterable over tasks. Feature extractors are fitted
    per fold on the training split only, and every cell runs the default
    ContentConfig and LearnerConfig. A fold whose training or prediction
    fails (a solver that hits its step cap included) aborts the whole run
    with the fold index in the error.
    """
    tasks = list(corpus)
    sets = ordered_feature_sets(feature_sets)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm '{algorithm}'")
    labels = [task.category for task in tasks]
    classes = tuple(sorted(set(labels)))
    n = len(classes)
    index = {name: i for i, name in enumerate(classes)}
    folds = stratified_folds(labels, k, seed)

    pooled = np.zeros((n, n), dtype=np.int64)
    fold_scores: list[float] = []
    for fold_no, eval_idx in enumerate(folds):
        if not eval_idx:
            # k close to the dataset size can leave a fold empty; nothing to
            # evaluate there.
            fold_scores.append(0.0)
            continue
        held_out = set(eval_idx)
        train_idx = [i for i in range(len(tasks)) if i not in held_out]
        train_tasks = [tasks[i] for i in train_idx]
        eval_tasks = [tasks[i] for i in eval_idx]
        try:
            extractors = [
                fit_extractor(name, train_tasks, sentiment_lexicon=sentiment_lexicon)
                for name in sets
            ]
            train_x = _combined_matrix(extractors, train_tasks)
            eval_x = _combined_matrix(extractors, eval_tasks)
            model = train(
                algorithm, train_x, [labels[i] for i in train_idx], seed=seed
            )
            predicted, _ = predict_batch(model, eval_x)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            raise EvaluationError(f"fold {fold_no} failed: {exc}") from exc
        keys = [index[labels[i]] * n + index[p] for i, p in zip(eval_idx, predicted)]
        fold_confusion = np.bincount(keys, minlength=n * n).reshape(n, n)
        pooled += fold_confusion
        fold_scores.append(compute_metrics(fold_confusion, classes).weighted_f1)

    echo = {
        "feature_sets": sets,
        "algorithm": algorithm,
        "k": k,
        "seed": seed,
    }
    return compute_metrics(
        pooled, classes, fold_scores=tuple(fold_scores), config_echo=echo
    )


@dataclass(frozen=True, eq=False)
class GridResult:
    """Reports for every (feature-set combination, algorithm) cell."""

    combinations: tuple[tuple[str, ...], ...]
    algorithms: tuple[str, ...]
    reports: dict[tuple[tuple[str, ...], str], EvaluationReport]

    def weighted_f1(self, combination: tuple[str, ...], algorithm: str) -> float:
        return self.reports[(combination, algorithm)].weighted_f1


def grid_run(
    corpus,
    feature_set_combinations: Iterable[Iterable[str]] | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    k: int = 10,
    seed: int = 0,
    *,
    sentiment_lexicon: Mapping[str, int] | None = None,
) -> GridResult:
    """Cross-validate every cell of the grid.

    By default runs all 15 feature-set combinations against all five
    algorithms, each with the default hyperparameters. Cell seeds are
    seed + cell index (row-major over combinations, then algorithms), so
    any cell reproduces exactly as a standalone cross_validate call with
    that derived seed. An empty combination or algorithm list, or one that
    repeats an entry, is refused.
    """
    if feature_set_combinations is None:
        combos = all_feature_set_combinations()
    else:
        combos = [ordered_feature_sets(c) for c in feature_set_combinations]
    if not combos:
        raise ValueError("empty feature-set combination list")
    if len(set(combos)) != len(combos):
        raise ValueError("duplicate feature-set combinations in grid")
    algorithms = tuple(algorithms)
    if not algorithms:
        raise ValueError("empty algorithm list")
    if len(set(algorithms)) != len(algorithms):
        raise ValueError("duplicate algorithms in grid")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")

    tasks = list(corpus)
    reports: dict[tuple[tuple[str, ...], str], EvaluationReport] = {}
    for cell_no, (combo, algorithm) in enumerate(
        itertools.product(combos, algorithms)
    ):
        reports[(combo, algorithm)] = cross_validate(
            tasks, combo, algorithm, k, seed + cell_no,
            sentiment_lexicon=sentiment_lexicon,
        )
    return GridResult(tuple(combos), algorithms, reports)
