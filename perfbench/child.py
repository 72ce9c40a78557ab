"""One benchmark pass over one corpus, in a process of its own.

run.py starts it as

    python3 perfbench/child.py SPEC_JSON CORPUS_PATH MODE SEED SPAWN_TIME

with `src` on PYTHONPATH. MODE is `plain`, the library API exactly as a
user calls it, which gives the end-to-end figures; or `traced`, the same
work with the grid fold loop driven by hand and a timer around each call
into a module, which gives the per-layer figures. SPAWN_TIME is the
parent's `time.monotonic()` just before it started this process, so set-up
time includes interpreter start and imports. The result is one JSON line
on standard output.

Every operation (a CV cell, a similarity matrix, a clustering) counts as
attempted, and as failed if it raises or its output check fails.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tasksim.cluster import k_medoids, purity
from tasksim.corpus import load_corpus
from tasksim.evaluation import (
    GridResult, compute_metrics, grid_run, ordered_feature_sets, stratified_folds,
)
from tasksim.features import combine_features, default_sentiment_lexicon, fit_extractor
from tasksim.learn import predict_batch, train
from tasksim.reports import render_distribution_text, render_grid_text, render_matrix_csv
from tasksim.semsim import (
    SIMILARITY_MEASURES, SimilarityMatrix, default_wordlist, extract_verb_phrases,
    similarity_matrix,
)
from tasksim.text import tokenize
from tasksim.wordnet import bundled_mini_wordnet_dir, load_wordnet


class _Ops:
    """Operations attempted, and the reason each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.errors: dict[str, str] = {}

    def run(self, labels, fn, *args, **kwargs):
        """Call fn as the operations named by `labels`; None if it raised."""
        self.attempted += len(labels)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is a measured outcome
            traceback.print_exc(file=sys.stderr)
            for label in labels:
                self.errors.setdefault(label, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, ok: bool, why: str) -> None:
        if not ok:
            self.errors.setdefault(label, why)


class _Timer:
    """Wall time summed per metric name."""

    def __init__(self):
        self.totals: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(name, time.perf_counter() - start)


def _mean(values):
    return sum(values) / len(values) if values else None


# ---------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------

def _hand_cross_validate(tasks, sets, algorithm, k, seed, lexicon, timer, cols):
    """cross_validate's fold loop spelled out with the public functions, so
    that each module's share can be timed. run.py checks that its pooled
    confusion matrix equals cross_validate's for every cell."""
    labels = [task.category for task in tasks]
    classes = tuple(sorted(set(labels)))
    index = {name: i for i, name in enumerate(classes)}
    pooled = np.zeros((len(classes), len(classes)), dtype=np.int64)
    fold_scores = []
    cell = f"{'-'.join(sets)}.{algorithm}"
    for eval_idx in stratified_folds(labels, k, seed):
        if not eval_idx:
            fold_scores.append(0.0)
            continue
        held_out = set(eval_idx)
        train_idx = [i for i in range(len(tasks)) if i not in held_out]
        train_tasks = [tasks[i] for i in train_idx]
        eval_tasks = [tasks[i] for i in eval_idx]
        train_parts, eval_parts = [], []
        for name in sets:
            extractor = timer.call(
                f"features.fit_s.{name}", fit_extractor, name, train_tasks,
                sentiment_lexicon=lexicon,
            )
            start = time.perf_counter()
            train_parts.append(extractor.matrix(train_tasks))
            eval_parts.append(extractor.matrix(eval_tasks))
            timer.add(f"features.matrix_s.{name}", time.perf_counter() - start)
            cols.setdefault(name, []).append(train_parts[-1].n_cols)
        train_x = combine_features(train_parts)
        eval_x = combine_features(eval_parts)
        model = timer.call(
            f"learn.fit_s.{cell}", train, algorithm, train_x,
            [labels[i] for i in train_idx], None, seed,
        )
        predicted, _ = timer.call(
            f"learn.predict_s.{cell}", predict_batch, model, eval_x
        )
        fold_confusion = np.zeros_like(pooled)
        for i, label in zip(eval_idx, predicted):
            fold_confusion[index[labels[i]], index[label]] += 1
        pooled += fold_confusion
        fold_scores.append(compute_metrics(fold_confusion, classes).weighted_f1)
    echo = {"feature_sets": sets, "algorithm": algorithm, "k": k, "seed": seed}
    return compute_metrics(
        pooled, classes, fold_scores=tuple(fold_scores), config_echo=echo
    )


def _grid_pass(spec, corpus, lexicon, seed, traced, ops, timer, layer):
    tasks = list(corpus)
    texts, cells = [], []
    cols: dict[str, list[int]] = {}
    loop_s = 0.0
    for combos, algos in spec["grids"]:
        combos = tuple(ordered_feature_sets(c) for c in combos)
        algos = tuple(algos)
        grid_cells = list(itertools.product(combos, algos))
        labels = [f"cell {'-'.join(sets)}.{algo}" for sets, algo in grid_cells]
        if traced:
            reports = {}
            start = time.perf_counter()
            for cell_no, (label, cell) in enumerate(zip(labels, grid_cells)):
                report = ops.run(
                    [label], _hand_cross_validate, tasks, *cell, spec["folds"],
                    seed + cell_no, lexicon, timer, cols,
                )
                if report is not None:
                    reports[cell] = report
            loop_s += time.perf_counter() - start
            grid = GridResult(combos, algos, reports)
        else:
            grid = ops.run(
                labels, grid_run, tasks, combos, algos, k=spec["folds"],
                seed=seed, sentiment_lexicon=lexicon,
            )
            if grid is None:
                continue
        for label, cell in zip(labels, grid_cells):
            report = grid.reports.get(cell)
            if report is None:
                continue
            total = int(report.confusion.sum())
            ops.check(label, total == len(tasks),
                      f"confusion sums to {total}, corpus has {len(tasks)}")
            cells.append({
                "cell": label,
                "folds": len(report.fold_scores),
                "confusion": report.confusion.tolist(),
                "weighted_f1": report.weighted_f1,
            })
        if len(grid.reports) == len(grid_cells):
            texts.append(timer.call("reports.render_s", render_grid_text, grid))
    if traced:
        inner = sum(v for name, v in timer.totals.items()
                    if name.startswith(("features.", "learn.")))
        layer["evaluation.other_s"] = loop_s - inner
        for name, values in cols.items():
            layer[f"features.cols.{name}"] = _mean(values)
    return texts, {
        "cells": cells,
        "items": sum(c["folds"] for c in cells),
        "quality": _mean([c["weighted_f1"] for c in cells]),
    }


# ---------------------------------------------------------------------------
# similarity and clustering workload
# ---------------------------------------------------------------------------

def _sim_pass(spec, corpus, wn, wordlist, seed, traced, ops, timer, layer):
    labels = {task.id: task.category for task in corpus}
    n = len(corpus)
    texts, matrices, clusterings = [], [], []
    for measure in SIMILARITY_MEASURES:
        label = f"matrix {measure}"
        matrix = timer.call(
            f"semsim.matrix_s.{measure}", ops.run, [label],
            similarity_matrix, corpus, measure, wn=wn, wordlist=wordlist,
        )
        if matrix is None:
            continue
        # SimilarityMatrix checks its own invariants when it is built
        ops.check(label, isinstance(matrix, SimilarityMatrix),
                  "similarity_matrix returned no SimilarityMatrix")
        matrices.append({
            "matrix": measure,
            "pairs": n * (n - 1) // 2,
            "sha256": hashlib.sha256(matrix.values.tobytes()).hexdigest(),
        })
        texts.append(timer.call("reports.render_s", render_matrix_csv, matrix))
        for k in spec["ks"]:
            label = f"clustering {measure}.k{k}"
            costs: list[float] = []
            clustering = timer.call(
                f"cluster.pam_s.{measure}.k{k}", ops.run, [label],
                k_medoids, matrix, k, seed=seed, trace=costs,
            )
            if clustering is None:
                continue
            value = purity(clustering, labels)
            ops.check(label, 0.0 <= value <= 1.0, f"purity {value} outside [0, 1]")
            ops.check(label, all(b <= a for a, b in zip(costs, costs[1:])),
                      "k_medoids cost trace increases")
            layer[f"cluster.swaps.{measure}.k{k}"] = len(costs) - 1
            texts.append(timer.call(
                "reports.render_s", render_distribution_text, clustering, corpus
            ))
            clusterings.append({
                "clustering": label,
                "medoids": sorted(clustering.medoids.values()),
                "purity": value,
            })
    pairs = sum(m["pairs"] for m in matrices)
    if traced:
        layer["semsim.pairs"] = pairs
    return texts, {
        "matrices": matrices,
        "clusterings": clusterings,
        "items": pairs,
        "quality": _mean([c["purity"] for c in clusterings]),
    }


# ---------------------------------------------------------------------------
# probes, run after the timed pass in traced mode
# ---------------------------------------------------------------------------

def _text_probe(corpus, layer):
    """Analyse every title and description once, as content features do."""
    start = time.perf_counter()
    stems = [
        term
        for task in corpus
        for field in (task.title, task.description_text)
        for term in tokenize(field, drop_stopwords=True, stem_tokens=True).normalized
    ]
    layer["text.analyse_s"] = time.perf_counter() - start
    layer["text.tokens"] = len(stems)
    layer["text.distinct_stems"] = len(set(stems))


def _phrase_probe(corpus, wn, layer):
    start = time.perf_counter()
    counts = [len(extract_verb_phrases(task, wn)) for task in corpus]
    layer["semsim.phrases_s"] = time.perf_counter() - start
    layer["semsim.phrases_per_task"] = _mean(counts)
    layer["semsim.no_phrase_share"] = counts.count(0) / len(counts)


def _calibrate(times: list) -> None:
    """Append the seconds of a fixed pure-Python loop, five times: how fast
    this machine runs Python at the moment."""
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return "unknown"
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def main(argv) -> int:
    spec = json.loads(argv[0])
    corpus_path, mode, seed, spawned = argv[1], argv[2], int(argv[3]), float(argv[4])
    traced = mode == "traced"
    timer = _Timer()
    layer: dict[str, float] = {}
    corpus = timer.call("corpus.load_s", load_corpus, corpus_path)
    layer["corpus.tasks"] = len(corpus)
    layer["corpus.skipped"] = len(corpus.report.skipped)
    if spec["kind"] == "sim":
        wn = timer.call("wordnet.load_s", load_wordnet, bundled_mini_wordnet_dir())
        layer["wordnet.synsets"] = wn.synset_count()
        inputs = (wn, default_wordlist())
        run_pass = _sim_pass
    else:
        inputs = (default_sentiment_lexicon(),)
        run_pass = _grid_pass
    ready = time.monotonic()

    ops = _Ops()
    calibration: list[float] = []
    _calibrate(calibration)
    start = time.perf_counter()
    texts, result = run_pass(spec, corpus, *inputs, seed, traced, ops, timer, layer)
    wall = time.perf_counter() - start
    _calibrate(calibration)

    if traced:
        _text_probe(corpus, layer)
        if spec["kind"] == "sim":
            _phrase_probe(corpus, inputs[0], layer)
        layer.update(timer.totals)
        layer["reports.bytes"] = sum(len(t.encode("utf-8")) for t in texts)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
    result.update({
        "setup_s": ready - spawned,
        "wall_s": wall,
        "calib_s": statistics.median(calibration),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "report_sha256": digest.hexdigest(),
        "attempted": ops.attempted,
        "errors": ops.errors,
        "layer": layer,
        "numpy": np.__version__,
        "blas": _blas(),
    })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
