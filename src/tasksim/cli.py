"""Command-line front end.

Subcommands map one-to-one onto the library surface: ingest (load +
quality report), synth (generate a labeled corpus, see `tasksim.synth`),
cv (one evaluation cell), grid (all cells), sim (pairwise similarity
matrix), cluster (k-medoids + category distribution), report (grid and
clusterings in one run). Input paths are checked before any work starts.
Every emitted report starts with '#' header lines echoing the tool
version, seed, and configuration; the same argv against the same inputs
produces byte-identical files. Outputs are written to a temp file and
renamed into place so a failed run never leaves a half-written report.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .corpus import CorpusError, load_corpus
from .evaluation import EvaluationError, cross_validate, grid_run
from .features import load_sentiment_lexicon
from .learn import ALGORITHMS
from .reports import (
    csv_text,
    matrix_csv_chunks,
    matrix_text_chunks,
    render_distribution_csv,
    render_distribution_text,
    render_grid_csv,
    render_grid_text,
    render_report_csv,
    render_report_text,
)
from .cluster import check_k, k_medoids, purity
from .semsim import SIMILARITY_MEASURES, load_wordlist, similarity_matrix
from .synth import synthetic_corpus_text
from .wordnet import WordNetError, load_wordnet


class CliError(RuntimeError):
    """Invalid invocation or missing resource, reported as one line."""


# ---------------------------------------------------------------------------
# Input checks and output plumbing
# ---------------------------------------------------------------------------

def _load(args, needs_wordnet: bool):
    """Check the inputs, then load the corpus. Fails before any work if a
    given input path is missing, if the run needs WordNet and --wordnet was
    not given, if --k or --folds does not fit the corpus, or if --seed,
    which seeds the fold draws, is negative."""
    for dest in ("corpus", "wordlist", "sentiment_lexicon"):
        value = getattr(args, dest, None)
        if value is not None and not Path(value).is_file():
            flag = "--" + dest.replace("_", "-")
            raise CliError(f"resource error: {flag} file not found: {value}")
    wordnet = getattr(args, "wordnet", None)
    if wordnet is not None and not Path(wordnet).is_dir():
        raise CliError(f"resource error: --wordnet directory not found: "
                       f"{wordnet}")
    if needs_wordnet and wordnet is None:
        raise CliError(
            "resource error: --wordnet is required for measure "
            "'required_action'"
        )
    corpus = load_corpus(args.corpus, strict=getattr(args, "strict", False))
    if getattr(args, "k", None) is not None:
        check_k(args.k, len(corpus))
    folds = getattr(args, "folds", None)
    if folds is not None and len(corpus) < 2:
        raise CliError(
            f"cross-validation needs at least 2 tasks, got {len(corpus)}"
        )
    if folds is not None and not 2 <= folds <= len(corpus):
        raise CliError(
            f"--folds must be between 2 and {len(corpus)}, got {folds}"
        )
    if folds is not None and args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    return corpus


def _write(stream, text) -> None:
    """Write a string, or an iterable of string chunks one by one."""
    stream.writelines([text] if isinstance(text, str) else text)


def _atomic_write(path, text) -> None:
    """Write `text` (as `_write` takes it) to a temp file beside `path`,
    then rename it into place; on any error the temp file is removed and
    an existing `path` keeps its bytes."""
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent) or ".", prefix=f".{target.name}."
        )
    except OSError as exc:
        # the error would name the random temp file, not the target
        raise CliError(f"cannot write {target}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp made it 0600; give it the mode open(path, "w") would
            os.umask(mask := os.umask(0))
            os.fchmod(fh.fileno(), 0o666 & ~mask)
            _write(fh, text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(args, **extra) -> str:
    """The '#' lines every report starts with: command, seed, and the
    config echo (corpus, the subcommand's keys, format, then `extra`)."""
    echo = {"corpus": args.corpus}
    echo.update((key, getattr(args, key)) for key in args.echo)
    echo.update(format=args.format, **extra)
    pairs = " ".join(f"{key}={value}" for key, value in echo.items())
    return (
        f"# tasksim {__version__} {args.command}\n"
        f"# seed: {args.seed}\n"
        f"# config: {pairs}\n"
    )


def _pick(args, text_renderer, csv_renderer):
    return csv_renderer if args.format == "csv" else text_renderer


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# Each handler returns the text for --out (stdout by default), as a string
# or an iterable of string chunks, or None when it wrote its own files.

def _load_lexicon(args):
    if args.sentiment_lexicon is None:
        return None
    return load_sentiment_lexicon(args.sentiment_lexicon)


def _similarities(args, corpus, measures) -> list:
    wn = load_wordnet(args.wordnet) if args.wordnet else None
    wordlist = load_wordlist(args.wordlist) if args.wordlist else None
    return [similarity_matrix(corpus, m, wn=wn, wordlist=wordlist) for m in measures]


def _grid(args, corpus, combos, algos) -> str:
    grid = grid_run(
        corpus, combos, algos, k=args.folds, seed=args.seed,
        sentiment_lexicon=_load_lexicon(args),
    )
    return _header(args) + _pick(args, render_grid_text, render_grid_csv)(grid)


def _clusters(args, corpus, matrix, **extra) -> str:
    clustering = k_medoids(matrix, args.k, seed=args.seed)
    if not clustering.converged:
        print(f"warning: k-medoids on {matrix.measure} stopped at its step "
              "limit with an improving swap left", file=sys.stderr)
    labels = {task.id: task.category for task in corpus}
    render = _pick(args, render_distribution_text, render_distribution_csv)
    return (
        _header(args, **extra)
        + f"# total_dissimilarity: {clustering.total_dissimilarity:.6f}\n"
        + f"# purity: {purity(clustering, labels):.6f}\n"
        + render(clustering, corpus)
    )


def cmd_ingest(args) -> str:
    corpus = _load(args, needs_wordnet=False)
    counts = sorted(corpus.category_counts.items())
    if args.format == "csv":
        quality = "".join(
            f"# {line}\n" for line in corpus.report.render().splitlines()
        )
        body = quality + csv_text(("category", "count"), counts)
    else:
        width = max([len("category")] + [len(c) for c, _ in counts])
        table = [f"{'category'.ljust(width)}  count"]
        table += [f"{c.ljust(width)}  {n}" for c, n in counts]
        body = corpus.report.render() + "\n\n" + "\n".join(table) + "\n"
    return _header(args) + body


def cmd_synth(args) -> str:
    return synthetic_corpus_text(args.seed, args.categories, args.per_category)


def _split(spec: str, what: str, sep: str = ",") -> tuple[str, ...]:
    parts = tuple(part.strip() for part in spec.split(sep) if part.strip())
    if not parts:
        raise CliError(f"empty {what} list: {spec!r}")
    return parts


def _parse_sets(spec: str) -> tuple[str, ...]:
    # one cell's worth of feature sets; ',' and '+' both join
    return _split(spec.replace(",", "+"), "feature-set", "+")


def cmd_cv(args) -> str:
    sets = _parse_sets(args.sets)
    corpus = _load(args, needs_wordnet=False)
    report = cross_validate(
        corpus, sets, args.algo, args.folds, args.seed,
        sentiment_lexicon=_load_lexicon(args),
    )
    render = _pick(args, render_report_text, render_report_csv)
    return _header(args) + render(report)


def cmd_grid(args) -> str:
    combos = None if args.sets == "all-combos" else tuple(
        _parse_sets(part) for part in _split(args.sets, "feature-set")
    )
    algos = ALGORITHMS if args.algo == "all" else _split(args.algo, "algorithm")
    return _grid(args, _load(args, needs_wordnet=False), combos, algos)


def cmd_sim(args):
    corpus = _load(args, needs_wordnet=args.measure == "required_action")
    (matrix,) = _similarities(args, corpus, [args.measure])
    chunks = _pick(args, matrix_text_chunks, matrix_csv_chunks)(matrix)
    return itertools.chain([_header(args)], chunks)


def cmd_cluster(args) -> str:
    corpus = _load(args, needs_wordnet=args.measure == "required_action")
    (matrix,) = _similarities(args, corpus, [args.measure])
    return _clusters(args, corpus, matrix)


def cmd_report(args) -> None:
    # the required_action clustering always needs WordNet
    corpus = _load(args, needs_wordnet=True)
    matrices = _similarities(args, corpus, SIMILARITY_MEASURES)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = _pick(args, "txt", "csv")
    _atomic_write(out_dir / f"grid.{ext}", _grid(args, corpus, None, ALGORITHMS))
    for measure, matrix in zip(SIMILARITY_MEASURES, matrices):
        _atomic_write(
            out_dir / f"clusters_{measure}.{ext}",
            _clusters(args, corpus, matrix, measure=measure),
        )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Flags that several subcommands take, each with one definition.
_SHARED_FLAGS = {
    "folds": dict(type=int, default=10),
    "k": dict(type=int, default=15),
    "measure": dict(required=True, choices=SIMILARITY_MEASURES),
    "wordnet": dict(help="directory with WordNet index/data files"),
    "wordlist": dict(help="common-word list, one per line"),
    "sentiment_lexicon": dict(help="word\\tpolarity file for the semantic set"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tasksim",
        description="Classify, compare, and cluster crowdsourcing "
                    "micro-tasks from their descriptions.",
    )
    parser.add_argument("--version", action="version",
                        version=f"tasksim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, corpus=True, out_required=False):
        if corpus:
            p.add_argument("--corpus", required=True,
                           help="task corpus in JSONL form")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", required=out_required,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("text", "csv"), default="text")

    def shared(p, *names):
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), **_SHARED_FLAGS[name])

    p = sub.add_parser("ingest", help="load a corpus and report quality")
    common(p)
    p.add_argument("--strict", action="store_true",
                   help="abort on the first invalid record")
    p.set_defaults(handler=cmd_ingest, echo=("strict",))

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    common(p, corpus=False, out_required=True)
    p.add_argument("--categories", type=int, default=5)
    p.add_argument("--per-category", type=int, default=60)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("cv", help="cross-validate one feature/algorithm cell")
    common(p)
    p.add_argument("--sets", required=True,
                   help="feature sets for this one cell, joined with ',' "
                        "or '+', e.g. content+structural")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    shared(p, "folds", "sentiment_lexicon")
    p.set_defaults(handler=cmd_cv, echo=("sets", "algo", "folds"))

    p = sub.add_parser("grid", help="cross-validate many cells at once")
    common(p)
    p.add_argument("--sets", default="all-combos",
                   help="'all-combos' or comma-separated '+'-joined "
                        "combinations")
    p.add_argument("--algo", default="all",
                   help="'all' or comma-separated algorithm names")
    shared(p, "folds", "sentiment_lexicon")
    p.set_defaults(handler=cmd_grid, echo=("sets", "algo", "folds"))

    p = sub.add_parser("sim", help="pairwise task similarity matrix")
    common(p)
    shared(p, "measure", "wordnet", "wordlist")
    p.set_defaults(handler=cmd_sim, echo=("measure",))

    p = sub.add_parser("cluster",
                       help="k-medoids clustering and category table")
    common(p)
    shared(p, "measure", "wordnet", "wordlist", "k")
    p.set_defaults(handler=cmd_cluster, echo=("measure", "k"))

    p = sub.add_parser("report",
                       help="full grid plus both clusterings, one directory")
    common(p, out_required=True)
    shared(p, "folds", "wordnet", "wordlist", "sentiment_lexicon", "k")
    p.set_defaults(handler=cmd_report, echo=("folds", "k"))

    return parser


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        text = args.handler(args)
        if args.out is None:
            try:
                _write(sys.stdout, text)
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader stopped early (`| head`): that is not an
                # error. Point stdout at devnull so the flush at exit
                # cannot raise again.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        elif text is not None:
            _atomic_write(args.out, text)
    except (CliError, CorpusError, WordNetError, EvaluationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
