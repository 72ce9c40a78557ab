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
    render_distribution_csv,
    render_distribution_text,
    render_grid_csv,
    render_grid_text,
    render_matrix_csv,
    render_matrix_text,
    render_report_csv,
    render_report_text,
)
from .cluster import k_medoids, purity
from .semsim import SIMILARITY_MEASURES, load_wordlist, similarity_matrix
from .synth import synthetic_corpus_text
from .wordnet import WordNetError, load_wordnet


class CliError(RuntimeError):
    """Invalid invocation or missing resource, reported as one line."""


def generate_synthetic_corpus(
    path, seed: int, categories: int = 5, per_category: int = 60
) -> int:
    """Write a synthetic corpus file; returns the number of records."""
    text = synthetic_corpus_text(seed, categories, per_category)
    _atomic_write(path, text)
    return categories * per_category


# ---------------------------------------------------------------------------
# Input checks and output plumbing
# ---------------------------------------------------------------------------

def _check_resources(args, needs_wordnet: bool) -> None:
    """Fail before any work if a given input path is missing, or if the
    run needs WordNet and --wordnet was not given."""
    for flag, dest in (
        ("--corpus", "corpus"),
        ("--wordlist", "wordlist"),
        ("--sentiment-lexicon", "sentiment_lexicon"),
    ):
        value = getattr(args, dest, None)
        if value is not None and not Path(value).is_file():
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


def _atomic_write(path, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=f".{target.name}."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(command: str, seed: int, echo: dict) -> str:
    pairs = " ".join(f"{key}={value}" for key, value in echo.items())
    return (
        f"# tasksim {__version__} {command}\n"
        f"# seed: {seed}\n"
        f"# config: {pairs}\n"
    )


def _emit(out_path, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out_path, text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_lexicon(args):
    if getattr(args, "sentiment_lexicon", None) is None:
        return None
    return load_sentiment_lexicon(args.sentiment_lexicon)


def cmd_ingest(args) -> int:
    _check_resources(args, needs_wordnet=False)
    corpus = load_corpus(args.corpus, strict=args.strict)
    echo = {"corpus": args.corpus, "strict": args.strict,
            "format": args.format}
    counts = sorted(corpus.category_counts.items())
    if args.format == "csv":
        body_lines = ["category,count"]
        body_lines += [f"{category},{n}" for category, n in counts]
        quality = "".join(
            f"# {line}\n" for line in corpus.report.render().splitlines()
        )
        body = quality + "\n".join(body_lines) + "\n"
    else:
        width = max([len("category")] + [len(c) for c, _ in counts])
        table = [f"{'category'.ljust(width)}  count"]
        table += [f"{c.ljust(width)}  {n}" for c, n in counts]
        body = corpus.report.render() + "\n\n" + "\n".join(table) + "\n"
    _emit(args.out, _header("ingest", args.seed, echo) + body)
    return 0


def cmd_synth(args) -> int:
    generate_synthetic_corpus(
        args.out, args.seed, args.categories, args.per_category
    )
    return 0


def _parse_sets(spec: str) -> tuple[str, ...]:
    # one cell's worth of feature sets; ',' and '+' both join
    parts = tuple(
        part.strip()
        for part in spec.replace(",", "+").split("+")
        if part.strip()
    )
    if not parts:
        raise CliError(f"empty feature-set list: {spec!r}")
    return parts


def cmd_cv(args) -> int:
    sets = _parse_sets(args.sets)
    _check_resources(args, needs_wordnet=False)
    corpus = load_corpus(args.corpus)
    report = cross_validate(
        corpus, sets, args.algo, args.folds, args.seed,
        sentiment_lexicon=_load_lexicon(args),
    )
    echo = {"corpus": args.corpus, "sets": args.sets, "algo": args.algo,
            "folds": args.folds, "format": args.format}
    render = render_report_csv if args.format == "csv" else render_report_text
    _emit(args.out, _header("cv", args.seed, echo) + render(report))
    return 0


def cmd_grid(args) -> int:
    if args.sets == "all-combos":
        combos = None
    else:
        combos = tuple(
            _parse_sets(part) for part in args.sets.split(",") if part.strip()
        )
        if not combos:
            raise CliError(f"empty feature-set list: {args.sets!r}")
    algos = ALGORITHMS if args.algo == "all" else tuple(
        part.strip() for part in args.algo.split(",") if part.strip()
    )
    if not algos:
        raise CliError(f"empty algorithm list: {args.algo!r}")
    _check_resources(args, needs_wordnet=False)
    corpus = load_corpus(args.corpus)
    grid = grid_run(
        corpus, combos, algos, k=args.folds, seed=args.seed,
        sentiment_lexicon=_load_lexicon(args),
    )
    echo = {"corpus": args.corpus, "sets": args.sets, "algo": args.algo,
            "folds": args.folds, "format": args.format}
    render = render_grid_csv if args.format == "csv" else render_grid_text
    _emit(args.out, _header("grid", args.seed, echo) + render(grid))
    return 0


def _similarity_inputs(args):
    wn = load_wordnet(args.wordnet) if args.wordnet else None
    wordlist = load_wordlist(args.wordlist) if args.wordlist else None
    return wn, wordlist


def cmd_sim(args) -> int:
    _check_resources(args, needs_wordnet=args.measure == "required_action")
    corpus = load_corpus(args.corpus)
    wn, wordlist = _similarity_inputs(args)
    matrix = similarity_matrix(corpus, args.measure, wn=wn, wordlist=wordlist)
    echo = {"corpus": args.corpus, "measure": args.measure,
            "format": args.format}
    render = render_matrix_csv if args.format == "csv" else render_matrix_text
    _emit(args.out, _header("sim", args.seed, echo) + render(matrix))
    return 0


def cmd_cluster(args) -> int:
    _check_resources(args, needs_wordnet=args.measure == "required_action")
    corpus = load_corpus(args.corpus)
    wn, wordlist = _similarity_inputs(args)
    matrix = similarity_matrix(corpus, args.measure, wn=wn, wordlist=wordlist)
    clustering = k_medoids(matrix, args.k, seed=args.seed)
    labels = {task.id: task.category for task in corpus}
    echo = {"corpus": args.corpus, "measure": args.measure, "k": args.k,
            "format": args.format}
    render = (render_distribution_csv if args.format == "csv"
              else render_distribution_text)
    stats = (
        f"# total_dissimilarity: {clustering.total_dissimilarity:.6f}\n"
        f"# purity: {purity(clustering, labels):.6f}\n"
    )
    _emit(args.out, _header("cluster", args.seed, echo) + stats
          + render(clustering, corpus))
    return 0


def cmd_report(args) -> int:
    # the required_action clustering always needs WordNet
    _check_resources(args, needs_wordnet=True)
    corpus = load_corpus(args.corpus)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if args.format == "csv" else "txt"
    echo_base = {"corpus": args.corpus, "folds": args.folds, "k": args.k,
                 "format": args.format}

    grid = grid_run(
        corpus, None, ALGORITHMS, k=args.folds, seed=args.seed,
        sentiment_lexicon=_load_lexicon(args),
    )
    render = render_grid_csv if args.format == "csv" else render_grid_text
    _atomic_write(
        out_dir / f"grid.{ext}",
        _header("report", args.seed, echo_base) + render(grid),
    )

    wn, wordlist = _similarity_inputs(args)
    labels = {task.id: task.category for task in corpus}
    for measure in SIMILARITY_MEASURES:
        matrix = similarity_matrix(corpus, measure, wn=wn, wordlist=wordlist)
        clustering = k_medoids(matrix, args.k, seed=args.seed)
        body = (
            f"# total_dissimilarity: {clustering.total_dissimilarity:.6f}\n"
            f"# purity: {purity(clustering, labels):.6f}\n"
        )
        dist_render = (render_distribution_csv if args.format == "csv"
                       else render_distribution_text)
        echo = dict(echo_base, measure=measure)
        _atomic_write(
            out_dir / f"clusters_{measure}.{ext}",
            _header("report", args.seed, echo) + body
            + dist_render(clustering, corpus),
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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

    p = sub.add_parser("ingest", help="load a corpus and report quality")
    common(p)
    p.add_argument("--strict", action="store_true",
                   help="abort on the first invalid record")
    p.set_defaults(handler=cmd_ingest)

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
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--sentiment-lexicon",
                   help="word\\tpolarity file for the semantic set")
    p.set_defaults(handler=cmd_cv)

    p = sub.add_parser("grid", help="cross-validate many cells at once")
    common(p)
    p.add_argument("--sets", default="all-combos",
                   help="'all-combos' or comma-separated '+'-joined "
                        "combinations")
    p.add_argument("--algo", default="all",
                   help="'all' or comma-separated algorithm names")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--sentiment-lexicon")
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("sim", help="pairwise task similarity matrix")
    common(p)
    p.add_argument("--measure", required=True, choices=SIMILARITY_MEASURES)
    p.add_argument("--wordnet", help="directory with WordNet index/data "
                                     "files")
    p.add_argument("--wordlist", help="common-word list, one per line")
    p.set_defaults(handler=cmd_sim)

    p = sub.add_parser("cluster",
                       help="k-medoids clustering and category table")
    common(p)
    p.add_argument("--measure", required=True, choices=SIMILARITY_MEASURES)
    p.add_argument("--wordnet")
    p.add_argument("--wordlist")
    p.add_argument("--k", type=int, default=15)
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("report",
                       help="full grid plus both clusterings, one directory")
    common(p, out_required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--wordnet")
    p.add_argument("--wordlist")
    p.add_argument("--sentiment-lexicon")
    p.add_argument("--k", type=int, default=15)
    p.set_defaults(handler=cmd_report)

    return parser


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CliError, CorpusError, WordNetError, EvaluationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
