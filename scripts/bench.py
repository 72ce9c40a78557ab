#!/usr/bin/env python3
"""End-to-end timings of tasksim CLI subcommands, written to a BENCH_*.json.

Each command in COMMANDS runs as its own process, `python -m tasksim.cli`,
on the seed-7 synthetic corpora of 300 and 3000 tasks: `sim` and `cluster`
for both measures, and a few `cv` and `grid` cells. `report` is left out,
since one run takes about 100 s at 300 tasks. Every checkout named with
--side is timed in the same session: the sides take turns on each command,
so that a drift in machine speed falls on all of them alike.
Per command and side the file records the median of REPEATS wall times,
the peak RSS of the command's process (its own rusage, as wait4 returns it
for that child; on Linux that also counts the peak of this script's own
process, so the script neither imports numpy nor reads an output whole),
and the SHA-256 of what it wrote after its three header lines, so that
equal outputs can be checked across sides and across BENCH files (the third
line names the corpus path, a fresh temp directory each run). It also
records the machine (cores, Python, numpy, OPENBLAS_NUM_THREADS) and each
side's `src/` line count.

    python3 scripts/bench.py --side parent=../parent --side change=. \\
        --out BENCH_NN.json

Run it on a quiet machine; the commands at 3000 tasks take seconds each.
Under PYTHONDONTWRITEBYTECODE=1 the script refuses a side whose `src/`
holds a `__pycache__`, which would skip recompiling `src/` in every
command; time fresh `git archive` copies instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

# (corpus tasks, argv after `python -m tasksim.cli`); {corpus}, {wordnet}
# and {out} are filled in per run. The cv and grid rows run no similarity
# or clustering code, so they time the rest of the command line.
COMMANDS = [
    (size, [sub, "--measure", measure, *extra, "--wordnet", "{wordnet}"])
    for size in (300, 3000)
    for measure in ("required_action", "comprehensibility")
    for sub, extra in (
        ("sim", ["--format", "csv"]),
        ("cluster", ["--k", "15"]),
        ("cluster", ["--k", "40"]),
    )
] + [
    (size, ["cv", "--sets", sets, "--algo", algo, "--folds", "10"])
    for size in (300, 3000)
    for sets, algo in (("content", "naive_bayes"), ("structural", "svm_smo"))
] + [
    # at 3000 tasks the tree fits are most of the command's time
    (3000, ["cv", "--sets", "structural", "--algo", "tree", "--folds", "10"]),
    (300, ["cv", "--sets", "structural", "--algo", "forest", "--folds", "10"]),
    # each node draws its columns from the ~1368 content columns
    (300, ["cv", "--sets", "content", "--algo", "forest", "--folds", "10"]),
] + [
    (300, ["grid", "--algo", "naive_bayes,knn", "--folds", "10"]),
]
COMMON_ARGS = ["--corpus", "{corpus}", "--seed", "7", "--out", "{out}"]
# tasks per category of each corpus size, for `tasksim synth --seed 7`
CORPORA = {300: 60, 3000: 600}
# runs of each command per side
REPEATS = 3


def command_name(size: int, argv: list) -> str:
    return f"{' '.join(argv)} @{size}"


def run(side: Path, argv: list) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI process of `side`."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "tasksim.cli", *argv], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {side}: "
                         f"{child.stderr.read().decode()}")
    child.stderr.close()
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def sha256(path: Path, skip_lines: int = 0) -> str:
    """The file's SHA-256 after its first skip_lines lines, read in chunks:
    a child's peak RSS counts this process's own peak."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for _ in range(skip_lines):
            f.readline()
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def src_lines(side: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in (side / "src").rglob("*.py"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        metavar="NAME=DIR", help="a source checkout to time")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    sides = dict(s.split("=", 1) for s in args.side)
    sides = {name: Path(d).resolve() for name, d in sides.items()}
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        stale = [str(d) for d in sides.values() if any((d / "src").rglob("__pycache__"))]
        if stale:
            raise SystemExit(
                "PYTHONDONTWRITEBYTECODE is set and these sides' src/ hold a "
                f"__pycache__, which would skip recompiling src/: {', '.join(stale)}; "
                "time fresh copies (git archive) instead"
            )
    first = next(iter(sides.values()))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpora = {}
        for size, per_category in CORPORA.items():
            corpus = tmp / f"corpus{size}.jsonl"
            run(first, ["synth", "--seed", "7", "--per-category",
                        str(per_category), "--out", str(corpus)])
            corpora[size] = corpus
        results = {name: {"src_lines": src_lines(d), "commands": {}}
                   for name, d in sides.items()}
        same_output = {}
        for size, argv in COMMANDS:
            name = command_name(size, argv)
            walls = {side: [] for side in sides}
            for _ in range(REPEATS):
                for side, root in sides.items():
                    fill = {
                        "corpus": str(corpora[size]),
                        "wordnet": str(root / "src/tasksim/resources/mini_wordnet"),
                        "out": str(tmp / f"{side}.out"),
                    }
                    full = [a.format(**fill) for a in argv + COMMON_ARGS]
                    wall, rss = run(root, full)
                    walls[side].append((wall, rss))
            digests = set()
            for side in sides:
                digest = sha256(tmp / f"{side}.out", skip_lines=3)
                digests.add(digest)
                results[side]["commands"][name] = {
                    "wall_s": statistics.median(w for w, _ in walls[side]),
                    "wall_s_runs": [round(w, 4) for w, _ in walls[side]],
                    "peak_rss_mb": max(r for _, r in walls[side]),
                    "peak_rss_mb_runs": [round(r, 1) for _, r in walls[side]],
                    "output_sha256": digest,
                }
            same_output[name] = len(digests) == 1
            print(name, {side: round(results[side]["commands"][name]["wall_s"], 3)
                         for side in sides}, flush=True)
        report = {
            "machine": {
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": version("numpy"),
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
            "corpora": {str(size): {"tasks": size, "synth": f"--seed 7 --per-category {pc}",
                                    "sha256": sha256(corpora[size])}
                        for size, pc in CORPORA.items()},
            "repeats": REPEATS,
            "sides": results,
            "same_output": same_output,
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
