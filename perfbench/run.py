#!/usr/bin/env python3
"""The tasksim benchmark: seeded workloads driven through the library API.

Run it from the root of a source checkout; it imports tasksim from `src`:

    python3 perfbench/run.py --workload grid-text --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --smoke                   # tiny inputs, seconds

How one run works. The driver generates the inputs with the `tasksim synth`
CLI from `--seed` and cuts them into instances, each a corpus of the
workload's size. Then, until `--seconds` have passed, it takes the next
instance and runs one pass over it in a fresh child process (child.py):
a closed loop with one client, since tasksim is a batch system. A pass
times its own set-up (interpreter start, imports, loading the corpus and
any WordNet, lexicon or word list) and then the work, up to rendered and
checked reports. Just before and after the work it times a fixed
pure-Python loop, which says how fast the machine runs Python at that
moment, and the pass's times are scaled by it to seconds at a reference
speed (see CALIBRATION_REF_S). The scaling assumes that the work slows
down as pure Python does. The figures are medians over the run's passes,
so that a hard instance or a noisy moment moves them little.

End-to-end metrics, every time in reference seconds: `setup_s` (process
start to inputs ready), `wall_s` (inputs ready to reports rendered and
checked), `items_per_s` (CV folds fitted and scored, or task pairs scored
by both measures, per second), `peak_rss_mb` (peak resident memory of a
pass's process) and `quality_mean` (mean pooled weighted F1 over the
cells, or mean purity over the clusterings, of the first
QUALITY_INSTANCES instances). Failed operations over attempted ones is the
error rate: `failed` and `attempted` on the last line. The details line
has the same times unscaled, as `raw_*`. Per-layer times are scaled alike.

With `--trace 0` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json. With `--trace 1` each instance is run twice,
plain and traced, and the last line carries the per-layer metrics: the
traced pass times the benchmark's own calls into each module (the grid
fold loop is driven by hand for that). A traced pass must reproduce the
plain pass's confusion matrices, similarity matrices and medoids exactly;
any difference counts as a failed operation. A layer that a workload does
not use reads 0 on it. The line before the last one holds the details:
corpus digest, reference checks, errors and the machine.

`reference.json` holds, per workload, the digest of the default seed's
generated corpus and of the reports rendered for its first instance, as
recorded when this benchmark was written. Every traced run, and every run
with the default seed, checks them. A changed corpus digest is an error,
because the comparison with earlier runs is void; a changed report digest
is only reported, as `reports.digest_match`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 7
CATEGORIES = 5
INSTANCES = 16  # corpora generated per run; the loop cycles if it needs more
# quality_mean averages the first instances only, so that it does not
# depend on how many passes fit in a run; a plain run makes at least these.
QUALITY_INSTANCES = 8
CHILD_TIMEOUT_S = 150
DEADLINE_S = 120  # no pass starts later than this, minimum or not
# The median time of child.py's calibration loop on the machine this
# benchmark was written on (2 vCPU VM, Python 3.11, quiet). A pass's times
# scaled by CALIBRATION_REF_S / its own calibration time read as seconds on
# that machine. On a shared host the speed drifts by 20% and more from one
# minute to the next; the scaling removes much of that from the figures.
# It assumes the work slows down as pure Python does, which holds less for
# numpy-bound code; the unscaled times are in the details line. The loop
# runs in the pass's own process: timed in the driver's process instead,
# on whichever CPU that gets, it tracked a pass's speed no better than no
# scaling at all.
CALIBRATION_REF_S = 0.025
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Sizes are per instance. They are small so that a run holds many passes:
# the time of a pass varies with its corpus (SMO above all), and a median
# over many corpora is what keeps two sets of runs in agreement.
WORKLOADS = {
    # Feature extraction is refit per fold and re-analyses every task each
    # time; the learners cost milliseconds. A per-corpus analysis cache
    # shows here, solver changes should not. The content+structural+semantic
    # knn cell does not saturate, so quality can move.
    "grid-text": {
        "kind": "grid", "per_category": 20, "folds": 5,
        "grids": [[[["content"], ["content", "structural", "semantic"]],
                   ["naive_bayes", "knn"]]],
    },
    # Learner fitting dominates, SMO above all: SMO on narrow dense input
    # (9 structural columns, where most SMO steps fail) is about half of a
    # pass and the forest about a third; SMO also runs on wide tf-idf
    # input. SMO's cost grows faster than the forest's with the training
    # set, so instances are large enough (about 40 samples per fit) for SMO
    # to lead. A solver change that helps one input and hurts the other
    # shows in the per-layer figures.
    "grid-solvers": {
        "kind": "grid", "per_category": 12, "folds": 3,
        "grids": [[[["structural"]], ["tree", "forest", "svm_smo"]],
                  [[["content"]], ["svm_smo"]]],
    },
    # Both similarity matrices (the pairwise required_action loop dominates),
    # PAM at two k, CSV and distribution rendering. No learner runs, and
    # text analysis happens once per task, so a cache that speeds grids but
    # costs memory or set-up shows here.
    "sim-cluster": {"kind": "sim", "per_category": 50, "ks": [15, 40]},
}
SMOKE_SIZES = {"grid": {"per_category": 6, "folds": 2}, "sim": {"per_category": 9}}


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _speed(result: dict) -> float:
    """Factor that turns a pass's seconds into reference-machine seconds."""
    return CALIBRATION_REF_S / result["calib_s"]


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _op_labels(spec) -> list[str]:
    """The operations one pass attempts, as child.py names them."""
    if spec["kind"] == "sim":
        measures = ("required_action", "comprehensibility")
        return [f"matrix {m}" for m in measures] + [
            f"clustering {m}.k{k}" for m in measures for k in spec["ks"]
        ]
    return [
        f"cell {'-'.join(sets)}.{algo}"
        for combos, algos in spec["grids"] for sets in combos for algo in algos
    ]


class Run:
    """One run of one workload: inputs, passes, tallies."""

    def __init__(self, root: Path, spec: dict, work: Path):
        self.root, self.spec, self.work = root, spec, work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.errors.append(why)

    def generate(self, seed: int) -> tuple[list[Path], str]:
        """Corpus for `seed` from the CLI, cut into per-category blocks of
        the workload's size: instance i takes the i-th block of each
        category."""
        out = self.work / f"corpus-{seed}.jsonl"
        per = self.spec["per_category"]
        proc = subprocess.run(
            [sys.executable, "-m", "tasksim.cli", "synth", "--seed", str(seed),
             "--categories", str(CATEGORIES),
             "--per-category", str(per * INSTANCES), "--out", str(out)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"tasksim synth failed: {proc.stderr.strip()}")
        by_category: dict[str, list[str]] = {}
        for line in out.read_text(encoding="utf-8").splitlines():
            by_category.setdefault(json.loads(line)["category"], []).append(line)
        paths = []
        for i in range(INSTANCES):
            path = self.work / f"instance-{seed}-{i:02d}.jsonl"
            block = [line for lines in by_category.values()
                     for line in lines[i * per:(i + 1) * per]]
            path.write_text("\n".join(block) + "\n", encoding="utf-8")
            paths.append(path)
        return paths, _sha256_file(out)

    def child(self, path: Path, mode: str, seed: int) -> dict | None:
        """One pass in a fresh process; None (all its operations failed)
        if the process fails."""
        labels = _op_labels(self.spec)
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(self.spec),
               str(path), mode, str(seed)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + [repr(spawned)], cwd=self.root, env=self.env,
                stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            self.attempted += len(labels)
            self.errors.extend(f"{path.name} {mode}: {label}: {exc}" for label in labels)
            return None
        self.attempted += result["attempted"]
        self.errors.extend(
            f"{path.name} {mode}: {label}: {why}"
            for label, why in result["errors"].items()
        )
        return result

    def compare(self, plain: dict, traced: dict, path: Path) -> None:
        """The traced pass must measure the same program as the plain one."""
        keys = ("cells",) if self.spec["kind"] == "grid" else ("matrices", "clusterings")
        for key in keys:
            mismatched = [a for a, b in zip(plain[key], traced[key]) if a != b]
            if len(plain[key]) != len(traced[key]):
                mismatched.append({key: "different number of outputs"})
            for item in mismatched:
                self.fail(f"{path.name}: traced pass differs from plain: {item}")


def run_workload(root: Path, name: str, spec: dict, seed: int,
                 seconds: float, traced: bool, reference: dict | None,
                 min_passes: int) -> tuple[dict, dict]:
    """Returns (final result, details)."""
    work = root / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(root, spec, work)
        instances, corpus_sha = run.generate(seed)
        details = {"workload": name, "seed": seed, "trace": int(traced),
                   "corpus_sha256": corpus_sha, "spec": spec}

        reference_plain = None
        if reference is not None and (seed == DEFAULT_SEED or traced):
            ref_instances, ref_sha = (
                (instances, corpus_sha) if seed == DEFAULT_SEED
                else run.generate(DEFAULT_SEED)
            )
            run.attempted += 1
            if ref_sha != reference["corpus_sha256"]:
                run.fail(f"default-seed corpus digest {ref_sha} differs from "
                         f"the recorded {reference['corpus_sha256']}: inputs changed")
            if traced and seed != DEFAULT_SEED:
                reference_plain = run.child(ref_instances[0], "plain", DEFAULT_SEED)

        plains, traces, quality = [], [], []
        start = time.monotonic()
        i = 0
        while (elapsed := time.monotonic() - start) < seconds or (
            i < min_passes and elapsed < DEADLINE_S
        ):
            path = instances[i % len(instances)]
            plain = run.child(path, "plain", seed)
            if plain is not None:
                plains.append(plain)
                if i < QUALITY_INSTANCES and plain["quality"] is not None:
                    quality.append(plain["quality"])
            if traced:
                trace = run.child(path, "traced", seed)
                if trace is not None:
                    traces.append((plain, trace))
                    if plain is not None:
                        run.compare(plain, trace, path)
            i += 1
        if seed == DEFAULT_SEED and plains:
            reference_plain = plains[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not plains:
        raise BenchError(f"no pass of {name} completed: {run.errors[:3]}")
    end_to_end = {
        "setup_s": _median([p["setup_s"] * _speed(p) for p in plains]),
        "wall_s": _median([p["wall_s"] * _speed(p) for p in plains]),
        "items_per_s": _median([p["items"] / (p["wall_s"] * _speed(p)) for p in plains]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plains]),
        "quality_mean": statistics.fmean(quality) if quality else 0.0,
    }
    layer: dict[str, float] = {}
    if traced:
        names = sorted({key for _, t in traces for key in t["layer"]})
        for key in names:
            layer[key] = _median([
                t["layer"].get(key, 0.0) * (_speed(t) if key.endswith("_s") else 1.0)
                for _, t in traces
            ])
        layer["process.cpu_s"] = _median([p["cpu_s"] * _speed(p) for p in plains])
        layer["trace.overhead_frac"] = _median([
            t["wall_s"] * _speed(t) / (p["wall_s"] * _speed(p)) - 1.0
            for p, t in traces if p is not None
        ])
        report_sha = reference_plain["report_sha256"] if reference_plain else None
        layer["reports.digest_match"] = float(
            reference is not None and report_sha == reference["report_sha256"]
        )
        details["reference_report_sha256"] = report_sha

    failed = len(run.errors)
    details.update({
        "passes": len(plains),
        "traced_passes": len(traces),
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / max(run.attempted, 1),
        "errors": run.errors[:20],
        "raw_setup_s": _median([p["setup_s"] for p in plains]),
        "raw_wall_s": _median([p["wall_s"] for p in plains]),
        "raw_items_per_s": _median([p["items"] / p["wall_s"] for p in plains]),
        "wall_s_samples": [round(p["wall_s"], 4) for p in plains],
        "calib_s_samples": [round(p["calib_s"], 5) for p in plains],
        "machine": machine(root, plains[0]),
    })
    values = end_to_end if not traced else layer
    return {"attempted": max(run.attempted, 1), "failed": failed, "values": values}, details


def machine(root: Path, child: dict) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count()
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def result_line(bench: dict, outcome: dict, group: str) -> dict:
    """The contract's last line: every metric of `group` with its unit; a
    metric the workload does not produce reads 0."""
    metrics = {
        m["name"]: {"value": outcome["values"].get(m["name"], 0.0), "unit": m["unit"]}
        for m in bench[group]
    }
    return {"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def smoke(root: Path, bench: dict) -> int:
    """Every workload's code path on tiny inputs, plain and traced. Fails
    unless each run is correct and every metric of BENCHMARK.json is
    produced by some workload, and no workload produces an unlisted one."""
    problems = []
    produced = {"end_to_end": set(), "per_layer": set()}
    for name, spec in WORKLOADS.items():
        small = dict(spec, **SMOKE_SIZES[spec["kind"]])
        for traced, group in ((False, "end_to_end"), (True, "per_layer")):
            outcome, details = run_workload(root, name, small, DEFAULT_SEED, 0,
                                            traced, None, min_passes=1)
            listed = {m["name"] for m in bench[group]}
            produced[group] |= set(outcome["values"])
            unlisted = set(outcome["values"]) - listed
            if unlisted:
                problems.append(f"{name}: unlisted {group} metrics {sorted(unlisted)}")
            if outcome["failed"]:
                problems.append(f"{name} trace={int(traced)}: {details['errors']}")
            line = result_line(bench, outcome, group)
            print(json.dumps({"workload": name, "trace": int(traced), **line}))
    for group, names in produced.items():
        missing = sorted({m["name"] for m in bench[group]} - names)
        if missing:
            problems.append(f"{group} metrics no workload produced: {missing}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the metric names")
    args = parser.parse_args(argv)
    # On SIGTERM unwind as on an exception: subprocess.run then kills and
    # waits for the running pass, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    try:
        if not (root / "src" / "tasksim" / "__init__.py").is_file():
            raise BenchError("run from a tasksim checkout: src/tasksim not found")
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.smoke:
            return smoke(root, bench)
        references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            outcome, details = run_workload(
                root, name, WORKLOADS[name], args.seed, args.seconds,
                bool(args.trace), references.get(name),
                min_passes=1 if args.trace else QUALITY_INSTANCES,
            )
            print(json.dumps(details))
            group = "per_layer" if args.trace else "end_to_end"
            print(json.dumps(result_line(bench, outcome, group)))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
