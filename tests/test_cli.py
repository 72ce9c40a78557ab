"""Synthetic corpus generator and command-line dispatch."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from tasksim.cli import CliError, _parse_sets, dispatch
from tasksim.corpus import load_corpus
from tasksim import __version__, cli, cluster, semsim
from tasksim.learn import svm
from tasksim.semsim import extract_verb_phrases
from tasksim.synth import _NOISE_POOL, _SIGNATURES, synthetic_corpus_text
from tasksim.wordnet import bundled_mini_wordnet_dir, load_wordnet

WORDNET_DIR = str(bundled_mini_wordnet_dir())


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_signature_sets_are_disjoint_and_complete():
    seen = set()
    for verbs, extras in _SIGNATURES.values():
        words = set(verbs) | set(extras)
        assert len(verbs) == 5 and len(extras) == 10
        assert len(words) == 15
        assert not words & seen
        seen |= words
    assert len(_NOISE_POOL) == 100
    assert len(set(_NOISE_POOL)) == 100
    assert not set(_NOISE_POOL) & seen


def test_synth_defaults_shape():
    text = synthetic_corpus_text(7)
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) == 300
    categories = {r["category"] for r in records}
    assert categories == {"signup", "install", "watch", "search", "review"}
    ids = [r["id"] for r in records]
    assert len(set(ids)) == 300
    for record in records[:20]:
        assert record["payment"] >= 0
        assert record["time_to_finish"] > 0
        assert 0 <= record["success_rate"] <= 1


def test_synth_is_seed_deterministic():
    assert synthetic_corpus_text(1) == synthetic_corpus_text(1)
    assert synthetic_corpus_text(1) != synthetic_corpus_text(2)


def test_synth_rejects_bad_counts():
    with pytest.raises(ValueError, match="categories"):
        synthetic_corpus_text(0, categories=0)
    with pytest.raises(ValueError, match="per_category"):
        synthetic_corpus_text(0, per_category=0)


def test_synth_rejects_a_bad_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
        synthetic_corpus_text(-5)
    for seed in (1.5, "7", None):
        with pytest.raises(TypeError):
            synthetic_corpus_text(seed)
    assert synthetic_corpus_text(np.int64(3)) == synthetic_corpus_text(3)


def test_synth_loads_cleanly_as_a_corpus(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(synthetic_corpus_text(7, categories=3, per_category=4), encoding="utf-8")
    corpus = load_corpus(path, strict=True)
    assert len(corpus) == 12
    assert corpus.category_counts == {"signup": 4, "install": 4, "watch": 4}
    assert corpus.report.skipped == ()


def test_synth_supports_extra_categories(tmp_path):
    path = tmp_path / "wide.jsonl"
    path.write_text(synthetic_corpus_text(0, categories=7, per_category=2), encoding="utf-8")
    corpus = load_corpus(path, strict=True)
    assert len(corpus.category_counts) == 7
    assert {"extra1", "extra2"} <= set(corpus.category_counts)


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_synth_records_all_load_at_many_categories(tmp_path, seed):
    # the success-rate band rises with the category index but stops below 1
    path = tmp_path / "wide.jsonl"
    path.write_text(
        synthetic_corpus_text(seed, categories=12, per_category=20), encoding="utf-8"
    )
    assert len(load_corpus(path, strict=True)) == 240


def test_synth_factual_fields_shift_by_category(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(synthetic_corpus_text(11, per_category=30), encoding="utf-8")
    corpus = load_corpus(path)
    by_cat = {}
    for task in corpus:
        by_cat.setdefault(task.category, []).append(task.payment)
    means = {c: sum(v) / len(v) for c, v in by_cat.items()}
    # category index shifts the payment band by 0.10 per step
    assert means["review"] > means["signup"] + 0.2


def test_every_synthetic_task_has_a_verb_phrase(tmp_path):
    wn = load_wordnet(WORDNET_DIR)
    path = tmp_path / "s.jsonl"
    path.write_text(synthetic_corpus_text(5, per_category=10), encoding="utf-8")
    corpus = load_corpus(path)
    for task in corpus:
        phrases = extract_verb_phrases(task, wn)
        assert phrases, task.id
        verbs = {phrase.verb_lemma for phrase in phrases}
        assert verbs <= set(_SIGNATURES[task.category][0])


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def test_parse_sets_accepts_both_joiners():
    assert _parse_sets("content") == ("content",)
    assert _parse_sets("content,structural") == ("content", "structural")
    assert _parse_sets("content+structural") == ("content", "structural")
    with pytest.raises(CliError, match="empty feature-set list"):
        _parse_sets(",")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.jsonl"
    path.write_text(synthetic_corpus_text(3, categories=3, per_category=6), encoding="utf-8")
    return str(path)


def test_synth_command_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert dispatch(["synth", "--out", str(a), "--seed", "9"]) == 0
    assert dispatch(["synth", "--out", str(b), "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # corpus files carry no comment header; every line is a record
    assert not a.read_text().startswith("#")


def test_ingest_reports_to_stdout(small_corpus, capsys):
    assert dispatch(["ingest", "--corpus", small_corpus]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# tasksim")
    assert "# seed: 7" in out
    assert "tasks_loaded: 18" in out
    assert "signup" in out


def test_ingest_writes_file_and_keeps_stdout_quiet(small_corpus, tmp_path,
                                                   capsys):
    out_path = tmp_path / "ingest.txt"
    assert dispatch(
        ["ingest", "--corpus", small_corpus, "--out", str(out_path)]
    ) == 0
    assert capsys.readouterr().out == ""
    text = out_path.read_text()
    assert text.startswith("# tasksim")
    assert [f for f in os.listdir(tmp_path) if f.startswith(".")] == []


def test_cv_text_report(small_corpus, capsys):
    code = dispatch([
        "cv", "--corpus", small_corpus, "--sets", "content",
        "--algo", "naive_bayes", "--folds", "3", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "# seed: 1" in out
    assert "weighted_f1:" in out
    assert "confusion (rows actual, columns predicted):" in out


def test_cv_csv_report_parses(small_corpus, tmp_path):
    out_path = tmp_path / "cell.csv"
    dispatch([
        "cv", "--corpus", small_corpus, "--sets", "factual,structural",
        "--algo", "knn", "--folds", "3", "--out", str(out_path),
        "--format", "csv",
    ])
    lines = out_path.read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    assert rows[0][:3] == ["feature_sets", "algorithm", "weighted_f1"]
    assert rows[1][0] == "factual+structural"
    assert rows[1][1] == "knn"
    assert 0.0 <= float(rows[1][2]) <= 1.0


def test_grid_lists_requested_cells(small_corpus, capsys):
    code = dispatch([
        "grid", "--corpus", small_corpus, "--sets", "factual,structural",
        "--algo", "naive_bayes,tree", "--folds", "2", "--seed", "0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].split() == ["feature_sets", "naive_bayes", "tree"]
    assert [line.split()[0] for line in lines[1:]] == ["factual",
                                                       "structural"]


def _grid_body_sha256(tmp_path, sets, algo):
    """sha256 of a seeded 3-fold grid CSV, header comments dropped."""
    corpus, out = tmp_path / "c.jsonl", tmp_path / "g.csv"
    assert dispatch(["synth", "--out", str(corpus), "--seed", "11",
                     "--categories", "3", "--per-category", "8"]) == 0
    assert dispatch([
        "grid", "--corpus", str(corpus), "--format", "csv", "--sets", sets,
        "--algo", algo, "--folds", "3", "--seed", "4", "--out", str(out),
    ]) == 0
    body = "".join(
        line for line in out.read_text().splitlines(keepends=True)
        if not line.startswith("#")
    )
    return hashlib.sha256(body.encode()).hexdigest()


# Taken with the folds that tasksim.stream deals. CHANGES.md records the
# digests before them, which the same learners reproduce when numpy's
# `default_rng(seed).permutation` deals the folds instead.
_CONTENT_GRID_SHA256 = "aa810ef75447e9b074e2ca919f8178ed2de0530f439de0bbdca11f6885d21455"
_SVM_GRID_SHA256 = "eaa7b603a73b59cc6e5dadfa318c92c2762517d4edfdb9d502ee53e13f370c3f"
_TREE_GRID_SHA256 = "561cbd40777c36b3b646521c5ab43492b9bbae5e295dea52140cfac021678fe8"
_FOREST_GRID_SHA256 = "468264b751e6442e24f7b47a1ad724739e2d12cf4bcfd751bbba2ba138385f92"
_FACTUAL_SEMANTIC_GRID_SHA256 = (
    "f229ff3b054919909533612f82672198315f41cd29855c4707adbf331ca3d5ee"
)


def test_content_grid_bytes_are_pinned(tmp_path):
    sets = "content,content+structural+semantic"
    digest = _grid_body_sha256(tmp_path, sets, "naive_bayes,knn")
    assert digest == _CONTENT_GRID_SHA256


def test_svm_grid_bytes_are_pinned(tmp_path):
    digest = _grid_body_sha256(tmp_path, "structural,content", "svm_smo")
    assert digest == _SVM_GRID_SHA256


def test_tree_grid_bytes_are_pinned(tmp_path):
    digest = _grid_body_sha256(tmp_path, "structural,content", "tree")
    assert digest == _TREE_GRID_SHA256


def test_forest_grid_bytes_are_pinned(tmp_path):
    digest = _grid_body_sha256(tmp_path, "structural,content", "forest")
    assert digest == _FOREST_GRID_SHA256


def test_factual_semantic_grid_bytes_are_pinned(tmp_path):
    sets = "factual,semantic,factual+structural+semantic"
    digest = _grid_body_sha256(tmp_path, sets, "naive_bayes,knn")
    assert digest == _FACTUAL_SEMANTIC_GRID_SHA256


@pytest.fixture(scope="module")
def pin_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "c.jsonl"
    assert dispatch(["synth", "--out", str(path), "--seed", "11",
                     "--categories", "5", "--per-category", "8"]) == 0
    return str(path)


def _file_body_sha256(path):
    """sha256 of one report file after its three header lines (command, seed
    and the config echo, which names the corpus path)."""
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2].startswith("# config: ")
    return hashlib.sha256("".join(lines[3:]).encode()).hexdigest()


def _body_sha256(tmp_path, argv):
    out = tmp_path / "r.out"
    assert dispatch(argv + ["--out", str(out)]) == 0
    return _file_body_sha256(out)


# as the per-character sentence splitter and the two-pattern word scanner,
# with uncached syllable counts and lemmas, produced them
_SIM_SHA256 = {
    ("required_action", "csv"):
        "4477970463056ef318c201d582b76717d60718f07cda10325188069bee713519",
    ("required_action", "text"):
        "5ccabba55db0c062c7c67a857ddf9cf10f596f1be56ce44c482f6a0bf379e1f0",
    ("comprehensibility", "csv"):
        "c89fa0983ee682d780616a570df76d211ba9be24abfac21542d2577a3dc19bc1",
    ("comprehensibility", "text"):
        "477d336b03d13ed90262fc0ccd35dda75e9e743c8a7cf3ec06fb20f79c74e41b",
}
_CLUSTER_SHA256 = {
    "required_action":
        "fd967d16adbc91f9f3d66dd8d58799998fc7e4695c0d143961cf57396886a369",
    "comprehensibility":
        "be52392103ab4c81c2b95c6197f19768133a2f7c1441ce3a1ddd6bec5248054e",
}


@pytest.mark.parametrize("measure, fmt", sorted(_SIM_SHA256))
def test_sim_bytes_are_pinned(pin_corpus, tmp_path, measure, fmt):
    digest = _body_sha256(tmp_path, [
        "sim", "--corpus", pin_corpus, "--measure", measure,
        "--wordnet", WORDNET_DIR, "--format", fmt,
    ])
    assert digest == _SIM_SHA256[measure, fmt]


@pytest.mark.parametrize("measure", sorted(_CLUSTER_SHA256))
def test_cluster_bytes_are_pinned(pin_corpus, tmp_path, measure):
    # the pinned bytes include the total dissimilarity and purity lines
    digest = _body_sha256(tmp_path, [
        "cluster", "--corpus", pin_corpus, "--measure", measure,
        "--wordnet", WORDNET_DIR, "--k", "15", "--format", "csv",
    ])
    assert digest == _CLUSTER_SHA256[measure]


# as the learners of the grid pins above, and the clusterings of the cluster
# pins, produced them
_REPORT_SHA256 = {
    "grid.txt": "6cad2d9faf55584669746f1bfe0e36d8d25ce411c71806101b88deba3746b74d",
    "clusters_required_action.txt":
        "471714c8668f96efb9d9d4220726dba34b5c8fb56a0b165bc7d82ec9e224f128",
    "clusters_comprehensibility.txt":
        "6c9c868610bebcbfa6090e97566d09d0bbf1e57724a34413d406ee3d2236ef73",
}


def test_report_bytes_are_pinned(pin_corpus, tmp_path):
    assert dispatch([
        "report", "--corpus", pin_corpus, "--wordnet", WORDNET_DIR,
        "--folds", "3", "--out", str(tmp_path),
    ]) == 0
    digests = {path.name: _file_body_sha256(path) for path in tmp_path.iterdir()}
    assert digests == _REPORT_SHA256


_REPORT_IMPORT_PROBE = """
import sys
from tasksim.cli import dispatch

assert dispatch(sys.argv[1:]) == 0
print("numpy.random" in sys.modules)
"""


def test_report_never_imports_numpy_random(small_corpus, tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _REPORT_IMPORT_PROBE, "report", "--corpus", small_corpus,
         "--wordnet", WORDNET_DIR, "--folds", "2", "--k", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"


def test_cluster_reruns_byte_identical(small_corpus, tmp_path):
    args = [
        "cluster", "--corpus", small_corpus, "--measure", "required_action",
        "--wordnet", WORDNET_DIR, "--k", "3", "--seed", "2",
        "--format", "csv",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(args + ["--out", str(a)]) == 0
    assert dispatch(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "# purity:" in text
    assert "# total_dissimilarity:" in text
    data = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    assert rows[0][:3] == ["cluster", "size", "medoid"]
    assert len(rows) == 4


def test_sim_matrix_output(small_corpus, capsys):
    code = dispatch([
        "sim", "--corpus", small_corpus, "--measure", "comprehensibility",
        "--format", "csv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    data = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    assert rows[0][0] == "id"
    assert len(rows) == 19
    assert rows[1][1] == "1.000000"


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_sim_reader_that_stops_early_is_not_an_error(tmp_path, fmt):
    # 150 x 150 cells, far more than a pipe holds, so later writes meet a
    # reader that has gone, as under `tasksim sim ... | head`
    corpus = tmp_path / "c.jsonl"
    assert dispatch(["synth", "--out", str(corpus), "--seed", "3",
                     "--categories", "5", "--per-category", "30"]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "tasksim.cli", "sim", "--corpus", str(corpus),
         "--measure", "comprehensibility", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(100).startswith(b"# tasksim ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_sim_refuses_oversized_corpus(small_corpus, monkeypatch, capsys):
    monkeypatch.setattr(semsim, "MAX_MATRIX_TASKS", 5)
    code = dispatch([
        "sim", "--corpus", small_corpus, "--measure", "comprehensibility",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 18 tasks exceed the similarity matrix limit of 5 tasks\n"
    )


def test_report_refuses_oversized_corpus_before_its_grid(
        small_corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(semsim, "MAX_MATRIX_TASKS", 5)
    monkeypatch.setattr(cli, "grid_run", lambda *a, **kw: pytest.fail("grid ran"))
    out_dir = tmp_path / "rep"
    code = dispatch([
        "report", "--corpus", small_corpus, "--wordnet", WORDNET_DIR,
        "--folds", "3", "--out", str(out_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: 18 tasks exceed the similarity matrix limit of 5 tasks\n"
    )
    assert not out_dir.exists()


def test_cluster_without_wordnet_is_a_resource_error(small_corpus, tmp_path,
                                                    capsys):
    out_dir = tmp_path / "rep"
    for argv in (
        ["cluster", "--corpus", small_corpus, "--measure", "required_action"],
        # the report's required_action clustering always needs WordNet
        ["report", "--corpus", small_corpus, "--out", str(out_dir)],
    ):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "error: resource error: --wordnet is required for measure "
            "'required_action'\n"
        )
    assert not out_dir.exists()


def test_missing_corpus_file_fails_cleanly(small_corpus, tmp_path, capsys):
    code = dispatch(
        ["ingest", "--corpus", str(tmp_path / "missing.jsonl")]
    )
    assert code == 1
    assert "file not found" in capsys.readouterr().err
    missing = str(tmp_path / "missing")
    sim = ["sim", "--corpus", small_corpus, "--measure", "comprehensibility"]
    for argv, message in (
        (sim + ["--wordnet", missing], "--wordnet directory not found"),
        (sim + ["--wordlist", missing], "--wordlist file not found"),
        (["cv", "--corpus", small_corpus, "--sets", "semantic",
          "--algo", "knn", "--sentiment-lexicon", missing],
         "--sentiment-lexicon file not found"),
    ):
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: resource error: {message}: {missing}\n"


def test_solver_step_cap_is_a_fold_error(small_corpus, monkeypatch, capsys):
    monkeypatch.setattr(svm, "_MAX_STEPS", 1)
    code = dispatch([
        "cv", "--corpus", small_corpus, "--sets", "structural",
        "--algo", "svm_smo", "--folds", "2",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: fold 0 failed: ")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algo", ["naive_bayes", "knn"])
def test_overflowing_scores_are_a_fold_error(tmp_path, capsys, algo):
    # payments of 1e200 overflow the Gaussian log-density and the squared
    # neighbour distances
    corpus = tmp_path / "corpus.jsonl"
    assert dispatch(["synth", "--out", str(corpus), "--seed", "61",
                     "--per-category", "20"]) == 0
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    for record in records[::7]:
        record["payment"] = 1e200
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = dispatch(["cv", "--corpus", str(corpus), "--sets", "factual",
                     "--algo", algo, "--folds", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: fold \d+ failed: non-finite prediction scores\n", captured.err
    )


@pytest.mark.parametrize("algo", ["naive_bayes", "knn", "tree", "forest", "svm_smo"])
def test_cv_runs_when_a_fold_has_no_content_vocabulary(tmp_path, capsys, algo):
    # no word appears in two tasks, so no content column survives a fold
    corpus = tmp_path / "corpus.jsonl"
    words = "alpha bravo charlie delta echo foxtrot golf hotel".split()
    corpus.write_text("".join(
        json.dumps({"id": f"t{i}", "description_html": word, "category": "ab"[i % 2]}) + "\n"
        for i, word in enumerate(words)
    ))
    assert dispatch(["cv", "--corpus", str(corpus), "--sets", "content",
                     "--algo", algo, "--folds", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def overflowing_corpus(tmp_path_factory):
    """The seed-61 corpus with a payment of 1e200 on every 7th record."""
    corpus = tmp_path_factory.mktemp("overflow") / "corpus.jsonl"
    records = [
        json.loads(line)
        for line in synthetic_corpus_text(61, per_category=20).splitlines()
    ]
    for record in records[::7]:
        record["payment"] = 1e200
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(corpus)


# Each learner's fold error on the overflowing corpus; None: it reports.
_OVERFLOW_ERRORS = {
    "naive_bayes": "non-finite prediction scores",
    "knn": "non-finite prediction scores",
    "svm_smo": "feature mean or standard deviation overflows",
    "tree": None,
    "forest": None,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algo", sorted(_OVERFLOW_ERRORS))
def test_overflowing_input_gives_no_numpy_warning(overflowing_corpus, capsys, algo):
    # every numpy warning is an error here: a learner either refuses the
    # fold with one error line or reports as usual, and warns about nothing
    error = _OVERFLOW_ERRORS[algo]
    code = dispatch(["cv", "--corpus", overflowing_corpus, "--sets", "factual",
                     "--algo", algo, "--folds", "5"])
    captured = capsys.readouterr()
    if error is None:
        assert code == 0
        assert captured.out.startswith("# tasksim ")
        assert captured.err == ""
    else:
        assert code == 1
        assert captured.out == ""
        assert re.fullmatch(rf"error: fold \d+ failed: {error}\n", captured.err)


def test_unknown_flag_and_bad_algo_exit_nonzero(small_corpus, capsys):
    assert dispatch(["cv", "--corpus", small_corpus, "--sets", "content",
                     "--algo", "jrip"]) == 2
    assert dispatch(["synth", "--frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_feature_set_exits_one(small_corpus, capsys):
    code = dispatch([
        "cv", "--corpus", small_corpus, "--sets", "vibes",
        "--algo", "knn", "--folds", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    for fmt in ("text", "csv"):
        code = dispatch([
            "grid", "--corpus", small_corpus, "--sets", "structural",
            "--algo", ",", "--format", fmt,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty algorithm list: ','\n"
    code = dispatch([
        "grid", "--corpus", small_corpus, "--sets", "structural",
        "--algo", "tree,tree",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate algorithms in grid\n"


def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
    assert capsys.readouterr().out.startswith("tasksim ")


def test_report_writes_three_files(tmp_path):
    corpus = tmp_path / "tiny.jsonl"
    corpus.write_text(synthetic_corpus_text(1, per_category=4), encoding="utf-8")
    out_dir = tmp_path / "rep"
    code = dispatch([
        "report", "--corpus", str(corpus), "--folds", "2", "--k", "3",
        "--wordnet", WORDNET_DIR, "--out", str(out_dir),
    ])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "clusters_comprehensibility.txt",
        "clusters_required_action.txt",
        "grid.txt",
    ]
    grid_text = (out_dir / "grid.txt").read_text()
    assert grid_text.startswith("# tasksim")
    # all 15 combinations plus the header
    assert len([l for l in grid_text.splitlines()
                if l and not l.startswith("#")]) == 16


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_the_mode_open_would_give(tmp_path, umask):
    corpus, grid, out_dir = tmp_path / "c.jsonl", tmp_path / "g.csv", tmp_path / "rep"
    previous = os.umask(umask)
    try:
        assert dispatch(["synth", "--out", str(corpus), "--categories", "2",
                         "--per-category", "4"]) == 0
        assert dispatch(["grid", "--corpus", str(corpus), "--sets", "structural",
                         "--algo", "naive_bayes", "--folds", "2", "--format", "csv",
                         "--out", str(grid)]) == 0
        assert dispatch(["report", "--corpus", str(corpus), "--folds", "2",
                         "--k", "3", "--wordnet", WORDNET_DIR,
                         "--out", str(out_dir)]) == 0
    finally:
        os.umask(previous)
    for path in (corpus, grid, out_dir / "grid.txt"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def _chunks_failing_after(n):
    for i in range(n):
        yield f"chunk {i}\n"
    raise OSError("disk went away")


@pytest.mark.parametrize("before", [None, b"old bytes\n"], ids=["new", "existing"])
def test_streamed_write_that_fails_leaves_no_file_behind(tmp_path, before):
    # chunks already written to the temp file must never reach the target
    target = tmp_path / "m.csv"
    if before is not None:
        target.write_bytes(before)
    with pytest.raises(OSError, match="disk went away"):
        cli._atomic_write(target, _chunks_failing_after(3))
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["m.csv"])
    if before is not None:
        assert target.read_bytes() == before
    cli._atomic_write(target, ["a,", "b\n", ""])
    assert target.read_bytes() == b"a,b\n"


def test_report_checks_k_before_any_work(small_corpus, tmp_path, capsys):
    out_dir = tmp_path / "rep"
    code = dispatch([
        "report", "--corpus", small_corpus, "--wordnet", WORDNET_DIR,
        "--k", "1000", "--out", str(out_dir),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be between 2 and 18, got 1000\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, folds", [
    (["report", "--wordnet", WORDNET_DIR], "1000"),
    (["cv", "--sets", "structural", "--algo", "knn"], "1"),
])
def test_folds_are_checked_before_any_work(small_corpus, tmp_path, capsys,
                                           argv, folds):
    out_dir = tmp_path / "rep"
    code = dispatch(argv + [
        "--corpus", small_corpus, "--folds", folds, "--out", str(out_dir),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --folds must be between 2 and 18, got {folds}\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("n_tasks", [0, 1])
@pytest.mark.parametrize("argv, message", [
    pytest.param(["cluster", "--measure", "comprehensibility", "--k", "2"],
                 "clustering needs at least 2 tasks, got {n}", id="cluster"),
    pytest.param(["report", "--wordnet", WORDNET_DIR, "--k", "2",
                  "--folds", "2"],
                 "clustering needs at least 2 tasks, got {n}", id="report"),
    pytest.param(["cv", "--sets", "structural", "--algo", "knn",
                  "--folds", "2"],
                 "cross-validation needs at least 2 tasks, got {n}", id="cv"),
    pytest.param(["grid", "--sets", "structural", "--algo", "knn",
                  "--folds", "2"],
                 "cross-validation needs at least 2 tasks, got {n}",
                 id="grid"),
])
def test_tiny_corpus_names_its_size(small_corpus, tmp_path, capsys, n_tasks,
                                    argv, message):
    corpus = tmp_path / "tiny.jsonl"
    with open(small_corpus) as fh:
        corpus.write_text("".join(fh.readlines()[:n_tasks]))
    out_dir = tmp_path / "rep"
    code = dispatch(argv + ["--corpus", str(corpus), "--out", str(out_dir)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(n=n_tasks) + "\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["report", "--wordnet", WORDNET_DIR],
    ["cv", "--sets", "structural", "--algo", "knn"],
    ["grid", "--sets", "structural", "--algo", "knn"],
])
def test_negative_seed_is_checked_before_any_work(small_corpus, tmp_path,
                                                  capsys, argv):
    out_dir = tmp_path / "rep"
    code = dispatch(argv + [
        "--corpus", small_corpus, "--seed", "-1", "--out", str(out_dir),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --seed must be a non-negative integer, got -1\n"
    )
    assert not out_dir.exists()


def test_synth_rejects_a_negative_seed(tmp_path, capsys):
    # random.Random(-5) seeds like Random(5): the two corpora would be one
    out = tmp_path / "s.jsonl"
    assert dispatch(["synth", "--out", str(out), "--seed", "-5",
                     "--categories", "2", "--per-category", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -5\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_names_the_target(small_corpus, tmp_path,
                                                   capsys):
    target = tmp_path / "missing" / "dir" / "x.txt"
    code = dispatch(["ingest", "--corpus", small_corpus, "--out", str(target)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {target}: No such file or directory\n"
    )


def test_cluster_warns_when_pam_stops_unconverged(small_corpus, monkeypatch,
                                                  capsys):
    argv = ["cluster", "--corpus", small_corpus, "--k", "3",
            "--measure", "comprehensibility"]
    assert dispatch(argv) == 0
    converged = capsys.readouterr()
    assert converged.err == ""

    def unconverged(*args, **kwargs):
        return dataclasses.replace(
            cluster.k_medoids(*args, **kwargs), converged=False
        )

    monkeypatch.setattr(cli, "k_medoids", unconverged)
    assert dispatch(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == converged.out
    assert captured.err == (
        "warning: k-medoids on comprehensibility stopped at its step limit "
        "with an improving swap left\n"
    )


def test_ingest_csv_quotes_category_names(tmp_path):
    source = tmp_path / "plain.jsonl"
    source.write_text(synthetic_corpus_text(3, categories=2, per_category=2), encoding="utf-8")
    renamed = {"signup": "sign up, fast", "install": 'say "hi"'}
    records = [json.loads(line) for line in source.read_text().splitlines()]
    for record in records:
        record["category"] = renamed[record["category"]]
    corpus = tmp_path / "odd.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    out_path = tmp_path / "ingest.csv"
    assert dispatch([
        "ingest", "--corpus", str(corpus), "--format", "csv",
        "--out", str(out_path),
    ]) == 0
    data = [l for l in out_path.read_text().splitlines()
            if not l.startswith("#")]
    assert list(csv.reader(data)) == [
        ["category", "count"], ['say "hi"', "2"], ["sign up, fast", "2"],
    ]


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_report_headers_are_pinned(small_corpus, tmp_path, capsys, fmt):
    """Command, seed and the `# config:` key order of every subcommand."""
    corpus = f"corpus={small_corpus}"
    common = ["--corpus", small_corpus, "--seed", "5", "--format", fmt]
    runs = [
        (["ingest"], "ingest", "strict=False"),
        (["cv", "--sets", "structural", "--algo", "knn", "--folds", "2"],
         "cv", "sets=structural algo=knn folds=2"),
        (["grid", "--sets", "structural", "--algo", "knn", "--folds", "2"],
         "grid", "sets=structural algo=knn folds=2"),
        (["sim", "--measure", "comprehensibility"],
         "sim", "measure=comprehensibility"),
        (["cluster", "--measure", "required_action", "--wordnet", WORDNET_DIR,
          "--k", "3"],
         "cluster", "measure=required_action k=3"),
    ]
    for argv, command, keys in runs:
        assert dispatch(argv + common) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            f"# tasksim {__version__} {command}",
            "# seed: 5",
            f"# config: {corpus} {keys} format={fmt}",
        ]

    out_dir = tmp_path / "rep"
    assert dispatch(["report", "--wordnet", WORDNET_DIR, "--folds", "2",
                     "--k", "3", "--out", str(out_dir)] + common) == 0
    ext = "csv" if fmt == "csv" else "txt"
    for name, tail in (
        ("grid", ""),
        ("clusters_required_action", " measure=required_action"),
        ("clusters_comprehensibility", " measure=comprehensibility"),
    ):
        lines = (out_dir / f"{name}.{ext}").read_text().splitlines()
        assert lines[:3] == [
            f"# tasksim {__version__} report",
            "# seed: 5",
            f"# config: {corpus} folds=2 k=3 format={fmt}{tail}",
        ]
