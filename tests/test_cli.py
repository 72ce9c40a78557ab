"""Synthetic corpus generator and command-line dispatch."""

import csv
import io
import json
import os

import pytest

from tasksim.cli import CliError, _parse_sets, dispatch, generate_synthetic_corpus
from tasksim.corpus import load_corpus
from tasksim import semsim
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


def test_synth_loads_cleanly_as_a_corpus(tmp_path):
    path = tmp_path / "s.jsonl"
    n = generate_synthetic_corpus(path, 7, categories=3, per_category=4)
    assert n == 12
    corpus = load_corpus(path, strict=True)
    assert len(corpus) == 12
    assert corpus.category_counts == {"signup": 4, "install": 4, "watch": 4}
    assert corpus.report.skipped == ()


def test_synth_supports_extra_categories(tmp_path):
    path = tmp_path / "wide.jsonl"
    generate_synthetic_corpus(path, 0, categories=7, per_category=2)
    corpus = load_corpus(path, strict=True)
    assert len(corpus.category_counts) == 7
    assert {"extra1", "extra2"} <= set(corpus.category_counts)


def test_synth_factual_fields_shift_by_category(tmp_path):
    path = tmp_path / "s.jsonl"
    generate_synthetic_corpus(path, 11, per_category=30)
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
    generate_synthetic_corpus(path, 5, per_category=10)
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
    generate_synthetic_corpus(path, 3, categories=3, per_category=6)
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


def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
    assert capsys.readouterr().out.startswith("tasksim ")


def test_report_writes_three_files(tmp_path):
    corpus = tmp_path / "tiny.jsonl"
    generate_synthetic_corpus(corpus, 1, per_category=4)
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
