"""Database parsing, morphological lookup, and path similarity."""

import dataclasses
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tasksim import wordnet
from tasksim.corpus import load_corpus
from tasksim.synth import synthetic_corpus_text
from tasksim.text import word_tokens
from tasksim.wordnet import (
    NOUN,
    VERB,
    WordNetError,
    WordNetGraph,
    bundled_mini_wordnet_dir,
    item_lemmas,
    lemmatize,
    load_wordnet,
    synset_path_length,
    word_similarity,
)


@pytest.fixture(scope="module")
def wn():
    return load_wordnet(bundled_mini_wordnet_dir())


# ---------------------------------------------------------------- loading


def test_bundled_database_counts(wn):
    assert wn.synset_count() == 30
    assert wn.edge_count() == 24


def test_lemma_index_consistent_with_synsets(wn):
    for (lemma, pos), ids in wn.lemma_index.items():
        assert ids
        for sid in ids:
            synset = wn.synsets[sid]
            assert synset.pos == pos
            assert lemma in synset.lemmas


def test_edges_reference_existing_synsets(wn):
    for sid, parents in wn.hypernym_edges.items():
        assert sid in wn.synsets
        for parent in parents:
            assert parent in wn.synsets


def test_empty_directory_is_rejected(tmp_path):
    with pytest.raises(WordNetError, match="missing"):
        load_wordnet(tmp_path)


def _corrupt_copy(tmp_path, file_name, old, new):
    target = tmp_path / "wn"
    shutil.copytree(bundled_mini_wordnet_dir(), target)
    path = target / file_name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return target

def test_dangling_hypernym_pointer_is_rejected(tmp_path):
    broken = _corrupt_copy(
        tmp_path, "data.noun", "@ 00000143 n 0000", "@ 09999999 n 0000"
    )
    with pytest.raises(WordNetError, match="missing synset"):
        load_wordnet(broken)


def test_index_offset_must_exist(tmp_path):
    broken = _corrupt_copy(
        tmp_path, "index.noun", "dog n 1 1 @ 1 0 0", "dog n 1 1 @ 1 0 9"
    )
    with pytest.raises(WordNetError, match="references missing offset"):
        load_wordnet(broken)


def test_gloss_separator_required(tmp_path):
    broken = _corrupt_copy(tmp_path, "data.adv", " | with speed", "  with speed")
    with pytest.raises(WordNetError, match="malformed synset line"):
        load_wordnet(broken)


def test_hypernym_cycle_without_root_is_rejected(tmp_path):
    # act and register are each other's only hypernym: neither reaches a root
    for name in ("noun", "adj", "adv"):
        (tmp_path / f"index.{name}").write_text("")
        (tmp_path / f"data.{name}").write_text("")
    (tmp_path / "index.verb").write_text(
        "act v 1 1 @ 1 0 00000001\nregister v 1 1 @ 1 0 00000002\n"
    )
    (tmp_path / "data.verb").write_text(
        "00000001 30 v 01 act 0 001 @ 00000002 v 0000 00 | do\n"
        "00000002 30 v 01 register 0 001 @ 00000001 v 0000 00 | sign on\n"
    )
    with pytest.raises(
        WordNetError,
        match=r"^data\.verb: synset 00000001 \('act'\) has no hypernym path",
    ):
        load_wordnet(tmp_path)


# ---------------------------------------------------------------- lemmatize


@pytest.mark.parametrize(
    "word,pos,expected",
    [
        ("run", "v", "run"),  # listed lemma, identity
        ("running", "v", "run"),  # exception list
        ("ran", "v", "run"),
        ("watches", "v", "watch"),  # es -> detachment
        ("clicked", "v", "click"),  # ed -> detachment
        ("Confirms", "v", "confirm"),  # case folding + s ->
        ("dogs", "n", "dog"),
        ("oxen", "n", "ox"),  # noun exception list
        ("better", "a", "good"),  # adj exception list
        ("best", "r", "well"),  # adverbs have no rules, only exceptions
        ("xqzt", "v", None),
        ("quality", "v", None),  # no verb synset
        ("", "v", None),
    ],
)
def test_lemmatize_cases(wn, word, pos, expected):
    assert lemmatize(word, pos, wn) == expected


def test_lemmatize_rejects_unknown_pos(wn):
    with pytest.raises(ValueError):
        lemmatize("run", "x", wn)


def test_lemma_cache_matches_the_rules(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(synthetic_corpus_text(3, per_category=10))
    words = {
        w for task in load_corpus(path)
        for w in word_tokens(task.title) + word_tokens(task.description_text)
    }
    graph = load_wordnet(bundled_mini_wordnet_dir())
    listed = {form for forms in graph.exception_lists.values() for form in forms}
    assert listed
    surfaces = set()
    for word in sorted(words | listed):
        for surface in (word, word.upper()):
            expected = tuple(
                wordnet._lemmatize(word.lower(), pos, graph) for pos in (VERB, NOUN)
            )
            for pos, lemma in zip((VERB, NOUN), expected):
                assert lemmatize(surface, pos, graph) == lemma
            assert item_lemmas(surface, graph) == expected  # first call
            assert item_lemmas(surface, graph) == expected  # cached
            surfaces.add(surface)
    assert graph._lemmas
    with pytest.raises(ValueError, match="unknown part of speech 'x'"):
        lemmatize("run", "x", graph)
    with pytest.raises(ValueError, match="unknown part of speech 'x'"):
        lemmatize("run", "x", graph)
    assert set(graph._lemmas) == surfaces


def test_graphs_do_not_share_lemma_caches():
    a = load_wordnet(bundled_mini_wordnet_dir())
    b = load_wordnet(bundled_mini_wordnet_dir())
    assert item_lemmas("dogs", a)[1] == "dog"
    assert not b._lemmas
    # a graph made from a warm one starts cold, so it reads its own index
    index = {key: ids for key, ids in a.lemma_index.items() if key != ("dog", NOUN)}
    c = dataclasses.replace(a, lemma_index=index)
    assert item_lemmas("dogs", c)[1] is None
    assert item_lemmas("dogs", a)[1] == "dog"


# ---------------------------------------------------------------- similarity


def test_identical_strings_score_one(wn):
    assert word_similarity(wn, "click", "click", "v") == 1.0
    assert word_similarity(wn, "zzzz", "zzzz", "n") == 1.0


def test_unknown_lemma_scores_zero(wn):
    assert word_similarity(wn, "dog", "xqzt", "n") == 0.0
    assert word_similarity(wn, "xqzt", "dog", "n") == 0.0


def test_dog_cat_path(wn):
    # dog - canine - carnivore - feline - cat: four edges.
    assert word_similarity(wn, "dog", "cat", "n") == pytest.approx(0.2, abs=1e-12)


def test_shared_synset_scores_one(wn):
    assert word_similarity(wn, "register", "join", "v") == 1.0
    assert word_similarity(wn, "email", "electronic_mail", "n") == 1.0


def test_sibling_verb_groups(wn):
    # register -> act <- install: two edges.
    value = word_similarity(wn, "register", "install", "v")
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_virtual_root_joins_separate_trees(wn):
    # good and easy are distinct adjective roots; they connect only through
    # the virtual global root, one edge on each side of it.
    assert word_similarity(wn, "good", "easy", "a") == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def _fixture_lemmas(wn, pos):
    return sorted({lemma for (lemma, p) in wn.lemma_index if p == pos})


@given(data=st.data())
def test_similarity_symmetric_and_bounded(data):
    graph = load_wordnet(bundled_mini_wordnet_dir())
    pos = data.draw(st.sampled_from("nv"))
    lemmas = _fixture_lemmas(graph, pos)
    a = data.draw(st.sampled_from(lemmas))
    b = data.draw(st.sampled_from(lemmas))
    ab = word_similarity(graph, a, b, pos)
    assert ab == word_similarity(graph, b, a, pos)
    assert 0.0 <= ab <= 1.0
    if ab == 1.0:
        shared = set(graph.lemma_index[(a, pos)]) & set(
            graph.lemma_index[(b, pos)]
        )
        assert a == b or shared


def test_shortcut_edge_never_decreases_similarity(wn):
    before = word_similarity(wn, "dog", "cat", "n")
    dog = wn.lemma_index[("dog", "n")][0]
    carnivore = wn.lemma_index[("carnivore", "n")][0]
    edges = dict(wn.hypernym_edges)
    edges[dog] = edges[dog] + (carnivore,)
    shortcut = WordNetGraph(
        wn.synsets, edges, wn.lemma_index, wn.exception_lists
    )
    after = word_similarity(shortcut, "dog", "cat", "n")
    assert after >= before
    assert after == pytest.approx(0.25, abs=1e-12)  # dog-carnivore-feline-cat


def test_path_length_cached_and_stable(wn):
    a = wn.lemma_index[("dog", "n")][0]
    b = wn.lemma_index[("cat", "n")][0]
    assert synset_path_length(wn, a, b) == 4
    assert synset_path_length(wn, b, a) == 4


# ---------------------------------------------------------------- real database

FULL_WN = os.environ.get("WORDNET_DIR")


@pytest.mark.skipif(
    not FULL_WN, reason="set WORDNET_DIR to a WordNet 3.0 dict directory"
)
def test_full_wordnet_reference_values():
    graph = load_wordnet(Path(FULL_WN))
    assert graph.lemma_index[("run", "v")]
    assert word_similarity(graph, "dog", "cat", "n") == pytest.approx(
        0.2, abs=1e-9
    )
