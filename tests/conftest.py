"""Shared fixtures: tiny hand-built tasks and corpora."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import tasksim
from tasksim.corpus import DocStructure, MicroTask, strip_html
from tasksim.semsim import _VERB_WEIGHT
from tasksim.wordnet import NOUN, VERB, word_similarity

# Tests that run the CLI as `python -m tasksim.cli` in a subprocess get the
# package these tests import, also when pytest found it through its
# `pythonpath` setting rather than the environment.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(tasksim.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")])
)


def make_task(
    id="t1",
    title="Do something",
    html="<p>Do the thing now.</p>",
    category="misc",
    employer="emp1",
    payment=0.30,
    time_to_finish=10.0,
    time_to_rate=3.0,
    positions=5,
    countries=(),
) -> MicroTask:
    text, structure = strip_html(html)
    return MicroTask(
        id=id,
        title=title,
        description_text=text,
        category=category,
        employer=employer,
        payment=payment,
        time_to_finish=time_to_finish,
        time_to_rate=time_to_rate,
        positions=positions,
        countries=tuple(countries),
        structure=structure,
    )


@pytest.fixture
def task_factory():
    return make_task


@pytest.fixture
def jsonl_writer(tmp_path):
    def write(records, name="corpus.jsonl"):
        path = tmp_path / name
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
        )
        return path

    return write


# Texts built from what matters to word tokens and sentence boundaries:
# commas, apostrophes, hyphens, digits, terminator runs, newlines,
# non-ASCII letters, capitalized words and capitalized stopwords.
TOKEN_TEXT = st.lists(
    st.one_of(
        st.sampled_from([
            "Click", "Paris", "The", "And", "the", "don't", "'tis", "e-mail",
            "--", "'", "-", "3", "42nd", "café", "Ünited", "ß", "Ωmega",
            "naïve", "J", "e.g", "x,y",
        ]),
        st.sampled_from([".", "..", "...", "?", "!", "?!", ",", ", ", ",,"]),
        st.sampled_from([" ", "  ", "\n", "\n\n", "\t", "\u00a0"]),
        st.text(alphabet="aZ3'-,.!? \néÜß", max_size=8),
    ),
    max_size=40,
).map("".join)


# The required-action measure as one pair of tasks' phrase lists defines
# it, kept as the oracle that `similarity_matrix` matches bit for bit.

def _oracle_phrase_similarity(p, q, wn):
    """Verb similarity, blended with the best argument pair when both
    phrases carry arguments; verb-only (full weight) otherwise."""
    verbs = word_similarity(wn, p.verb_lemma, q.verb_lemma, VERB)
    if p.argument_lemmas and q.argument_lemmas:
        nouns = max(
            word_similarity(wn, a, b, NOUN)
            for a in p.argument_lemmas
            for b in q.argument_lemmas
        )
        return _VERB_WEIGHT * verbs + (1.0 - _VERB_WEIGHT) * nouns
    return verbs


def _oracle_required_action_similarity(A, B, wn):
    """Mean best-match phrase similarity, averaged over both directions.
    Zero when either side has no phrases."""
    if not A or not B:
        return 0.0

    def best(p, side):
        return max(_oracle_phrase_similarity(p, q, wn) for q in side)

    forward = sum(best(p, B) for p in A) / len(A)
    backward = sum(best(q, A) for q in B) / len(B)
    return (forward + backward) / 2.0
