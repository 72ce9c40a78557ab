"""Shared fixtures: tiny hand-built tasks and corpora."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import tasksim
from tasksim.corpus import DocStructure, MicroTask, strip_html

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
    jobs_done=2,
    success_rate=0.9,
    countries=(),
    proof="screenshot",
) -> MicroTask:
    text, structure = strip_html(html)
    return MicroTask(
        id=id,
        title=title,
        description_html=html,
        description_text=text,
        proof=proof,
        category=category,
        employer=employer,
        payment=payment,
        time_to_finish=time_to_finish,
        time_to_rate=time_to_rate,
        positions=positions,
        jobs_done=jobs_done,
        success_rate=success_rate,
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
