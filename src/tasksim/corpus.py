"""Task corpus loading: JSONL records, validation, HTML stripping.

The HTML handling is a tolerant single-pass tag scanner, not a conforming
parser. Task descriptions contain sloppy markup; all we need from it is the
visible text, list-item and paragraph boundaries, and link hostnames.
"""

from __future__ import annotations

import functools
import json
import math
import re
import string
from collections import Counter
from dataclasses import dataclass
from urllib.parse import urlsplit

from .text import split_sentences

__all__ = [
    "DocStructure",
    "MicroTask",
    "Corpus",
    "LoadReport",
    "CorpusError",
    "strip_html",
    "load_corpus",
]


class CorpusError(ValueError):
    """A record or file failed validation; message names the offending line."""


@dataclass(frozen=True)
class DocStructure:
    """What only a task description's markup tells: its list items and
    its link hostnames. Paragraphs and lines are read off the text."""

    bullet_count: int
    url_hosts: tuple[str, ...]


@dataclass(frozen=True)
class MicroTask:
    """One task record. What is derived from its text is made on first use
    and kept with the task object, outside its fields, so equality, hash and
    repr read the fields only: `sentences`, each text field split once, and
    `analysis`, built from those sentences."""

    id: str
    title: str
    description_html: str
    description_text: str
    proof: str
    category: str
    employer: str
    payment: float
    time_to_finish: float
    time_to_rate: float
    positions: int
    jobs_done: int
    success_rate: float
    countries: tuple[str, ...]
    structure: DocStructure

    @functools.cached_property
    def sentences(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(title sentences, description sentences): one `split_sentences`
        of each field, made on first use and kept with the task. The
        analysis and the verb-phrase scanner both read it."""
        return (
            tuple(split_sentences(self.title)),
            tuple(split_sentences(self.description_text)),
        )

    @functools.cached_property
    def analysis(self):
        """The task's `features.TaskAnalysis`, built on first use from
        `sentences` and kept with the task."""
        from .features import build_analysis  # breaks the corpus <-> features import cycle

        return build_analysis(self)


@dataclass(frozen=True)
class LoadReport:
    """Per-load quality summary with a stable textual rendering."""

    lines_total: int
    tasks_loaded: int
    skipped: tuple[tuple[int, str], ...]
    unknown_field_count: int
    defaulted_fields: tuple[tuple[str, int], ...]

    def render(self) -> str:
        out = [
            "corpus load report",
            f"lines_total: {self.lines_total}",
            f"tasks_loaded: {self.tasks_loaded}",
            f"records_skipped: {len(self.skipped)}",
        ]
        out.extend(f"  line {no}: {why}" for no, why in self.skipped)
        out.append(f"unknown_fields: {self.unknown_field_count}")
        defaults = " ".join(f"{name}={n}" for name, n in self.defaulted_fields)
        out.append(f"defaulted_fields: {defaults if defaults else '(none)'}")
        return "\n".join(out)


@dataclass(frozen=True)
class Corpus:
    tasks: tuple[MicroTask, ...]
    category_counts: dict[str, int]
    report: LoadReport

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


# ---------------------------------------------------------------------------
# HTML stripping
# ---------------------------------------------------------------------------

_PARA_TAGS = frozenset({"p", "h1", "h2", "h3", "h4", "h5", "h6", "blockquote"})
_LINE_TAGS = frozenset({"li", "br", "div", "tr"})
_RAW_TEXT_TAGS = frozenset({"script", "style"})

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
}

_ENTITY_RE = re.compile(r"&(#[xX][0-9A-Fa-f]+|#[0-9]+|[A-Za-z][A-Za-z0-9]*);")
_HREF_RE = re.compile(
    r"""href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE
)
# a '<' that a rescan would mistake for markup
_LOOKALIKE_RE = re.compile(r"<(?=[A-Za-z/!?])")

_ASCII_LETTERS = frozenset(string.ascii_letters)
_TAG_NAME_CHARS = frozenset(string.ascii_letters + string.digits)


def _entity_value(body: str) -> str | None:
    """Decoded value of an `&body;` reference, or None if not decodable."""
    if body.startswith(("#x", "#X")):
        code = int(body[2:], 16)
    elif body.startswith("#"):
        code = int(body[1:])
    else:
        return _NAMED_ENTITIES.get(body)
    if 0 < code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
        return chr(code)
    return None


def _decode_entities(chunk: str) -> str:
    def sub(m: re.Match) -> str:
        value = _entity_value(m.group(1))
        return value if value is not None else m.group(0)

    return _ENTITY_RE.sub(sub, chunk)


def _defuse(text: str) -> str:
    """Break any character sequence a rescan would decode or parse as markup.

    A space after the '&' or '<' keeps the output stable under a second
    strip_html pass without deleting any visible character.
    """

    def sub(m: re.Match) -> str:
        if _entity_value(m.group(1)) is None:
            return m.group(0)
        return "& " + m.group(0)[1:]

    text = _ENTITY_RE.sub(sub, text)
    return _LOOKALIKE_RE.sub("< ", text)


def _normalize_whitespace(text: str) -> str:
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = re.sub(r"[^\S\n]+", " ", text)
    text = re.sub(r" ?\n ?", "\n", text)
    text = re.sub(r"\n{3,}", "\n\n", text)
    return text.strip()


def _scan_tag(raw: str, start: int) -> tuple[str, str, bool, int]:
    """Parse a tag starting at raw[start] == '<'. Returns (name, interior,
    is_closing, index_after). Quoted attribute values may contain '>'."""
    i = start + 1
    closing = raw[i] == "/"
    if closing:
        i += 1
    name_start = i
    while i < len(raw) and raw[i] in _TAG_NAME_CHARS:
        i += 1
    name = raw[name_start:i].lower()
    interior_start = i
    quote = None
    while i < len(raw):
        c = raw[i]
        if quote is not None:
            if c == quote:
                quote = None
        elif c in "\"'":
            quote = c
        elif c == ">":
            return name, raw[interior_start:i], closing, i + 1
        i += 1
    # unterminated tag: swallow the rest
    return name, raw[interior_start:], closing, len(raw)


def strip_html(raw: str) -> tuple[str, DocStructure]:
    """Strip markup from `raw`, returning visible text and its DocStructure.

    Tags and comments are removed, entities decoded, and block elements
    rendered as line breaks (list items, rows) or blank lines (paragraphs,
    headings). The output re-enters this function unchanged, and never
    contains '<' directly followed by an ASCII letter or '/'.
    """
    # text chunks, entities decoded; adjacent breaks merge (the strongest
    # wins) and whitespace-only text between breaks is dropped
    pieces: list[str] = []
    pending = 0  # the break waiting for the next visible chunk
    bullets = 0
    hosts: list[str] = []

    i = lit_start = 0
    n = len(raw)

    def flush(upto: int) -> None:
        nonlocal pending
        chunk = _decode_entities(raw[lit_start:upto])
        if chunk.strip() or (chunk and not pending):
            pieces.append("\n" * pending + chunk)
            pending = 0

    while (i := raw.find("<", i)) >= 0:
        nxt = raw[i + 1] if i + 1 < n else ""
        if nxt == "!":
            flush(i)
            if raw.startswith("<!--", i):
                end = raw.find("-->", i + 4)
                i = n if end < 0 else end + 3
            else:
                end = raw.find(">", i + 2)
                i = n if end < 0 else end + 1
            lit_start = i
        elif nxt == "?":
            flush(i)
            end = raw.find(">", i + 2)
            i = n if end < 0 else end + 1
            lit_start = i
        elif nxt == "/" or nxt in _ASCII_LETTERS:
            flush(i)
            name, interior, closing, i = _scan_tag(raw, i)
            lit_start = i
            if not closing:
                if name == "li":
                    bullets += 1
                elif name == "a":
                    m = _HREF_RE.search(interior)
                    if m:
                        href = _decode_entities(next(g for g in m.groups() if g is not None))
                        try:
                            host = urlsplit(href.strip()).hostname
                        except ValueError:  # e.g. an unclosed '[' IPv6 host
                            host = None
                        if host:
                            hosts.append(host.lower())
                elif name in _RAW_TEXT_TAGS and not interior.rstrip().endswith("/"):
                    # swallow element content up to its closing tag
                    m = re.search(rf"</{name}\b", raw[i:], re.IGNORECASE)
                    if m is None:
                        i = n
                    else:
                        i += m.start()
                    lit_start = i
                    continue
            if name in _PARA_TAGS:
                pending = 2
            elif name in _LINE_TAGS:
                pending = max(pending, 1)
        else:
            i += 1  # literal '<'
    flush(n)

    text = _defuse(_normalize_whitespace("".join(pieces)))
    return text, DocStructure(bullet_count=bullets, url_hosts=tuple(hosts))


# ---------------------------------------------------------------------------
# JSONL loading
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("id", "description_html", "category")
_STRING_FIELDS = {"title": "", "proof": "", "employer": ""}
_NUMERIC_FIELDS = {
    "payment": 0.0,
    "time_to_finish": 0.0,
    "time_to_rate": 0.0,
    "success_rate": 0.0,
}
_COUNT_FIELDS = {"positions": 0, "jobs_done": 0}
_KNOWN_FIELDS = (
    set(_REQUIRED_FIELDS)
    | set(_STRING_FIELDS)
    | set(_NUMERIC_FIELDS)
    | set(_COUNT_FIELDS)
    | {"countries"}
)


def _as_number(record: dict, name: str, line_no: int) -> float:
    value = record[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CorpusError(f"line {line_no}: field '{name}' must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond float range
        number = math.inf
    # json reads NaN and Infinity, which no field may hold
    if not math.isfinite(number):
        raise CorpusError(f"line {line_no}: field '{name}' must be a finite number")
    if name in _COUNT_FIELDS and not (number >= 0 and number.is_integer()):
        raise CorpusError(
            f"line {line_no}: field '{name}' must be a non-negative whole number"
        )
    return number


def _parse_record(
    record: dict, line_no: int, defaulted: Counter
) -> tuple[MicroTask, int]:
    for name in _REQUIRED_FIELDS:
        if name not in record:
            raise CorpusError(f"line {line_no}: missing required field '{name}'")
        if not isinstance(record[name], str):
            raise CorpusError(f"line {line_no}: field '{name}' must be a string")
        if not record[name] and name != "description_html":
            raise CorpusError(f"line {line_no}: field '{name}' must be non-empty")
    strings = {}
    for name, default in _STRING_FIELDS.items():
        value = record.get(name, default)
        if not isinstance(value, str):
            raise CorpusError(f"line {line_no}: field '{name}' must be a string")
        strings[name] = value
    numbers = {}
    record_defaults: list[str] = []
    for name, default in {**_NUMERIC_FIELDS, **_COUNT_FIELDS}.items():
        if name in record:
            numbers[name] = _as_number(record, name, line_no)
        else:
            numbers[name] = float(default)
            record_defaults.append(name)
    if numbers["payment"] < 0:
        raise CorpusError(f"line {line_no}: invariant violation: payment must be >= 0")
    if "time_to_finish" in record and numbers["time_to_finish"] <= 0:
        raise CorpusError(
            f"line {line_no}: invariant violation: time_to_finish must be > 0"
        )
    if not 0.0 <= numbers["success_rate"] <= 1.0:
        raise CorpusError(
            f"line {line_no}: invariant violation: success_rate must be in [0, 1]"
        )
    countries = record.get("countries", [])
    if not isinstance(countries, list) or not all(isinstance(c, str) for c in countries):
        raise CorpusError(f"line {line_no}: field 'countries' must be an array of strings")
    unknown = sum(1 for key in record if key not in _KNOWN_FIELDS)
    # only count defaults once the record is known to be valid
    defaulted.update(record_defaults)

    text, structure = strip_html(record["description_html"])
    task = MicroTask(
        id=record["id"],
        title=strings["title"],
        description_html=record["description_html"],
        description_text=text,
        proof=strings["proof"],
        category=record["category"],
        employer=strings["employer"],
        payment=numbers["payment"],
        time_to_finish=numbers["time_to_finish"],
        time_to_rate=numbers["time_to_rate"],
        positions=int(numbers["positions"]),
        jobs_done=int(numbers["jobs_done"]),
        success_rate=numbers["success_rate"],
        countries=tuple(c.upper() for c in countries),
        structure=structure,
    )
    return task, unknown


def load_corpus(path, strict: bool = False) -> Corpus:
    """Load a JSONL task file. One JSON object per line; blank lines skipped.

    strict: any malformed or invariant-violating record raises CorpusError.
    lenient (default): such records are skipped and listed in the report.
    """
    tasks: list[MicroTask] = []
    skipped: list[tuple[int, str]] = []
    defaulted: Counter = Counter()
    unknown_total = 0
    seen_ids: set[str] = set()
    lines_total = 0

    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            lines_total += 1
            try:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"line {line_no}: malformed JSON: {exc.msg}") from exc
                if not isinstance(record, dict):
                    raise CorpusError(f"line {line_no}: record must be a JSON object")
                task, unknown = _parse_record(record, line_no, defaulted)
                if task.id in seen_ids:
                    raise CorpusError(f"line {line_no}: duplicate task id '{task.id}'")
            except CorpusError as exc:
                if strict:
                    raise
                skipped.append((line_no, str(exc).split(": ", 1)[1]))
                continue
            seen_ids.add(task.id)
            unknown_total += unknown
            tasks.append(task)

    counts = Counter(t.category for t in tasks)
    report = LoadReport(
        lines_total=lines_total,
        tasks_loaded=len(tasks),
        skipped=tuple(skipped),
        unknown_field_count=unknown_total,
        defaulted_fields=tuple(sorted(defaulted.items())),
    )
    return Corpus(tasks=tuple(tasks), category_counts=dict(counts), report=report)
