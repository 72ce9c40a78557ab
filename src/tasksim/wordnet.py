"""Reader for WordNet 3.x database directories plus path-based similarity.

Parses index.noun/verb/adj/adv, data.*, and the *.exc exception lists into an
immutable graph keyed by (pos, byte offset). Only hypernym pointers (@ and
@i) become edges; all other pointer types and verb frames are parsed and
skipped. A miniature database in the same file format ships with the package
for tests and offline use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

NOUN, VERB, ADJ, ADV = "n", "v", "a", "r"

_POS_FILE = {NOUN: "noun", VERB: "verb", ADJ: "adj", ADV: "adv"}
# Satellite adjectives ('s') live in the adjective files and behave as 'a'.
_SS_TO_POS = {"n": NOUN, "v": VERB, "a": ADJ, "s": ADJ, "r": ADV}
_HYPERNYM_SYMBOLS = {"@", "@i"}
# marks a lemma cache miss; None is a cached answer
_UNSEEN = object()


class WordNetError(ValueError):
    """Missing database files or content violating the file grammar."""


def bundled_mini_wordnet_dir() -> Path:
    """Directory of the miniature database that ships with the package."""
    return Path(__file__).resolve().parent / "resources" / "mini_wordnet"


class Synset(NamedTuple):
    pos: str
    lemmas: tuple


@dataclass(frozen=True, eq=False)
class WordNetGraph:
    """Immutable after load; `lemmatize` and the similarity helpers memoize
    into private caches."""

    synsets: dict
    hypernym_edges: dict
    lemma_index: dict
    exception_lists: dict
    # caches start empty in every graph, also one made by dataclasses.replace
    _ancestors: dict = field(default_factory=dict, init=False, repr=False)
    _pair_lengths: dict = field(default_factory=dict, init=False, repr=False)
    _lemmas: dict = field(default_factory=dict, init=False, repr=False)

    def synset_count(self) -> int:
        return len(self.synsets)

    def edge_count(self) -> int:
        return sum(len(parents) for parents in self.hypernym_edges.values())


def _parse_data_line(line: str, pos: str):
    head, sep, _ = line.partition(" | ")
    if not sep:
        raise WordNetError("no gloss separator")
    fields = head.split()
    offset = int(fields[0])
    ss_type = fields[2]
    if _SS_TO_POS.get(ss_type) != pos:
        raise WordNetError(f"synset type '{ss_type}' in the {pos} file")
    w_cnt = int(fields[3], 16)
    if w_cnt < 1:
        raise WordNetError("synset with no words")
    lemmas = tuple(fields[4 + 2 * i].lower() for i in range(w_cnt))
    i = 4 + 2 * w_cnt
    p_cnt = int(fields[i])
    i += 1
    parents = []
    for _ in range(p_cnt):
        symbol = fields[i]
        target_offset = int(fields[i + 1])
        target_pos = _SS_TO_POS[fields[i + 2]]
        # fields[i + 3] is the source/target word pair; lemma-level pointers
        # do not matter for the graph.
        i += 4
        if symbol in _HYPERNYM_SYMBOLS:
            parents.append((target_pos, target_offset))
    if pos == VERB and i < len(fields):
        f_cnt = int(fields[i])
        i += 1 + 3 * f_cnt
    if i != len(fields):
        raise WordNetError("trailing fields after pointers")
    return (pos, offset), Synset(pos, lemmas), tuple(parents)


def _parse_index_line(line: str, pos: str):
    fields = line.split()
    lemma = fields[0].lower()
    if _SS_TO_POS.get(fields[1]) != pos:
        raise WordNetError(f"pos '{fields[1]}' in the {pos} index")
    synset_cnt = int(fields[2])
    p_cnt = int(fields[3])
    i = 4 + p_cnt + 2  # skip pointer symbols, sense_cnt, tagsense_cnt
    offsets = fields[i:]
    if len(offsets) != synset_cnt:
        raise WordNetError(
            f"index entry '{lemma}' lists {len(offsets)} offsets, "
            f"expected {synset_cnt}"
        )
    return lemma, tuple((pos, int(off)) for off in offsets)


def _data_lines(path: Path):
    for line_no, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.startswith(" ") or not line.strip():
            continue
        yield line_no, line


def load_wordnet(directory) -> WordNetGraph:
    """Parse a WordNet 3.x database directory into a WordNetGraph."""
    base = Path(directory)
    missing = []
    for name in _POS_FILE.values():
        for prefix in ("index", "data"):
            if not (base / f"{prefix}.{name}").is_file():
                missing.append(f"{prefix}.{name}")
    if missing:
        raise WordNetError(
            f"not a WordNet database directory: {base} is missing "
            + ", ".join(missing)
        )

    synsets: dict = {}
    edges: dict = {}
    for pos, name in _POS_FILE.items():
        path = base / f"data.{name}"
        for line_no, line in _data_lines(path):
            try:
                sid, synset, parents = _parse_data_line(line, pos)
            except (WordNetError, ValueError, IndexError, KeyError) as exc:
                raise WordNetError(
                    f"{path.name}:{line_no}: malformed synset line ({exc})"
                ) from exc
            if sid in synsets:
                raise WordNetError(f"{path.name}:{line_no}: duplicate offset")
            synsets[sid] = synset
            edges[sid] = parents
    children: dict = {}
    for sid, parents in edges.items():
        for parent in parents:
            if parent not in synsets:
                raise WordNetError(
                    f"hypernym pointer from {sid} to missing synset {parent}"
                )
            children.setdefault(parent, []).append(sid)
    # path lengths run through roots, so every synset must reach one; a
    # hypernym cycle with no pointer out of it does not
    frontier = [sid for sid, parents in edges.items() if not parents]
    rooted = set(frontier)
    while frontier:
        frontier = [c for sid in frontier for c in children.get(sid, ()) if c not in rooted]
        rooted.update(frontier)
    for sid in edges:
        if sid not in rooted:
            raise WordNetError(
                f"data.{_POS_FILE[sid[0]]}: synset {sid[1]:08d} "
                f"('{synsets[sid].lemmas[0]}') has no hypernym path to a "
                f"root (hypernym cycle)"
            )

    lemma_index: dict = {}
    for pos, name in _POS_FILE.items():
        path = base / f"index.{name}"
        for line_no, line in _data_lines(path):
            try:
                lemma, ids = _parse_index_line(line, pos)
            except (WordNetError, ValueError, IndexError) as exc:
                raise WordNetError(
                    f"{path.name}:{line_no}: malformed index line ({exc})"
                ) from exc
            for sid in ids:
                if sid not in synsets:
                    raise WordNetError(
                        f"{path.name}:{line_no}: '{lemma}' references "
                        f"missing offset {sid[1]:08d}"
                    )
                if lemma not in synsets[sid].lemmas:
                    raise WordNetError(
                        f"{path.name}:{line_no}: '{lemma}' not a word of "
                        f"synset {sid[1]:08d}"
                    )
            lemma_index[(lemma, pos)] = ids
    # Index files are authoritative for sense order; any data-file lemma they
    # miss is still made reachable.
    for sid, synset in synsets.items():
        for lemma in synset.lemmas:
            key = (lemma, synset.pos)
            if key not in lemma_index:
                lemma_index[key] = (sid,)
            elif sid not in lemma_index[key]:
                lemma_index[key] = lemma_index[key] + (sid,)

    exceptions: dict = {pos: {} for pos in _POS_FILE}
    for pos, name in _POS_FILE.items():
        path = base / f"{name}.exc"
        if not path.is_file():
            continue
        for line_no, line in _data_lines(path):
            fields = line.lower().split()
            if len(fields) < 2:
                raise WordNetError(
                    f"{path.name}:{line_no}: exception entry needs a lemma"
                )
            exceptions[pos][fields[0]] = tuple(fields[1:])

    return WordNetGraph(synsets, edges, lemma_index, exceptions)


# Detachment rules per POS, applied in order; adverbs have none.
_SUBSTITUTIONS = {
    NOUN: (
        ("s", ""),
        ("ses", "s"),
        ("ves", "f"),
        ("xes", "x"),
        ("zes", "z"),
        ("ches", "ch"),
        ("shes", "sh"),
        ("men", "man"),
        ("ies", "y"),
    ),
    VERB: (
        ("s", ""),
        ("ies", "y"),
        ("es", "e"),
        ("es", ""),
        ("ed", "e"),
        ("ed", ""),
        ("ing", "e"),
        ("ing", ""),
    ),
    ADJ: (("er", ""), ("est", ""), ("er", "e"), ("est", "e")),
    ADV: (),
}


def _apply_rules(forms: Iterable[str], pos: str) -> list:
    out = []
    for form in forms:
        for old, new in _SUBSTITUTIONS[pos]:
            if form.endswith(old):
                out.append(form[: len(form) - len(old)] + new)
    return out


def lemmatize(word: str, pos: str, wn: WordNetGraph):
    """First base form of `word` listed in the lemma index, or None.

    Exception lists are consulted first and are final; otherwise detachment
    rules are applied repeatedly until a candidate is found in the index.
    Memoized per graph and (lowercased form, pos).
    """
    if pos not in _POS_FILE:
        raise ValueError(f"unknown part of speech '{pos}'")
    key = (word.lower().replace(" ", "_"), pos)
    lemma = wn._lemmas.get(key, _UNSEEN)
    if lemma is _UNSEEN:
        lemma = wn._lemmas[key] = _lemmatize(*key, wn)
    return lemma


def _lemmatize(form: str, pos: str, wn: WordNetGraph):
    # the rules behind `lemmatize`, for a lowercased form with '_' for ' '
    if not form:
        return None

    def known(candidate):
        return (candidate, pos) in wn.lemma_index

    listed = wn.exception_lists.get(pos, {})
    if form in listed:
        for candidate in (form,) + listed[form]:
            if known(candidate):
                return candidate
        return None
    forms = _apply_rules([form], pos)
    for candidate in [form] + forms:
        if known(candidate):
            return candidate
    while forms:
        forms = _apply_rules(forms, pos)
        for candidate in forms:
            if known(candidate):
                return candidate
    return None


def _ancestor_distances(wn: WordNetGraph, sid) -> dict:
    """Shortest upward edge counts from sid to each of its ancestors
    (including itself at 0)."""
    cached = wn._ancestors.get(sid)
    if cached is not None:
        return cached
    dist = {sid: 0}
    frontier = [sid]
    while frontier:
        nxt = []
        for node in frontier:
            for parent in wn.hypernym_edges.get(node, ()):
                if parent not in dist:
                    dist[parent] = dist[node] + 1
                    nxt.append(parent)
        frontier = nxt
    wn._ancestors[sid] = dist
    return dist


def _root_distance(distances: dict, wn: WordNetGraph) -> int:
    return min(
        d for node, d in distances.items() if not wn.hypernym_edges.get(node)
    )


def synset_path_length(wn: WordNetGraph, a, b) -> int:
    """Minimum hypernym-path edge count between two synsets. Trees with
    different roots are joined through a virtual global root, adding one edge
    on each side."""
    if a == b:
        return 0
    key = (a, b) if a <= b else (b, a)
    cached = wn._pair_lengths.get(key)
    if cached is not None:
        return cached
    da = _ancestor_distances(wn, a)
    db = _ancestor_distances(wn, b)
    best = min(
        (da[node] + db[node] for node in da.keys() & db.keys()),
        default=None,
    )
    through_root = _root_distance(da, wn) + _root_distance(db, wn) + 2
    length = through_root if best is None else min(best, through_root)
    wn._pair_lengths[key] = length
    return length


def word_similarity(wn: WordNetGraph, a: str, b: str, pos: str) -> float:
    """Path similarity 1/(1+L) over the best synset pair; 1.0 for identical
    strings, 0.0 when either lemma is unknown for the POS."""
    a = a.lower().replace(" ", "_")
    b = b.lower().replace(" ", "_")
    if a == b:
        return 1.0
    ids_a = wn.lemma_index.get((a, pos))
    ids_b = wn.lemma_index.get((b, pos))
    if not ids_a or not ids_b:
        return 0.0
    length = min(
        synset_path_length(wn, sa, sb) for sa in ids_a for sb in ids_b
    )
    return 1.0 / (1.0 + length)
