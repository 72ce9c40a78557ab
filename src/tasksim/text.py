"""Shared text primitives: sentence splitting, tokenization, stemming, syllables.

Everything in this module is a pure function over plain (markup-free) strings;
the corpus module is responsible for producing such strings from raw HTML.
This is the only module that defines what a word token and a sentence are.

The scans cost per match, not per character: sentence splitting visits only
the candidate boundaries one compiled regex finds (and reads at most a few
characters before a period to rule out an abbreviation), and word tokens
(with commas, for `items`) are the matches of one compiled regex. `stem` is
memoized, since a corpus repeats few words often; `count_syllables` is not,
as its one caller memoizes per word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

__all__ = [
    "TokenStream",
    "stopwords",
    "split_sentences",
    "items",
    "tokenize",
    "word_tokens",
    "stem",
    "count_syllables",
]

# Periods after these tokens never end a sentence. Uppercase single letters
# (initials, "J.") are guarded separately; lowercase ones are ordinary words.
_ABBREVIATIONS = {"e.g.", "i.e.", "etc.", "vs.", "dr.", "mr."}
_INITIAL_RE = re.compile(r"[A-Z]")
# Characters stripped from the front of the token before a period.
_OPENERS = "(\"'["
# The longest guard once openers are stripped: an initial is one letter, an
# abbreviation is its entry less the period. A token that keeps more than
# this many characters never guards a period.
_GUARD_LEN = max(1, *(len(a) - 1 for a in _ABBREVIATIONS))
# The last _GUARD_LEN + 1 characters of a token too long to guard: no
# whitespace, and no opener first (so stripping stops short of them).
_LONG_TOKEN_RE = re.compile(rf"[^\s{re.escape(_OPENERS)}]\S{{{_GUARD_LEN}}}")

# Candidate sentence boundaries: a newline, or a maximal terminator run.
_BOUNDARY_RE = re.compile(r"\n|[.!?]+")
# The kept items of a sentence: a word token (a maximal run of letters,
# digits, apostrophes and hyphens with at least one letter or digit) or a
# comma. The lookbehind starts a match only where a run starts, so a long
# run of hyphens or apostrophes alone is skipped in one pass.
_WORD = r"(?<![A-Za-z0-9'-])['-]*[A-Za-z0-9][A-Za-z0-9'-]*"
_WORD_RE = re.compile(_WORD)
_ITEM_RE = re.compile(_WORD + "|,")
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


# Nothing in the package reads TokenStream or tokenize: the analysis reads
# `word_tokens`. They stay while the benchmark's text probe
# (perfbench/child.py) times tokenize, and go once it times build_analysis.
@dataclass(frozen=True)
class TokenStream:
    """The lowercased (and perhaps filtered and stemmed) word tokens of a
    text, in order."""

    normalized: tuple[str, ...]


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The built-in English stopword list (one word per line resource file)."""
    data = (Path(__file__).resolve().parent / "resources" / "stopwords.txt").read_text("utf-8")
    return frozenset(w for w in (line.strip() for line in data.splitlines()) if w)


def _is_abbreviation(text: str, i: int) -> bool:
    # the token before a candidate '.' boundary at text[i]: the run of
    # non-space characters that ends at i; one newline right before i is
    # looked past, so "J\n." still reads "J"
    end = i - 1 if i and text[i - 1] == "\n" else i
    if _LONG_TOKEN_RE.match(text, end - _GUARD_LEN - 1, end):
        return False
    start = end
    while start and not text[start - 1].isspace():
        start -= 1
    if start == end:
        return False
    tok = text[start:end].lstrip(_OPENERS)
    if _INITIAL_RE.fullmatch(tok):
        return True
    return (tok + ".").lower() in _ABBREVIATIONS


def split_sentences(text: str) -> list[str]:
    """Split markup-free text into sentences.

    Boundaries are '.', '!' or '?' runs followed by whitespace or end of text,
    and any newline. A period preceded by a single letter or a known
    abbreviation ("e.g.", "etc.", ...) does not end a sentence. Sentences are
    stripped; empty ones are never returned.
    """
    sentences: list[str] = []
    start = 0
    n = len(text)
    for match in _BOUNDARY_RE.finditer(text):
        i, j = match.span()
        run = match.group()
        if run != "\n":
            if j < n and not text[j].isspace():
                continue
            if run == "." and _is_abbreviation(text, i):
                continue
        sentences.append(text[start:j])  # a newline here is stripped below
        start = j
    sentences.append(text[start:])
    return [s for s in (s.strip() for s in sentences) if s]


def items(sentence: str) -> list[str]:
    """The word tokens and commas of `sentence` in order, from one regex
    scan. Word tokens are maximal runs of letters, digits, apostrophes and
    hyphens that contain at least one letter or digit; every other
    character is dropped."""
    return _ITEM_RE.findall(sentence)


def word_tokens(text: str) -> list[str]:
    """The word tokens of `text`, as `items` finds them."""
    return _WORD_RE.findall(text)


def tokenize(
    text: str,
    *,
    drop_stopwords: bool = False,
    stem_tokens: bool = False,
) -> TokenStream:
    """The lowercased word tokens of markup-free text (the `word_tokens` of
    each sentence; punctuation is dropped). Options are applied in order:
    drop_stopwords, stem."""
    stops = stopwords() if drop_stopwords else ()
    out: list[str] = []
    for sentence in split_sentences(text):
        for word in word_tokens(sentence):
            normalized = word.lower()
            if normalized not in stops:
                out.append(stem(normalized) if stem_tokens else normalized)
    return TokenStream(tuple(out))


# ---------------------------------------------------------------------------
# Porter stemmer, original 1980 rule set.
#
# The measure m of a stem counts VC sequences in its [C](VC)^m[V] form, where
# a consonant is any letter other than a/e/i/o/u, and y is a consonant only
# when not preceded by a consonant. Conditions used by the rules:
#   *v*  stem contains a vowel
#   *d   stem ends with a double consonant
#   *o   stem ends cvc where the final c is not w, x or y
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem_part: str) -> int:
    m = 0
    prev_vowel = False
    for i in range(len(stem_part)):
        if _is_consonant(stem_part, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem_part: str) -> bool:
    return any(not _is_consonant(stem_part, i) for i in range(len(stem_part)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def _replace(word: str, suffix: str, repl: str) -> str | None:
    """Apply `suffix -> repl` if the word ends with suffix and the stem before
    it has measure > 0. Returns None when the rule does not fire."""
    if not word.endswith(suffix):
        return None
    stem_part = word[: len(word) - len(suffix)]
    return stem_part + repl if _measure(stem_part) > 0 else None


_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


@lru_cache(maxsize=None)
def stem(word: str) -> str:
    """Porter-stem a non-empty lowercase word. Deterministic; words of length
    one or two are returned unchanged, as in the original definition.
    Memoized: a corpus has few distinct words and stems each many times."""
    if len(word) <= 2:
        return word

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        fired = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            fired = word = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            fired = word = word[:-3]
        if fired is not None:
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2
    for suffix, repl in _STEP2_RULES:
        new = _replace(word, suffix, repl)
        if new is not None:
            word = new
            break

    # Step 3
    for suffix, repl in _STEP3_RULES:
        new = _replace(word, suffix, repl)
        if new is not None:
            word = new
            break

    # Step 4
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem_part.endswith(("s", "t")):
                continue
            if _measure(stem_part) > 1:
                word = stem_part
            break

    # Step 5a
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            word = word[:-1]

    # Step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word


def count_syllables(word: str) -> int:
    """Heuristic syllable count: maximal vowel-group runs (aeiouy), minus one
    for a terminal silent 'e' unless the word ends in consonant + "le";
    never less than one."""
    w = word.lower()
    groups = len(_VOWEL_GROUP_RE.findall(w))
    if w.endswith("e") and not (
        len(w) >= 3 and w.endswith("le") and w[-3] not in "aeiouy"
    ):
        groups -= 1
    return max(1, groups)
