"""Shared text primitives: sentence splitting, tokenization, stemming, syllables.

Everything in this module is a pure function over plain (markup-free) strings;
the corpus module is responsible for producing such strings from raw HTML.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

__all__ = [
    "Token",
    "TokenStream",
    "stopwords",
    "split_sentences",
    "tokenize",
    "word_tokens",
    "stem",
    "count_syllables",
]

# Periods after these tokens never end a sentence. Uppercase single letters
# (initials, "J.") are guarded separately; lowercase ones are ordinary words.
_ABBREVIATIONS = {"e.g.", "i.e.", "etc.", "vs.", "dr.", "mr."}

_WORDISH_RE = re.compile(r"[A-Za-z0-9'-]+|[^\sA-Za-z0-9'-]")
_ALNUM_RE = re.compile(r"[A-Za-z0-9]")
_TERMINATOR_RE = re.compile(r"[.!?]")


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    sentence_index: int


@dataclass(frozen=True)
class TokenStream:
    """Ordered tokens with per-token sentence indices.

    Normalized forms are lowercase, and sentence indices are non-decreasing
    in stream order.
    """

    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    @property
    def normalized(self) -> tuple[str, ...]:
        return tuple(t.normalized for t in self.tokens)

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The built-in English stopword list (one word per line resource file)."""
    data = resources.files("tasksim.resources").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in (line.strip() for line in data.splitlines()) if w)


def _is_abbreviation(text: str, i: int) -> bool:
    # the token before a candidate '.' boundary at text[i]: the run of
    # non-space characters that ends at i; one newline right before i is
    # looked past, so "J\n." still reads "J"
    end = i - 1 if i and text[i - 1] == "\n" else i
    start = end
    while start and not text[start - 1].isspace():
        start -= 1
    if start == end:
        return False
    tok = text[start:end].lstrip("(\"'[")
    if re.fullmatch(r"[A-Z]", tok):
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
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            sentences.append(text[start:i])
            start = i + 1
            i += 1
            continue
        if c in ".!?":
            j = i
            while j + 1 < n and text[j + 1] in ".!?":
                j += 1
            at_end = j + 1 >= n or text[j + 1].isspace()
            if at_end and not (c == "." and j == i and _is_abbreviation(text, i)):
                sentences.append(text[start : j + 1])
                start = j + 1
            i = j + 1
            continue
        i += 1
    sentences.append(text[start:])
    return [s for s in (s.strip() for s in sentences) if s]


def word_tokens(text: str) -> list[str]:
    """Word tokens of `text`: maximal runs of letters, digits, apostrophes and
    hyphens that contain at least one letter or digit."""
    return [t for t in _WORDISH_RE.findall(text) if _ALNUM_RE.search(t)]


def tokenize(
    text: str,
    *,
    drop_stopwords: bool = False,
    stem_tokens: bool = False,
) -> TokenStream:
    """Tokenize markup-free text into a TokenStream of lowercased words.

    Word tokens are maximal runs of letters/digits/apostrophes/hyphens with
    at least one letter or digit; punctuation is dropped. Options are applied
    in order: drop_stopwords, stem.
    """
    stops = stopwords() if drop_stopwords else None
    out: list[Token] = []
    for s_idx, sentence in enumerate(split_sentences(text)):
        for surface in _WORDISH_RE.findall(sentence):
            if _ALNUM_RE.search(surface) is None:
                continue
            normalized = surface.lower()
            if stops is not None and normalized in stops:
                continue
            if stem_tokens:
                normalized = stem(normalized)
            out.append(Token(surface, normalized, s_idx))
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


def _replace(word: str, suffix: str, repl: str, min_m: int | None) -> str | None:
    """Apply `suffix -> repl` if the word ends with suffix and the stem before
    it has measure > min_m (None disables the measure test). Returns None when
    the rule does not fire."""
    if not word.endswith(suffix):
        return None
    stem_part = word[: len(word) - len(suffix)]
    if min_m is not None and _measure(stem_part) <= min_m:
        return None
    return stem_part + repl


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
        new = _replace(word, suffix, repl, 0)
        if new is not None:
            word = new
            break

    # Step 3
    for suffix, repl in _STEP3_RULES:
        new = _replace(word, suffix, repl, 0)
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
    groups = len(re.findall(r"[aeiouy]+", w))
    if w.endswith("e") and not (
        len(w) >= 3 and w.endswith("le") and w[-3] not in "aeiouy"
    ):
        groups -= 1
    return max(1, groups)
