"""Synthetic labeled corpus generator.

It replaces a proprietary crowdsourcing dataset: categories get disjoint
15-word signature vocabularies (five of the words are verbs known to the
bundled verb lexicon), descriptions mix signature and shared noise tokens
60/40, and the factual fields come from per-category distributions.
"""

from __future__ import annotations

import json
import operator
import random

# Five curated categories. Each signature set has 15 words: 5 verbs the
# bundled verb lexicon knows (one shared synset per category) plus 10
# category-specific content words. The sets are pairwise disjoint.
_SIGNATURES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "signup": (
        ("register", "join", "subscribe", "enroll", "activate"),
        ("account", "membership", "username", "password", "newsletter",
         "profile", "signup", "invite", "confirmation", "bonus"),
    ),
    "install": (
        ("install", "download", "launch", "configure", "update"),
        ("app", "software", "version", "installer", "apk",
         "setup", "storage", "android", "settings", "homescreen"),
    ),
    "watch": (
        ("watch", "view", "stream", "play", "observe"),
        ("video", "clip", "channel", "episode", "trailer",
         "playlist", "seconds", "screen", "advert", "footage"),
    ),
    "search": (
        ("search", "find", "browse", "click", "visit"),
        ("keyword", "website", "webpage", "listing", "result",
         "directory", "link", "query", "homepage", "tab"),
    ),
    "review": (
        ("review", "rate", "comment", "describe", "summarize"),
        ("opinion", "feedback", "stars", "rating", "paragraph",
         "product", "experience", "quality", "impression", "honest"),
    ),
}

# Shared noise pool, exactly 100 words, disjoint from every signature set.
_NOISE_POOL = (
    "the", "a", "an", "and", "or", "then", "please", "to", "of", "in",
    "on", "at", "for", "with", "from", "by", "your", "our", "this", "that",
    "these", "each", "every", "some", "any", "more", "most", "very",
    "quite", "just", "only", "also", "again", "once", "twice", "after",
    "before", "during", "until", "while", "first", "second", "third",
    "next", "last", "new", "small", "big", "full", "short", "long",
    "quick", "easy", "simple", "free", "extra", "daily", "weekly",
    "final", "total", "same", "other", "early", "late", "real", "sure",
    "clear", "proper", "valid", "ready", "active", "open", "good", "best",
    "top", "main", "side", "front", "back", "home", "work", "task", "job",
    "time", "day", "week", "minute", "moment", "step", "part", "point",
    "place", "case", "note", "list", "here", "there", "now", "soon",
    "today",
)

_COUNTRY_POOL = ("AU", "BR", "CA", "DE", "FR", "GB", "IN", "PH", "PK", "US")
_PROOFS = ("screenshot", "username", "link to profile", "order id",
           "text answer")


def _signature_for(index: int) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    names = list(_SIGNATURES)
    if index < len(names):
        name = names[index]
        verbs, extras = _SIGNATURES[name]
        return name, verbs, extras
    # Past the curated five: synthesized names and vocabularies, still
    # pairwise disjoint by construction. These words are known to no
    # lexicon, so such categories only exercise the schema.
    name = f"extra{index - len(names) + 1}"
    words = tuple(f"{name}term{j:02d}" for j in range(15))
    return name, words[:5], words[5:]


def _sentences(rng: random.Random, tokens: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(tokens):
        take = min(rng.randint(4, 9), len(tokens) - i)
        chunk = tokens[i:i + take]
        i += take
        out.append(" ".join([chunk[0].capitalize()] + chunk[1:]) + ".")
    return out


def _description_html(
    rng: random.Random, category: str, signature: tuple[str, ...],
    verbs: tuple[str, ...], serial: int,
) -> str:
    n_tokens = rng.randint(20, 40)
    tokens = [
        rng.choice(signature) if rng.random() < 0.6
        else rng.choice(_NOISE_POOL)
        for _ in range(n_tokens)
    ]
    # the opening word is always one of the category verbs, so every task
    # description yields at least one verb phrase
    tokens[0] = rng.choice(verbs)
    sentences = _sentences(rng, tokens)

    n_paras = rng.randint(1, min(3, len(sentences)))
    base, extra = divmod(len(sentences), n_paras)
    paragraphs = []
    start = 0
    for p in range(n_paras):
        size = base + (1 if p < extra else 0)
        paragraphs.append(sentences[start:start + size])
        start += size

    parts = [f"<p>{' '.join(group)}</p>" for group in paragraphs]
    if rng.random() < 0.3 and len(parts) >= 2:
        items = "".join(f"<li>{s}</li>" for s in paragraphs[-1])
        parts[-1] = f"<ul>{items}</ul>"
    if rng.random() < 0.25:
        parts.append(
            f'<p>More info <a href="https://{category}.example.com'
            f'/t/{serial}">here</a>.</p>'
        )
    return "".join(parts)


def _factual_fields(rng: random.Random, index: int) -> dict:
    positions = rng.randint(5 + 5 * index, 40 + 10 * index)
    fields = {
        "employer": f"emp{10 * index + rng.randint(1, 6)}",
        "payment": round(rng.uniform(0.05 + 0.1 * index,
                                     0.45 + 0.1 * index), 2),
        "time_to_finish": round(rng.uniform(2.0 + index, 8.0 + 2 * index), 1),
        "time_to_rate": float(rng.randint(1, 3 + index)),
        "positions": positions,
        "jobs_done": rng.randint(0, positions),
        # from the sixth category on the band stays [0.70, 1.0], inside [0, 1]
        "success_rate": round(rng.uniform(min(0.50 + 0.04 * index, 0.70),
                                          min(0.80 + 0.04 * index, 1.0)), 3),
    }
    if rng.random() < 0.6:
        fields["countries"] = []
    else:
        fields["countries"] = sorted(
            rng.sample(_COUNTRY_POOL, rng.randint(1, 3))
        )
    return fields


def synthetic_corpus_text(
    seed: int, categories: int = 5, per_category: int = 60
) -> str:
    """The JSONL content for a labeled synthetic corpus, one record per
    line, no header. Same arguments, same string. A negative `seed` is
    refused, since random.Random would seed with its absolute value."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if categories < 1:
        raise ValueError("categories must be at least 1")
    if per_category < 1:
        raise ValueError("per_category must be at least 1")
    rng = random.Random(seed)
    lines = []
    serial = 0
    for index in range(categories):
        name, verbs, extras = _signature_for(index)
        signature = verbs + extras
        for _ in range(per_category):
            title_verb = rng.choice(verbs)
            title_extra = rng.choice(extras)
            record = {
                "id": f"task-{serial:04d}",
                "title": f"{title_verb.capitalize()} {title_extra}",
                "description_html": _description_html(
                    rng, name, signature, verbs, serial
                ),
                "proof": rng.choice(_PROOFS),
                "category": name,
            }
            record.update(_factual_fields(rng, index))
            lines.append(json.dumps(record))
            serial += 1
    return "\n".join(lines) + "\n"
