"""Tests for JSONL corpus loading and HTML stripping."""

import json
import re
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tasksim import corpus as corpus_module
from tasksim.corpus import (
    Corpus,
    CorpusError,
    DocStructure,
    load_corpus,
    strip_html,
)

from conftest import make_task


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def record(**overrides):
    base = {
        "id": "t1",
        "title": "A task",
        "description_html": "<p>Do the thing.</p>",
        "category": "misc",
        "payment": 0.1,
    }
    base.update(overrides)
    return base


def _oracle_strip_html(raw):
    """strip_html as it was written in two passes, kept as the reference:
    the scan collects text items and break items, and a second loop merges
    the breaks, drops whitespace-only text between them and decodes
    entities."""
    c = corpus_module
    items = []  # ("txt", str) | ("brk", int)
    bullets = 0
    hosts = []

    i = lit_start = 0
    n = len(raw)

    def flush(upto):
        if upto > lit_start:
            items.append(("txt", raw[lit_start:upto]))

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
        elif nxt == "/" or nxt in c._ASCII_LETTERS:
            flush(i)
            name, interior, closing, i = c._scan_tag(raw, i)
            lit_start = i
            if not closing:
                if name == "li":
                    bullets += 1
                elif name == "a":
                    m = c._HREF_RE.search(interior)
                    if m:
                        href = c._decode_entities(next(g for g in m.groups() if g is not None))
                        try:
                            host = urlsplit(href.strip()).hostname
                        except ValueError:
                            host = None
                        if host:
                            hosts.append(host.lower())
                elif name in c._RAW_TEXT_TAGS and not interior.rstrip().endswith("/"):
                    m = re.search(rf"</{name}\b", raw[i:], re.IGNORECASE)
                    if m is None:
                        i = n
                    else:
                        i += m.start()
                    lit_start = i
                    continue
            if name in c._PARA_TAGS:
                items.append(("brk", 2))
            elif name in c._LINE_TAGS:
                items.append(("brk", 1))
        else:
            i += 1
    flush(n)

    pieces = []
    pending = 0
    for kind, value in items:
        if kind == "brk":
            pending = max(pending, value)
            continue
        chunk = c._decode_entities(value)
        if pending and not chunk.strip():
            continue
        if pending:
            pieces.append("\n" * pending)
            pending = 0
        pieces.append(chunk)

    text = c._defuse(c._normalize_whitespace("".join(pieces)))
    return text, DocStructure(bullet_count=bullets, url_hosts=tuple(hosts))


# Markup built from what the one-pass merge of breaks and text reads:
# adjacent and nested block tags, whitespace-only runs between them,
# entities, comments, raw-text elements, unterminated tags and links.
_HTML_PIECES = st.lists(
    st.one_of(
        st.sampled_from([
            "<p>", "</p>", "<div>", "</div>", "<li>", "</li>", "<br>", "<br/>",
            "<h2>", "</h2>", "<tr>", "<ul>", "</ul>", "<blockquote>", "<span>",
            "</span>", "<B>", "<P class='x'>", "<div\n>",
        ]),
        st.sampled_from([" ", "  ", "\n", "\t", " \n ", "\r\n", "\u00a0", "&nbsp;"]),
        st.sampled_from([
            "&amp;", "&lt;", "&gt;p&lt;/p&gt;", "&#65;", "&#x42;", "&#0;", "&bogus;",
            "&", "&amp", "&#x110000;",
        ]),
        st.sampled_from([
            "<!-- c -->", "<!--<p>-->", "<!DOCTYPE html>", "<?xml v?>", "<!-- open",
            "<script>var x = '<p>';</script>", "<style>p { }</style>", "<script>",
            "<script/>", "<STYLE>b</style >",
        ]),
        st.sampled_from([
            "<a href='http://A.example/x'>", "<a href=\"https://b.org\">", "</a>",
            "<a href=http://c.net?q=1>", "<a href='x", "<p", "<", "< p", "3 < 5",
        ]),
        st.sampled_from(["word", "Two words.", "x,y", "café", "-", "tail"]),
    ),
    max_size=30,
).map("".join)


class TestStripHtml:
    def test_list_items(self):
        text, structure = strip_html("<ul><li>a</li><li>b</li></ul>")
        assert text == "a\nb"
        assert structure.bullet_count == 2

    def test_href_host(self):
        _, structure = strip_html("<a href='http://x.com/p?q=1'>link</a>")
        assert structure.url_hosts == ("x.com",)

    def test_plain_text_identity(self):
        text, structure = strip_html("plain text")
        assert text == "plain text"
        assert structure.bullet_count == 0
        # one paragraph of two words (structural column 5)
        assert make_task(html="plain text").analysis.structural[5] == 2.0

    def test_paragraph_breaks(self):
        text, _ = strip_html("<p>one two</p><p>three</p>")
        assert text == "one two\n\nthree"
        # mean words per paragraph (2 and 1), mean characters per line (7 and 5)
        structural = make_task(html="<p>one two</p><p>three</p>").analysis.structural
        assert structural[5] == 1.5
        assert structural[6] == 6.0

    def test_entities_decoded(self):
        text, _ = strip_html("a &amp; b &lt;tag&gt; &#65;")
        assert text == "a & b < tag> A"

    def test_numeric_hex_entity(self):
        text, _ = strip_html("&#x41;&#x42;")
        assert text == "AB"

    def test_unknown_entity_verbatim(self):
        text, _ = strip_html("&copy; 2020")
        assert text == "&copy; 2020"

    def test_comment_removed(self):
        text, _ = strip_html("a<!-- hidden -->b")
        assert text == "ab"

    def test_script_content_removed(self):
        text, _ = strip_html("before<script>var x = '<p>';</script>after")
        assert text == "beforeafter"

    def test_style_content_removed(self):
        text, _ = strip_html("a<style>p { color: red }</style>b")
        assert text == "ab"

    def test_unterminated_tag_swallowed(self):
        text, _ = strip_html("good <a href='x")
        assert text == "good"

    def test_literal_less_than_kept(self):
        text, _ = strip_html("3 < 5")
        assert text == "3 < 5"

    def test_br_and_div_break_lines(self):
        text, _ = strip_html("a<br>b<div>c</div>")
        assert text == "a\nb\nc"

    def test_line_lengths(self):
        # lines of 2 and 4 characters (structural column 6), one paragraph
        structural = make_task(html="<li>ab</li><li>cdef</li>").analysis.structural
        assert structural[6] == 3.0
        assert structural[5] == 2.0

    def test_hosts_lowercased_multiset(self):
        _, structure = strip_html(
            '<a href="HTTP://X.COM/a">1</a><a href="http://x.com/b">2</a>'
        )
        assert structure.url_hosts == ("x.com", "x.com")

    def test_relative_href_no_host(self):
        _, structure = strip_html('<a href="/local/page">here</a>')
        assert structure.url_hosts == ()

    def test_malformed_href_no_host(self):
        text, structure = strip_html(
            '<a href="http://[::1/x">bad</a> <a href="http://ok.org/">good</a>'
        )
        assert text == "bad good"
        assert structure.url_hosts == ("ok.org",)

    def test_whitespace_collapsed(self):
        text, _ = strip_html("a\t \t b   c")
        assert text == "a b c"

    def test_nbsp_becomes_space(self):
        text, _ = strip_html("a&nbsp;b")
        assert text == "a b"

    def test_attribute_with_gt_in_quotes(self):
        text, _ = strip_html('<img alt="x > y">z')
        assert text == "z"

    markup_texts = st.text(
        alphabet=st.sampled_from(list("abc <>&;#/!?'\"=\n-pliu123xABC")), max_size=200
    )

    @given(markup_texts)
    @example("&amp;amp;")
    @example("&lt;a href=x>")
    @example("&#60;div&#62;")
    @example("<<p>")
    @example("a<b & c>d")
    @settings(max_examples=400)
    def test_idempotent_on_own_output(self, raw):
        text, _ = strip_html(raw)
        again, _ = strip_html(text)
        assert again == text

    @given(markup_texts)
    @example("&lt;p&gt;")
    @example("&#60;!--")
    @settings(max_examples=400)
    def test_no_markup_lookalikes_in_output(self, raw):
        text, _ = strip_html(raw)
        assert not re.search(r"<[A-Za-z/]", text)

    @given(st.one_of(_HTML_PIECES, markup_texts))
    @example("<p>a</p>  \n <div> </div><li>b")
    @example("<div><p><li>a</li></p></div>")
    @example("a<br> &nbsp; <br>b")
    @example("a<p>")
    @example("<p> </p>a &amp; b<br>")
    @settings(max_examples=600)
    def test_one_pass_matches_two_pass_oracle(self, raw):
        assert strip_html(raw) == _oracle_strip_html(raw)

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_unicode_input(self, raw):
        text, _ = strip_html(raw)
        again, _ = strip_html(text)
        assert again == text
        assert not re.search(r"<[A-Za-z/]", text)


class TestLoadCorpus:
    def test_two_valid_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(), record(id="t2", category="other")])
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.category_counts == {"misc": 1, "other": 1}

    def test_missing_category_strict(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        del rec["category"]
        write_jsonl(path, [rec])
        with pytest.raises(CorpusError, match=r"line 1.*category"):
            load_corpus(path, strict=True)

    def test_negative_payment_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(payment=-1)])
        with pytest.raises(CorpusError, match="payment"):
            load_corpus(path, strict=True)
        corpus = load_corpus(path, strict=False)
        assert len(corpus) == 0
        assert len(corpus.report.skipped) == 1

    def test_lenient_skips_and_counts(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(record()) + "\n" + "{not json}\n" + json.dumps(record(id="t3")) + "\n",
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.report.skipped[0][0] == 2

    @pytest.mark.parametrize("strict", [False, True])
    def test_byte_order_mark_loads_the_same(self, tmp_path, strict):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
        text = json.dumps(record()) + "\n" + json.dumps(record(id="t2")) + "\n"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected, corpus = load_corpus(plain, strict), load_corpus(marked, strict)
        assert list(corpus) == list(expected)
        assert corpus.report == expected.report
        assert corpus.report.skipped == ()

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(), record()])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path, strict=True)

    def test_derived_fields_populated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(description_html="<ul><li>x</li></ul>")])
        task = load_corpus(path).tasks[0]
        assert task.description_text == "x"
        assert task.structure.bullet_count == 1

    def test_defaults_flagged_in_report(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        del rec["payment"]
        write_jsonl(path, [rec])
        corpus = load_corpus(path)
        assert corpus.tasks[0].payment == 0.0
        assert dict(corpus.report.defaulted_fields)["payment"] == 1

    def test_time_to_finish_supplied_must_be_positive(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(time_to_finish=0)])
        corpus = load_corpus(path)
        assert len(corpus) == 0
        write_jsonl(path, [record(time_to_finish=10)])
        assert load_corpus(path).tasks[0].time_to_finish == 10.0

    @pytest.mark.parametrize("field, value, why", [
        ("positions", float("inf"), "finite"),
        ("positions", float("nan"), "finite"),
        pytest.param("positions", 10**400, "finite", id="positions-1e400-finite"),
        ("payment", float("inf"), "finite"),
        ("time_to_finish", float("nan"), "finite"),
        ("positions", 5.7, "non-negative whole"),
        ("jobs_done", -3, "non-negative whole"),
    ])
    def test_bad_numbers_rejected(self, tmp_path, field, value, why):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(id="t0"), record(**{field: value}), record(id="t2")])
        with pytest.raises(CorpusError, match=rf"line 2: field '{field}' must be a {why}"):
            load_corpus(path, strict=True)
        corpus = load_corpus(path)
        assert [task.id for task in corpus] == ["t0", "t2"]
        assert corpus.report.skipped == (
            (2, f"field '{field}' must be a {why} number"),
        )

    def test_whole_float_counts_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(positions=5.0, jobs_done=0)])
        task = load_corpus(path, strict=True).tasks[0]
        assert (task.positions, task.jobs_done) == (5, 0)

    def test_malformed_href_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        html = '<p>Visit <a href="http://[::1/x">here</a>.</p>'
        write_jsonl(path, [record(description_html=html), record(id="t2")])
        corpus = load_corpus(path, strict=True)
        assert len(corpus) == 2
        assert corpus.tasks[0].structure.url_hosts == ()

    def test_success_rate_bounds(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(success_rate=1.5)])
        with pytest.raises(CorpusError, match="success_rate"):
            load_corpus(path, strict=True)

    def test_countries_uppercased(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(countries=["us", "De"])])
        assert load_corpus(path).tasks[0].countries == ("US", "DE")

    def test_unknown_fields_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(bogus=1, extra="y")])
        assert load_corpus(path).report.unknown_field_count == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent.jsonl")

    def test_deterministic_reload(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [record(), record(id="t2"), record(id="t2"), record(id="t4", payment=-5)],
        )
        a = load_corpus(path)
        b = load_corpus(path)
        assert a == b
        assert a.report.render() == b.report.render()

    def test_report_render_stable_shape(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record()])
        text = load_corpus(path).report.render()
        assert text.splitlines()[0] == "corpus load report"
        assert "tasks_loaded: 1" in text

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            "\n" + json.dumps(record()) + "\n\n" + json.dumps(record(id="t2")) + "\n\n",
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert len(corpus) == 2

    def test_corpus_is_iterable_value(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record()])
        corpus = load_corpus(path)
        assert isinstance(corpus, Corpus)
        assert [t.id for t in corpus] == ["t1"]
        assert isinstance(corpus.tasks[0].structure, DocStructure)
