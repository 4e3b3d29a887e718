"""The tokenizer in ``prodex.htmltree`` against the stdlib reference reading.

``parse_html`` must give the tree ``html.parser`` gives, node for node, and
``render_pruned`` must write that tree pruned after the fact
(``tests/reference_html.py``), on tag soup and on each case the reference
reads in a surprising way. On hostile markup both run in linear time. The
memos of start-tag readings agree with a fresh reading and keep their bounds.
"""

import contextlib
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from markup import (
    HOSTILE,
    attribute_texts,
    markup,
    raw_bodies,
    selectors,
    template_markup,
    template_pages,
)
from reference_html import (
    block_text_lines,
    reference_is_empty,
    reference_parse,
    reference_prune,
    serialize,
)

import prodex
from prodex import htmltree
from prodex.htmltree import (
    ATTRIBUTE_MEMO_MAX_TEXT,
    ATTRIBUTE_MEMO_SIZE,
    IMPLICIT_CLOSE,
    SKELETON_MEMO_CHARS,
    Element,
    MatchSet,
    TextNode,
    _TOKEN,
    _read_attributes,
    _read_start_tag,
    _rendering,
    _renderings,
    match_pruned,
    parse_html,
    parse_selector,
    render_pruned,
)


def _rendered(html):
    return render_pruned(html)


def _pruned(html):
    """The pruned tree the render writes, read back; None where the page
    has no content."""
    rendered = _rendered(html)
    return rendered and parse_html(rendered[0])


#: Targets for the hostile pages: early and late matches, text collected
#: over the whole page, chains over deep nesting, and a chain that fails
#: on every element.
_HOSTILE_TARGETS = MatchSet([
    (parse_selector(selector), node_index) for selector, node_index in (
        ("div", 0), ("div", 999), ("div div > div", 3), ("span div", 0), ("* *", 50),
        ("li", 1), ("td", 2), ("svg g", 0), ("p.c", 0), ("a", 0),
    )
])


def _matched(html):
    return match_pruned(html, _HOSTILE_TARGETS)


def _assert_matches_reference(html):
    reference = reference_parse(html)
    assert parse_html(html) == reference
    rendered = _rendered(html)
    if reference_is_empty(reference):
        assert rendered is None
    else:
        expected = reference_prune(reference)
        assert rendered == (serialize(expected), "\n".join(block_text_lines(expected)))
        assert parse_html(rendered[0]) == expected


@settings(max_examples=300, deadline=None)
@given(markup())
@example("<p>a<b</p>c")
@example("a<!-- c -->b")
@example("<div CLASS=a class=b>x</div>")
def test_parses_equal_the_reference_on_tag_soup(html):
    _assert_matches_reference(html)


PINNED = {
    "charrefs in text": "<p>a &amp; b &lt;c&gt; &#233;&eacute &#x41; &#1; &bogus;</p>",
    "charrefs in attributes": '<p class="a&amp;b" id=x&lt;y title="&quot;">t</p>',
    "raw text end tag": "<script>if (a </b) x = '<p>';</SCRIPT >after<style>p{}</ style>z",
    "unclosed raw text": "<p>a</p><script>x<p>lost",
    "nested svg": "a<svg><svg><g>x</g></svg>b</svg>c<p>d</p>",
    "option closes option": "<select><option>a<option>b</select><p>c</p>",
    "option inside li": "<ul><li>a<option>b<li>c</ul>d",
    "comments": "a<!-- x -->b<!--y--  >c<!-- <p> -->d",
    "unclosed comment": "a<!-- b <p>c</p> d",
    "cdata and doctype": "<!DOCTYPE html><p>a<![CDATA[ <b>x</b> ]]>b<![if IE]>c<![endif]>d</p>",
    "processing instruction": "a<?php echo 1; ?>b",
    "bare <": "<p>a < 1</p><",
    "a < 1": "a < 1",
    "attributes": '<p hidden class=a class="b" ID=\'y\' data-x= "z" e="">t</p>',
    "odd attribute syntax": '<a b = c d==e f="g"h=\'i\' / j/ k=>x</a>',
    "upper case": "<DIV CLASS=A><P>x</P></div>",
    "li/ closes li": "<ul><li>a<li/>b</ul>",
    "p a<b quirk": "<p>a<b</p>c",
    "stray and mismatched end tags": "<div><p>a</span></div>b</p>",
    "end tag oddities": "a</ p>b</>c<//x>d</3>e",
    "unterminated start tag": '<p>a<b c="d>e',
    "start tag with NUL": "<p>a<b\x00c>d",
}


@pytest.mark.parametrize("html", PINNED.values(), ids=PINNED.keys())
def test_pinned_cases_equal_the_reference(html):
    _assert_matches_reference(html)


@settings(max_examples=200, deadline=None)
@given(st.lists(attribute_texts(), max_size=6))
def test_a_memoised_attribute_reading_equals_a_fresh_one(texts):
    # Each start tag is read afresh for the tree, and rendered and read for
    # matching, cold and then warm, so a memo that kept one mode's reading
    # for the other would be caught.
    _renderings.clear()
    targets = MatchSet([(parse_selector("p.a"), 0)])
    memoised = {}
    for _ in ("cold", "warm"):
        for text in texts:
            start_tag = _TOKEN.match(f"<p{text}>")
            assert start_tag.lastindex == 4  # a plain start tag
            fresh = _read_attributes(text, None)
            assert _read_start_tag(start_tag) == ("p", IMPLICIT_CLOSE["p"], True, False, *fresh)
            assert fresh[1] == set((fresh[0].get("class") or "").split())
            # each scan's lookup: its memo, or a reading it keeps there
            rendering = _renderings.get(start_tag[0]) or _rendering(start_tag)
            assert rendering == _rendering(start_tag, False)
            assert memoised.setdefault(("render", text), rendering) is rendering
            reading = targets.readings.get(start_tag[0]) or targets.reading(start_tag)
            assert reading == targets.reading(start_tag, False)
            assert memoised.setdefault(("match", text), reading) is reading
    assert len(_renderings) + len(targets.readings) == len(memoised)


def test_elements_read_from_one_attribute_text_own_their_attrs():
    first, second = parse_html('<p class="a">x</p><p class="a">y</p>').children
    assert first.attrs == second.attrs == {"class": "a"}
    first.attrs["class"] = "changed"
    assert second.attrs == {"class": "a"}
    assert parse_html('<p class="a">z</p>').children[0].attrs == {"class": "a"}


def test_the_attribute_memo_keeps_its_bounds():
    _clear_memos()
    many = "".join(f'<p class="c{i}">' for i in range(ATTRIBUTE_MEMO_SIZE + 100))
    long_tag = '<p class="' + "x" * ATTRIBUTE_MEMO_MAX_TEXT + '">'
    targets = MatchSet([(parse_selector("p.c1"), 0)])
    _rendered(many + long_tag)
    match_pruned(many + long_tag, targets)
    for memo in (_renderings, targets.readings):
        assert len(memo) == ATTRIBUTE_MEMO_SIZE
        assert all(len(key) <= ATTRIBUTE_MEMO_MAX_TEXT for key in memo)
    at_cap = '<p class="' + "x" * (ATTRIBUTE_MEMO_MAX_TEXT - 12) + '">'
    assert len(at_cap) == ATTRIBUTE_MEMO_MAX_TEXT
    for text, stored in ((at_cap, 1), (at_cap[:-2] + 'x">', 0)):
        _clear_memos()
        (p,) = _pruned(text).children
        assert p.attrs == {"class": text[10:-2]}
        assert len(_renderings) == stored
        _clear_memos()  # so that the page is scanned, not walked
        targets = MatchSet([(parse_selector("p"), 0)])
        assert match_pruned(text, targets)[0] == [""]
        assert len(targets.readings) == stored


def test_the_readings_a_match_set_keeps_stay_within_the_memo_bounds():
    targets = MatchSet([(parse_selector("p.c1"), 0)])
    long_tag = '<p class="' + "x" * ATTRIBUTE_MEMO_MAX_TEXT + '">y'
    html = "".join(f'<p class="c{i}">' for i in range(ATTRIBUTE_MEMO_SIZE + 100))
    assert _matched(long_tag) is not None
    assert match_pruned(html, targets)[0] == [""]
    assert len(targets.readings) == ATTRIBUTE_MEMO_SIZE
    assert all(len(key) <= ATTRIBUTE_MEMO_MAX_TEXT
               for kept in (_HOSTILE_TARGETS, targets) for key in kept.readings)


def test_a_full_start_tag_memo_makes_room_for_a_new_tag(monkeypatch):
    """Once page-unique tags fill a memo, a tag written twice on a later
    page is still read once: the memo drops its oldest entry for it."""
    late = '<p class="late">'
    filler = "".join(f'<p class="c{i}">' for i in range(ATTRIBUTE_MEMO_SIZE + 100))
    reads = []
    read_attributes = htmltree._read_attributes
    monkeypatch.setattr(htmltree, "_read_attributes",
                        lambda *args: reads.append(args[0]) or read_attributes(*args))
    _clear_memos()
    _rendered(filler)
    reads.clear()
    assert _rendered(f"{late}a{late}b") == (f'{late}a</p>{late}b</p>', "a\nb")
    assert reads == [' class="late"']
    memo = _renderings
    assert len(memo) == ATTRIBUTE_MEMO_SIZE
    assert late in memo and '<p class="c0">' not in memo
    assert f'<p class="c{ATTRIBUTE_MEMO_SIZE + 99}">' in memo

    targets = MatchSet([(parse_selector("p.late"), 0)])
    match_pruned(filler, targets)
    eligible = []
    monkeypatch.setattr(targets, "eligible", lambda *args: eligible.append(args) or 0)
    match_pruned(f"{late}a{late}b", targets)
    assert len(eligible) == 1
    readings = targets.readings
    assert len(readings) == ATTRIBUTE_MEMO_SIZE and late in readings


def test_a_recipe_scan_with_a_tag_hole_reads_a_repeated_start_tag_once(monkeypatch):
    """A recipe scan looks up its tag holes' placeholders and then the live
    start-tag memo, which its own readings join, so a start tag the marked
    page repeats is read once."""
    _clear_memos()
    render_pruned('<div id="a"><p class="x">1</p><p class="x">2</p></div>')
    targets = MatchSet([(parse_selector("p.x"), 0)])
    eligible, read = [], targets.eligible
    monkeypatch.setattr(targets, "eligible", lambda *args: eligible.append(args[0]) or read(*args))
    page = '<div id="b"><p class="x">1</p><p class="x">2</p></div>'
    assert match_pruned(page, targets)[0] == ["1"]
    assert htmltree._skeletons.lookup(page, targets) is not None  # it walked the skeleton
    assert eligible.count("p") == 1


def _clear_memos():
    _renderings.clear()
    htmltree._skeletons = htmltree._Skeletons()


@contextlib.contextmanager
def _no_memos():
    """The scan with its process-wide memos empty, and kept empty."""
    saved = htmltree.ATTRIBUTE_MEMO_SIZE, htmltree.SKELETON_MEMO_CHARS
    htmltree.ATTRIBUTE_MEMO_SIZE = htmltree.SKELETON_MEMO_CHARS = 0
    _clear_memos()
    try:
        yield
    finally:
        htmltree.ATTRIBUTE_MEMO_SIZE, htmltree.SKELETON_MEMO_CHARS = saved


@settings(max_examples=300, deadline=None)
@given(template_pages(), st.lists(st.tuples(selectors(), st.integers(0, 3)), max_size=3))
@example(["<footer>a<p>b</p></footer>", "<div><footer>a<p>b</p>c</footer>d</div>"], [("div", 0)])
@example(["<footer>a</div>b</footer>", "<div><footer>a</div>b</footer>c</div>d"], [("div", 0)])
@example(["<select><option>a<option>b</select>", "<option>a</option><option>b<p>c"], [("p", 0)])
@example(['<footer><b c="d>e</footer>', '<footer><b c="d>e</footer>f"g>h<p>i'], [("p", 0)])
@example(["<div><p><option>a<option/><b>c</b>d</p>", "<p><option>a<option/><b>c</b>"], [("b", 0)])
@example(["<div><script>x</script><b>c</b>", "<div><script>x</script><b>c</b>"], [("b", 0)])
@example(["<footer>a<!--b</footer>", "<footer>a<!--b</footer>c-->d</footer>e"], [("*", 0)])
@example(["<footer>a<!-- b --></footer>c", "<footer>a<!-- b --></footer>c"], [("*", 0)])
def test_the_memos_change_nothing_a_scan_gives(pages, drawn):
    """The rendering scan's HTML and TEXT, the matching scan's texts and
    signature, and whether the page has content are the same with the memos
    cleared before each page and after the other pages filled them as
    without the memos."""
    targets = [(parse_selector(selector), node_index) for selector, node_index in drawn]

    def read(html, match_set):
        rendered = _rendered(html)
        found = match_pruned(html, match_set)
        return rendered, found

    with _no_memos():
        expected = [read(html, MatchSet(targets)) for html in pages]
    for html, want in zip(pages, expected):
        _clear_memos()
        assert read(html, MatchSet(targets)) == want
    _clear_memos()
    warm = MatchSet(targets)
    for _ in ("filling", "filled"):
        for html, want in zip(pages, expected):
            assert read(html, warm) == want


#: Markup that two skeletons of the examples share before they differ.
_LONG_PREFIX = ('<!DOCTYPE html><html lang="de"><head><title>t</title></head>'
                '<body id="page-1"><nav class="n"><a href="/">a</a><a href="/b">b</a></nav>'
                + '<div class="w">' * 8 + "<h1>x</h1><p>y</p>")
#: Fillings of a text hole: entities, whitespace only, empty, and text that
#: folds; none holds a "<".
_HOLE_TEXTS = ("", " ", "\n  ", "a", "b  b", "&lt;", "&amp;", "x &lt;p&gt; &amp;y",
               "&#60;b&#62;", "\xa0", "a\xa0 \xa0b", "&bogus;", "&", ">")
#: Values of an attribute other than class: the ids selectors name, and others.
_VALUES = ('"x"', "y", '"x&lt;y"', "'&#120;'", '"a b"', '""', "z")
_OTHER_VALUE = re.compile(
    r"""(?<=[\t\n\r\f ])(?!class\b)([a-zA-Z_:][-a-zA-Z0-9_:.]*)=("[^"]*"|'[^']*'|[^\s"'=<>][^\s<>]*)""",
    re.I,
)
#: Changes to the markup a skeleton holds literally: a tag name, a class
#: value, an attribute name, the whitespace between tags, a comment.
_MUTATIONS = (
    (re.compile(r"(?<=<)([a-zA-Z][^\s/>]*)"), r"\1x"),
    (re.compile(r"(?i)(?<=class=)(['\"]?)"), r"\1z"),
    (re.compile(r"(?i)\bclass="), "klass="),
    (re.compile(r"(?<=>)(\s*)(?=<)"), r"\1 "),
    (re.compile(r"(?<=<!-- )c"), "d"),
)


def _pieces(steps):
    """The literal texts and (hole kind, value) holes of a skeleton's steps,
    in page order; a tag hole's value is its recorded text."""
    pieces = []
    for whole, parts, kind, value in steps:
        for literal, number, text in parts or ((whole, None, None),):
            pieces.append(literal)
            if number is not None:
                pieces.append((htmltree._TAG, text))
        if kind is not None:
            pieces.append((kind, value))
    return pieces


def _step_chars(steps):
    """The characters a recording of these new steps is charged: their text."""
    return sum(len(whole) for whole, _, _, _ in steps)


def _trie(memo):
    """The skeletons a memo's trie ends in, and the characters of its
    steps, counted by walking every node."""
    skeletons, chars, nodes = [], 0, list(memo.first)
    while nodes:
        step, after = nodes.pop()
        chars += _step_chars((step,))
        if isinstance(after, list):
            nodes.extend(after)
        else:
            skeletons.append(after)
    return skeletons, chars


@st.composite
def _filled(draw, pieces, tags):
    """A page of ``pieces`` with each hole filled anew: a text hole with one
    of _HOLE_TEXTS, a raw hole with another body and end tag, and, where
    ``tags``, a tag hole with other values of attributes other than class."""
    page = []
    for piece in pieces:
        if isinstance(piece, str):
            page.append(piece)
            continue
        kind, value = piece
        if kind == htmltree._TEXT:
            page.append(draw(st.sampled_from(_HOLE_TEXTS)))
        elif kind == htmltree._RAW:
            tag = draw(st.sampled_from((str, str.upper)))(value)
            end = draw(st.sampled_from(("</{}>", "</{} >", "</ {}>")))
            page.append(draw(raw_bodies()) + end.format(tag))
        elif tags:
            page.append(_OTHER_VALUE.sub(
                lambda m: m[1] + "=" + draw(st.sampled_from(_VALUES)), value))
        else:
            page.append(value)
    return "".join(page)


@st.composite
def _skeleton_cases(draw):
    """A page, pages that fill its holes anew ((page, whether only text and
    raw holes changed) pairs), and pages that change one of its literals;
    no others where the skeleton recorder refuses the page."""
    page = draw(template_markup() | markup())
    steps = htmltree._record(page)
    if steps is None:
        return page, [], []
    pieces = _pieces(steps)
    filled = [(draw(_filled(pieces, tags)), not tags) for tags in (False, True, True)]
    sites = [(i, pattern, repl) for i, piece in enumerate(pieces) if isinstance(piece, str)
             for pattern, repl in _MUTATIONS if pattern.search(piece)]
    mutated = []
    for i, pattern, repl in draw(st.lists(st.sampled_from(sites), max_size=2)) if sites else ():
        changed = pieces[:i] + [pattern.sub(repl, pieces[i], count=1)] + pieces[i + 1:]
        mutated.append(draw(_filled(changed, False)))
    return page, filled, mutated


@settings(max_examples=300, deadline=None)
@given(_skeleton_cases(), st.lists(st.tuples(selectors(), st.integers(0, 3)), max_size=3))
@example(('<html lang="de"><body id="p-1"><p class="a">x &amp; y</p>'
          '<script>t("1")</script><p class=b>z</p></body>',
          [('<html lang="de"><body id="p-2"><p class="a"> &lt;q </p>'
            '<script>t("2")</script><p class=b></p></body>', True),
           ('<html lang="en"><body id="x"><p class="a">x</p>'
            '<SCRIPT>t("1")</script ><p class=b>  </p></body>', False)],
          ['<html lang="de"><body id="p-1"><p class="z">x</p><script></script><p class=b>z</p>'
           '</body>']),
         [("#x p", 0), ("p", 1), ("body", 0)])
@example(("<p>a<!-- c --><br>b", [("<p><!-- c --><br>", True)], ["<p>a<!-- d --><br>b"]),
         [("p", 0)])
@example(("<p>a < b</p>", [], []), [("p", 0)])
@example(("<script></script><p id=x>y", [], ["<script><</script>"]), [("p", 0)])
@example(('<div><script>var a = "<p>";</script><p>x</p></div>',
          [('<div><script>var a = 1;</script><p>y</p></div>', True)], []), [("p", 0)])
@example(('<div><script>var a = 1;</script><p>x</p></div>',
          [('<div><script>var a = "<p>" + "</b>";</script><p>y</p></div>', True)], []),
         [("p", 0)])
@example((_LONG_PREFIX + "<p>c</p><p>d</p></div>",
          [(_LONG_PREFIX + "<p>e</p><p></p></div>", True)],
          [_LONG_PREFIX + "<p>c</p></div>", _LONG_PREFIX + "<p>c</p><p>d</p><p>e</p></div>"]),
         [("p", 1), ("div.w p", 3)])
def test_a_page_walking_a_recorded_skeleton_gives_what_a_scan_gives(case, drawn):
    """After the skeleton memo recorded a page, a page that fills its text,
    script and style holes anew is matched from the skeleton's recipe; one
    that also changes attribute values other than class is, or falls back
    to the scan; one that changes markup the skeleton holds literally falls
    back, and is recorded beside it where the recorder takes it, after
    which both walk. Either way the texts, signature and content are a
    cold scan's. A page the recorder refuses is not recorded, and is
    charged its length."""
    page, filled, mutated = case
    targets = [(parse_selector(selector), node_index) for selector, node_index in drawn]

    def match(html, match_set):
        return match_pruned(html, match_set)

    pages = [page, *(html for html, _ in filled), *mutated]
    with _no_memos():
        expected = {html: match(html, MatchSet(targets)) for html in pages}
    _clear_memos()
    match_set = MatchSet(targets)
    assert match(page, match_set) == expected[page]
    memo = htmltree._skeletons
    steps = htmltree._record(page)
    assert len(_trie(memo)[0]) == (steps is not None)
    assert memo.chars == (_step_chars(steps) if steps
                          else len(page) if expected[page] is not None else 0)

    def walked(html):
        return memo.lookup(html, match_set)

    for html in mutated:
        assert walked(html) is None
    for html, holes_only in filled:
        found = walked(html)
        assert found is not None or not holes_only
        assert found in (None, expected[html])
        assert match(html, match_set) == expected[html]
    for html in mutated:
        assert match(html, match_set) == expected[html]
    for html in mutated:  # recorded beside the page, where the recorder takes it
        recordable = expected[html] is not None and htmltree._record(html)
        assert walked(html) == expected[html] or not recordable
    for html, holes_only in filled:
        assert walked(html) == expected[html] or not holes_only


@settings(max_examples=300, deadline=None)
@given(_skeleton_cases())
@example(('<div class="\U000F0000">a</div><p>b</p>',
          [('<div class="\U000F0000">c</div><p>d</p>', True)], []))
@example(('<div class="&#983040;">a</div><p>b</p>', [('<div class="&#983040;">c</div><p>d</p>', True)],
          []))
@example(('<html><body id="page-1"><p class=a>x</p></body></html>',
          [('<html><body id="page-2"><p class=a>y</p></body></html>', False)], []))
@example(('<header data-x=1><p id=a>x</p></header><p>y</p>',
          [('<header data-x=2><p id=b>z</p></header><p>w</p>', False)], []))
@example(("<p><a\xa0 id=x>t</p>u", [("<p><a\xa0 id=x> </p>v", True)], []))
@example(("<div><p>a<b>b</b></p><p>c</p>d</div>",
          [("<div><p> <b>&#32;</b></p><p>c</p>&#32;</div>", True)], []))
@example(("<p>a<BR ID=x/>b</p>", [("<p>c<BR ID=y/>d</p>", False), ("<p> <BR ID=x/>d</p>", True)],
          []))
@example(('<div><script>var a = "<p>";</script><p>x</p></div>',
          [('<div><script>var a = 1;</script><p>y</p></div>', True)], []))
@example(('<div><script>var a = 1;</script><p>x</p></div>',
          [('<div><script>var a = "<p>" + "</b>";</script><p>y</p></div>', True)], []))
@example((_LONG_PREFIX + "<p>c</p><p>d</p></div>",
          [(_LONG_PREFIX + "<p>e</p><p></p></div>", True)],
          [_LONG_PREFIX + "<p>c</p></div>", _LONG_PREFIX + "<p>c</p><p>d</p><p>e</p></div>"]))
def test_a_page_walking_a_recorded_skeleton_renders_as_a_scan_does(case):
    """After the skeleton memo recorded a page, a page that fills its text,
    script and style holes anew is rendered from the skeleton's recipe,
    which every skeleton has unless its page names a tag whose end tag does
    not read back as its own; one that also changes attribute values other
    than class is, or falls back to the scan; one that changes markup the
    skeleton holds literally falls back, and is recorded beside it where
    the recorder takes it, after which both walk. Either way the HTML and
    TEXT are a cold scan's."""
    page, filled, mutated = case
    pages = [page, *(html for html, _ in filled), *mutated]
    with _no_memos():
        expected = {html: _rendered(html) for html in pages}
    _clear_memos()
    assert _rendered(page) == expected[page]
    memo = htmltree._skeletons
    steps = htmltree._record(page)
    skeletons = _trie(memo)[0]
    assert len(skeletons) == (steps is not None)
    found = memo.lookup(page)  # the page walks its skeleton, whose recipe is made
    recipe = skeletons and skeletons[0].rendering
    assert found == (expected[page] if recipe else None)

    def closable(html):
        names = [m[2].lower() for m in _TOKEN.finditer(html) if m.lastindex == 4]
        return all(map(htmltree._closable, names))

    assert recipe or not skeletons or not closable(page)

    def rendered(html):
        return memo.lookup(html)

    for html in mutated:
        assert rendered(html) is None
    for html, holes_only in filled:
        found = rendered(html)
        assert found is not None or not (recipe and holes_only)
        assert found in (None, expected[html])
        assert _rendered(html) == expected[html]
    for html in mutated:
        assert _rendered(html) == expected[html]
    for html in mutated:  # recorded beside the page, where the recorder takes it
        recordable = (expected[html] is not None and closable(html)
                      and htmltree._record(html))
        assert rendered(html) == expected[html] or not recordable
    for html, holes_only in filled:
        assert rendered(html) == expected[html] or not (recipe and holes_only)


def test_the_skeleton_memo_keeps_its_bounds(monkeypatch):
    targets = MatchSet([(parse_selector("p"), 0)])

    def match(html):
        return match_pruned(html, targets)

    _clear_memos()
    for i in range(6):  # as many "<", a skeleton each
        match(f'<p class="c{i}">x</p>')
    memo = htmltree._skeletons
    skeletons, chars = _trie(memo)
    assert len(skeletons) == len(memo.first) == 6 and memo.chars == chars
    for i in range(64):  # each a prefix of the next: one step more each
        match("<p>x" * (i + 3))
    skeletons, chars = _trie(memo)
    assert len(skeletons) == 70 and len(memo.first) == 7
    assert memo.chars == chars
    assert chars - sum(len(f'<p class="c{i}">') + 4 for i in range(6)) == 3 * (3 + 63)
    assert len(targets.recipes) == 0
    page = '<p class="c0">y &amp; z</p>'
    assert memo.lookup(page, targets) == match(page) == (["y & z"], match(page)[1])
    for i in range(64):
        assert memo.lookup("<p>y" * (i + 3), targets) == match("<p>y" * (i + 3))
    assert len(targets.recipes) == 65  # one per skeleton walked

    _clear_memos()  # a rendered page is recorded alike, and a skeleton has one rendering recipe
    for i in range(6):
        _rendered(f'<p class="c{i}">x</p>')
    for i in range(64):
        assert _rendered("<p>x" * (i + 3)) == _rendered("<p>x" * (i + 3))
    memo = htmltree._skeletons
    skeletons = _trie(memo)[0]
    assert len(skeletons) == 70
    assert sum(skeleton.rendering is not None for skeleton in skeletons) == 64
    assert memo.lookup(page) == _rendered(page) == (page, "y & z")

    _clear_memos()
    big = "<p>" + "x" * SKELETON_MEMO_CHARS
    match(big)
    _rendered(big)
    memo = htmltree._skeletons
    assert memo.chars == 0 and memo.first == []
    for i in range(64):
        match("<br>" * (SKELETON_MEMO_CHARS // 40 + i))
    skeletons, chars = _trie(memo)
    assert 0 < len(skeletons) < 64
    assert SKELETON_MEMO_CHARS // 2 < memo.chars == chars <= SKELETON_MEMO_CHARS

    _clear_memos()  # a refused page is charged its length, and the charge bounds the tries
    tries = []
    record = htmltree._record
    monkeypatch.setattr(htmltree, "_record", lambda *args: tries.append(args) or record(*args))
    pages = ["<p>a < b" + "<br>" * (SKELETON_MEMO_CHARS // 64 + i) for i in range(74)]
    for i, html in enumerate(pages):
        (match, _rendered)[i % 2](html)  # a stray "<": refused
    memo = htmltree._skeletons
    assert 0 < len(tries) < len(pages) and memo.first == []
    assert memo.chars == sum(len(html) for (html,) in tries) <= SKELETON_MEMO_CHARS

    _clear_memos()  # a page whose skeleton the trie holds is charged nothing
    named = MatchSet([(parse_selector("#a"), 0)])
    match_pruned('<p id="a">x</p>', named)
    memo = htmltree._skeletons
    charged, page = memo.chars, '<p id="b">y</p>'
    assert memo.lookup(page, named) is None  # it walks, but its tag hole reads otherwise
    assert match_pruned(page, named) == ([None], match(page)[1])
    assert len(_trie(memo)[0]) == 1 and memo.chars == charged


def test_pages_of_a_recorded_skeleton_leave_room_for_later_skeletons(monkeypatch):
    """A page that walks a recorded skeleton but is scanned anyway, as its
    tag hole reads otherwise for the targets, is charged nothing however
    often it comes, so the memo's bound is not used up and a later page of
    a new skeleton is still recorded."""
    named = MatchSet([(parse_selector("#a"), 0)])
    first, later = '<p id="a">x</p>', '<div class="c">z</div>'
    _clear_memos()
    monkeypatch.setattr(htmltree, "SKELETON_MEMO_CHARS", 4 * len(first))
    assert match_pruned(first, named)[0] == ["x"]
    memo = htmltree._skeletons
    charged = memo.chars
    assert 0 < charged < len(first)
    for i in range(20):
        page = f'<p id="b{i}">y{i}</p>'
        assert memo.lookup(page, named) is None  # it walks, but its tag hole reads otherwise
        assert match_pruned(page, named)[0] == [None]
        assert memo.chars == charged
    assert match_pruned(later, named)[0] == [None]
    assert len(_trie(memo)[0]) == 2
    assert memo.lookup(later, named) == match_pruned(later, named)


def test_skeletons_share_their_steps_up_to_where_their_pages_differ():
    """Pages of a template whose start tags differ only in attribute values
    other than class share the trie's nodes, up to the first step whose
    literals or tag hole's tag or class differ; a page walks the branch its
    skeleton took."""
    targets = MatchSet([(parse_selector("p.b"), 0), (parse_selector("#x"), 0)])

    def match(html):
        return match_pruned(html, targets)

    _clear_memos()
    match('<body id="page-1"><h1>t</h1><div id="x">a</div><p class="a">b</p></body>')
    match('<body id="page-2"><h1>t</h1><div id="x">c</div><p class="b">d</p></body>')
    match('<body id="page-3"><h1>t</h1><div id="y" class="c">e</div></body>')
    memo = htmltree._skeletons
    skeletons = _trie(memo)[0]
    assert len(skeletons) == 3 and len(memo.first) == 1
    shared = memo.first[0]  # <body id=...><h1>, whatever the id
    assert len(shared[1]) == 2  # <div id=x> and <div id=y class=c> branch
    assert len(shared[1][0][1]) == 2  # <p class=a> and <p class=b> branch
    page = '<body id="page-9"><h1>u</h1><div id="x">f</div><p class="b">g</p></body>'
    assert memo.lookup(page, targets) == match(page) == (["g", "f"], match(page)[1])
    page = '<body id="page-9"><h1>u</h1><div id="y" class="c">h</div></body>'
    assert memo.lookup(page, targets) == match(page)
    assert len(_trie(memo)[0]) == 3


def test_pages_rendered_on_many_threads_keep_the_skeleton_memo_bounds(monkeypatch):
    """Direct extraction renders pages on worker threads, which record
    skeletons in one memo: its count of characters stays true and its bound
    held, no recorded skeleton is lost, and each page renders as a cold
    scan does."""
    pages = [f'<p class="c{i}">x</p>' + "<b>y</b>" * 100 + "<br>" * (i % 10) for i in range(400)]
    with _no_memos():
        expected = [_rendered(html) for html in pages]
    _clear_memos()
    monkeypatch.setattr(htmltree, "SKELETON_MEMO_CHARS", 100_000)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            rendered = list(pool.map(_rendered, pages, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert rendered == expected
    memo = htmltree._skeletons
    skeletons, chars = _trie(memo)
    assert memo.chars == chars <= 100_000 < chars + len(pages[-1])
    assert len(skeletons) == len(memo.first) == sum(map(bool, map(memo.lookup, pages))) > 100


def test_a_lt_1_is_three_text_nodes_joined_when_pruned():
    assert parse_html("a < 1").children == [TextNode("a "), TextNode("<"), TextNode(" 1")]
    assert _pruned("a < 1").children == [TextNode("a<1")]
    assert _rendered("a < 1") == ("a&lt;1", "a<1")


def test_p_a_lt_b_quirk_opens_a_b_lt_element():
    (p,) = parse_html("<p>a<b</p>c").children
    assert p.children[1].tag == "b<"
    assert p.children[1].attrs == {"p": None}


def test_script_only_page_is_parsable_and_empty_when_pruned():
    assert _rendered("<script>x</script>") == ("", "")
    assert _rendered("  <!-- x -->  ") is None


def test_banned_subtree_is_not_built_but_closes_implicitly():
    assert _rendered("<ul><li>a<option>b<li>c</ul>d") == ("<ul><li>a</li></ul>d", "a\nd")
    tree = _pruned("<ul><li>a<option>b<li>c</ul>d")
    ul, text = tree.children
    assert ul == Element("ul", children=[Element("li", children=[TextNode("a")])])
    assert text == TextNode("d")


def test_unknown_marked_section_is_read_as_a_comment():
    # html.parser raises on these; the tokenizer reads them as comments.
    assert parse_html("a<![foo]>b<![ x>c").children == [TextNode("a"), TextNode("b"), TextNode("c")]


@pytest.mark.parametrize("unit", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_markup_matches_the_reference_when_small(unit):
    for n in (1, 2, 3, 50):
        _assert_matches_reference(unit * n)


@pytest.mark.parametrize("unit", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_markup_parses_in_linear_time(unit):
    html = unit * (100_000 // len(unit))
    for parse in (parse_html, _rendered, _matched):
        started = time.perf_counter()
        parse(html)
        assert time.perf_counter() - started < 1.0


def _distinct_attribute_texts(size):
    """Start tags whose attribute texts all differ, so every memo lookup misses."""
    return "".join(f'<p class="c{i}">' for i in range(size // 16))


def _one_long_attribute(size):
    return '<p class="' + "a" * size + '">x</p>'


GROWN = {
    "distinct attribute texts": _distinct_attribute_texts,
    "one long attribute": _one_long_attribute,
}


@pytest.mark.parametrize("build", GROWN.values(), ids=GROWN.keys())
def test_grown_markup_matches_the_reference_when_small(build):
    for size in (16, 48, 800):
        _assert_matches_reference(build(size))


@pytest.mark.parametrize("build", GROWN.values(), ids=GROWN.keys())
def test_grown_markup_parses_in_linear_time(build):
    html = build(100_000)
    for parse in (parse_html, _rendered, _matched):
        started = time.perf_counter()
        parse(html)
        assert time.perf_counter() - started < 1.0


def test_cli_import_does_not_load_the_stdlib_html_parser():
    code = "import sys, prodex.cli; print('html.parser' in sys.modules)"
    src = str(Path(prodex.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
