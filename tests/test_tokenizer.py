"""The tokenizer in ``prodex.htmltree`` against the stdlib reference reading.

``parse_html`` must give the tree ``html.parser`` gives, node for node, and
``parse_pruned`` must give that tree pruned after the fact
(``tests/reference_html.py``), on tag soup and on each case the reference
reads in a surprising way. On hostile markup both run in linear time.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from markup import markup
from reference_html import reference_is_empty, reference_parse, reference_prune

import prodex
from prodex.compress import BANNED_ELEMENTS, KEPT_ATTRIBUTES
from prodex.htmltree import Element, TextNode, parse_html, parse_pruned, serialize


def _pruned(html):
    return parse_pruned(html, BANNED_ELEMENTS, KEPT_ATTRIBUTES)


def _assert_matches_reference(html):
    reference = reference_parse(html)
    assert parse_html(html) == reference
    pruned = _pruned(html)
    if reference_is_empty(reference):
        assert pruned is None
    else:
        expected = reference_prune(reference)
        assert pruned == expected
        assert serialize(pruned) == serialize(expected)


@settings(max_examples=300, deadline=None)
@given(markup())
@example("<p>a<b</p>c")
@example("a<!-- c -->b")
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


def test_a_lt_1_is_three_text_nodes_joined_when_pruned():
    assert parse_html("a < 1").children == [TextNode("a "), TextNode("<"), TextNode(" 1")]
    assert _pruned("a < 1").children == [TextNode("a<1")]


def test_p_a_lt_b_quirk_opens_a_b_lt_element():
    (p,) = parse_html("<p>a<b</p>c").children
    assert p.children[1].tag == "b<"
    assert p.children[1].attrs == {"p": None}


def test_script_only_page_is_parsable_and_empty_when_pruned():
    assert _pruned("<script>x</script>").children == []
    assert _pruned("  <!-- x -->  ") is None


def test_banned_subtree_is_not_built_but_closes_implicitly():
    tree = _pruned("<ul><li>a<option>b<li>c</ul>d")
    ul, text = tree.children
    assert ul == Element("ul", children=[Element("li", children=[TextNode("a")])])
    assert text == TextNode("d")


def test_unknown_marked_section_is_read_as_a_comment():
    # html.parser raises on these; the tokenizer reads them as comments.
    assert parse_html("a<![foo]>b<![ x>c").children == [TextNode("a"), TextNode("b"), TextNode("c")]


HOSTILE = {
    "unterminated quotes": '<a "',
    "unterminated comment": "<!--",
    "run of <": "<",
    "nested div": "<div>",
    "run of empty comments": "<!---->",
    "run of empty scripts": "<script></script>",
    "run of CDATA sections": "<![CDATA[x]]>",
}


@pytest.mark.parametrize("unit", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_markup_matches_the_reference_when_small(unit):
    for n in (1, 2, 3, 50):
        _assert_matches_reference(unit * n)


@pytest.mark.parametrize("unit", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_markup_parses_in_linear_time(unit):
    html = unit * (100_000 // len(unit))
    for parse in (parse_html, _pruned):
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
