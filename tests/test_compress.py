from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from markup import HOSTILE, markup, nbsp_markup
from reference_html import (
    block_text_lines,
    reference_is_empty,
    reference_parse,
    reference_prune,
    serialize,
)

from prodex import htmltree

from prodex.compress import (
    BANNED_ELEMENTS,
    RawDocument,
    UnparsableDocument,
    Variant,
    compress_both,
    count_tokens,
)
from prodex.dsl import (
    ExtractionProgram,
    FieldRule,
    PostOp,
    program_scan,
    run_extraction_on_tree,
    run_extractions,
)
from prodex.htmltree import TextNode, parse_html

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _raw(html, page_id="p"):
    return RawDocument(page_id=page_id, html=html)


def _html(doc):
    return compress_both(doc)[0]


def _text(doc):
    return compress_both(doc)[1]


def _text_of(html_doc):
    """The TEXT variant derived from the HTML variant in a second step."""
    return "\n".join(block_text_lines(parse_html(html_doc.content)))


class TestCompressHtml:
    def test_removes_banned_elements_strips_attrs_and_comments(self):
        doc = _raw(
            '<html><head><script>x</script></head>'
            '<body><p class="a" style="c">T</p><!--c--></body></html>'
        )
        out = _html(doc)
        assert out.variant is Variant.HTML_COMPRESSED
        assert '<p class="a">T</p>' in out.content
        assert "script" not in out.content
        assert "head" not in out.content
        assert "<!--" not in out.content

    def test_empty_body(self):
        out = _html(_raw("<html><body></body></html>"))
        assert out.content == "<html><body></body></html>"
        assert out.token_count >= 0

    def test_golden_fixture_byte_exact(self):
        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        out = _html(_raw(html, page_id="globus_like_01"))
        expected = (GOLDEN / "globus_like_01.compressed.html").read_text(encoding="utf-8")
        assert out.content == expected

    def test_unparsable_document(self):
        with pytest.raises(UnparsableDocument):
            _html(_raw("   \n  "))
        with pytest.raises(UnparsableDocument):
            _html(_raw("<!-- only a comment -->"))

    def test_plain_text_page_is_parsable(self):
        out = _html(_raw("just words, no tags"))
        assert out.content == "just words, no tags"

    def test_option_removed_even_with_class(self):
        out = _html(_raw('<select><option class="keepme">1</option></select>'))
        assert "option" not in out.content

    def test_no_attributes_other_than_class_and_id(self):
        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        out = _html(_raw(html))
        for element in parse_html(out.content).iter_elements():
            assert set(element.attrs) <= {"class", "id"}

    def test_banned_absence_checkable_by_reparse(self):
        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        out = _html(_raw(html))
        tree = parse_html(out.content)
        for banned in BANNED_ELEMENTS:
            assert not [e for e in tree.iter_elements() if e.tag == banned]

    def test_idempotent_on_fixture(self):
        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        once = _html(_raw(html))
        twice = _html(_raw(once.content))
        assert twice.content == once.content


class TestExtractText:
    def test_block_separator(self):
        text = _text(_raw("<div><p>Zutaten:</p><p>Zucker</p></div>"))
        assert text.content == "Zutaten:\nZucker"
        assert text.variant is Variant.TEXT

    def test_empty_body_gives_empty_text(self):
        text = _text(_raw("<html><body></body></html>"))
        assert text.content == ""
        assert text.token_count == 0

    def test_golden_text_byte_exact(self):
        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        out = _text(_raw(html, page_id="globus_like_01"))
        expected = (GOLDEN / "globus_like_01.text.txt").read_text(encoding="utf-8")
        assert out.content == expected

    def test_no_tags_in_text_output(self):
        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        text = _text(_raw(html))
        assert "<" not in text.content

    def test_text_preservation_in_order(self):
        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        compressed, text = compress_both(_raw(html))
        pieces = []
        for node in _walk_text(parse_html(compressed.content)):
            pieces.append(node)
        cursor = 0
        for piece in pieces:
            found = text.content.find(piece, cursor)
            assert found >= 0, f"visible text {piece!r} missing or out of order"
            cursor = found


def _walk_text(node):
    for child in node.children:
        if isinstance(child, TextNode):
            if child.text.strip():
                yield child.text.strip()
        else:
            yield from _walk_text(child)


class TestCountTokens:
    def test_examples(self):
        assert count_tokens("") == 0
        assert count_tokens("abcd") == 1
        assert count_tokens("abcdefgh") == 2

    def test_multibyte_counts_bytes(self):
        assert count_tokens("ääää") == 2  # 8 utf-8 bytes

    @given(st.text(max_size=200), st.text(max_size=200))
    def test_monotone_under_concatenation(self, a, b):
        assert count_tokens(a + b) >= max(count_tokens(a), count_tokens(b))

    @given(st.text(max_size=400))
    def test_matches_ceil_arithmetic(self, s):
        n = len(s.encode("utf-8"))
        expected = n // 4 + (1 if n % 4 else 0)
        assert count_tokens(s) == expected


# A bounded strategy for messy-but-parsable HTML fragments.
_tags = st.sampled_from(["div", "p", "span", "td", "li", "script", "style", "header"])
_attr = st.sampled_from(
    ['class="a"', 'id="z"', 'style="x:1"', 'data-k="v"', "disabled"]
)
_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs")), max_size=12
)


@st.composite
def _html_fragment(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_texts)
    tag = draw(_tags)
    attrs = " ".join(draw(st.lists(_attr, max_size=2)))
    opening = f"<{tag} {attrs}>" if attrs else f"<{tag}>"
    children = "".join(
        draw(_html_fragment(depth=depth + 1)) for _ in range(draw(st.integers(0, 3)))
    )
    return f"{opening}{children}</{tag}>"


class TestInvariantsOnGeneratedHtml:
    @settings(max_examples=60, deadline=None)
    @given(_html_fragment())
    def test_compression_is_a_fixed_point(self, fragment):
        html = f"<html><body>{fragment}</body></html>"
        once = _html(_raw(html))
        twice = _html(_raw(once.content))
        assert twice.content == once.content

    @settings(max_examples=60, deadline=None)
    @given(_html_fragment())
    def test_monotone_shrinkage(self, fragment):
        html = f"<html><body>{fragment}</body></html>"
        html_doc, text_doc = compress_both(_raw(html))
        assert text_doc.token_count <= html_doc.token_count
        assert html_doc.token_count <= count_tokens(html)


def test_compress_both_matches_two_step_path(small_alpha):
    doc = small_alpha.pages[0]
    html_doc, text_doc = compress_both(doc)
    assert _html(_raw(html_doc.content)).content == html_doc.content
    assert text_doc.content == _text_of(html_doc)


def _assert_renders_the_reference(html):
    """compress_both writes the reference's pruned tree: its ``serialize``
    and ``block_text_lines``, and HTML that ``parse_html`` reads back as
    that tree; a page whose tree is empty is unparsable. Returns the two
    documents, or None for an unparsable page."""
    reference = reference_parse(html)
    try:
        html_doc, text_doc = compress_both(_raw(html))
    except UnparsableDocument:
        assert reference_is_empty(reference)
        return None
    assert not reference_is_empty(reference)
    tree = reference_prune(reference)
    assert html_doc.content == serialize(tree)
    assert text_doc.content == "\n".join(block_text_lines(tree))
    assert parse_html(html_doc.content) == tree
    assert html_doc.token_count == count_tokens(html_doc.content)
    assert text_doc.token_count == count_tokens(text_doc.content)
    return html_doc, text_doc


class TestCompressBothTree:
    @settings(max_examples=200, deadline=None)
    @given(markup())
    @example("a<script>x</script>b")
    @example("a<!-- c -->b")
    @example("<p>a < b</p>")
    @example("<li>a<li/>b")
    @example("<a\xa0 <div/><div>")  # "</a\xa0>" would read as "</a>": self-closed
    def test_tree_and_text_match_the_reparsed_html(self, html):
        docs = _assert_renders_the_reference(html)
        if docs:
            html_doc, text_doc = docs
            assert text_doc.content == _text_of(html_doc)

    @settings(max_examples=300, deadline=None)
    @given(nbsp_markup())
    @example("<a\xa0>x</a\xa0>y<b\xa0/><li\xa0 class=a>")
    @example("<ul><li>a<li>b<a\xa0><li>c</ul></p>d<td>e")
    @example("<div><p>a</span>b<br>c</div></div>d<p>")
    def test_the_render_equals_the_reference_on_tag_soup(self, html):
        _assert_renders_the_reference(html)

    @pytest.mark.parametrize("unit", HOSTILE.values(), ids=HOSTILE.keys())
    def test_hostile_pages_render_as_the_reference(self, unit):
        for n in (1, 2, 3, 50):
            _assert_renders_the_reference(unit * n)

    def test_compress_both_builds_no_tree(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("compress_both built a tree node")

        html = (FIXTURES / "globus_like_01.html").read_text(encoding="utf-8")
        expected = compress_both(_raw(html))
        for name in ("Element", "TextNode", "Document", "ElementIndex"):
            monkeypatch.setattr(htmltree, name, refused)
        assert compress_both(_raw(html)) == expected
        soup = "<ul><li>a<li>b</ul><p>x<br>y<a\xa0><script>s</script>" + HOSTILE["nested div"] * 50
        html_doc, text_doc = compress_both(_raw(soup))
        assert text_doc.content == "a\nb\nx\ny"

    def test_adjacent_text_runs_merge(self):
        html_doc, text_doc = compress_both(_raw("a<script>x</script>b<!-- c --> c"))
        assert reference_prune(reference_parse("a<script>x</script>b<!-- c --> c")).children == [
            TextNode("abc")
        ]
        assert parse_html(html_doc.content).children == [TextNode("abc")]
        assert text_doc.content == "abc"

    def test_deeply_nested_page_compresses_and_extracts(self):
        depth = 5000
        html = "<div>" * depth + '<span class="bottom">Zutaten: Wasser</span>'
        html_doc, text_doc = compress_both(_raw(html))
        assert text_doc.content == "Zutaten: Wasser"
        rule = FieldRule(
            "ingredient_statement", "div > span.bottom",
            post_ops=(PostOp("strip_label_prefix", prefixes=("Zutaten:",)),),
        )
        program = ExtractionProgram("deep", "FoodProduct", rules=(rule,))
        reparsed = parse_html(html_doc.content)
        assert run_extraction_on_tree(program, reparsed).product.ingredient_statement == "Wasser"
        (product,), _ = run_extractions(program_scan(((rule,),)), _raw(html))
        assert product.ingredient_statement == "Wasser"
