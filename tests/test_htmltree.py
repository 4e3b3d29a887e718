import contextlib

import pytest
from hypothesis import example, given, settings, strategies as st
from markup import markup, selectors
from reference_html import block_text_lines, serialize

from prodex import htmltree
from prodex.htmltree import (
    Document,
    Element,
    MatchSet,
    TextNode,
    match_pruned,
    name_signature,
    parse_html,
    parse_selector,
    render_pruned,
    select,
    select_targets,
    text_content,
)


def _rendered(html):
    return render_pruned(html)


@contextlib.contextmanager
def _match_limit(limit):
    """Selectors match among the first ``limit`` elements while in this
    block. A MatchSet keeps the recipes it made under the limit then in
    force, so a test that varies the limit matches with a fresh one."""
    saved, htmltree.MATCH_LIMIT = htmltree.MATCH_LIMIT, limit
    try:
        yield
    finally:
        htmltree.MATCH_LIMIT = saved


def _pruned_tree(html):
    """The pruned tree, read back from the rendered HTML; None where the
    page has no content."""
    rendered = _rendered(html)
    return rendered and parse_html(rendered[0])


def test_parse_builds_tree_with_attrs():
    tree = parse_html('<div class="a b" id="x" style="c"><p>hi</p></div>')
    divs = select(tree, "div")
    assert len(divs) == 1
    assert divs[0].attrs == {"class": "a b", "id": "x", "style": "c"}
    assert divs[0].classes() == {"a", "b"}


def test_void_elements_do_not_swallow_siblings():
    tree = parse_html("<div><br><img src=x><p>after</p></div>")
    assert [e.tag for e in select(tree, "div > p")] == ["p"]


def test_mismatched_end_tags_recover():
    tree = parse_html("<div><p>a</div><span>b</span>")
    assert serialize(tree) == "<div><p>a</p></div><span>b</span>"


def test_implicit_close_for_list_items_and_cells():
    tree = parse_html("<ul><li>1<li>2</ul><table><tr><td>a<td>b</table>")
    assert len(select(tree, "ul > li")) == 2
    assert len(select(tree, "tr > td")) == 2


def test_stray_end_tag_ignored():
    tree = parse_html("<div>a</span>b</div>")
    assert text_content(tree) == "a b"


def test_comments_and_doctype_dropped():
    tree = parse_html("<!DOCTYPE html><!-- hidden --><p>x</p>")
    assert serialize(tree) == "<p>x</p>"


def test_entities_round_trip_through_serialize():
    tree = parse_html("<p>a &amp; b &lt;c&gt;</p>")
    out = serialize(tree)
    assert out == "<p>a &amp; b &lt;c&gt;</p>"
    assert serialize(parse_html(out)) == out
    assert _rendered(out) == (out, "a & b <c>")


def test_duplicate_attributes_keep_first():
    tree = parse_html('<p class="one" class="two">x</p>')
    assert select(tree, "p")[0].attrs["class"] == "one"


def test_text_content_joins_with_single_spaces():
    tree = parse_html("<div><span>3,5</span> <span>g</span></div>")
    assert text_content(tree) == "3,5 g"


def test_block_text_lines_separate_blocks():
    tree = parse_html("<div><p>Zutaten:</p><p>Zucker</p></div>")
    assert block_text_lines(tree) == ["Zutaten:", "Zucker"]
    assert _rendered("<div><p>Zutaten:</p><p>Zucker</p></div>")[1] == "Zutaten:\nZucker"


def test_block_text_lines_br_breaks():
    tree = parse_html("<p>one<br>two</p>")
    assert block_text_lines(tree) == ["one", "two"]
    assert _rendered("<p>one<br>two</p>") == ("<p>one<br>two</p>", "one\ntwo")


class TestSelectors:
    def test_tag_class_id_compound(self):
        tree = parse_html(
            '<div class="n"><td class="a b" id="k">x</td><td class="a">y</td></div>'
        )
        assert len(select(tree, "td.a")) == 2
        assert len(select(tree, "td.a.b")) == 1
        assert len(select(tree, "#k")) == 1
        assert len(select(tree, "td#k.a")) == 1

    def test_descendant_and_child(self):
        tree = parse_html(
            '<div class="outer"><div class="inner"><p>deep</p></div><p>shallow</p></div>'
        )
        assert len(select(tree, "div.outer p")) == 2
        assert len(select(tree, "div.outer > p")) == 1
        assert len(select(tree, "div.inner > p")) == 1

    def test_universal(self):
        tree = parse_html('<div><p class="q">x</p></div>')
        assert len(select(tree, "*.q")) == 1
        assert len(select(tree, "div > *")) == 1

    def test_document_order(self):
        tree = parse_html("<div><td>1</td><td>2</td><td>3</td></div>")
        assert [text_content(e) for e in select(tree, "td")] == ["1", "2", "3"]

    @pytest.mark.parametrize(
        "bad",
        ["td[", "", "  ", "p >", "> p", "p ~ q", "a:hover", "p[x=y]", "p > > q"],
    )
    def test_invalid_selectors_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_selector(bad)

    def test_match_limit_caps_scanning(self):
        html = "<div>" + "<p>x</p>" * 50 + "</div>"
        tree = parse_html(html)
        with _match_limit(10):
            assert len(select(tree, "p")) <= 10


def test_serialize_bare_attribute():
    tree = parse_html("<input disabled>")
    assert serialize(tree) == "<input disabled>"


def test_iter_elements_document_order():
    tree = parse_html("<a><b></b></a><c></c>")
    assert [e.tag for e in tree.iter_elements()] == ["a", "b", "c"]


def test_element_dataclass_direct_construction():
    el = Element(tag="p", attrs={"class": "x"})
    assert serialize(el) == '<p class="x"></p>'


# --- Element index --------------------------------------------------------------

def _reference_select(root, selector, limit):
    """The selector engine as a plain walk: recursive, with a parent map."""
    compiled = parse_selector(selector)
    order = []

    def walk(node, parent):
        for child in node.children:
            if isinstance(child, Element):
                order.append((child, parent))
                walk(child, child)

    walk(root, None)
    order = order[:max(limit, 0)]
    parents = {id(element): parent for element, parent in order}

    def simple_matches(simple, element):
        if simple.tag is not None and element.tag != simple.tag:
            return False
        if simple.ids and element.attrs.get("id") not in simple.ids:
            return False
        return simple.classes <= element.classes()

    def rest_matches(parts, element, combinator):
        if not parts:
            return True
        want = parts[-1][1]
        ancestor = parents.get(id(element))
        if combinator == "child":
            return (ancestor is not None and simple_matches(want, ancestor)
                    and rest_matches(parts[:-1], ancestor, parts[-1][0]))
        while ancestor is not None:
            if simple_matches(want, ancestor) and rest_matches(
                parts[:-1], ancestor, parts[-1][0]
            ):
                return True
            ancestor = parents.get(id(ancestor))
        return False

    combinator, subject = compiled.parts[-1]
    return [
        element for element, _ in order
        if simple_matches(subject, element)
        and rest_matches(compiled.parts[:-1], element, combinator)
    ]


@settings(max_examples=300, deadline=None)
@given(markup(), selectors(), st.one_of(st.integers(0, 12), st.just(10_000)))
def test_select_equals_reference_walk(html, selector, limit):
    tree = parse_html(html)
    with _match_limit(limit):
        got = select(tree, selector)
        # A second call on the same document reuses its index.
        assert [id(e) for e in select(tree, selector)] == [id(e) for e in got]
    want = _reference_select(tree, selector, limit)
    assert [id(e) for e in got] == [id(e) for e in want]


def test_document_index_is_built_once():
    tree = parse_html('<div class="a"><p class="b">x</p></div>')
    index = tree.index
    assert index is not None  # the parse attached it
    select(tree, "p.b")
    select(tree, "div.a > p")
    assert tree.index is index
    assert index.parents == [-1, 0]


def _walked_index(root):
    """The elements of a tree in preorder and their parents' positions, as
    a recursive walk reads them."""
    elements, parents = [], []

    def walk(node, parent):
        for child in node.children:
            if isinstance(child, Element):
                elements.append(child)
                parents.append(parent)
                walk(child, len(elements) - 1)

    walk(root, -1)
    return elements, parents


@settings(max_examples=300, deadline=None)
@given(markup())
def test_the_parse_records_the_index_a_walk_builds(html):
    trees = [parse_html(html), _pruned_tree(html)]
    for tree in filter(None, trees):
        elements, parents = _walked_index(tree)
        recorded = tree.index
        assert [id(e) for e in recorded.elements] == [id(e) for e in elements]
        assert recorded.parents == parents
        assert [id(e) for e in tree.iter_elements()] == [id(e) for e in elements]
        assert recorded.classes == [e.classes() for e in elements]


def test_a_mutated_result_does_not_change_the_next_select():
    tree = parse_html('<div class="a"><p>x</p><p>y</p></div>')
    first = select(tree, "div.a p")
    first.clear()
    first.append(tree.children[0])
    again = select(tree, "div.a p")
    assert [text_content(e) for e in again] == ["x", "y"]
    again.pop()
    assert len(select(tree, "div.a p")) == 2


def test_hostile_selector_on_deep_markup_is_bounded():
    # Every choice of 40 of the 300 div ancestors is a way to fail on "span";
    # each (part, ancestor) state is tried once instead.
    depth = 300
    tree = parse_html("<div>" * depth + "<p>x</p>")
    selector = " ".join(["span"] + ["div"] * 40 + ["p"])
    assert select(tree, selector) == []
    assert len(select(tree, " ".join(["div"] * 40 + ["p"]))) == 1


def test_tree_equality_and_repr_survive_deep_nesting():
    depth = 3000
    tree = parse_html("<div>" * depth)
    assert tree == parse_html("<div>" * depth)
    assert tree != parse_html("<div>" * (depth - 1) + "<p>")
    assert tree != parse_html("<div>" * (depth - 1))
    assert repr(tree) == "Document(children=1)"
    assert repr(tree.children[0]) == "Element(tag='div', attrs={}, children=1)"


def test_tree_equality_compares_tags_attrs_and_text():
    assert parse_html('<p class="a">x</p>') == parse_html('<p class="a">x</p>')
    assert parse_html('<p class="a">x</p>') != parse_html('<p class="b">x</p>')
    assert parse_html("<p>x</p>") != parse_html("<p>y</p>")
    assert Element("p") != TextNode("p")
    assert Document([Element("p")]) != Element("p")
    tree = parse_html("<div><p>x</p></div>")
    select(tree, "p")  # the index built here takes no part in equality
    assert tree == parse_html("<div><p>x</p></div>")


def test_walks_survive_deep_nesting():
    depth = 5000
    html = "<div>" * depth + '<span class="bottom">x</span>' + "</div>" * depth
    tree = parse_html(html)
    assert sum(1 for _ in tree.iter_elements()) == depth + 1
    assert serialize(tree).endswith('<span class="bottom">x</span>' + "</div>" * depth)
    assert _rendered(html) == (html, "x")
    assert text_content(tree) == "x"
    assert block_text_lines(tree) == ["x"]
    assert [e.tag for e in select(tree, "div > span.bottom")] == ["span"]
    assert [e.tag for e in select(tree, "div div .bottom")] == ["span"]


# --- Matching scan ---------------------------------------------------------------

def _selected_nodes(tree, targets):
    """The reference: the node select gives for each (selector, node index)
    target, or None."""
    nodes = []
    for selector, node_index in targets:
        matches = select(tree, selector)
        nodes.append(matches[node_index] if node_index < len(matches) else None)
    return nodes


@settings(max_examples=400, deadline=None)
@given(
    markup(),
    st.lists(st.tuples(selectors(), st.integers(0, 3)), max_size=4),
    st.one_of(st.integers(0, 12), st.just(10_000)),
)
@example("<div class=a>x<p>y</p>z</div>", [("div.a", 0), ("div p", 0), ("*", 1)], 10_000)
@example("<p>a<br>b <!-- c --> c<script>x</script>d<svg>e</svg> f", [("p", 0), ("br", 0)], 10_000)
@example("<ul><li>1<li>2<li/>3</ul>4", [("li", 1), ("ul li", 2), ("ul > li", 0)], 3)
@example("<div><div><p>x</div>y", [("div div", 0), ("div > p", 0), ("div", 0)], 10_000)
def test_the_matching_scan_equals_select_on_the_pruned_tree(html, drawn, limit):
    """One scan that builds no tree gives, for each target, the text of its
    match in the pruned tree, the tree's name signature, and None exactly
    where render_pruned gives None; a MatchSet gives the same again with its
    readings kept. One walk of the tree finds every target's node."""
    targets = [(parse_selector(selector), node_index) for selector, node_index in drawn]
    with _match_limit(limit):
        match_set = MatchSet(targets)
        found = match_pruned(html, match_set)
        tree = _pruned_tree(html)
        if tree is None:
            assert found is None
            return
        texts, signature = found
        nodes = _selected_nodes(tree, targets)
        assert signature == name_signature(tree)
        assert texts == [None if node is None else text_content(node) for node in nodes]
        assert match_pruned(html, match_set) == found
        assert [id(node) for node in select_targets(tree, match_set)] == list(map(id, nodes))


def test_targets_sharing_a_selector_count_its_matches_once():
    html = '<table><tr><td class="v">1</td><td class="v">2 g</td></tr></table>'
    cell = parse_selector("td.v")
    match_set = MatchSet([(cell, 1), (parse_selector("tr > td"), 0), (cell, 1), (cell, 0)])
    texts, _ = match_pruned(html, match_set)
    assert texts == ["2 g", "1", "2 g", "1"]
