"""The reference reading of HTML: the stdlib ``html.parser`` tree builder,
the after-the-fact pruning, and the tree walks that write a pruned tree as
compressed HTML and TEXT, which ``prodex.htmltree``'s tokenizer must equal.

``reference_parse`` must equal ``htmltree.parse_html``. For the pruned tree
``reference_prune(reference_parse(html))``,
``htmltree.render_pruned(html)`` must give
its ``serialize`` and its ``block_text_lines`` joined with newlines, and is
None exactly where ``reference_is_empty(reference_parse(html))``. Only tests
import this module, so no runtime path falls back to ``html.parser``.
"""

import re
from html import escape
from html.parser import HTMLParser

from prodex.compress import BANNED_ELEMENTS, KEPT_ATTRIBUTES
from prodex.htmltree import (
    BLOCK_ELEMENTS,
    IMPLICIT_CLOSE,
    VOID_ELEMENTS,
    Document,
    Element,
    TextNode,
    _closable,
)

_WS_RUN = re.compile(r"\s+")


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.document = Document()
        self._stack = []

    def _parent_children(self):
        if self._stack:
            return self._stack[-1].children
        return self.document.children

    def _implicit_close(self, tag):
        if tag in IMPLICIT_CLOSE:
            while self._stack and self._stack[-1].tag in IMPLICIT_CLOSE[tag]:
                self._stack.pop()

    @staticmethod
    def _attrs(attrs):
        attr_dict = {}
        for name, value in attrs:
            if name not in attr_dict:  # keep first occurrence of duplicates
                attr_dict[name] = value
        return attr_dict

    def handle_starttag(self, tag, attrs):
        self._implicit_close(tag)
        element = Element(tag=tag, attrs=self._attrs(attrs))
        self._parent_children().append(element)
        if tag not in VOID_ELEMENTS:
            self._stack.append(element)

    def handle_startendtag(self, tag, attrs):
        # The implicit close applies as to an open tag, so that serializing
        # the tree and parsing it again gives the same tree.
        self._implicit_close(tag)
        self._parent_children().append(Element(tag=tag, attrs=self._attrs(attrs)))

    def handle_endtag(self, tag):
        if tag in VOID_ELEMENTS:
            return
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return
        # Stray end tag: recovered by ignoring it.

    def handle_data(self, data):
        if data:
            self._parent_children().append(TextNode(text=data))


def reference_parse(html):
    """The tree ``html.parser`` gives for a page fed whole and closed."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.document


def reference_is_empty(document):
    """Whether a tree has no top-level element and no top-level text but
    whitespace."""
    return not any(
        isinstance(c, Element) or c.text.strip() for c in document.children
    )


def reference_prune(root, banned=BANNED_ELEMENTS, kept=KEPT_ATTRIBUTES):
    """Remove banned elements, extra attributes and inter-tag whitespace in
    place; text runs left adjacent by a removed element or comment merge."""
    stack = [root]
    while stack:
        node = stack.pop()
        kept_children = []
        for child in node.children:
            if isinstance(child, TextNode):
                cleaned = _WS_RUN.sub(" ", child.text).strip()
                if not cleaned:
                    continue
                if kept_children and isinstance(kept_children[-1], TextNode):
                    kept_children[-1] = TextNode(text=kept_children[-1].text + cleaned)
                else:
                    kept_children.append(TextNode(text=cleaned))
                continue
            if child.tag in banned:
                continue
            child.attrs = {name: value for name, value in child.attrs.items() if name in kept}
            stack.append(child)
            kept_children.append(child)
        node.children = kept_children
    return root


def serialize(node):
    """Serialize a tree back to HTML with no whitespace added between tags.
    An element without children whose end tag would read back as another
    tag's is written self-closed, ``<name .../>``."""
    parts = []
    stack = [node]  # nodes, and closing tags as strings
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, TextNode):
            parts.append(escape(item.text, quote=False))
        elif isinstance(item, Document):
            stack.extend(reversed(item.children))
        else:
            parts.append(f"<{item.tag}")
            for name, value in item.attrs.items():
                if value is None:
                    parts.append(f" {name}")
                else:
                    parts.append(f' {name}="{escape(value)}"')
            if item.tag in VOID_ELEMENTS:
                parts.append(">")
            elif not item.children and not _closable(item.tag):
                parts.append("/>")
            else:
                parts.append(">")
                stack.append(f"</{item.tag}>")
                stack.extend(reversed(item.children))
    return "".join(parts)


_BLOCK_END = object()


def block_text_lines(node):
    """Visible text as lines: block elements separate lines, inline runs
    within a block are joined with single spaces."""
    lines = []
    current = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, TextNode):
            cleaned = " ".join(item.text.split())
            if cleaned:
                current.append(cleaned)
            continue
        if item is _BLOCK_END or (
            isinstance(item, Element) and (item.tag in BLOCK_ELEMENTS or item.tag == "br")
        ):
            if current:
                lines.append(" ".join(current))
                current.clear()
            if item is _BLOCK_END:
                continue
            stack.append(_BLOCK_END)
        stack.extend(reversed(item.children))
    if current:
        lines.append(" ".join(current))
    return lines


def reference_render(html):
    """The compressed HTML and TEXT of a page, read off the reference's
    pruned tree; None where that tree is empty."""
    tree = reference_parse(html)
    if reference_is_empty(tree):
        return None
    pruned = reference_prune(tree)
    return serialize(pruned), "\n".join(block_text_lines(pruned))
