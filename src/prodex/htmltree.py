"""Lenient HTML document tree with a small CSS selector engine.

Shop pages are frequently invalid HTML, so parsing recovers from mismatched
and unclosed tags instead of failing. The tree is deliberately small: element
nodes with a tag, an attribute dict and children, plus plain text nodes.
Everything downstream (compression, text projection, rule interpretation)
works on this tree.

Selector support is the subset that survives attribute stripping: type
selectors, ``*``, ``.class``, ``#id``, compounds thereof, and descendant /
child (``>``) combinators. Attribute selectors, pseudo-classes and comma
groups are rejected. Selection runs on an element index that a document
builds once, in one walk, at its first ``select``; no walk recurses, so
deeply nested markup cannot exhaust the call stack. That includes ``==``
on trees, and ``repr`` shows a node's child count instead of its children.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import escape
from html.parser import HTMLParser
from typing import Iterator, Optional, Union

VOID_ELEMENTS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

# Opening tag X implicitly closes an open tag in IMPLICIT_CLOSE[X].
IMPLICIT_CLOSE = {
    "li": {"li"},
    "p": {"p"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "tr": {"tr", "td", "th"},
    "option": {"option"},
    "dt": {"dt", "dd"},
    "dd": {"dt", "dd"},
}

BLOCK_ELEMENTS = frozenset({
    "address", "article", "aside", "blockquote", "body", "caption", "dd",
    "div", "dl", "dt", "fieldset", "figcaption", "figure", "footer", "form",
    "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "html", "li", "main",
    "nav", "ol", "p", "pre", "section", "table", "tbody", "td", "tfoot",
    "th", "thead", "tr", "ul",
})

_WS_RUN = re.compile(r"\s+")


@dataclass
class TextNode:
    text: str


@dataclass(eq=False, repr=False)
class Element:
    tag: str
    attrs: dict[str, Optional[str]] = field(default_factory=dict)
    children: list[Union["Element", TextNode]] = field(default_factory=list)

    def __eq__(self, other):
        return _same_tree(self, other) if type(other) is Element else NotImplemented

    def __repr__(self) -> str:
        return f"Element(tag={self.tag!r}, attrs={self.attrs!r}, children={len(self.children)})"

    def iter_elements(self) -> Iterator["Element"]:
        """Yield this element and all descendant elements in document order."""
        yield self
        yield from _descendants(self)

    def classes(self) -> set[str]:
        raw = self.attrs.get("class") or ""
        return set(raw.split())


@dataclass(eq=False, repr=False)
class Document:
    """Root container; its children are the document's top-level nodes.

    The first ``select`` builds an element index and keeps it here, so a
    document must not be changed once it has been selected from.
    """

    children: list[Union[Element, TextNode]] = field(default_factory=list)
    index: Optional["ElementIndex"] = field(default=None, init=False)

    def __eq__(self, other):
        return _same_tree(self, other) if type(other) is Document else NotImplemented

    def __repr__(self) -> str:
        return f"Document(children={len(self.children)})"

    def iter_elements(self) -> Iterator[Element]:
        return _descendants(self)

    def is_empty(self) -> bool:
        if any(isinstance(c, Element) for c in self.children):
            return False
        return not any(
            isinstance(c, TextNode) and c.text.strip() for c in self.children
        )


def _same_tree(a: Union[Document, Element], b: Union[Document, Element]) -> bool:
    """Whether two trees have the same tags, attributes and text, compared
    node by node without recursion; a document's index is ignored."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, TextNode):
            if x.text != y.text:
                return False
            continue
        if isinstance(x, Element) and (x.tag != y.tag or x.attrs != y.attrs):
            return False
        if len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def _descendants(node: Union[Document, Element]) -> Iterator[Element]:
    """Elements below ``node`` in document order (preorder), without recursion."""
    stack = [c for c in reversed(node.children) if isinstance(c, Element)]
    while stack:
        element = stack.pop()
        yield element
        stack.extend(c for c in reversed(element.children) if isinstance(c, Element))


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.document = Document()
        self._stack: list[Element] = []

    def _parent_children(self) -> list:
        if self._stack:
            return self._stack[-1].children
        return self.document.children

    def handle_starttag(self, tag, attrs):
        if tag in IMPLICIT_CLOSE:
            while self._stack and self._stack[-1].tag in IMPLICIT_CLOSE[tag]:
                self._stack.pop()
        attr_dict: dict[str, Optional[str]] = {}
        for name, value in attrs:
            if name not in attr_dict:  # keep first occurrence of duplicates
                attr_dict[name] = value
        element = Element(tag=tag, attrs=attr_dict)
        self._parent_children().append(element)
        if tag not in VOID_ELEMENTS:
            self._stack.append(element)

    def handle_startendtag(self, tag, attrs):
        # The implicit close applies as to an open tag, so that serializing
        # the tree and parsing it again gives the same tree.
        if tag in IMPLICIT_CLOSE:
            while self._stack and self._stack[-1].tag in IMPLICIT_CLOSE[tag]:
                self._stack.pop()
        attr_dict: dict[str, Optional[str]] = {}
        for name, value in attrs:
            if name not in attr_dict:
                attr_dict[name] = value
        self._parent_children().append(Element(tag=tag, attrs=attr_dict))

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

    # Comments, doctype and other declarations are dropped on the floor.
    def handle_comment(self, data):
        pass

    def handle_decl(self, decl):
        pass

    def unknown_decl(self, data):
        pass

    def handle_pi(self, data):
        pass


def parse_html(html: str) -> Document:
    """Parse HTML into a Document, recovering from malformed markup."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.document


def serialize(node: Union[Document, Element, TextNode]) -> str:
    """Serialize a tree back to HTML with no whitespace added between tags."""
    parts: list[str] = []
    stack: list = [node]  # nodes, and closing tags as strings
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
            parts.append(">")
            if item.tag not in VOID_ELEMENTS:
                stack.append(f"</{item.tag}>")
                stack.extend(reversed(item.children))
    return "".join(parts)


def text_content(node: Union[Document, Element, TextNode]) -> str:
    """All descendant text joined with single spaces (for rule extraction)."""
    pieces: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, TextNode):
            cleaned = _WS_RUN.sub(" ", item.text).strip()
            if cleaned:
                pieces.append(cleaned)
        else:
            stack.extend(reversed(item.children))
    return " ".join(pieces)


_BLOCK_END = object()


def block_text_lines(node: Union[Document, Element]) -> list[str]:
    """Visible text as lines: block elements separate lines, inline runs
    within a block are joined with single spaces."""
    lines: list[str] = []
    current: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, TextNode):
            cleaned = _WS_RUN.sub(" ", item.text).strip()
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


# --- CSS selector subset -------------------------------------------------

_SIMPLE_TOKEN = re.compile(
    r"(?P<tag>[a-zA-Z][a-zA-Z0-9-]*|\*)|\.(?P<cls>[a-zA-Z0-9_-]+)|#(?P<id>[a-zA-Z0-9_-]+)"
)


@dataclass(frozen=True)
class SimpleSelector:
    tag: Optional[str]  # None means any tag
    classes: frozenset[str]
    ids: frozenset[str]


@dataclass(frozen=True)
class CompiledSelector:
    # (combinator, simple) pairs; the first combinator is always "descendant".
    parts: tuple[tuple[str, SimpleSelector], ...]
    source: str


def parse_selector(selector: str) -> CompiledSelector:
    """Compile a selector string; raises ValueError on unsupported syntax."""
    s = selector.strip()
    if not s:
        raise ValueError("empty selector")
    parts: list[tuple[str, SimpleSelector]] = []
    combinator = "descendant"
    pos = 0
    n = len(s)
    while True:
        simple, pos = _parse_simple(s, pos, selector)
        parts.append((combinator, simple))
        if pos >= n:
            break
        saw_child = False
        while pos < n and (s[pos].isspace() or s[pos] == ">"):
            if s[pos] == ">":
                if saw_child:
                    raise ValueError(f"doubled combinator in {selector!r}")
                saw_child = True
            pos += 1
        if pos >= n:
            raise ValueError(f"dangling combinator in {selector!r}")
        combinator = "child" if saw_child else "descendant"
    return CompiledSelector(parts=tuple(parts), source=selector)


def _parse_simple(s: str, pos: int, full: str) -> tuple[SimpleSelector, int]:
    tag: Optional[str] = None
    classes: set[str] = set()
    ids: set[str] = set()
    matched_any = False
    while pos < len(s) and not s[pos].isspace() and s[pos] != ">":
        m = _SIMPLE_TOKEN.match(s, pos)
        if not m:
            raise ValueError(f"unsupported selector syntax at {s[pos:]!r} in {full!r}")
        if m.group("tag"):
            if matched_any:
                raise ValueError(f"misplaced tag name in {full!r}")
            if m.group("tag") != "*":
                tag = m.group("tag").lower()
        elif m.group("cls"):
            classes.add(m.group("cls"))
        elif m.group("id"):
            ids.add(m.group("id"))
        matched_any = True
        pos = m.end()
    if not matched_any:
        raise ValueError(f"empty simple selector in {full!r}")
    return SimpleSelector(tag=tag, classes=frozenset(classes), ids=frozenset(ids)), pos


class ElementIndex:
    """The elements below a root in document order, built in one walk.

    ``parents[i]`` is the position of element i's parent (-1 for a child of
    the root); ``by_tag`` and ``by_class`` map a tag or a class name to the
    ascending positions of the elements carrying it. Positions are preorder,
    so an element's ancestors all sit at lower positions. The index refers to
    elements only, never back to itself, so a tree and its index are freed
    together by reference counting.
    """

    __slots__ = ("elements", "parents", "classes", "by_tag", "by_class")

    def __init__(self, root: Union[Document, Element]):
        self.elements: list[Element] = []
        self.parents: list[int] = []
        self.classes: list[set[str]] = []
        self.by_tag: dict[str, list[int]] = {}
        self.by_class: dict[str, list[int]] = {}
        stack = [(c, -1) for c in reversed(root.children) if isinstance(c, Element)]
        while stack:
            element, parent = stack.pop()
            position = len(self.elements)
            self.elements.append(element)
            self.parents.append(parent)
            self.by_tag.setdefault(element.tag, []).append(position)
            classes = element.classes()
            self.classes.append(classes)
            for name in classes:
                self.by_class.setdefault(name, []).append(position)
            stack.extend(
                (c, position) for c in reversed(element.children) if isinstance(c, Element)
            )

    def candidates(self, simple: SimpleSelector):
        """Ascending positions that may match ``simple``: a superset of its matches."""
        if simple.classes:
            return min((self.by_class.get(name, ()) for name in simple.classes), key=len)
        if simple.tag is not None:
            return self.by_tag.get(simple.tag, ())
        return range(len(self.elements))

    def matches(self, simple: SimpleSelector, position: int) -> bool:
        element = self.elements[position]
        if simple.tag is not None and element.tag != simple.tag:
            return False
        if simple.ids and element.attrs.get("id") not in simple.ids:
            return False
        return simple.classes <= self.classes[position]

    def ancestors_match(self, parts, position: int) -> bool:
        """Whether ``parts[:-1]`` match above ``position``, where ``parts[-1]``
        matched.

        A depth-first search over states, nearest ancestor first. A state is
        (k, p, False): parts[k] matched at p; or (k, p, True): parts[k - 1]
        may match at p or above it. Failed states are not explored twice, so
        the work is bounded by parts x depth even on hostile selectors.
        """
        parents = self.parents
        stack = [(len(parts) - 1, position, False)]
        seen = set()
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            k, p, scanning = state
            if scanning:
                if p >= 0:
                    stack.append((k, parents[p], True))
                    if self.matches(parts[k - 1][1], p):
                        stack.append((k - 1, p, False))
                continue
            if k == 0:
                return True
            above = parents[p]
            if parts[k][0] == "descendant":
                stack.append((k, above, True))
            elif above >= 0 and self.matches(parts[k - 1][1], above):
                stack.append((k - 1, above, False))
        return False


def select(
    root: Union[Document, Element],
    selector: Union[str, CompiledSelector],
    limit: int = 10_000,
) -> list[Element]:
    """All elements matching the selector, in document order, capped at limit.

    Only the first ``limit`` elements below ``root`` in document order are
    considered. The root itself is never a match nor an ancestor in a match.
    A Document keeps its index for later calls; an Element root is indexed
    on each call.
    """
    compiled = parse_selector(selector) if isinstance(selector, str) else selector
    if isinstance(root, Document):
        if root.index is None:
            root.index = ElementIndex(root)
        index = root.index
    else:
        index = ElementIndex(root)
    parts = compiled.parts
    subject = parts[-1][1]
    matches: list[Element] = []
    for position in index.candidates(subject):
        if position >= limit:
            break
        if index.matches(subject, position) and (
            len(parts) == 1 or index.ancestors_match(parts, position)
        ):
            matches.append(index.elements[position])
    return matches
