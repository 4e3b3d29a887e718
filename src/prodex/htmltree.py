"""Lenient HTML document tree with a small CSS selector engine.

Shop pages are frequently invalid HTML, so parsing recovers from mismatched
and unclosed tags instead of failing. The tree is deliberately small: element
nodes with a tag, an attribute dict and children, plus plain text nodes,
both slots classes. Everything downstream (compression, text projection,
rule interpretation) works on this tree.

One tokenizer pass builds it: a single ``finditer`` scan over a pattern
that matches every token, restarted only where other markup or a script or
style body moves the position. The scan loop itself reads text and plain
start and end tags and builds the elements. It reads markup exactly as the
``html.parser`` of CPython 3.11.7 does when fed a whole page and closed (the
tests keep that parser as the reference), except that it never raises, and
it runs in linear time on hostile markup such as unterminated quotes.
``parse_pruned`` builds the tree compression wants in the same pass: banned
subtrees are tracked but never built, their text is never unescaped, and
only kept attributes are read. Template pages repeat their attribute texts,
so each distinct text is read once into a bounded memo: at most
``ATTRIBUTE_MEMO_SIZE`` entries, and no text longer than
``ATTRIBUTE_MEMO_MAX_TEXT`` characters; every element still owns its
attribute dict. The pass also records each element it builds, its parent,
and its tag and class names, in document order: the document's element
index, the only record of its elements.

Selector support is the subset that survives attribute stripping: type
selectors, ``*``, ``.class``, ``#id``, compounds thereof, and descendant /
child (``>``) combinators. Attribute selectors, pseudo-classes and comma
groups are rejected. Selection runs on the element index the parse
recorded, with its tag and class maps, so ``select`` takes a parsed
document. The index keeps each selector's result, so a repeated ``select``
on a document is a lookup. No walk recurses, so deeply nested markup cannot
exhaust the call stack. That includes ``==`` on trees, and ``repr`` shows a
node's child count instead of its children.

A name signature folds the tag and class names of a document into one
``SIGNATURE_BITS``-wide bit set. A selector needs the bits of its tags and
classes; where one of them is clear, the document has no such name, so the
selector matches nothing there, which a caller can know without the tree.
"""

from __future__ import annotations

import functools
import itertools
import re
import zlib
from dataclasses import dataclass, field
from html import escape, unescape
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


class TextNode:
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __eq__(self, other):
        return self.text == other.text if type(other) is TextNode else NotImplemented

    def __repr__(self) -> str:
        return f"TextNode(text={self.text!r})"


class Element:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[dict[str, Optional[str]]] = None,
                 children: Optional[list[Union["Element", TextNode]]] = None):
        self.tag = tag
        self.attrs = {} if attrs is None else attrs
        self.children = [] if children is None else children

    def __eq__(self, other):
        return _same_tree(self, other) if type(other) is Element else NotImplemented

    def __repr__(self) -> str:
        return f"Element(tag={self.tag!r}, attrs={self.attrs!r}, children={len(self.children)})"

    def classes(self) -> set[str]:
        raw = self.attrs.get("class") or ""
        return set(raw.split())


@dataclass(eq=False, repr=False)
class Document:
    """Root container; its children are the document's top-level nodes.

    ``index`` is the element index its parse recorded, which also keeps each
    selector's result, so a parsed document must not be changed. ``select``,
    ``name_signature`` and ``iter_elements`` read the index, so they need a
    parsed document; a hand-built one has none.
    """

    children: list[Union[Element, TextNode]] = field(default_factory=list)
    index: Optional["ElementIndex"] = None

    def __eq__(self, other):
        return _same_tree(self, other) if type(other) is Document else NotImplemented

    def __repr__(self) -> str:
        return f"Document(children={len(self.children)})"

    def iter_elements(self) -> Iterator[Element]:
        """The document's elements in document order (preorder)."""
        return iter(self.index.elements)


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


# --- tokenizer -------------------------------------------------------------

# Every token of a page: text, a start or end tag that html.parser reads the
# plain way, or any other "<", which _Parser._markup reads. The pattern
# matches at every position, so one finditer scan reads a page from end to end.
_TOKEN = re.compile(r"""
    ([^<]+)                                                 # 1 text
  | <([a-zA-Z][^\t\n\r\f />\x00<]*)                         # 2 start tag name
    ((?:[\t\n\r\f ]+[a-zA-Z_:][-a-zA-Z0-9_:.]*              # 3 attributes
      (?:=(?:"[^"<]*"|'[^'<]*'|[^\s"'=<>][^\s<>]*))?)*)
    [\t\n\r\f ]*(/?)>                                       # 4 "/" of <tag/>
  | </([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>                        # 5 end tag
  | <                                                       # other markup
""", re.VERBOSE)
_ATTRIBUTE = re.compile(r"""([^\s=]+)(?:=("[^"]*"|'[^']*'|\S+))?""")
_RAW_TEXT_END = {tag: re.compile(rf"</\s*{tag}\s*>", re.I) for tag in ("script", "style")}
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)")
_TAG_NAME_END = re.compile(r"[\t\n\r\f />\x00]")
_NAME_END, _VALUE_END = re.compile(r"[\s/=>]"), re.compile(r"[\s>]")
_SEPARATOR = re.compile(r"(?:\s|/(?!>))*")
_EQUALS = re.compile(r"\s*(=+)(\s*)")
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_END = re.compile(r"--\s*>")
_MARKED_SECTION = re.compile(
    r"(temp|cdata|ignore|include|rcdata|if|else|endif)(?![-_.a-zA-Z0-9])", re.I | re.A
)
_MARKED_SECTION_END = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
_LT, _GT = re.compile("<"), re.compile(">")
_QUOTES = {"'": re.compile("'"), '"': re.compile('"')}
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


# The attribute memo: template pages repeat the same attribute texts, so each
# distinct text is read once. Both bounds cap the memory a page can pin.
ATTRIBUTE_MEMO_SIZE = 4096  # entries
ATTRIBUTE_MEMO_MAX_TEXT = 256  # characters; a longer text is read every time
_NO_CLASSES: frozenset[str] = frozenset()


def _read_attributes(source, kept) -> tuple[dict[str, Optional[str]], frozenset[str]]:
    """The attribute dict of a start tag and its class-name set. ``source``:
    a plain tag's attribute text, or (name, raw value) pairs; ``kept``: the
    attribute names to keep, or None for all. The caller must not change the
    dict of a memoised reading (``_memo_attributes``), only a copy of it."""
    plain = isinstance(source, str)
    attrs: dict[str, Optional[str]] = {}
    for name, raw in _ATTRIBUTE.findall(source) if plain else source:
        name = name.lower()
        if name in attrs or (kept is not None and name not in kept):
            continue  # the first of duplicate attributes wins
        if raw and raw[0] == raw[-1] and raw[0] in "'\"":
            raw = raw[1:-1]
        elif plain and not raw:
            raw = None  # a plain tag's value is never empty: "" means none
        attrs[name] = unescape(raw) if raw else raw
    names = attrs.get("class")
    return attrs, frozenset(names.split()) if names else _NO_CLASSES


_memo_attributes = functools.lru_cache(maxsize=ATTRIBUTE_MEMO_SIZE)(_read_attributes)


class _Parser:
    """One pass that reads a page as CPython 3.11's ``html.parser`` does when fed
    the whole page and closed, and builds the tree; with ``kept`` given, the
    pruned tree (see ``parse_pruned``). ``content`` tells whether the
    unpruned tree would hold anything. The pass records each element as it
    builds it, with its parent's position and its tag and class names: the
    tree's element index (see ``ElementIndex``). Searches for a closer
    keep their answer, and a start tag that never closes marks the attribute
    positions it passed, so hostile markup is read in linear time.
    """

    def __init__(self, html: str, banned=frozenset(), kept=None):
        self.html, self.banned, self.kept = html, banned, kept
        self.children: list[Union[Element, TextNode]] = []
        self.index = ElementIndex([], [], [], {}, {})
        # open elements: (tag, children, position), or (tag, None, -1) if not built
        self.stack: list[tuple] = []
        self.open: dict[str, int] = {}  # open elements by tag
        self.content = False
        self.found: dict = {}  # pattern -> (position asked, (start, end) found)
        self.dead: set[int] = set()  # attribute positions of start tags that never close
        self.last_text: Optional[TextNode] = None  # the text node pruned text joins
        self.pieces: list[str] = []
        self._run()
        self._join_text()

    def document(self) -> Document:
        return Document(self.children, self.index)

    def _run(self) -> None:
        """The scan: text and plain start and end tags are read here; other
        markup and script and style bodies move the position, and the scan
        restarts there. A tag that ``_markup`` reads comes back to be built
        or closed here."""
        s, banned, kept, pruned = self.html, self.banned, self.kept, self.kept is not None
        stack, open_, children = self.stack, self.open, self.children
        index = self.index
        elements, parents, classes = index.elements, index.parents, index.classes
        by_tag, by_class = index.by_tag, index.by_class
        markup, add_pruned = self._markup, self._add_pruned
        memo, max_text = _memo_attributes, ATTRIBUTE_MEMO_MAX_TEXT
        pos = 0
        while pos < len(s):
            for m in _TOKEN.finditer(s, pos):
                kind = m.lastindex
                if kind == 1:
                    parent = stack[-1][1] if stack else children
                    if parent is None:
                        continue  # in a subtree that is not built
                    if pruned:
                        data = m[1]
                        if not data.isspace():  # else it folds to nothing
                            add_pruned(parent, unescape(data))
                    else:
                        data = unescape(m[1])
                        if data:
                            parent.append(TextNode(data))
                    continue
                if kind == 5:
                    tag, attrs = m[5].lower(), None
                elif kind is None:
                    pos, odd = markup(m.start())
                    if odd is None:
                        if pos != m.end():
                            break  # the scan restarts where the markup ends
                        continue
                    tag, attrs, closed = odd
                else:
                    tag, attrs, closed = m.group(2, 3, 4)
                    tag = tag.lower()
                if attrs is None:  # an end tag; a stray one is ignored
                    if open_.get(tag) and tag not in VOID_ELEMENTS:
                        while (top := stack.pop()[0]) != tag:
                            open_[top] -= 1
                        open_[tag] -= 1
                else:  # a start tag: add an element, open unless closed
                    closes = IMPLICIT_CLOSE.get(tag)  # a <tag/> too, so a serialized tree parses back
                    while closes and stack and stack[-1][0] in closes:
                        open_[stack.pop()[0]] -= 1
                    if stack:
                        _, parent, above = stack[-1]
                    else:
                        parent, above, self.content = children, -1, True
                    if parent is None or tag in banned:
                        entry = (tag, None, -1)
                    else:
                        if not attrs:
                            attrs, names = {}, _NO_CLASSES
                        elif type(attrs) is str and len(attrs) <= max_text:
                            attrs, names = memo(attrs, kept)
                            attrs = attrs.copy()
                        else:
                            attrs, names = _read_attributes(attrs, kept)
                        element = Element(tag, attrs)
                        parent.append(element)
                        position = len(elements)
                        elements.append(element)
                        parents.append(above)
                        classes.append(names)
                        tagged = by_tag.get(tag)
                        if tagged is None:
                            by_tag[tag] = [position]
                        else:
                            tagged.append(position)
                        for name in names:
                            named = by_class.get(name)
                            if named is None:
                                by_class[name] = [position]
                            else:
                                named.append(position)
                        entry = (tag, element.children, position)
                    if not (closed or tag in VOID_ELEMENTS):
                        stack.append(entry)
                        open_[tag] = open_.get(tag, 0) + 1
                        if tag in _RAW_TEXT_END:
                            pos = self._raw_text(tag, pos if kind is None else m.end())
                            break  # the scan restarts where the script or style body ends
                if kind is None:
                    break  # the scan restarts where the odd tag ends
            else:
                return

    def text(self, data: str) -> None:
        stack = self.stack
        parent = stack[-1][1] if stack else self.children
        if parent is None or not data:
            return
        if self.kept is None:
            parent.append(TextNode(data))
        else:
            self._add_pruned(parent, data)

    def _add_pruned(self, parent: list, data: str) -> None:
        """Add text to a pruned tree: whitespace-folded, and joined to the
        text node before it."""
        data = " ".join(data.split())
        if not data:
            return
        self.content = self.content or parent is self.children
        if parent and parent[-1] is self.last_text:
            self.pieces.append(data)  # joined once the node is complete
        else:
            self._join_text()
            self.last_text, self.pieces = TextNode(data), [data]
            parent.append(self.last_text)

    def _join_text(self) -> None:
        if len(self.pieces) > 1:
            self.last_text.text = "".join(self.pieces)

    # html.parser's reading of any other markup.

    def _markup(self, i: int) -> tuple[int, Optional[tuple]]:
        """Read the markup at the "<" at ``i``; return where reading goes on,
        and a tag the scan must read: (tag, attribute pairs, closed) for a
        start tag, (tag, None, False) for an end tag."""
        s = self.html
        section = s.startswith("<![", i) and _MARKED_SECTION.match(s, i + 3)
        if s[i + 1:i + 2] in _LETTERS:
            k, odd = self._start_tag(i)
            if k >= 0:
                return k, odd
        elif s.startswith("</", i):  # anything but an end tag up to ">" is a comment
            k = self._search(_GT, i + 1)[1]
            m = k >= 0 and (_END_TAG.match(s, i) or _TAG_NAME.match(s, i + 2))
            if m:
                return k, (m.group(1).lower(), None, False)
        elif s.startswith("<!--", i):
            k = self._search(_COMMENT_END, i + 4)[1]
        elif section:
            k = self._search(_MARKED_SECTION_END[section.group(1).lower()], i + 3)[1]
        elif s[i + 1:i + 2] in ("!", "?"):  # a doctype, other declaration or
            k = self._search(_GT, i + 2)[1]  # processing instruction ends at ">"
        else:
            self.text("<")
            return i + 1, None
        if k < 0:  # unterminated: text up to the next ">", or else the next "<"
            k = self._search(_GT, i + 1)[1]
            if k < 0:
                k = self._search(_LT, i + 1)[0]
                k = k if k < len(s) else i + 1
            self.text(unescape(s[i:k]))
        return k, None

    def _start_tag(self, i: int) -> tuple[int, Optional[tuple]]:
        s = self.html
        e = self._search(_TAG_NAME_END, i + 2)[0]
        q = _SEPARATOR.match(s, e).end()
        attrs, passed = [], [q]
        while q not in self.dead and (attribute := self._attribute(q)):
            attrs.append(attribute[:2])
            q = attribute[2]
            passed.append(q)
        after = s[q:q + 1]
        if q in self.dead or after in _LETTERS or after in ("", "="):
            self.dead.update(passed)
            return -1, None
        if after == ">" or s.startswith("/>", q):
            closed = after == "/"
            return q + 1 + closed, (s[i + 1:e].lower(), attrs, closed)
        self.text(s[i:q])  # a tag cut short by a stray character is text
        return q, None

    def _attribute(self, q: int) -> Optional[tuple]:
        """(name, raw value or None, where the next may start) of the
        attribute at ``q``, or None where none can start."""
        s = self.html
        if q >= len(s) or s[q] in "/>" or s[q].isspace() or not (
            s[q - 1] in "'\"/" or s[q - 1].isspace()
        ):
            return None
        e = self._search(_NAME_END, q + 1)[0]
        raw, end = None, e
        eq = _EQUALS.match(s, e)
        if eq:
            w = eq.end()
            value_end = self._value_end(w)
            if value_end < 0 and eq.group(2):  # an unclosed quote after a space:
                w = value_end = w - 1  # the value is empty
            elif value_end < 0 and len(eq.group(1)) > 1:  # after "==": the
                w = eq.end(1) - 1  # value starts at the last "="
                value_end = self._value_end(w)
            if value_end >= 0:
                raw, end = s[w:value_end], value_end
        return s[q:e], raw, _SEPARATOR.match(s, end).end()

    def _value_end(self, w: int) -> int:
        """Where the attribute value at ``w`` ends; -1 for an unclosed quote."""
        quote = self.html[w:w + 1]
        if quote in _QUOTES:
            return self._search(_QUOTES[quote], w + 1)[1]
        return self._search(_VALUE_END, w)[0]

    def _raw_text(self, tag: str, pos: int) -> int:
        """Read a script or style body; if it never ends, neither does the page."""
        start, end = self._search(_RAW_TEXT_END[tag], pos)
        if end < 0:
            return len(self.html)
        if start > pos:
            self.text(self.html[pos:start])
        self.stack.pop()  # the body's element, the innermost open one
        self.open[tag] -= 1
        return end

    def _search(self, pattern: re.Pattern, pos: int) -> tuple[int, int]:
        """(start, end) of the first match of ``pattern`` at or after ``pos``,
        or (len(html), -1). The last answer for a pattern is reused while a
        query lies between where it was asked and where it was found."""
        asked, found = self.found.get(pattern, (len(self.html) + 1, None))
        if asked <= pos <= found[0]:
            return found
        m = pattern.search(self.html, pos)
        found = (m.start(), m.end()) if m else (len(self.html), -1)
        self.found[pattern] = (pos, found)
        return found


def parse_html(html: str) -> Document:
    """Parse HTML into a Document, with its element index, recovering from
    malformed markup."""
    return _Parser(html).document()


def parse_pruned(html: str, banned: frozenset, kept: tuple) -> Optional[Document]:
    """The tree of ``parse_html`` without the elements named in ``banned``
    and their subtrees, with only the ``kept`` attributes, and with each text
    node whitespace-folded and joined to a text node before it; None when
    ``parse_html`` would give an empty tree."""
    parser = _Parser(html, banned, kept)
    return parser.document() if parser.content else None


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
            cleaned = " ".join(item.text.split())
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
    """A document's elements in document order, and the names they carry.

    ``parents[i]`` is the position of element i's parent (-1 for a top-level
    element). Positions are preorder, so an element's ancestors all sit at
    lower positions. ``classes[i]`` is element i's class set, and ``by_tag``
    and ``by_class`` map a tag or a class name to the ascending positions of
    the elements carrying it. The parse records all five as it builds the
    tree; nothing else builds an index. ``selected`` maps (selector source,
    limit) to what ``select`` returned for it. The index refers to elements
    only, never back to itself, so a tree and its index are freed together
    by reference counting.
    """

    __slots__ = ("elements", "parents", "classes", "by_tag", "by_class", "selected")

    def __init__(self, elements: list[Element], parents: list[int],
                 classes: list[frozenset[str]], by_tag: dict[str, list[int]],
                 by_class: dict[str, list[int]]):
        self.elements = elements
        self.parents = parents
        self.classes = classes
        self.by_tag = by_tag
        self.by_class = by_class
        self.selected: dict[tuple[str, int], list[Element]] = {}

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
    root: Document,
    selector: Union[str, CompiledSelector],
    limit: int = 10_000,
) -> list[Element]:
    """All elements of a parsed document matching the selector, in document
    order, capped at limit.

    Only the first ``limit`` elements in document order are considered. The
    selection runs on the index the parse recorded, which keeps the result
    for each selector for later calls. The caller owns the list.
    """
    compiled = parse_selector(selector) if isinstance(selector, str) else selector
    index = root.index
    key = (compiled.source, limit)
    matches = index.selected.get(key)
    if matches is None:
        matches = index.selected[key] = _select(index, compiled, limit)
    return matches[:]


def _select(index: ElementIndex, compiled: CompiledSelector, limit: int) -> list[Element]:
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


# --- name signatures -------------------------------------------------------

SIGNATURE_BITS = 1024


@functools.lru_cache(maxsize=4096)
def _name_bit(name: str) -> int:
    """The signature bit of a tag or class name; crc32, so that it is the
    same in every process."""
    return 1 << (zlib.crc32(name.encode("utf-8")) % SIGNATURE_BITS)


def name_signature(document: Document) -> int:
    """The tag and class names of the document's elements as a bit set,
    read off its element index."""
    index = document.index
    signature = 0
    for name in itertools.chain(index.by_tag, index.by_class):
        signature |= _name_bit(name)
    return signature


def selector_needs(compiled: CompiledSelector) -> int:
    """The signature bits of the tags and classes in the selector. Every
    compound names an element of the document in each match, so on a
    document whose signature lacks one of these bits it matches nothing."""
    needs = 0
    for _, simple in compiled.parts:
        for name in (*simple.classes, simple.tag):
            if name is not None:
                needs |= _name_bit(name)
    return needs
