"""Lenient HTML document tree with a small CSS selector engine, and a scan
that renders and matches the pruned page without building a tree.

Shop pages are frequently invalid HTML, so parsing recovers from mismatched
and unclosed tags instead of failing. The tree is deliberately small: element
nodes with a tag, an attribute dict and children, plus plain text nodes,
both slots classes. Program synthesis runs candidate programs on this tree.

One tokenizer pass reads a page: a single ``finditer`` scan over a pattern
that matches every token, restarted only where other markup or a script or
style body moves the position. It reads markup exactly as the
``html.parser`` of CPython 3.11.7 does when fed a whole page and closed (the
tests keep that parser as the reference), except that it never raises, and
it runs in linear time on hostile markup such as unterminated quotes.
``parse_html`` builds the tree and records its element index. Every page
is pruned under one policy, defined here: the pruned page drops the
``BANNED_ELEMENTS`` subtrees, whose text is never unescaped, keeps only the
``KEPT_ATTRIBUTES``, and folds its text under one whitespace rule
(``_Parser._add_pruned``); ``render_pruned`` writes it as compressed HTML
and TEXT and ``match_pruned`` matches selectors in it, as the open elements
open and close, and neither builds anything.

Template pages repeat their markup, so the pruned scans read it once per
process, into bounded memos keyed on exact text: each distinct plain start
tag once per pruned mode (``_rendering``, ``MatchSet.reading``; see
``_remember``), and the skeleton the pages of a template share, their
markup but for texts, script and style bodies and attribute values other
than ``class``, once (``_Skeletons``). The tree reads every start tag
afresh. No memo changes what a scan gives.

Selector support is the subset that survives attribute stripping: type
selectors, ``*``, ``.class``, ``#id``, compounds thereof, and descendant /
child (``>``) combinators. Attribute selectors, pseudo-classes and comma
groups are rejected. Selectors run as one automaton over the open elements
(``MatchSet``), in the matching scan and in ``select`` over a parsed
document's element index, and match only among a page's first
``MATCH_LIMIT`` elements in document order. No walk recurses, so deeply
nested markup cannot exhaust the call stack. That includes ``==`` on
trees, and ``repr`` shows a node's child count instead of its children.

A name signature folds the tag and class names of a document into one
``SIGNATURE_BITS``-wide bit set; the matching scan gives it for the pruned
page too. A selector needs the bits of its tags and classes; where one of
them is clear, the document has no such name, so the selector matches
nothing there, which a caller can know without the tree.
"""

from __future__ import annotations

import collections
import functools
import itertools
import re
import threading
import zlib
from dataclasses import dataclass, field
from html import escape, unescape
from typing import Iterator, NamedTuple, Optional, Sequence, Union

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

# The pruning policy: the elements a pruned page drops with their subtrees,
# and the attributes it keeps.
BANNED_ELEMENTS = frozenset({
    "head", "footer", "header", "script", "iframe", "path", "style",
    "symbol", "noscript", "svg", "g", "use", "option",
})
KEPT_ATTRIBUTES = ("class", "id")
# A selector matches only among a page's first MATCH_LIMIT elements in
# document order.
MATCH_LIMIT = 10_000


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

    ``index`` is the element index its parse recorded, so a parsed document
    must not be changed. ``select``, ``name_signature`` and ``iter_elements``
    read the index, so they need a parsed document; a hand-built one has
    none.
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


# The start-tag memos: template pages repeat the same start tags, so each
# distinct plain start-tag text is read once per process and per pruned mode
# (see _rendering, MatchSet.reading). Both bounds cap the memory pages can pin.
ATTRIBUTE_MEMO_SIZE = 4096  # entries
ATTRIBUTE_MEMO_MAX_TEXT = 256  # characters; a longer start tag is read every time
_NO_CLASSES: frozenset[str] = frozenset()


def _read_attributes(source, kept) -> tuple[dict[str, Optional[str]], frozenset[str]]:
    """The attribute dict of a start tag and its class-name set. ``source``:
    a plain tag's attribute text, or (name, raw value) pairs; ``kept``: the
    attribute names to keep, or None for all."""
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


def _read_start_tag(source, kept=None) -> tuple:
    """What the scan needs of a start tag: (lowered tag, the tags it closes
    implicitly or None, whether it opens, whether a raw-text body follows,
    attribute dict, class-name set), with only the ``kept`` attributes (all
    where None), read afresh. ``source``: the match of a plain start tag,
    or a tag ``_markup`` read, (tag, attribute pairs, closed)."""
    if type(source) is tuple:
        tag, attrs, closed = source
    else:
        tag, attrs, closed = source.group(2, 3, 4)
        tag = tag.lower()
    attributes, names = _read_attributes(attrs, kept) if attrs else ({}, _NO_CLASSES)
    opens = not (closed or tag in VOID_ELEMENTS)
    # a <tag/> closes implicitly too, so a serialized tree parses back
    return (tag, IMPLICIT_CLOSE.get(tag), opens, opens and tag in _RAW_TEXT_END,
            attributes, names)


def _remember(memo: dict, source, reading: tuple) -> None:
    """Keep ``reading`` in a start-tag memo under the text of ``source``,
    if that is a plain start tag no longer than ``ATTRIBUTE_MEMO_MAX_TEXT``.
    A full memo (an ``OrderedDict``) first drops its oldest entry, in
    constant time, so tags a page alone holds cannot crowd out a later
    template's."""
    if type(source) is tuple or len(source[0]) > ATTRIBUTE_MEMO_MAX_TEXT:
        return
    if len(memo) >= ATTRIBUTE_MEMO_SIZE:
        try:
            memo.popitem(last=False)
        except KeyError:  # empty, or emptied by another thread
            return
    memo[source[0]] = reading


# plain start-tag text -> its rendering (see _rendering)
_renderings: dict[str, tuple] = collections.OrderedDict()


def _rendering(source, remember: bool = True) -> tuple:
    """``_read_start_tag`` of a start tag, with its attribute dict and class
    names replaced by what the rendering scan writes of the element: its
    start tag, whole where the element does not open; and (its end tag,
    whether that is held back, whether the element breaks a TEXT line), see
    ``_Parser._render``. Kept under the text of a plain start tag (see
    ``_remember``); without ``remember``, kept in no memo."""
    tag, closes, opens, raw, attributes, _ = _read_start_tag(source, KEPT_ATTRIBUTES)
    start = "<" + tag + "".join(
        f" {name}" if value is None else f' {name}="{escape(value)}"'
        for name, value in attributes.items()
    )
    end, closable = f"</{tag}>", _closable(tag)
    if tag in VOID_ELEMENTS:
        start += ">"
    elif not opens:
        start += ">" + end if closable else "/>"
    elif closable:
        start += ">"
    reading = (tag, closes, opens, raw, start,
               (end, opens and not closable, tag in BLOCK_ELEMENTS or tag == "br"))
    if remember:
        _remember(_renderings, source, reading)
    return reading


@functools.lru_cache(maxsize=256)
def _closable(tag: str) -> bool:
    """Whether ``</tag>`` reads back as the end tag of ``tag``. It may not:
    ``\\s`` in the end tag pattern also matches characters that a start tag
    name may hold, such as U+00A0."""
    end = f"</{tag}>"
    return (_END_TAG.match(end) or _TAG_NAME.match(end, 2)).group(1).lower() == tag


class _Parser:
    """One pass that reads a page as CPython 3.11's ``html.parser`` does when fed
    the whole page and closed. Unless ``pruned`` it builds the tree, and
    records each element as it builds it, with its parent's position and its
    class names: the tree's element index (see ``ElementIndex``). When
    ``pruned`` it reads the pruned page and builds nothing: it writes the
    page as compressed HTML and TEXT lines (see ``render_pruned``), or, with
    ``targets`` given too, it gives the text of each target's match and the
    page's name signature (see ``match_pruned``). ``readings``, where given,
    maps plain start-tag texts to their readings ahead of the mode's memo
    (see ``_Skeletons``). ``content`` tells whether the
    unpruned tree would hold anything. Searches for a closer
    keep their answer, and a start tag that never closes marks the
    attribute positions it passed, so hostile markup is read in linear time.
    """

    def __init__(self, html: str, pruned: bool = False,
                 targets: Optional["MatchSet"] = None,
                 readings: Optional[dict[str, tuple]] = None):
        self.html, self.pruned, self.targets = html, pruned, targets
        self.children: list[Union[Element, TextNode]] = []
        self.index = None if pruned else ElementIndex([], [], [])
        # open elements: (tag, children, position) when building, (tag, True,
        # position) when rendering, (tag, pre, position, base) when matching
        # (see MatchSet), or (tag, None, -1) if not built
        self.stack: list[tuple] = []
        self.open: dict[str, int] = collections.defaultdict(int)  # open elements by tag
        self.content = False
        self.found: dict = {}  # pattern -> (position asked, (start, end) found)
        self.dead: set[int] = set()  # attribute positions of start tags that never close
        self.count = 0  # elements built, rendered or matched, as of the last markup read
        self.text_at: Optional[tuple[int, int]] = None  # see _add_pruned
        self.pieces: list[str] = []  # the pruned text runs of the text node being read
        # completed text nodes: since the outermost collector began when
        # matching, of the current line when rendering
        self.texts: list[str] = []
        self.out: Optional[list[str]] = None
        if targets is not None:
            self.counts = [0] * len(targets.wanted)  # matches per selector
            self.collectors: list[tuple[int, int, list[int]]] = []  # see _hit
            self.results: list[Optional[str]] = [None] * len(targets.targets)
        elif pruned:
            self.out = []  # the compressed HTML, in pieces
            self.lines: list[str] = []  # the TEXT lines completed
            self.renders: list[tuple[int, str, bool]] = []  # see _render
            self.bare = False  # whether the last start tag written still lacks its ">"
        self.signature = 0
        self._run(readings)
        self._join_text()

    def _run(self, readings: Optional[dict[str, tuple]]) -> None:
        """The scan: text and plain start and end tags are read here; other
        markup and script and style bodies move the position, and the scan
        restarts there. A tag that ``_markup`` reads comes back to be built,
        rendered or matched, or closed, here."""
        s, pruned = self.html, self.pruned
        banned = BANNED_ELEMENTS if pruned else ()
        stack, open_, targets = self.stack, self.open, self.targets
        matching = targets is not None
        if matching:
            tags, read, descend = targets.readings, targets.reading, targets.descend
            root, limit = targets.first, MATCH_LIMIT
            add_pruned, close = self._add_pruned, self._close
        elif pruned:
            tags, read = _renderings, _rendering
            root, render = True, self._render
            add_pruned, close = self._add_rendered, self._end
        else:  # no text is pruned, no element is watched and no reading is kept
            tags, read = {}, _read_start_tag
            root, index = self.children, self.index
            elements, parents, classes = index.elements, index.parents, index.classes
            add_pruned = close = None
        # the placeholders first, then the live memo, which the scan's own readings join
        known = collections.ChainMap(readings, tags).get if readings else tags.get
        markup = self._markup
        # watch: the depth of the innermost element whose text is collected,
        # or that is rendered, or -1
        count, watch, signature, pos = 0, -1, 0, 0
        while pos < len(s):
            for m in _TOKEN.finditer(s, pos):
                kind = m.lastindex
                if kind == 1:
                    if stack:
                        if matching and watch < 0:
                            continue  # text no match reads
                        top = stack[-1]
                        if top[1] is None:
                            continue  # in a subtree not built
                        parent, above = top[1], top[2]
                    else:
                        parent, above = root, -1
                    if pruned:
                        data = m[1]
                        if not data.isspace():  # else it folds to nothing
                            add_pruned(above, count, unescape(data))
                    else:
                        data = unescape(m[1])
                        if data:
                            parent.append(TextNode(data))
                    continue
                if kind == 4:
                    start = known(m[0]) or read(m)
                elif kind == 5:
                    tag, start = m[5].lower(), None
                else:
                    self.count = count
                    pos, odd = markup(m.start())
                    if odd is None:
                        if pos != m.end():
                            break  # the scan restarts where the markup ends
                        continue
                    tag, attrs, _ = odd
                    start = None if attrs is None else read(odd)
                if start is None:  # an end tag; a stray one is ignored
                    if stack and stack[-1][0] == tag:  # the innermost element's
                        stack.pop()
                        open_[tag] -= 1
                    elif open_.get(tag) and tag not in VOID_ELEMENTS:
                        while (top := stack.pop()[0]) != tag:
                            open_[top] -= 1
                        open_[tag] -= 1
                    if len(stack) <= watch:
                        watch = close(len(stack))
                else:  # a start tag: add, render or match an element, open unless closed
                    tag, closes, opens, raw, first, second = start
                    if closes:
                        while stack and stack[-1][0] in closes:
                            open_[stack.pop()[0]] -= 1
                        if len(stack) <= watch:
                            watch = close(len(stack))
                    if stack:
                        top = stack[-1]
                        parent = top[1]
                    else:
                        top, parent, self.content = None, root, True
                    if parent is None or tag in banned:  # in or atop a subtree not built
                        entry = (tag, None, -1)
                    elif matching:  # parent is the parent's pre; first: signature
                        signature |= first  # bits, second: eligible states
                        base = top[3] if top else root
                        if second & parent and count < limit:
                            parent, base, hit = descend(parent, base, second)
                            if hit:
                                watch = self._hit(hit, len(stack), opens)
                        else:
                            parent = base
                        entry = (tag, parent, count, base)
                        count += 1
                    elif pruned:  # first: the start tag's markup, second: its close
                        watch = render(first, second, len(stack), opens)
                        entry = (tag, True, count)
                        count += 1
                    else:  # first: the attribute dict, second: the class names
                        element = Element(tag, first)
                        parent.append(element)
                        elements.append(element)
                        parents.append(top[2] if top else -1)
                        classes.append(second)
                        entry = (tag, element.children, count)
                        count += 1
                    if opens:
                        stack.append(entry)
                        open_[tag] += 1
                        if raw:
                            self.count = count
                            pos = self._raw_text(tag, pos if kind is None else m.end())
                            if len(stack) <= watch:
                                watch = close(len(stack))
                            break  # the scan restarts where the script or style body ends
                if kind is None:
                    break  # the scan restarts where the odd tag ends
            else:
                break
        self.signature = signature
        if watch >= 0:
            close(0)  # elements the page never closes

    def text(self, data: str) -> None:
        stack = self.stack
        if not data or (stack and stack[-1][1] is None):
            return  # nothing, or in a subtree not built
        if not self.pruned:
            (stack[-1][1] if stack else self.children).append(TextNode(data))
        else:
            add = self._add_pruned if self.out is None else self._add_rendered
            add(stack[-1][2] if stack else -1, self.count, data)

    def _add_pruned(self, above: int, count: int, data: str) -> str:
        """The pruned whitespace rule, for rendering and matching alike.
        Text is folded: each whitespace run becomes one space, and none is
        left at either end. Text with no kept element started or ended since
        the text before it joins that text without a space; other text starts
        a new text node (in the children of the element at position
        ``above``, -1 for the top level). Text nodes are joined with one
        space (``text_content``, ``_close``, ``_break``). A matching scan
        skips most text that no collector reads before it gets here, and a
        collector ignores the nodes completed before it began. Returns the
        folded text."""
        data = " ".join(data.split())
        if not data:
            return data
        if above < 0:
            self.content = True
        at = (above, count)
        if at == self.text_at:
            self.pieces.append(data)  # joined once the node is complete
            return data
        self._join_text()
        self.text_at, self.pieces = at, [data]
        return data

    def _add_rendered(self, above: int, count: int, data: str) -> None:
        """``_add_pruned``, and the folded text written as HTML."""
        data = self._add_pruned(above, count, data)
        if data:
            if self.bare:
                self.out.append(">")  # the first child of the innermost element
                self.bare = False
            self.out.append(escape(data, quote=False))

    def _join_text(self) -> None:
        """Complete the text node being read."""
        if self.pieces:
            self.texts.append("".join(self.pieces))
            self.pieces = []

    def _render(self, start: str, close: tuple[str, bool, bool], depth: int,
                opens: bool) -> int:
        """Write a kept element's start tag, ``depth`` deep; ``close`` is
        its end tag, whether that is held back, and whether the element
        breaks a TEXT line. An element that opens is closed by ``_end``;
        another is written whole. An end tag is held back where it would
        not read back as this element's (``_closable``): the start tag's
        ">" waits for a first child, and a childless element is written
        self-closed. Returns the depth of the innermost element rendered."""
        end, bare, block = close
        out, renders = self.out, self.renders
        if self.bare:
            out.append(">")  # the first child of the innermost element
        if block:
            self._break()
        out.append(start)
        self.bare = bare
        if opens:
            renders.append((depth, end, block))
        return renders[-1][0] if renders else -1

    def _break(self) -> None:
        """Complete the current TEXT line, if it holds any text."""
        self._join_text()
        if self.texts:
            self.lines.append(" ".join(self.texts))
            self.texts.clear()

    def _hit(self, hit: int, depth: int, opens: bool) -> int:
        """Count a match of each selector whose last state is in ``hit``, at
        an element ``depth`` deep. Where a target wants this match, a
        collector of the element's text begins, or the text is "" if the
        element is not opened. Returns the depth of the innermost collector,
        or -1."""
        slots = self.targets.count(hit, self.counts)
        collectors = self.collectors
        if slots:
            if opens:
                self._join_text()
                collectors.append((depth, len(self.texts), slots))
            else:
                for slot in slots:
                    self.results[slot] = ""
        return collectors[-1][0] if collectors else -1

    def _close(self, depth: int) -> int:
        """Complete the collectors of elements ``depth`` or more deep, which
        have closed; returns the depth of the innermost collector left, or -1."""
        self._join_text()
        collectors, texts, results = self.collectors, self.texts, self.results
        while collectors and collectors[-1][0] >= depth:
            _, first, slots = collectors.pop()
            text = " ".join(texts[first:])
            for slot in slots:
                results[slot] = text
        if collectors:
            return collectors[-1][0]
        texts.clear()
        return -1

    def _end(self, depth: int) -> int:
        """Write the end tags of rendered elements ``depth`` or more deep,
        which have closed; returns the depth of the innermost rendered
        element left, or -1."""
        out, renders = self.out, self.renders
        while renders and renders[-1][0] >= depth:
            _, end, block = renders.pop()
            out.append("/>" if self.bare else end)
            self.bare = False
            if block:
                self._break()
        return renders[-1][0] if renders else -1

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
    parser = _Parser(html)
    return Document(parser.children, parser.index)


def render_pruned(html: str) -> Optional[tuple[str, str]]:
    """The tree of ``parse_html`` without the ``BANNED_ELEMENTS`` and their
    subtrees, with only the ``KEPT_ATTRIBUTES``, and with its text
    under the pruned whitespace rule (``_Parser._add_pruned``), written in
    one scan that builds no tree: as HTML with no whitespace added between
    tags, which ``parse_html`` reads back as that tree, and as TEXT, one
    line per run of text between the starts and ends of block elements and
    ``br``, text nodes joined with single spaces. None when ``parse_html``
    would give an empty tree. A page that walks a recorded skeleton is
    written from its recipe instead, and a page scanned may be recorded
    (``_Skeletons``)."""
    if (found := _skeletons.lookup(html)) is not None:
        return found
    parser = _Parser(html, pruned=True)
    if not parser.content:
        return None
    _skeletons.record(html)
    parser._break()
    return "".join(parser.out), "\n".join(parser.lines)


def match_pruned(html: str, targets: "MatchSet") -> Optional[tuple[list[Optional[str]], int]]:
    """What ``targets`` select in the pruned tree ``render_pruned`` writes,
    read in one scan that builds no tree: for each (selector, node index)
    target, the ``text_content`` of ``select(tree, selector)[node index]``,
    or None where there is no such match; and the tree's
    ``name_signature``. None where ``render_pruned`` gives None. A page that
    walks a recorded skeleton is read from its recipe instead, and a page
    scanned may be recorded (``_Skeletons``)."""
    if (found := _skeletons.lookup(html, targets)) is not None:
        return found
    parser = _Parser(html, pruned=True, targets=targets)
    if not parser.content:
        return None
    _skeletons.record(html)
    return parser.results, parser.signature


# The skeleton memo's bound (see _Skeletons): characters of steps recorded and of pages refused
SKELETON_MEMO_CHARS = 1 << 20
# A hole's marker, one per hole: a private use character, of plane 15 for a
# text hole and of plane 16 for a tag hole. A recorded page holds none.
_MARKER, _TAG_MARKER, _MARKERS = 0xF0000, 0x100000, 0xFFFFE - 0xF0000
_MARKED = re.compile("([\U000F0000-\U0010FFFF])")
_TEXT, _RAW, _TAG = 1, 2, 3  # the holes of a skeleton


def _steps(items: list) -> tuple:
    """A page's literal texts and (hole kind, value) pairs as steps: per
    text or raw hole and for the page's end, (the text before it, tag holes
    as recorded; None or its (literal, tag hole number, recorded text)
    parts, the last with None for both; hole kind; hole value)."""
    steps, parts, whole, literal, numbers = [], [], [], [], itertools.count()
    for item in (*items, (None, None)):
        if type(item) is str:
            literal.append(item)
            whole.append(item)
        elif item[0] == _TAG:
            parts.append(("".join(literal), next(numbers), item[1]))
            whole.append(item[1])
            literal = []
        else:
            parts.append(("".join(literal), None, None))
            steps.append(("".join(whole), tuple(parts) if len(parts) > 1 else None, *item))
            parts, whole, literal = [], [], []
    return tuple(steps)


class _Skeleton:
    """A recorded page as steps of literal runs and holes (``_steps``): a
    text hole (``_TEXT``) is a non-whitespace text run there, and any run
    without a "<" on another page; a raw hole (``_RAW``, its value the tag)
    a script or style body through its end tag; a tag hole (``_TAG``) a
    plain start tag with an attribute other than ``class`` or a "&" in its
    attributes. ``rendering``: its rendering recipe, once made."""

    __slots__ = ("steps", "rendering")

    def __init__(self, steps: tuple):
        self.steps, self.rendering = steps, None

    def marked(self) -> tuple[str, list[tuple[str, re.Match]]]:
        """The recorded page with each text hole replaced by its own marker,
        each script or style body emptied, and tag hole k by the placeholder
        ``<name hk>``, closed as recorded; and (placeholder, recorded start
        tag's match) of each tag hole."""
        pieces, holes, texts = [], [], itertools.count(_MARKER)
        for whole, parts, kind, value in self.steps:
            for literal, number, text in parts or ((whole, None, None),):
                pieces.append(literal)
                if number is not None:
                    tag = _TOKEN.match(text)
                    holes.append((f"<{tag[2]} h{number}{tag[4]}>", tag))
                    pieces.append(holes[-1][0])
            if kind == _TEXT:
                pieces.append(chr(next(texts)))
            elif kind == _RAW:
                pieces.append(f"</{value}>")
        return "".join(pieces), holes


def _walk_tags(html: str, pos: int, parts: tuple, tags: list) -> int:
    """Walk a step's parts from ``pos``, adding (number, match) of each tag
    hole that differs from the recorded text to ``tags``; where it ends, or
    -1."""
    for literal, number, text in parts:
        if not html.startswith(literal, pos):
            return -1
        pos += len(literal)
        if number is None:
            break
        if html.startswith(text, pos):
            pos += len(text)
            continue
        tag = _TOKEN.match(html, pos)
        if tag is None or tag.lastindex != 4:  # the page's end, or not a plain start tag
            return -1
        tags.append((number, tag))
        pos = tag.end()
    return pos


def _shape(step: tuple) -> tuple:
    """A step as a walk reads it, its tag holes read for tag and class only:
    other attribute values vary between a template's pages, and a walk passes them."""
    whole, parts, kind, value = step
    return kind, value, whole if parts is None else [
        (literal, text and _read_start_tag(_TOKEN.match(text), ("class",)))
        for literal, _, text in parts]


def _record(html: str) -> Optional[tuple]:
    """The steps of a page's skeleton (``_steps``), or None where the page
    holds no start tag, a marker, more holes than there are markers, or a
    token other than text, a plain start or end tag, a script or style body
    closed by its end tag whose element is in ``BANNED_ELEMENTS``, a
    comment closed by ``--\\s*>``, or a ``<!`` or ``<?`` declaration closed
    by ">" (not ``<![``). The tokens are read as ``_Parser._run`` reads
    them."""
    if _MARKED.search(html):
        return None
    items, starts, pos = [], False, 0
    while pos < len(html):
        for m in _TOKEN.finditer(html, pos):
            kind, token = m.lastindex, m[0]
            if kind == 1 and not token.isspace():
                items.append((_TEXT, None))
                continue
            if kind == 1 or kind == 5:
                items.append(token)
                continue
            if kind == 4:
                starts, tag, attrs = True, m[2].lower(), m[3]
                # a character reference in a literal could render as a marker
                plain = "&" not in attrs and all(
                    name.lower() == "class" for name, _ in _ATTRIBUTE.findall(attrs))
                items.append(token if plain else (_TAG, token))
                if m[4] or tag not in _RAW_TEXT_END:
                    continue
                end = _RAW_TEXT_END[tag].search(html, m.end())
                if tag not in BANNED_ELEMENTS or end is None:
                    return None
                items.append((_RAW, tag))
            else:  # other markup: only a closed comment or declaration is taken
                i = m.start()
                if html.startswith("<!--", i):
                    end = _COMMENT_END.search(html, i + 4)
                elif html.startswith(("<!", "<?"), i) and not html.startswith("<![", i):
                    end = _GT.search(html, i + 2)
                else:
                    return None
                if end is None:
                    return None
                items.append(html[i:end.end()])
            pos = end.end()
            break  # the scan restarts where the body or the markup ends
        else:
            break
    if not starts or sum(type(item) is tuple for item in items) > _MARKERS:
        return None
    return _steps(items)


class _Skeletons:
    """The skeleton memo: the skeletons of pages recorded (``_Skeleton``),
    in one prefix trie of their steps, and their recipes, all read under the
    one pruning policy.

    A page is recorded only after a scan read it in full, and only where
    each of its tokens is one ``_record`` takes. Pages that walk a
    skeleton tokenize alike: each token of a literal reads no character
    past its own end, a text hole runs to the next "<" as a text token
    does, a raw hole ends at the first end tag as ``_Parser._raw_text``
    reads it, and a tag hole is verified to be a plain start tag that reads
    as the recorded one, but for the start tag the rendering writes. So a
    scan opens and closes the same elements, collects and writes text from
    the same holes and signs the same names. A text hole's text enters only
    through ``_Parser._add_pruned``, unescaped and folded, and a script or
    style body of a banned element never does. Hence the recipes, each one
    scan of the marked page (``_Skeleton.marked``) with each placeholder
    read as its tag hole (see ``render`` and ``match``). On another page a
    hole folded to nothing adds no piece, a node of none no node and a line
    of none no line, and a tag hole writes its own start tag. No literal
    renders a marker: a recorded page holds none, and a start tag with a
    "&" in its attributes is a tag hole. A text hole can change whether a
    first child comes, so a skeleton whose scan held a start tag's ">"
    back has no rendering recipe. Every skeleton holds a start tag, so the
    page has content.

    A trie node is (a step, the nodes after it), or (the page's end, the
    skeleton ending there). Skeletons share their leading steps of one
    ``_shape``; a shared tag hole reads as first recorded in each skeleton
    below it. A lookup walks the page down the trie once, trying each node
    at a branch and backing up to it where a later step fails, so no node
    is tried twice: a miss costs one walk to where the page leaves every
    skeleton. ``chars`` counts the characters of the steps each recording
    adds and of each page ``_record`` refuses, within
    ``SKELETON_MEMO_CHARS``; none is dropped. A page whose skeleton the
    trie already holds is charged nothing, so pages that walk a skeleton
    and still are scanned (a recipe refuses them, the skeleton has no
    rendering recipe, or another thread recorded it first) leave room for
    the skeletons of later templates.
    """

    def __init__(self):
        self.first, self.chars = [], 0  # the trie's first nodes; chars: see above
        self.lock = threading.Lock()  # direct extraction renders on worker threads

    def lookup(self, html: str, targets: Optional["MatchSet"] = None) -> Optional[tuple]:
        """``render_pruned``, or with ``targets`` ``match_pruned``, of a page
        that walks a recorded skeleton whose recipe it meets, from that
        recipe; None where it walks none."""
        runs, tags, end = [], [], len(html)
        startswith, find = html.startswith, html.find
        branches = [(iter(self.first), 0, 0, 0)]  # (nodes left, where, runs, tags before)
        while branches:
            nodes, pos, before, tagged = branches[-1]
            if (node := next(nodes, None)) is None:
                branches.pop()
                continue
            del runs[before:], tags[tagged:]
            while True:
                (whole, parts, kind, value), after = node
                if startswith(whole, pos):
                    pos += len(whole)
                elif parts is None or (pos := _walk_tags(html, pos, parts, tags)) < 0:
                    break
                if kind == _TEXT:
                    stop = find("<", pos)
                    if stop < 0:
                        stop = end
                    runs.append(html[pos:stop])
                    pos = stop
                elif kind == _RAW:
                    stop = _RAW_TEXT_END[value].search(html, pos)
                    if stop is None:
                        break
                    pos = stop.end()
                else:  # the page's end: after is the skeleton that ends here
                    found = pos == end and (self.render(after, runs, tags) if targets is None
                                            else self.match(after, runs, tags, targets))
                    if found:
                        return found
                    break
                if len(after) > 1:
                    branches.append((iter(after), pos, len(runs), len(tags)))
                    break
                node = after[0]
        return None

    def render(self, skeleton: _Skeleton, runs: list[str],
               tags: list[tuple[int, re.Match]]) -> Optional[tuple[str, str]]:
        """``render_pruned`` of a page that walks ``skeleton``, with these
        text hole runs and changed tag holes, from the skeleton's rendering
        recipe; None where it has none or a tag hole renders otherwise. The
        recipe, made once, writes each tag hole as its own marker: (the HTML
        split at its markers; the fill of each marker, a written text hole's
        place in ``used`` or a tag hole's number after them; per TEXT line,
        the places of each node; ``used``, the text holes written; each tag
        hole's rendering)."""
        recipe = skeleton.rendering
        if recipe is None:
            html, holes = skeleton.marked()
            readings = tuple(_rendering(tag, False) for _, tag in holes)
            parser = _Parser(html, pruned=True, readings={
                hole: (*reading[:4], chr(_TAG_MARKER + k), reading[5])
                for k, ((hole, _), reading) in enumerate(zip(holes, readings))})
            parser._break()
            recipe = ()
            # a ">" held back is written later as a piece of its own, ">" or "/>"
            if ">" not in parser.out and "/>" not in parser.out:
                pieces = _MARKED.split("".join(parser.out))
                used = [ord(m) - _MARKER for m in pieces[1::2] if ord(m) < _TAG_MARKER]
                place = {chr(_MARKER + number): i for i, number in enumerate(used)}
                place.update((chr(_TAG_MARKER + k), len(used) + k) for k in range(len(holes)))
                recipe = (pieces, [place[marker] for marker in pieces[1::2]],
                          [[[place[marker] for marker in node] for node in line.split(" ")]
                           for line in parser.lines], used, readings)
            skeleton.rendering = recipe
        if not recipe:
            return None
        pieces, fills, lines, used, readings = recipe
        starts = [reading[4] for reading in readings]
        for number, tag in tags:
            reading, recorded = _rendering(tag, False), readings[number]
            if reading[:4] != recorded[:4] or reading[5] != recorded[5]:
                return None
            starts[number] = reading[4]
        texts = [" ".join(unescape(runs[i]).split()) for i in used]
        written = [escape(text, quote=False) for text in texts] + starts
        out = list(pieces)
        out[1::2] = [written[i] for i in fills]
        return "".join(out), "\n".join(filter(None, [" ".join(filter(None, [
            "".join([texts[i] for i in node]) for node in line])) for line in lines]))

    def match(self, skeleton: _Skeleton, runs: list[str], tags: list[tuple[int, re.Match]],
              targets: "MatchSet") -> Optional[tuple[list[Optional[str]], int]]:
        """``match_pruned`` of a page that walks ``skeleton``, with these
        text hole runs and changed tag holes, from its recipe for
        ``targets``; None where a tag hole reads otherwise. The recipe, made
        once and kept in ``targets.recipes``, is (per target, None or the
        holes of each text node, a node's pieces joined without a space and
        nodes with one; the signature; each tag hole's reading)."""
        recipe = targets.recipes.get(skeleton)
        if recipe is None:
            html, holes = skeleton.marked()
            readings = tuple(targets.reading(tag, False) for _, tag in holes)
            parser = _Parser(html, pruned=True, targets=targets, readings={
                hole: reading for (hole, _), reading in zip(holes, readings)})
            recipe = targets.recipes[skeleton] = (tuple(
                None if text is None else tuple(
                    tuple(ord(marker) - _MARKER for marker in node) for node in text.split(" ")
                ) if text else () for text in parser.results), parser.signature, readings)
        nodes, signature, readings = recipe
        known = targets.readings.get
        if not all((known(tag[0]) or targets.reading(tag, False)) == readings[number]
                   for number, tag in tags):
            return None
        return [None if holes is None else " ".join(filter(None, [
            "".join([" ".join(unescape(runs[i]).split()) for i in node])
            for node in holes])) for holes in nodes], signature

    def record(self, html: str) -> None:
        """Record a page just scanned, if there is room: the steps of its
        skeleton that no node of their shape holds, as a chain below the rest."""
        with self.lock:
            if self.chars + len(html) > SKELETON_MEMO_CHARS:
                return
            steps, nodes, shared = _record(html), self.first, []
            if steps is None:  # refused
                self.chars += len(html)
                return
            for step in steps:
                shape = _shape(step)
                node = next((node for node in nodes if _shape(node[0]) == shape), None)
                if node is None:
                    break
                shared.append(node[0])
                nodes = node[1]
            else:  # the trie holds its skeleton
                return
            added = steps[len(shared):]
            chain = _Skeleton((*shared, *added))
            for step in reversed(added):
                chain = [(step, chain)]
            nodes.append(chain[0])  # built in full first: a walk on another thread sees all or none
            self.chars += sum(len(step[0]) for step in added)


_skeletons = _Skeletons()


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


class ElementIndex(NamedTuple):
    """A document's elements in document order, and the names they carry.

    ``parents[i]`` is the position of element i's parent (-1 for a top-level
    element). Positions are preorder, so an element's ancestors all sit at
    lower positions. ``classes[i]`` is element i's class set. The parse
    records all three as it builds the tree; nothing else builds an index.
    The index refers to elements only, never back to itself, so a tree and
    its index are freed together by reference counting.
    """

    elements: list[Element]
    parents: list[int]
    classes: list[frozenset[str]]


class MatchSet:
    """Selectors compiled to match elements as they open, and the node index
    wanted of each: ``targets[i]`` is a (selector, node index) pair, and a
    matching scan (``match_pruned``) gives the text of that match as its
    i-th result.

    The selectors run as one automaton over the open elements, as YFilter
    shares path matching between many queries (Diao et al., ACM TODS 28(4),
    2003). A selector of n compounds owns n states, one bit each: an element
    is in state k when compounds 0 to k match it and its ancestors as the
    combinators between them require, so the selector matches where its
    last state holds. Each element carries two state sets: ``pre``, the
    states a child of it may enter, and ``base``, those any descendant may
    enter. An element enters the states of the compounds it matches (its
    eligible states) that its parent's ``pre`` allows. A step is a few
    operations on ints however deep the element, so matching takes time
    linear in the number of elements. ``select`` runs the same automaton
    over a tree's element index.
    """

    def __init__(self, targets: Sequence[tuple[CompiledSelector, int]]):
        self.targets = tuple(targets)
        selectors = list(dict.fromkeys(selector for selector, _ in self.targets))
        at = {selector: i for i, selector in enumerate(selectors)}
        # per selector: node index -> the targets wanting that match
        self.wanted: list[dict[int, list[int]]] = [{} for _ in selectors]
        for slot, (selector, node_index) in enumerate(self.targets):
            self.wanted[at[selector]].setdefault(node_index, []).append(slot)
        compounds: dict[SimpleSelector, int] = {}  # compound -> its states
        self.subject_of: dict[int, int] = {}  # last state -> its selector
        first = child = descendant = 0
        state = 1
        for i, selector in enumerate(selectors):
            for k, (combinator, simple) in enumerate(selector.parts):
                compounds[simple] = compounds.get(simple, 0) | state
                if k == 0:
                    first |= state
                elif combinator == "child":
                    child |= state
                else:
                    descendant |= state
                state <<= 1
            self.subject_of[state >> 1] = i
        # the compounds naming each tag, and those naming none
        self.by_tag: dict[Optional[str], tuple[tuple[SimpleSelector, int], ...]] = {
            tag: tuple(item for item in compounds.items() if item[0].tag == tag)
            for tag in {simple.tag for simple in compounds}
        }
        self.any_tag = self.by_tag.pop(None, ())
        self.first, self.child, self.descendant = first, child, descendant
        self.subjects = sum(self.subject_of)
        # start tag text -> its reading, see reading; a start-tag memo
        self.readings: dict[str, tuple] = collections.OrderedDict()
        # skeleton -> what a page walking it gives, see _Skeletons.match;
        # one per skeleton recorded
        self.recipes: dict[_Skeleton, tuple] = {}

    def eligible(self, tag: str, classes: frozenset[str], ident: Optional[str]) -> int:
        """The states of the compounds an element with this tag, class set
        and ``id`` attribute matches."""
        states = 0
        for simple, own in itertools.chain(self.by_tag.get(tag, ()), self.any_tag):
            if (not simple.ids or ident in simple.ids) and simple.classes <= classes:
                states |= own
        return states

    def descend(self, pre: int, base: int, eligible: int) -> tuple[int, int, int]:
        """An element's ``pre`` and ``base`` from its parent's and its
        eligible states, and the last states it is in: the selectors that
        match it. The top level's ``pre`` and ``base`` are ``first``."""
        entered = eligible & pre
        if not entered:
            return base, base, 0
        shifted = entered << 1
        base |= shifted & self.descendant
        return base | (shifted & self.child), base, entered & self.subjects

    def count(self, hit: int, counts: list[int]) -> list[int]:
        """Count a match of each selector whose last state is in ``hit``,
        in ``counts`` (matches so far per selector); the targets that want
        this match."""
        slots: list[int] = []
        while hit:
            state = hit & -hit
            hit ^= state
            selector = self.subject_of[state]
            wanted = self.wanted[selector].get(counts[selector])
            counts[selector] += 1
            if wanted:
                slots += wanted
        return slots

    def reading(self, source, remember: bool = True) -> tuple:
        """``_read_start_tag`` of a start tag, with its attribute dict and
        class names replaced by the signature bits of its tag and class
        names and its eligible states. The reading of a plain start tag is
        kept under its text (see ``_remember``) for the next tag written
        alike; without ``remember``, kept in no memo."""
        tag, closes, opens, raw, attributes, names = _read_start_tag(source, KEPT_ATTRIBUTES)
        bits = _name_bit(tag)
        for name in names:
            bits |= _name_bit(name)
        reading = (tag, closes, opens, raw, bits,
                   self.eligible(tag, names, attributes.get("id")))
        if remember:
            _remember(self.readings, source, reading)
        return reading


@functools.lru_cache(maxsize=1024)
def _automaton(compiled: CompiledSelector) -> MatchSet:
    return MatchSet(((compiled, 0),))


def select(root: Document, selector: Union[str, CompiledSelector]) -> list[Element]:
    """All elements of a parsed document matching the selector, in document
    order.

    Only the first ``MATCH_LIMIT`` elements in document order are considered. The
    selection runs ``MatchSet``'s automaton, the one a matching scan runs,
    over the element index the parse recorded.
    """
    compiled = parse_selector(selector) if isinstance(selector, str) else selector
    return [element for element, hit in _walk(root, _automaton(compiled)) if hit]


def select_targets(root: Document, targets: MatchSet) -> list[Optional[Element]]:
    """For each (selector, node index) target, the element
    ``select(root, selector)[node index]``, or None where there is none:
    all the targets in one walk of the element index."""
    found: list[Optional[Element]] = [None] * len(targets.targets)
    counts = [0] * len(targets.wanted)
    for element, hit in _walk(root, targets):
        if hit:
            for slot in targets.count(hit, counts):
                found[slot] = element
    return found


def _walk(root: Document, automaton: MatchSet) -> Iterator[tuple[Element, int]]:
    """Each of the first ``MATCH_LIMIT`` elements of a parsed document, in
    document order, with the last states of ``automaton`` it is in."""
    eligible, descend = automaton.eligible, automaton.descend
    index = root.index
    parents, classes = index.parents, index.classes
    top = (automaton.first, automaton.first)
    states: list[tuple[int, int]] = []  # per position: (pre, base)
    for position, element in enumerate(itertools.islice(index.elements, MATCH_LIMIT)):
        above = parents[position]
        pre, base = states[above] if above >= 0 else top
        pre, base, hit = descend(
            pre, base, eligible(element.tag, classes[position], element.attrs.get("id")))
        states.append((pre, base))
        yield element, hit


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
    for element, names in zip(index.elements, index.classes):
        signature |= _name_bit(element.tag)
        for name in names:
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
