"""Page reduction into the two representations consumed by extraction.

``HTML_COMPRESSED`` drops a fixed set of boilerplate elements (head, footer,
header, script, iframe, path, style, symbol, noscript, svg, g, use, option),
strips every attribute except ``class`` and ``id``, and removes comments and
whitespace between tags. The pruning happens while the page is parsed
(``htmltree.parse_pruned``), so dropped subtrees are never built. ``TEXT`` is
the plain-text projection of the compressed document with one line per block
element.

``compress_both`` builds only the pruned tree. Each document it returns
renders its ``content`` and ``token_count`` from that tree when one of them
is first read, and then drops the tree, so a caller pays only for the
variants it reads. A document that is kept should be ``rendered()`` first:
until then it pins its tree. ``match_page`` reads what selectors match in
that pruned tree without building it.

Token counts use a deterministic proxy, ceil(utf8_bytes / 4), defined with
the rest of the call accounting in ``gateway.count_tokens``, so cost
accounting is reproducible without a vendor tokenizer; a live provider's
reported usage takes precedence in ledgers.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from . import htmltree
from .gateway import count_tokens
from .htmltree import Document
from .reader import RawDocument

BANNED_ELEMENTS = frozenset({
    "head", "footer", "header", "script", "iframe", "path", "style",
    "symbol", "noscript", "svg", "g", "use", "option",
})

KEPT_ATTRIBUTES = ("class", "id")


class Variant(str, Enum):
    HTML_COMPRESSED = "HTML_COMPRESSED"
    TEXT = "TEXT"


class UnparsableDocument(Exception):
    """Raised when even lenient parsing yields an empty tree."""


class WrongVariant(Exception):
    """Raised when an operation receives the wrong document variant."""


class CompressedDocument:
    """One variant of a compressed page: given its ``content`` and
    ``token_count``, or rendered from a pruned tree on first read."""

    __slots__ = ("page_id", "variant", "_content", "_token_count", "_tree")

    def __init__(self, page_id: str, variant: Variant, content: str = "",
                 token_count: int = 0, tree: Optional[Document] = None):
        self.page_id = page_id
        self.variant = variant
        self._content = content
        self._token_count = token_count
        self._tree = tree

    @property
    def content(self) -> str:
        return self.rendered()._content

    @property
    def token_count(self) -> int:
        return self.rendered()._token_count

    def rendered(self) -> "CompressedDocument":
        """This document with its content rendered, and its tree dropped."""
        if self._tree is not None:
            if self.variant is Variant.HTML_COMPRESSED:
                content = htmltree.serialize(self._tree)
            else:
                content = "\n".join(htmltree.block_text_lines(self._tree))
            self._content, self._token_count, self._tree = content, count_tokens(content), None
        return self


def compress_both(
    doc: RawDocument,
) -> tuple[CompressedDocument, CompressedDocument, Document]:
    """Both variants and the pruned tree, from a single parse.

    The tree equals ``parse_html`` of the HTML variant, so a caller can run
    extraction programs on it without parsing the page again. The variants
    render from it when first read. A page is unparsable when its file was
    not text or its unpruned tree would be empty; a page holding only a
    script is not.
    """
    tree = _pruned(doc, htmltree.parse_pruned)
    return (
        CompressedDocument(doc.page_id, Variant.HTML_COMPRESSED, tree=tree),
        CompressedDocument(doc.page_id, Variant.TEXT, tree=tree),
        tree,
    )


def match_page(doc: RawDocument, targets: htmltree.MatchSet,
               limit: int) -> tuple[list[Optional[str]], int]:
    """What ``targets`` select in the pruned tree ``compress_both`` builds,
    and that tree's name signature, read in one scan that builds no tree
    (``htmltree.match_pruned``). Raises UnparsableDocument where
    ``compress_both`` does."""
    return _pruned(doc, htmltree.match_pruned, targets, limit)


def _pruned(doc: RawDocument, parse, *args):
    """``parse(html, BANNED_ELEMENTS, KEPT_ATTRIBUTES, *args)`` of the page, or
    UnparsableDocument where the file was not text or the parse gives None."""
    if doc.unreadable is not None:
        raise UnparsableDocument(f"page {doc.page_id}: {doc.unreadable}")
    parsed = parse(doc.html, BANNED_ELEMENTS, KEPT_ATTRIBUTES, *args)
    if parsed is None:
        raise UnparsableDocument(f"page {doc.page_id}: no parsable content")
    return parsed
