"""Page reduction into the two representations consumed by extraction.

``HTML_COMPRESSED`` drops a fixed set of boilerplate elements (head, footer,
header, script, iframe, path, style, symbol, noscript, svg, g, use, option),
strips every attribute except ``class`` and ``id``, and removes comments and
whitespace between tags. The pruning happens while the page is parsed
(``htmltree.parse_pruned``), so dropped subtrees are never built. ``TEXT`` is
the plain-text projection of the compressed document with one line per block
element.

Token counts use a deterministic proxy, ceil(utf8_bytes / 4), so cost
accounting is reproducible without a vendor tokenizer; a live provider's
reported usage takes precedence in ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import htmltree
from .htmltree import Document

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


@dataclass(frozen=True)
class RawDocument:
    page_id: str
    url: str
    html: str


@dataclass(frozen=True)
class CompressedDocument:
    page_id: str
    variant: Variant
    content: str
    token_count: int


def count_tokens(content: str) -> int:
    """Deterministic token estimate: ceil(len(utf8 bytes) / 4)."""
    n = len(content.encode("utf-8"))
    return (n + 3) // 4


def compress_both(
    doc: RawDocument,
) -> tuple[CompressedDocument, CompressedDocument, Document]:
    """Both variants and the pruned tree, from a single parse.

    The tree equals ``parse_html`` of the HTML variant, so a caller can run
    extraction programs on it without parsing the page again. A page is
    unparsable when its unpruned tree would be empty; a page holding only a
    script is not.
    """
    tree = htmltree.parse_pruned(doc.html, BANNED_ELEMENTS, KEPT_ATTRIBUTES)
    if tree is None:
        raise UnparsableDocument(f"page {doc.page_id}: no parsable content")
    html_doc = _compressed(doc.page_id, Variant.HTML_COMPRESSED, htmltree.serialize(tree))
    text_doc = _compressed(
        doc.page_id, Variant.TEXT, "\n".join(htmltree.block_text_lines(tree))
    )
    return html_doc, text_doc, tree


def _compressed(page_id: str, variant: Variant, content: str) -> CompressedDocument:
    return CompressedDocument(
        page_id=page_id,
        variant=variant,
        content=content,
        token_count=count_tokens(content),
    )
