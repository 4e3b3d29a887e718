"""Page reduction into the two representations consumed by extraction.

``HTML_COMPRESSED`` drops a fixed set of boilerplate elements (head, footer,
header, script, iframe, path, style, symbol, noscript, svg, g, use, option),
strips every attribute except ``class`` and ``id``, and removes comments and
whitespace between tags. ``TEXT`` is the plain-text projection of the
compressed document with one line per block element.

Token counts use a deterministic proxy, ceil(utf8_bytes / 4), so cost
accounting is reproducible without a vendor tokenizer; a live provider's
reported usage takes precedence in ledgers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import htmltree
from .htmltree import Document, Element, TextNode

BANNED_ELEMENTS = frozenset({
    "head", "footer", "header", "script", "iframe", "path", "style",
    "symbol", "noscript", "svg", "g", "use", "option",
})

KEPT_ATTRIBUTES = ("class", "id")

_WS_RUN = re.compile(r"\s+")


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
    extraction programs on it without parsing the page again.
    """
    tree = _pruned_tree(doc)
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


def _pruned_tree(doc: RawDocument) -> Document:
    tree = htmltree.parse_html(doc.html)
    if tree.is_empty():
        raise UnparsableDocument(f"page {doc.page_id}: no parsable content")
    _prune(tree)
    return tree


def _prune(root: Document) -> None:
    """Remove banned elements, extra attributes and inter-tag whitespace.

    Text runs left adjacent by a removed element or comment are merged, as
    parsing the serialized result would merge them.
    """
    stack: list[Union[Document, Element]] = [root]
    while stack:
        node = stack.pop()
        kept: list[Union[Element, TextNode]] = []
        for child in node.children:
            if isinstance(child, TextNode):
                cleaned = _WS_RUN.sub(" ", child.text).strip()
                if not cleaned:
                    continue
                if kept and isinstance(kept[-1], TextNode):
                    kept[-1] = TextNode(text=kept[-1].text + cleaned)
                else:
                    kept.append(TextNode(text=cleaned))
                continue
            if child.tag in BANNED_ELEMENTS:
                continue
            child.attrs = {
                name: value
                for name, value in child.attrs.items()
                if name in KEPT_ATTRIBUTES
            }
            stack.append(child)
            kept.append(child)
        node.children = kept
