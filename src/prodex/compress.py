"""Page reduction into the two representations consumed by extraction.

``HTML_COMPRESSED`` drops a fixed set of boilerplate elements (head, footer,
header, script, iframe, path, style, symbol, noscript, svg, g, use, option),
strips every attribute except ``class`` and ``id``, and removes comments and
whitespace between tags. ``TEXT`` is the plain-text projection of the
compressed document with one line per block element. That pruning policy is
defined once, in ``htmltree`` (``BANNED_ELEMENTS``, ``KEPT_ATTRIBUTES``), and
re-exported here for callers of this module.

``compress_both`` writes both in one scan of the page that builds no tree
(``htmltree.render_pruned``): dropped subtrees are skipped, and each kept
element's tags and text are written as the scan opens and closes it; a
page that walks a recorded skeleton of its template is written from the
skeleton's recipe instead. ``match_page`` reads what selectors match in the
same pruned page, alike.

Token counts use a deterministic proxy, ceil(utf8_bytes / 4), defined with
the rest of the call accounting in ``gateway.count_tokens``, so cost
accounting is reproducible without a vendor tokenizer; a live provider's
reported usage takes precedence in ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import htmltree
from .gateway import count_tokens
from .htmltree import BANNED_ELEMENTS, KEPT_ATTRIBUTES  # noqa: F401
from .reader import RawDocument


class Variant(str, Enum):
    HTML_COMPRESSED = "HTML_COMPRESSED"
    TEXT = "TEXT"


class UnparsableDocument(Exception):
    """Raised when even lenient parsing yields an empty tree."""


class WrongVariant(Exception):
    """Raised when an operation receives the wrong document variant."""


@dataclass(frozen=True)
class CompressedDocument:
    """One variant of a compressed page, and its token count."""

    page_id: str
    variant: Variant
    content: str = ""
    token_count: int = 0


def compress_both(doc: RawDocument) -> tuple[CompressedDocument, CompressedDocument]:
    """Both variants, written in a single scan that builds no tree.

    ``parse_html`` of the HTML variant gives the pruned tree, so a caller
    can run extraction programs on the page its prompt carried. A page is
    unparsable when its file was not text or its unpruned tree would be
    empty; a page holding only a script is not.
    """
    html, text = _pruned(doc, htmltree.render_pruned)
    return (
        CompressedDocument(doc.page_id, Variant.HTML_COMPRESSED, html, count_tokens(html)),
        CompressedDocument(doc.page_id, Variant.TEXT, text, count_tokens(text)),
    )


def match_page(doc: RawDocument, targets: htmltree.MatchSet) -> tuple[list[Optional[str]], int]:
    """What ``targets`` select in the pruned tree that ``compress_both``'s
    HTML variant writes, and that tree's name signature, read in one scan
    that builds no tree (``htmltree.match_pruned``). Raises
    UnparsableDocument where ``compress_both`` does."""
    return _pruned(doc, htmltree.match_pruned, targets)


def _pruned(doc: RawDocument, parse, *args):
    """``parse(html, *args)`` of the page, or UnparsableDocument where the
    file was not text or the parse gives None."""
    if doc.unreadable is not None:
        raise UnparsableDocument(f"page {doc.page_id}: {doc.unreadable}")
    parsed = parse(doc.html, *args)
    if parsed is None:
        raise UnparsableDocument(f"page {doc.page_id}: no parsable content")
    return parsed
