"""Corpus reader: the on-disk shop corpus as the commands consume it.

A corpus directory holds ``pages/*.html``, ``truth.jsonl``, ``labels.json``,
``templates.json`` and ``manifest.json`` (written by
``prodex.corpus.write_corpus``). This module reads them without the HTML
tree, the compressor or the DSL: each template's true program is kept as
JSON text and parsed by the first ``load_true_program`` call for it; of the
commands, only the oracle makes one. The generator lives in
``prodex.corpus``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING, Optional, Union

from . import files
from .schema import FoodProduct, SchemaViolation, product_from_dict, product_to_dict

if TYPE_CHECKING:
    from .dsl import ExtractionProgram

DECISION_KEYWORDS = ("Zutaten", "Nährwert")


class UnknownTemplate(Exception):
    pass


class MissingTruth(Exception):
    """A result page has no ground-truth record."""


class MalformedCorpusFile(Exception):
    """A corpus file that does not load; the message names the file."""


# What reading a JSON file of the wrong shape can raise (prodex.rundir too).
READ_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError)


@contextmanager
def _reading(path):
    """Raise any error in reading the file at ``path`` as MalformedCorpusFile."""
    try:
        yield
    except READ_ERRORS as exc:
        raise MalformedCorpusFile(f"{path}: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class RawDocument:
    page_id: str
    html: str
    # Why the page file could not be read as text (its html is then empty);
    # compression reports it as the page's failure.
    unreadable: Optional[str] = None


def read_page(path, page_id: str) -> RawDocument:
    """The page ``page_id`` in the file ``path``. A file that is not UTF-8
    gives a document that names the decoding error."""
    try:
        return RawDocument(page_id=page_id, html=files.read_text(path))
    except UnicodeDecodeError as exc:
        return RawDocument(page_id=page_id, html="", unreadable=f"not UTF-8: {exc}")


def list_files(directory, suffix: str) -> list[tuple[str, str]]:
    """(stem, path) of each entry of ``directory`` named ``*<suffix>``, in name
    order: what ``Path(directory).glob("*" + suffix)`` finds, sorted by name,
    as str paths."""
    with os.scandir(directory) as entries:
        found = sorted((entry.name, entry.path) for entry in entries
                       if entry.name.endswith(suffix))
    return [(name[:-len(suffix)] or name, path) for name, path in found]


@dataclass(frozen=True)
class GroundTruthRecord:
    page_id: str
    template_id: str
    product: FoodProduct
    has_nutrition: bool
    has_ingredients: bool

    def to_dict(self) -> dict:
        return {
            "page_id": self.page_id,
            "template_id": self.template_id,
            "product": product_to_dict(self.product),
            "has_nutrition": self.has_nutrition,
            "has_ingredients": self.has_ingredients,
        }

    @staticmethod
    def from_dict(data: dict) -> "GroundTruthRecord":
        return GroundTruthRecord(
            page_id=data["page_id"],
            template_id=data["template_id"],
            product=product_from_dict(data["product"]),
            has_nutrition=bool(data["has_nutrition"]),
            has_ingredients=bool(data["has_ingredients"]),
        )


@dataclass
class Corpus:
    shop_id: str
    corpus_id: str
    pages: list[RawDocument]
    truth: dict[str, GroundTruthRecord]
    labels: dict[str, bool]
    template_ids: tuple[str, ...]
    decision_keywords: tuple[str, ...]
    # By template_id: a program, or its JSON text until load_true_program parses it.
    true_programs: dict[str, Union["ExtractionProgram", str]]


class MalformedTruth(SchemaViolation):
    """A ground-truth record that does not load; the message names its line."""

    def __init__(self, location: str, errors: list[tuple[str, str]]):
        super().__init__(errors)
        self.args = (f"{location}: {self.args[0]}",)


# One decoder for every truth.jsonl line: json.loads would build one per line.
_TRUTH_DECODER = json.JSONDecoder(parse_float=Decimal)


def _decode_truth_line(line: str):
    """``json.loads(line, parse_float=Decimal)``, with its check for a
    leading byte order mark, which ``JSONDecoder.decode`` lacks."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    return _TRUTH_DECODER.decode(line)


def load_truth(path) -> dict[str, GroundTruthRecord]:
    """Ground truth by page id, from a corpus directory or a truth.jsonl file.
    A record that does not load, or names a page an earlier line names,
    raises MalformedTruth naming its line."""
    path = os.fspath(path)
    if os.path.isdir(path):
        path = os.path.join(path, "truth.jsonl")
    with _reading(path):
        lines = files.read_text(path).split("\n")
    truth: dict[str, GroundTruthRecord] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = GroundTruthRecord.from_dict(_decode_truth_line(line))
        except (SchemaViolation, KeyError, ValueError, TypeError, RecursionError) as exc:
            errors = getattr(exc, "errors", None) or [("$", f"{type(exc).__name__}: {exc}")]
            raise MalformedTruth(f"{path}:{number}", errors) from exc
        if record.page_id in truth:
            raise MalformedTruth(f"{path}:{number}",
                                 [("page_id", f"{record.page_id!r} is on an earlier line too")])
        truth[record.page_id] = record
    return truth


def load_labels(path) -> dict[str, bool]:
    """Bootstrap labels by page id, from a JSON object of page id to a JSON
    boolean."""
    with _reading(path):
        labels = json.loads(files.read_text(path))
        if not isinstance(labels, dict):
            raise TypeError("the file must hold a JSON object")
        for page_id, label in labels.items():
            if type(label) is not bool:
                raise TypeError(f"the label of page {page_id!r} is {label!r}, not true or false")
        return labels


def load_corpus(corpus_dir) -> Corpus:
    """The corpus in ``corpus_dir``. A file that does not load raises
    MalformedCorpusFile, and a bad truth.jsonl record MalformedTruth."""
    root = os.fspath(corpus_dir)
    path = os.path.join(root, "manifest.json")
    with _reading(path):
        manifest = json.loads(files.read_text(path))
        shop_id, corpus_id = manifest["shop_id"], manifest["corpus_id"]
        template_ids = tuple(manifest["template_ids"])
    truth = load_truth(root)
    path = os.path.join(root, "pages")
    with _reading(path):
        listed = list_files(path, ".html")
    pages = [read_page(page, page_id) for page_id, page in listed]
    labels = load_labels(os.path.join(root, "labels.json"))
    path = os.path.join(root, "templates.json")
    with _reading(path):
        templates = json.loads(files.read_text(path))
        decision_keywords = tuple(templates.get("decision_keywords", DECISION_KEYWORDS))
        true_programs = {
            entry["template_id"]: json.dumps(entry["true_program"])
            for entry in templates["templates"]
        }
    return Corpus(
        shop_id=shop_id,
        corpus_id=corpus_id,
        pages=pages,
        truth=truth,
        labels=labels,
        template_ids=template_ids,
        decision_keywords=decision_keywords,
        true_programs=true_programs,
    )


def load_true_program(corpus: Corpus, template_id: str) -> "ExtractionProgram":
    """The template's true program, parsed on the first request for it."""
    if template_id not in corpus.true_programs:
        raise UnknownTemplate(template_id)
    program = corpus.true_programs[template_id]
    if isinstance(program, str):
        from .dsl import parse_program

        program = corpus.true_programs[template_id] = parse_program(program)
    return program
