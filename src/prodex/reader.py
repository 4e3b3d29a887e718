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
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .schema import FoodProduct, SchemaViolation, product_from_dict, product_to_dict

if TYPE_CHECKING:
    from .dsl import ExtractionProgram

DECISION_KEYWORDS = ("Zutaten", "Nährwert")


class UnknownTemplate(Exception):
    pass


class MissingTruth(Exception):
    """A result page has no ground-truth record."""


@dataclass(frozen=True)
class RawDocument:
    page_id: str
    url: str
    html: str


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


def load_truth(path) -> dict[str, GroundTruthRecord]:
    """Ground truth by page id, from a corpus directory or a truth.jsonl file."""
    path = Path(path)
    if path.is_dir():
        path = path / "truth.jsonl"
    truth: dict[str, GroundTruthRecord] = {}
    with path.open(encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = GroundTruthRecord.from_dict(json.loads(line, parse_float=Decimal))
            except (SchemaViolation, KeyError, ValueError, TypeError, RecursionError) as exc:
                errors = getattr(exc, "errors", None) or [("$", f"{type(exc).__name__}: {exc}")]
                raise MalformedTruth(f"{path}:{number}", errors) from exc
            truth[record.page_id] = record
    return truth


def load_corpus(corpus_dir) -> Corpus:
    root = Path(corpus_dir)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    truth = load_truth(root)
    pages = []
    for path in sorted((root / "pages").glob("*.html")):
        page_id = path.stem
        pages.append(
            RawDocument(
                page_id=page_id,
                url=f"https://shop-{manifest['shop_id']}.example/artikel/{page_id}",
                html=path.read_text(encoding="utf-8"),
            )
        )
    labels = json.loads((root / "labels.json").read_text(encoding="utf-8"))
    templates_data = json.loads((root / "templates.json").read_text(encoding="utf-8"))
    return Corpus(
        shop_id=manifest["shop_id"],
        corpus_id=manifest["corpus_id"],
        pages=pages,
        truth=truth,
        labels={k: bool(v) for k, v in labels.items()},
        template_ids=tuple(manifest["template_ids"]),
        decision_keywords=tuple(templates_data.get("decision_keywords", DECISION_KEYWORDS)),
        true_programs={
            entry["template_id"]: json.dumps(entry["true_program"])
            for entry in templates_data["templates"]
        },
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
