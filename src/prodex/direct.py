"""Direct strategy: one schema-constrained completion per product page."""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import prompts
from .compress import CompressedDocument, Variant
from .gateway import (
    CostLedger,
    Provider,
    ProviderRefusal,
    ReplayMiss,
    TransportError,
    Usage,
    structured_call,
)
from .schema import (
    FoodProduct,
    SchemaViolation,
    parse_product,
    product_to_dict,
    to_json_schema,
    to_json_schema_dict,
)


# The product JSON Schema for the gateway, built once; the gateway only reads it.
_RESPONSE_SCHEMA = to_json_schema_dict()


class ExtractionFailed(Exception):
    """Direct extraction gave no schema-valid product for a page."""


@dataclass(frozen=True)
class DirectResult:
    page_id: str
    product: FoodProduct
    usage: Usage
    variant_used: Variant


def build_direct_prompts(doc: CompressedDocument) -> tuple[str, str]:
    system = prompts.load("direct_system.txt")
    user = prompts.load("direct_user.txt").format(
        schema=to_json_schema(),
        variant=doc.variant.value,
        content=doc.content,
    )
    return system, user


def extract_direct(
    doc: CompressedDocument,
    provider: Provider,
    model_id: str,
    ledger: Optional[CostLedger] = None,
    role_tag: str = "direct",
) -> DirectResult:
    """Extract the product object from one compressed page."""
    system, user = build_direct_prompts(doc)
    try:
        exchange, product = structured_call(
            provider, model_id, system, user, _RESPONSE_SCHEMA, parse_product,
            ledger=ledger, role_tag=role_tag, page_id=doc.page_id,
        )
    except SchemaViolation as exc:
        raise ExtractionFailed(f"page {doc.page_id}: {exc}") from exc
    return DirectResult(
        page_id=doc.page_id,
        product=product,
        usage=exchange.usage,
        variant_used=doc.variant,
    )


def _load_checkpoint(path: Path) -> dict[str, dict]:
    """Products of the finished pages in a JSONL checkpoint, by page_id.

    A line counts only once its newline is on disk: an unterminated final
    line, torn by an interrupted write, is dropped from the file so that
    appends start on a fresh line, and its page is extracted again.
    """
    if not path.exists():
        return {}
    data = path.read_bytes()
    whole = data.rfind(b"\n") + 1
    if whole < len(data):
        os.truncate(path, whole)
    done: dict[str, dict] = {}
    for number, line in enumerate(data[:whole].decode("utf-8").splitlines(), start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {number} is not valid JSON: {exc}") from exc
        done[record["page_id"]] = record["product"]
    return done


def extract_direct_batch(
    docs: list[CompressedDocument],
    provider: Provider,
    model_id: str,
    ledger: CostLedger,
    checkpoint_path=None,
    out_dir=None,
    workers: int = 1,
) -> tuple[list[DirectResult], dict[str, str]]:
    """Process a corpus page by page; failures are recorded, not fatal.

    The checkpoint is JSONL: one ``{"page_id", "product"}`` line is appended
    and flushed per finished page, so an interrupted run resumes without
    re-calling the provider for done pages.
    With workers > 1, pages fan out over a thread pool (the live provider's
    in-flight semaphore still caps concurrency); ledger entries land in
    completion order, keyed by page_id.
    """
    checkpoint: dict[str, dict] = {}
    if checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        checkpoint = _load_checkpoint(checkpoint_path)

    products_dir = None
    if out_dir is not None:
        products_dir = Path(out_dir) / "products"
        products_dir.mkdir(parents=True, exist_ok=True)

    results: dict[str, DirectResult] = {}
    failures: dict[str, str] = {}
    pending: list[CompressedDocument] = []
    for doc in docs:
        if doc.page_id in checkpoint:
            product = parse_product(json.dumps(checkpoint[doc.page_id], ensure_ascii=False))
            results[doc.page_id] = DirectResult(
                page_id=doc.page_id,
                product=product,
                usage=Usage(),
                variant_used=doc.variant,
            )
        else:
            pending.append(doc)

    opened = (
        checkpoint_path.open("a", encoding="utf-8")
        if checkpoint_path is not None
        else contextlib.nullcontext()
    )
    with opened as sink:
        def finish(doc: CompressedDocument, result: DirectResult) -> None:
            results[doc.page_id] = result
            product = product_to_dict(result.product)
            if sink is not None:
                sink.write(json.dumps({"page_id": doc.page_id, "product": product},
                                      ensure_ascii=False) + "\n")
                sink.flush()
            if products_dir is not None:
                (products_dir / f"{doc.page_id}.json").write_text(
                    json.dumps(product, indent=2, ensure_ascii=False),
                    encoding="utf-8",
                )

        if workers <= 1:
            for doc in pending:
                try:
                    finish(doc, extract_direct(doc, provider, model_id, ledger=ledger))
                except (ExtractionFailed, TransportError, ProviderRefusal, ReplayMiss) as exc:
                    failures[doc.page_id] = str(exc)
        else:
            from concurrent.futures import ThreadPoolExecutor, as_completed

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(extract_direct, doc, provider, model_id, ledger): doc
                    for doc in pending
                }
                for future in as_completed(futures):
                    doc = futures[future]
                    try:
                        finish(doc, future.result())
                    except (ExtractionFailed, TransportError, ProviderRefusal, ReplayMiss) as exc:
                        failures[doc.page_id] = str(exc)

    ordered = [results[doc.page_id] for doc in docs if doc.page_id in results]
    return ordered, failures
