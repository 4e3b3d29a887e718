"""Direct strategy: one schema-constrained completion per product page.

Every call is priced into the caller's ledger, which is the only record of
what the run paid; results are plain products.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import prompts
from .gateway import (
    CostLedger,
    Provider,
    ProviderRefusal,
    ReplayMiss,
    TransportError,
    structured_call,
    write_atomic,
)
from .schema import (
    FoodProduct,
    SchemaViolation,
    parse_product,
    serialize_product,
    to_json_schema,
    to_json_schema_dict,
)

if TYPE_CHECKING:
    from .compress import CompressedDocument


# The product JSON Schema for the gateway, built once; the gateway only reads it.
_RESPONSE_SCHEMA = to_json_schema_dict()


class ExtractionFailed(Exception):
    """Direct extraction gave no schema-valid product for a page."""


class MalformedProduct(ValueError):
    """A run's product file that does not parse (one in a direct run's
    ``products/``, or an indirect run's ``products.json`` or its
    ``metrics.json``); the message names the file."""


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
) -> FoodProduct:
    """Extract the product object from one compressed page."""
    system, user = build_direct_prompts(doc)
    try:
        _, product = structured_call(
            provider, model_id, system, user, _RESPONSE_SCHEMA, parse_product,
            ledger=ledger, role_tag=role_tag, page_id=doc.page_id,
        )
    except SchemaViolation as exc:
        raise ExtractionFailed(f"page {doc.page_id}: {exc}") from exc
    return product


def read_products(products_dir) -> dict[str, FoodProduct]:
    """The finished pages in a direct run's ``products/``, by page_id.

    Only ``*.json`` files are read: a ``*.json.tmp`` left by an interrupted
    write is not a finished page. A file that does not parse raises
    MalformedProduct.
    """
    products: dict[str, FoodProduct] = {}
    for path in sorted(Path(products_dir).glob("*.json")):
        try:
            products[path.stem] = parse_product(path.read_text(encoding="utf-8"))
        except (SchemaViolation, ValueError) as exc:
            raise MalformedProduct(f"{path}: {exc}") from exc
    return products


def extract_direct_batch(
    docs: list[CompressedDocument],
    provider: Provider,
    model_id: str,
    ledger: CostLedger,
    out_dir=None,
    workers: int = 1,
) -> tuple[dict[str, FoodProduct], dict[str, str]]:
    """Process a corpus page by page; failures are recorded, not fatal.

    Returns the products by page_id, in document order, and the failed pages
    with the reason each failed.
    With ``out_dir``, each finished page is written once, atomically, to
    ``out_dir/products/<page_id>.json``. That file is the page's only record:
    a page that has one is not extracted again, so an interrupted run resumes
    without re-calling the provider for done pages.
    With workers > 1, pages fan out over a thread pool (the live provider's
    in-flight semaphore still caps concurrency); ledger entries land in
    completion order, keyed by page_id.
    """
    done: dict[str, FoodProduct] = {}
    products_dir = None
    if out_dir is not None:
        products_dir = Path(out_dir) / "products"
        products_dir.mkdir(parents=True, exist_ok=True)
        done = read_products(products_dir)

    pending = [doc for doc in docs if doc.page_id not in done]
    failures: dict[str, str] = {}

    def finish(page_id: str, product: FoodProduct) -> None:
        done[page_id] = product
        if products_dir is not None:
            write_atomic(products_dir / f"{page_id}.json", serialize_product(product))

    if workers <= 1:
        for doc in pending:
            try:
                finish(doc.page_id, extract_direct(doc, provider, model_id, ledger=ledger))
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
                page_id = futures[future].page_id
                try:
                    finish(page_id, future.result())
                except (ExtractionFailed, TransportError, ProviderRefusal, ReplayMiss) as exc:
                    failures[page_id] = str(exc)

    products = {doc.page_id: done[doc.page_id] for doc in docs if doc.page_id in done}
    return products, failures
