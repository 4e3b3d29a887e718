"""Direct strategy: one schema-constrained completion per product page.

Every call is priced into the caller's ledger, which is the only record of
what the run paid; results are plain products.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import prompts, rundir
from .gateway import PROVIDER_FAILURES, CostLedger, Provider, request_schema, structured_call
from .schema import FoodProduct, SchemaViolation, parse_product, to_json_schema_dict

if TYPE_CHECKING:
    from .compress import CompressedDocument


class ExtractionFailed(Exception):
    """Direct extraction gave no schema-valid product for a page."""


def build_direct_prompts(doc: CompressedDocument) -> tuple[str, str]:
    system = prompts.load("direct_system.txt")
    user = prompts.load("direct_user.txt").format(
        schema=request_schema(to_json_schema_dict).text,
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
            provider, model_id, system, user, request_schema(to_json_schema_dict), parse_product,
            ledger=ledger, role_tag=role_tag, page_id=doc.page_id,
        )
    except SchemaViolation as exc:
        raise ExtractionFailed(f"page {doc.page_id}: {exc}") from exc
    return product


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
    With ``out_dir``, each finished page is written once, atomically, to its
    product file in that run directory (``prodex.rundir``), its only record:
    a page that has one is not extracted again, so an interrupted run resumes
    without re-calling the provider for done pages.
    With workers > 1, pages fan out over a pool of that many threads, the
    only code that calls a provider from more than one thread. Each page
    prices its calls into a ledger of its own, and those entries join
    ``ledger`` in document order once every page is done, so the ledger
    does not depend on the order in which calls complete.
    """
    done = rundir.resume_products(out_dir) if out_dir is not None else {}

    pending = [doc for doc in docs if doc.page_id not in done]
    failures: dict[str, str] = {}

    def finish(page_id: str, product: FoodProduct) -> None:
        done[page_id] = product
        if out_dir is not None:
            rundir.write_product(out_dir, page_id, product)

    if workers <= 1:
        for doc in pending:
            try:
                finish(doc.page_id, extract_direct(doc, provider, model_id, ledger=ledger))
            except (ExtractionFailed, *PROVIDER_FAILURES) as exc:
                failures[doc.page_id] = str(exc)
    else:
        from concurrent.futures import ThreadPoolExecutor, as_completed

        page_ledgers = [CostLedger() for _ in pending]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(extract_direct, doc, provider, model_id, page_ledger): doc
                for doc, page_ledger in zip(pending, page_ledgers)
            }
            for future in as_completed(futures):
                page_id = futures[future].page_id
                try:
                    finish(page_id, future.result())
                except (ExtractionFailed, *PROVIDER_FAILURES) as exc:
                    failures[page_id] = str(exc)
        for page_ledger in page_ledgers:
            ledger.entries.extend(page_ledger.entries)

    products = {doc.page_id: done[doc.page_id] for doc in docs if doc.page_id in done}
    return products, failures
