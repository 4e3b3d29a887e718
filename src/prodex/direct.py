"""Direct strategy: one schema-constrained completion per product page.

Every call is priced into a ledger that joins the run's ledger.json, the
only record of what the run paid and what ``prodex evaluate`` counts;
results are plain products.
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
    Every page runs one body, for any ``workers``: it is extracted with its
    calls priced into a ledger of its own, and with ``out_dir`` a finished
    page is written at once, atomically, to its product file in that run
    directory (``prodex.rundir``), its only record. A page that has one is
    not extracted again, so an interrupted run resumes without re-calling
    the provider for done pages. The page ledgers join ``ledger`` in
    document order, so it does not depend on the order in which calls
    complete. With workers > 1 the bodies run on a pool of that many
    threads, the only code that calls a provider from more than one thread;
    with 1 they run in the calling thread, one after another.
    """
    done = rundir.resume_products(out_dir) if out_dir is not None else {}
    pending = [doc for doc in docs if doc.page_id not in done]
    failures: dict[str, str] = {}

    def extract_page(doc: CompressedDocument) -> CostLedger:
        page_ledger = CostLedger()
        try:
            product = extract_direct(doc, provider, model_id, page_ledger)
        except (ExtractionFailed, *PROVIDER_FAILURES) as exc:
            failures[doc.page_id] = str(exc)
        else:
            done[doc.page_id] = product
            if out_dir is not None:
                rundir.write_product(out_dir, doc.page_id, product)
        return page_ledger

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            page_ledgers = list(pool.map(extract_page, pending))
    else:
        page_ledgers = map(extract_page, pending)
    for page_ledger in page_ledgers:
        ledger.entries.extend(page_ledger.entries)

    products = {doc.page_id: done[doc.page_id] for doc in docs if doc.page_id in done}
    return products, failures
