"""The run directory: the one module that names, writes and reads the files a
command leaves in its ``--out`` (the corpus directory is ``prodex.reader``'s).
Each is written whole to ``<name>.tmp`` and renamed into place
(``prodex.files``), so an interrupted command leaves no torn file.

``prodex evaluate`` reads every run alike, the direct directory and each
indirect ``run-NN/``: its products, and its calls and cost from its
ledger.json, the one source of call accounting. An indirect run's
metrics.json is written for the reader but not read back. A run file
``prodex evaluate`` cannot read, of the wrong shape or listing a page twice
raises MalformedProduct naming it.
"""

import json
import os
import re
import shutil
from decimal import Decimal
from json.encoder import encode_basestring as json_string
from pathlib import Path

from . import files
from .gateway import CostLedger
from .reader import READ_ERRORS, list_files
from .schema import (FoodProduct, SchemaViolation, parse_product, product_from_dict,
                     serialize_product)

MANIFEST, FAILURES = "manifest.json", "failures.json"  # every command's
LEDGER, PRODUCTS = "ledger.json", "products"  # extract direct's; products/<page_id>.json
SUMMARY, SUMMARY_CSV, RUNS = "summary.json", "summary.csv", "run-*"  # extract indirect's
RUN_PRODUCTS, LIBRARY, METRICS = "products.json", "library.json", "metrics.json"  # in run-NN/
# compress leaves <page_id>.html, or .txt for the TEXT variant, per page.
# What reruns under the oracle and replay providers reproduce byte for byte, as fnmatch patterns.
BIT_EXACT = (MANIFEST, LEDGER, f"{PRODUCTS}/*.json", SUMMARY,
             *(f"{RUNS}/{name}" for name in (RUN_PRODUCTS, LIBRARY, METRICS, LEDGER)))


class MalformedProduct(ValueError):
    """A run file that does not read; the message names the file."""


def write_failures(out, failures: dict[str, str]) -> None:
    """List this invocation's failed pages, page_id -> reason, in failures.json;
    with none, remove the file an earlier invocation left."""
    path = Path(out) / FAILURES
    if failures:
        files.write_atomic(path, json.dumps(failures, indent=2, sort_keys=True))
    else:
        path.unlink(missing_ok=True)


def write_manifest(out, strategy: str, variant: str, shop, **fields) -> None:
    """manifest.json: what ``prodex evaluate`` scores the directory as, then ``fields``."""
    manifest = {"strategy": strategy, "variant": variant, "shop_id": shop.shop_id,
                "corpus_id": shop.corpus_id, **fields}
    files.write_atomic(Path(out) / MANIFEST, json.dumps(manifest, indent=2))


def write_ledger(out, ledger: CostLedger) -> None:
    files.write_atomic(Path(out) / LEDGER, ledger.to_json())


def remove_products(out) -> None:
    if (Path(out) / PRODUCTS).exists():
        shutil.rmtree(Path(out) / PRODUCTS)


def resume_products(out) -> dict[str, FoodProduct]:
    """Make a direct run's ``products/`` and return the pages finished in it."""
    (Path(out) / PRODUCTS).mkdir(parents=True, exist_ok=True)
    return read_products(out)


def write_product(out, page_id: str, product: FoodProduct) -> None:
    """A finished direct page's only record."""
    files.write_atomic(os.path.join(out, PRODUCTS, f"{page_id}.json"), serialize_product(product))


def write_products_json(fh, page_results, texts=None) -> None:
    """Stream a run's products.json to ``fh``, one write per item in page_id
    order. The bytes are exactly those of ``json.dump([r.to_dict() for each
    result in page_id order], fh, indent=2, ensure_ascii=False)``, in that
    call's fixed layout with the C escaper ``json_string`` it uses.

    ``texts``, if given, maps page_id to (product, its text) as the previous
    write for the same pages left it, and is left holding this write's: a
    page whose product is the very object written before reuses its text,
    so a run revisiting pages serializes only what changed. Identity, never
    ``==``, decides: ``Decimal("1.0") == Decimal("1.00")``, but they print
    apart. Without ``texts`` every product is serialized and none is kept."""
    opening = "[\n  "
    for page_id in sorted(page_results):
        result = page_results[page_id]
        product = result.product
        kept = None if texts is None else texts.get(page_id)
        if kept is not None and kept[0] is product:
            text = kept[1]
        else:
            text = serialize_product(product, "    ")
            if texts is not None:
                texts[page_id] = (product, text)
        fh.write(
            f'{opening}{{\n    "page_id": {json_string(result.page_id)},'
            f'\n    "source": {json_string(result.source)},'
            f'\n    "count_extracted": {result.count_extracted},'
            f'\n    "product": {text}\n  }}'
        )
        opening = ",\n  "
    fh.write("\n]" if page_results else "[]")
    if texts is not None and len(texts) > len(page_results):  # pages this write lacks
        for page_id in texts.keys() - page_results.keys():
            del texts[page_id]


def write_run(out, index: int, result, texts=None) -> None:
    """A ``ShopRunResult``'s ``run-NN/``; products.json streams to its ``.tmp``,
    reusing and then holding ``texts`` as ``write_products_json`` does."""
    run = Path(out) / f"run-{index:02d}"
    run.mkdir(parents=True, exist_ok=True)
    with files.atomic_writer(run / RUN_PRODUCTS) as fh:
        write_products_json(fh, result.page_results, texts)
    files.write_atomic(run / LIBRARY, result.library.to_json())
    files.write_atomic(run / METRICS, result.metrics.to_json())
    write_ledger(run, result.ledger)


def write_summary(out, shop_id: str, master_seed: int, run_seeds: list[int], metrics: list,
                  dist) -> None:
    """summary.json over the runs' metrics and, with an accuracy distribution, summary.csv."""
    summary = dict(master_seed=master_seed, runs=len(run_seeds), run_seeds=run_seeds,
                   accuracies=[m.accuracy for m in metrics],
                   primary_calls=[m.llm_calls_primary_model for m in metrics], distribution=dist)
    files.write_atomic(Path(out) / SUMMARY, json.dumps(summary, indent=2, ensure_ascii=False))
    if dist is not None:
        files.write_atomic(Path(out) / SUMMARY_CSV, "shop_id,runs,min,mean,max,stddev\n"
                     f"{shop_id},{dist['n']},{dist['min']:.4f},{dist['mean']:.4f},"
                     f"{dist['max']:.4f},{dist['stddev']:.4f}\n")


def write_compressed(out, doc) -> None:
    suffix = ".txt" if doc.variant.value == "TEXT" else ".html"  # evaluate loads no compress
    files.write_atomic(os.path.join(out, doc.page_id + suffix), doc.content)


def write_token_manifest(out, counts: list[tuple[str, str, int, int]]) -> None:
    keys = ("page_id", "variant", "token_count", "original_token_count")
    files.write_atomic(Path(out) / MANIFEST, json.dumps([dict(zip(keys, c)) for c in counts], indent=2))


def _read(path, parse):
    """``parse`` of the text of ``path``; any fault is a MalformedProduct naming it."""
    try:
        return parse(files.read_text(path))
    except (*READ_ERRORS, SchemaViolation, ArithmeticError) as exc:
        detail = exc if isinstance(exc, SchemaViolation) else f"{type(exc).__name__}: {exc}"
        raise MalformedProduct(f"{path}: {detail}") from exc


def _manifest(text: str) -> dict:
    manifest = json.loads(text)
    scoring = {key: manifest[key] for key in ("strategy", "corpus_id", "shop_id")}
    scoring["variant"] = manifest.get("variant", "HTML_COMPRESSED")
    if scoring["strategy"] not in ("direct", "indirect") or not all(
            isinstance(value, str) for value in scoring.values()):
        raise ValueError(f"want strategy direct or indirect and string ids, got {scoring}")
    return scoring


def _ledger_counts(text: str) -> dict:
    """``evaluate``'s call counts and cost of a run, from its ledger.json."""
    ledger = CostLedger.from_json(text)
    (primary, _), (decision, _) = ledger.by_model()
    return {"calls_primary": primary, "calls_decision": decision,
            "cost_usd": str(ledger.total_usd)}


def _run_products(text: str, read: dict) -> dict[str, FoodProduct]:
    """A run's products.json, product by page_id. ``read`` holds (page_id,
    product) by the exact text of each item read before, so an item the runs
    repeat is validated once; the key is the text, never the decoded value,
    which takes ``true`` for 1."""
    products: dict[str, FoodProduct] = {}
    for item, entry in _array_items(text):
        known = read.get(item)
        if known is None:
            known = read[item] = (entry["page_id"], product_from_dict(entry["product"]))
        page_id, product = known
        if page_id in products:
            raise ValueError(f"page {page_id!r} is listed twice")
        products[page_id] = product
    return products


_DECODER = json.JSONDecoder(parse_float=Decimal)
_SPACE = re.compile(r"[ \t\n\r]*")


def _array_items(text: str) -> list[tuple[str, object]]:
    """(exact text, value) of each item of the JSON array ``text``, decoded
    as ``json.loads(text, parse_float=Decimal)`` decodes it; a text it
    refuses raises ValueError. Any other JSON value gives what iterating it
    gives (an object's keys, a string's characters), each under the whole
    text: no such item is a products.json entry."""
    scan, space = _DECODER.scan_once, _SPACE.match
    at = space(text, 0).end()
    if not text.startswith("[", at):
        return [(text, value) for value in json.loads(text, parse_float=Decimal)]
    items, at = [], space(text, at + 1).end()
    if not text.startswith("]", at):
        while True:
            try:
                value, end = scan(text, at)
            except StopIteration:
                raise ValueError(f"want a JSON value at character {at}") from None
            items.append((text[at:end], value))
            at = space(text, end).end()
            if not text.startswith(",", at):
                break
            at = space(text, at + 1).end()
        if not text.startswith("]", at):
            raise ValueError(f"want ',' or ']' at character {at}")
    if space(text, at + 1).end() != len(text):
        raise ValueError(f"extra data at character {at + 1}")
    return items


def read_products(out) -> dict[str, FoodProduct]:
    """A direct run's finished pages by page_id (a stray ``*.json.tmp`` is not one)."""
    return {page_id: _read(path, parse_product)
            for page_id, path in list_files(os.path.join(out, PRODUCTS), ".json")}


def read_results(root):
    """``evaluate``'s scoring arguments for the run directory, and per run (a direct
    directory is one, an indirect one holds ``run-NN/``) its products and the
    calls and cost of its ledger.json, read as the iteration reaches it."""
    root = Path(root)
    scoring = _read(root / MANIFEST, _manifest)
    failed = _read(root / FAILURES, json.loads) if (root / FAILURES).exists() else {}
    if not isinstance(failed, dict):
        raise MalformedProduct(f"{root / FAILURES}: want a JSON object of page_id to reason,"
                               f" not {failed!r:.40}")
    scoring["failed"] = failed
    if scoring["strategy"] == "direct":
        runs, products = [root], read_products
    else:
        runs, read = sorted(root.glob(RUNS)), {}  # read: see _run_products
        if not runs:
            raise MalformedProduct(f"{root}: an indirect run directory holds no {RUNS} run")

        def products(run):
            return _read(run / RUN_PRODUCTS, lambda text: _run_products(text, read))
    return scoring, ((products(run), _read(run / LEDGER, _ledger_counts)) for run in runs)
