import json
import re
from pathlib import Path

import jsonschema
import pytest

from prodex import files
from prodex.compress import CompressedDocument, Variant, compress_both
from prodex.direct import extract_direct, extract_direct_batch
from prodex.rundir import MalformedProduct, read_products
from prodex.gateway import CostLedger
from prodex.oracle import OracleConfig, OracleProvider
from prodex.schema import (
    filled_field_ratio,
    product_to_dict,
    serialize_product,
    to_json_schema_dict,
)
from prodex.similarity import compare


@pytest.fixture()
def oracle(small_alpha):
    return OracleProvider(small_alpha, OracleConfig())


class TestExtractDirect:
    def test_full_page_matches_truth_exactly(self, small_alpha, oracle):
        page = next(
            d for d in small_alpha.pages
            if small_alpha.truth[d.page_id].has_nutrition
            and small_alpha.truth[d.page_id].has_ingredients
        )
        html_doc, _ = compress_both(page)
        product = extract_direct(html_doc, oracle, "o3-mini")
        truth = small_alpha.truth[page.page_id].product
        assert filled_field_ratio(product) >= 0.875
        assert compare(product, truth).overall == 1.0

    def test_fresh_produce_page_has_no_ingredient_statement(self, small_alpha, oracle):
        page = next(
            d for d in small_alpha.pages
            if not small_alpha.truth[d.page_id].has_ingredients
            and not small_alpha.truth[d.page_id].has_nutrition
        )
        html_doc, _ = compress_both(page)
        product = extract_direct(html_doc, oracle, "o3-mini")
        assert product.ingredient_statement is None

    def test_empty_text_document_yields_empty_product(self, oracle):
        doc = CompressedDocument("ghost", Variant.TEXT, "", 0)
        product = extract_direct(doc, oracle, "o3-mini")
        assert product.populated_fields() == ()

    def test_text_variant_works(self, small_alpha, oracle):
        page = small_alpha.pages[0]
        _, text_doc = compress_both(page)
        product = extract_direct(text_doc, oracle, "o3-mini")
        truth = small_alpha.truth[page.page_id].product
        assert compare(product, truth).overall == 1.0

    def test_result_revalidates_against_emitted_schema(self, small_alpha, oracle):
        schema = to_json_schema_dict()
        for page in small_alpha.pages[:5]:
            html_doc, _ = compress_both(page)
            product = extract_direct(html_doc, oracle, "o3-mini")
            payload = json.dumps(product_to_dict(product), ensure_ascii=False)
            assert jsonschema.Draft202012Validator(schema).is_valid(json.loads(payload))


class _CountingProvider:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete_structured(self, *args, **kwargs):
        self.calls += 1
        return self.inner.complete_structured(*args, **kwargs)


class _FailingProvider:
    """Fails on a fixed set of page ids (simulating flaky pages)."""

    def __init__(self, inner, bad_pages):
        self.inner = inner
        self.bad_pages = bad_pages

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        if any(f"Art.-Nr. {p}" in user_prompt for p in self.bad_pages):
            from prodex.gateway import TransportError

            raise TransportError("scripted failure")
        return self.inner.complete_structured(model_id, system_prompt, user_prompt, json_schema)


class _FixedAnswerProvider:
    """Answers every page with the same response text."""

    def __init__(self, response):
        self.response = response

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        from prodex.gateway import ChatExchange, Usage

        return ChatExchange(self.response, Usage())


class _DeeplyNestedProvider:
    """Answers pages in a scripted set with JSON nested past the recursion limit."""

    def __init__(self, inner, bad_pages):
        self.inner = inner
        self.bad_pages = bad_pages

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        from prodex.gateway import ChatExchange, Usage

        if any(f"Art.-Nr. {p}" in user_prompt for p in self.bad_pages):
            return ChatExchange("[" * 100_000, Usage())
        return self.inner.complete_structured(model_id, system_prompt, user_prompt, json_schema)


class TestBatch:
    def _docs(self, corpus, n=None):
        docs = []
        for page in corpus.pages[: n or len(corpus.pages)]:
            html_doc, _ = compress_both(page)
            docs.append(html_doc)
        return docs

    def test_one_ledger_entry_per_page_tagged_direct(self, small_alpha, oracle):
        docs = self._docs(small_alpha, 20)
        ledger = CostLedger()
        results, failures = extract_direct_batch(docs, oracle, "o3-mini", ledger)
        assert len(results) == 20
        assert not failures
        assert len(ledger.entries) == 20
        assert all(e.role_tag == "direct" for e in ledger.entries)
        assert all(e.model_id == "o3-mini" for e in ledger.entries)

    def test_empty_corpus(self, oracle):
        ledger = CostLedger()
        results, failures = extract_direct_batch([], oracle, "o3-mini", ledger)
        assert results == {}
        assert failures == {}
        assert ledger.entries == []

    def test_resume_skips_checkpointed_pages(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 10)
        counting = _CountingProvider(oracle)
        ledger = CostLedger()
        extract_direct_batch(docs[:4], counting, "o3-mini", ledger, out_dir=tmp_path)
        assert counting.calls == 4

        results, failures = extract_direct_batch(
            docs, counting, "o3-mini", CostLedger(), out_dir=tmp_path
        )
        assert counting.calls == 10  # only the remaining 6 pages hit the provider
        assert len(results) == 10
        assert not failures

    def test_checkpoint_is_one_product_file_per_page(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 3)
        results, _ = extract_direct_batch(docs, oracle, "o3-mini", CostLedger(), out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["products"]
        products = tmp_path / "products"
        assert sorted(p.name for p in products.iterdir()) == sorted(
            f"{d.page_id}.json" for d in docs
        )
        for page_id, product in results.items():
            written = (products / f"{page_id}.json").read_text(encoding="utf-8")
            assert written == serialize_product(product)
        assert read_products(tmp_path) == results

    def test_interrupted_write_re_extracts_only_that_page(
        self, small_alpha, oracle, tmp_path, monkeypatch
    ):
        docs = self._docs(small_alpha, 5)
        real_write_text = files.write_text
        writes = []

        def torn_write(path, data, *args, **kwargs):
            writes.append(path)
            if len(writes) == len(docs):  # the last page's write stops midway
                real_write_text(path, data[: len(data) // 2], *args, **kwargs)
                raise KeyboardInterrupt
            return real_write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(files, "write_text", torn_write)
        with pytest.raises(KeyboardInterrupt):
            extract_direct_batch(docs, oracle, "o3-mini", CostLedger(), out_dir=tmp_path)
        monkeypatch.undo()
        products = tmp_path / "products"
        assert [p.name for p in products.glob("*.tmp")] == [f"{docs[-1].page_id}.json.tmp"]

        counting = _CountingProvider(oracle)
        ledger = CostLedger()
        again, failures = extract_direct_batch(
            docs, counting, "o3-mini", ledger, out_dir=tmp_path
        )
        assert counting.calls == 1
        assert [e.page_id for e in ledger.entries] == [docs[-1].page_id]
        assert not failures
        first, _ = extract_direct_batch(docs, oracle, "o3-mini", CostLedger())
        assert list(again.items()) == list(first.items())
        assert sorted(p.name for p in products.iterdir()) == sorted(
            f"{d.page_id}.json" for d in docs
        )

    def test_unparsable_product_file_is_an_error(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 3)
        extract_direct_batch(docs, oracle, "o3-mini", CostLedger(), out_dir=tmp_path)
        bad = tmp_path / "products" / f"{docs[1].page_id}.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedProduct, match=re.escape(bad.name)):
            extract_direct_batch(docs, oracle, "o3-mini", CostLedger(), out_dir=tmp_path)

    def test_per_page_failures_recorded_batch_continues(self, small_alpha, oracle):
        docs = self._docs(small_alpha, 8)
        bad = {docs[2].page_id, docs[5].page_id}
        provider = _FailingProvider(oracle, bad)
        ledger = CostLedger()
        results, failures = extract_direct_batch(docs, provider, "o3-mini", ledger)
        assert set(failures) == bad
        assert len(results) == 6

    def test_non_finite_number_is_a_page_failure(self, small_alpha):
        docs = self._docs(small_alpha, 2)
        provider = _FixedAnswerProvider('{"fat": {"value": NaN, "unit_code": "GRM"}}')
        results, failures = extract_direct_batch(docs, provider, "o3-mini", CostLedger())
        assert results == {}
        assert set(failures) == {doc.page_id for doc in docs}

    def test_out_of_range_number_is_a_page_failure(self, small_alpha, tmp_path):
        docs = self._docs(small_alpha, 2)
        provider = _FixedAnswerProvider('{"fat":{"value":1e1000000}}')
        results, failures = extract_direct_batch(
            docs, provider, "o3-mini", CostLedger(), out_dir=tmp_path
        )
        assert results == {}
        assert set(failures) == {doc.page_id for doc in docs}
        assert list((tmp_path / "products").iterdir()) == []

    def test_deeply_nested_response_is_a_page_failure(self, small_alpha, oracle):
        docs = self._docs(small_alpha, 3)
        provider = _DeeplyNestedProvider(oracle, {docs[1].page_id})
        ledger = CostLedger()
        results, failures = extract_direct_batch(docs, provider, "o3-mini", ledger)
        assert set(failures) == {docs[1].page_id}
        assert list(results) == [docs[0].page_id, docs[2].page_id]
        assert [e.page_id for e in ledger.entries].count(docs[1].page_id) == 2  # one retry

    def test_products_written_to_out_dir(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 3)
        extract_direct_batch(
            docs, oracle, "o3-mini", CostLedger(), out_dir=tmp_path
        )
        written = sorted(p.name for p in (tmp_path / "products").glob("*.json"))
        assert written == sorted(f"{d.page_id}.json" for d in docs)


class TestCallCountLaw:
    def test_exactly_n_calls_for_n_pages(self, small_alpha, oracle):
        docs = []
        for page in small_alpha.pages:
            html_doc, _ = compress_both(page)
            docs.append(html_doc)
        counting = _CountingProvider(oracle)
        results, failures = extract_direct_batch(docs, counting, "o3-mini", CostLedger())
        assert counting.calls == len(small_alpha.pages)
        assert len(results) + len(failures) == len(small_alpha.pages)


class TestParallelBatch:
    def test_worker_pool_matches_sequential_results(self, small_alpha, oracle):
        docs = []
        for page in small_alpha.pages[:16]:
            html_doc, _ = compress_both(page)
            docs.append(html_doc)
        sequential, _ = extract_direct_batch(docs, oracle, "o3-mini", CostLedger())
        ledger = CostLedger()
        parallel, failures = extract_direct_batch(
            docs, oracle, "o3-mini", ledger, workers=4
        )
        assert not failures
        assert len(ledger.entries) == 16
        assert list(parallel.items()) == list(sequential.items())

    def test_worker_pool_checkpoint_resumes_without_calls(self, small_alpha, oracle, tmp_path):
        docs = []
        for page in small_alpha.pages[:12]:
            html_doc, _ = compress_both(page)
            docs.append(html_doc)
        first, failures = extract_direct_batch(
            docs, oracle, "o3-mini", CostLedger(), out_dir=tmp_path, workers=4
        )
        assert not failures
        assert sorted(read_products(tmp_path)) == sorted(d.page_id for d in docs)

        counting = _CountingProvider(oracle)
        again, failures = extract_direct_batch(
            docs, counting, "o3-mini", CostLedger(), out_dir=tmp_path, workers=4
        )
        assert counting.calls == 0
        assert not failures
        assert list(again.items()) == list(first.items())

    def test_pages_finished_on_many_threads_are_all_kept(self, small_alpha, oracle, tmp_path):
        """Worker threads record their pages' products, failures and product
        files at once: with more workers than cores and a short switch
        interval, no page is lost, and the ledger lists every attempt in
        document order."""
        import sys

        docs = [compress_both(page)[0] for page in small_alpha.pages[:40]]
        bad = {doc.page_id for doc in docs[::3]}
        ledger, interval = CostLedger(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            products, failures = extract_direct_batch(
                docs, _DeeplyNestedProvider(oracle, bad), "o3-mini", ledger, out_dir=tmp_path,
                workers=16,
            )
        finally:
            sys.setswitchinterval(interval)
        assert set(failures) == bad
        assert list(products) == [doc.page_id for doc in docs if doc.page_id not in bad]
        assert sorted(read_products(tmp_path)) == sorted(products)
        assert [entry.page_id for entry in ledger.entries] == [
            doc.page_id for doc in docs for _ in range(2 if doc.page_id in bad else 1)]
