import json

import jsonschema
import pytest

from prodex.compress import CompressedDocument, Variant, compress_both
from prodex.direct import extract_direct, extract_direct_batch
from prodex.gateway import CostLedger
from prodex.oracle import OracleConfig, OracleProvider
from prodex.schema import (
    filled_field_ratio,
    product_to_dict,
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
        html_doc, _, _ = compress_both(page)
        result = extract_direct(html_doc, oracle, "o3-mini")
        truth = small_alpha.truth[page.page_id].product
        assert filled_field_ratio(result.product) >= 0.875
        assert compare(result.product, truth).overall == 1.0
        assert result.variant_used is Variant.HTML_COMPRESSED

    def test_fresh_produce_page_has_no_ingredient_statement(self, small_alpha, oracle):
        page = next(
            d for d in small_alpha.pages
            if not small_alpha.truth[d.page_id].has_ingredients
            and not small_alpha.truth[d.page_id].has_nutrition
        )
        html_doc, _, _ = compress_both(page)
        result = extract_direct(html_doc, oracle, "o3-mini")
        assert result.product.ingredient_statement is None

    def test_empty_text_document_yields_empty_product(self, oracle):
        doc = CompressedDocument("ghost", Variant.TEXT, "", 0)
        result = extract_direct(doc, oracle, "o3-mini")
        assert result.product.populated_fields() == ()

    def test_text_variant_works(self, small_alpha, oracle):
        page = small_alpha.pages[0]
        _, text_doc, _ = compress_both(page)
        result = extract_direct(text_doc, oracle, "o3-mini")
        truth = small_alpha.truth[page.page_id].product
        assert compare(result.product, truth).overall == 1.0
        assert result.variant_used is Variant.TEXT

    def test_result_revalidates_against_emitted_schema(self, small_alpha, oracle):
        schema = to_json_schema_dict()
        for page in small_alpha.pages[:5]:
            html_doc, _, _ = compress_both(page)
            result = extract_direct(html_doc, oracle, "o3-mini")
            payload = json.dumps(product_to_dict(result.product), ensure_ascii=False)
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


class _NonFiniteProvider:
    """Answers every page with a schema-valid product whose fat is NaN."""

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        from prodex.gateway import ChatExchange, Usage

        response = '{"fat": {"value": NaN, "unit_code": "GRM"}}'
        return ChatExchange(model_id, system_prompt, user_prompt, response, Usage())


class _DeeplyNestedProvider:
    """Answers pages in a scripted set with JSON nested past the recursion limit."""

    def __init__(self, inner, bad_pages):
        self.inner = inner
        self.bad_pages = bad_pages

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        from prodex.gateway import ChatExchange, Usage

        if any(f"Art.-Nr. {p}" in user_prompt for p in self.bad_pages):
            return ChatExchange(model_id, system_prompt, user_prompt, "[" * 100_000, Usage())
        return self.inner.complete_structured(model_id, system_prompt, user_prompt, json_schema)


class TestBatch:
    def _docs(self, corpus, n=None):
        docs = []
        for page in corpus.pages[: n or len(corpus.pages)]:
            html_doc, _, _ = compress_both(page)
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
        assert results == []
        assert failures == {}
        assert ledger.entries == []

    def test_resume_skips_checkpointed_pages(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 10)
        checkpoint = tmp_path / "checkpoint.jsonl"
        counting = _CountingProvider(oracle)
        ledger = CostLedger()
        extract_direct_batch(docs[:4], counting, "o3-mini", ledger, checkpoint_path=checkpoint)
        assert counting.calls == 4

        results, failures = extract_direct_batch(
            docs, counting, "o3-mini", CostLedger(), checkpoint_path=checkpoint
        )
        assert counting.calls == 10  # only the remaining 6 pages hit the provider
        assert len(results) == 10
        assert not failures

    def test_checkpoint_is_one_json_line_per_page(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 3)
        checkpoint = tmp_path / "checkpoint.jsonl"
        results, _ = extract_direct_batch(
            docs, oracle, "o3-mini", CostLedger(), checkpoint_path=checkpoint
        )
        lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        assert [line["page_id"] for line in lines] == [d.page_id for d in docs]
        assert [line["product"] for line in lines] == [
            product_to_dict(r.product) for r in results
        ]

    def test_torn_final_line_re_extracts_only_that_page(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 5)
        checkpoint = tmp_path / "checkpoint.jsonl"
        first, _ = extract_direct_batch(
            docs, oracle, "o3-mini", CostLedger(), checkpoint_path=checkpoint
        )
        data = checkpoint.read_bytes()
        checkpoint.write_bytes(data[: len(data) - 20])  # interrupted mid-line

        counting = _CountingProvider(oracle)
        ledger = CostLedger()
        again, failures = extract_direct_batch(
            docs, counting, "o3-mini", ledger, checkpoint_path=checkpoint
        )
        assert counting.calls == 1
        assert [e.page_id for e in ledger.entries] == [docs[-1].page_id]
        assert not failures
        assert [r.product for r in again] == [r.product for r in first]
        lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        assert [line["page_id"] for line in lines] == [d.page_id for d in docs]

    def test_corrupt_inner_line_is_an_error(self, small_alpha, oracle, tmp_path):
        docs = self._docs(small_alpha, 3)
        checkpoint = tmp_path / "checkpoint.jsonl"
        extract_direct_batch(docs, oracle, "o3-mini", CostLedger(), checkpoint_path=checkpoint)
        lines = checkpoint.read_text().splitlines(keepends=True)
        checkpoint.write_text(lines[0] + "{not json\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match="line 2"):
            extract_direct_batch(
                docs, oracle, "o3-mini", CostLedger(), checkpoint_path=checkpoint
            )

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
        results, failures = extract_direct_batch(docs, _NonFiniteProvider(), "o3-mini", CostLedger())
        assert results == []
        assert set(failures) == {doc.page_id for doc in docs}

    def test_deeply_nested_response_is_a_page_failure(self, small_alpha, oracle):
        docs = self._docs(small_alpha, 3)
        provider = _DeeplyNestedProvider(oracle, {docs[1].page_id})
        ledger = CostLedger()
        results, failures = extract_direct_batch(docs, provider, "o3-mini", ledger)
        assert set(failures) == {docs[1].page_id}
        assert [r.page_id for r in results] == [docs[0].page_id, docs[2].page_id]
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
            html_doc, _, _ = compress_both(page)
            docs.append(html_doc)
        counting = _CountingProvider(oracle)
        results, failures = extract_direct_batch(docs, counting, "o3-mini", CostLedger())
        assert counting.calls == len(small_alpha.pages)
        assert len(results) + len(failures) == len(small_alpha.pages)


class TestParallelBatch:
    def test_worker_pool_matches_sequential_results(self, small_alpha, oracle):
        docs = []
        for page in small_alpha.pages[:16]:
            html_doc, _, _ = compress_both(page)
            docs.append(html_doc)
        sequential, _ = extract_direct_batch(docs, oracle, "o3-mini", CostLedger())
        ledger = CostLedger()
        parallel, failures = extract_direct_batch(
            docs, oracle, "o3-mini", ledger, workers=4
        )
        assert not failures
        assert len(ledger.entries) == 16
        assert [r.page_id for r in parallel] == [r.page_id for r in sequential]
        assert [r.product for r in parallel] == [r.product for r in sequential]

    def test_worker_pool_checkpoint_resumes_without_calls(self, small_alpha, oracle, tmp_path):
        docs = []
        for page in small_alpha.pages[:12]:
            html_doc, _, _ = compress_both(page)
            docs.append(html_doc)
        checkpoint = tmp_path / "checkpoint.jsonl"
        first, failures = extract_direct_batch(
            docs, oracle, "o3-mini", CostLedger(), checkpoint_path=checkpoint, workers=4
        )
        assert not failures
        lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        assert sorted(line["page_id"] for line in lines) == sorted(d.page_id for d in docs)

        counting = _CountingProvider(oracle)
        again, failures = extract_direct_batch(
            docs, counting, "o3-mini", CostLedger(), checkpoint_path=checkpoint, workers=4
        )
        assert counting.calls == 0
        assert not failures
        assert [r.product for r in again] == [r.product for r in first]
