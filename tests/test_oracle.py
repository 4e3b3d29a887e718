import json

import jsonschema
import pytest

from prodex.direct import build_direct_prompts
from prodex.dsl import (
    decision_program_json_schema,
    extraction_program_json_schema,
    parse_program,
    run_decision,
    run_extraction_on_tree,
)
from prodex.htmltree import parse_html
from prodex.oracle import OracleConfig, OracleProvider
from prodex.schema import (
    parse_product,
    to_json_schema_dict,
)
from prodex.similarity import compare


@pytest.fixture()
def oracle(small_gamma):
    return OracleProvider(small_gamma, OracleConfig())


def _direct_prompts(corpus, compressed, page_id):
    html_doc, _ = compressed[page_id]
    return build_direct_prompts(html_doc)


class TestDirectAnswers:
    def test_returns_ground_truth_product(self, small_gamma, compressed_gamma, oracle):
        for doc in small_gamma.pages[:6]:
            system, user = _direct_prompts(small_gamma, compressed_gamma, doc.page_id)
            exchange = oracle.complete_structured(
                "o3-mini", system, user, to_json_schema_dict()
            )
            product = parse_product(exchange.response_text)
            truth = small_gamma.truth[doc.page_id].product
            assert compare(product, truth).overall == 1.0

    def test_unknown_page_yields_empty_product(self, oracle):
        exchange = oracle.complete_structured(
            "o3-mini", "s", "no page marker here",
            to_json_schema_dict(),
        )
        assert exchange.response_text == "{}"
        assert parse_product(exchange.response_text).populated_fields() == ()

    def test_never_returns_unparsable_json(self, small_gamma, compressed_gamma, oracle):
        schema = to_json_schema_dict()
        for doc in small_gamma.pages[:10]:
            system, user = _direct_prompts(small_gamma, compressed_gamma, doc.page_id)
            exchange = oracle.complete_structured("o3-mini", system, user, schema)
            parse_product(exchange.response_text)
            assert jsonschema.Draft202012Validator(schema).is_valid(
                json.loads(exchange.response_text)
            )

    def test_deterministic(self, small_gamma, compressed_gamma, oracle):
        system, user = _direct_prompts(small_gamma, compressed_gamma, small_gamma.pages[0].page_id)
        schema = to_json_schema_dict()
        a = oracle.complete_structured("o3-mini", system, user, schema)
        b = oracle.complete_structured("o3-mini", system, user, schema)
        assert a == b


class TestDecisionAnswers:
    def test_emits_valid_decision_programs_that_classify_corpus(
        self, small_gamma, compressed_gamma, oracle
    ):
        schema = decision_program_json_schema()
        for member in range(5):
            exchange = oracle.complete_structured(
                "gpt-4o", "sys", f"member token {member}", schema
            )
            program = parse_program(exchange.response_text)
            for doc in small_gamma.pages:
                record = small_gamma.truth[doc.page_id]
                expected = record.has_nutrition or record.has_ingredients
                got = run_decision(program, compressed_gamma[doc.page_id][1])
                assert got == expected

    def test_variants_differ_across_member_tokens(self, oracle):
        schema = decision_program_json_schema()
        programs = {
            oracle.complete_structured("gpt-4o", "sys", f"tok {i}", schema).response_text
            for i in range(8)
        }
        assert len(programs) > 1


def _funcgen_prompt(corpus, compressed, page_id, token="t0"):
    html_doc, _ = compressed[page_id]
    return (
        f"Attempt token: {token}\n"
        f"Reference object: ...\n"
        f"Compressed page HTML:\n{html_doc.content}"
    )


def _refine_prompt(corpus, compressed, page_id, program, token="t0"):
    html_doc, _ = compressed[page_id]
    return (
        f"Attempt token: {token}\n"
        f"Current extraction program:\n{program.to_json()}\n"
        f"Compressed page HTML:\n{html_doc.content}"
    )


class TestProgramGeneration:
    def test_zero_imperfections_gives_true_program(self, small_gamma, compressed_gamma, oracle):
        page = next(
            d for d in small_gamma.pages
            if small_gamma.truth[d.page_id].has_nutrition
        )
        schema = extraction_program_json_schema()
        prompt = _funcgen_prompt(small_gamma, compressed_gamma, page.page_id)
        exchange = oracle.complete_structured("o3-mini", "sys", prompt, schema)
        program = parse_program(exchange.response_text)
        tree = parse_html(compressed_gamma[page.page_id][0].content)
        outcome = run_extraction_on_tree(program, tree)
        truth = small_gamma.truth[page.page_id]
        assert compare(outcome.product, truth.product).overall == 1.0

    def test_k_imperfections_repaired_one_per_refinement(self, small_gamma, compressed_gamma):
        oracle = OracleProvider(small_gamma, OracleConfig(imperfections_per_generation=2))
        page = next(
            d for d in small_gamma.pages
            if small_gamma.truth[d.page_id].has_nutrition
            and small_gamma.truth[d.page_id].has_ingredients
        )
        record = small_gamma.truth[page.page_id]
        tree = parse_html(compressed_gamma[page.page_id][0].content)
        schema = extraction_program_json_schema()

        prompt = _funcgen_prompt(small_gamma, compressed_gamma, page.page_id)
        program = parse_program(
            oracle.complete_structured("o3-mini", "sys", prompt, schema).response_text
        )
        scores = [compare(run_extraction_on_tree(program, tree).product, record.product).overall]
        for _ in range(2):
            refine = _refine_prompt(small_gamma, compressed_gamma, page.page_id, program)
            program = parse_program(
                oracle.complete_structured("o3-mini", "sys", refine, schema).response_text
            )
            scores.append(
                compare(run_extraction_on_tree(program, tree).product, record.product).overall
            )
        assert scores[0] < 1.0
        assert scores[0] <= scores[1] < 1.0 or scores[1] == 1.0
        assert scores[2] == 1.0

    def test_unreparable_template_never_repairs(self, small_gamma, compressed_gamma):
        oracle = OracleProvider(
            small_gamma, OracleConfig(unreparable_templates=frozenset({"tafel"}))
        )
        page = next(
            d for d in small_gamma.pages
            if small_gamma.truth[d.page_id].template_id == "tafel"
            and small_gamma.truth[d.page_id].has_nutrition
        )
        record = small_gamma.truth[page.page_id]
        tree = parse_html(compressed_gamma[page.page_id][0].content)
        schema = extraction_program_json_schema()
        prompt = _funcgen_prompt(small_gamma, compressed_gamma, page.page_id)
        program = parse_program(
            oracle.complete_structured("o3-mini", "sys", prompt, schema).response_text
        )
        first = compare(run_extraction_on_tree(program, tree).product, record.product).overall
        assert first < 1.0
        refine = _refine_prompt(small_gamma, compressed_gamma, page.page_id, program)
        refined = parse_program(
            oracle.complete_structured("o3-mini", "sys", refine, schema).response_text
        )
        assert refined == program  # unchanged: refinement refuses to help

    def test_generation_valid_against_dsl_schema(self, small_gamma, compressed_gamma, oracle):
        schema = extraction_program_json_schema()
        page = small_gamma.pages[0]
        prompt = _funcgen_prompt(small_gamma, compressed_gamma, page.page_id)
        exchange = oracle.complete_structured("o3-mini", "sys", prompt, schema)
        assert jsonschema.Draft202012Validator(schema).is_valid(json.loads(exchange.response_text))
