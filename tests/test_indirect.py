import io
import json
from collections import Counter
from collections.abc import Mapping
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
import jsontext
from test_dsl import _programs

from prodex.compress import CompressedDocument, Variant, compress_both
from prodex.corpus import MissingRates, ShopSpec, builtin_templates, generate_shop
from prodex.dsl import (
    DecisionProgram,
    ExtractionProgram,
    Predicate,
    ProgramParseError,
    count_extracted,
    decision_program_json_schema,
    extraction_program_json_schema,
    parse_program,
    run_extraction_on_tree,
)
from prodex.evaluate import page_accuracy
from prodex.gateway import CostLedger, request_schema
from prodex.htmltree import parse_html
from prodex.indirect import (
    FunctionLibrary,
    OrchestratorConfig,
    Page,
    PageCache,
    PageResult,
    ReferenceUnattainable,
    acquire_reference,
    build_decision_ensemble,
    decide,
    process_shop,
    synthesize_program,
)
from prodex.oracle import OracleConfig, OracleProvider
from prodex.rundir import write_products_json
from prodex.schema import FoodProduct
from prodex.similarity import compare


def _sample_docs(corpus):
    compressed = {d.page_id: compress_both(d) for d in corpus.pages}
    samples = [
        (compressed[page_id][1], label)
        for page_id, label in sorted(corpus.labels.items())
    ]
    return compressed, samples


def _accuracy(result, corpus):
    """A run's accuracy as `extract indirect` scores it."""
    products = {page_id: r.product for page_id, r in result.page_results.items()}
    return page_accuracy(products, corpus.truth, failed=result.failures)[0]


def _products_json(result):
    """The run's products.json payload, as `extract indirect` writes it."""
    return json.dumps(
        [result.page_results[page_id].to_dict() for page_id in sorted(result.page_results)],
        indent=2, ensure_ascii=False,
    )


def _roles(entries):
    return Counter(e.role_tag for e in entries)


class TestDecisionEnsemble:
    def test_oracle_yields_full_marks_on_samples(self, small_alpha):
        _, samples = _sample_docs(small_alpha)
        oracle = OracleProvider(small_alpha, OracleConfig())
        ledger = CostLedger()
        config = OrchestratorConfig()
        ensemble = build_decision_ensemble(samples, oracle, config, ledger)
        assert len(ensemble) == 5
        from prodex.dsl import run_decision

        for program in ensemble:
            assert all(run_decision(program, doc) == label for doc, label in samples)
        assert len(ledger.entries) == 5
        assert all(e.role_tag == "decision_gen" for e in ledger.entries)
        assert all(e.model_id == "gpt-4o" for e in ledger.entries)

    def test_all_negative_samples_rejected(self, small_alpha):
        _, samples = _sample_docs(small_alpha)
        negatives = [(doc, False) for doc, _ in samples]
        oracle = OracleProvider(small_alpha, OracleConfig())
        with pytest.raises(ValueError):
            build_decision_ensemble(
                negatives, oracle, OrchestratorConfig(), CostLedger()
            )


def _const_program(result: bool, ident: str) -> DecisionProgram:
    # "x" never appears in the probe text; NOT(contains x) is constant-true.
    atom = Predicate(op="contains_keyword", value="xyzzy")
    predicate = Predicate(op="not", args=(atom,)) if result else atom
    return DecisionProgram(program_id=ident, predicate=predicate)


def _probe_doc():
    return CompressedDocument("probe", Variant.TEXT, "harmless text", 3)


class TestMajorityVote:
    def test_three_of_five_true(self):
        ensemble = [_const_program(v, f"p{i}") for i, v in enumerate([True, True, False, True, False])]
        assert decide(ensemble, _probe_doc()) is True

    def test_one_of_five_true(self):
        ensemble = [_const_program(v, f"p{i}") for i, v in enumerate([False, False, False, False, True])]
        assert decide(ensemble, _probe_doc()) is False

    def test_single_program_ensemble(self):
        assert decide([_const_program(True, "p")], _probe_doc()) is True
        assert decide([_const_program(False, "p")], _probe_doc()) is False

    def test_even_ensemble_rejected(self):
        ensemble = [_const_program(True, f"p{i}") for i in range(4)]
        with pytest.raises(ValueError):
            decide(ensemble, _probe_doc())

    def test_matches_mode_of_votes(self, small_alpha):
        _, samples = _sample_docs(small_alpha)
        oracle = OracleProvider(small_alpha, OracleConfig())
        ensemble = build_decision_ensemble(
            samples, oracle, OrchestratorConfig(), CostLedger()
        )
        from prodex.dsl import run_decision

        for doc, _ in samples:
            votes = [run_decision(p, doc) for p in ensemble]
            expected = sum(votes) * 2 > len(votes)
            assert decide(ensemble, doc) == expected


class TestAcquireReference:
    def test_full_page_accepted_with_one_call(self, small_gamma):
        oracle = OracleProvider(small_gamma, OracleConfig())
        page = next(
            d for d in small_gamma.pages
            if small_gamma.truth[d.page_id].has_nutrition
            and small_gamma.truth[d.page_id].has_ingredients
        )
        ledger = CostLedger()
        reference = acquire_reference(
            PageCache(small_gamma).page(page.page_id), oracle, OrchestratorConfig(), ledger,
        )
        assert _roles(ledger.entries) == {"reference": 1}
        assert compare(reference, small_gamma.truth[page.page_id].product).overall == 1.0

    def test_boundary_seven_of_eight_accepted(self, small_alpha):
        oracle = OracleProvider(small_alpha, OracleConfig())
        page = next(
            d for d in small_alpha.pages
            if small_alpha.truth[d.page_id].has_nutrition
            and not small_alpha.truth[d.page_id].has_ingredients
            and len(small_alpha.truth[d.page_id].product.populated_fields()) == 7
        )
        ledger = CostLedger()
        reference = acquire_reference(
            PageCache(small_alpha).page(page.page_id), oracle, OrchestratorConfig(), ledger,
        )
        assert len(reference.populated_fields()) == 7
        assert _roles(ledger.entries) == {"reference": 1}

    def test_low_fill_page_unattainable_after_two_calls(self, small_alpha):
        oracle = OracleProvider(small_alpha, OracleConfig())
        page = next(
            d for d in small_alpha.pages
            if not small_alpha.truth[d.page_id].has_nutrition
            and small_alpha.truth[d.page_id].has_ingredients
        )
        ledger = CostLedger()
        with pytest.raises(ReferenceUnattainable):
            acquire_reference(PageCache(small_alpha).page(page.page_id), oracle,
                              OrchestratorConfig(), ledger)
        assert len(ledger.entries) == 2
        assert all(e.role_tag == "reference" for e in ledger.entries)


class TestSynthesizeProgram:
    def _setup(self, corpus, **oracle_kwargs):
        oracle = OracleProvider(corpus, OracleConfig(**oracle_kwargs))
        page = next(
            d for d in corpus.pages
            if corpus.truth[d.page_id].has_nutrition
            and corpus.truth[d.page_id].has_ingredients
        )
        reference = corpus.truth[page.page_id].product
        return oracle, PageCache(corpus).page(page.page_id), reference

    def test_cooperative_oracle_accepts_on_first_attempt(self, small_gamma):
        oracle, page, reference = self._setup(small_gamma)
        ledger = CostLedger()
        result = synthesize_program(page, reference, oracle, OrchestratorConfig(), ledger)
        assert result.accepted is True
        assert result.best_similarity == 1.0
        assert _roles(ledger.entries)["func_gen"] == 1
        assert _roles(ledger.entries)["refine"] == 0
        assert result.best_program.generation == 0

    def test_two_imperfections_need_two_refinements(self, small_gamma):
        oracle, page, reference = self._setup(
            small_gamma, imperfections_per_generation=2
        )
        ledger = CostLedger()
        result = synthesize_program(page, reference, oracle, OrchestratorConfig(), ledger)
        assert result.accepted is True
        assert _roles(ledger.entries)["func_gen"] == 1
        assert _roles(ledger.entries)["refine"] == 2
        assert result.best_program.generation == 2
        assert len(ledger.entries) == 3

    def test_unreparable_exhausts_budget_and_keeps_best(self, small_gamma):
        oracle, page, reference = self._setup(
            small_gamma, unreparable_templates=frozenset({"tafel", "liste", "kacheln"})
        )
        config = OrchestratorConfig()
        ledger = CostLedger()
        result = synthesize_program(page, reference, oracle, config, ledger)
        budget = (1 + config.max_refinements) * (1 + config.max_alternatives)
        assert result.accepted is False
        roles = _roles(ledger.entries)
        assert roles["func_gen"] + roles["refine"] <= budget
        assert roles["func_gen"] + roles["refine"] == len(ledger.entries)
        assert result.best_program is not None
        assert 0.0 < result.best_similarity < 1.0


class TestProcessShop:
    def test_single_template_shop_generates_one_function(self, full_single_template):
        corpus = full_single_template
        oracle = OracleProvider(corpus, OracleConfig())
        config = OrchestratorConfig(rng_seed=5)
        result = process_shop(corpus, oracle, config)
        m = result.metrics
        assert m.functions_generated == 1
        assert len(result.library.entries) == 1
        served = sum(
            1 for r in result.page_results.values()
            if r.source == result.library.entries[0].program.program_id
        )
        assert served >= 99
        assert m.llm_calls_primary_model == m.reference_extractions + 1

    def test_three_template_shop_serves_each_page_from_its_template(
        self, small_gamma
    ):
        oracle = OracleProvider(small_gamma, OracleConfig())
        config = OrchestratorConfig(rng_seed=8)
        result = process_shop(small_gamma, oracle, config)
        assert result.metrics.functions_generated <= 3 + config.max_alternatives
        assert len(result.library.entries) == 3
        for page_id, page_result in result.page_results.items():
            record = small_gamma.truth[page_id]
            if not (record.has_nutrition or record.has_ingredients):
                assert page_result.source == "no-info"
                continue
            assert page_result.source.startswith(f"true-{record.template_id}")

    def test_decision_negative_pages_cost_nothing(self, small_alpha):
        oracle = OracleProvider(small_alpha, OracleConfig())
        config = OrchestratorConfig(rng_seed=2)
        result = process_shop(small_alpha, oracle, config)
        negative_pages = {
            r.page_id
            for r in small_alpha.truth.values()
            if not (r.has_nutrition or r.has_ingredients)
        }
        for page_id in negative_pages:
            assert result.page_results[page_id].source == "no-info"
            assert result.page_results[page_id].count_extracted == 0
        for entry in result.ledger.entries:
            if entry.page_id is not None:
                assert entry.page_id not in negative_pages

    def test_metrics_invariant_and_accuracy(self, small_gamma):
        oracle = OracleProvider(small_gamma, OracleConfig(imperfections_per_generation=1))
        result = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=4))
        m = result.metrics
        m.check_invariants()
        assert _accuracy(result, small_gamma) == 100.0
        assert m.llm_calls_decision_model == 5
        assert m.pages_total == len(small_gamma.pages)

    def test_check_invariants_catches_one_generation_too_many(self, small_gamma):
        oracle = OracleProvider(small_gamma, OracleConfig(imperfections_per_generation=1))
        m = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=4)).metrics
        episode = next(i for i, e in enumerate(m.synthesis_log) if "generations" in e)
        log = [dict(e) for e in m.synthesis_log]
        log[episode]["generations"] += 1
        with pytest.raises(AssertionError, match="functions_generated"):
            replace(m, synthesis_log=log).check_invariants()

    def test_deterministic_same_seed(self, small_gamma):
        oracle = OracleProvider(small_gamma, OracleConfig(imperfections_per_generation=1))
        first = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=9))
        second = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=9))
        assert first.metrics.to_json() == second.metrics.to_json()
        assert first.ledger.to_json() == second.ledger.to_json()
        assert first.library.to_json() == second.library.to_json()

    def test_different_seed_changes_visit_order_not_correctness(self, small_gamma):
        oracle = OracleProvider(small_gamma, OracleConfig())
        first = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=1))
        second = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=2))
        assert _accuracy(first, small_gamma) == _accuracy(second, small_gamma) == 100.0

    def test_reference_unattainable_pages_skip_and_continue(self):
        templates = builtin_templates()
        spec = ShopSpec(
            shop_id="thin",
            n_pages=10,
            templates=(templates["tafel"],),
            missing_rates=MissingRates(0.8, 0.0, 0.2),
            seed=3,
        )
        corpus = generate_shop(spec)
        oracle = OracleProvider(corpus, OracleConfig())
        config = OrchestratorConfig(rng_seed=1)
        result = process_shop(corpus, oracle, config)
        m = result.metrics
        m.check_invariants()
        assert m.functions_generated == 0
        assert m.reference_extractions == 16  # 8 positive pages x 2 attempts
        assert all(
            entry["outcome"] == "reference_unattainable" for entry in m.synthesis_log
        )

    def test_selection_count_is_stable_under_final_library(self, small_gamma):
        oracle = OracleProvider(small_gamma, OracleConfig())
        result = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=6))
        trees = {d.page_id: parse_html(compress_both(d)[0].content) for d in small_gamma.pages}
        for page_id, page_result in result.page_results.items():
            best = 0
            for entry in result.library.entries:
                outcome = run_extraction_on_tree(entry.program, trees[page_id])
                best = max(best, count_extracted(outcome.product))
            if page_result.source not in ("no-info", "none"):
                assert page_result.count_extracted == best


    def test_each_page_is_parsed_once_and_shared_between_runs(self, small_gamma, monkeypatch):
        from prodex import indirect

        compressed, scanned = Counter(), Counter()
        calls = {"parse": 0}
        real_compress, real_parse = indirect.compress_both, indirect.parse_html
        real_scan = indirect.run_extractions

        def counting_compress(doc):
            compressed[doc.page_id] += 1
            return real_compress(doc)

        def counting_parse(html):
            calls["parse"] += 1
            return real_parse(html)

        def counting_scan(scan, doc):
            scanned[doc.page_id] += 1
            return real_scan(scan, doc)

        monkeypatch.setattr(indirect, "compress_both", counting_compress)
        monkeypatch.setattr(indirect, "parse_html", counting_parse)
        monkeypatch.setattr(indirect, "run_extractions", counting_scan)
        oracle = OracleProvider(small_gamma, OracleConfig())
        cache = PageCache(small_gamma)
        first = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=2), cache)
        # Every page is scanned once for the library's programs, and a page
        # whose synthesis episode added a program once more, for that one.
        # Only the pages that are rendered are compressed, each once: the
        # samples, and the pages the decision ensemble judged. A labelled
        # page is first visited for its sample, and the loop's visit
        # continues that one. Only the trees the synthesis episodes work on
        # are parsed, each once, from the compressed HTML.
        episodes = first.metrics.synthesis_log
        assert any("generations" in e for e in episodes)
        synthesized = {e["page_id"] for e in episodes}
        added = {e["page_id"] for e in episodes if e.get("program_id")}
        judged = {page_id for page_id, r in first.page_results.items()
                  if r.source in ("no-info", "none")} | synthesized
        assert calls["parse"] == len(episodes)
        assert scanned == Counter({d.page_id: 1 + (d.page_id in added) for d in small_gamma.pages})
        assert compressed == Counter(dict.fromkeys(set(small_gamma.labels) | judged, 1))
        # The cache keeps a signature per page, and the contents some visit read:
        # the HTML of the synthesis pages, the TEXT of the samples and of the
        # pages the decision ensemble judged.
        assert set(cache.signatures) == {d.page_id for d in small_gamma.pages}
        assert set(cache.html) == synthesized
        assert set(cache.text) == set(small_gamma.labels) | judged

        compressed.clear()
        scanned.clear()
        calls.update(parse=0)
        second = process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=2), cache)
        # Every library result is memoised by the first run: only the trees
        # the synthesis episodes work on are parsed, from the kept HTML.
        episodes = second.metrics.synthesis_log
        assert episodes and all("generations" in e for e in episodes)
        assert compressed == scanned == Counter()
        assert calls == {"parse": len(episodes)}
        assert second.metrics.to_json() == first.metrics.to_json()
        assert _products_json(second) == _products_json(first)

    @pytest.mark.parametrize("seeds", [(2,), (1, 3)])
    def test_the_library_scan_equals_a_run_built_from_trees(self, small_gamma, monkeypatch, seeds):
        """Library programs run in a matching scan of the raw page, and a page
        is compressed only to be rendered: for its bootstrap sample, for the
        decision ensemble, or for a synthesis episode. The runs, sharing one
        cache, equal runs whose library programs run on each page's tree."""
        from prodex import indirect
        from prodex.htmltree import name_signature

        def on_trees(scan, doc):
            tree = parse_html(compress_both(doc)[0].content)
            products = [run_extraction_on_tree(ExtractionProgram("p", "FoodProduct", rules), tree)
                        .product for rules in scan.rule_sets]
            return products, name_signature(tree)

        oracle = OracleProvider(small_gamma, OracleConfig(imperfections_per_generation=1))

        def runs():
            cache = PageCache(small_gamma)
            return [process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=seed), cache)
                    for seed in seeds]

        compressed, judged = Counter(), set()
        real_compress, real_decide = indirect.compress_both, indirect.decide

        def counting_compress(doc):
            compressed[doc.page_id] += 1
            return real_compress(doc)

        def recording_decide(ensemble, doc):
            judged.add(doc.page_id)
            return real_decide(ensemble, doc)

        monkeypatch.setattr(indirect, "compress_both", counting_compress)
        monkeypatch.setattr(indirect, "decide", recording_decide)
        scanned = runs()
        synthesized = {e["page_id"] for result in scanned for e in result.metrics.synthesis_log}
        assert synthesized and len(judged) < len(small_gamma.pages)
        assert set(compressed) == set(small_gamma.labels) | judged | synthesized
        monkeypatch.setattr(indirect, "run_extractions", on_trees)
        for scan_run, tree_run in zip(scanned, runs(), strict=True):
            assert _products_json(scan_run) == _products_json(tree_run)
            assert scan_run.metrics.to_json() == tree_run.metrics.to_json()
            assert scan_run.ledger.to_json() == tree_run.ledger.to_json()
            assert scan_run.library.to_json() == tree_run.library.to_json()
            assert scan_run.failures == tree_run.failures

    def test_a_run_renders_only_the_variants_it_reads(self, small_gamma, monkeypatch):
        """A page is rendered, both variants in one scan, only where a visit
        reads one of them, and once per run; the cache keeps only the
        variants some visit read."""
        from prodex import htmltree, indirect

        rendered, judged = Counter(), set()
        page_ids = {d.html: d.page_id for d in small_gamma.pages}
        real_render, real_decide = htmltree.render_pruned, indirect.decide

        def counting_render(html, *args):
            rendered[page_ids[html]] += 1
            return real_render(html, *args)

        def recording_decide(ensemble, doc):
            judged.add(doc.page_id)
            return real_decide(ensemble, doc)

        monkeypatch.setattr(htmltree, "render_pruned", counting_render)
        monkeypatch.setattr(indirect, "decide", recording_decide)
        cache = PageCache(small_gamma)
        result = process_shop(small_gamma, OracleProvider(small_gamma, OracleConfig()),
                              OrchestratorConfig(rng_seed=2), cache)
        synthesized = {e["page_id"] for e in result.metrics.synthesis_log}
        assert synthesized and len(judged) < len(small_gamma.pages)
        assert rendered == Counter(dict.fromkeys(set(small_gamma.labels) | judged, 1))
        assert set(cache.html) == synthesized
        assert set(cache.text) == set(small_gamma.labels) | judged

    def test_the_cache_keeps_no_tree_and_no_unread_document(self, small_gamma):
        import gc
        import types

        from prodex.htmltree import Document, Element

        cache = PageCache(small_gamma)
        oracle = OracleProvider(small_gamma, OracleConfig(imperfections_per_generation=1))
        for seed in (1, 2):
            process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=seed), cache)
        assert cache.html and cache.text
        # An unread document would hold its tree, and so show up as a Document.
        opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
        seen, stack, documents = set(), [cache], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, opaque):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (Document, Element)), obj
            documents += isinstance(obj, CompressedDocument)
            stack.extend(gc.get_referents(obj))
        assert documents == len(cache.html) + len(cache.text)

    def test_unparsable_labeled_page_is_a_failure(self, small_gamma, monkeypatch):
        from dataclasses import replace

        from prodex import indirect

        empty = sorted(small_gamma.labels)[0]
        corpus = replace(small_gamma, pages=[
            replace(doc, html="") if doc.page_id == empty else doc for doc in small_gamma.pages
        ])
        sample_sizes = []
        real_build = indirect.build_decision_ensemble

        def recording_build(samples, *args, **kwargs):
            sample_sizes.append(len(samples))
            return real_build(samples, *args, **kwargs)

        monkeypatch.setattr(indirect, "build_decision_ensemble", recording_build)
        result = process_shop(corpus, OracleProvider(corpus, OracleConfig()),
                              OrchestratorConfig(rng_seed=2))
        assert sample_sizes == [len(corpus.labels) - 1]
        assert list(result.failures) == [empty]
        assert result.page_results[empty].count_extracted == 0
        scored = [
            compare(r.product, corpus.truth[page_id].product).overall
            for page_id, r in result.page_results.items() if page_id != empty
        ]
        assert _accuracy(result, corpus) == pytest.approx(100.0 * sum(scored) / len(corpus.pages))


def _change_one_part(rules, kind):
    """``rules`` with one rule changed in one respect: its node index, its
    capture, or the unit map of its ``to_unit_code`` post-op."""
    if not rules:
        return rules
    if kind == "node_index":
        i = 0
        changed = replace(rules[i], node_index=rules[i].node_index + 1)
    elif kind == "capture":
        i = next(i for i, rule in enumerate(rules) if rule.capture)
        changed = replace(rules[i], capture="(.*)")
    else:
        i = next(i for i, rule in enumerate(rules)
                 if any(op.op == "to_unit_code" for op in rule.post_ops))
        changed = replace(rules[i], post_ops=tuple(
            replace(op, unit_map=tuple((raw, code + "X") for raw, code in op.unit_map))
            if op.op == "to_unit_code" else op
            for op in rules[i].post_ops
        ))
    return rules[:i] + (changed,) + rules[i + 1:]


class _RuleEditingProvider:
    """Answers like ``inner``, except that every extraction program it returns
    has one part of one rule changed; program ids stay as they are."""

    def __init__(self, inner, kind):
        self.inner = inner
        self.kind = kind

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        exchange = self.inner.complete_structured(
            model_id, system_prompt, user_prompt, json_schema
        )
        try:
            program = parse_program(exchange.response_text)
        except ProgramParseError:
            return exchange
        if not isinstance(program, ExtractionProgram):
            return exchange
        edited = replace(program, rules=_change_one_part(program.rules, self.kind))
        return replace(exchange, response_text=edited.to_json())


class TestPageCache:
    def test_equal_rules_share_one_memo_entry(self, small_gamma):
        cache = PageCache(small_gamma)
        oracle = OracleProvider(small_gamma, OracleConfig())
        libraries = [
            process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=seed), cache).library
            for seed in (1, 2)
        ]
        programs = [e.program for library in libraries for e in library.entries]
        ids = {program.program_id for program in programs}
        rules = {program.rules for program in programs}
        assert len(ids) == len(programs) > len(rules)
        assert set(cache.results) == rules

    @pytest.mark.parametrize("kind", ["node_index", "capture", "post_op"])
    def test_a_rule_changed_in_one_part_is_a_miss(self, small_gamma, kind):
        oracle = OracleProvider(small_gamma, OracleConfig())
        edited = _RuleEditingProvider(oracle, kind)
        config = OrchestratorConfig(rng_seed=3)
        expected = process_shop(small_gamma, edited, config)
        cache = PageCache(small_gamma)
        unedited = process_shop(small_gamma, oracle, config, cache)
        result = process_shop(small_gamma, edited, config, cache)
        # The programs keep their ids, and only the change sets their results apart.
        assert [e.program.program_id for e in result.library.entries] == [
            e.program.program_id for e in unedited.library.entries
        ]
        assert _products_json(expected) != _products_json(unedited)
        assert _products_json(result) == _products_json(expected)
        assert result.metrics.to_json() == expected.metrics.to_json()

    def test_memoised_products_equal_a_fresh_run(self, small_gamma):
        cache = PageCache(small_gamma)
        oracle = OracleProvider(small_gamma, OracleConfig(imperfections_per_generation=1))
        for seed in (1, 2, 3):
            process_shop(small_gamma, oracle, OrchestratorConfig(rng_seed=seed), cache)
        empty_products = set()
        for rules, memo in cache.results.items():
            program = ExtractionProgram("fresh", "FoodProduct", rules)
            assert set(memo) == set(cache.pages)
            for page_id, (product, count) in memo.items():
                tree = parse_html(compress_both(cache.pages[page_id])[0].content)
                fresh = run_extraction_on_tree(program, tree).product
                assert product == fresh
                assert count == count_extracted(fresh)
                if count == 0:
                    empty_products.add(id(product))
        # Every result that extracts nothing shares one product.
        assert len(empty_products) == 1

    def test_unparsable_page_is_read_once_and_fails_every_run(self, small_gamma, monkeypatch):
        from prodex import indirect

        labeled = sorted(small_gamma.labels)[0]
        unlabeled = next(d.page_id for d in small_gamma.pages if d.page_id not in small_gamma.labels)
        corpus = replace(small_gamma, pages=[
            replace(doc, html="") if doc.page_id in (labeled, unlabeled) else doc
            for doc in small_gamma.pages
        ])
        compressed, scanned = Counter(), Counter()
        real_compress, real_scan = indirect.compress_both, indirect.run_extractions

        def counting_compress(doc):
            compressed[doc.page_id] += 1
            return real_compress(doc)

        def counting_scan(scan, doc):
            scanned[doc.page_id] += 1
            return real_scan(scan, doc)

        monkeypatch.setattr(indirect, "compress_both", counting_compress)
        monkeypatch.setattr(indirect, "run_extractions", counting_scan)
        cache = PageCache(corpus)
        oracle = OracleProvider(corpus, OracleConfig())
        for seed in (1, 2, 3):
            result = process_shop(corpus, oracle, OrchestratorConfig(rng_seed=seed), cache)
            assert list(result.failures) == [labeled, unlabeled]
            assert result.page_results[unlabeled].source == "none"
        # The unparsable pages are read once: the labelled one compressed for
        # its sample, the other scanned for the library. Every page is read.
        assert (compressed[labeled], scanned[labeled]) == (1, 0)
        assert (compressed[unlabeled], scanned[unlabeled]) == (0, 1)
        assert {*compressed, *scanned} == {d.page_id for d in corpus.pages}
        assert set(cache.unparsable) == {labeled, unlabeled}
        assert {labeled, unlabeled}.isdisjoint({*cache.signatures, *cache.html, *cache.text})

    def test_cache_of_other_pages_is_refused(self, small_gamma, small_alpha):
        cache = PageCache(small_gamma)
        oracle = OracleProvider(small_alpha, OracleConfig())
        with pytest.raises(ValueError, match="page cache"):
            process_shop(small_alpha, oracle, OrchestratorConfig(), cache)
        first = small_gamma.pages[0]
        edited = replace(small_gamma, pages=[replace(first, html=first.html + " ")]
                         + small_gamma.pages[1:])
        with pytest.raises(ValueError, match="page cache"):
            process_shop(edited, OracleProvider(edited, OracleConfig()), OrchestratorConfig(),
                         cache)
        assert (cache.signatures, cache.html, cache.text, cache.unparsable) == ({}, {}, {}, {})


class _UnreadableTruth(Mapping):
    """Ground truth that fails the test on any access."""

    def __getitem__(self, page_id):
        raise AssertionError(f"ground truth read for {page_id}")

    def __iter__(self):
        raise AssertionError("ground truth iterated")

    def __len__(self):
        raise AssertionError("ground truth sized")


class TestNoGroundTruth:
    def test_run_never_reads_ground_truth(self, small_gamma):
        config = OrchestratorConfig(rng_seed=4)
        oracle_config = OracleConfig(imperfections_per_generation=1)
        expected = process_shop(small_gamma, OracleProvider(small_gamma, oracle_config), config)
        blind = replace(small_gamma, truth=_UnreadableTruth())
        result = process_shop(blind, OracleProvider(small_gamma, oracle_config), config)
        assert result.metrics.accuracy is None
        assert list(result.page_results) == list(expected.page_results)
        assert [r.to_dict() for r in result.page_results.values()] == [
            r.to_dict() for r in expected.page_results.values()
        ]
        assert result.library.to_json() == expected.library.to_json()
        assert result.ledger.to_json() == expected.ledger.to_json()
        assert result.metrics.to_json() == expected.metrics.to_json()


class TestFunctionLibrary:
    def test_duplicate_ids_rejected(self, small_gamma):
        from prodex.corpus import true_program_for

        library = FunctionLibrary()
        library.add(true_program_for("tafel"))
        with pytest.raises(ValueError):
            library.add(true_program_for("tafel"))

    def test_serialization_shape(self):
        from prodex.corpus import true_program_for

        library = FunctionLibrary()
        entry = library.add(true_program_for("liste"))
        entry.pages_matched = 4
        entry.attrs_total = 30
        data = json.loads(library.to_json())
        assert data["programs"][0]["pages_matched"] == 4
        assert data["programs"][0]["mean_attributes_extracted"] == 7.5

    @given(st.lists(st.tuples(_programs, st.integers(0, 10**6), st.integers(0, 10**9)), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_json_is_byte_identical_to_json_dumps(self, drawn):
        """library.json on programs with awkward strings, unsorted maps and
        no rules, and on ratios that are not whole."""
        library = FunctionLibrary()
        for i, (program, matched, attrs) in enumerate(drawn):
            entry = library.add(replace(program, program_id=f"{program.program_id}-{i}"))
            entry.pages_matched, entry.attrs_total = matched, attrs
        reference = {"programs": [{
            "program": entry.program.to_dict(),
            "pages_matched": entry.pages_matched,
            "mean_attributes_extracted": entry.mean_attributes_extracted,
        } for entry in library.entries]}
        assert library.to_json() == json.dumps(reference, indent=2, ensure_ascii=False)


class _FlakyProvider:
    """Raises a transport error for pages in a scripted set, once ``served``
    calls about those pages have been answered."""

    def __init__(self, inner, bad_pages, served=0):
        self.inner = inner
        self.bad_pages = bad_pages
        self.served = served

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        from prodex.gateway import TransportError

        if any(f"Art.-Nr. {p}" in user_prompt for p in self.bad_pages):
            if self.served == 0:
                raise TransportError("scripted outage")
            self.served -= 1
        return self.inner.complete_structured(model_id, system_prompt, user_prompt, json_schema)


class _DeeplyNestedPrograms:
    """Answers every extraction-program request about a scripted page with
    JSON nested past the recursion limit."""

    def __init__(self, inner, page_id):
        self.inner = inner
        self.page_id = page_id

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        from prodex.gateway import ChatExchange, Usage

        if json_schema["title"] == "ExtractionProgram" and f"Art.-Nr. {self.page_id}" in user_prompt:
            return ChatExchange("[" * 100_000, Usage())
        return self.inner.complete_structured(model_id, system_prompt, user_prompt, json_schema)


class TestProviderFailureResilience:
    def test_run_continues_and_accounting_stays_exact(self, full_single_template):
        corpus = full_single_template
        config = OrchestratorConfig(rng_seed=5)
        # The page that triggers synthesis under this seed is the first
        # decision-positive page in visit order; make it flaky.
        clean = process_shop(corpus, OracleProvider(corpus, OracleConfig()), config)
        trigger = clean.metrics.synthesis_log[0]["page_id"]

        flaky = _FlakyProvider(OracleProvider(corpus, OracleConfig()), {trigger})
        result = process_shop(corpus, flaky, config)
        m = result.metrics
        m.check_invariants()
        outcomes = {entry["outcome"] for entry in m.synthesis_log}
        assert "provider_error" in outcomes
        for entry in m.synthesis_log:
            if entry["outcome"] == "provider_error":
                roles = _roles(e for e in result.ledger.entries if e.page_id == entry["page_id"])
                assert (entry["reference_calls"], entry["generations"], entry["refinements"]) == (
                    roles["reference"], roles["func_gen"], roles["refine"]
                )
        # the next decision-positive page picks up synthesis instead
        assert m.functions_generated >= 1
        assert len(result.page_results) == len(corpus.pages)

    def test_calls_before_a_mid_episode_failure_are_logged(self, full_single_template):
        corpus = full_single_template
        config = OrchestratorConfig(rng_seed=5)
        clean = process_shop(corpus, OracleProvider(corpus, OracleConfig()), config)
        trigger = clean.metrics.synthesis_log[0]["page_id"]

        # The reference call is answered, the first generation fails.
        flaky = _FlakyProvider(OracleProvider(corpus, OracleConfig()), {trigger}, served=1)
        m = process_shop(corpus, flaky, config).metrics
        m.check_invariants()
        assert m.synthesis_log[0] == {
            "page_id": trigger, "outcome": "provider_error", "error": "scripted outage",
            "reference_calls": 1, "generations": 0, "refinements": 0,
        }

    def test_deeply_nested_program_is_a_logged_episode(self, full_single_template):
        corpus = full_single_template
        config = OrchestratorConfig(rng_seed=5)
        clean = process_shop(corpus, OracleProvider(corpus, OracleConfig()), config)
        trigger = clean.metrics.synthesis_log[0]["page_id"]

        provider = _DeeplyNestedPrograms(OracleProvider(corpus, OracleConfig()), trigger)
        result = process_shop(corpus, provider, config)
        m = result.metrics
        m.check_invariants()
        # every generation is retried once and rejected again; no refinement follows
        assert m.synthesis_log[0] == {
            "page_id": trigger, "outcome": "best_imperfect",
            "reference_calls": 1, "generations": 2 * (1 + config.max_alternatives),
            "refinements": 0, "best_similarity": -1.0, "program_id": None,
        }
        assert len(result.page_results) == len(corpus.pages)
        assert m.functions_generated >= 1


# --- products.json and prompt schema text ----------------------------------------

_page_results = st.dictionaries(
    jsontext.texts,
    st.tuples(jsontext.products(), jsontext.texts, st.integers(0, 8)),
    max_size=4,
).map(lambda drawn: {
    page_id: PageResult(page_id, product, source, count)
    for page_id, (product, source, count) in drawn.items()
})


class _Writes(io.StringIO):
    """A text file that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@given(_page_results)
@example({})
@example({"ü-1": PageResult("ü-1", FoodProduct(), "none", 0)})
@example({"p\u2028\"1": PageResult("p\u2028\"1", jsontext.FULL_PRODUCT, "prog-\\", 8),
          "p0": PageResult("p0", FoodProduct(), "no-info", 0)})
@settings(max_examples=200, deadline=None)
def test_products_json_is_byte_identical_to_json_dump(page_results):
    expected = io.StringIO()
    json.dump(
        [page_results[page_id].to_dict() for page_id in sorted(page_results)],
        expected, indent=2, ensure_ascii=False,
    )
    written = _Writes()
    write_products_json(written, page_results)
    assert written.getvalue() == expected.getvalue()
    # Streamed: no write holds more than one item (a JSON string holds no raw
    # line break, so each item's page_id key appears once, at a line start).
    assert all(text.count('\n    "page_id": ') <= 1 for text in written.writes)


def test_program_schemas_and_their_prompt_text_are_built_once():
    for build in (decision_program_json_schema, extraction_program_json_schema):
        schema = request_schema(build)
        assert request_schema(build) is schema
        assert schema == build() and build() is not build()
        assert schema.text == json.dumps(build(), indent=2, ensure_ascii=False)
