"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import json
import time
from decimal import Decimal
from pathlib import Path

from click.testing import CliRunner

from prodex.cli import main as cli_main
from prodex.compress import BANNED_ELEMENTS, compress_both, count_tokens
from prodex.corpus import generate_shop, preset_spec, write_corpus
from prodex.direct import extract_direct_batch
from prodex.evaluate import page_accuracy
from prodex.gateway import CostLedger, RecordingProvider, ReplayProvider, Usage, cost
from prodex.htmltree import parse_html
from prodex.indirect import (
    OrchestratorConfig,
    PageCache,
    build_decision_ensemble,
    decide,
    process_shop,
)
from prodex.oracle import OracleConfig, OracleProvider
from prodex.schema import FoodProduct, QuantitativeValue, NUTRIENT_FIELDS
from prodex.similarity import compare


def _report(number: int, text: str, elapsed: float = None) -> None:
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[PASS] criterion {number}: {text}{suffix}")


def _full_product(**overrides):
    fields = {"ingredient_statement": "Zucker, Kakao"}
    for nutrient in NUTRIENT_FIELDS:
        fields[nutrient] = QuantitativeValue(Decimal("3.5"), "GRM")
    fields.update(overrides)
    return FoodProduct(**fields)


def test_criterion_1_compression_invariants():
    started = time.perf_counter()
    checked = 0
    for preset in ("alpha", "beta", "gamma"):
        corpus = generate_shop(preset_spec(preset, 100, seed=41))
        for raw in corpus.pages:
            html_doc, text_doc = compress_both(raw)
            tree = parse_html(html_doc.content)
            for element in tree.iter_elements():
                assert element.tag not in BANNED_ELEMENTS
                assert set(element.attrs) <= {"class", "id"}
            assert "<" not in text_doc.content
            original_tokens = count_tokens(raw.html)
            assert html_doc.token_count <= original_tokens
            assert text_doc.token_count <= html_doc.token_count
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 300
    assert elapsed < 10.0
    _report(1, f"compression invariants hold on {checked} pages", elapsed)


def test_criterion_2_similarity_oracle_equivalence():
    started = time.perf_counter()

    # Worked examples reproduce exactly.
    product = _full_product()
    assert compare(product, product).overall == 1.0
    assert compare(_full_product(salt=None), _full_product()).overall == 0.875
    report = compare(
        _full_product(fat=QuantitativeValue(Decimal("3.5"), "GRM")),
        _full_product(fat=QuantitativeValue(Decimal("3.5"), "MGM")),
    )
    assert report.overall == 0.9375

    # Exhaustive 2-field table: quantity field x text field, 3 presence
    # states per side each, scored against a hand-computed table; the other
    # six fields are absent on both sides and score 1 each.
    from prodex.similarity import string_similarity

    text_a, text_b = "Zucker", "Salz"
    qty_a = QuantitativeValue(Decimal("1.0"), "GRM")
    qty_b = QuantitativeValue(Decimal("2.0"), "MGM")
    partial = string_similarity(text_a, text_b)
    text_table = {
        (None, None): 1.0, (None, text_a): 0.0, (None, text_b): 0.0,
        (text_a, None): 0.0, (text_b, None): 0.0,
        (text_a, text_a): 1.0, (text_b, text_b): 1.0,
        (text_a, text_b): partial, (text_b, text_a): partial,
    }
    qty_table = {
        (None, None): 1.0, (None, qty_a): 0.0, (None, qty_b): 0.0,
        (qty_a, None): 0.0, (qty_b, None): 0.0,
        (qty_a, qty_a): 1.0, (qty_b, qty_b): 1.0,
        (qty_a, qty_b): 0.0, (qty_b, qty_a): 0.0,
    }
    combos = 0
    for tg in (None, text_a, text_b):
        for tw in (None, text_a, text_b):
            for qg in (None, qty_a, qty_b):
                for qw in (None, qty_a, qty_b):
                    got = compare(
                        FoodProduct(ingredient_statement=tg, fat=qg),
                        FoodProduct(ingredient_statement=tw, fat=qw),
                    )
                    assert got.per_attribute["ingredient_statement"] == text_table[(tg, tw)]
                    assert got.per_attribute["fat"] == qty_table[(qg, qw)]
                    expected = (6 + text_table[(tg, tw)] + qty_table[(qg, qw)]) / 8
                    assert abs(got.overall - expected) < 1e-12
                    combos += 1
    elapsed = time.perf_counter() - started
    assert combos == 81
    assert elapsed < 1.0
    _report(2, "similarity matches hand table on 81 combos + 3 worked examples", elapsed)


def test_criterion_3_direct_strategy_correctness():
    started = time.perf_counter()
    corpus = generate_shop(preset_spec("alpha", 100, seed=7))
    oracle = OracleProvider(corpus, OracleConfig())
    docs = [compress_both(page)[0] for page in corpus.pages]
    ledger = CostLedger()
    products, failures = extract_direct_batch(docs, oracle, "o3-mini", ledger)
    assert not failures
    overall = [
        compare(product, corpus.truth[page_id].product).overall
        for page_id, product in products.items()
    ]
    accuracy = 100.0 * sum(overall) / len(overall)
    elapsed = time.perf_counter() - started
    assert accuracy == 100.0
    assert len(ledger.entries) == 100
    assert all(e.role_tag == "direct" for e in ledger.entries)
    assert elapsed < 30.0
    _report(3, "direct accuracy 100.00 with exactly 100 primary calls", elapsed)


def test_criterion_4_call_reduction_scaled():
    started = time.perf_counter()

    def indirect_calls(n_pages: int) -> int:
        corpus = generate_shop(preset_spec("gamma", n_pages, seed=11))
        oracle = OracleProvider(corpus, OracleConfig(imperfections_per_generation=1))
        result = process_shop(corpus, oracle, OrchestratorConfig(rng_seed=42))
        products = {page_id: r.product for page_id, r in result.page_results.items()}
        assert page_accuracy(products, corpus.truth, failed=result.failures)[0] == 100.0
        return result.metrics.llm_calls_primary_model

    calls_300 = indirect_calls(300)
    direct_calls = 300  # N-calls law, criterion 3
    assert calls_300 <= 0.15 * direct_calls

    calls_600 = indirect_calls(600)
    assert calls_600 - calls_300 == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        4,
        f"indirect used {calls_300} calls vs {direct_calls} direct "
        f"({100 * (1 - calls_300 / direct_calls):.2f}% reduction); "
        f"doubling pages changed calls by {calls_600 - calls_300}",
        elapsed,
    )


def test_criterion_5_synthesis_budget_law(tmp_path):
    corpus = generate_shop(preset_spec("beta", 60, seed=5))
    oracle = OracleProvider(corpus, OracleConfig(unreparable_templates=frozenset({"liste"})))
    config = OrchestratorConfig(rng_seed=3)

    session = tmp_path / "session"
    recorded = process_shop(corpus, RecordingProvider(oracle, session), config)

    budget = (1 + config.max_refinements) * (1 + config.max_alternatives)
    assert budget == 24
    imperfect = [
        entry for entry in recorded.metrics.synthesis_log
        if entry["outcome"] == "best_imperfect"
    ]
    assert imperfect, "the unreparable template must appear in the log"
    for entry in recorded.metrics.synthesis_log:
        if entry["outcome"] == "reference_unattainable":
            continue
        assert entry["generations"] + entry["refinements"] <= budget
    for entry in imperfect:
        assert entry["generations"] + entry["refinements"] == budget
        assert 0.0 < entry["best_similarity"] < 1.0
    retained = {e.program.program_id for e in recorded.library.entries}
    for entry in imperfect:
        assert any(pid.startswith(entry["program_id"]) for pid in retained), (
            "best imperfect program must be retained in the library"
        )

    replay_one = process_shop(corpus, ReplayProvider(session), config)
    replay_two = process_shop(corpus, ReplayProvider(session), config)
    assert replay_one.metrics.to_json() == replay_two.metrics.to_json()
    assert replay_one.metrics.to_json() == recorded.metrics.to_json()
    _report(
        5,
        f"unreparable synthesis capped at {budget} calls, best imperfect "
        "retained, bit-identical metrics across two replays",
    )


def test_criterion_6_decision_ensemble_accuracy():
    started = time.perf_counter()
    corpus = generate_shop(preset_spec("alpha", 1000, seed=7))
    cache = PageCache(corpus)
    texts = {doc.page_id: cache.page(doc.page_id).text for doc in corpus.pages}
    oracle = OracleProvider(corpus, OracleConfig())
    config = OrchestratorConfig(rng_seed=1)
    samples = [
        (texts[page_id], label)
        for page_id, label in sorted(corpus.labels.items())
    ]
    ledger = CostLedger()
    ensemble = build_decision_ensemble(samples, oracle, config, ledger, "accept6")
    assert len(ensemble) == 5

    correct = 0
    negative_pages = set()
    for page_id, record in corpus.truth.items():
        flag = record.has_nutrition or record.has_ingredients
        if not flag:
            negative_pages.add(page_id)
        if decide(ensemble, texts[page_id]) == flag:
            correct += 1
    accuracy = 100.0 * correct / len(corpus.truth)
    assert accuracy >= 95.0
    assert len(negative_pages) == 184  # default quota at 1000 pages

    result = process_shop(corpus, oracle, config, cache)
    for entry in result.ledger.entries:
        if entry.page_id is not None:
            assert entry.page_id not in negative_pages
    for page_id in negative_pages:
        assert result.page_results[page_id].source == "no-info"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        6,
        f"ensemble majority accuracy {accuracy:.2f}% on 1000 pages; "
        "decision-negative pages triggered zero primary calls",
        elapsed,
    )


def test_criterion_7_cost_accounting_exactness():
    assert cost(Usage(1_000_000, 0, 0), "o3-mini") == Decimal("1.10")
    assert cost(Usage(1_000_000, 1_000_000, 0), "gpt-4o") == Decimal("1.25")
    ledger = CostLedger()
    for tokens in (123_457, 333_333, 999_999, 1):
        ledger.add("x", "o3-mini", "direct", Usage(input_tokens=tokens, output_tokens=tokens // 3))
        ledger.add("y", "gpt-4o", "decision_gen", Usage(input_tokens=tokens))
    assert ledger.total_usd == sum((e.cost_usd for e in ledger.entries), Decimal(0))
    _report(7, "Table-3 prices exact ($1.10 / $1.25); ledger total equals entry sum")


def test_criterion_8_ten_run_variability_protocol(tmp_path):
    runner = CliRunner()
    corpus_dir = tmp_path / "corpus"
    spec = preset_spec("beta", 80, seed=29)
    write_corpus(generate_shop(spec), corpus_dir, preset="beta", spec=spec)

    def run(out_dir: Path):
        result = runner.invoke(
            cli_main,
            ["extract", "indirect", "--corpus", str(corpus_dir),
             "--out", str(out_dir), "--provider", "oracle",
             "--seed", "77", "--runs", "10", "--oracle-imperfections", "1"],
        )
        assert result.exit_code == 0, result.output

    first, second = tmp_path / "first", tmp_path / "second"
    run(first)
    run(second)

    metrics_files = sorted(first.glob("run-*/metrics.json"))
    assert len(metrics_files) == 10
    summary = json.loads((first / "summary.json").read_text())
    assert len(summary["run_seeds"]) == 10
    dist = summary["distribution"]
    assert dist["min"] <= dist["mean"] <= dist["max"]

    for path in metrics_files:
        twin = second / path.relative_to(first)
        assert twin.read_bytes() == path.read_bytes(), f"{path.name} differs"
    assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
    _report(
        8,
        f"10 runs reproduced bit-exactly; accuracy spread "
        f"[{dist['min']:.2f}, {dist['max']:.2f}]",
    )
