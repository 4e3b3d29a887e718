import json
from decimal import Decimal

import pytest

from prodex.corpus import GroundTruthRecord
from prodex.evaluate import (
    CorpusMismatch,
    MissingTruth,
    RunReport,
    ShopReport,
    compare_strategies,
    emit_report,
    evaluate,
    merge_reports,
    page_accuracy,
    summarize_runs,
)
from prodex.schema import FoodProduct, QuantitativeValue, NUTRIENT_FIELDS


def _full_product(**overrides):
    fields = {"ingredient_statement": "Zucker"}
    for nutrient in NUTRIENT_FIELDS:
        fields[nutrient] = QuantitativeValue(Decimal("1"), "GRM")
    fields.update(overrides)
    return FoodProduct(**fields)


def _truth_for(products):
    return {
        page_id: GroundTruthRecord(
            page_id=page_id,
            template_id="t",
            product=product,
            has_nutrition=True,
            has_ingredients=True,
        )
        for page_id, product in products.items()
    }


class TestPageAccuracy:
    def test_all_perfect_is_hundred(self):
        products = {f"p{i}": _full_product() for i in range(10)}
        accuracy, per_page = page_accuracy(products, _truth_for(products))
        assert accuracy == 100.0
        assert all(v == 1.0 for v in per_page.values())

    def test_one_imperfect_page_of_ten(self):
        products = {f"p{i}": _full_product() for i in range(10)}
        truth = _truth_for(products)
        products["p0"] = _full_product(salt=None)  # page overall 0.875
        accuracy, _ = page_accuracy(products, truth)
        assert accuracy == pytest.approx(98.75)

    def test_missing_truth_raises(self):
        products = {"p0": _full_product()}
        with pytest.raises(MissingTruth):
            page_accuracy(products, {})

    def test_permutation_invariant(self):
        products = {f"p{i}": _full_product(salt=None if i % 3 else QuantitativeValue(Decimal("1"), "GRM")) for i in range(9)}
        truth = _truth_for({k: _full_product() for k in products})
        forward, _ = page_accuracy(dict(sorted(products.items())), truth)
        backward, _ = page_accuracy(dict(sorted(products.items(), reverse=True)), truth)
        assert forward == backward


class TestCompareStrategies:
    def _report(self, strategy, calls, accuracy=100.0, cost="1.00", corpus="c1"):
        shop = ShopReport(
            shop_id="alpha",
            accuracy_by_variant={"HTML_COMPRESSED": accuracy},
            calls_primary=calls,
            cost_usd=cost,
            run_accuracies=[accuracy],
        )
        return RunReport(strategy=strategy, corpus_id=corpus, shops={"alpha": shop})

    def test_reduction_matches_reported_shape(self):
        direct = self._report("direct", 1000)
        indirect = self._report("indirect", 44, accuracy=96.48)
        summary = compare_strategies(direct, indirect)
        assert summary["call_reduction_pct"] == pytest.approx(95.6)
        assert summary["delta_accuracy"] == pytest.approx(-3.52)

    def test_fractional_average_calls_reduction(self):
        # 44.18 mean calls per 1000-page run, as a ratio over ten runs
        direct = self._report("direct", 10_000)
        indirect = self._report("indirect", 442)  # 44.2 per run x 10 runs
        summary = compare_strategies(direct, indirect)
        assert summary["call_reduction_pct"] == pytest.approx(95.58)

    def test_identical_reports_zero_deltas(self):
        report = self._report("direct", 100)
        summary = compare_strategies(report, report)
        assert summary["delta_accuracy"] == 0.0
        assert summary["call_reduction_pct"] == 0.0
        assert summary["cost_ratio"] == 1.0

    def test_negative_reduction_reported_not_raised(self):
        direct = self._report("direct", 10)
        indirect = self._report("indirect", 20)
        summary = compare_strategies(direct, indirect)
        assert summary["call_reduction_pct"] == -100.0

    def test_corpus_mismatch(self):
        with pytest.raises(CorpusMismatch):
            compare_strategies(
                self._report("direct", 10),
                self._report("indirect", 5, corpus="other"),
            )


class TestEvaluateAndMerge:
    def test_evaluate_builds_single_shop_report(self):
        products = {f"p{i}": _full_product() for i in range(4)}
        report = evaluate(
            products, _truth_for(products),
            strategy="direct", corpus_id="c1", shop_id="alpha",
            variant="HTML_COMPRESSED", calls_primary=4, cost_usd="0.10",
        )
        assert report.shops["alpha"].accuracy_by_variant == {"HTML_COMPRESSED": 100.0}
        assert report.total_primary_calls() == 4

    def test_merge_combines_variants(self):
        products = {f"p{i}": _full_product() for i in range(4)}
        truth = _truth_for(products)
        html = evaluate(products, truth, strategy="direct", corpus_id="c1",
                        shop_id="alpha", variant="HTML_COMPRESSED", calls_primary=4)
        text = evaluate(products, truth, strategy="direct", corpus_id="c1",
                        shop_id="alpha", variant="TEXT", calls_primary=4)
        merged = merge_reports([html, text])
        assert set(merged.shops["alpha"].accuracy_by_variant) == {
            "HTML_COMPRESSED", "TEXT",
        }
        assert merged.shops["alpha"].calls_primary == 8

    def test_merge_averages_a_variant_over_its_runs(self):
        def run(accuracy):
            shop = ShopReport(shop_id="s", accuracy_by_variant={"HTML_COMPRESSED": accuracy},
                              run_accuracies=[accuracy])
            return RunReport(strategy="indirect", corpus_id="c1", shops={"s": shop})

        merged = merge_reports([run(90.0), run(100.0)]).shops["s"]
        assert merged.accuracy_by_variant == {"HTML_COMPRESSED": 95.0}
        assert merged.run_accuracies == [90.0, 100.0]

    def test_merge_rejects_corpus_mismatch(self):
        products = {"p0": _full_product()}
        truth = _truth_for(products)
        a = evaluate(products, truth, strategy="direct", corpus_id="c1", shop_id="s")
        b = evaluate(products, truth, strategy="direct", corpus_id="c2", shop_id="s")
        with pytest.raises(CorpusMismatch):
            merge_reports([a, b])

    def test_summarize_runs(self):
        stats = summarize_runs([98.0, 100.0, 99.0])
        assert stats["min"] == 98.0
        assert stats["max"] == 100.0
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["n"] == 3

    def test_report_dict_round_trip(self):
        products = {"p0": _full_product()}
        report = evaluate(products, _truth_for(products), strategy="indirect",
                          corpus_id="c1", shop_id="alpha", calls_decision=5)
        again = RunReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()


class TestEmitReport:
    @pytest.fixture()
    def report(self):
        shop = ShopReport(
            shop_id="alpha",
            accuracy_by_variant={"HTML_COMPRESSED": 97.77, "TEXT": 96.0},
            calls_primary=1000,
            cost_usd="3.50",
            run_accuracies=[97.0, 98.54],
            distribution=summarize_runs([97.0, 98.54]),
        )
        return RunReport(strategy="direct", corpus_id="c1", shops={"alpha": shop})

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "r.json"
        emit_report(report, "json", path)
        data = json.loads(path.read_text())
        assert RunReport.from_dict(data).to_dict() == report.to_dict()

    def test_csv_one_row_per_shop_variant(self, report, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("shop_id,variant,")
        assert len(lines) == 3  # header + 2 variants for the one shop

    def test_markdown_has_both_variant_columns(self, report, tmp_path):
        path = tmp_path / "r.md"
        emit_report(report, "markdown", path)
        text = path.read_text()
        assert "| Shop | HTML_COMPRESSED | TEXT |" in text
        assert "| alpha | 97.77 | 96.00 |" in text
        assert "Run-to-run variability" in text

    def test_unknown_format(self, report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(report, "yaml", tmp_path / "r.yaml")
