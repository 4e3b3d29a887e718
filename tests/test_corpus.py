import json
from decimal import Decimal

import pytest

from prodex.compress import BANNED_ELEMENTS, compress_both
from prodex.corpus import (
    MalformedTruth,
    MissingRates,
    ShopSpec,
    UnknownTemplate,
    builtin_templates,
    generate_shop,
    load_corpus,
    load_true_program,
    load_truth,
    preset_spec,
    true_program_for,
    write_corpus,
)
from prodex.dsl import count_extracted, run_extraction_on_tree
from prodex.htmltree import parse_html
from prodex.schema import SchemaViolation
from prodex.similarity import compare


class TestDeterminism:
    def test_same_spec_twice_is_byte_identical(self):
        spec = preset_spec("alpha", 40, seed=7)
        first = generate_shop(spec)
        second = generate_shop(spec)
        assert [d.html for d in first.pages] == [d.html for d in second.pages]
        assert first.labels == second.labels
        assert {k: v.to_dict() for k, v in first.truth.items()} == {
            k: v.to_dict() for k, v in second.truth.items()
        }

    def test_different_seed_differs(self):
        a = generate_shop(preset_spec("alpha", 20, seed=1))
        b = generate_shop(preset_spec("alpha", 20, seed=2))
        assert [d.html for d in a.pages] != [d.html for d in b.pages]


class TestQuotas:
    def test_exact_quotas_at_1000_pages(self):
        shop = generate_shop(preset_spec("alpha", 1000, seed=7))
        nut_missing = sum(
            1 for r in shop.truth.values() if not r.has_nutrition and r.has_ingredients
        )
        ing_missing = sum(
            1 for r in shop.truth.values() if r.has_nutrition and not r.has_ingredients
        )
        both_missing = sum(
            1 for r in shop.truth.values() if not r.has_nutrition and not r.has_ingredients
        )
        assert nut_missing == 132
        assert ing_missing == 160
        assert both_missing == 184

    def test_quota_rounding_at_other_sizes(self):
        shop = generate_shop(preset_spec("alpha", 250, seed=7))
        both_missing = sum(
            1 for r in shop.truth.values() if not r.has_nutrition and not r.has_ingredients
        )
        assert both_missing == int(0.184 * 250 + 0.5)

    def test_rates_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            MissingRates(0.5, 0.4, 0.2)

    def test_flags_consistent_with_product(self):
        shop = generate_shop(preset_spec("beta", 80, seed=3))
        for record in shop.truth.values():
            assert record.has_ingredients == (record.product.ingredient_statement is not None)
            assert record.has_nutrition == (record.product.energy is not None)


class TestPagesSurviveCompression:
    def test_banned_elements_present_in_raw_then_removed(self, small_alpha):
        doc = small_alpha.pages[0]
        assert "<script" in doc.html
        assert "<footer" in doc.html
        html_doc, _ = compress_both(doc)
        tree = parse_html(html_doc.content)
        for element in tree.iter_elements():
            assert element.tag not in BANNED_ELEMENTS
            assert set(element.attrs) <= {"class", "id"}

    def test_target_fields_survive(self, small_alpha):
        full_page = next(
            d for d in small_alpha.pages
            if small_alpha.truth[d.page_id].has_nutrition
            and small_alpha.truth[d.page_id].has_ingredients
        )
        html_doc, text_doc = compress_both(full_page)
        assert "nw-fett" in html_doc.content
        assert "Zutaten" in text_doc.content


class TestTruePrograms:
    def test_every_template_program_is_exact_on_its_pages(self):
        shop = generate_shop(preset_spec("gamma", 45, seed=19))
        for doc in shop.pages:
            record = shop.truth[doc.page_id]
            program = true_program_for(record.template_id)
            html_doc, _ = compress_both(doc)
            outcome = run_extraction_on_tree(program, parse_html(html_doc.content))
            assert compare(outcome.product, record.product).overall == 1.0

    def test_cross_template_extraction_is_bounded(self):
        shop = generate_shop(preset_spec("gamma", 30, seed=23))
        templates = list(builtin_templates())
        for doc in shop.pages[:9]:
            record = shop.truth[doc.page_id]
            own_count = None
            for template_id in templates:
                html_doc, _ = compress_both(doc)
                tree = parse_html(html_doc.content)
                outcome = run_extraction_on_tree(true_program_for(template_id), tree)
                count = count_extracted(outcome.product)
                if template_id == record.template_id:
                    own_count = count
                else:
                    assert count <= max(1, (own_count or 8) // 2)

    def test_unknown_template(self):
        with pytest.raises(UnknownTemplate):
            true_program_for("nope")

    def test_empty_pages_still_score_one(self):
        shop = generate_shop(preset_spec("alpha", 60, seed=3))
        empty = next(
            d for d in shop.pages
            if not shop.truth[d.page_id].has_nutrition
            and not shop.truth[d.page_id].has_ingredients
        )
        html_doc, _ = compress_both(empty)
        tree = parse_html(html_doc.content)
        outcome = run_extraction_on_tree(true_program_for("tafel"), tree)
        assert count_extracted(outcome.product) == 0
        assert compare(outcome.product, shop.truth[empty.page_id].product).overall == 1.0


class TestLabels:
    def test_five_positive_five_negative_on_alpha(self, small_alpha):
        positives = [k for k, v in small_alpha.labels.items() if v]
        negatives = [k for k, v in small_alpha.labels.items() if not v]
        assert len(positives) == 5
        assert len(negatives) == 5
        for page_id, label in small_alpha.labels.items():
            record = small_alpha.truth[page_id]
            assert label == (record.has_nutrition or record.has_ingredients)


class TestOnDisk:
    def test_write_and_load_round_trip(self, tmp_path):
        spec = preset_spec("beta", 24, seed=5)
        shop = generate_shop(spec)
        write_corpus(shop, tmp_path / "c", preset="beta", spec=spec)
        again = load_corpus(tmp_path / "c")
        assert again.shop_id == shop.shop_id
        assert again.corpus_id == shop.corpus_id
        assert [d.page_id for d in again.pages] == [d.page_id for d in shop.pages]
        assert [d.html for d in again.pages] == [d.html for d in shop.pages]
        assert again.labels == shop.labels
        assert {k: v.to_dict() for k, v in again.truth.items()} == {
            k: v.to_dict() for k, v in shop.truth.items()
        }
        for template_id in again.template_ids:
            assert load_true_program(again, template_id) == true_program_for(template_id)

    def test_truth_loads_from_corpus_dir_or_file(self, tmp_path):
        spec = preset_spec("alpha", 5, seed=5)
        shop = generate_shop(spec)
        write_corpus(shop, tmp_path / "c", preset="alpha", spec=spec)
        from_dir = load_truth(tmp_path / "c")
        from_file = load_truth(tmp_path / "c" / "truth.jsonl")
        assert {k: v.to_dict() for k, v in from_dir.items()} == {
            k: v.to_dict() for k, v in shop.truth.items()
        }
        assert from_file.keys() == from_dir.keys()

    def test_boolean_nutrient_value_in_truth_is_rejected(self, tmp_path):
        spec = preset_spec("alpha", 5, seed=5)
        write_corpus(generate_shop(spec), tmp_path / "c", preset="alpha", spec=spec)
        truth_file = tmp_path / "c" / "truth.jsonl"
        records = [json.loads(line) for line in truth_file.read_text().splitlines()]
        records[0]["product"]["fat"] = {"value": True, "unit_code": "GRM"}
        truth_file.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(SchemaViolation) as err:
            load_truth(truth_file)
        assert [path for path, _ in err.value.errors] == ["fat.value"]

    @pytest.mark.parametrize("line, reason", [
        ("{not json", "JSONDecodeError"),
        ('{"page_id": "x"}', "KeyError: 'template_id'"),
        ("[1]", "TypeError"),
    ])
    def test_malformed_truth_record_names_file_and_line(self, tmp_path, line, reason):
        spec = preset_spec("alpha", 5, seed=5)
        write_corpus(generate_shop(spec), tmp_path / "c", preset="alpha", spec=spec)
        truth_file = tmp_path / "c" / "truth.jsonl"
        lines = truth_file.read_text().splitlines()
        lines[2] = line
        truth_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedTruth, match=f"truth.jsonl:3: \\$: {reason}"):
            load_truth(truth_file)

    @pytest.mark.parametrize("line", [
        '\ufeff{"page_id": "x"}',
        "{not json",
        '{"page_id": "x"} trailing',
        "\ufeff",
    ], ids=["BOM-led record", "not JSON", "extra data", "BOM alone"])
    def test_malformed_truth_line_reads_as_json_loads_reads_it(self, tmp_path, line):
        truth_file = tmp_path / "truth.jsonl"
        truth_file.write_text(line + "\n", encoding="utf-8")
        # The reference: json.loads, as every line was decoded before.
        with pytest.raises(json.JSONDecodeError) as reference:
            json.loads(line, parse_float=Decimal)
        with pytest.raises(MalformedTruth) as err:
            load_truth(truth_file)
        assert str(err.value) == f"{truth_file}:1: $: JSONDecodeError: {reference.value}"

    def test_deeply_nested_truth_record_is_malformed(self, tmp_path):
        truth_file = tmp_path / "truth.jsonl"
        truth_file.write_text('{"page_id": ' + "[" * 100_000 + "\n")
        with pytest.raises(MalformedTruth, match="truth.jsonl:1: \\$: RecursionError"):
            load_truth(truth_file)

    def test_layout_files_exist(self, tmp_path):
        spec = preset_spec("alpha", 5, seed=5)
        write_corpus(generate_shop(spec), tmp_path / "c", preset="alpha", spec=spec)
        root = tmp_path / "c"
        assert (root / "pages").is_dir()
        assert len(list((root / "pages").glob("*.html"))) == 5
        assert (root / "truth.jsonl").exists()
        assert (root / "labels.json").exists()
        assert (root / "templates.json").exists()
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["preset"] == "alpha"
        assert manifest["n_pages"] == 5


def test_custom_spec_validation():
    templates = builtin_templates()
    with pytest.raises(ValueError):
        ShopSpec("x", 0, (templates["tafel"],), MissingRates(0, 0, 0), 1)
    with pytest.raises(ValueError):
        ShopSpec("x", 5, (), MissingRates(0, 0, 0), 1)
    with pytest.raises(ValueError):
        preset_spec("delta", 10, 1)
