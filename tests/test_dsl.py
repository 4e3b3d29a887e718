import contextlib
import dataclasses
import itertools
import json
import re
import signal
import time
from decimal import Decimal

import jsonschema
import pytest
from hypothesis import assume, example, given, settings, strategies as st
import jsontext
from markup import markup, selectors

from prodex import htmltree
from prodex.compress import CompressedDocument, Variant, WrongVariant
from prodex.corpus import load_true_program, true_program_for
from prodex.dsl import (
    DecisionProgram,
    ExtractionProgram,
    FieldRule,
    PostOp,
    Predicate,
    ProgramParseError,
    count_extracted,
    decision_program_json_schema,
    extraction_program_json_schema,
    parse_program,
    run_decision,
    run_extraction_on_tree,
    _apply_post_op,
)
from prodex.oracle import OracleConfig, OracleProvider
from prodex.schema import NUTRIENT_FIELDS, FoodProduct, QuantitativeValue, SchemaViolation
from prodex.similarity import compare


def _rule_json(**overrides):
    rule = {
        "field_path": "fat.value",
        "selector": ".nutrition td.fat",
        "node_index": 0,
        "capture": None,
        "post_ops": [{"op": "trim"}, {"op": "parse_decimal_comma"}],
    }
    rule.update(overrides)
    return rule


def _program_json(rules):
    return json.dumps(
        {
            "kind": "extraction",
            "program_id": "prog-t",
            "target_schema_name": "FoodProduct",
            "rules": rules,
        }
    )


class TestParseProgram:
    def test_valid_rule(self):
        program = parse_program(_program_json([_rule_json()]))
        assert isinstance(program, ExtractionProgram)
        assert program.rules[0].selector == ".nutrition td.fat"
        assert program.rules[0].post_ops == (
            PostOp(op="trim"),
            PostOp(op="parse_decimal_comma"),
        )

    def test_invalid_selector(self):
        with pytest.raises(ProgramParseError) as err:
            parse_program(_program_json([_rule_json(selector="td[")]))
        assert err.value.issues[0].kind == "InvalidSelector"

    def test_unknown_field(self):
        with pytest.raises(ProgramParseError) as err:
            parse_program(_program_json([_rule_json(field_path="brand")]))
        assert err.value.issues[0].kind == "UnknownField"

    def test_invalid_regex(self):
        with pytest.raises(ProgramParseError) as err:
            parse_program(_program_json([_rule_json(capture="([")]))
        assert err.value.issues[0].kind == "InvalidRegex"

    def test_capture_needs_exactly_one_group(self):
        with pytest.raises(ProgramParseError):
            parse_program(_program_json([_rule_json(capture="no groups")]))
        with pytest.raises(ProgramParseError):
            parse_program(_program_json([_rule_json(capture="(a)(b)")]))

    def test_unknown_post_op(self):
        with pytest.raises(ProgramParseError) as err:
            parse_program(_program_json([_rule_json(post_ops=[{"op": "shout"}])]))
        assert err.value.issues[0].kind == "UnknownPostOp"

    def test_post_op_must_match_leaf_type(self):
        with pytest.raises(ProgramParseError):
            parse_program(
                _program_json(
                    [_rule_json(field_path="ingredient_statement",
                                post_ops=[{"op": "parse_decimal_comma"}])]
                )
            )

    def test_duplicate_field_path_rejected(self):
        with pytest.raises(ProgramParseError):
            parse_program(_program_json([_rule_json(), _rule_json()]))

    @pytest.mark.parametrize("value", ["x", True, -1, None, 1.5])
    def test_generation_must_be_a_non_negative_int(self, value):
        data = {"kind": "extraction", "program_id": "p", "rules": [], "generation": value}
        with pytest.raises(ProgramParseError) as err:
            parse_program(json.dumps(data))
        assert [issue.path for issue in err.value.issues] == ["generation"]

    @pytest.mark.parametrize("value", [True, "1", -1, 1.0])
    def test_node_index_must_be_a_non_negative_int(self, value):
        with pytest.raises(ProgramParseError) as err:
            parse_program(_program_json([_rule_json(node_index=value)]))
        assert [issue.path for issue in err.value.issues] == ["rules[0].node_index"]

    @pytest.mark.parametrize("pattern", [
        "(" * 3000 + "a" + ")" * 3000,  # RecursionError inside re
        "a{99999999999}",  # OverflowError
        "(?a)(?u)(a)",  # ValueError
    ], ids=["deep", "repeat", "flags"])
    def test_regex_re_cannot_compile_is_an_invalid_regex(self, pattern):
        with pytest.raises(ProgramParseError) as err:
            parse_program(_program_json([_rule_json(capture=pattern)]))
        assert err.value.issues[0].kind == "InvalidRegex"
        decision = {"kind": "decision", "program_id": "d",
                    "predicate": {"op": "matches_regex", "pattern": pattern}}
        with pytest.raises(ProgramParseError) as err:
            parse_program(json.dumps(decision))
        assert err.value.issues[0].kind == "InvalidRegex"

    @pytest.mark.parametrize("pattern", [
        r"^(?:a+)+(b)$",  # an unbounded repeat inside another
        r"(?:x|(a*))*",  # the inner repeat in a branch
        r"(?=(a+)+)",  # in a lookahead
        r"(a)\1",  # a backreference
        r"(a)?(?(1)b|c)",  # a conditional on a group
        r"^((?:a|aa)+)$",  # overlapping alternatives of two lengths
        r"(?:a{1,5})+",  # a bounded variable repeat inside an unbounded one
        r"(?:a|a)+",  # equal alternatives, one length
        r"(?:ab|a.)+",  # overlapping alternatives the parser cannot fold
    ], ids=["nested", "branch", "lookahead", "backreference", "conditional",
            "overlap", "bounded", "equal", "unfolded"])
    def test_catastrophic_regex_shapes_are_refused_at_every_entry_point(self, pattern):
        refused = [
            lambda: FieldRule("fat.value", "td", capture=pattern),
            lambda: Predicate(op="matches_regex", value=pattern),
            lambda: parse_program(_program_json([_rule_json(capture=pattern)])),
            lambda: parse_program(json.dumps({
                "kind": "decision", "program_id": "d",
                "predicate": {"op": "matches_regex", "pattern": pattern}})),
        ]
        for build in refused:
            with pytest.raises(ProgramParseError) as err:
                build()
            assert err.value.issues[0].kind == "InvalidRegex"
            assert "backtrack" in err.value.issues[0].message

    @pytest.mark.parametrize("pattern", [r"(.*)", r"(\S+)", r"(?:a|b)+", r"(?:\d{3})+"])
    def test_repeats_of_one_length_without_a_branch_compile(self, pattern):
        """re's parser folds ``a|b`` into a set, so its repeat has no branch."""
        assert Predicate(op="matches_regex", value=pattern).compiled.pattern == pattern

    def test_the_preset_and_oracle_regexes_still_compile(self):
        from prodex.corpus import _NUMBER_CAPTURE, _UNIT_CAPTURE
        from prodex.reader import DECISION_KEYWORDS

        assert _NUMBER_CAPTURE == r"([0-9]+(?:[.,][0-9]+)?)"
        assert _UNIT_CAPTURE == r"[0-9.,]+\s*([A-Za-z]+)"
        for capture in (_NUMBER_CAPTURE, _UNIT_CAPTURE):
            assert FieldRule("fat.value", "td", capture=capture).compiled_capture.pattern == capture
        for keyword in (*DECISION_KEYWORDS, "Zutaten", "Nährwert"):
            pattern = f"(?i){re.escape(keyword)}"
            assert Predicate(op="matches_regex", value=pattern).compiled.pattern == pattern

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"kind": "extraction", "rules": [], "generation": %s}' % ("1" * 5000),
    ], ids=["deep", "digits"])
    def test_json_python_cannot_read_is_malformed(self, text):
        with pytest.raises(ProgramParseError) as err:
            parse_program(text)
        assert [(i.path, i.kind) for i in err.value.issues] == [("$", "Malformed")]
        assert err.value.errors[0][1].startswith("invalid JSON")

    def test_parse_error_is_a_schema_violation_with_the_same_message(self):
        with pytest.raises(SchemaViolation) as err:
            parse_program(_program_json([_rule_json(selector="td[")]))
        assert isinstance(err.value, ProgramParseError)
        issue = err.value.issues[0]
        assert str(err.value) == f"{issue.path}: {issue.message}"

    def test_round_trip_is_identity(self):
        program = true_program_for("tafel")
        again = parse_program(program.to_json())
        assert again == program
        assert again.to_json() == program.to_json()

    def test_issues_render_as_feedback(self):
        try:
            parse_program(_program_json([_rule_json(selector="td[")]))
        except ProgramParseError as err:
            text = err.render_feedback()
            assert "InvalidSelector" in text
            assert "rules[0].selector" in text

    def test_decision_round_trip(self):
        program = DecisionProgram(
            program_id="dec-1",
            predicate=Predicate(
                op="or",
                args=(
                    Predicate(op="contains_keyword", value="Zutaten"),
                    Predicate(op="matches_regex", value="N[äa]hrwert"),
                ),
            ),
        )
        # Decision programs are only read, never written: the JSON a model
        # gives for this program parses back to it.
        text = json.dumps({"kind": "decision", "program_id": "dec-1", "predicate": {
            "op": "or", "args": [{"op": "contains_keyword", "value": "Zutaten"},
                                 {"op": "matches_regex", "pattern": "N[äa]hrwert"}],
        }})
        assert parse_program(text) == program

    def test_predicate_depth_limit(self):
        node = {"op": "contains_keyword", "value": "x"}
        for _ in range(9):
            node = {"op": "not", "args": [node]}
        with pytest.raises(ProgramParseError):
            parse_program(json.dumps({"kind": "decision", "program_id": "d", "predicate": node}))

    def test_generated_programs_validate_against_emitted_schema(self, small_gamma):
        program = true_program_for("liste")
        jsonschema.validate(json.loads(program.to_json()), extraction_program_json_schema())
        # Decision programs are only ever read: what the oracle generates
        # validates, and parses.
        schema = decision_program_json_schema()
        oracle = OracleProvider(small_gamma, OracleConfig())
        for member in range(10):
            text = oracle.complete_structured("m", "", f"-m{member}a0", schema).response_text
            jsonschema.validate(json.loads(text), schema)
            assert isinstance(parse_program(text), DecisionProgram)


def _page(html):
    return htmltree.parse_html(html)


class TestRunExtraction:
    def test_true_program_reproduces_truth(self, small_gamma, compressed_gamma):
        for doc in small_gamma.pages[:12]:
            record = small_gamma.truth[doc.page_id]
            program = load_true_program(small_gamma, record.template_id)
            tree = htmltree.parse_html(compressed_gamma[doc.page_id][0].content)
            outcome = run_extraction_on_tree(program, tree)
            assert compare(outcome.product, record.product).overall == 1.0

    def test_cross_template_mostly_no_match(self, small_gamma, compressed_gamma):
        target = next(
            doc for doc in small_gamma.pages
            if small_gamma.truth[doc.page_id].template_id == "liste"
            and small_gamma.truth[doc.page_id].has_nutrition
        )
        program = true_program_for("tafel")
        tree = htmltree.parse_html(compressed_gamma[target.page_id][0].content)
        outcome = run_extraction_on_tree(program, tree)
        assert count_extracted(outcome.product) == 0
        assert set(outcome.field_status.values()) == {"no_match"}

    def test_empty_program(self):
        program = ExtractionProgram("p0", "FoodProduct", rules=())
        outcome = run_extraction_on_tree(program, _page("<div>x</div>"))
        assert outcome.product == FoodProduct()
        assert outcome.field_status == {}

    def test_post_op_failed_status(self):
        program = ExtractionProgram(
            "p1",
            "FoodProduct",
            rules=(
                FieldRule(
                    field_path="fat.value",
                    selector="td.fat",
                    post_ops=(PostOp(op="parse_decimal_comma"),),
                ),
            ),
        )
        tree = _page('<table><tr><td class="fat">viel</td></tr></table>')
        outcome = run_extraction_on_tree(program, tree)
        assert outcome.field_status["fat.value"] == "post_op_failed"
        assert outcome.product.fat is None

    def test_out_of_range_number_is_post_op_failed(self):
        rule = FieldRule("fat.value", "td.fat", capture=r"(\S+)",
                         post_ops=(PostOp("parse_decimal_comma"),))
        start = time.perf_counter()
        outcome = run_extraction_on_tree(ExtractionProgram("big", "F", rules=(rule,)),
                                         _page('<td class="fat">1e999999 g</td>'))
        assert time.perf_counter() - start < 0.5
        assert outcome.field_status["fat.value"] == "post_op_failed"
        assert outcome.product.fat is None

    def test_out_of_range_number_without_post_op_is_left_out(self):
        rule = FieldRule("fat.value", "td.fat", capture=r"([0-9]+)")
        outcome = run_extraction_on_tree(ExtractionProgram("big", "F", rules=(rule,)),
                                         _page('<td class="fat">%s g</td>' % ("9" * 100_000)))
        assert outcome.field_status["fat.value"] == "extracted"
        assert outcome.product.fat is None

    @pytest.mark.parametrize("post_ops", [(), (PostOp(op="parse_decimal_comma"),)])
    def test_non_finite_value_is_left_out(self, post_ops):
        program = ExtractionProgram(
            "p1",
            "FoodProduct",
            rules=(FieldRule(field_path="fat.value", selector="td.fat", capture=r"(inf)",
                             post_ops=post_ops),),
        )
        outcome = run_extraction_on_tree(program, _page('<td class="fat">information</td>'))
        assert outcome.product.fat is None

    def test_rule_isolation_under_permutation(self):
        html = (
            '<div class="zutaten-bereich"><p class="zutaten-text">Zutaten: A, B</p></div>'
            '<table><tr><td class="nw-fett">3,5 g</td></tr></table>'
        )
        rules = [
            FieldRule("ingredient_statement", "div.zutaten-bereich p.zutaten-text",
                      post_ops=(PostOp("trim"), PostOp("strip_label_prefix", prefixes=("Zutaten:",)))),
            FieldRule("fat.value", "td.nw-fett", capture=r"([0-9]+(?:[.,][0-9]+)?)",
                      post_ops=(PostOp("parse_decimal_comma"),)),
            FieldRule("fat.unit_code", "td.doesnotexist"),
        ]
        outcomes = []
        for permutation in itertools.permutations(rules):
            program = ExtractionProgram("perm", "FoodProduct", rules=tuple(permutation))
            outcome = run_extraction_on_tree(program, _page(html))
            outcomes.append((outcome.product, dict(sorted(outcome.field_status.items()))))
        assert all(o == outcomes[0] for o in outcomes)
        assert outcomes[0][0].ingredient_statement == "A, B"
        assert outcomes[0][0].fat == QuantitativeValue(Decimal("3.5"), None)

    def test_decimal_comma_is_checked_once_and_assembles_to_its_value(self, monkeypatch):
        from prodex import schema

        checked = []
        real_parse = schema.parse_decimal
        monkeypatch.setattr(schema, "parse_decimal", lambda raw: checked.append(raw) or real_parse(raw))
        schema.interned_decimal.cache_clear()
        schema._interned_quantity.cache_clear()
        program = ExtractionProgram("comma", "F", rules=(
            FieldRule("fat.value", "td.fat", capture=r"([0-9]+(?:[.,][0-9]+)?)",
                      post_ops=(PostOp("parse_decimal_comma"),)),
            FieldRule("fat.unit_code", "td.fat", capture=r"[0-9,.]+\s*([A-Za-z]+)",
                      post_ops=(PostOp("to_unit_code", unit_map=(("g", "GRM"),)),)),
        ))
        outcomes = [run_extraction_on_tree(program, _page('<td class="fat">3,5 g</td>'))
                    for _ in range(3)]
        fat = outcomes[0].product.fat
        assert fat == QuantitativeValue(Decimal("3.5"), "GRM")
        assert str(fat.value) == "3.5"
        assert all(o.product.fat is fat for o in outcomes)
        assert outcomes[0].field_status == {"fat.value": "extracted", "fat.unit_code": "extracted"}
        assert checked == ["3.5"]

    def test_node_index_disambiguates(self):
        html = '<tr><td class="nw-energie">100 kJ</td><td class="nw-energie">24 kcal</td></tr>'
        rule0 = FieldRule("energy.value", "td.nw-energie", node_index=0,
                          capture=r"([0-9]+)", post_ops=(PostOp("parse_decimal_comma"),))
        rule1 = FieldRule("energy.value", "td.nw-energie", node_index=1,
                          capture=r"([0-9]+)", post_ops=(PostOp("parse_decimal_comma"),))
        first = run_extraction_on_tree(ExtractionProgram("a", "F", rules=(rule0,)), _page(html))
        second = run_extraction_on_tree(ExtractionProgram("b", "F", rules=(rule1,)), _page(html))
        assert first.product.energy.value == Decimal("100")
        assert second.product.energy.value == Decimal("24")

    def test_node_index_out_of_range_is_no_match(self):
        rule = FieldRule("fat.value", "td.fat", node_index=5)
        outcome = run_extraction_on_tree(
            ExtractionProgram("c", "F", rules=(rule,)),
            _page('<td class="fat">1 g</td>'),
        )
        assert outcome.field_status["fat.value"] == "no_match"

    def test_to_unit_code_maps_case_insensitively(self):
        rule = FieldRule(
            "fat.unit_code", "td.fat", capture=r"[0-9,.]+\s*([A-Za-z]+)",
            post_ops=(PostOp("to_unit_code", unit_map=(("g", "GRM"),)),),
        )
        value_rule = FieldRule(
            "fat.value", "td.fat", capture=r"([0-9]+)",
            post_ops=(PostOp("parse_decimal_comma"),),
        )
        outcome = run_extraction_on_tree(
            ExtractionProgram("e", "F", rules=(value_rule, rule)),
            _page('<td class="fat">3 G</td>'),
        )
        assert outcome.product.fat == QuantitativeValue(Decimal("3"), "GRM")


def _reference_unit_code(unit_map, text):
    """to_unit_code as a loop over ``dict(unit_map)``: the reference."""
    key = text.strip()
    for raw, code in dict(unit_map).items():
        if raw.lower() == key.lower():
            return code
    return None


_RAW_UNITS = st.sampled_from(["g", "G", " g", "kJ", "KJ", "kj", "İ", "i̇", "i", "I", "ml"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_RAW_UNITS, st.sampled_from(["GRM", "KJO", "MLT", "X"])), max_size=6),
       st.one_of(_RAW_UNITS, st.text(max_size=3)))
@example([("G", "A"), ("g", "B")], "g")
@example([("g", "A"), ("G", "B"), ("g", "C")], "G")
@example([("İ", "A"), ("i̇", "B")], "İ")
def test_to_unit_code_equals_the_loop_over_the_map(unit_map, text):
    post = PostOp("to_unit_code", unit_map=tuple(unit_map))
    assert _apply_post_op(post, text) == _reference_unit_code(post.unit_map, text)
    # The derived map takes no part in equality or hashing: rules are cache keys.
    assert post == PostOp("to_unit_code", unit_map=tuple(unit_map))
    assert hash(post) == hash((post.op, post.prefixes, post.unit_map))


class TestRunDecision:
    def _program(self, predicate):
        return DecisionProgram(program_id="d", predicate=predicate)

    def _text(self, content):
        return CompressedDocument("p", Variant.TEXT, content, 1)

    def test_contains_keyword(self):
        program = self._program(Predicate(op="contains_keyword", value="Zutaten"))
        assert run_decision(program, self._text("Zutaten: Zucker")) is True
        assert run_decision(program, self._text("Frischer Apfel")) is False

    def test_keyword_case_insensitive(self):
        program = self._program(Predicate(op="contains_keyword", value="zutaten"))
        assert run_decision(program, self._text("ZUTATEN: X")) is True

    def test_regex(self):
        program = self._program(Predicate(op="matches_regex", value=r"N[äa]hrwert"))
        assert run_decision(program, self._text("Nährwerte je 100 g")) is True

    def test_not_is_logical_negation_over_fixtures(self, small_alpha, compressed_gamma):
        inner = Predicate(op="contains_keyword", value="Zutaten")
        positive = self._program(inner)
        negated = self._program(Predicate(op="not", args=(inner,)))
        for _, text_doc in list(compressed_gamma.values())[:20]:
            assert run_decision(negated, text_doc) == (not run_decision(positive, text_doc))

    def test_and_or(self):
        both = self._program(
            Predicate(op="and", args=(
                Predicate(op="contains_keyword", value="a"),
                Predicate(op="contains_keyword", value="b"),
            ))
        )
        either = self._program(
            Predicate(op="or", args=(
                Predicate(op="contains_keyword", value="a"),
                Predicate(op="contains_keyword", value="b"),
            ))
        )
        assert run_decision(both, self._text("a b")) is True
        assert run_decision(both, self._text("a c")) is False
        assert run_decision(either, self._text("a c")) is True

    def test_wrong_variant(self):
        program = self._program(Predicate(op="contains_keyword", value="x"))
        with pytest.raises(WrongVariant):
            run_decision(program, CompressedDocument("p", Variant.HTML_COMPRESSED, "<p>x</p>", 1))


def _reference_eval(p: Predicate, text: str) -> bool:
    """Predicate evaluation as it was: text and keyword lowercased per atom."""
    if p.op == "contains_keyword":
        return p.value.lower() in text.lower()
    if p.op == "matches_regex":
        return p.compiled.search(text) is not None
    if p.op == "and":
        return all(_reference_eval(a, text) for a in p.args)
    if p.op == "or":
        return any(_reference_eval(a, text) for a in p.args)
    return not _reference_eval(p.args[0], text)


# Keywords whose lowercase differs in length or depends on context (İ, Σ),
# or folds two ways (ß, K), beside ones the corpora use.
_keywords = st.one_of(
    st.sampled_from(["Zutaten", "zutaten", "NÄHRWERT", "İ", "i̇", "ß", "SS", "Σ", "σς", "K", "k"]),
    st.text(min_size=1, max_size=3),
)
_predicates = st.recursive(
    st.one_of(
        st.builds(lambda value: Predicate(op="contains_keyword", value=value), _keywords),
        st.builds(lambda value: Predicate(op="matches_regex", value=value),
                  st.sampled_from([r"N[äa]hrwert", r"(?i)zutaten", r"^a", "ß", "Σ"])),
    ),
    lambda inner: st.one_of(
        st.builds(lambda op, args: Predicate(op=op, args=tuple(args)),
                  st.sampled_from(["and", "or"]), st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda arg: Predicate(op="not", args=(arg,)), inner),
    ),
    max_leaves=6,
)


@given(st.lists(_predicates, min_size=1, max_size=5),
       st.lists(st.one_of(_keywords, st.sampled_from([" ", "a", "Zucker", "ΑΣ"])),
                max_size=8).map("".join))
@example([Predicate(op="contains_keyword", value="Zutaten")], "ZUTATEN: Zucker")
@example([Predicate(op="contains_keyword", value="σ")], "ΑΣ")
@settings(max_examples=300, deadline=None)
def test_the_votes_equal_lowercasing_per_keyword(predicates, text):
    """Each program's decision, the vote count and the majority are the
    same as when each keyword atom lowercased the text and itself."""
    from prodex.dsl import decision_votes
    from prodex.indirect import decide

    doc = CompressedDocument("p", Variant.TEXT, text, 1)
    programs = [DecisionProgram(f"d{k}", predicate) for k, predicate in enumerate(predicates)]
    want = [_reference_eval(predicate, text) for predicate in predicates]
    assert [run_decision(program, doc) for program in programs] == want
    assert decision_votes(programs, doc) == sum(want)
    if len(programs) % 2:
        assert decide(programs, doc) == (sum(want) * 2 > len(programs))


class TestCountExtracted:
    def test_empty(self):
        assert count_extracted(FoodProduct()) == 0

    def test_full(self):
        fields = {"ingredient_statement": "x"}
        for name in ("energy", "fat", "saturated_fat", "carbohydrates",
                     "sugars", "protein", "salt"):
            fields[name] = QuantitativeValue(Decimal("1"), "GRM")
        assert count_extracted(FoodProduct(**fields)) == 8

    def test_value_only_quantity_counts(self):
        product = FoodProduct(fat=QuantitativeValue(Decimal("1"), None))
        assert count_extracted(product) == 1


class TestCompiledRules:
    def test_derived_fields_stay_out_of_equality_repr_and_dict(self):
        parsed = parse_program(_program_json([_rule_json(capture=r"([0-9]+)")]))
        direct = FieldRule(
            "fat.value", ".nutrition td.fat", capture=r"([0-9]+)",
            post_ops=(PostOp("trim"), PostOp("parse_decimal_comma")),
        )
        assert parsed.rules[0] == direct
        assert hash(parsed.rules[0]) == hash(direct)
        assert "compiled" not in repr(direct)
        assert "compiled" not in parsed.to_json()
        assert direct.compiled_selector.source == ".nutrition td.fat"
        assert direct.compiled_capture.pattern == r"([0-9]+)"

    def test_running_a_program_compiles_nothing(self, monkeypatch, small_gamma, compressed_gamma):
        page_id = small_gamma.pages[0].page_id
        program = true_program_for(small_gamma.truth[page_id].template_id)
        html_doc, text_doc = compressed_gamma[page_id]
        tree = htmltree.parse_html(html_doc.content)
        decision = DecisionProgram("d", Predicate(op="not", args=(
            Predicate(op="matches_regex", value=r"N[äa]hrwert|Zutaten"),
        )))

        def refuse(*args, **kwargs):
            raise AssertionError("compiled during a run")

        monkeypatch.setattr(htmltree, "parse_selector", refuse)
        monkeypatch.setattr(re, "compile", refuse)
        monkeypatch.setattr(re, "search", refuse)
        outcome = run_extraction_on_tree(program, tree)
        assert "extracted" in outcome.field_status.values()
        assert run_decision(decision, text_doc) is False

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="ab.#>*[]:~, ", max_size=8))
    def test_direct_rule_with_invalid_selector_is_no_match(self, selector):
        """Such a rule never runs: it is refused when built, directly or by replace."""
        try:
            htmltree.parse_selector(selector)
        except ValueError:
            pass
        else:
            assume(False)
        valid = FieldRule("fat.value", "td")
        for build in (lambda: FieldRule("fat.value", selector),
                      lambda: dataclasses.replace(valid, selector=selector)):
            with pytest.raises(ProgramParseError) as err:
                build()
            assert [(i.path, i.kind) for i in err.value.issues] == [("selector", "InvalidSelector")]

    @pytest.mark.parametrize("capture", ["([0-9]", "[0-9]+", "([0-9])([a-z])"])
    def test_direct_rule_with_unusable_capture_is_no_match(self, capture):
        """Such a rule never runs: it is refused when built, directly or by replace."""
        valid = FieldRule("fat.value", "td", capture=r"([0-9]+)")
        for build in (lambda: FieldRule("fat.value", "td", capture=capture),
                      lambda: dataclasses.replace(valid, capture=capture)):
            with pytest.raises(ProgramParseError) as err:
                build()
            assert [(i.path, i.kind) for i in err.value.issues] == [("capture", "InvalidRegex")]

    def test_direct_rule_with_inapplicable_post_op_is_refused(self):
        with pytest.raises(ProgramParseError) as err:
            FieldRule("ingredient_statement", "p",
                      post_ops=(PostOp("trim"), PostOp("parse_decimal_comma")))
        assert [(i.path, i.kind) for i in err.value.issues] == [("post_ops[1]", "UnknownPostOp")]


_SIGNATURE_PATHS = ("ingredient_statement", "fat.value", "fat.unit_code", "salt.value")


@settings(max_examples=300, deadline=None)
@given(
    markup(),
    st.lists(st.tuples(st.sampled_from(_SIGNATURE_PATHS), selectors()),
             min_size=1, max_size=4, unique_by=lambda rule: rule[0]),
)
@example("<div class='a'><p>Zucker</p></div>", [("ingredient_statement", "div.b p")])
@example("<ul><li>1</li></ul>", [("fat.value", "li"), ("salt.value", "table li")])
def test_a_program_the_signature_rules_out_extracts_nothing(html, rules):
    """Where the page's name signature lacks a bit that every rule's selector
    needs, running the program gives the empty product with count 0, and
    each such rule selects nothing."""
    tree = htmltree.parse_html(html)
    program = ExtractionProgram("p", "FoodProduct", tuple(FieldRule(*rule) for rule in rules))
    absent = ~htmltree.name_signature(tree)
    ruled_out = [htmltree.selector_needs(rule.compiled_selector) & absent
                 for rule in program.rules]
    for rule, out in zip(program.rules, ruled_out):
        if out:
            assert htmltree.select(tree, rule.compiled_selector) == []
    if all(ruled_out):
        product = run_extraction_on_tree(program, tree).product
        assert (product, count_extracted(product)) == (FoodProduct(), 0)


# --- Program JSON text --------------------------------------------------------

#: Each leaf's field path and the post ops a rule on it may carry.
_LEAF_OPS = (
    (("ingredient_statement",), ("trim", "strip_label_prefix")),
    (tuple(f"{n}.value" for n in NUTRIENT_FIELDS), ("trim", "parse_decimal_comma")),
    (tuple(f"{n}.unit_code" for n in NUTRIENT_FIELDS), ("trim", "to_unit_code")),
)
# Few distinct keys, so drawn maps often repeat one.
_unit_keys = st.one_of(st.sampled_from(["g", "G", "kJ", '"\\']), jsontext.texts)


def _post_op(name):
    if name == "strip_label_prefix":
        return st.lists(jsontext.texts, max_size=3).map(
            lambda prefixes: PostOp(name, prefixes=tuple(prefixes)))
    if name == "to_unit_code":
        return st.lists(st.tuples(_unit_keys, jsontext.texts), max_size=4).map(
            lambda pairs: PostOp(name, unit_map=tuple(pairs)))
    return st.just(PostOp(name))


@st.composite
def _field_rules(draw):
    paths, ops = draw(st.sampled_from(_LEAF_OPS))
    capture = draw(st.one_of(
        st.none(),
        st.sampled_from([r'"(\d+)"', r'\\(.+)\\', "(\u2028+)"]),
        jsontext.texts.map(lambda text: re.escape(text) + "(.*)"),
    ))
    return FieldRule(
        draw(st.sampled_from(paths)),
        draw(selectors()),
        draw(st.integers(0, 50)),
        capture,
        tuple(draw(st.lists(st.sampled_from(ops).flatmap(_post_op), max_size=3))),
    )


_programs = st.builds(
    ExtractionProgram,
    program_id=jsontext.texts,
    target_schema_name=jsontext.texts,
    rules=st.lists(_field_rules(), max_size=4).map(tuple),
    created_by=jsontext.texts,
    generation=st.integers(0, 10**6),
)


@given(_programs)
@example(ExtractionProgram("prog-empty", "FoodProduct", ()))
@example(ExtractionProgram("p\u2029", "", (
    FieldRule("ingredient_statement", "div", capture='"(\\\\.*)"'),
    FieldRule("ingredient_statement", "p", post_ops=(PostOp("strip_label_prefix"),)),
    FieldRule("fat.unit_code", "td", post_ops=(
        PostOp("to_unit_code"),
        PostOp("to_unit_code", unit_map=(("kJ", "KJO"), ("g", "GRM"), ("kJ", "E14"), ("G", "X"))),
        PostOp("trim"),
    )),
), created_by="\U0001f600", generation=3))
@settings(max_examples=300, deadline=None)
def test_program_json_is_byte_identical_to_json_dumps(program):
    """The writer, on programs with no rules, empty post ops, prefixes and
    maps, unsorted maps repeating a key, and awkward strings everywhere."""
    expected = json.dumps(program.to_dict(), indent=2, ensure_ascii=False, sort_keys=True)
    assert program.to_json() == expected


# --- The interpreter on drawn programs ------------------------------------------

_RULE_PROPERTIES = extraction_program_json_schema()["properties"]["rules"]["items"]["properties"]
#: Captures a model might write: linear ones, the exponential shapes the
#: compile refuses, and ones re cannot build or that hold no or two groups.
_CAPTURES = (r"(.*)", r"(\S+)", r"\s*(.*)\s*$", r"([0-9]+(?:[.,][0-9]+)?)",
             r"[0-9.,]+\s*([A-Za-z]+)", r"(?:a|b)+(.)", r"(a+)b", r"(?i)(zutaten)",
             r"^((?:a|aa)+)$", r"((?:a{1,5})+)b", r"((?:a|a)+)$", r"((?:ab|a.)+)$",
             r"^(?:a+)+(b)$", r"(a)\1", r"(", r"a", r"(a)(b)")
_WORDS = st.sampled_from(["Zutaten:", "a", " ", "g", "kJ", "GRM", "3,5", "b"])
#: Field paths with selectors that the product fragments of _drawn_pages match,
#: and one selector outside the supported subset.
_AIMED = (("ingredient_statement", "p.b"), ("ingredient_statement", "div.c"),
          ("ingredient_statement", "*"), ("fat.value", "td.b"), ("fat.value", "td.a"),
          ("fat.unit_code", "td.a"), ("salt.value", "td"), ("fat.value", "td:first"))


def _allowed_ops(field_path):
    """The post ops a rule on the leaf at ``field_path`` may carry."""
    if field_path.endswith(".value"):
        return ["trim", "parse_decimal_comma"]
    if field_path.endswith(".unit_code"):
        return ["trim", "to_unit_code"]
    return ["trim", "strip_label_prefix"]


@st.composite
def _drawn_post_op(draw, field_path):
    ops = st.sampled_from(_RULE_PROPERTIES["post_ops"]["items"]["properties"]["op"]["enum"])
    entry = {"op": draw(st.sampled_from(_allowed_ops(field_path)) | ops)}
    if draw(st.booleans()):
        entry["prefixes"] = draw(st.lists(_WORDS, max_size=3))
    if entry["op"] == "to_unit_code" or draw(st.booleans()):
        entry["map"] = draw(st.dictionaries(_WORDS, _WORDS, max_size=3))
    return entry


@st.composite
def _drawn_rule(draw):
    """A rule as extraction_program_json_schema describes it: a field path
    from its enum, a selector over the tag soup's names, and optional node
    index, capture and post ops."""
    field_path, selector = draw(st.sampled_from(_AIMED) | st.tuples(
        st.sampled_from(_RULE_PROPERTIES["field_path"]["enum"]), selectors()))
    rule = {"field_path": field_path, "selector": selector}
    if draw(st.booleans()):
        rule["node_index"] = draw(st.integers(0, 3))
    if draw(st.booleans()):
        rule["capture"] = draw(st.none() | st.sampled_from(_CAPTURES))
    if draw(st.booleans()):
        rule["post_ops"] = draw(st.lists(_drawn_post_op(field_path), max_size=3))
    return rule


_drawn_extractions = st.builds(
    lambda rules, generation: {"kind": "extraction", "program_id": "p", "rules": rules,
                               "generation": generation},
    st.lists(_drawn_rule(), min_size=1, max_size=4), st.integers(0, 3),
)
_drawn_predicates = st.recursive(
    st.builds(lambda value: {"op": "contains_keyword", "value": value}, _WORDS)
    | st.builds(lambda pattern: {"op": "matches_regex", "pattern": pattern},
                st.sampled_from(_CAPTURES)),
    lambda inner: st.builds(lambda op, args: {"op": op, "args": args},
                            st.sampled_from(["and", "or", "not"]),
                            st.lists(inner, min_size=1, max_size=3)),
    max_leaves=8,
)
_drawn_decisions = st.builds(lambda predicate: {"kind": "decision", "program_id": "d",
                                               "predicate": predicate}, _drawn_predicates)
#: A run of a's that no pattern in _CAPTURES can end with its anchor or b:
#: the text on which the refused shapes backtrack for seconds to hours.
_BACKTRACK_BAIT = "a" * 40 + "c"
#: Tag soup with the product fragments put in, in a drawn order, at a drawn
#: place, perhaps inside a tag or a comment.
_drawn_pages = st.builds(
    lambda soup, fragments, at: soup[:at] + "".join(fragments) + soup[at:],
    markup(),
    st.permutations(('<td class="a">3,5 g</td>', '<td class="b">7,2</td>',
                     '<p class="b">Zutaten: Zucker</p>', f"<div class=c>{_BACKTRACK_BAIT}</div>")),
    st.just(0) | st.integers(0, 300),  # an unclosed script or footer in the soup hides them
)
#: Seconds one drawn program may take on one page, both ways.
_EXAMPLE_BOUND_S = 1.0


@contextlib.contextmanager
def _time_bound(seconds):
    """Fail the block with TimeoutError once it has run ``seconds``: a timer
    interrupts it, and re's matching loop checks for signals."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=300, deadline=None)
@given(_drawn_pages, _drawn_extractions | _drawn_decisions)
@example(f"<div class=c>{_BACKTRACK_BAIT}</div>", {
    "kind": "extraction", "program_id": "p",
    "rules": [{"field_path": "ingredient_statement", "selector": "div.c",
               "capture": r"^((?:a|aa)+)$"}]})
@example('<p class="b">Zutaten: Zucker</p><td class="a">3,5 g</td>', {
    "kind": "extraction", "program_id": "p",
    "rules": [{"field_path": "ingredient_statement", "selector": "p.b",
               "post_ops": [{"op": "strip_label_prefix"}]},
              {"field_path": "fat.value", "selector": "td.a",
               "capture": r"([0-9]+(?:[.,][0-9]+)?)", "post_ops": [{"op": "parse_decimal_comma"}]},
              {"field_path": "fat.unit_code", "selector": "td",
               "capture": r"[0-9.,]+\s*([A-Za-z]+)",
               "post_ops": [{"op": "to_unit_code", "map": {"g": "GRM"}}]}]})
def test_a_drawn_program_is_refused_or_runs_alike_on_the_page_and_its_tree(html, data):
    """A program drawn from the schema a model writes to is refused by
    parse_program, or runs within a time bound: an extraction program gives
    the same product from the matching scan of the raw tag soup as from the
    tree of the HTML its prompt would carry, and a decision program votes."""
    from prodex.compress import UnparsableDocument, compress_both
    from prodex.dsl import decision_votes, program_scan, run_extractions
    from prodex.reader import RawDocument

    with _time_bound(_EXAMPLE_BOUND_S):
        try:
            program = parse_program(json.dumps(data))
        except ProgramParseError:
            return
        raw = RawDocument("p", html)
        try:
            html_doc, text_doc = compress_both(raw)
        except UnparsableDocument:
            if isinstance(program, ExtractionProgram):
                with pytest.raises(UnparsableDocument):
                    run_extractions(program_scan((program.rules,)), raw)
            return
        if isinstance(program, DecisionProgram):
            assert decision_votes((program,), text_doc) in (0, 1)
        else:
            (scanned,), _ = run_extractions(program_scan((program.rules,)), raw)
            tree = htmltree.parse_html(html_doc.content)
            assert scanned == run_extraction_on_tree(program, tree).product


def test_a_capture_reads_at_most_the_capped_text_of_a_huge_element(monkeypatch):
    """A 100,000-character text under a targeted element: a capture that
    backtracks for time quadratic in its text runs within 1 s on the raw
    page, cold and from the page's recorded skeleton, and on the tree, as it
    reads only the first CAPTURE_TEXT_LIMIT characters."""
    from prodex.compress import compress_both
    from prodex.dsl import program_scan, run_extractions
    from prodex.reader import RawDocument

    rule = FieldRule("fat.value", "td.fat", capture=r"(\d+)\s*g")
    program = ExtractionProgram("p", "FoodProduct", (rule,))
    scan = program_scan((program.rules,))
    html = '<td class="fat">' + "1" * 100_000 + "</td>"
    raw = RawDocument("p", html)

    def run():
        with _time_bound(_EXAMPLE_BOUND_S):
            (product,), _ = run_extractions(scan, raw)
        assert product == FoodProduct()

    run()
    skeletons = htmltree._Skeletons()  # so that a cold scan records the page
    monkeypatch.setattr(htmltree, "_skeletons", skeletons)
    run()
    assert skeletons.lookup(html, scan.targets) is not None
    run()  # from the page's skeleton
    tree = htmltree.parse_html(compress_both(raw)[0].content)
    with _time_bound(_EXAMPLE_BOUND_S):
        outcome = run_extraction_on_tree(program, tree)
    assert outcome.field_status == {"fat.value": "no_match"}

    from prodex.dsl import CAPTURE_TEXT_LIMIT

    def fat(text):
        page = htmltree.parse_html(f'<td class="fat">{text}</td>')
        return run_extraction_on_tree(program, page).product.fat

    pad = "x" * CAPTURE_TEXT_LIMIT
    assert fat("5 g" + pad) == QuantitativeValue(Decimal("5"))
    assert fat(pad[:-3] + "5 g") == QuantitativeValue(Decimal("5"))
    assert fat(pad[:-2] + "5 g") is None
