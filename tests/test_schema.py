import json
import time
from decimal import Decimal

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st
import jsontext

from prodex.schema import (
    FIELDS,
    FoodProduct,
    NUTRIENT_FIELDS,
    QuantitativeValue,
    SchemaViolation,
    filled_field_ratio,
    parse_product,
    product_from_dict,
    product_to_dict,
    serialize_product,
    to_json_schema,
    to_json_schema_dict,
)


class TestDescriptor:
    def test_eight_fields(self):
        assert len(FIELDS) == 8
        assert tuple(spec.name for spec in FIELDS) == ("ingredient_statement",) + NUTRIENT_FIELDS


class TestJsonSchemaEmission:
    def test_ingredient_description_embeds_instruction(self):
        text = to_json_schema()
        data = json.loads(text)
        description = data["properties"]["ingredient_statement"]["description"]
        assert "Remove unnecessary prefixes" in description

    def test_round_trip_reproduces_field_names(self):
        data = json.loads(to_json_schema())
        assert tuple(data["properties"]) == FoodProduct.field_names()

    def test_field_names_are_built_once(self):
        assert FoodProduct.field_names() is FoodProduct().field_names()

    def test_deterministic_bytes(self):
        assert to_json_schema() == to_json_schema()

    def test_emitted_schema_is_valid_jsonschema(self):
        schema = to_json_schema_dict()
        jsonschema.validators.validator_for(schema).check_schema(schema)


class TestParseProduct:
    def test_single_text_field(self):
        product = parse_product('{"ingredient_statement":"Zucker, Kakao"}')
        assert product.ingredient_statement == "Zucker, Kakao"
        assert len(product.populated_fields()) == 1

    def test_quantity_field_validates_against_emitted_schema(self):
        payload = '{"fat":{"value":3.5,"unit_code":"GRM"}}'
        product = parse_product(payload)
        assert product.fat == QuantitativeValue(Decimal("3.5"), "GRM")
        # independent check through the jsonschema library
        jsonschema.validate(json.loads(payload), to_json_schema_dict())

    def test_type_error_reports_path(self):
        with pytest.raises(SchemaViolation) as err:
            parse_product('{"fat":{"value":"lots"}}')
        assert any(path == "fat.value" for path, _ in err.value.errors)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, number):
        with pytest.raises(SchemaViolation) as err:
            parse_product('{"fat":{"value":%s,"unit_code":"GRM"}}' % number)
        assert [path for path, _ in err.value.errors] == ["fat.value"]

    @pytest.mark.parametrize(
        "number", ["1e1000000", "-1e1000000", "1e-1000000", "0e-1000000", "1e21", "1" * 22]
    )
    def test_out_of_range_number_rejected_quickly(self, number):
        start = time.perf_counter()
        with pytest.raises(SchemaViolation) as err:
            parse_product('{"fat":{"value":%s,"unit_code":"GRM"}}' % number)
        assert time.perf_counter() - start < 0.5
        assert [path for path, _ in err.value.errors] == ["fat.value"]

    @pytest.mark.parametrize("number", ["1e20", "-9.9e20", "1e-20", "1" * 21, '"0,00000000000000000001"'])
    def test_largest_magnitudes_accepted(self, number):
        product = parse_product('{"fat":{"value":%s}}' % number)
        assert abs(product.fat.value.adjusted()) <= 20

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_is_not_a_number(self, value):
        payload = '{"fat":{"value":%s,"unit_code":"GRM"}}' % value
        with pytest.raises(SchemaViolation) as err:
            parse_product(payload)
        assert [path for path, _ in err.value.errors] == ["fat.value"]
        # the emitted JSON Schema rejects it too
        assert not jsonschema.Draft202012Validator(to_json_schema_dict()).is_valid(
            json.loads(payload)
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaViolation) as err:
            parse_product('{"brand":"X"}')
        assert err.value.errors == [("brand", "unknown field")]

    def test_decimal_comma_string_accepted(self):
        product = parse_product('{"salt":{"value":"0,9","unit_code":"GRM"}}')
        assert product.salt.value == Decimal("0.9")

    def test_null_fields_are_absent(self):
        product = parse_product('{"fat":null,"ingredient_statement":null}')
        assert product.populated_fields() == ()

    def test_prefix_stripped_with_warning(self):
        product = parse_product('{"ingredient_statement":"Zutaten: Zucker"}')
        assert product.ingredient_statement == "Zucker"

    def test_unknown_unit_code_preserved_but_flagged(self):
        product = parse_product('{"fat":{"value":1,"unit_code":"OZ"}}')
        assert product.fat.unit_code == "OZ"

    def test_quantity_without_value_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_product('{"fat":{"unit_code":"GRM"}}')

    def test_malformed_json(self):
        with pytest.raises(SchemaViolation):
            parse_product("{nope")

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"fat":{"value":%s}}' % ("1" * 5000),
    ], ids=["deep", "digits"])
    def test_json_python_cannot_read_is_malformed(self, text):
        with pytest.raises(SchemaViolation) as err:
            parse_product(text)
        assert [path for path, _ in err.value.errors] == ["$"]


_DECODED = [
    {},
    {"ingredient_statement": "Zutaten: Zucker", "fat": {"value": "3,5", "unit_code": "GRM"}},
    {"energy": {"value": 1.5}, "salt": {"value": 2}, "sugars": None, "protein": {"value": "0"}},
    {"fat": {"value": 1e20}, "salt": {"value": -0.25, "unit_code": None}},
    {"ingredient_statement": "   "},
    [],
    "product",
    None,
    {"colour": "red"},
    {"ingredient_statement": 5},
    {"ingredient_statement": ["Zucker"]},
    {"fat": "3,5 g"},
    {"fat": {"value": "3,5", "grams": 3}},
    {"fat": {"unit_code": "GRM"}},
    {"fat": {"value": None}},
    {"fat": {"value": "drei"}},
    {"fat": {"value": True}},
    {"fat": {"value": "1e21"}},
    {"fat": {"value": 1, "unit_code": ""}},
    {"fat": {"value": 1, "unit_code": 7}},
    {"colour": "red", "fat": {"value": "x"}, "salt": [], "ingredient_statement": {}},
]


@pytest.mark.parametrize("decoded", _DECODED, ids=range(len(_DECODED)))
def test_validating_decoded_json_equals_parsing_its_text(decoded):
    try:
        want = parse_product(json.dumps(decoded))
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as err:
            product_from_dict(decoded)
        assert err.value.errors == exc.errors
    else:
        assert product_from_dict(decoded) == want


def test_decoded_float_is_reported_by_its_decoded_type():
    """parse_product decodes a float as Decimal, so where a message names a
    value's type or repr, the two differ in that word and only there."""
    decoded = {"ingredient_statement": 1.5, "fat": {"value": 1e30}}
    with pytest.raises(SchemaViolation) as parsed:
        parse_product(json.dumps(decoded))
    with pytest.raises(SchemaViolation) as validated:
        product_from_dict(decoded)
    assert parsed.value.errors == [
        ("ingredient_statement", "expected string, got Decimal"),
        ("fat.value", "malformed number: Decimal('1E+30')"),
    ]
    assert validated.value.errors == [
        ("ingredient_statement", "expected string, got float"),
        ("fat.value", "malformed number: 1e+30"),
    ]
    with pytest.raises(SchemaViolation) as redecoded:
        product_from_dict(json.loads(json.dumps(decoded), parse_float=Decimal))
    assert redecoded.value.errors == parsed.value.errors


class TestFilledFieldRatio:
    def test_full(self):
        product = parse_product(
            json.dumps(
                {
                    "ingredient_statement": "a",
                    **{
                        n: {"value": "1", "unit_code": "GRM"}
                        for n in NUTRIENT_FIELDS
                    },
                }
            )
        )
        assert filled_field_ratio(product) == 1.0

    def test_empty(self):
        assert filled_field_ratio(FoodProduct()) == 0.0

    def test_seven_of_eight(self):
        product = parse_product(
            json.dumps(
                {n: {"value": "1", "unit_code": "GRM"} for n in NUTRIENT_FIELDS}
            )
        )
        assert filled_field_ratio(product) == 0.875


# --- property tests -----------------------------------------------------------

_decimals = st.decimals(
    min_value=Decimal("0"), max_value=Decimal("9999"), places=2, allow_nan=False
)
_units = st.sampled_from(["KJO", "E14", "GRM", "MGM"])
_quantities = st.builds(
    QuantitativeValue,
    value=_decimals,
    unit_code=st.one_of(st.none(), _units),
)
# Valid products carry canonical (stripped, prefix-free) statements.
_statements = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs"), whitelist_characters="äöüß,"),
    min_size=1,
    max_size=40,
).map(str.strip).filter(bool)


@st.composite
def products(draw):
    fields = {}
    if draw(st.booleans()):
        fields["ingredient_statement"] = draw(_statements)
    for nutrient in NUTRIENT_FIELDS:
        if draw(st.booleans()):
            fields[nutrient] = draw(_quantities)
    return FoodProduct(**fields)


@given(products())
@settings(max_examples=100, deadline=None)
def test_parse_serialize_round_trip(product):
    again = parse_product(serialize_product(product))
    assert again == product


@given(st.dictionaries(
    keys=st.sampled_from(list(("ingredient_statement",) + NUTRIENT_FIELDS) + ["bogus"]),
    values=st.one_of(
        st.none(),
        st.text(max_size=8),
        st.integers(min_value=-5, max_value=5),
        st.fixed_dictionaries(
            {},
            optional={
                "value": st.one_of(
                    st.integers(-10, 10), st.sampled_from(["3,5", "x", "1.25", ""])
                ),
                "unit_code": st.one_of(st.none(), st.sampled_from(["GRM", "", "OZ"])),
                "extra": st.just(1),
            },
        ),
    ),
    max_size=4,
))
@settings(max_examples=200, deadline=None)
def test_parser_agrees_with_independent_jsonschema_checker(doc):
    """Dual-route check: hand validator and the jsonschema library must agree.

    The one deliberate divergence is the ingredient prefix strip, which never
    changes acceptance, and text fields that strip to empty (accepted as
    absent by the parser, accepted as a string by the schema) — both accept.
    """
    payload = json.dumps(doc, ensure_ascii=False)
    try:
        parse_product(payload)
        ours_ok = True
    except SchemaViolation:
        ours_ok = False
    schema = to_json_schema_dict()
    try:
        jsonschema.validate(json.loads(payload), schema)
        theirs_ok = True
    except jsonschema.ValidationError:
        theirs_ok = False
    assert ours_ok == theirs_ok


def test_product_to_dict_omits_absent_fields():
    product = FoodProduct(fat=QuantitativeValue(Decimal("3.5"), "GRM"))
    assert product_to_dict(product) == {"fat": {"value": "3.5", "unit_code": "GRM"}}


@given(jsontext.products(), st.sampled_from(["", "  ", "    "]))
@example(jsontext.FULL_PRODUCT, "")
@example(jsontext.FULL_PRODUCT, "    ")
@example(FoodProduct(), "    ")
@example(FoodProduct(energy=QuantitativeValue(Decimal("-0E+20"))), "")
@settings(max_examples=300, deadline=None)
def test_serialize_product_is_byte_identical_to_json_dumps(product, prefix):
    expected = json.dumps(product_to_dict(product), indent=2, ensure_ascii=False)
    assert serialize_product(product) == expected
    # JSON text holds no raw line break, so the prefix follows each "\n".
    assert serialize_product(product, prefix) == expected.replace("\n", "\n" + prefix)
