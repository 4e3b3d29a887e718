import dataclasses
import json
import time
from decimal import Decimal, InvalidOperation

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st
import jsontext
import reference_schema

from prodex import schema
from prodex.gateway import request_schema
from prodex.schema import (
    FIELDS,
    KNOWN_LABEL_PREFIXES,
    FieldKind,
    QUANTITY_MEMO_SIZE,
    FoodProduct,
    NUTRIENT_FIELDS,
    QuantitativeValue,
    SchemaViolation,
    filled_field_ratio,
    parse_decimal,
    parse_product,
    product_from_dict,
    product_to_dict,
    quantity,
    serialize_product,
    strip_known_prefix,
    to_json_schema_dict,
)


class TestDescriptor:
    def test_eight_fields(self):
        assert len(FIELDS) == 8
        assert tuple(spec.name for spec in FIELDS) == ("ingredient_statement",) + NUTRIENT_FIELDS

    def test_the_product_declares_the_fields_in_schema_order(self):
        """product_from_dict fills FoodProduct by position: the text field
        first, the nutrients after it."""
        assert tuple(f.name for f in dataclasses.fields(FoodProduct)) == tuple(
            spec.name for spec in FIELDS)
        assert [spec.kind for spec in FIELDS] == [FieldKind.TEXT] + [FieldKind.QUANTITY] * 7


class TestJsonSchemaEmission:
    """The product schema as the gateway encodes it, once, for prompts and
    for the provider."""

    def test_ingredient_description_embeds_instruction(self):
        text = request_schema(to_json_schema_dict).text
        data = json.loads(text)
        description = data["properties"]["ingredient_statement"]["description"]
        assert "Remove unnecessary prefixes" in description

    def test_round_trip_reproduces_field_names(self):
        data = json.loads(request_schema(to_json_schema_dict).text)
        assert tuple(data["properties"]) == tuple(f.name for f in dataclasses.fields(FoodProduct))

    def test_deterministic_bytes(self):
        schema = request_schema(to_json_schema_dict)
        assert request_schema(to_json_schema_dict) is schema  # built once
        assert schema == to_json_schema_dict()
        assert schema.text == json.dumps(to_json_schema_dict(), indent=2, ensure_ascii=False)
        assert schema.key_text == json.dumps(to_json_schema_dict(), sort_keys=True,
                                             ensure_ascii=False)

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


# --- the quantity memo ------------------------------------------------------------


def _reference_parse_quantity(path, raw, errors):
    """``schema._parse_quantity`` as it was before quantities were interned."""
    if not isinstance(raw, dict):
        errors.append((path, f"expected object, got {type(raw).__name__}"))
        return None
    unknown = set(raw) - {"value", "unit_code"}
    for key in sorted(unknown):
        errors.append((f"{path}.{key}", "unknown field"))
    if "value" not in raw or raw["value"] is None:
        errors.append((f"{path}.value", "missing value"))
        return None
    try:
        value = parse_decimal(raw["value"])
    except InvalidOperation:
        errors.append((f"{path}.value", f"malformed number: {raw['value']!r}"))
        return None
    unit = raw.get("unit_code")
    if unit is not None and (not isinstance(unit, str) or not unit):
        errors.append((f"{path}.unit_code", "must be a non-empty string"))
        return None
    if unknown:
        return None
    return QuantitativeValue(value=value, unit_code=unit)


def _reference_product(data: dict) -> FoodProduct:
    errors = []
    values = {}
    for key, raw in data.items():
        if raw is None:
            continue
        qv = _reference_parse_quantity(key, raw, errors)
        if qv is not None:
            values[key] = qv
    if errors:
        raise SchemaViolation(errors)
    return FoodProduct(**values)


_value_texts = st.one_of(
    st.from_regex(r"\A[ \t\n]?-?[0-9]{1,4}(?:[.,][0-9]{1,3})?[ \n]?\Z"),
    st.sampled_from(["1.0", "1.00", "3,5", " 3,5 ", "-0", "007", "1e5", "1E5", "0x1F", "",
                     " ", "1.", ".5", "1,2,3", "1" * 21, "1" * 22, "0," + "0" * 19 + "1",
                     "0." + "0" * 20 + "1", "NaN", "Infinity", "١٢", "drei"]),
    st.text(max_size=6),
)
_values = st.one_of(
    st.none(),
    _value_texts,
    st.booleans(),
    st.integers(min_value=-(10 ** 25), max_value=10 ** 25),
    st.floats(),
    st.decimals(),
    st.just([1]),
)
_unit_values = st.one_of(
    st.none(), st.sampled_from(["GRM", "KJO", "", " ", "g"]), st.integers(0, 2), st.booleans(),
    st.just(["GRM"]),
)
_quantity_dicts = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={"value": _values, "unit_code": _unit_values, "extra": st.just(1),
                  "Value": st.just("1")},
    ),
    _values,
)


@given(st.dictionaries(st.sampled_from(NUTRIENT_FIELDS), _quantity_dicts, max_size=4))
@example({"fat": {"value": "1.0"}, "salt": {"value": "1.00"}})
@example({"fat": {"value": "3,5", "unit_code": "GRM"}, "salt": {"value": " 3,5 ", "extra": 1}})
@example({"fat": {"value": "1e5", "unit_code": ""}, "sugars": {"value": True}})
@example({"fat": {"value": "3.5", "unit_code": ""}, "salt": {"value": "3.5", "extra": 1}})
@settings(max_examples=400, deadline=None)
def test_interned_quantities_match_the_reference(data):
    """Same product, value text for value text, or the same errors in the same
    order, as before quantities were interned; and again once the memo holds
    the texts."""
    try:
        want = _reference_product(data)
    except SchemaViolation as exc:
        for _ in range(2):
            with pytest.raises(SchemaViolation) as err:
                product_from_dict(data)
            assert err.value.errors == exc.errors
    else:
        for _ in range(2):
            assert repr(product_from_dict(data)) == repr(want)


def test_equal_texts_give_the_identical_quantity():
    first = product_from_dict({"fat": {"value": "3.5", "unit_code": "GRM"}})
    second = parse_product('{"fat": {"value": "3.5", "unit_code": "GRM"}}')
    assert second.fat is first.fat
    assert quantity("3.5", "GRM") is first.fat
    assert quantity("3.5") is not first.fat  # another unit
    assert quantity("3.5") == QuantitativeValue(Decimal("3.5"))


def test_texts_that_print_differently_stay_distinct():
    one, two = quantity("1.0", "GRM"), quantity("1.00", "GRM")
    assert one == two and one is not two
    assert (str(one.value), str(two.value)) == ("1.0", "1.00")
    product = product_from_dict({"fat": {"value": "1.00"}, "salt": {"value": "1.0"}})
    assert (str(product.fat.value), str(product.salt.value)) == ("1.00", "1.0")


def test_numbers_are_not_interned():
    assert quantity(1) is not quantity(1)
    assert str(quantity(1.0).value) == "1.0"
    with pytest.raises(InvalidOperation):
        quantity(True)


def test_invalid_quantities_never_enter_the_memo():
    schema.interned_decimal.cache_clear()
    schema._interned_quantity.cache_clear()
    for data in [
        {"fat": {"value": "drei", "unit_code": "GRM"}},
        {"fat": {"value": "1e21"}},
        {"fat": {"value": "3.5", "unit_code": ""}},
        {"fat": {"value": "3.5", "unit_code": 7}},
        {"fat": {"value": "3.5", "unit_code": "GRM", "extra": 1}},
        {"fat": {"value": "3.5", "Value": "3.5"}},
    ]:
        with pytest.raises(SchemaViolation):
            product_from_dict(data)
    assert schema._interned_quantity.cache_info().currsize == 0
    assert schema.interned_decimal.cache_info().currsize == 0


def test_memo_size_never_exceeds_its_bound():
    for memo in (schema._interned_quantity, schema.interned_decimal):
        assert memo.cache_info().maxsize == QUANTITY_MEMO_SIZE
    for k in range(QUANTITY_MEMO_SIZE + 50):
        product = product_from_dict({"fat": {"value": f"{k}.5", "unit_code": "GRM"}})
        assert product.fat.value == Decimal(f"{k}.5")
        for memo in (schema._interned_quantity, schema.interned_decimal):
            assert memo.cache_info().currsize <= QUANTITY_MEMO_SIZE
    assert schema._interned_quantity.cache_info().currsize == QUANTITY_MEMO_SIZE


def test_threads_share_the_memo_without_losing_a_quantity():
    """``extract direct --workers N`` parses answers on N threads at once."""
    import sys
    import threading

    texts = [f"{k % 700}.{k % 7}" for k in range(3000)]
    want = {text: _reference_product({"salt": {"value": text, "unit_code": "GRM"}})
            for text in set(texts)}
    wrong = []

    def work(offset):
        for text in texts[offset:] + texts[:offset]:
            got = product_from_dict({"salt": {"value": text, "unit_code": "GRM"}})
            if repr(got) != repr(want[text]):
                wrong.append(text)

    schema._interned_quantity.cache_clear()
    schema.interned_decimal.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 97,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert schema._interned_quantity.cache_info().currsize == len(want)
    assert quantity("1.1", "GRM") is quantity("1.1", "GRM")


def _reference_strip_known_prefix(text, prefixes=KNOWN_LABEL_PREFIXES):
    for prefix in prefixes:
        if text.lower().startswith(prefix.lower()):
            return text[len(prefix):].lstrip()
    return text


@given(
    st.one_of(
        st.text(max_size=20),
        st.tuples(st.sampled_from(["", "İ", "ß", " "]),
                  st.sampled_from(list(KNOWN_LABEL_PREFIXES) + ["ZUTATEN:", "zutaten:", "İngredients:"]),
                  st.text(max_size=8)).map("".join),
    ),
    st.one_of(st.just(KNOWN_LABEL_PREFIXES),
              st.lists(st.sampled_from(["İ", "i̇x", "Zutaten:", "ß", "SS", ""]), max_size=3).map(tuple)),
)
@example("İngredients: Zucker", ("i̇", "İngredients:"))
@example("ZUTATEN: Zucker", KNOWN_LABEL_PREFIXES)
@settings(max_examples=300, deadline=None)
def test_strip_known_prefix_matches_the_reference(text, prefixes):
    assert strip_known_prefix(text, prefixes) == _reference_strip_known_prefix(text, prefixes)


# Decoded product JSON as a model, a truth file or a run file may hold it.
_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.just([1]), st.just({}),
                  st.text(max_size=3))
_decoded_numbers = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10 ** 22), max_value=10 ** 22),
    st.floats(),
    st.decimals(),
    st.from_regex(r"\A[ \t]?-?[0-9]{1,3}(?:[.,][0-9]{1,3})?[ \n]?\Z"),
    st.sampled_from(["1.0", "1.00", "3,50", "1" * 21, "1e5", "", "drei"]),
    _junk,
)
_decoded_units = st.one_of(st.none(), st.sampled_from(["GRM", "KJO", "", " "]),
                           st.integers(0, 1), st.booleans(), st.just(["GRM"]))
_decoded_quantities = st.one_of(
    st.fixed_dictionaries({}, optional={"value": _decoded_numbers, "unit_code": _decoded_units,
                                        "extra": _junk, "Value": st.just("1")}),
    _junk,
)
_decoded_statements = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\n\t"]),
              st.sampled_from(["", *KNOWN_LABEL_PREFIXES, "ZUTATEN:", "İngredients:"]),
              st.sampled_from(["", " ", "Zucker, Salz", "Zutaten: x"]),
              st.sampled_from(["", " \n"])).map("".join),
    st.text(max_size=6),
    _junk,
)
_valid_quantities = st.fixed_dictionaries(
    {"value": st.one_of(
        st.integers(-999, 99999), st.floats(-1e6, 1e6), st.decimals(-1000, 1000, places=3),
        st.from_regex(r"\A[ \t]?-?[0-9]{1,3}(?:[.,][0-9]{1,3})?[ \n]?\Z"),
        st.sampled_from(["1.0", "1.00", "3,50", "-0"]))},
    optional={"unit_code": st.one_of(st.none(), st.sampled_from(["GRM", "KJO", " "]))},
)


@st.composite
def _decoded_products(draw):
    """An object of valid fields in drawn key order, where up to two fields
    may hold anything instead and unknown keys may be added."""
    names = ("ingredient_statement", *NUTRIENT_FIELDS)
    messy = draw(st.sets(st.sampled_from(names), max_size=2)) if draw(st.booleans()) else ()
    fields = {}
    for name in names:
        if name in messy:
            fields[name] = draw(
                _decoded_statements if name == "ingredient_statement" else _decoded_quantities)
        elif draw(st.booleans()):
            fields[name] = draw(
                _decoded_statements.filter(lambda raw: isinstance(raw, (str, type(None))))
                if name == "ingredient_statement" else _valid_quantities)
    if draw(st.integers(0, 3)) == 3:
        for name in draw(st.lists(st.sampled_from(["colour", "Fat", ""]), min_size=1,
                                  max_size=2, unique=True)):
            fields[name] = draw(_junk)
    return dict(draw(st.permutations(list(fields.items()))))


@given(st.one_of(_decoded_products(), _junk))
@example({"colour": "red", "fat": {"value": "x", "extra": 1}, "salt": [],
          "ingredient_statement": {}})
@example({"fat": {"value": "1.00", "unit_code": "GRM"}, "salt": {"value": "1.0"},
          "ingredient_statement": " Zutaten: Zucker "})
@example({"fat": {"value": True, "unit_code": ""}, "sugars": {"unit_code": "GRM", "b": 1, "a": 2}})
@example({"protein": {"value": 1.5, "unit_code": None}, "energy": {"value": Decimal("2E+3")}})
@example({"salt": {"value": "1", "unit_code": 1}})
@settings(max_examples=500, deadline=None)
def test_one_pass_validation_equals_the_reference(data):
    """The same product, its quantities the interned objects and its text the
    same bytes, or the same errors in the same order, as the validation that
    built an error list and a values dict for every product."""
    try:
        want = reference_schema.product_from_dict(data)
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as err:
            product_from_dict(data)
        assert err.value.errors == exc.errors
        return
    got = product_from_dict(data)
    assert serialize_product(got) == serialize_product(want)
    assert repr(got) == repr(want)
    for name in NUTRIENT_FIELDS:
        raw = data.get(name)
        if isinstance(raw, dict) and type(raw.get("value")) is str:  # an interned quantity
            assert getattr(got, name) is getattr(want, name)
