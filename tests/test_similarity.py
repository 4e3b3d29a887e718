import time
from decimal import Decimal
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import jsontext

from prodex.schema import (
    FIELDS,
    FieldKind,
    FoodProduct,
    NUTRIENT_FIELDS,
    QuantitativeValue,
)
from prodex.similarity import (
    Mismatch,
    MismatchKind,
    SimilarityReport,
    _display,
    _score_quantity,
    _score_text,
    compare,
    levenshtein,
    render_feedback,
    string_similarity,
)

GOLDEN = Path(__file__).parent / "golden"


def _full_product(**overrides):
    fields = {"ingredient_statement": "Zucker, Kakao"}
    for nutrient in NUTRIENT_FIELDS:
        fields[nutrient] = QuantitativeValue(Decimal("3.5"), "GRM")
    fields.update(overrides)
    return FoodProduct(**fields)


class TestWorkedExamples:
    def test_identical_products_score_one(self):
        product = _full_product()
        report = compare(product, product)
        assert report.overall == 1.0
        assert report.mismatches == ()

    def test_missing_salt_scores_seven_eighths(self):
        reference = _full_product()
        extracted = _full_product(salt=None)
        report = compare(extracted, reference)
        assert report.overall == 0.875
        assert len(report.mismatches) == 1
        mismatch = report.mismatches[0]
        assert mismatch.kind is MismatchKind.MISSING_ATTRIBUTE
        assert mismatch.field_path == "salt"

    def test_unit_mismatch_gives_half_credit_on_attribute(self):
        reference = _full_product(fat=QuantitativeValue(Decimal("3.5"), "MGM"))
        extracted = _full_product(fat=QuantitativeValue(Decimal("3.5"), "GRM"))
        report = compare(extracted, reference)
        assert report.per_attribute["fat"] == 0.5
        assert report.overall == 0.9375
        assert len(report.mismatches) == 1
        assert report.mismatches[0].field_path == "fat.unit_code"
        assert report.mismatches[0].kind is MismatchKind.VALUE_MISMATCH


class TestErrorKinds:
    def test_additional_attribute(self):
        report = compare(_full_product(), _full_product(energy=None))
        assert any(
            m.kind is MismatchKind.ADDITIONAL_ATTRIBUTE and m.field_path == "energy"
            for m in report.mismatches
        )

    def test_nested_missing_unit(self):
        reference = _full_product(fat=QuantitativeValue(Decimal("1"), "GRM"))
        extracted = _full_product(fat=QuantitativeValue(Decimal("1"), None))
        report = compare(extracted, reference)
        assert report.per_attribute["fat"] == 0.5
        assert report.mismatches[0].kind is MismatchKind.MISSING_ATTRIBUTE
        assert report.mismatches[0].field_path == "fat.unit_code"

    def test_unit_code_comparison_case_insensitive(self):
        reference = _full_product(fat=QuantitativeValue(Decimal("1"), "grm"))
        extracted = _full_product(fat=QuantitativeValue(Decimal("1"), "GRM"))
        assert compare(extracted, reference).overall == 1.0

    def test_numeric_equality_after_normalization(self):
        reference = _full_product(fat=QuantitativeValue(Decimal("3.50"), "GRM"))
        extracted = _full_product(fat=QuantitativeValue(Decimal("3.5"), "GRM"))
        assert compare(extracted, reference).overall == 1.0

    def test_ingredient_partial_credit_by_levenshtein(self):
        reference = _full_product(ingredient_statement="Zucker, Kakao")
        extracted = _full_product(ingredient_statement="Zucker, Kakaos")
        report = compare(extracted, reference)
        expected = 1.0 - 1.0 / 14
        assert abs(report.per_attribute["ingredient_statement"] - expected) < 1e-12
        assert report.mismatches[0].kind is MismatchKind.VALUE_MISMATCH

    def test_non_text_primitive_scores_binary(self):
        reference = _full_product(fat=QuantitativeValue(Decimal("3.5"), "GRM"))
        extracted = _full_product(fat=QuantitativeValue(Decimal("3.6"), "GRM"))
        report = compare(extracted, reference)
        assert report.per_attribute["fat"] == 0.5  # value 0, unit 1


# --- Exhaustive 2-field oracle table -----------------------------------------
#
# Fields: the free-text ingredient statement and the quantity fat; the other
# six fields are absent on both sides and score 1 each. Each side of each
# varied field is in one of three presence states: absent, value A, or value
# B. The table of (extracted_state, reference_state) -> local score is
# hand-computed; the text field's partial credit is checked against an
# independent recursive edit-distance oracle written here.

TEXT_A, TEXT_B = "Zucker", "Salz"
QTY_A = QuantitativeValue(Decimal("1.0"), "GRM")
QTY_B = QuantitativeValue(Decimal("2.0"), "MGM")


def _independent_edit_distance(a: str, b: str) -> int:
    """Plain recursive Levenshtein, memoized; independent of the module."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(go(i - 1, j) + 1, go(i, j - 1) + 1, go(i - 1, j - 1) + cost)

    return go(len(a), len(b))


# Hand-computed text partial credit for the one both-present-unequal case.
_TEXT_PARTIAL = 1.0 - _independent_edit_distance(TEXT_A, TEXT_B) / max(
    len(TEXT_A), len(TEXT_B)
)

# (extracted, reference) -> expected local score for the text field
TEXT_SCORE_TABLE = {
    (None, None): 1.0,
    (None, TEXT_A): 0.0,
    (None, TEXT_B): 0.0,
    (TEXT_A, None): 0.0,
    (TEXT_B, None): 0.0,
    (TEXT_A, TEXT_A): 1.0,
    (TEXT_B, TEXT_B): 1.0,
    (TEXT_A, TEXT_B): _TEXT_PARTIAL,
    (TEXT_B, TEXT_A): _TEXT_PARTIAL,
}

# QTY_A vs QTY_B differ in both value and unit: both-present-unequal -> 0.0
QTY_SCORE_TABLE = {
    (None, None): 1.0,
    (None, QTY_A): 0.0,
    (None, QTY_B): 0.0,
    (QTY_A, None): 0.0,
    (QTY_B, None): 0.0,
    (QTY_A, QTY_A): 1.0,
    (QTY_B, QTY_B): 1.0,
    (QTY_A, QTY_B): 0.0,
    (QTY_B, QTY_A): 0.0,
}


def test_exhaustive_two_field_combinations_match_hand_table():
    states_text = [None, TEXT_A, TEXT_B]
    states_qty = [None, QTY_A, QTY_B]
    checked = 0
    for text_got in states_text:
        for text_want in states_text:
            for qty_got in states_qty:
                for qty_want in states_qty:
                    extracted = FoodProduct(
                        ingredient_statement=text_got, fat=qty_got
                    )
                    reference = FoodProduct(
                        ingredient_statement=text_want, fat=qty_want
                    )
                    report = compare(extracted, reference)
                    want_text = TEXT_SCORE_TABLE[(text_got, text_want)]
                    want_qty = QTY_SCORE_TABLE[(qty_got, qty_want)]
                    assert abs(report.per_attribute["ingredient_statement"] - want_text) < 1e-12
                    assert abs(report.per_attribute["fat"] - want_qty) < 1e-12
                    assert abs(report.overall - (6 + want_text + want_qty) / 8) < 1e-12
                    checked += 1
    assert checked == 81


# --- Properties -----------------------------------------------------------------

_decimals = st.decimals(min_value=Decimal("0"), max_value=Decimal("99"), places=1)
_quantities = st.builds(
    QuantitativeValue,
    value=_decimals,
    unit_code=st.one_of(st.none(), st.sampled_from(["KJO", "GRM", "MGM"])),
)


@st.composite
def products(draw):
    fields = {}
    if draw(st.booleans()):
        fields["ingredient_statement"] = draw(
            st.text(alphabet="abzü ,", min_size=1, max_size=10).map(str.strip).filter(bool)
        )
    for nutrient in NUTRIENT_FIELDS:
        if draw(st.booleans()):
            fields[nutrient] = draw(_quantities)
    return FoodProduct(**fields)


@given(products())
@settings(max_examples=80, deadline=None)
def test_reflexivity(product):
    report = compare(product, product)
    assert report.overall == 1.0
    assert report.mismatches == ()


def _field_walk(extracted: FoodProduct, reference: FoodProduct) -> SimilarityReport:
    """The report by its definition: each attribute in FIELDS order scored by
    presence and, where both have it, by the text or quantity scorer."""
    per_attribute, mismatches = {}, []
    for spec in FIELDS:
        got, want = extracted.get(spec.name), reference.get(spec.name)
        if got is None or want is None:
            per_attribute[spec.name] = 1.0 if got is None and want is None else 0.0
            if got is not None:
                mismatches.append(Mismatch(spec.name, MismatchKind.ADDITIONAL_ATTRIBUTE,
                                           _display(got), None))
            elif want is not None:
                mismatches.append(Mismatch(spec.name, MismatchKind.MISSING_ATTRIBUTE,
                                           None, _display(want)))
        elif spec.kind is FieldKind.TEXT:
            per_attribute[spec.name] = _score_text(spec.name, got, want, mismatches)
        else:
            per_attribute[spec.name] = _score_quantity(spec.name, got, want, mismatches)
    return SimilarityReport(sum(per_attribute.values()) / len(per_attribute), per_attribute,
                            tuple(mismatches))


@st.composite
def _variants(draw, product):
    """``product`` with some quantities written with one more digit (an
    equal value of another exponent) and some unit codes in another case."""
    fields = {}
    for name in product.populated_fields():
        value = product.get(name)
        if isinstance(value, QuantitativeValue):
            if draw(st.booleans()):
                sign, digits, exponent = value.value.as_tuple()
                value = QuantitativeValue(Decimal((sign, digits + (0,), exponent - 1)),
                                          value.unit_code)
            if value.unit_code and draw(st.booleans()):
                value = QuantitativeValue(value.value, value.unit_code.swapcase())
        fields[name] = value
    return FoodProduct(**fields)


@st.composite
def _pairs(draw):
    """Two drawn products, a product and itself, or a product and a variant."""
    product = draw(st.one_of(products(), jsontext.products()))
    other = draw(st.one_of(
        st.just(product),
        st.just(FoodProduct(**{name: product.get(name) for name in product.populated_fields()})),
        _variants(product),
        products(),
    ))
    return (product, other) if draw(st.booleans()) else (other, product)


@given(_pairs())
@example((_full_product(), _full_product(fat=QuantitativeValue(Decimal("3.50"), "GRM"))))
@example((_full_product(), _full_product(fat=QuantitativeValue(Decimal("3.5"), "grm"))))
@example((_full_product(), _full_product(fat=QuantitativeValue(Decimal("4.5"), "GRM"))))
@settings(max_examples=300, deadline=None)
def test_compare_equals_the_field_walk(pair):
    """Scores in FIELDS order and mismatches as the walk gives them, also
    where ``compare`` finds the products equal and skips the walk."""
    extracted, reference = pair
    fast, walked = compare(extracted, reference), _field_walk(extracted, reference)
    assert fast.overall == walked.overall
    assert list(fast.per_attribute.items()) == list(walked.per_attribute.items())
    assert fast.mismatches == walked.mismatches


def test_a_perfect_report_is_a_fresh_one():
    product = _full_product()
    first = compare(product, product)
    first.per_attribute["fat"] = 0.0
    assert compare(product, product).per_attribute["fat"] == 1.0


@given(products(), products())
@settings(max_examples=80, deadline=None)
def test_score_bounds_and_mismatch_iff_imperfect(extracted, reference):
    report = compare(extracted, reference)
    assert 0.0 <= report.overall <= 1.0
    for score in report.per_attribute.values():
        assert 0.0 <= score <= 1.0
    assert (report.overall == 1.0) == (len(report.mismatches) == 0)


@given(products(), products())
@settings(max_examples=80, deadline=None)
def test_removing_a_matching_field_never_increases_overall(extracted, reference):
    shared = [
        n
        for n in extracted.populated_fields()
        if reference.get(n) is not None
    ]
    if not shared:
        return
    base = compare(extracted, reference).overall
    victim = shared[0]
    reduced = FoodProduct(
        **{
            n: extracted.get(n)
            for n in extracted.populated_fields()
            if n != victim
        }
    )
    assert compare(reduced, reference).overall <= base + 1e-12


@given(st.text(max_size=15), st.text(max_size=15))
@settings(max_examples=100, deadline=None)
def test_levenshtein_matches_independent_recursion(a, b):
    assert levenshtein(a, b) == _independent_edit_distance(a, b)
    assert 0.0 <= string_similarity(a, b) <= 1.0


def _two_row_edit_distance(a: str, b: str) -> int:
    """The usual two-row dynamic program: the reference for the bit-parallel
    implementation, on strings too long for the recursion."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


@given(st.one_of(st.text(max_size=80), st.text(alphabet="ab\u00e4\U0001f600", max_size=150)),
       st.one_of(st.text(max_size=80), st.text(alphabet="ab\u00e4\U0001f600", max_size=150)))
@settings(max_examples=300, deadline=None)
def test_levenshtein_matches_the_two_row_dynamic_program(a, b):
    """Arbitrary unicode, empty strings included; the small alphabet makes
    long runs of matches across many bits of the pattern."""
    assert levenshtein(a, b) == _two_row_edit_distance(a, b)
    assert levenshtein(b, a) == levenshtein(a, b)


def test_levenshtein_of_a_page_long_text_is_fast():
    """A broad selector's 20,009-character extract against a 284-character
    reference: the two-row program takes seconds here. The reference sits
    inside the text, so the distance is exactly the length difference."""
    reference = ("Zutaten: Weizenmehl, Zucker, Palmfett, Kakaobutter, Vollmilchpulver, "
                 "Magermilchpulver, Haselnüsse, Emulgator Lecithine (Soja), Salz, "
                 "Backtriebmittel Natriumcarbonate, Aroma. Kann Spuren von Erdnüssen, "
                 "anderen Schalenfrüchten und Sesam enthalten. Kühl und trocken lagern. "
                 "Mindestens haltbar bis: siehe")[:284]
    boilerplate = "Warenkorb Anmelden Versandkostenfrei ab 50 € Newsletter Impressum "
    head = (boilerplate * 300)[:12_000]
    text = head + reference + (boilerplate * 200)[:20_009 - len(head) - len(reference)]
    assert (len(reference), len(text)) == (284, 20_009)
    start = time.perf_counter()
    distance = levenshtein(text, reference)
    assert time.perf_counter() - start < 1.0
    assert distance == 20_009 - 284


# --- Feedback rendering -----------------------------------------------------------

class TestRenderFeedback:
    def test_perfect_match(self):
        report = compare(_full_product(), _full_product())
        assert render_feedback(report) == "PERFECT MATCH"

    def test_missing_salt_mentions_field_and_kind(self):
        report = compare(_full_product(salt=None), _full_product())
        text = render_feedback(report)
        assert "salt" in text
        assert "missing" in text

    def test_line_count_equals_mismatch_count(self):
        reference = _full_product()
        extracted = _full_product(
            salt=None,
            energy=None,
            fat=QuantitativeValue(Decimal("9.9"), "GRM"),
        )
        report = compare(extracted, reference)
        assert len(report.mismatches) == 3
        assert len(render_feedback(report).splitlines()) == 3

    def test_feedback_format_golden(self):
        reference = _full_product()
        extracted = _full_product(
            salt=None,
            fat=QuantitativeValue(Decimal("3.5"), "MGM"),
            ingredient_statement="Zucker",
        )
        text = render_feedback(compare(extracted, reference))
        golden = (GOLDEN / "feedback_sample.txt").read_text(encoding="utf-8")
        assert text == golden

    def test_report_reads_overall_and_first_mismatch(self):
        report = compare(_full_product(salt=None), _full_product())
        assert report.overall == 0.875
        assert report.mismatches[0].field_path == "salt"
