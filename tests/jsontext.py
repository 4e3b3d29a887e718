"""Hypothesis strategies for the JSON writers' byte-identity tests: strings
that JSON must escape or passes through raw, exact decimals at the edges of
the accepted range, and food products built from them."""

from decimal import Decimal

from hypothesis import strategies as st

from prodex.schema import NUTRIENT_FIELDS, FoodProduct, QuantitativeValue

#: Quotes, backslashes and control characters (escaped), DEL, the line and
#: paragraph separators, a byte order mark and non-BMP characters (kept raw
#: under ensure_ascii=False).
AWKWARD = '"\\/\x00\x01\x08\x0c\x1f\x7f\n\r\t\u2028\u2029\u00e4\ufeff\U00010000\U0001f600'

texts = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=12)

decimals = st.one_of(
    st.sampled_from([
        Decimal("0"), Decimal("-0"), Decimal("0.00"), Decimal("-0E-20"),
        Decimal("1E+20"), Decimal("-1E+20"), Decimal("1E-20"), Decimal("-9.99E-20"),
    ]),
    st.builds(
        lambda negative, digits, exponent: Decimal(f"{'-' if negative else ''}{digits}E{exponent}"),
        st.booleans(),
        st.integers(0, 10**12),
        st.integers(-20, 20),
    ),
)

quantities = st.builds(
    QuantitativeValue, value=decimals, unit_code=st.one_of(st.none(), texts.filter(bool))
)


@st.composite
def products(draw):
    """A product with each field present or absent; strings may be empty."""
    fields = {}
    if draw(st.booleans()):
        fields["ingredient_statement"] = draw(texts)
    for nutrient in NUTRIENT_FIELDS:
        if draw(st.booleans()):
            fields[nutrient] = draw(quantities)
    return FoodProduct(**fields)


#: Every field present, every string awkward.
FULL_PRODUCT = FoodProduct(
    ingredient_statement=AWKWARD,
    **{name: QuantitativeValue(Decimal("-1.5E-20"), AWKWARD) for name in NUTRIENT_FIELDS},
)
