"""Target data model: an eight-attribute food product record.

One free-text ingredient statement plus the seven quantitative nutrients of
the EU mandatory nutrition declaration (energy, fat, saturated fat,
carbohydrates, sugars, protein, salt), each a value/unit pair. All fields are
optional; absence is meaningful and must never be fabricated.

The field list and per-field descriptions are the constant ``FIELDS``.
``to_json_schema_dict`` gives them as the JSON Schema of prompts and of the
provider's structured output; ``parse_product`` is the inverse direction and
the one local check of a response, turning (possibly messy) model output into
a validated ``FoodProduct``.

Numbers accept both decimal point and decimal comma on input and are held as
``Decimal``; canonical serialization uses the decimal point and string-encoded
numbers to avoid float round-tripping. Every parsed quantity comes from
``quantity``, which builds each distinct value text and unit once per process
in a bounded memo, so equal quantities are one object. ``serialize_product`` writes that
canonical JSON byte for byte as ``json.dumps(product_to_dict(p), indent=2,
ensure_ascii=False)`` would, without the stdlib's pure-Python indent encoder.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, fields as dc_fields
from decimal import Decimal, InvalidOperation
from enum import Enum
from json.encoder import encode_basestring as json_string
from typing import Optional

NUTRIENT_FIELDS = (
    "energy",
    "fat",
    "saturated_fat",
    "carbohydrates",
    "sugars",
    "protein",
    "salt",
)

#: Label prefixes stripped from ingredient statements on parse.
KNOWN_LABEL_PREFIXES = ("Zutaten:", "Zutatenliste:", "Ingredients:")

_DECIMAL_PATTERN = r"^-?[0-9]+(?:[.,][0-9]+)?$"
_DECIMAL_RE = re.compile(_DECIMAL_PATTERN)
#: Largest accepted ``abs(Decimal.adjusted())``: 1e20 and 1e-20 pass, 1e21 does not.
MAX_DECIMAL_EXPONENT = 20
#: Bound of each of the two memos behind ``quantity``: ``(value text, unit)``
#: pairs and value texts. Declared nutrient values are rounded (whole kJ, one
#: decimal for grams, two for salt), so a shop repeats few of them: 3000
#: gamma pages hold about 3,100 distinct pairs and 2,900 distinct texts in
#: 20,000 quantities.
QUANTITY_MEMO_SIZE = 4096
_QUANTITY_KEYS = frozenset(("value", "unit_code"))


class SchemaViolation(Exception):
    """Validation failure; carries (field_path, reason) pairs."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        summary = "; ".join(f"{path}: {reason}" for path, reason in errors)
        super().__init__(summary or "schema violation")


class FieldKind(str, Enum):
    TEXT = "text"
    QUANTITY = "quantity"


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: FieldKind
    description: str


_INGREDIENT_DESCRIPTION = (
    "Information on the constituent ingredient make up of the product "
    "specified as one string.\n\nAdditional description:\n"
    "- Remove unnecessary prefixes"
)

_NUTRIENT_DESCRIPTIONS = {
    "energy": "Energy content of the product per reference quantity.",
    "fat": "Total fat content of the product per reference quantity.",
    "saturated_fat": "Saturated fatty acid content per reference quantity.",
    "carbohydrates": "Total carbohydrate content per reference quantity.",
    "sugars": "Sugar content per reference quantity.",
    "protein": "Protein content of the product per reference quantity.",
    "salt": "Salt content of the product per reference quantity.",
}

#: The target schema: the ingredient statement, then the seven nutrients.
FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("ingredient_statement", FieldKind.TEXT, _INGREDIENT_DESCRIPTION),
    *(FieldSpec(name, FieldKind.QUANTITY, _NUTRIENT_DESCRIPTIONS[name]) for name in NUTRIENT_FIELDS),
)


@dataclass(frozen=True)
class QuantitativeValue:
    value: Decimal
    unit_code: Optional[str] = None

    def __post_init__(self):
        if not self.value.is_finite():
            raise ValueError("quantitative value must be finite")
        if self.unit_code is not None and not self.unit_code:
            raise ValueError("unit_code must be non-empty when given")

    def display(self) -> str:
        text = format(self.value, "f")
        return f"{text} {self.unit_code}" if self.unit_code else text


@dataclass(frozen=True)
class FoodProduct:
    ingredient_statement: Optional[str] = None
    energy: Optional[QuantitativeValue] = None
    fat: Optional[QuantitativeValue] = None
    saturated_fat: Optional[QuantitativeValue] = None
    carbohydrates: Optional[QuantitativeValue] = None
    sugars: Optional[QuantitativeValue] = None
    protein: Optional[QuantitativeValue] = None
    salt: Optional[QuantitativeValue] = None

    def get(self, name: str):
        return getattr(self, name)

    def populated_fields(self) -> tuple[str, ...]:
        return tuple(n for n in _FIELD_NAMES if getattr(self, n) is not None)


#: FoodProduct's field names in declaration order, which is ``FIELDS``' order.
_FIELD_NAMES = tuple(f.name for f in dc_fields(FoodProduct))
#: Each field's position in FoodProduct: 0 is the ingredient statement, the
#: one text field, and the nutrients follow.
_SLOTS = {name: slot for slot, name in enumerate(_FIELD_NAMES)}


def filled_field_ratio(product: FoodProduct) -> float:
    """Populated top-level fields over the schema's eight fields."""
    return len(product.populated_fields()) / len(_FIELD_NAMES)


# --- JSON Schema emission -------------------------------------------------

def to_json_schema_dict() -> dict:
    """The schema as a JSON Schema; ``gateway.request_schema`` encodes it
    once for prompts and for the provider."""
    properties = {}
    for spec in FIELDS:
        if spec.kind is FieldKind.TEXT:
            properties[spec.name] = {
                "description": spec.description,
                "anyOf": [{"type": "string"}, {"type": "null"}],
            }
        else:
            properties[spec.name] = {
                "description": spec.description,
                "anyOf": [
                    {"$ref": "#/$defs/QuantitativeValue"},
                    {"type": "null"},
                ],
            }
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "FoodProduct",
        "type": "object",
        "additionalProperties": False,
        "properties": properties,
        "$defs": {
            "QuantitativeValue": {
                "type": "object",
                "additionalProperties": False,
                "required": ["value"],
                "properties": {
                    "value": {
                        "description": "Numeric quantity of the measurement.",
                        "anyOf": [
                            {"type": "number"},
                            {"type": "string", "pattern": _DECIMAL_PATTERN},
                        ],
                    },
                    "unit_code": {
                        "description": "Measurement unit code (e.g. KJO, E14, GRM, MGM).",
                        "anyOf": [
                            {"type": "string", "minLength": 1},
                            {"type": "null"},
                        ],
                    },
                },
            }
        },
    }


# --- Parsing and serialization ---------------------------------------------

def parse_decimal(raw) -> Decimal:
    """Finite Decimal from a JSON number or a string using point or comma.

    The magnitude is bounded (``MAX_DECIMAL_EXPONENT``), so that writing the
    value out with ``format(value, "f")`` stays about as long as its input:
    ``1e1000000`` and ``0.000...1`` are rejected, not expanded digit by digit.
    """
    if isinstance(raw, bool):  # an int subclass, but a JSON boolean is no number
        raise InvalidOperation(f"not a decimal: {raw!r}")
    if isinstance(raw, float):
        raw = Decimal(str(raw))
    if isinstance(raw, int):
        raw = Decimal(raw)
    elif isinstance(raw, str):
        text = raw.strip()
        if not _DECIMAL_RE.match(text):
            raise InvalidOperation(f"not a decimal: {raw!r}")
        raw = Decimal(text.replace(",", "."))
    if not isinstance(raw, Decimal):
        raise InvalidOperation(f"not a decimal: {raw!r}")
    if not raw.is_finite():
        raise InvalidOperation(f"not a finite number: {raw}")
    if abs(raw.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise InvalidOperation(f"number out of range: exponent {raw.adjusted()}")
    return raw


def quantity(value, unit_code: Optional[str] = None) -> QuantitativeValue:
    """The quantity ``value`` (text or a JSON number) in ``unit_code`` (None or
    a non-empty string); raises InvalidOperation where ``parse_decimal`` does.

    Value text is interned: the quantity of a ``(text, unit_code)`` pair is
    built once per process, and equal pairs give the identical frozen object.
    The key is the exact text, never the parsed number: ``"1.0"`` and
    ``"1.00"`` are equal Decimals that print differently. A number is parsed
    and built on every call.
    """
    if type(value) is str:
        return _interned_quantity(value, unit_code)
    return QuantitativeValue(parse_decimal(value), unit_code)


@functools.lru_cache(maxsize=QUANTITY_MEMO_SIZE)
def _interned_quantity(text: str, unit_code: Optional[str]) -> QuantitativeValue:
    return QuantitativeValue(interned_decimal(text), unit_code)


@functools.lru_cache(maxsize=QUANTITY_MEMO_SIZE)
def interned_decimal(text: str) -> Decimal:
    """``parse_decimal(text)``, checked once per distinct text per process.

    A call that raises stores nothing, so only valid text is interned.
    """
    return parse_decimal(text)


def strip_known_prefix(text: str, prefixes: tuple[str, ...] = KNOWN_LABEL_PREFIXES) -> str:
    """Drop the first of ``prefixes`` that starts ``text``, case-insensitively."""
    lowered = text.lower()
    for prefix in prefixes:
        if lowered.startswith(prefix.lower()):
            return text[len(prefix):].lstrip()
    return text


def parse_product(json_text: str) -> FoodProduct:
    """Parse model output into a product; raises SchemaViolation on failure."""
    try:
        data = json.loads(json_text, parse_float=Decimal)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise SchemaViolation([("$", f"invalid JSON: {exc}")])
    return product_from_dict(data)


def product_from_dict(data) -> FoodProduct:
    """Validate decoded product JSON (numbers decoded as Decimal or float)
    into a product; raises SchemaViolation on failure.

    One pass over the fields: a valid field costs only its conversion, and
    the errors are listed only from the first field that fails a check, in
    the order of ``data``'s keys."""
    if not isinstance(data, dict):
        raise SchemaViolation([("$", "top level must be a JSON object")])
    values: list = [None] * len(_FIELD_NAMES)
    errors = None
    for key, raw in data.items():
        slot = _SLOTS.get(key)
        if raw is None and slot is not None:
            continue
        if slot:  # a nutrient
            value = _valid_quantity(raw)
            if value is not None:
                values[slot] = value
                continue
            found = _quantity_errors(key, raw)
        elif slot is None:
            found = [(key, "unknown field")]
        elif isinstance(raw, str):
            values[0] = strip_known_prefix(raw.strip()) or None
            continue
        else:
            found = [(key, f"expected string, got {type(raw).__name__}")]
        errors = found if errors is None else errors + found
    if errors:
        raise SchemaViolation(errors)
    return FoodProduct(*values)


def _valid_quantity(raw) -> Optional[QuantitativeValue]:
    """The quantity of a valid quantity object, or None where a check
    fails; ``_quantity_errors`` then says which."""
    if not isinstance(raw, dict):
        return None
    value, unit = raw.get("value"), raw.get("unit_code")
    if (value is None or len(raw) != 1 + ("unit_code" in raw)
            or not (unit is None or (isinstance(unit, str) and unit))):
        return None
    try:
        return quantity(value, unit)
    except InvalidOperation:
        return None


def _quantity_errors(path, raw) -> list[tuple[str, str]]:
    """Why ``raw`` is no valid quantity at ``path``: unknown keys in sorted
    order, then a missing or malformed value or else a bad unit. An invalid
    quantity is checked, never interned."""
    if not isinstance(raw, dict):
        return [(path, f"expected object, got {type(raw).__name__}")]
    errors = [(f"{path}.{key}", "unknown field") for key in sorted(raw.keys() - _QUANTITY_KEYS)]
    value = raw.get("value")
    if value is None:
        errors.append((f"{path}.value", "missing value"))
        return errors
    try:
        parse_decimal(value)
    except InvalidOperation:
        errors.append((f"{path}.value", f"malformed number: {value!r}"))
        return errors
    unit = raw.get("unit_code")
    if not (unit is None or (isinstance(unit, str) and unit != "")):
        errors.append((f"{path}.unit_code", "must be a non-empty string"))
    return errors


def product_to_dict(product: FoodProduct) -> dict:
    """JSON-ready dict; absent fields omitted, numbers as canonical strings."""
    out: dict[str, object] = {}
    for name in _FIELD_NAMES:
        value = getattr(product, name)
        if value is None:
            continue
        if isinstance(value, QuantitativeValue):
            entry: dict[str, object] = {"value": format(value.value, "f")}
            if value.unit_code is not None:
                entry["unit_code"] = value.unit_code
            out[name] = entry
        else:
            out[name] = value
    return out


#: Each field's name and its JSON key text, in declaration order.
_FIELD_KEYS = tuple((name, json_string(name) + ": ") for name in _FIELD_NAMES)


#: The line break and indent of each nesting level under ``indent=2``.
_NEWLINES = tuple("\n" + "  " * level for level in range(12))


def json_block(brackets: str, items: list[str], level: int) -> str:
    """A JSON object or array, ``brackets`` ``"{}"`` or ``"[]"``, whose
    encoded items sit at nesting ``level``, laid out as ``indent=2`` does:
    the fixed layout in which the writers of program, library and ledger
    JSON produce ``json.dumps``' bytes without its pure-Python encoder."""
    if not items:
        return brackets
    newline = _NEWLINES[level]
    return brackets[0] + newline + ("," + newline).join(items) + _NEWLINES[level - 1] + brackets[1]


def serialize_product(product: FoodProduct, prefix: str = "") -> str:
    """Canonical product JSON (stable bytes for a given product).

    The text is exactly ``json.dumps(product_to_dict(product), indent=2,
    ensure_ascii=False)``: strings go through ``json_string``, the C escaper
    that call uses, and the layout is fixed. ``prefix`` starts every line
    after the first, which nests the product inside a larger document.
    """
    inner = "\n" + prefix + "  "
    deeper = inner + "  "
    items = []
    for name, key in _FIELD_KEYS:
        value = getattr(product, name)
        if value is None:
            continue
        if isinstance(value, QuantitativeValue):
            entry = f'{deeper}"value": {json_string(format(value.value, "f"))}'
            if value.unit_code is not None:
                entry += f',{deeper}"unit_code": {json_string(value.unit_code)}'
            items.append(f"{key}{{{entry}{inner}}}")
        else:
            items.append(key + json_string(value))
    if not items:
        return "{}"
    return "{" + inner + ("," + inner).join(items) + "\n" + prefix + "}"
