"""The reference validation of decoded product JSON: ``product_from_dict``
and ``_parse_quantity`` of ``prodex.schema`` as they were before validation
became one pass, kept verbatim.

Its ``product_from_dict`` must return the product that
``schema.product_from_dict`` returns, or raise the same errors in the same
order. Only tests import this module.
"""

from decimal import InvalidOperation
from typing import Optional

from prodex.schema import (FIELDS, FieldKind, FoodProduct, QuantitativeValue, SchemaViolation,
                           parse_decimal, quantity, strip_known_prefix)

_FIELDS_BY_NAME = {spec.name: spec for spec in FIELDS}
_QUANTITY_KEYS = frozenset(("value", "unit_code"))


def product_from_dict(data) -> FoodProduct:
    """Validate decoded product JSON (numbers decoded as Decimal or float)
    into a product; raises SchemaViolation on failure."""
    if not isinstance(data, dict):
        raise SchemaViolation([("$", "top level must be a JSON object")])

    errors: list[tuple[str, str]] = []
    values: dict[str, object] = {}
    for key, raw in data.items():
        spec = _FIELDS_BY_NAME.get(key)
        if spec is None:
            errors.append((key, "unknown field"))
            continue
        if raw is None:
            continue
        if spec.kind is FieldKind.TEXT:
            if not isinstance(raw, str):
                errors.append((key, f"expected string, got {type(raw).__name__}"))
                continue
            text = strip_known_prefix(raw.strip())
            if text:
                values[key] = text
        else:
            qv = _parse_quantity(key, raw, errors)
            if qv is not None:
                values[key] = qv
    if errors:
        raise SchemaViolation(errors)
    return FoodProduct(**values)  # type: ignore[arg-type]


def _parse_quantity(path, raw, errors) -> Optional[QuantitativeValue]:
    if not isinstance(raw, dict):
        errors.append((path, f"expected object, got {type(raw).__name__}"))
        return None
    unknown = raw.keys() - _QUANTITY_KEYS
    for key in sorted(unknown):
        errors.append((f"{path}.{key}", "unknown field"))
    value = raw.get("value")
    if value is None:
        errors.append((f"{path}.value", "missing value"))
        return None
    unit = raw.get("unit_code")
    unit_ok = unit is None or (isinstance(unit, str) and unit != "")
    try:
        if unit_ok and not unknown:
            return quantity(value, unit)
        parse_decimal(value)  # an invalid quantity is checked, never interned
    except InvalidOperation:
        errors.append((f"{path}.value", f"malformed number: {value!r}"))
        return None
    if not unit_ok:
        errors.append((f"{path}.unit_code", "must be a non-empty string"))
    return None
