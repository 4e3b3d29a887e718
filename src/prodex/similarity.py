"""Scored comparison between an extracted product and a reference product.

Every top-level attribute gets a local score in [0, 1]; the overall score is
the arithmetic mean of the top-level scores. Disagreements are classified as
one of three kinds: the extracted object has an attribute the reference lacks
(additional), lacks one the reference has (missing), or both are present but
disagree (value mismatch). Value/unit pairs are compared recursively, their
attribute score being the mean of the two nested comparisons.

Free-text fields earn partial credit through normalized Levenshtein
similarity; every other primitive is scored all-or-nothing. Numeric equality
is exact after decimal normalization; unit codes compare case-insensitively.
A pair of equal products, the common case in a run, is scored without the
walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .schema import FIELDS, FieldKind, FoodProduct, QuantitativeValue


class MismatchKind(str, Enum):
    ADDITIONAL_ATTRIBUTE = "AdditionalAttribute"
    MISSING_ATTRIBUTE = "MissingAttribute"
    VALUE_MISMATCH = "ValueMismatch"


@dataclass(frozen=True)
class Mismatch:
    field_path: str
    kind: MismatchKind
    extracted_value: Optional[str]
    expected_value: Optional[str]


@dataclass(frozen=True)
class SimilarityReport:
    overall: float
    per_attribute: dict[str, float]
    mismatches: tuple[Mismatch, ...]


def levenshtein(a: str, b: str) -> int:
    """Edit distance by Myers' bit-parallel algorithm (JACM 1999), in Hyyrö's
    formulation for the whole of both strings.

    The shorter string is the pattern, one bit per character in a Python int;
    each character of the longer string updates the column's vertical deltas
    in a few word-parallel operations, so a 20,000-character text against a
    300-character reference takes 20,000 loop steps, not six million. The
    result is exactly the classic dynamic program's.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    match_masks: dict[str, int] = {}
    bit = 1
    for ch in a:
        match_masks[ch] = match_masks.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    plus, minus, distance = mask, 0, len(a)  # vertical +1 / -1 deltas, D[len(a)][j]
    for ch in b:
        eq = match_masks.get(ch, 0)
        xv = eq | minus
        xh = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | (~(xh | plus) & mask)
        h_minus = plus & xh
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        h_plus = ((h_plus << 1) | 1) & mask  # row 0 grows by one per column
        h_minus = (h_minus << 1) & mask
        plus = h_minus | (~(xv | h_plus) & mask)
        minus = h_plus & xv
    return distance


def string_similarity(a: str, b: str) -> float:
    """Normalized Levenshtein similarity in [0, 1]."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return max(0.0, 1.0 - levenshtein(a, b) / longest)


def _display(value) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, QuantitativeValue):
        return value.display()
    return str(value)


#: The top-level attributes in ``FIELDS`` order, the order of every report.
_FIELD_NAMES = tuple(spec.name for spec in FIELDS)


def compare(extracted: FoodProduct, reference: FoodProduct) -> SimilarityReport:
    """Score the extracted product against the reference.

    Equal products get the report the field walk gives them, at once: every
    attribute 1.0, overall 1.0 and no mismatches. Equality is the product's
    own, so quantities compare by value (``1.0`` equals ``1.00``) and unit
    codes exactly, which the walk scores 1.0 too."""
    if extracted == reference:
        return SimilarityReport(1.0, dict.fromkeys(_FIELD_NAMES, 1.0), ())
    per_attribute: dict[str, float] = {}
    mismatches: list[Mismatch] = []
    for spec in FIELDS:
        got = extracted.get(spec.name)
        want = reference.get(spec.name)
        if got is None and want is None:
            per_attribute[spec.name] = 1.0
            continue
        if got is not None and want is None:
            per_attribute[spec.name] = 0.0
            mismatches.append(
                Mismatch(spec.name, MismatchKind.ADDITIONAL_ATTRIBUTE, _display(got), None)
            )
            continue
        if got is None and want is not None:
            per_attribute[spec.name] = 0.0
            mismatches.append(
                Mismatch(spec.name, MismatchKind.MISSING_ATTRIBUTE, None, _display(want))
            )
            continue
        if spec.kind is FieldKind.TEXT:
            per_attribute[spec.name] = _score_text(spec.name, got, want, mismatches)
        else:
            per_attribute[spec.name] = _score_quantity(spec.name, got, want, mismatches)
    overall = sum(per_attribute.values()) / len(per_attribute)
    return SimilarityReport(
        overall=overall,
        per_attribute=per_attribute,
        mismatches=tuple(mismatches),
    )


def _score_text(path: str, got: str, want: str, mismatches: list[Mismatch]) -> float:
    if got == want:
        return 1.0
    mismatches.append(Mismatch(path, MismatchKind.VALUE_MISMATCH, got, want))
    return string_similarity(got, want)


def _score_quantity(
    path: str,
    got: QuantitativeValue,
    want: QuantitativeValue,
    mismatches: list[Mismatch],
) -> float:
    # value: exact decimal equality
    if got.value == want.value:
        value_score = 1.0
    else:
        value_score = 0.0
        mismatches.append(
            Mismatch(
                f"{path}.value",
                MismatchKind.VALUE_MISMATCH,
                format(got.value, "f"),
                format(want.value, "f"),
            )
        )
    # unit: case-insensitive equality, absences handled like attributes
    if got.unit_code is None and want.unit_code is None:
        unit_score = 1.0
    elif got.unit_code is not None and want.unit_code is None:
        unit_score = 0.0
        mismatches.append(
            Mismatch(f"{path}.unit_code", MismatchKind.ADDITIONAL_ATTRIBUTE, got.unit_code, None)
        )
    elif got.unit_code is None and want.unit_code is not None:
        unit_score = 0.0
        mismatches.append(
            Mismatch(f"{path}.unit_code", MismatchKind.MISSING_ATTRIBUTE, None, want.unit_code)
        )
    elif got.unit_code.upper() == want.unit_code.upper():
        unit_score = 1.0
    else:
        unit_score = 0.0
        mismatches.append(
            Mismatch(
                f"{path}.unit_code",
                MismatchKind.VALUE_MISMATCH,
                got.unit_code,
                want.unit_code,
            )
        )
    return (value_score + unit_score) / 2


_KIND_LABEL = {
    MismatchKind.ADDITIONAL_ATTRIBUTE: "additional attribute",
    MismatchKind.MISSING_ATTRIBUTE: "missing attribute",
    MismatchKind.VALUE_MISMATCH: "value mismatch",
}


def render_feedback(report: SimilarityReport) -> str:
    """Stable textual feedback for refinement prompts; one line per mismatch."""
    if not report.mismatches:
        return "PERFECT MATCH"
    lines = []
    for m in report.mismatches:
        expected = m.expected_value if m.expected_value is not None else "nothing"
        extracted = m.extracted_value if m.extracted_value is not None else "nothing"
        lines.append(
            f"- {m.field_path}: {_KIND_LABEL[m.kind]}; "
            f"expected {expected!r}, extracted {extracted!r}"
        )
    return "\n".join(lines)
