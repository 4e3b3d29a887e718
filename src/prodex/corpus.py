"""Deterministic synthetic shop generator with ground truth.

Produces template-based German product pages with realistic boilerplate
(head, scripts, styles, nav, svg logos, option dropdowns, footers) so
compression has real work to do, plus a ground-truth record per page and a
small labeled bootstrap sample for decision-function generation.

Missing-data patterns are assigned by exact quota (shuffle then slice), not
by independent draws, so presence counts are deterministic. Every template
ships with a "true" extraction program that reproduces ground truth exactly
on its own pages; these programs power the oracle provider and oracle
soundness checks.

Shop presets:
    alpha   1 template, default missing-data quotas
    beta    2 templates, default quotas
    gamma   3 templates, no single-missing pages and a small share of
            pages without any target data (keeps the cooperative-oracle
            call count independent of page count)

``write_corpus`` lays a corpus out on disk; ``prodex.reader`` reads it back
and its names are re-exported here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from decimal import Decimal
from html import escape
from pathlib import Path
from typing import Optional

# parse_program is not called here: it stays bound because the benchmark's
# tracer wraps it at this site (perfbench/tracer.py, SITES).
from .dsl import ExtractionProgram, FieldRule, PostOp, parse_program  # noqa: F401
from .reader import (DECISION_KEYWORDS, Corpus, GroundTruthRecord,  # noqa: F401
                     MalformedTruth, RawDocument, UnknownTemplate, load_corpus,
                     load_true_program, load_truth)
from .schema import FoodProduct, QuantitativeValue


DEFAULT_MISSING_RATES = {
    "only_nutrition_missing": 0.132,
    "only_ingredients_missing": 0.160,
    "both_missing": 0.184,
}

_NUMBER_CAPTURE = r"([0-9]+(?:[.,][0-9]+)?)"
_UNIT_CAPTURE = r"[0-9.,]+\s*([A-Za-z]+)"
_UNIT_MAP = {"kJ": "KJO", "kcal": "E14", "g": "GRM", "mg": "MGM"}

#: Nutrients that a page may omit even when it shows a nutrition section.
_DROPPABLE_NUTRIENTS = ("saturated_fat", "sugars", "salt")


@dataclass(frozen=True)
class TemplateSpec:
    template_id: str
    layout: str  # tafel | liste | kacheln
    decimal_comma: bool
    optional_attribute_dropout: float = 0.0
    wrapper_div_jitter: int = 2


@dataclass(frozen=True)
class MissingRates:
    only_nutrition_missing: float
    only_ingredients_missing: float
    both_missing: float

    def __post_init__(self):
        total = (
            self.only_nutrition_missing
            + self.only_ingredients_missing
            + self.both_missing
        )
        if total > 1.0 + 1e-9:
            raise ValueError("missing rates must sum to at most 1")


@dataclass(frozen=True)
class ShopSpec:
    shop_id: str
    n_pages: int
    templates: tuple[TemplateSpec, ...]
    missing_rates: MissingRates
    seed: int

    def __post_init__(self):
        if self.n_pages < 1:
            raise ValueError("n_pages must be at least 1")
        if not self.templates:
            raise ValueError("at least one template required")


# --- Content pools (must not leak decision keywords into filler) -----------

_PACKAGED_NAMES = (
    "Alpenmilch Schokolade", "Haselnuss Schnitte", "Joghurt Natur",
    "Knusper Riegel", "Dinkel Kekse", "Erdbeer Konfitüre",
    "Tomatensauce Basilikum", "Gemüsebrühe Classic", "Haferdrink Barista",
    "Studentenfutter Mix", "Butterkeks Original", "Salzbrezeln",
    "Apfelmus Extra", "Honig Auslese", "Erdnusscreme Fein", "Müsliriegel Nuss",
)

_PRODUCE_NAMES = (
    "Apfel Braeburn", "Banane Premium", "Rispentomaten", "Salatgurke",
    "Bio Zitronen", "Speisekartoffeln", "Paprika Rot", "Blumenkohl",
)

_INGREDIENT_POOL = (
    "Zucker", "Kakaomasse", "Kakaobutter", "Vollmilchpulver", "Haselnüsse",
    "Weizenmehl", "Sojalecithin", "Magermilchpulver", "Palmöl", "Salz",
    "Backtriebmittel Natron", "Hafervollkornflocken", "Honig", "Reismehl",
    "Sonnenblumenöl", "Traubenzucker", "natürliches Aroma", "Zitronensäure",
)

_DESC_SENTENCES = (
    "Ein beliebter Klassiker für jeden Tag.",
    "Ideal für unterwegs und für die ganze Familie.",
    "Im praktischen wiederverschließbaren Beutel.",
    "Kühl und trocken lagern.",
    "Qualität aus kontrolliertem Anbau.",
    "Schmeckt pur oder als Zutat beim Backen.",
    "Seit Generationen bewährt und immer wieder gut.",
    "Jetzt in der neuen Rezeptur mit feiner Note.",
    "Von unseren Kunden regelmäßig ausgezeichnet bewertet.",
    "Passt hervorragend zu Kaffee und Tee.",
)

_NAV_ITEMS = ("Start", "Sortiment", "Angebote", "Marken", "Filialen", "Service")

_CATEGORIES = ("Süßwaren", "Backwaren", "Molkerei", "Vorräte", "Obst und Gemüse")

_NUTRIENT_ORDER = (
    ("energy", "Brennwert"),
    ("fat", "Fett"),
    ("saturated_fat", "davon gesättigte Fettsäuren"),
    ("carbohydrates", "Kohlenhydrate"),
    ("sugars", "davon Zucker"),
    ("protein", "Eiweiß"),
    ("salt", "Salz"),
)


# --- Built-in templates ------------------------------------------------------

def builtin_templates() -> dict[str, TemplateSpec]:
    return {
        "tafel": TemplateSpec("tafel", "tafel", decimal_comma=False),
        "liste": TemplateSpec("liste", "liste", decimal_comma=True),
        "kacheln": TemplateSpec("kacheln", "kacheln", decimal_comma=False),
    }


_TEMPLATE_SELECTORS = {
    # layout -> (ingredient selector, ingredient needs prefix strip, value cell selector fmt)
    "tafel": ("div.zutaten-bereich p.zutaten-text", True, "td.nw-{slug}"),
    "liste": ("section.zt-bereich span.zt-inhalt", False, "dd.nwl-{slug}"),
    "kacheln": ("div.zb-box", True, "span.fw-{slug}"),
}

_NUTRIENT_SLUGS = {
    "tafel": {
        "energy": "energie", "fat": "fett", "saturated_fat": "gesfett",
        "carbohydrates": "kohlenhydrate", "sugars": "zucker",
        "protein": "eiweiss", "salt": "salz",
    },
    "liste": {
        "energy": "brennwert", "fat": "fett", "saturated_fat": "gesaettigt",
        "carbohydrates": "carbs", "sugars": "suesse", "protein": "protein",
        "salt": "salzgehalt",
    },
    "kacheln": {
        "energy": "energie", "fat": "fettanteil", "saturated_fat": "sattfett",
        "carbohydrates": "kh", "sugars": "zuckeranteil", "protein": "eiweissanteil",
        "salt": "salzwert",
    },
}


def true_program_for(template_id: str) -> ExtractionProgram:
    """The extraction program that reproduces ground truth for a template."""
    templates = builtin_templates()
    if template_id not in templates:
        raise UnknownTemplate(template_id)
    layout = templates[template_id].layout
    ing_selector, needs_strip, cell_fmt = _TEMPLATE_SELECTORS[layout]
    slugs = _NUTRIENT_SLUGS[layout]
    ing_ops = [PostOp(op="trim")]
    if needs_strip:
        ing_ops.append(PostOp(op="strip_label_prefix", prefixes=("Zutaten:",)))
    rules = [
        FieldRule(
            field_path="ingredient_statement",
            selector=ing_selector,
            post_ops=tuple(ing_ops),
        )
    ]
    for nutrient, _label in _NUTRIENT_ORDER:
        cell = cell_fmt.format(slug=slugs[nutrient])
        rules.append(
            FieldRule(
                field_path=f"{nutrient}.value",
                selector=cell,
                node_index=0,
                capture=_NUMBER_CAPTURE,
                post_ops=(PostOp(op="parse_decimal_comma"),),
            )
        )
        rules.append(
            FieldRule(
                field_path=f"{nutrient}.unit_code",
                selector=cell,
                node_index=0,
                capture=_UNIT_CAPTURE,
                post_ops=(PostOp(op="to_unit_code", unit_map=tuple(sorted(_UNIT_MAP.items()))),),
            )
        )
    return ExtractionProgram(
        program_id=f"true-{template_id}",
        target_schema_name="FoodProduct",
        rules=tuple(rules),
        created_by="corpus-generator",
        generation=0,
    )


# --- Shop presets ------------------------------------------------------------

def preset_spec(name: str, n_pages: int, seed: int) -> ShopSpec:
    templates = builtin_templates()
    if name == "alpha":
        chosen = (templates["tafel"],)
        rates = MissingRates(**DEFAULT_MISSING_RATES)
        dropout = 0.08
    elif name == "beta":
        chosen = (templates["tafel"], templates["liste"])
        rates = MissingRates(**DEFAULT_MISSING_RATES)
        dropout = 0.08
    elif name == "gamma":
        chosen = (templates["tafel"], templates["liste"], templates["kacheln"])
        rates = MissingRates(0.0, 0.0, 0.05)
        dropout = 0.0
    else:
        raise ValueError(f"unknown preset {name!r} (use alpha, beta or gamma)")
    chosen = tuple(
        TemplateSpec(
            template_id=t.template_id,
            layout=t.layout,
            decimal_comma=t.decimal_comma,
            optional_attribute_dropout=dropout,
            wrapper_div_jitter=t.wrapper_div_jitter,
        )
        for t in chosen
    )
    return ShopSpec(
        shop_id=name,
        n_pages=n_pages,
        templates=chosen,
        missing_rates=rates,
        seed=seed,
    )


# --- Generation ---------------------------------------------------------------

def _quota(rate: float, n: int) -> int:
    return int(rate * n + 0.5)


def generate_shop(spec: ShopSpec) -> Corpus:
    """Generate pages, ground truth and bootstrap labels; deterministic in seed."""
    rng = random.Random(spec.seed)
    n = spec.n_pages

    k_nut = _quota(spec.missing_rates.only_nutrition_missing, n)
    k_ing = _quota(spec.missing_rates.only_ingredients_missing, n)
    k_both = _quota(spec.missing_rates.both_missing, n)
    if k_nut + k_ing + k_both > n:
        raise ValueError("missing-data quotas exceed page count")

    order = list(range(n))
    rng.shuffle(order)
    pattern_by_index: dict[int, str] = {}
    cursor = 0
    for pattern, count in (
        ("only_nutrition_missing", k_nut),
        ("only_ingredients_missing", k_ing),
        ("both_missing", k_both),
    ):
        for idx in order[cursor:cursor + count]:
            pattern_by_index[idx] = pattern
        cursor += count
    for idx in order[cursor:]:
        pattern_by_index[idx] = "full"

    pages: list[RawDocument] = []
    truth: dict[str, GroundTruthRecord] = {}
    for i in range(n):
        template = spec.templates[i % len(spec.templates)]
        page_rng = random.Random(spec.seed * 1_000_003 + i)
        pattern = pattern_by_index[i]
        page_id = f"{spec.shop_id}-{i:04d}"
        doc, record = _generate_page(page_id, spec.shop_id, template, pattern, page_rng)
        pages.append(doc)
        truth[page_id] = record

    labels = _pick_labels(truth, rng)
    corpus_id = _corpus_id(spec)
    return Corpus(
        shop_id=spec.shop_id,
        corpus_id=corpus_id,
        pages=pages,
        truth=truth,
        labels=labels,
        template_ids=tuple(t.template_id for t in spec.templates),
        decision_keywords=DECISION_KEYWORDS,
        true_programs={t.template_id: true_program_for(t.template_id) for t in spec.templates},
    )


def _corpus_id(spec: ShopSpec) -> str:
    payload = json.dumps(
        {
            "shop_id": spec.shop_id,
            "n_pages": spec.n_pages,
            "seed": spec.seed,
            "templates": [t.template_id for t in spec.templates],
            "rates": [
                spec.missing_rates.only_nutrition_missing,
                spec.missing_rates.only_ingredients_missing,
                spec.missing_rates.both_missing,
            ],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _pick_labels(truth: dict[str, GroundTruthRecord], rng: random.Random) -> dict[str, bool]:
    positives = [r.page_id for r in truth.values() if r.has_nutrition or r.has_ingredients]
    negatives = [r.page_id for r in truth.values() if not (r.has_nutrition or r.has_ingredients)]
    rng.shuffle(positives)
    rng.shuffle(negatives)
    labels: dict[str, bool] = {}
    for page_id in positives[:5]:
        labels[page_id] = True
    for page_id in negatives[:5]:
        labels[page_id] = False
    return labels


# --- Page assembly -----------------------------------------------------------

def _format_value(value: Decimal, decimal_comma: bool) -> str:
    text = format(value, "f")
    return text.replace(".", ",") if decimal_comma else text


def _make_values(rng: random.Random) -> dict[str, Decimal]:
    energy = Decimal(rng.randint(80, 2600))
    fat = Decimal(rng.randint(0, 600)) / 10
    saturated = (fat * Decimal(rng.randint(10, 90)) / 100).quantize(Decimal("0.1"))
    carbs = Decimal(rng.randint(0, 800)) / 10
    sugars = (carbs * Decimal(rng.randint(5, 95)) / 100).quantize(Decimal("0.1"))
    protein = Decimal(rng.randint(0, 400)) / 10
    salt = Decimal(rng.randint(1, 300)) / 100
    return {
        "energy": energy,
        "fat": fat,
        "saturated_fat": saturated,
        "carbohydrates": carbs,
        "sugars": sugars,
        "protein": protein,
        "salt": salt,
    }


def _generate_page(
    page_id: str,
    shop_id: str,
    template: TemplateSpec,
    pattern: str,
    rng: random.Random,
) -> tuple[RawDocument, GroundTruthRecord]:
    has_nutrition = pattern in ("full", "only_ingredients_missing")
    has_ingredients = pattern in ("full", "only_nutrition_missing")

    if not has_nutrition and not has_ingredients:
        name = rng.choice(_PRODUCE_NAMES)
        category = "Obst und Gemüse"
    else:
        name = rng.choice(_PACKAGED_NAMES)
        category = rng.choice(_CATEGORIES[:4])

    product_fields: dict[str, object] = {}
    nutrition_html = ""
    if has_nutrition:
        values = _make_values(rng)
        shown: dict[str, Decimal] = {}
        for nutrient, _label in _NUTRIENT_ORDER:
            if (
                nutrient in _DROPPABLE_NUTRIENTS
                and rng.random() < template.optional_attribute_dropout
            ):
                continue
            value = values[nutrient]
            if template.layout == "kacheln" and nutrient == "salt":
                value = (value * 1000).quantize(Decimal("1"))  # shown in mg
            shown[nutrient] = value
        nutrition_html = _render_nutrition(template, shown)
        for nutrient, value in shown.items():
            unit = "MGM" if (template.layout == "kacheln" and nutrient == "salt") else (
                "KJO" if nutrient == "energy" else "GRM"
            )
            product_fields[nutrient] = QuantitativeValue(value=value, unit_code=unit)

    ingredients_html = ""
    if has_ingredients:
        count = rng.randint(4, 8)
        items = rng.sample(_INGREDIENT_POOL, count)
        statement = ", ".join(items)
        product_fields["ingredient_statement"] = statement
        ingredients_html = _render_ingredients(template, statement)

    product = FoodProduct(**product_fields)  # type: ignore[arg-type]
    record = GroundTruthRecord(
        page_id=page_id,
        template_id=template.template_id,
        product=product,
        has_nutrition=has_nutrition,
        has_ingredients=has_ingredients,
    )

    html = _render_page(
        page_id=page_id,
        shop_id=shop_id,
        template=template,
        name=name,
        category=category,
        nutrition_html=nutrition_html,
        ingredients_html=ingredients_html,
        rng=rng,
    )
    url = f"https://shop-{shop_id}.example/artikel/{page_id}"
    return RawDocument(page_id=page_id, url=url, html=html), record


def _render_nutrition(template: TemplateSpec, shown: dict[str, Decimal]) -> str:
    layout = template.layout
    slugs = _NUTRIENT_SLUGS[layout]
    comma = template.decimal_comma
    rows = []
    if layout == "tafel":
        for nutrient, label in _NUTRIENT_ORDER:
            if nutrient not in shown:
                continue
            slug = slugs[nutrient]
            value = shown[nutrient]
            if nutrient == "energy":
                kcal = int(value / Decimal("4.184"))
                rows.append(
                    f'<tr class="nw-zeile"><td class="nw-label">{escape(label)}</td>'
                    f'<td class="nw-wert nw-{slug}">{_format_value(value, comma)} kJ</td>'
                    f'<td class="nw-wert nw-{slug}">{kcal} kcal</td></tr>'
                )
            else:
                rows.append(
                    f'<tr class="nw-zeile"><td class="nw-label">{escape(label)}</td>'
                    f'<td class="nw-wert nw-{slug}">{_format_value(value, comma)} g</td></tr>'
                )
        return (
            '<section class="naehrwerte-bereich"><h2>Nährwerte je 100 g</h2>'
            '<table class="nw-tabelle">' + "".join(rows) + "</table></section>"
        )
    if layout == "liste":
        for nutrient, label in _NUTRIENT_ORDER:
            if nutrient not in shown:
                continue
            slug = slugs[nutrient]
            unit = "kJ" if nutrient == "energy" else "g"
            rows.append(
                f"<dt>{escape(label)}</dt>"
                f'<dd class="nwl-{slug}">{_format_value(shown[nutrient], comma)} {unit}</dd>'
            )
        return (
            '<section class="nwl-bereich"><h3>Nährwertangaben pro 100 g</h3>'
            '<dl class="nwl">' + "".join(rows) + "</dl></section>"
        )
    if layout == "kacheln":
        for nutrient, label in _NUTRIENT_ORDER:
            if nutrient not in shown:
                continue
            slug = slugs[nutrient]
            unit = "kJ" if nutrient == "energy" else ("mg" if nutrient == "salt" else "g")
            rows.append(
                f'<div class="fakt"><span class="fakt-name">{escape(label)}</span>'
                f'<span class="fakt-wert fw-{slug}">{_format_value(shown[nutrient], comma)} {unit}</span></div>'
            )
        return (
            '<div class="fakten-bereich"><h2 class="fakten-titel">Nährwerte je 100 g</h2>'
            '<div class="fakten-gitter">' + "".join(rows) + "</div></div>"
        )
    raise AssertionError(f"unknown layout {layout}")


def _render_ingredients(template: TemplateSpec, statement: str) -> str:
    layout = template.layout
    text = escape(statement)
    if layout == "tafel":
        return (
            '<div class="zutaten-bereich"><h2>Zutaten</h2>'
            f'<p class="zutaten-text">Zutaten: {text}</p></div>'
        )
    if layout == "liste":
        return (
            '<section class="zt-bereich"><h3>Zutatenverzeichnis</h3>'
            f'<span class="zt-inhalt">{text}</span></section>'
        )
    if layout == "kacheln":
        return f'<div class="zb-box"><strong>Zutaten:</strong> {text}</div>'
    raise AssertionError(f"unknown layout {layout}")


def _render_page(
    page_id: str,
    shop_id: str,
    template: TemplateSpec,
    name: str,
    category: str,
    nutrition_html: str,
    ingredients_html: str,
    rng: random.Random,
) -> str:
    price = f"{rng.randint(0, 12)},{rng.randint(0, 99):02d}"
    desc = " ".join(rng.sample(_DESC_SENTENCES, rng.randint(2, 4)))
    nav = "".join(
        f'<a href="/{item.lower()}" data-nav="{i}">{item}</a>'
        for i, item in enumerate(_NAV_ITEMS)
    )
    options = "".join(f"<option value={k}>{k} Stück</option>" for k in range(1, 5))

    details = nutrition_html + ingredients_html
    for level in range(rng.randint(0, template.wrapper_div_jitter)):
        details = f'<div class="wrap wrap-{level}">{details}</div>'

    return f"""<!DOCTYPE html>
<html lang="de">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{escape(name)} kaufen | {escape(shop_id)}-markt.example</title>
<style>
  body {{ font-family: sans-serif; margin: 0; }}
  .produkt-titel {{ font-size: 1.6em; color: #223; }}
  .preis-box {{ color: #b00; font-weight: bold; }}
</style>
<script>
  window.dataLayer = window.dataLayer || [];
  function track(ev) {{ dataLayer.push({{event: ev, page: "{page_id}"}}); }}
  track("page_view");
</script>
</head>
<body id="page-{page_id}">
<header class="kopfzeile">
  <svg viewBox="0 0 24 24" width="32" height="32"><g><path d="M3 3h18v18H3z"/><use href="#logo"/></g><symbol id="logo"><path d="M0 0h8v8H0z"/></symbol></svg>
  <nav class="hauptmenu">{nav}</nav>
</header>
<noscript>Bitte aktivieren Sie JavaScript.</noscript>
<main class="inhalt">
  <div class="brotkrumen">Start / {escape(category)} / {escape(name)}</div>
  <h1 class="produkt-titel">{escape(name)}</h1>
  <p class="art-nr">Art.-Nr. {page_id}</p>
  <div class="preis-box" data-preis="{price}">€ {price}</div>
  <form class="warenkorb-form" action="/korb" method="post">
    <select class="menge" name="menge">{options}</select>
    <button type="submit">In den Warenkorb</button>
  </form>
  <!-- produktdetails start -->
  <div class="produkt-details">{details}</div>
  <!-- produktdetails ende -->
  <div class="beschreibung"><p>{escape(desc)}</p></div>
</main>
<footer class="fusszeile">
  <p>© {shop_id}-markt.example — Impressum — Datenschutz</p>
  <script>track("footer_seen");</script>
</footer>
<iframe src="about:blank" title="hilfe-widget"></iframe>
</body>
</html>
"""


# --- On-disk layout ------------------------------------------------------------

def write_corpus(corpus: Corpus, out_dir, preset: Optional[str] = None, spec: Optional[ShopSpec] = None) -> None:
    out = Path(out_dir)
    (out / "pages").mkdir(parents=True, exist_ok=True)
    for doc in corpus.pages:
        (out / "pages" / f"{doc.page_id}.html").write_text(doc.html, encoding="utf-8")
    with (out / "truth.jsonl").open("w", encoding="utf-8") as fh:
        for doc in corpus.pages:
            fh.write(json.dumps(corpus.truth[doc.page_id].to_dict(), ensure_ascii=False))
            fh.write("\n")
    (out / "labels.json").write_text(
        json.dumps(corpus.labels, indent=2, sort_keys=True), encoding="utf-8"
    )
    (out / "templates.json").write_text(
        json.dumps(
            {
                "decision_keywords": list(corpus.decision_keywords),
                "templates": [
                    {"template_id": tid,
                     "true_program": load_true_program(corpus, tid).to_dict()}
                    for tid in corpus.template_ids
                ],
            },
            indent=2,
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    manifest = {
        "shop_id": corpus.shop_id,
        "corpus_id": corpus.corpus_id,
        "n_pages": len(corpus.pages),
        "preset": preset,
        "seed": spec.seed if spec else None,
        "template_ids": list(corpus.template_ids),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
