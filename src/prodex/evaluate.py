"""Run evaluation, strategy comparison and report emission."""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, Optional

from . import files
from .reader import GroundTruthRecord, MissingTruth
from .schema import FoodProduct
from .similarity import compare


class CorpusMismatch(Exception):
    """Reports being compared come from different corpora."""


@dataclass
class ShopReport:
    shop_id: str
    accuracy_by_variant: dict[str, float] = field(default_factory=dict)
    calls_primary: int = 0
    calls_decision: int = 0
    cost_usd: str = "0"
    run_accuracies: list[float] = field(default_factory=list)
    distribution: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "shop_id": self.shop_id,
            "accuracy_by_variant": dict(self.accuracy_by_variant),
            "calls_primary": self.calls_primary,
            "calls_decision": self.calls_decision,
            "cost_usd": self.cost_usd,
            "run_accuracies": list(self.run_accuracies),
            "distribution": self.distribution,
        }


@dataclass
class RunReport:
    strategy: str  # direct | indirect
    corpus_id: str
    shops: dict[str, ShopReport] = field(default_factory=dict)

    def mean_accuracy(self) -> float:
        values = [
            acc
            for shop in self.shops.values()
            for acc in shop.accuracy_by_variant.values()
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def total_primary_calls(self) -> int:
        return sum(s.calls_primary for s in self.shops.values())

    def total_cost(self) -> Decimal:
        return sum((Decimal(s.cost_usd) for s in self.shops.values()), Decimal(0))

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "corpus_id": self.corpus_id,
            "shops": {shop_id: s.to_dict() for shop_id, s in sorted(self.shops.items())},
        }

    @staticmethod
    def from_dict(data: dict) -> "RunReport":
        report = RunReport(strategy=data["strategy"], corpus_id=data["corpus_id"])
        for shop_id, raw in data.get("shops", {}).items():
            report.shops[shop_id] = ShopReport(
                shop_id=shop_id,
                accuracy_by_variant={k: float(v) for k, v in raw["accuracy_by_variant"].items()},
                calls_primary=int(raw.get("calls_primary", 0)),
                calls_decision=int(raw.get("calls_decision", 0)),
                cost_usd=str(raw.get("cost_usd", "0")),
                run_accuracies=[float(v) for v in raw.get("run_accuracies", [])],
                distribution=raw.get("distribution"),
            )
        return report


def page_accuracy(
    products: dict[str, FoodProduct],
    truth: dict[str, GroundTruthRecord],
    failed: Iterable[str] = (),
) -> tuple[float, dict[str, float]]:
    """Mean similarity (x100) over pages plus the per-page breakdown.

    Pages in ``failed`` (a run's failures.json) score 0, whether or not the
    run wrote a product for them.
    """
    per_page: dict[str, float] = {}
    for page_id, product in products.items():
        if page_id not in truth:
            raise MissingTruth(page_id)
        per_page[page_id] = compare(product, truth[page_id].product).overall
    for page_id in failed:
        if page_id not in truth:
            raise MissingTruth(page_id)
        per_page[page_id] = 0.0
    if not per_page:
        return 0.0, {}
    accuracy = 100.0 * sum(per_page.values()) / len(per_page)
    return accuracy, per_page


def evaluate(
    products: dict[str, FoodProduct],
    truth: dict[str, GroundTruthRecord],
    strategy: str,
    corpus_id: str,
    shop_id: str,
    variant: str = "HTML_COMPRESSED",
    calls_primary: int = 0,
    calls_decision: int = 0,
    cost_usd: str = "0",
    failed: Iterable[str] = (),
) -> RunReport:
    """Score one run's products against ground truth into a report; pages
    in ``failed`` score 0."""
    accuracy, _ = page_accuracy(products, truth, failed=failed)
    shop = ShopReport(
        shop_id=shop_id,
        accuracy_by_variant={variant: accuracy},
        calls_primary=calls_primary,
        calls_decision=calls_decision,
        cost_usd=cost_usd,
        run_accuracies=[accuracy],
    )
    return RunReport(strategy=strategy, corpus_id=corpus_id, shops={shop_id: shop})


def merge_reports(reports: list[RunReport]) -> RunReport:
    """Combine runs over the same corpus (e.g. both variants, repeated runs).

    Each report counts as one run: a variant's accuracy is the mean of the
    runs that scored it, in report order.
    """
    if not reports:
        raise ValueError("nothing to merge")
    base = reports[0]
    merged = RunReport(strategy=base.strategy, corpus_id=base.corpus_id)
    scored: dict[tuple[str, str], list[float]] = {}  # (shop_id, variant) -> accuracies
    for report in reports:
        if report.corpus_id != base.corpus_id:
            raise CorpusMismatch(f"{report.corpus_id} != {base.corpus_id}")
        for shop_id, shop in report.shops.items():
            target = merged.shops.setdefault(shop_id, ShopReport(shop_id=shop_id))
            for variant, acc in shop.accuracy_by_variant.items():
                scored.setdefault((shop_id, variant), []).append(acc)
            target.calls_primary += shop.calls_primary
            target.calls_decision += shop.calls_decision
            target.cost_usd = str(Decimal(target.cost_usd) + Decimal(shop.cost_usd))
            target.run_accuracies.extend(shop.run_accuracies)
    for (shop_id, variant), accs in scored.items():
        merged.shops[shop_id].accuracy_by_variant[variant] = sum(accs) / len(accs)
    for shop in merged.shops.values():
        if len(shop.run_accuracies) > 1:
            shop.distribution = summarize_runs(shop.run_accuracies)
    return merged


def summarize_runs(values: list[float]) -> dict:
    return {
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "mean": statistics.mean(values),
        "stddev": statistics.pstdev(values),
    }


def compare_strategies(direct: RunReport, indirect: RunReport) -> dict:
    """Accuracy delta, call reduction and cost ratio between strategies."""
    if direct.corpus_id != indirect.corpus_id:
        raise CorpusMismatch(f"{direct.corpus_id} != {indirect.corpus_id}")
    direct_calls = direct.total_primary_calls()
    indirect_calls = indirect.total_primary_calls()
    if direct_calls > 0:
        reduction = 100.0 * (1.0 - indirect_calls / direct_calls)
    else:
        reduction = 0.0
    direct_cost = direct.total_cost()
    indirect_cost = indirect.total_cost()
    cost_ratio = (
        float(indirect_cost / direct_cost) if direct_cost > 0 else None
    )
    return {
        "corpus_id": direct.corpus_id,
        "delta_accuracy": indirect.mean_accuracy() - direct.mean_accuracy(),
        "direct_primary_calls": direct_calls,
        "indirect_primary_calls": indirect_calls,
        "call_reduction_pct": reduction,
        "direct_cost_usd": str(direct_cost),
        "indirect_cost_usd": str(indirect_cost),
        "cost_ratio": cost_ratio,
    }


def emit_report(report: RunReport, fmt: str, path) -> None:
    """Write the report as json, csv or markdown (deterministic bytes), whole:
    an interrupted write leaves no torn report."""
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"
    elif fmt == "csv":
        text = _to_csv(report)
    elif fmt == "markdown":
        text = _to_markdown(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    files.write_atomic(path, text)


def _variants_present(report: RunReport) -> list[str]:
    order = ("HTML_COMPRESSED", "TEXT")
    present = {v for shop in report.shops.values() for v in shop.accuracy_by_variant}
    return [v for v in order if v in present] + sorted(present - set(order))


def _to_csv(report: RunReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["shop_id", "variant", "accuracy", "calls_primary", "calls_decision", "cost_usd"]
    )
    for shop_id in sorted(report.shops):
        shop = report.shops[shop_id]
        for variant in _variants_present(report):
            if variant in shop.accuracy_by_variant:
                writer.writerow(
                    [
                        shop_id,
                        variant,
                        f"{shop.accuracy_by_variant[variant]:.2f}",
                        shop.calls_primary,
                        shop.calls_decision,
                        shop.cost_usd,
                    ]
                )
    return buffer.getvalue()


def _to_markdown(report: RunReport) -> str:
    variants = _variants_present(report)
    lines = [f"# {report.strategy} extraction accuracy", ""]
    header = "| Shop | " + " | ".join(variants) + " |"
    rule = "|" + "---|" * (len(variants) + 1)
    lines.extend([header, rule])
    for shop_id in sorted(report.shops):
        shop = report.shops[shop_id]
        cells = []
        for variant in variants:
            acc = shop.accuracy_by_variant.get(variant)
            cells.append(f"{acc:.2f}" if acc is not None else "—")
        lines.append(f"| {shop_id} | " + " | ".join(cells) + " |")
    distribution_rows = [
        (shop_id, shop.distribution)
        for shop_id, shop in sorted(report.shops.items())
        if shop.distribution
    ]
    if distribution_rows:
        lines.extend(["", "## Run-to-run variability", ""])
        lines.append("| Shop | runs | min | mean | max | stddev |")
        lines.append("|---|---|---|---|---|---|")
        for shop_id, dist in distribution_rows:
            lines.append(
                f"| {shop_id} | {dist['n']} | {dist['min']:.2f} | "
                f"{dist['mean']:.2f} | {dist['max']:.2f} | {dist['stddev']:.2f} |"
            )
    return "\n".join(lines) + "\n"
