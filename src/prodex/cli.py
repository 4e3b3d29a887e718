"""Command-line interface: corpus generation, compression, extraction runs,
evaluation and strategy comparison.

Run directories are self-describing: each carries a manifest.json naming the
strategy, variant, corpus and models, so `evaluate` can consume any mix of
them. Live-provider credentials come from PRODEX_API_BASE / PRODEX_API_KEY.

Each command imports the modules it runs when it runs: `evaluate` and
`compare` load neither the HTML tree nor the DSL, and `extract direct` loads
the oracle only for the oracle provider, and never the orchestrator, the DSL
or the corpus generator.
"""

from __future__ import annotations

import json
import shutil
import sys
import typing
from contextlib import contextmanager
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import click

from . import prompts
from .direct import MalformedProduct, extract_direct_batch, read_products
from .gateway import (PRICES, CostLedger, LiveProvider, RecordingProvider, ReplayProvider,
                      count_tokens)
from .reader import Corpus, MalformedTruth, MissingTruth, RawDocument, load_corpus, load_truth
# parse_product is not called here: it stays bound because the benchmark's
# tracer wraps it at this site (perfbench/tracer.py, SITES).
from .schema import SchemaViolation, parse_product, product_from_dict  # noqa: F401

if typing.TYPE_CHECKING:
    from .evaluate import RunReport


def compress_both(raw):
    """``compress.compress_both``; the tree and compressor load at the first call."""
    from .compress import compress_both

    return compress_both(raw)


def process_shop(shop, provider, config, cache):
    """``indirect.process_shop``; the orchestrator loads at the first call."""
    from .indirect import process_shop

    return process_shop(shop, provider, config, cache)


class _Main(click.Group):
    """Reports bad ground truth and bad product files as usage errors, not
    tracebacks."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MalformedTruth as exc:
            raise click.UsageError(f"ground truth: {exc}", ctx) from exc
        except MissingTruth as exc:
            raise click.UsageError(f"ground truth has no record for page {exc}", ctx) from exc
        except MalformedProduct as exc:
            raise click.UsageError(f"product file {exc}", ctx) from exc


@click.group(cls=_Main)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON file of orchestrator settings for `extract indirect`; "
                   "its command-line options override them.")
@click.pass_context
def main(ctx, config_path):
    """Schema-constrained product extraction: direct and indirect strategies."""
    ctx.ensure_object(dict)
    if config_path:
        try:
            ctx.obj["config"] = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise click.UsageError(f"--config: {config_path}: {type(exc).__name__}: {exc}") from exc
        if not isinstance(ctx.obj["config"], dict):
            raise click.UsageError("--config: the file must hold a JSON object")
    else:
        ctx.obj["config"] = {}


# --- corpus ------------------------------------------------------------------

@main.group()
def corpus():
    """Synthetic shop corpora."""


@corpus.command("generate")
@click.option("--preset", type=click.Choice(["alpha", "beta", "gamma"]), required=True)
@click.option("--pages", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def corpus_generate(preset, pages, seed, out_dir):
    """Generate a deterministic synthetic shop with ground truth."""
    from .corpus import generate_shop, preset_spec, write_corpus

    spec = preset_spec(preset, pages, seed)
    shop = generate_shop(spec)
    write_corpus(shop, out_dir, preset=preset, spec=spec)
    click.echo(f"wrote {len(shop.pages)} pages to {out_dir} (corpus {shop.corpus_id})")


# --- compress ------------------------------------------------------------------

@main.command("compress")
@click.option("--variant", type=click.Choice(["html", "text"]), default="html", show_default=True)
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def compress_cmd(variant, in_path, out_dir):
    """Compress pages to HTML_COMPRESSED or TEXT plus a token manifest."""
    from .compress import UnparsableDocument

    in_path = Path(in_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if in_path.is_dir():
        files = sorted(in_path.glob("*.html"))
    else:
        files = [in_path]
    manifest = []
    failures: dict[str, str] = {}
    for path in files:
        raw = RawDocument(page_id=path.stem, url=str(path), html=path.read_text(encoding="utf-8"))
        try:
            html_doc, text_doc, _ = compress_both(raw)
        except UnparsableDocument as exc:
            failures[raw.page_id] = str(exc)
            continue
        if variant == "text":
            compressed = text_doc
            out_file = out / f"{raw.page_id}.txt"
        else:
            compressed = html_doc
            out_file = out / f"{raw.page_id}.html"
        out_file.write_text(compressed.content, encoding="utf-8")
        manifest.append(
            {
                "page_id": raw.page_id,
                "variant": compressed.variant.value,
                "token_count": compressed.token_count,
                "original_token_count": count_tokens(raw.html),
            }
        )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    _write_failures(out, failures)
    click.echo(
        f"compressed {len(manifest)} page(s) into {out}, {len(failures)} unparsable"
    )


def _write_failures(out: Path, failures: dict[str, str]) -> None:
    """List this invocation's failed pages, page_id -> reason, in failures.json;
    with none, remove the file an earlier invocation left."""
    path = out / "failures.json"
    if failures:
        path.write_text(json.dumps(failures, indent=2, sort_keys=True), encoding="utf-8")
    else:
        path.unlink(missing_ok=True)


# --- providers -------------------------------------------------------------------

def _check_priced(*models: str) -> None:
    """Refuse a model the ledger cannot price, before anything is paid for."""
    for model in models:
        if model not in PRICES:
            raise click.UsageError(
                f"no price for model {model!r}; priced models: {', '.join(sorted(PRICES))}"
            )


def _build_provider(provider_name, shop: Corpus | None, session, record,
                    oracle_imperfections, oracle_unreparable_template,
                    oracle_unreparable_rate, oracle_seed):
    if provider_name == "oracle":
        if shop is None:
            raise click.UsageError("oracle provider needs --corpus")
        from .oracle import OracleConfig, OracleProvider

        provider = OracleProvider(
            shop,
            OracleConfig(
                imperfections_per_generation=oracle_imperfections,
                unreparable_templates=frozenset(oracle_unreparable_template),
                unreparable_rate=oracle_unreparable_rate,
                seed=oracle_seed,
            ),
        )
    elif provider_name == "replay":
        if not session:
            raise click.UsageError("replay provider needs --session")
        provider = ReplayProvider(session)
    elif provider_name == "live":
        provider = LiveProvider()
    else:
        raise click.UsageError(f"unknown provider {provider_name}")
    if record:
        provider = RecordingProvider(provider, record)
    return provider


_PROVIDER_OPTIONS = [
    click.option("--provider", "provider_name",
                 type=click.Choice(["oracle", "replay", "live"]), default="oracle",
                 show_default=True),
    click.option("--session", type=click.Path(), default=None,
                 help="Session directory for the replay provider."),
    click.option("--record", type=click.Path(), default=None,
                 help="Record all exchanges into this session directory."),
    click.option("--oracle-imperfections", type=int, default=0, show_default=True,
                 help="Planted imperfections per oracle program generation."),
    click.option("--oracle-unreparable-template", multiple=True,
                 help="Template id the oracle never repairs (repeatable)."),
    click.option("--oracle-unreparable-rate", type=float, default=0.0, show_default=True),
    click.option("--oracle-seed", type=int, default=0, show_default=True),
]


def _with_provider_options(fn):
    for option in reversed(_PROVIDER_OPTIONS):
        fn = option(fn)
    return fn


# --- extract ----------------------------------------------------------------------

@main.group()
def extract():
    """Run an extraction strategy over a corpus."""


@extract.command("direct")
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--variant", type=click.Choice(["html", "text"]), default="html", show_default=True)
@click.option("--model", default="o3-mini", show_default=True)
@click.option("--resume/--fresh", default=True, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True,
              help="Parallel page requests (useful with the live provider).")
@_with_provider_options
def extract_direct_cmd(corpus_dir, out_dir, variant, model, resume, workers, provider_name,
                       session, record, oracle_imperfections, oracle_unreparable_template,
                       oracle_unreparable_rate, oracle_seed):
    """One structured model call per page; resumes from the products written."""
    from .compress import UnparsableDocument, Variant

    _check_priced(model)
    shop = load_corpus(corpus_dir)
    provider = _build_provider(provider_name, shop, session, record,
                               oracle_imperfections, oracle_unreparable_template,
                               oracle_unreparable_rate, oracle_seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not resume and (out / "products").exists():
        shutil.rmtree(out / "products")

    docs = []
    unparsable: dict[str, str] = {}
    for raw in shop.pages:
        try:
            html_doc, text_doc, _ = compress_both(raw)
        except UnparsableDocument as exc:
            unparsable[raw.page_id] = str(exc)
            continue
        docs.append((text_doc if variant == "text" else html_doc).rendered())

    ledger = CostLedger()
    ledger.meta["prompt_bundle_hash"] = prompts.bundle_hash()
    ledger.meta["shop_id"] = shop.shop_id
    products, failures = extract_direct_batch(docs, provider, model, ledger, out_dir=out,
                                              workers=workers)
    failures.update(unparsable)
    (out / "ledger.json").write_text(ledger.to_json(), encoding="utf-8")
    _write_failures(out, failures)
    manifest = {
        "strategy": "direct",
        "variant": Variant.TEXT.value if variant == "text" else Variant.HTML_COMPRESSED.value,
        "shop_id": shop.shop_id,
        "corpus_id": shop.corpus_id,
        "model": model,
        "provider": provider_name,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    click.echo(
        f"direct extraction: {len(products)} pages ok, {len(failures)} failed, "
        f"{len(ledger.entries)} calls, ${ledger.total_usd}"
    )


@extract.command("indirect")
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--labels", "labels_path", type=click.Path(exists=True), default=None,
              help="Override the corpus bootstrap labels file.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=10, show_default=True,
              help="Repeated runs with derived seeds (the ten-run protocol).")
@click.option("--ensemble-size", type=int, default=None)
@click.option("--max-refinements", type=int, default=None)
@click.option("--max-alternatives", type=int, default=None)
@click.option("--fill-threshold", type=float, default=None)
@click.option("--min-valid-attributes", type=int, default=None)
@click.option("--primary-model", default=None)
@click.option("--decision-model", default=None)
@_with_provider_options
@click.pass_context
def extract_indirect_cmd(ctx, corpus_dir, out_dir, labels_path, seed, runs,
                         ensemble_size, max_refinements, max_alternatives,
                         fill_threshold, min_valid_attributes, primary_model,
                         decision_model, provider_name, session, record,
                         oracle_imperfections, oracle_unreparable_template,
                         oracle_unreparable_rate, oracle_seed):
    """Generate extraction programs once per template, reuse them everywhere."""
    from .compress import Variant
    from .evaluate import page_accuracy, summarize_runs
    from .indirect import OrchestratorConfig, PageCache

    shop = load_corpus(corpus_dir)
    if labels_path:
        shop.labels = {
            k: bool(v)
            for k, v in json.loads(Path(labels_path).read_text(encoding="utf-8")).items()
        }
    unknown = sorted(set(shop.labels) - {doc.page_id for doc in shop.pages})
    if unknown:
        raise click.UsageError(f"labels name pages not in the corpus: {', '.join(unknown)}")
    if len(set(shop.labels.values())) < 2:
        raise click.UsageError("labels need at least one positive and one negative page")

    file_config = dict(ctx.obj.get("config", {})) if ctx.obj else {}
    types = typing.get_type_hints(OrchestratorConfig)
    for key, value in file_config.items():
        if key == "rng_seed":
            raise click.UsageError("--config: 'rng_seed' is set by --seed and --runs")
        if key not in types:
            raise click.UsageError(f"--config: unknown key {key!r}")
        expected = types[key]
        accepted = (int, float) if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise click.UsageError(
                f"--config: {key!r} must be {expected.__name__}, got {json.dumps(value)}"
            )
    overrides = {
        "decision_ensemble_size": ensemble_size,
        "max_refinements": max_refinements,
        "max_alternatives": max_alternatives,
        "reference_fill_threshold": fill_threshold,
        "min_valid_attributes": min_valid_attributes,
        "primary_model": primary_model,
        "decision_model": decision_model,
    }
    for key, value in overrides.items():
        if value is not None:
            file_config[key] = value
    try:
        base_config = OrchestratorConfig(**file_config)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _check_priced(base_config.primary_model, base_config.decision_model)
    provider = _build_provider(provider_name, shop, session, record,
                               oracle_imperfections, oracle_unreparable_template,
                               oracle_unreparable_rate, oracle_seed)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Compressed pages and library results, shared by every run.
    cache = PageCache(shop)
    failures: dict[str, str] = {}

    run_seeds = []
    accuracies = []
    primary_calls = []
    for run_index in range(runs):
        run_seed = seed if runs == 1 else seed * 1_000_003 + run_index
        run_seeds.append(run_seed)
        config = replace(base_config, rng_seed=run_seed)
        result = process_shop(shop, provider, config, cache)
        if shop.truth:  # page_results is in visit order; metrics.json's sum follows it
            result.metrics.accuracy, _ = page_accuracy(
                {page_id: r.product for page_id, r in result.page_results.items()},
                shop.truth, failed=result.failures,
            )
        run_dir = out / f"run-{run_index:02d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "products.json", "w", encoding="utf-8") as fh:
            json.dump(
                [result.page_results[pid].to_dict() for pid in sorted(result.page_results)],
                fh,
                indent=2,
                ensure_ascii=False,
            )
        (run_dir / "library.json").write_text(result.library.to_json(), encoding="utf-8")
        (run_dir / "metrics.json").write_text(result.metrics.to_json(), encoding="utf-8")
        (run_dir / "ledger.json").write_text(result.ledger.to_json(), encoding="utf-8")
        failures.update(result.failures)
        accuracies.append(result.metrics.accuracy)
        primary_calls.append(result.metrics.llm_calls_primary_model)
        click.echo(
            f"run {run_index}: seed {run_seed}, accuracy "
            f"{result.metrics.accuracy}, primary calls "
            f"{result.metrics.llm_calls_primary_model}, unparsable pages "
            f"{len(result.failures)}"
        )
    _write_failures(out, failures)

    distribution = (
        summarize_runs([a for a in accuracies if a is not None])
        if any(a is not None for a in accuracies)
        else None
    )
    summary = {
        "master_seed": seed,
        "runs": runs,
        "run_seeds": run_seeds,
        "accuracies": accuracies,
        "primary_calls": primary_calls,
        "distribution": distribution,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, ensure_ascii=False), encoding="utf-8"
    )
    if distribution is not None:
        (out / "summary.csv").write_text(
            "shop_id,runs,min,mean,max,stddev\n"
            f"{shop.shop_id},{distribution['n']},{distribution['min']:.4f},"
            f"{distribution['mean']:.4f},{distribution['max']:.4f},"
            f"{distribution['stddev']:.4f}\n",
            encoding="utf-8",
        )
    manifest = {
        "strategy": "indirect",
        "variant": Variant.HTML_COMPRESSED.value,
        "shop_id": shop.shop_id,
        "corpus_id": shop.corpus_id,
        "provider": provider_name,
        "master_seed": seed,
        "runs": runs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


# --- evaluate / compare -----------------------------------------------------------

def _read_failures(out: Path) -> dict[str, str]:
    path = out / "failures.json"
    if not path.exists():
        return {}
    with _reading(path):
        return json.loads(path.read_text(encoding="utf-8"))


@contextmanager
def _reading(path: Path):
    """Turns a fault in reading a run's file into a MalformedProduct that names it."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ArithmeticError,
            SchemaViolation) as exc:
        raise MalformedProduct(f"{path}: {type(exc).__name__}: {exc}") from exc


def _reports_from_results_dir(results_dir, truth) -> list[RunReport]:
    """One scored report per run: a direct directory is one run, an indirect
    one has a run per ``run-*`` subdirectory (or is itself the run). A run
    file that cannot be read is a MalformedProduct naming it."""
    from .evaluate import evaluate

    root = Path(results_dir)
    path = root / "manifest.json"
    with _reading(path):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        strategy, corpus_id, shop_id = (manifest["strategy"], manifest["corpus_id"],
                                        manifest["shop_id"])
        variant = manifest.get("variant", "HTML_COMPRESSED")
    failed = _read_failures(root)

    def score(products, **counts) -> RunReport:
        return evaluate(products, truth, strategy, corpus_id, shop_id, variant=variant,
                        failed=failed, **counts)

    if strategy == "direct":
        products = read_products(root / "products")
        path = root / "ledger.json"
        with _reading(path):
            ledger = CostLedger.from_json(path.read_text(encoding="utf-8"))
        return [score(products, calls_primary=len(ledger.entries), cost_usd=str(ledger.total_usd))]

    reports = []
    for run_dir in sorted(root.glob("run-*")) or [root]:
        path = run_dir / "products.json"
        with _reading(path):
            products = {
                entry["page_id"]: product_from_dict(entry["product"])
                for entry in json.loads(path.read_text(encoding="utf-8"), parse_float=Decimal)
            }
        path = run_dir / "metrics.json"
        with _reading(path):
            metrics = json.loads(path.read_text(encoding="utf-8"))
            counts = dict(
                calls_primary=metrics["llm_calls_primary_model"],
                calls_decision=metrics["llm_calls_decision_model"],
                cost_usd=metrics["cost_total_usd"],
            )
        reports.append(score(products, **counts))
    return reports


@main.command("evaluate")
@click.option("--results", "results_dirs", type=click.Path(exists=True), multiple=True,
              required=True, help="Run output directory (repeatable).")
@click.option("--truth", "truth_path", type=click.Path(exists=True), required=True,
              help="Corpus directory or truth.jsonl file.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "markdown"]),
              default="json", show_default=True)
def evaluate_cmd(results_dirs, truth_path, out_path, fmt):
    """Score run outputs against ground truth and write a report."""
    from .evaluate import emit_report, merge_reports

    truth = load_truth(truth_path)
    merged = merge_reports(
        [report for d in results_dirs for report in _reports_from_results_dir(d, truth)]
    )
    emit_report(merged, fmt, out_path)
    click.echo(f"mean accuracy {merged.mean_accuracy():.2f} -> {out_path}")


def _read_report(path) -> RunReport:
    """The report ``prodex evaluate`` wrote to ``path``; anything else is a
    usage error naming the file."""
    from .evaluate import RunReport

    try:
        return RunReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise click.UsageError(
            f"{path} is not a report: {type(exc).__name__}: {exc}"
        ) from exc


@main.command("compare")
@click.option("--direct", "direct_path", type=click.Path(exists=True), required=True)
@click.option("--indirect", "indirect_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def compare_cmd(direct_path, indirect_path, out_path):
    """Compare two strategy reports (accuracy delta, call reduction, cost)."""
    from .evaluate import CorpusMismatch, compare_strategies

    direct, indirect = _read_report(direct_path), _read_report(indirect_path)
    try:
        summary = compare_strategies(direct, indirect)
    except CorpusMismatch as exc:
        raise click.UsageError(f"the reports score different corpora: {exc}") from exc
    Path(out_path).write_text(
        json.dumps(summary, indent=2, ensure_ascii=False), encoding="utf-8"
    )
    click.echo(
        f"Δaccuracy {summary['delta_accuracy']:+.2f}, "
        f"call reduction {summary['call_reduction_pct']:.2f}%"
    )


if __name__ == "__main__":
    sys.exit(main())
