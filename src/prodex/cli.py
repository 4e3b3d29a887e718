"""Command-line interface: corpus generation, compression, extraction runs,
evaluation and strategy comparison.

Run directories (``prodex.rundir``) are self-describing, so `evaluate` can
consume any mix of them. Live-provider credentials come from PRODEX_API_BASE /
PRODEX_API_KEY.

Each command imports the modules it runs when it runs: `evaluate` and
`compare` load neither the HTML tree nor the DSL, and `extract direct` loads
the oracle only for the oracle provider, and never the orchestrator, the DSL
or the corpus generator.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import replace
from pathlib import Path

import click

from . import files, prompts, rundir
from .direct import extract_direct_batch
from .gateway import (PRICES, CostLedger, LiveProvider, RecordingProvider, ReplayProvider,
                      count_tokens)
from .reader import (READ_ERRORS, Corpus, MalformedCorpusFile, MalformedTruth, MissingTruth,
                     list_files, load_corpus, load_labels, load_truth, read_page)
# parse_product is not called here: it stays bound because the benchmark's
# tracer wraps it at this site (perfbench/tracer.py, SITES).
from .schema import parse_product  # noqa: F401

if typing.TYPE_CHECKING:
    from .evaluate import RunReport


def compress_both(raw):
    """``compress.compress_both``; the compressor loads at the first call."""
    from .compress import compress_both

    return compress_both(raw)


def process_shop(shop, provider, config, cache):
    """``indirect.process_shop``; the orchestrator loads at the first call."""
    from .indirect import process_shop

    return process_shop(shop, provider, config, cache)


class _Main(click.Group):
    """Reports bad corpus files, bad ground truth and bad product files as
    usage errors, not tracebacks."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MalformedCorpusFile as exc:
            raise click.UsageError(f"corpus file {exc}", ctx) from exc
        except MalformedTruth as exc:
            raise click.UsageError(f"ground truth: {exc}", ctx) from exc
        except MissingTruth as exc:
            raise click.UsageError(f"ground truth has no record for page {exc}", ctx) from exc
        except rundir.MalformedProduct as exc:
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
            ctx.obj["config"] = json.loads(files.read_text(config_path))
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
@click.option("--pages", type=click.IntRange(min=1), default=1000, show_default=True)
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

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    if Path(in_path).is_dir():
        pages = list_files(in_path, ".html")
    else:
        pages = [(Path(in_path).stem, in_path)]
    manifest = []
    failures: dict[str, str] = {}
    for page_id, path in pages:
        raw = read_page(path, page_id)
        try:
            html_doc, text_doc = compress_both(raw)
        except UnparsableDocument as exc:
            failures[raw.page_id] = str(exc)
            continue
        compressed = text_doc if variant == "text" else html_doc
        rundir.write_compressed(out_dir, compressed)
        manifest.append((raw.page_id, compressed.variant.value, compressed.token_count,
                         count_tokens(raw.html)))
    rundir.write_token_manifest(out_dir, manifest)
    rundir.write_failures(out_dir, failures)
    click.echo(
        f"compressed {len(manifest)} page(s) into {out_dir}, {len(failures)} unparsable"
    )


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
        if not Path(session).is_dir():
            raise click.UsageError(f"replay provider: no session directory {session}")
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
    click.option("--oracle-imperfections", type=click.IntRange(min=0), default=0,
                 show_default=True,
                 help="Planted imperfections per oracle program generation."),
    click.option("--oracle-unreparable-template", multiple=True,
                 help="Template id the oracle never repairs (repeatable)."),
    click.option("--oracle-unreparable-rate", type=click.FloatRange(0, 1), default=0.0,
                 show_default=True),
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
@click.option("--workers", type=click.IntRange(1, 32), default=1, show_default=True,
              help="Pages requested at once, 1-32: the only limit on calls in flight.")
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
    if not resume:
        rundir.remove_products(out_dir)

    docs = []
    unparsable: dict[str, str] = {}
    for raw in shop.pages:
        try:
            html_doc, text_doc = compress_both(raw)
        except UnparsableDocument as exc:
            unparsable[raw.page_id] = str(exc)
            continue
        docs.append(text_doc if variant == "text" else html_doc)

    ledger = CostLedger()
    ledger.meta["prompt_bundle_hash"] = prompts.bundle_hash()
    ledger.meta["shop_id"] = shop.shop_id
    products, failures = extract_direct_batch(docs, provider, model, ledger, out_dir=out_dir,
                                              workers=workers)
    failures.update(unparsable)
    rundir.write_ledger(out_dir, ledger)
    rundir.write_failures(out_dir, failures)
    rundir.write_manifest(out_dir, "direct", (Variant.TEXT if variant == "text" else
                          Variant.HTML_COMPRESSED).value, shop, model=model, provider=provider_name)
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
        shop.labels = load_labels(labels_path)
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

    # Compressed pages and library results, shared by every run; with more
    # than one run, the products.json texts of the last run written.
    cache = PageCache(shop)
    texts = {} if runs > 1 else None
    failures: dict[str, str] = {}

    run_seeds, metrics = [], []
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
        rundir.write_run(out_dir, run_index, result, texts)
        failures.update(result.failures)
        metrics.append(result.metrics)
        click.echo(
            f"run {run_index}: seed {run_seed}, accuracy "
            f"{result.metrics.accuracy}, primary calls "
            f"{result.metrics.llm_calls_primary_model}, unparsable pages "
            f"{len(result.failures)}"
        )
    rundir.write_failures(out_dir, failures)

    scored = [m.accuracy for m in metrics if m.accuracy is not None]
    distribution = summarize_runs(scored) if scored else None
    rundir.write_summary(out_dir, shop.shop_id, seed, run_seeds, metrics, distribution)
    rundir.write_manifest(out_dir, "indirect", Variant.HTML_COMPRESSED.value, shop,
                          provider=provider_name, master_seed=seed, runs=runs)


# --- evaluate / compare -----------------------------------------------------------

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
    from .evaluate import emit_report, evaluate, merge_reports

    truth = load_truth(truth_path)
    merged = merge_reports([evaluate(products, truth, **scoring, **counts)
                            for scoring, runs in map(rundir.read_results, results_dirs)
                            for products, counts in runs])
    emit_report(merged, fmt, out_path)
    click.echo(f"mean accuracy {merged.mean_accuracy():.2f} -> {out_path}")


def _read_report(path) -> RunReport:
    """The report ``prodex evaluate`` wrote to ``path``; anything else is a
    usage error naming the file."""
    from .evaluate import RunReport

    try:
        return RunReport.from_dict(json.loads(files.read_text(path)))
    except READ_ERRORS as exc:
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
    files.write_atomic(out_path, json.dumps(summary, indent=2, ensure_ascii=False))
    click.echo(
        f"Δaccuracy {summary['delta_accuracy']:+.2f}, "
        f"call reduction {summary['call_reduction_pct']:.2f}%"
    )


if __name__ == "__main__":
    sys.exit(main())
