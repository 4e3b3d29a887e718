import json
import random
import shutil
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from prodex import files
from prodex.cli import main
from prodex.schema import FIELDS


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, runner):
    """A generated corpus plus direct and indirect runs to evaluate."""
    root = tmp_path_factory.mktemp("cli")
    result = runner.invoke(
        main,
        ["corpus", "generate", "--preset", "beta", "--pages", "40",
         "--seed", "3", "--out", str(root / "corpus")],
    )
    assert result.exit_code == 0, result.output
    return root


def test_corpus_generate_layout(workspace):
    corpus = workspace / "corpus"
    assert len(list((corpus / "pages").glob("*.html"))) == 40
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["preset"] == "beta"
    assert manifest["template_ids"] == ["tafel", "liste"]


def test_compress_command(workspace, runner, tmp_path):
    out = tmp_path / "compressed"
    result = runner.invoke(
        main,
        ["compress", "--variant", "html",
         "--in", str(workspace / "corpus" / "pages"), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 40
    entry = manifest[0]
    assert entry["token_count"] <= entry["original_token_count"]
    text_out = tmp_path / "text"
    result = runner.invoke(
        main,
        ["compress", "--variant", "text",
         "--in", str(workspace / "corpus" / "pages"), "--out", str(text_out)],
    )
    assert result.exit_code == 0
    sample = next(text_out.glob("*.txt")).read_text()
    assert "<" not in sample


def test_extract_direct_then_evaluate(workspace, runner):
    out = workspace / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"),
         "--out", str(out), "--provider", "oracle"],
    )
    assert result.exit_code == 0, result.output
    assert len(list((out / "products").glob("*.json"))) == 40
    ledger = json.loads((out / "ledger.json").read_text())
    assert len(ledger["entries"]) == 40

    report_path = workspace / "direct-report.json"
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["strategy"] == "direct"
    assert report["shops"]["beta"]["accuracy_by_variant"]["HTML_COMPRESSED"] == 100.0


class _Sleeping:
    """A provider that answers as ``inner`` does, each call after a few
    milliseconds drawn from a seeded schedule, so that calls made together
    complete in a drawn order."""

    def __init__(self, inner, seed):
        self.inner, self.rng, self.lock = inner, random.Random(seed), threading.Lock()

    def complete_structured(self, *args):
        with self.lock:
            delay = self.rng.uniform(0, 0.004)
        time.sleep(delay)
        return self.inner.complete_structured(*args)


def test_extract_direct_ledger_is_byte_identical_under_workers(workspace, runner, tmp_path,
                                                               monkeypatch):
    from prodex import cli

    build_provider, seeds = cli._build_provider, iter(range(3))
    monkeypatch.setattr(cli, "_build_provider",
                        lambda *args: _Sleeping(build_provider(*args), next(seeds)))
    ledgers = []
    for run, workers in enumerate((4, 4, 1)):
        out = tmp_path / f"run{run}"
        result = runner.invoke(
            main,
            ["extract", "direct", "--corpus", str(workspace / "corpus"), "--out", str(out),
             "--provider", "oracle", "--workers", str(workers)],
        )
        assert result.exit_code == 0, result.output
        ledgers.append((out / "ledger.json").read_bytes())
    assert len(json.loads(ledgers[0])["entries"]) == 40
    assert ledgers[0] == ledgers[1] == ledgers[2]


def test_extract_direct_with_one_worker_starts_no_thread(workspace, runner, tmp_path,
                                                        monkeypatch):
    """``--workers 1`` runs each page in the calling thread: no pool, no thread."""
    from concurrent import futures

    def refused(*args, **kwargs):
        raise AssertionError("a thread pool or a thread was started")

    monkeypatch.setattr(futures, "ThreadPoolExecutor", refused)
    monkeypatch.setattr(threading.Thread, "start", refused)
    out = tmp_path / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle", "--workers", "1"],
    )
    assert result.exit_code == 0, result.output
    assert len(list((out / "products").glob("*.json"))) == 40
    assert len(json.loads((out / "ledger.json").read_text())["entries"]) == 40


def test_extract_direct_resume_uses_checkpoint(workspace, runner):
    out = workspace / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"),
         "--out", str(out), "--provider", "oracle"],
    )
    assert result.exit_code == 0
    ledger = json.loads((out / "ledger.json").read_text())
    assert len(ledger["entries"]) == 0  # every page has its product file


def test_extract_direct_fresh_removes_checkpoint(workspace, runner, tmp_path):
    out = tmp_path / "direct"
    args = ["extract", "direct", "--corpus", str(workspace / "corpus"),
            "--out", str(out), "--provider", "oracle"]
    assert runner.invoke(main, args).exit_code == 0
    assert len(list((out / "products").glob("*.json"))) == 40
    result = runner.invoke(main, args + ["--fresh"])
    assert result.exit_code == 0, result.output
    assert len(json.loads((out / "ledger.json").read_text())["entries"]) == 40
    assert len(list((out / "products").glob("*.json"))) == 40
    assert not (out / "checkpoint.jsonl").exists()


def _direct_then_evaluate(runner, corpus, out, *extra):
    """Run `extract direct` on the oracle and score it; the two outputs."""
    extracted = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(corpus), "--out", str(out),
         "--provider", "oracle", *extra],
    )
    assert extracted.exit_code == 0, extracted.output
    scored = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(corpus),
         "--out", str(out.parent / "report.json")],
    )
    assert scored.exit_code == 0, scored.output
    return extracted.output, scored.output


def test_extract_direct_fresh_leaves_no_product_from_the_earlier_run(workspace, runner, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    out = tmp_path / "direct"
    _direct_then_evaluate(runner, corpus, out)
    empty = sorted((corpus / "pages").glob("*.html"))[5]
    empty.write_text("")

    extracted, scored = _direct_then_evaluate(runner, corpus, out, "--fresh")
    assert "39 pages ok, 1 failed" in extracted
    assert not (out / "products" / f"{empty.stem}.json").exists()
    assert len(list((out / "products").glob("*.json"))) == 39
    assert "mean accuracy 97.50" in scored


@pytest.mark.parametrize("torn", [False, True], ids=["before-the-write", "midway"])
def test_extract_direct_resumes_an_interrupted_product_write(
    workspace, runner, tmp_path, monkeypatch, torn
):
    out = tmp_path / "direct"
    real_write_text = files.write_text
    product_writes = []

    def interrupted(path, data, *args, **kwargs):
        if Path(path).parent.name == "products":
            product_writes.append(path)
            if len(product_writes) == 10:
                if torn:
                    real_write_text(path, data[: len(data) // 2], *args, **kwargs)
                raise KeyboardInterrupt
        return real_write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(files, "write_text", interrupted)
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle"],
    )
    monkeypatch.undo()
    assert result.exit_code != 0
    assert len(list((out / "products").glob("*.json"))) == 9

    extracted, scored = _direct_then_evaluate(runner, workspace / "corpus", out)
    assert "40 pages ok, 0 failed" in extracted
    assert len(json.loads((out / "ledger.json").read_text())["entries"]) == 31
    assert sorted(p.name for p in (out / "products").iterdir()) == sorted(
        f"{page.stem}.json" for page in (workspace / "corpus" / "pages").glob("*.html")
    )
    assert "mean accuracy 100.00" in scored


def test_failures_json_describes_the_last_invocation(workspace, runner, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    page = sorted((corpus / "pages").glob("*.html"))[5]
    html = page.read_text()
    page.write_text("")
    out = tmp_path / "direct"
    compressed = tmp_path / "compressed"
    compress = ["compress", "--in", str(corpus / "pages"), "--out", str(compressed)]
    extracted, scored = _direct_then_evaluate(runner, corpus, out)
    assert "39 pages ok, 1 failed" in extracted
    assert "mean accuracy 97.50" in scored
    assert runner.invoke(main, compress).exit_code == 0
    assert (compressed / "failures.json").exists()

    page.write_text(html)
    extracted, scored = _direct_then_evaluate(runner, corpus, out)
    assert "40 pages ok, 0 failed" in extracted
    assert not (out / "failures.json").exists()
    assert "mean accuracy 100.00" in scored
    assert runner.invoke(main, compress).exit_code == 0
    assert not (compressed / "failures.json").exists()


def test_extract_direct_unparsable_page_is_a_failure(workspace, runner, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    empty = sorted((corpus / "pages").glob("*.html"))[5]
    empty.write_text("")
    out = tmp_path / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(corpus), "--out", str(out),
         "--provider", "oracle"],
    )
    assert result.exit_code == 0, result.output
    assert list(json.loads((out / "failures.json").read_text())) == [empty.stem]
    assert len(list((out / "products").glob("*.json"))) == 39


def test_extract_indirect_runs_and_summary(workspace, runner):
    out = workspace / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(workspace / "corpus"),
         "--out", str(out), "--provider", "oracle", "--seed", "11",
         "--runs", "2", "--oracle-imperfections", "1"],
    )
    assert result.exit_code == 0, result.output
    assert (out / "run-00" / "metrics.json").exists()
    assert (out / "run-01" / "metrics.json").exists()
    assert (out / "summary.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 2
    assert len(summary["run_seeds"]) == 2
    assert summary["distribution"]["min"] <= summary["distribution"]["mean"]

    report_path = workspace / "indirect-report.json"
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["shops"]["beta"]["run_accuracies"]
    assert report["shops"]["beta"]["distribution"] is not None


def test_compare_command(workspace, runner):
    cmp_path = workspace / "cmp.json"
    result = runner.invoke(
        main,
        ["compare", "--direct", str(workspace / "direct-report.json"),
         "--indirect", str(workspace / "indirect-report.json"),
         "--out", str(cmp_path)],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads(cmp_path.read_text())
    assert summary["direct_primary_calls"] == 40
    assert summary["indirect_primary_calls"] < 40
    assert summary["call_reduction_pct"] > 0


def test_markdown_report_with_both_variants(workspace, runner, tmp_path):
    text_out = tmp_path / "direct-text"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"),
         "--out", str(text_out), "--provider", "oracle", "--variant", "text"],
    )
    assert result.exit_code == 0, result.output
    report_path = tmp_path / "combined.md"
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(workspace / "direct"),
         "--results", str(text_out),
         "--truth", str(workspace / "corpus"),
         "--out", str(report_path), "--format", "markdown"],
    )
    assert result.exit_code == 0, result.output
    text = report_path.read_text()
    assert "| Shop | HTML_COMPRESSED | TEXT |" in text


def test_record_and_replay_round_trip(workspace, runner, tmp_path):
    session = tmp_path / "session"
    first = tmp_path / "direct-rec"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"),
         "--out", str(first), "--provider", "oracle", "--record", str(session)],
    )
    assert result.exit_code == 0, result.output

    replayed = tmp_path / "direct-replay"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"),
         "--out", str(replayed), "--provider", "replay", "--session", str(session)],
    )
    assert result.exit_code == 0, result.output
    for path in sorted((first / "products").glob("*.json")):
        assert (replayed / "products" / path.name).read_text() == path.read_text()


def test_config_file_feeds_orchestrator(workspace, runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_refinements": 2, "max_alternatives": 1}))
    out = tmp_path / "indirect-config"
    result = runner.invoke(
        main,
        ["--config", str(config), "extract", "indirect",
         "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle", "--seed", "1",
         "--oracle-unreparable-template", "tafel"],
    )
    assert result.exit_code == 0, result.output
    metrics = json.loads((out / "run-00" / "metrics.json").read_text())
    for entry in metrics["synthesis_log"]:
        if entry["outcome"] == "best_imperfect":
            assert entry["generations"] <= 2
            assert entry["refinements"] <= 4


@pytest.mark.parametrize("config, message", [
    ({"max_refinement": 2}, "unknown key 'max_refinement'"),
    ({"rng_seed": 5}, "'rng_seed' is set by --seed and --runs"),
    ([1, 2], "the file must hold a JSON object"),
    ({"max_refinements": "2"}, "'max_refinements' must be int, got \"2\""),
], ids=["unknown-key", "key-set-by-command", "not-an-object", "wrong-value-type"])
def test_config_file_with_bad_key_is_a_usage_error(workspace, runner, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main,
        ["--config", str(path), "extract", "indirect", "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--provider", "oracle", "--runs", "1"],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


_INVALID_SETTINGS = {
    ("--ensemble-size", "4"): "decision_ensemble_size must be odd and positive",
    ("--max-refinements", "-1"): "max_refinements must not be negative",
    ("--max-alternatives", "-1"): "max_alternatives must not be negative",
    ("--min-valid-attributes", "0"): f"min_valid_attributes must be in 1..{len(FIELDS)}",
    ("--min-valid-attributes", "-3"): f"min_valid_attributes must be in 1..{len(FIELDS)}",
    ("--min-valid-attributes", str(len(FIELDS) + 1)): f"min_valid_attributes must be in 1..{len(FIELDS)}",
}


def test_invalid_orchestrator_setting_is_a_usage_error(workspace, runner, tmp_path):
    for (option, value), message in _INVALID_SETTINGS.items():
        result = runner.invoke(
            main,
            ["extract", "indirect", "--corpus", str(workspace / "corpus"),
             "--out", str(tmp_path / "out"), option, value, "--runs", "1"],
        )
        assert result.exit_code == 2, (option, value, result.output)
        assert message in result.output
        assert not (tmp_path / "out").exists()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_valid_attributes": 99}))
    result = runner.invoke(
        main,
        ["--config", str(config), "extract", "indirect", "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--runs", "1"],
    )
    assert result.exit_code == 2, result.output
    assert f"min_valid_attributes must be in 1..{len(FIELDS)}" in result.output


def test_bounds_of_the_orchestrator_settings_are_accepted():
    from prodex.indirect import OrchestratorConfig

    OrchestratorConfig(max_refinements=0, max_alternatives=0, min_valid_attributes=1)
    OrchestratorConfig(min_valid_attributes=len(FIELDS))


@pytest.mark.parametrize("strategy", ["direct", "indirect"])
def test_missing_replay_session_is_a_usage_error(workspace, runner, tmp_path, strategy):
    session = tmp_path / "no-session"
    result = runner.invoke(
        main,
        ["extract", strategy, "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--provider", "replay", "--session", str(session)],
    )
    assert result.exit_code == 2, result.output
    assert f"no session directory {session}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (json.dumps({"beta-0000": True, "nope-1": False, "nope-0": True}),
     "labels name pages not in the corpus: nope-0, nope-1"),
    (json.dumps({"beta-0000": True, "beta-0001": True}),
     "labels need at least one positive and one negative page"),
    ("{bad", "labels.json: JSONDecodeError"),
    ("[]", "labels.json: TypeError: the file must hold a JSON object"),
    (json.dumps({"beta-0000": "true", "beta-0001": "false"}),
     "labels.json: TypeError: the label of page 'beta-0000' is 'true', not true or false"),
    (json.dumps({"beta-0000": True, "beta-0001": 0}),
     "labels.json: TypeError: the label of page 'beta-0001' is 0, not true or false"),
], ids=["unknown-pages", "one-class", "not-json", "a-list", "strings", "a-number"])
def test_bad_labels_file_is_a_usage_error(workspace, runner, tmp_path, text, message):
    path = tmp_path / "labels.json"
    path.write_text(text)
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--labels", str(path), "--runs", "1"],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


def _without_corpus_id(text):
    manifest = json.loads(text)
    del manifest["corpus_id"]
    return json.dumps(manifest)


@pytest.mark.parametrize("name, edit, message", [
    ("labels.json", lambda text: "[]", "TypeError: the file must hold a JSON object"),
    ("manifest.json", _without_corpus_id, "KeyError: 'corpus_id'"),
    ("templates.json", lambda text: text[:-2], "JSONDecodeError"),
    ("truth.jsonl", None, "FileNotFoundError"),
], ids=["labels-a-list", "manifest-without-corpus-id", "templates-not-json", "no-truth"])
def test_malformed_corpus_file_is_a_usage_error(workspace, runner, tmp_path, name, edit,
                                                message):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    path = corpus / name
    if edit is None:
        path.unlink()
    else:
        path.write_text(edit(path.read_text()))
    for command in (
        ["extract", "indirect", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
         "--runs", "1"],
        ["extract", "direct", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
         "--provider", "oracle"],
    ):
        result = runner.invoke(main, command)
        assert result.exit_code == 2, result.output
        assert f"corpus file {path}: {message}" in result.output
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strategy", ["direct", "indirect"])
def test_a_corpus_without_pages_is_a_usage_error(workspace, runner, tmp_path, strategy):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus, ignore=shutil.ignore_patterns("pages"))
    result = runner.invoke(main, ["extract", strategy, "--corpus", str(corpus),
                                  "--out", str(tmp_path / "out"), "--provider", "oracle"])
    assert result.exit_code == 2, result.output
    assert f"corpus file {corpus / 'pages'}: FileNotFoundError" in result.output
    assert not (tmp_path / "out").exists()


def test_a_corpus_without_ground_truth_is_a_usage_error_to_evaluate(workspace, runner,
                                                                    tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(tmp_path), "--truth", str(corpus),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 2, result.output
    assert f"corpus file {corpus / 'truth.jsonl'}: FileNotFoundError" in result.output


def test_zero_runs_is_a_usage_error(workspace, runner, tmp_path):
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--runs", "0"],
    )
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pages", ["0", "-5"])
def test_a_page_count_below_one_is_a_usage_error(runner, tmp_path, pages):
    result = runner.invoke(
        main,
        ["corpus", "generate", "--preset", "alpha", "--pages", pages, "--out", str(tmp_path / "c")],
    )
    assert result.exit_code == 2, result.output
    assert "--pages" in result.output
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("option, value", [
    ("--oracle-unreparable-rate", "5"),
    ("--oracle-unreparable-rate", "-1"),
    ("--oracle-imperfections", "-3"),
])
@pytest.mark.parametrize("strategy", ["direct", "indirect"])
def test_an_oracle_option_out_of_range_is_a_usage_error(workspace, runner, tmp_path, strategy,
                                                         option, value):
    result = runner.invoke(
        main,
        ["extract", strategy, "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), option, value],
    )
    assert result.exit_code == 2, result.output
    assert option in result.output
    assert not (tmp_path / "out").exists()


def test_evaluate_averages_every_run_of_every_indirect_directory(workspace, runner, tmp_path):
    results = []
    for seed in ("1", "2"):
        out = tmp_path / f"indirect-{seed}"
        result = runner.invoke(
            main,
            ["extract", "indirect", "--corpus", str(workspace / "corpus"), "--out", str(out),
             "--provider", "oracle", "--seed", seed, "--runs", "2",
             "--oracle-imperfections", "1"],
        )
        assert result.exit_code == 0, result.output
        results += ["--results", str(out)]
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["evaluate", *results, "--truth", str(workspace / "corpus"), "--out", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    shop = json.loads(report_path.read_text())["shops"]["beta"]
    runs = shop["run_accuracies"]
    assert len(runs) == 4
    assert sum(runs[:2]) != sum(runs[2:])  # the two directories score differently
    assert shop["accuracy_by_variant"] == {"HTML_COMPRESSED": sum(runs) / len(runs)}
    metrics = [json.loads(path.read_text())
               for path in sorted(tmp_path.glob("indirect-*/run-*/metrics.json"))]
    assert [m["accuracy"] for m in metrics] == pytest.approx(runs)
    assert shop["calls_primary"] == sum(m["llm_calls_primary_model"] for m in metrics)
    assert shop["calls_decision"] == sum(m["llm_calls_decision_model"] for m in metrics)


@pytest.fixture(scope="module")
def indirect_runs(workspace, runner, tmp_path_factory):
    """A two-run indirect directory, to be copied before it is edited."""
    out = tmp_path_factory.mktemp("indirect-runs") / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle", "--runs", "2"],
    )
    assert result.exit_code == 0, result.output
    return out


def _evaluated_shop(workspace, runner, out, report_path) -> dict:
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    return json.loads(report_path.read_text(encoding="utf-8"))["shops"]["beta"]


def test_evaluate_does_not_read_an_indirect_runs_metrics(workspace, runner, tmp_path,
                                                         indirect_runs):
    """metrics.json is written for the reader, not read back: editing its
    counts changes no byte of the report."""
    out = shutil.copytree(indirect_runs, tmp_path / "indirect")
    before = _evaluated_shop(workspace, runner, out, tmp_path / "before.json")
    path = out / "run-00" / "metrics.json"
    metrics = json.loads(path.read_text(encoding="utf-8"))
    assert metrics["llm_calls_primary_model"] > 0
    metrics.update(llm_calls_primary_model=metrics["llm_calls_primary_model"] + 7,
                   llm_calls_decision_model=metrics["llm_calls_decision_model"] + 3,
                   cost_total_usd="123.45")
    path.write_text(json.dumps(metrics, indent=2), encoding="utf-8")
    assert _evaluated_shop(workspace, runner, out, tmp_path / "after.json") == before
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_evaluate_counts_each_indirect_run_from_its_ledger(workspace, runner, tmp_path,
                                                           indirect_runs):
    """A call missing from a run's ledger.json is missing from the report:
    one primary call fewer, and its price off the cost."""
    from decimal import Decimal

    out = shutil.copytree(indirect_runs, tmp_path / "indirect")
    before = _evaluated_shop(workspace, runner, out, tmp_path / "before.json")
    path = out / "run-00" / "ledger.json"
    ledger = json.loads(path.read_text(encoding="utf-8"))
    primary = next(i for i, entry in enumerate(ledger["entries"])
                   if entry["role_tag"] != "decision_gen")
    dropped = ledger["entries"].pop(primary)
    path.write_text(json.dumps(ledger, indent=2), encoding="utf-8")
    after = _evaluated_shop(workspace, runner, out, tmp_path / "after.json")
    assert after["calls_primary"] == before["calls_primary"] - 1
    assert after["calls_decision"] == before["calls_decision"]
    assert Decimal(after["cost_usd"]) == Decimal(before["cost_usd"]) - Decimal(dropped["cost_usd"])


@pytest.fixture(scope="module")
def broken_corpus(tmp_path_factory, runner):
    """A 20-page beta corpus whose first labeled page is emptied."""
    corpus = tmp_path_factory.mktemp("broken") / "corpus"
    result = runner.invoke(
        main,
        ["corpus", "generate", "--preset", "beta", "--pages", "20",
         "--seed", "3", "--out", str(corpus)],
    )
    assert result.exit_code == 0, result.output
    empty = sorted(json.loads((corpus / "labels.json").read_text()))[0]
    (corpus / "pages" / f"{empty}.html").write_text("")
    return corpus, empty


def test_extract_indirect_unparsable_page_is_a_failure(broken_corpus, runner, tmp_path):
    corpus, empty = broken_corpus
    out = tmp_path / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(corpus), "--out", str(out),
         "--provider", "oracle", "--runs", "2"],
    )
    assert result.exit_code == 0, result.output
    assert list(json.loads((out / "failures.json").read_text())) == [empty]
    for run_dir in ("run-00", "run-01"):
        products = json.loads((out / run_dir / "products.json").read_text())
        assert len(products) == 20
        failed = next(p for p in products if p["page_id"] == empty)
        assert failed["count_extracted"] == 0

    report = tmp_path / "report.json"
    result = runner.invoke(
        main, ["evaluate", "--results", str(out), "--truth", str(corpus), "--out", str(report)]
    )
    assert result.exit_code == 0, result.output
    scored = json.loads(report.read_text())["shops"]
    run_accuracies = next(iter(scored.values()))["run_accuracies"]
    for run_dir, accuracy in zip(("run-00", "run-01"), run_accuracies):
        metrics = json.loads((out / run_dir / "metrics.json").read_text())
        assert metrics["accuracy"] == pytest.approx(accuracy)
        assert accuracy <= 95.0


def test_compress_skips_unparsable_page(broken_corpus, runner, tmp_path):
    corpus, empty = broken_corpus
    out = tmp_path / "compressed"
    result = runner.invoke(
        main, ["compress", "--variant", "text", "--in", str(corpus / "pages"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert list(json.loads((out / "failures.json").read_text())) == [empty]
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 19
    assert empty not in {entry["page_id"] for entry in manifest}


@pytest.fixture(scope="module")
def undecodable_corpus(tmp_path_factory, runner):
    """A 20-page beta corpus whose first page is UTF-16 (bytes ff fe ...)."""
    corpus = tmp_path_factory.mktemp("undecodable") / "corpus"
    result = runner.invoke(
        main,
        ["corpus", "generate", "--preset", "beta", "--pages", "20",
         "--seed", "3", "--out", str(corpus)],
    )
    assert result.exit_code == 0, result.output
    page = sorted((corpus / "pages").glob("*.html"))[0]
    page.write_bytes(page.read_text(encoding="utf-8").encode("utf-16"))
    assert page.read_bytes()[:2] == b"\xff\xfe"
    return corpus, page.stem


def _undecodable_failure(out, page_id):
    failures = json.loads((out / "failures.json").read_text())
    assert list(failures) == [page_id]
    assert "not UTF-8" in failures[page_id]
    assert "codec can't decode byte 0xff in position 0" in failures[page_id]


def test_extract_direct_undecodable_page_is_a_failure(undecodable_corpus, runner, tmp_path):
    corpus, page_id = undecodable_corpus
    out = tmp_path / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(corpus), "--out", str(out), "--provider", "oracle"],
    )
    assert result.exit_code == 0, result.output
    assert "19 pages ok, 1 failed" in result.output
    _undecodable_failure(out, page_id)


def test_extract_indirect_undecodable_page_is_a_failure(undecodable_corpus, runner, tmp_path):
    corpus, page_id = undecodable_corpus
    out = tmp_path / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(corpus), "--out", str(out),
         "--provider", "oracle", "--runs", "1"],
    )
    assert result.exit_code == 0, result.output
    _undecodable_failure(out, page_id)
    products = json.loads((out / "run-00" / "products.json").read_text())
    assert len(products) == 20
    assert next(p for p in products if p["page_id"] == page_id)["count_extracted"] == 0
    assert (out / "run-00" / "metrics.json").exists()


def test_compress_undecodable_page_is_a_failure(undecodable_corpus, runner, tmp_path):
    corpus, page_id = undecodable_corpus
    out = tmp_path / "compressed"
    result = runner.invoke(
        main, ["compress", "--variant", "html", "--in", str(corpus / "pages"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    _undecodable_failure(out, page_id)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 19
    assert page_id not in {entry["page_id"] for entry in manifest}


def test_evaluate_scores_failed_pages_as_zero(broken_corpus, runner, tmp_path):
    corpus, empty = broken_corpus
    out = tmp_path / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(corpus), "--out", str(out), "--provider", "oracle"],
    )
    assert result.exit_code == 0, result.output
    assert "19 pages ok, 1 failed" in result.output
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(corpus),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 0, result.output
    assert "mean accuracy 95.00" in result.output


def test_malformed_truth_record_is_a_usage_error(workspace, runner, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    truth = corpus / "truth.jsonl"
    lines = truth.read_text().splitlines()
    record = json.loads(lines[1])
    record["product"]["fat"] = {"value": True}
    lines[1] = json.dumps(record)
    truth.write_text("\n".join(lines) + "\n")
    for args in (
        ["extract", "direct", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
         "--provider", "oracle"],
        ["evaluate", "--results", str(tmp_path), "--truth", str(corpus),
         "--out", str(tmp_path / "report.json")],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{truth}:2: fat.value: malformed number: True" in result.output
    assert not (tmp_path / "out").exists()


def test_a_page_listed_twice_in_truth_is_a_usage_error(workspace, runner, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    truth = corpus / "truth.jsonl"
    lines = truth.read_text().splitlines()
    page_id = json.loads(lines[0])["page_id"]
    truth.write_text("\n".join([*lines, lines[0]]) + "\n")
    for args in (
        ["extract", "direct", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
         "--provider", "oracle"],
        ["evaluate", "--results", str(tmp_path), "--truth", str(truth),
         "--out", str(tmp_path / "report.json")],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{truth}:{len(lines) + 1}: page_id: {page_id!r}" in result.output
    assert not (tmp_path / "out").exists()


def test_a_page_listed_twice_in_products_json_is_a_usage_error(workspace, runner, tmp_path):
    out = tmp_path / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle", "--runs", "1"],
    )
    assert result.exit_code == 0, result.output
    products = out / "run-00" / "products.json"
    entries = json.loads(products.read_text(encoding="utf-8"))
    products.write_text(json.dumps([*entries, entries[0]]), encoding="utf-8")
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 2, result.output
    assert f"product file {products}: " in result.output
    assert f"{entries[0]['page_id']!r} is listed twice" in result.output
    assert not (tmp_path / "report.json").exists()


def test_truth_without_a_result_page_is_a_usage_error(workspace, runner, tmp_path):
    out = tmp_path / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"),
         "--out", str(out), "--provider", "oracle"],
    )
    assert result.exit_code == 0, result.output
    truth = tmp_path / "truth.jsonl"
    first = (workspace / "corpus" / "truth.jsonl").read_text().splitlines()[0]
    truth.write_text(first + "\n")
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(truth),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 2, result.output
    assert "ground truth has no record for page beta-0001" in result.output


def test_unparsable_product_file_is_a_usage_error(workspace, runner, tmp_path):
    out = tmp_path / "direct"
    args = ["extract", "direct", "--corpus", str(workspace / "corpus"),
            "--out", str(out), "--provider", "oracle"]
    assert runner.invoke(main, args).exit_code == 0
    bad = out / "products" / "beta-0000.json"
    bad.write_text("{bad", encoding="utf-8")
    for command in (
        args,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(tmp_path / "report.json")],
    ):
        result = runner.invoke(main, command)
        assert result.exit_code == 2, result.output
        assert f"product file {bad}: $: invalid JSON" in result.output
        assert "Traceback" not in result.output
    assert not (tmp_path / "report.json").exists()


def _ledger_entry(**fields) -> str:
    entry = {"exchange_ref": "k", "model_id": "o3-mini", "role_tag": "reference",
             "usage": {"input_tokens": 10, "cached_input_tokens": 0, "output_tokens": 2},
             "cost_usd": "0.0000198", "page_id": None, **fields}
    return json.dumps({"meta": {}, "total_usd": "0", "entries": [entry]})


# Ledgers that read at the parent as something other than what they hold: no
# calls, a call of no model, a binary float's nearest decimal, a truncated count.
_UNCOUNTABLE_LEDGERS = [
    ("ledger.json", "{}"),
    ("ledger.json", _ledger_entry(role_tag="refernce")),
    ("ledger.json", _ledger_entry(cost_usd=0.1)),
    ("ledger.json", _ledger_entry(usage={"input_tokens": 1.9})),
]
_UNCOUNTABLE_LEDGER_IDS = ["ledger-without-entries", "ledger-unknown-role",
                           "ledger-float-cost", "ledger-float-count"]


@pytest.mark.parametrize("name, text", [
    ("products.json", "{bad"),
    ("products.json", '[{"page_id": "beta-0000", "product": {"fat": {"value": "x"}}}]'),
    ("ledger.json", '{"entries": [{"model_id": "o3-mini"}]}'),
    ("products.json", "[" * 100_000),
    ("ledger.json", "[" * 100_000),
    ("ledger.json", '{"entries": [{"exchange_ref": "k", "model_id": "o3-mini", "role_tag":'
                    ' "reference", "usage": {"input_tokens": "abc"}, "cost_usd": "0"}]}'),
    ("ledger.json", '{"entries": [{"exchange_ref": "k", "model_id": "o3-mini", "role_tag":'
                    ' "reference", "usage": {}, "cost_usd": "abc"}]}'),
    *_UNCOUNTABLE_LEDGERS,
], ids=["products-invalid-json", "products-bad-product", "ledger-missing-key",
        "products-deeply-nested", "ledger-deeply-nested", "ledger-count-not-a-number",
        "ledger-cost-not-a-decimal", *_UNCOUNTABLE_LEDGER_IDS])
def test_unreadable_indirect_run_file_is_a_usage_error(workspace, runner, tmp_path, name, text):
    out = tmp_path / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle", "--runs", "1"],
    )
    assert result.exit_code == 0, result.output
    bad = out / "run-00" / name
    bad.write_text(text, encoding="utf-8")
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 2, result.output
    assert f"product file {bad}: " in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name, text", [
    ("ledger.json", "{bad"),
    ("ledger.json", '{"entries": [{"model_id": "o3-mini"}]}'),
    ("manifest.json", "{bad"),
    ("manifest.json", "{}"),
    ("ledger.json", "[" * 100_000),
    ("manifest.json", "[" * 100_000),
    ("failures.json", "[" * 100_000),
    ("failures.json", '"abc"'),
    ("manifest.json", '{"strategy": "both", "corpus_id": "c", "shop_id": "s"}'),
    *_UNCOUNTABLE_LEDGERS,
], ids=["ledger-invalid-json", "ledger-missing-key", "manifest-invalid-json",
        "manifest-missing-key", "ledger-deeply-nested", "manifest-deeply-nested",
        "failures-deeply-nested", "failures-not-an-object", "manifest-unknown-strategy",
        *_UNCOUNTABLE_LEDGER_IDS])
def test_unreadable_direct_run_file_is_a_usage_error(workspace, runner, tmp_path, name, text):
    out = tmp_path / "direct"
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle"],
    )
    assert result.exit_code == 0, result.output
    bad = out / name
    bad.write_text(text, encoding="utf-8")
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 2, result.output
    assert f"product file {bad}: " in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "report.json").exists()


def test_an_indirect_directory_without_runs_is_a_usage_error(workspace, runner, tmp_path):
    out = tmp_path / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(workspace / "corpus"), "--out", str(out),
         "--provider", "oracle", "--runs", "1"],
    )
    assert result.exit_code == 0, result.output
    for path in (out / "run-00").iterdir():
        path.rename(out / path.name)
    (out / "run-00").rmdir()
    result = runner.invoke(
        main,
        ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 2, result.output
    assert f"product file {out}: " in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("args, config", [
    (["extract", "direct", "--model", "gpt-4.1"], None),
    (["extract", "indirect", "--runs", "1", "--primary-model", "gpt-4.1"], None),
    (["extract", "indirect", "--runs", "1", "--decision-model", "gpt-4.1"], None),
    (["extract", "indirect", "--runs", "1"], {"decision_model": "gpt-4.1"}),
], ids=["direct", "indirect-primary", "indirect-decision", "indirect-config"])
def test_unpriced_model_is_refused_before_any_call(
    workspace, runner, tmp_path, monkeypatch, args, config
):
    from prodex.oracle import OracleProvider

    def no_call(*args, **kwargs):
        raise AssertionError("a provider call was made for an unpriced model")

    monkeypatch.setattr(OracleProvider, "complete_structured", no_call)
    prefix = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        prefix = ["--config", str(path)]
    result = runner.invoke(
        main,
        [*prefix, *args, "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--provider", "oracle"],
    )
    assert result.exit_code == 2, result.output
    assert "no price for model 'gpt-4.1'; priced models: gpt-4o, o3-mini" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "{bad",
    "[1, 2]",
    '{"corpus_id": "c", "shops": {}}',
    '{"strategy": "direct", "corpus_id": "c", "shops": [1]}',
    '{"strategy": "direct", "corpus_id": "c", "shops": {"s": {"accuracy_by_variant": {"HTML_COMPRESSED": "x"}}}}',
], ids=["invalid-json", "not-an-object", "missing-key", "shops-not-an-object", "bad-accuracy"])
def test_compare_with_a_file_that_is_not_a_report_is_a_usage_error(runner, tmp_path, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"strategy": "direct", "corpus_id": "c", "shops": {}}))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for direct, indirect in ((bad, good), (good, bad)):
        result = runner.invoke(
            main,
            ["compare", "--direct", str(direct), "--indirect", str(indirect),
             "--out", str(tmp_path / "cmp.json")],
        )
        assert result.exit_code == 2, result.output
        assert f"{bad} is not a report: " in result.output
        assert "Traceback" not in result.output
    assert not (tmp_path / "cmp.json").exists()


def test_compare_of_reports_on_different_corpora_is_a_usage_error(runner, tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"strategy": "direct", "corpus_id": name, "shops": {}})
        )
    result = runner.invoke(
        main,
        ["compare", "--direct", str(tmp_path / "a.json"), "--indirect", str(tmp_path / "b.json"),
         "--out", str(tmp_path / "cmp.json")],
    )
    assert result.exit_code == 2, result.output
    assert "the reports score different corpora: a != b" in result.output
    assert not (tmp_path / "cmp.json").exists()


@pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe", b"[" * 100_000],
                         ids=["invalid-json", "not-utf8", "too-deep"])
def test_config_file_that_is_not_json_is_a_usage_error(workspace, runner, tmp_path, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    for command in (
        ["evaluate", "--results", str(tmp_path), "--truth", str(workspace / "corpus"),
         "--out", str(tmp_path / "report.json")],
        ["extract", "indirect", "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--provider", "oracle", "--runs", "1"],
    ):
        result = runner.invoke(main, ["--config", str(path), *command])
        assert result.exit_code == 2, result.output
        assert f"Error: --config: {path}: " in result.output
        assert "Traceback" not in result.output
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "out").exists()


def test_evaluate_reads_indirect_products_as_exact_decimals(workspace, runner, tmp_path):
    """A number in products.json is read as written, as a direct run's product
    file is, not rounded through a float."""
    corpus = workspace / "corpus"
    out = tmp_path / "indirect"
    result = runner.invoke(
        main,
        ["extract", "indirect", "--corpus", str(corpus), "--out", str(out),
         "--provider", "oracle", "--runs", "1"],
    )
    assert result.exit_code == 0, result.output
    products = out / "run-00" / "products.json"
    entries = json.loads(products.read_text(encoding="utf-8"))
    entry = next(e for e in entries if "fat" in e["product"])
    value = entry["product"]["fat"]["value"]
    assert "." in value
    # One digit past a double's precision: equal as a float, unequal as a decimal.
    text = products.read_text(encoding="utf-8").replace(
        f'"value": "{value}"', f'"value": {value}00000000000000001', 1
    )
    products.write_text(text, encoding="utf-8")

    def score():
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(out), "--truth", str(corpus),
             "--out", str(tmp_path / "report.json")],
        )
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / "report.json").read_text())["shops"]["beta"]

    scored = score()["accuracy_by_variant"]["HTML_COMPRESSED"]
    products.write_text(text.replace(f"{value}00000000000000001", f'"{value}"', 1),
                        encoding="utf-8")
    assert score()["accuracy_by_variant"]["HTML_COMPRESSED"] > scored


@pytest.mark.parametrize("workers", ["0", "33"])
def test_workers_out_of_range_is_a_usage_error_before_any_provider(workspace, runner, tmp_path,
                                                                   monkeypatch, workers):
    """``--workers`` bounds the calls in flight, so a value outside 1-32 is
    refused before a provider is built or a thread started."""
    from concurrent import futures

    from prodex import oracle

    class Unbuildable:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a provider was built")

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(oracle, "OracleProvider", Unbuildable)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", no_pool)
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(workspace / "corpus"),
         "--out", str(tmp_path / "out"), "--provider", "oracle", "--workers", workers],
    )
    assert result.exit_code == 2, result.output
    assert "--workers" in result.output and f"{workers} is not in the range" in result.output
    assert not (tmp_path / "out").exists()


# How the surrogate comes in a product answer: as its JSON escape, as a live
# model could send it, or as the character itself.
_SURROGATE_FORMS = {"escaped": True, "raw": False}  # json.dumps' ensure_ascii


@pytest.fixture(scope="module")
def small_beta(runner, tmp_path_factory):
    corpus = tmp_path_factory.mktemp("small-beta") / "corpus"
    result = runner.invoke(main, ["corpus", "generate", "--preset", "beta", "--pages", "6",
                                  "--seed", "3", "--out", str(corpus)])
    assert result.exit_code == 0, result.output
    return corpus


def _surrogate_oracle(monkeypatch, ensure_ascii, victim=None):
    """Make the oracle answer product requests about ``victim`` (every page
    where None) with the true product, its ingredient statement ending in a
    lone surrogate; the recorder wraps it, so sessions hold the answer."""
    from prodex import oracle

    class SurrogateOracle(oracle.OracleProvider):
        def _direct_product(self, prompt):
            answer = super()._direct_product(prompt)
            if victim is None or self._find_page_id(prompt) == victim:
                product = json.loads(answer)
                product["ingredient_statement"] = "Zucker \ud800"
                answer = json.dumps(product, ensure_ascii=ensure_ascii)
            return answer

    monkeypatch.setattr(oracle, "OracleProvider", SurrogateOracle)


def _run_files(out: Path) -> dict[str, bytes]:
    """Every file a command wrote to ``out`` but its manifest, which names
    the provider."""
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file() and path.name != "manifest.json"}


@pytest.mark.parametrize("form", sorted(_SURROGATE_FORMS))
@pytest.mark.parametrize("strategy", ["direct", "indirect"])
def test_an_answer_holding_a_lone_surrogate_is_refused_and_replays(small_beta, runner, tmp_path,
                                                                   monkeypatch, form, strategy):
    """The gateway refuses such an answer like a schema violation: the
    direct page is a failure record and the indirect reference is
    unattainable, with no traceback, recorded or not; a replay of the
    recorded session writes the same files byte for byte."""
    victim = "beta-0000" if strategy == "direct" else None
    _surrogate_oracle(monkeypatch, _SURROGATE_FORMS[form], victim)
    args = ["extract", strategy, "--corpus", str(small_beta)]
    if strategy == "indirect":
        args += ["--runs", "1"]
    outs = {}
    for name, provider in (("plain", ["--provider", "oracle"]),
                           ("recorded", ["--provider", "oracle", "--record",
                                         str(tmp_path / "session")]),
                           ("replayed", ["--provider", "replay", "--session",
                                         str(tmp_path / "session")])):
        outs[name] = out = tmp_path / name
        result = runner.invoke(main, [*args, "--out", str(out), *provider])
        assert result.exit_code == 0, result.output
        assert result.exception is None
        assert not list(out.rglob("*.tmp"))
    files = _run_files(outs["plain"])
    assert _run_files(outs["recorded"]) == _run_files(outs["replayed"]) == files
    if strategy == "direct":
        assert list(json.loads(files["failures.json"])) == [victim]
        assert "products/beta-0000.json" not in files and "products/beta-0001.json" in files
        assert len(json.loads(files["ledger.json"])["entries"]) == 5 + 2  # one retry
    else:
        log = json.loads(files["run-00/metrics.json"])["synthesis_log"]
        assert log and {entry["outcome"] for entry in log} == {"reference_unattainable"}
    assert not list((tmp_path / "session").glob("*.tmp"))


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_an_interrupted_report_write_leaves_the_previous_report(workspace, runner, tmp_path,
                                                                 monkeypatch, command):
    out, report = tmp_path / "direct", tmp_path / "report.json"
    extracted = runner.invoke(main, ["extract", "direct", "--corpus", str(workspace / "corpus"),
                                     "--out", str(out), "--provider", "oracle"])
    assert extracted.exit_code == 0, extracted.output
    args = ["evaluate", "--results", str(out), "--truth", str(workspace / "corpus"),
            "--out", str(report)]
    assert runner.invoke(main, args).exit_code == 0
    if command == "compare":
        args = ["compare", "--direct", str(report), "--indirect", str(report),
                "--out", str(tmp_path / "compare.json")]
        assert runner.invoke(main, args).exit_code == 0
    target = Path(args[-1])
    previous = target.read_bytes()
    real_write_text = files.write_text

    def torn_write(path, data):
        real_write_text(path, data[: len(data) // 2])
        raise KeyboardInterrupt

    monkeypatch.setattr(files, "write_text", torn_write)
    result = runner.invoke(main, args)
    monkeypatch.undo()
    assert result.exit_code != 0
    assert target.read_bytes() == previous
