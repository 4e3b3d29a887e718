"""prodex benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--pages N]

Each measured iteration runs the user-facing CLI in fresh interpreters, one
command per process as a user would: ``prodex extract ...`` and then
``prodex evaluate ...``. The load is one closed-loop client: one process at
a time, one thread, ``--workers 1``. Set-up (generate, write and load the
corpus, repeated; for direct-replay-300 also record the session once) is
timed on its own, so work moved into set-up shows as ``setup_s``.

The benchmark pins itself and its children to one CPU and converts every
interval to reference seconds with a host-speed gauge sampled on that CPU
(hostspeed.py): the host's speed swings up to 2x within seconds. Iterations
repeat until ``--seconds`` of measuring have passed (at least two);
``pages_per_s`` uses the median iteration and ``setup_s`` the median set-up
repetition. With ``--trace 1`` iterations alternate untraced and traced, and
the per-layer metrics come from the traced ones (see tracer.py). Every
iteration's outputs are checked; the last stdout line is the JSON result.
``--pages`` shrinks a workload for the smoke test.

See perfbench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from statistics import median

from hostspeed import Gauge, pin_to_one_cpu
from tracer import LAYERS, read_trace, summarize, summarize_recording

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0
# The corpus part of set-up repeats at least MIN_SETUPS times and until
# SETUP_SECONDS have passed; setup_s takes the median repetition.
MIN_SETUPS = 5
SETUP_SECONDS = 2.0
# Measured iterations per run, at least; more while --seconds have not passed.
MIN_ITERATIONS = 2

PRIMARY_ROLES = ("direct", "reference", "func_gen", "refine")
FAILED_OUTCOMES = ("provider_error", "reference_unattainable")

END_TO_END = {
    "pages_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_pct": "%",
}

# End-to-end figures that repeat exactly for a seed but spread too widely
# across seeds, or are 0 on some workload, for a bound. They are printed by
# every run, pinned by the output check and reported with the traced run.
COUNTS = {
    "primary_calls": "count",
    "decision_calls": "count",
    "cost_usd": "USD",
    "failed_pages_frac": "ratio",
}

PER_LAYER = {
    "corpus.generate_s": "s",
    "corpus.load_s": "s",
    "compress.calls": "count",
    "compress.ms": "ms",
    "compress.token_ratio": "ratio",
    "htmltree.parse_calls": "count",
    "htmltree.parse_ms": "ms",
    "htmltree.select_calls": "count",
    "htmltree.select_ms": "ms",
    "htmltree.selector_compiles": "count",
    "htmltree.elements_scanned": "count",
    "htmltree.select_hit_ratio": "ratio",
    "dsl.run_extraction_calls": "count",
    "dsl.run_extraction_ms": "ms",
    "dsl.rules_evaluated": "count",
    "dsl.parse_program_calls": "count",
    "dsl.parse_program_ms": "ms",
    "indirect.programs_tried_per_page": "count/page",
    "indirect.library_hit_ratio": "ratio",
    "indirect.synthesis_episodes": "count",
    "indirect.synthesis_ms": "ms",
    "indirect.reference_ms": "ms",
    "indirect.ensemble_ms": "ms",
    "indirect.decide_calls": "count",
    "direct.extract_ms": "ms",
    "direct.persist_ms": "ms",
    "gateway.calls": "count",
    "gateway.retries": "count",
    "gateway.overhead_ms": "ms",
    "gateway.schema_check_ms": "ms",
    "gateway.validate_ms": "ms",
    "gateway.replay_reads": "count",
    "gateway.replay_ms": "ms",
    "gateway.replay_misses": "count",
    "gateway.record_writes": "count",
    "gateway.record_ms": "ms",
    "gateway.session_bytes": "bytes",
    "oracle.calls": "count",
    "oracle.ms": "ms",
    "schema.parse_product_calls": "count",
    "schema.parse_product_ms": "ms",
    "similarity.compare_calls": "count",
    "similarity.compare_ms": "ms",
    "evaluate.ms": "ms",
    "cli.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **COUNTS,
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    pages: int
    runs: int  # extraction runs over the same pages (the ten-run protocol)
    extract: tuple[str, ...]  # CLI arguments of the measured extract command
    record: bool  # set-up records an oracle session that the run replays


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "indirect-gamma-3k", "gamma", 3000, 1,
            ("extract", "indirect", "--provider", "oracle",
             "--oracle-imperfections", "1", "--runs", "1"),
            record=False,
        ),
        Workload(
            "direct-replay-300", "gamma", 300, 1,
            ("extract", "direct", "--provider", "replay", "--workers", "1"),
            record=True,
        ),
        Workload(
            "indirect-tenrun-beta", "beta", 400, 10,
            ("extract", "indirect", "--provider", "oracle", "--runs", "10",
             "--oracle-imperfections", "2", "--oracle-unreparable-rate", "0.3"),
            record=False,
        ),
    )
}


class RunFailed(Exception):
    """A CLI process exited non-zero or was killed, or left unreadable output."""


# --- processes ------------------------------------------------------------------

def run_cli(cli_args, log_path: Path, deadline: float, trace: dict | None = None):
    """Run one CLI command in a fresh interpreter; returns (exit code, start
    and end on perf_counter, peak RSS in MB). The child is killed when the
    run's budget is spent."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace is not None:
        cmd += ["--trace-out", str(trace["path"]), "--trace-id", trace["id"],
                "--proc", trace["proc"], "--phase", trace["phase"]]
    cmd += ["--", *map(str, cli_args)]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --- set-up ---------------------------------------------------------------------

@dataclass
class Setup:
    corpus: Path
    session: Path | None
    recorded: Path | None  # the recording run's output directory
    corpus_s: list  # reference seconds of each generate-write-load repetition
    corpus_wall_s: list
    generate_s: list  # reference seconds
    load_s: list  # reference seconds
    record_s: float = 0.0  # reference seconds
    record_wall_s: float = 0.0

    @property
    def total_s(self) -> float:
        return median(self.corpus_s) + self.record_s


def set_up(w: Workload, pages: int, seed: int, work: Path, deadline: float,
           trace: dict | None, gauge: Gauge) -> Setup:
    """Generate, write and load the corpus, repeatedly; then record the
    session once if the workload replays one.

    The first repetition creates the corpus files and later ones rewrite
    them in place. Creating thousands of fresh files costs 2-10x more from
    one minute to the next on a shared disk (new inodes and directory
    blocks), which would swamp the program's own set-up work; the median
    repetition is a rewrite.
    """
    from prodex.corpus import generate_shop, load_corpus, preset_spec, write_corpus

    setup = Setup(work / "corpus", work / "session" if w.record else None,
                  work / "recorded" if w.record else None, [], [], [], [])
    started = time.monotonic()
    while len(setup.corpus_s) < MIN_SETUPS or time.monotonic() - started < SETUP_SECONDS:
        start = time.perf_counter()
        spec = preset_spec(w.preset, pages, seed)
        shop = generate_shop(spec)
        generated = time.perf_counter()
        write_corpus(shop, setup.corpus, preset=w.preset, spec=spec)
        written = time.perf_counter()
        load_corpus(setup.corpus)
        loaded = time.perf_counter()
        setup.corpus_s.append(gauge.seconds(start, loaded))
        setup.corpus_wall_s.append(loaded - start)
        setup.generate_s.append(gauge.seconds(start, generated))
        setup.load_s.append(gauge.seconds(written, loaded))
    if w.record:
        code, start, end, _ = run_cli(
            ["extract", "direct", "--provider", "oracle", "--workers", "1",
             "--corpus", setup.corpus, "--out", setup.recorded, "--record", setup.session],
            work / "record.log", deadline, trace,
        )
        if code != 0:
            raise RunFailed(f"recording exited {code}; see {work / 'record.log'}")
        setup.record_s = gauge.seconds(start, end)
        setup.record_wall_s = end - start
    return setup


# --- one measured iteration -------------------------------------------------------

@dataclass
class Iteration:
    wall_s: float
    ref_s: float  # the wall time in reference seconds (see hostspeed.py)
    peak_rss_mb: float
    values: dict  # accuracy_pct, primary_calls, decision_calls, cost_usd (str)
    failed_pages: int  # failures.json entries plus provider_error and reference_unattainable
    errored_pages: int  # failures.json entries plus provider errors
    digest: str
    checks: list  # (name, ok, detail)
    traces: list  # trace file paths of a traced iteration


def artifact_digest(out: Path) -> str:
    """sha256 over the bit-exact artifacts, keyed by their relative paths."""
    names = ("products.json", "metrics.json", "ledger.json", "summary.json")
    files = sorted(
        p for p in out.rglob("*")
        if p.is_file() and (p.name in names or p.parent.name == "products")
    )
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def read_outcome(out: Path, report_path: Path, w: Workload, pages: int):
    """Values, page failures and consistency checks from a run's artifacts."""
    checks = []
    run_dirs = [out] if w.record else sorted(out.glob("run-*"))
    primary = decision = 0
    cost = Decimal(0)
    for run_dir in run_dirs:
        ledger = json.loads((run_dir / "ledger.json").read_text(encoding="utf-8"))
        roles = [entry["role_tag"] for entry in ledger["entries"]]
        primary += sum(role in PRIMARY_ROLES for role in roles)
        decision += roles.count("decision_gen")
        cost += Decimal(ledger["total_usd"])
    if w.record:
        checks.append(("ledger-one-per-page", len(roles) == pages,
                       f"{len(roles)} ledger entries for {pages} pages"))

    report = json.loads(report_path.read_text(encoding="utf-8"))
    shops = report["shops"].values()
    accuracies = [a for shop in shops for a in shop["accuracy_by_variant"].values()]
    values = {
        "accuracy_pct": sum(accuracies) / len(accuracies),
        "primary_calls": primary,
        "decision_calls": decision,
        "cost_usd": str(cost),
    }
    reported = (
        sum(s["calls_primary"] for s in shops),
        sum(s["calls_decision"] for s in shops),
        sum((Decimal(s["cost_usd"]) for s in shops), Decimal(0)),
    )
    checks.append(("report-matches-ledger", reported == (primary, decision, cost),
                   f"report {reported} vs ledger {(primary, decision, cost)}"))

    failed = errored = 0
    failures_path = out / "failures.json"
    if failures_path.exists():
        failed = errored = len(json.loads(failures_path.read_text(encoding="utf-8")))
    if w.record:
        produced = len(list((out / "products").glob("*.json")))
        checks.append(("pages-complete", produced + failed == pages,
                       f"{produced} products + {failed} failures for {pages} pages"))
    else:
        run_accuracies = next(iter(shops))["run_accuracies"]
        for run_dir, evaluated in zip(run_dirs, run_accuracies):
            metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
            outcomes = [e["outcome"] for e in metrics["synthesis_log"]]
            failed += sum(o in FAILED_OUTCOMES for o in outcomes)
            errored += outcomes.count("provider_error")
            products = json.loads((run_dir / "products.json").read_text(encoding="utf-8"))
            checks.append(("pages-complete", len(products) == pages,
                           f"{run_dir.name}: {len(products)} products for {pages} pages"))
            checks.append(("accuracy-matches-orchestrator",
                           abs(metrics["accuracy"] - evaluated) < 1e-9,
                           f"{run_dir.name}: {metrics['accuracy']} vs {evaluated}"))
        checks.append(("runs-complete", len(run_dirs) == w.runs == len(run_accuracies),
                       f"{len(run_dirs)} run dirs, {len(run_accuracies)} scored"))
    return values, failed, errored, checks


def iterate(w: Workload, pages: int, setup: Setup, work: Path, index: int,
            deadline: float, traced: bool, trace_id: str, gauge: Gauge) -> Iteration:
    it_dir = work / f"iter-{index}"
    shutil.rmtree(it_dir, ignore_errors=True)
    it_dir.mkdir(parents=True)
    out = it_dir / "out"
    report = it_dir / "report.json"
    extract_args = [*w.extract, "--corpus", setup.corpus, "--out", out]
    if setup.session is not None:
        extract_args += ["--session", setup.session]
    commands = [
        ("extract", extract_args),
        ("evaluate", ["evaluate", "--results", out, "--truth", setup.corpus, "--out", report]),
    ]
    wall = ref = rss = 0.0
    traces = []
    for tag, args in commands:
        trace = None
        if traced:
            trace = {"path": work / "trace" / f"iter-{index}-{tag}.jsonl", "id": trace_id,
                     "proc": f"{index}-{tag}", "phase": "run"}
            traces.append(trace["path"])
        code, start, end, peak = run_cli(args, it_dir / f"{tag}.log", deadline, trace)
        wall += end - start
        ref += gauge.seconds(start, end)
        rss = max(rss, peak)
        if code != 0:
            raise RunFailed(f"{tag} exited {code}; see {it_dir / (tag + '.log')}")

    try:
        values, failed, errored, checks = read_outcome(out, report, w, pages)
    except (OSError, LookupError, ValueError, TypeError, ArithmeticError) as exc:
        raise RunFailed(f"unreadable output in {out}: {exc!r}") from exc
    if setup.recorded is not None:
        checks.append(("replay-identical", same_files(setup.recorded, out),
                       "replayed products/ and ledger.json match the recording"))
    return Iteration(wall, ref, rss, values, failed, errored, artifact_digest(out), checks,
                     traces)


def same_files(recorded: Path, replayed: Path) -> bool:
    def contents(root: Path) -> dict:
        paths = sorted((root / "products").glob("*.json")) + [root / "ledger.json"]
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths}
    return contents(recorded) == contents(replayed)


# --- pins -----------------------------------------------------------------------

def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def check_pins(pins: dict, workload: str, pages: int, seed: int, values: dict):
    """(name, ok, detail) against the values pinned for this workload, size and
    seed, or None when nothing is pinned for them."""
    pinned = pins.get(workload, {}).get(str(pages), {}).get(str(seed))
    if pinned is None:
        return None
    return ("pinned", pinned == values, f"pinned {pinned} vs measured {values}")


# --- the run --------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pages", type=int, default=None,
                        help="override the workload's page count (smoke test)")
    opts = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "prodex" / "__init__.py").is_file():
        print(f"no prodex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pin_to_one_cpu()
    w = WORKLOADS[opts.workload]
    pages = opts.pages or w.pages
    work = ROOT / ".perfbench-work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "trace").mkdir(parents=True)
    trace_id = f"{w.name}-s{opts.seed}-{os.getpid()}"
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }
    print("machine " + json.dumps(machine))

    setup = None
    iterations: list[Iteration] = []
    try:
        # A traced run traces the recording.
        record_trace = None
        if opts.trace and w.record:
            record_trace = {"path": work / "trace" / "setup-record.jsonl",
                            "id": trace_id, "proc": "s", "phase": "setup"}
        with Gauge() as gauge:
            setup = set_up(w, pages, opts.seed, work, deadline, record_trace, gauge)
            measuring = time.monotonic()
            while True:
                traced = bool(opts.trace) and len(iterations) % 2 == 1
                iterations.append(iterate(w, pages, setup, work, len(iterations), deadline,
                                          traced, trace_id, gauge))
                pairs_done = not opts.trace or len(iterations) % 2 == 0
                if (len(iterations) >= MIN_ITERATIONS and pairs_done
                        and time.monotonic() - measuring >= opts.seconds):
                    break
    except RunFailed as exc:
        # Every page of the run counts as failed; there is nothing to measure.
        print(f"check exit: FAILED ({exc})")
        attempted = pages * w.runs * (len(iterations) + 1)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1

    first = iterations[0]
    checks = []
    for k, it in enumerate(iterations):
        checks += [(f"iter-{k} {name}", ok, detail) for name, ok, detail in it.checks]
        checks.append((f"iter-{k} repeatable", it.digest == first.digest,
                       f"{it.digest} vs {first.digest}"))
        checks.append((f"iter-{k} values-repeat", it.values == first.values,
                       f"{it.values} vs {first.values}"))
    pinned = check_pins(load_pins(), w.name, pages, opts.seed, first.values)
    if pinned is not None:
        checks.append(pinned)
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}" + ("" if ok else f" ({detail})"))
    for k, it in enumerate(iterations):
        print(f"iteration {k}: wall {it.wall_s:.3f} s = {it.ref_s:.3f} reference s, "
              f"peak RSS {it.peak_rss_mb:.1f} MB" + (" (traced)" if it.traces else ""))
    print(f"setup: {len(setup.corpus_s)} corpus repetitions, median wall "
          f"{median(setup.corpus_wall_s):.4f} s = reference {median(setup.corpus_s):.4f} s"
          + (f"; recording wall {setup.record_wall_s:.3f} s = reference {setup.record_s:.3f} s"
             if w.record else ""))
    print("values " + json.dumps(first.values, sort_keys=True))
    print(f"artifacts sha256 {first.digest}")
    correct = all(ok for _, ok, _ in checks)

    pages_done = pages * w.runs
    attempted = pages_done * len(iterations)
    failed = attempted if not correct else sum(it.errored_pages for it in iterations)

    counts = {
        "primary_calls": first.values["primary_calls"],
        "decision_calls": first.values["decision_calls"],
        "cost_usd": float(first.values["cost_usd"]),
        "failed_pages_frac": first.failed_pages / pages_done,
    }
    print("counts " + json.dumps({name: {"value": counts[name], "unit": unit}
                                  for name, unit in COUNTS.items()}))
    if not opts.trace:
        values = {
            "pages_per_s": pages_done / median(it.ref_s for it in iterations),
            "setup_s": setup.total_s,
            "peak_rss_mb": median(it.peak_rss_mb for it in iterations),
            "accuracy_pct": first.values["accuracy_pct"],
        }
        units = END_TO_END
    else:
        values = {**layer_metrics(iterations, setup, work), **counts}
        units = PER_LAYER
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if correct:
        for path in work.iterdir():
            if path.is_dir() and path.name != "trace":
                shutil.rmtree(path)
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(iterations, setup, work) -> dict:
    """Per-layer metrics: medians over the traced iterations."""
    untraced = iterations[0::2]
    traced = iterations[1::2]
    per_iteration = []
    self_tables = []
    traced_times = []  # reference seconds, less the time spent writing the spans
    for it in traced:
        traces = [read_trace(path) for path in it.traces]
        metrics, by_site = summarize(traces)
        per_iteration.append(metrics)
        self_tables.append(by_site)
        write_s = sum(h["write_ns"] for h, _ in traces) / 1e9
        traced_times.append(it.ref_s * (1.0 - write_s / it.wall_s))
    values = {name: median(m[name] for m in per_iteration) for name in per_iteration[0]}

    recording = {"gateway.record_writes": 0, "gateway.record_ms": 0.0,
                 "oracle.calls": 0, "oracle.ms": 0.0}
    record_trace = work / "trace" / "setup-record.jsonl"
    if record_trace.exists():
        recording = summarize_recording(read_trace(record_trace)[1])
    values["gateway.record_writes"] = recording["gateway.record_writes"]
    values["gateway.record_ms"] = recording["gateway.record_ms"]
    values["oracle.calls"] += recording["oracle.calls"]
    values["oracle.ms"] += recording["oracle.ms"]
    values["gateway.session_bytes"] = dir_bytes(setup.session) if setup.session else 0
    values["corpus.generate_s"] = median(setup.generate_s)
    values["corpus.load_s"] = median(setup.load_s)

    plain = median(it.ref_s for it in untraced)
    values["trace.overhead_pct"] = 100.0 * (median(traced_times) - plain) / plain

    table = self_tables[len(self_tables) // 2]
    print("self time by span < parent span, ms (traced iteration):", file=sys.stderr)
    for site, ms in sorted(table.items(), key=lambda item: -item[1]):
        print(f"  {site:56s} {ms:10.1f}", file=sys.stderr)
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
