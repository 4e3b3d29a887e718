"""In-memory span recorder for the traced benchmark mode, and its analysis.

The tracer replaces public prodex functions with timing wrappers at every
module attribute the pipeline calls them through. Functions imported by name
(``from .htmltree import parse_html``) are separate bindings, so each binding
site is wrapped on its own. The program itself is not changed: the wrappers
live only in the traced process.

A span is ``(span_id, parent_id, name, start_ns, end_ns, raised)``. Spans are
kept in a list while the command runs and written once at exit. The layer of
a span is the part of its name before the first dot.

The recorder assumes one thread, which the workloads guarantee by running
``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
import weakref
from collections import Counter, defaultdict

# (span name, module, attribute path) for every binding site the CLI reaches.
SITES = (
    ("corpus.load", "prodex.cli", "load_corpus"),
    ("compress.both", "prodex.cli", "compress_both"),
    ("compress.both", "prodex.indirect", "compress_both"),
    ("htmltree.parse", "prodex.htmltree", "parse_html"),
    ("htmltree.parse", "prodex.indirect", "parse_html"),
    ("htmltree.select", "prodex.htmltree", "select"),
    ("htmltree.parse_selector", "prodex.htmltree", "parse_selector"),
    ("dsl.run_extraction", "prodex.dsl", "run_extraction_on_tree"),
    ("dsl.run_extraction", "prodex.indirect", "run_extraction_on_tree"),
    ("dsl.parse_program", "prodex.indirect", "parse_program"),
    ("dsl.parse_program", "prodex.oracle", "parse_program"),
    ("dsl.parse_program", "prodex.corpus", "parse_program"),
    ("indirect.process_shop", "prodex.cli", "process_shop"),
    ("indirect.ensemble", "prodex.indirect", "build_decision_ensemble"),
    ("indirect.decide", "prodex.indirect", "decide"),
    ("indirect.reference", "prodex.indirect", "acquire_reference"),
    ("indirect.synthesis", "prodex.indirect", "synthesize_program"),
    ("direct.batch", "prodex.cli", "extract_direct_batch"),
    ("direct.extract", "prodex.direct", "extract_direct"),
    ("direct.extract", "prodex.indirect", "extract_direct"),
    ("gateway.structured_call", "prodex.direct", "structured_call"),
    ("gateway.structured_call", "prodex.indirect", "structured_call"),
    ("gateway.check_schema", "prodex.gateway", "check_schema"),
    ("gateway.check_schema", "prodex.oracle", "check_schema"),
    ("gateway.validate", "prodex.gateway", "validates_against"),
    ("gateway.replay", "prodex.gateway", "ReplayProvider.complete_structured"),
    ("gateway.record", "prodex.gateway", "RecordingProvider.complete_structured"),
    ("oracle.complete", "prodex.oracle", "OracleProvider.complete_structured"),
    ("schema.parse_product", "prodex.direct", "parse_product"),
    ("schema.parse_product", "prodex.cli", "parse_product"),
    ("similarity.compare", "prodex.indirect", "compare"),
    ("similarity.compare", "prodex.evaluate", "compare"),
    ("evaluate.command", "prodex.cli", "evaluate_cmd.callback"),
)

PROVIDER_SPANS = frozenset({"gateway.replay", "gateway.record", "oracle.complete"})

LAYERS = (
    "corpus", "compress", "htmltree", "dsl", "indirect", "direct",
    "gateway", "oracle", "schema", "similarity", "evaluate",
)


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._element_counts: dict[int, tuple] = {}

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)``
        records counters once the span has ended."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, name, start, clock(), True))
                stack.pop()
                raise
            spans.append((span_id, parent, name, start, clock(), False))
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding site in SITES; prodex.cli must import cleanly."""
        importlib.import_module("prodex.cli")
        from prodex.compress import count_tokens

        counters = self.counters

        def after_compress(args, kwargs, result):
            counters["compress.tokens_in"] += count_tokens(args[0].html)
            counters["compress.tokens_out"] += result[0].token_count

        def after_select(args, kwargs, result):
            limit = args[2] if len(args) > 2 else kwargs.get("limit", 10_000)
            counters["htmltree.elements_scanned"] += min(self._elements(args[0]), limit)
            counters["htmltree.select_hits"] += bool(result)

        def after_extraction(args, kwargs, result):
            counters["dsl.rules_evaluated"] += len(args[0].rules)

        def after_shop(args, kwargs, result):
            counters["indirect.pages"] += len(result.page_results)
            counters["indirect.pages_matched"] += sum(
                1 for r in result.page_results.values() if r.source not in ("no-info", "none")
            )

        after = {
            "compress.both": after_compress,
            "htmltree.select": after_select,
            "dsl.run_extraction": after_extraction,
            "indirect.process_shop": after_shop,
        }
        for name, module_name, path in SITES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after.get(name)))

    def _elements(self, root) -> int:
        """Elements below ``root``: what one unbounded select walk visits.

        Cached per tree; the weak reference guards against a reused id().
        """
        cached = self._element_counts.get(id(root))
        if cached is not None and cached[0]() is root:
            return cached[1]
        count = sum(1 for _ in root.iter_elements())
        self._element_counts[id(root)] = (weakref.ref(root), count)
        return count

    def write(self, path, trace_id: str, proc: str, phase: str) -> None:
        """Write one header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"trace_id": trace_id, "proc": proc, "phase": phase,
                      "counters": dict(self.counters)}
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, name, start, end, raised in self.spans:
                fh.write(json.dumps({
                    "span_id": f"{proc}-{span_id}",
                    "parent_id": None if parent is None else f"{proc}-{parent}",
                    "name": name, "start_ns": start, "end_ns": end, "raised": raised,
                }) + "\n")


def read_trace(path) -> tuple[dict, list[dict]]:
    """Header and spans of a trace file; the header gains ``write_ns``, the
    time the writer spent writing, from the file's last line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    header.update(json.loads(lines[-1]))
    return header, [json.loads(line) for line in lines[1:-1]]


def _duration(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def self_times(spans: list[dict]) -> dict[str, int]:
    """Self time per span id: its duration minus its children's durations."""
    own = {s["span_id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent_id"] is not None:
            own[s["parent_id"]] -= _duration(s)
    return own


def summarize(traces: list[tuple[dict, list[dict]]]) -> tuple[dict, dict]:
    """Per-layer metrics from the traces of one traced iteration.

    Returns ``(metrics, self_ms_by_site)``: metric values keyed by metric
    name, and self time in ms keyed by ``"<span> < <parent span>"``.
    """
    spans = [s for _, trace_spans in traces for s in trace_spans]
    counters: Counter = Counter()
    for header, _ in traces:
        counters.update(header["counters"])
    by_id = {s["span_id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent_id"] is not None:
            children[s["parent_id"]].append(s)
    own = self_times(spans)

    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_site: Counter = Counter()
    raised: Counter = Counter()
    for s in spans:
        calls[s["name"]] += 1
        total_ns[s["name"]] += _duration(s)
        self_by_name[s["name"]] += own[s["span_id"]]
        parent = by_id[s["parent_id"]]["name"] if s["parent_id"] is not None else "-"
        self_by_site[f"{s['name']} < {parent}"] += own[s["span_id"]]
        raised[s["name"]] += s["raised"]

    def under(s, name):
        parent = s["parent_id"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent_id"]
        return False

    library_runs = sum(
        1 for s in spans
        if s["name"] == "dsl.run_extraction" and not under(s, "indirect.synthesis")
    )
    provider_calls = 0
    provider_ns = 0
    persist_ns = 0
    for s in spans:
        if s["name"] == "gateway.structured_call":
            for c in children[s["span_id"]]:
                if c["name"] in PROVIDER_SPANS:
                    provider_calls += 1
                    provider_ns += _duration(c)
        elif s["name"] == "direct.batch":
            persist_ns += _duration(s) - sum(
                _duration(c) for c in children[s["span_id"]] if c["name"] == "direct.extract"
            )

    def ms(ns):
        return ns / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    pages = counters["indirect.pages"]
    metrics = {
        "compress.calls": calls["compress.both"],
        "compress.ms": ms(total_ns["compress.both"]),
        "compress.token_ratio": ratio(counters["compress.tokens_out"],
                                      counters["compress.tokens_in"]),
        "htmltree.parse_calls": calls["htmltree.parse"],
        "htmltree.parse_ms": ms(total_ns["htmltree.parse"]),
        "htmltree.select_calls": calls["htmltree.select"],
        "htmltree.select_ms": ms(total_ns["htmltree.select"]),
        "htmltree.selector_compiles": calls["htmltree.parse_selector"],
        "htmltree.elements_scanned": counters["htmltree.elements_scanned"],
        "htmltree.select_hit_ratio": ratio(counters["htmltree.select_hits"],
                                           calls["htmltree.select"]),
        "dsl.run_extraction_calls": calls["dsl.run_extraction"],
        "dsl.run_extraction_ms": ms(total_ns["dsl.run_extraction"]),
        "dsl.rules_evaluated": counters["dsl.rules_evaluated"],
        "dsl.parse_program_calls": calls["dsl.parse_program"],
        "dsl.parse_program_ms": ms(total_ns["dsl.parse_program"]),
        "indirect.programs_tried_per_page": ratio(library_runs, pages),
        "indirect.library_hit_ratio": ratio(counters["indirect.pages_matched"], library_runs),
        "indirect.synthesis_episodes": calls["indirect.reference"],
        "indirect.synthesis_ms": ms(total_ns["indirect.synthesis"]),
        "indirect.reference_ms": ms(total_ns["indirect.reference"]),
        "indirect.ensemble_ms": ms(total_ns["indirect.ensemble"]),
        "indirect.decide_calls": calls["indirect.decide"],
        "direct.extract_ms": ms(total_ns["direct.extract"]),
        "direct.persist_ms": ms(persist_ns),
        "gateway.calls": calls["gateway.structured_call"],
        "gateway.retries": provider_calls - calls["gateway.structured_call"],
        "gateway.overhead_ms": ms(total_ns["gateway.structured_call"] - provider_ns),
        "gateway.schema_check_ms": ms(total_ns["gateway.check_schema"]),
        "gateway.validate_ms": ms(total_ns["gateway.validate"]),
        "gateway.replay_reads": calls["gateway.replay"],
        "gateway.replay_ms": ms(total_ns["gateway.replay"]),
        "gateway.replay_misses": raised["gateway.replay"],
        "oracle.calls": calls["oracle.complete"],
        "oracle.ms": ms(total_ns["oracle.complete"]),
        "schema.parse_product_calls": calls["schema.parse_product"],
        "schema.parse_product_ms": ms(total_ns["schema.parse_product"]),
        "similarity.compare_calls": calls["similarity.compare"],
        "similarity.compare_ms": ms(total_ns["similarity.compare"]),
        "evaluate.ms": ms(total_ns["evaluate.command"]),
        "cli.unattributed_ms": ms(self_by_name["cli"]),
    }
    layer_self: Counter = Counter()
    for name, ns in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += ns
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ms(layer_self[layer])
    return metrics, {site: ms(ns) for site, ns in self_by_site.items()}


def summarize_recording(spans: list[dict]) -> dict:
    """Metrics of a traced recording: writes, their self time, oracle work."""
    own = self_times(spans)
    record = [s for s in spans if s["name"] == "gateway.record"]
    oracle = [s for s in spans if s["name"] == "oracle.complete"]
    return {
        "gateway.record_writes": len(record),
        "gateway.record_ms": sum(own[s["span_id"]] for s in record) / 1e6,
        "oracle.calls": len(oracle),
        "oracle.ms": sum(_duration(s) for s in oracle) / 1e6,
    }
