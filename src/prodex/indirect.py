"""Indirect strategy: generate extraction programs once per template, run
them locally everywhere, and only pay for model calls when needed.

Per shop run:
  1. Generate an odd-sized ensemble of decision programs from a small
     labeled bootstrap sample; a page is decision-positive when a strict
     majority of programs says so.
  2. Visit pages in a seed-shuffled order. Run every library program on the
     page and keep the result with the most extracted attributes. The
     programs run together in one matching scan of the raw page that
     builds no tree (``dsl.run_extractions``); a page is compressed only
     when it is rendered into a prompt or judged by the ensemble. Results
     are memoised by rule content in a PageCache that the runs over one
     corpus share, so a library program runs on a page at most once, and
     not at all where the page lacks a tag or class every rule needs.
  3. When no program extracts anything AND the page is decision-positive:
     acquire a reference object through direct extraction (it must fill at
     least the configured share of schema fields, with one text-variant
     retry), then synthesize a program against that reference: generate,
     refine up to `max_refinements` times on similarity feedback, and fall
     back to up to `max_alternatives` fresh generations. The best program,
     perfect or not, joins the library and the page is re-evaluated.
     Every step reads one Page per visit, so a candidate program runs on
     the tree of the very HTML its prompt carried.
  4. Decision-negative pages produce an empty product and never reach the
     primary model.

Every primary-model call (references, generations, refinements) and
decision-model call is priced into the run's ledger, and every count in the
run's metrics is read off that ledger by role. Each synthesis episode logs
the calls it made; `check_invariants` checks at the end of every run that
the episodes' sums equal the ledger's per-role totals.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

from . import prompts
from .compress import CompressedDocument, UnparsableDocument, compress_both
from .reader import Corpus
from .direct import ExtractionFailed, extract_direct
from .dsl import (
    DecisionProgram,
    ExtractionProgram,
    FieldRule,
    ProgramScan,
    count_extracted,
    decision_program_json_schema,
    decision_votes,
    extraction_program_json_schema,
    parse_program,
    program_scan,
    run_decision,
    run_extraction_on_tree,
    run_extractions,
)
from .gateway import (DECISION_ROLE, PROVIDER_FAILURES, CostLedger, Provider, request_schema,
                      structured_call)
from .htmltree import Document, parse_html, selector_needs
from .schema import (
    FIELDS,
    FoodProduct,
    SchemaViolation,
    filled_field_ratio,
    json_block,
    product_to_dict,
    serialize_product,
)
from .similarity import compare, render_feedback


class EnsembleBootstrapFailed(Exception):
    """No generated decision program beat chance on the bootstrap sample."""


class ReferenceUnattainable(Exception):
    """No sufficiently filled reference object obtainable for a page."""


@dataclass(frozen=True)
class OrchestratorConfig:
    decision_ensemble_size: int = 5
    reference_fill_threshold: float = 0.8
    max_refinements: int = 5
    max_alternatives: int = 3
    min_valid_attributes: int = 1
    rng_seed: int = 0
    primary_model: str = "o3-mini"
    decision_model: str = "gpt-4o"

    def __post_init__(self):
        if self.decision_ensemble_size < 1 or self.decision_ensemble_size % 2 == 0:
            raise ValueError("decision_ensemble_size must be odd and positive")
        if not (0.0 < self.reference_fill_threshold <= 1.0):
            raise ValueError("reference_fill_threshold must be in (0, 1]")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must not be negative")
        if self.max_alternatives < 0:
            raise ValueError("max_alternatives must not be negative")
        if not 1 <= self.min_valid_attributes <= len(FIELDS):  # count_extracted's range
            raise ValueError(f"min_valid_attributes must be in 1..{len(FIELDS)}")


@dataclass
class LibraryEntry:
    program: ExtractionProgram
    pages_matched: int = 0
    attrs_total: int = 0

    @property
    def mean_attributes_extracted(self) -> float:
        if self.pages_matched == 0:
            return 0.0
        return self.attrs_total / self.pages_matched

    def to_json(self, level: int) -> str:
        """The entry as a JSON object whose items sit at nesting ``level``:
        ``program``, ``pages_matched`` and ``mean_attributes_extracted``."""
        return json_block("{}", [
            f'"program": {self.program.to_json(level + 1, sort_keys=False)}',
            f'"pages_matched": {self.pages_matched}',
            f'"mean_attributes_extracted": {self.mean_attributes_extracted!r}',
        ], level)


class FunctionLibrary:
    """Accepted extraction programs with per-program usage stats."""

    def __init__(self):
        self.entries: list[LibraryEntry] = []

    def add(self, program: ExtractionProgram) -> LibraryEntry:
        if any(e.program.program_id == program.program_id for e in self.entries):
            raise ValueError(f"duplicate program_id {program.program_id}")
        entry = LibraryEntry(program=program)
        self.entries.append(entry)
        return entry

    def to_json(self) -> str:
        """library.json: ``{"programs": [entry, ...]}``, each program as its
        ``to_dict`` gives it. The bytes are exactly those of ``json.dumps``
        of that object with ``indent=2, ensure_ascii=False``, in that call's
        fixed layout with the C escaper ``json_string`` it uses."""
        entries = [entry.to_json(3) for entry in self.entries]
        return json_block("{}", [f'"programs": {json_block("[]", entries, 2)}'], 1)


@dataclass
class ShopRunMetrics:
    shop_id: str
    pages_total: int
    llm_calls_primary_model: int
    llm_calls_decision_model: int
    functions_generated: int
    refinements_performed: int
    reference_extractions: int
    seed: int
    cost_primary_usd: str
    cost_decision_usd: str
    cost_total_usd: str
    accuracy: Optional[float] = None  # filled by whoever holds the ground truth
    synthesis_log: list[dict] = field(default_factory=list)

    def check_invariants(self) -> None:
        """The per-episode counts in ``synthesis_log`` add up to the per-role
        totals, and those add up to the primary calls; a primary call made
        outside a synthesis episode breaks the first check."""
        logged = {"reference_extractions": 0, "functions_generated": 0, "refinements_performed": 0}
        for entry in self.synthesis_log:
            logged["reference_extractions"] += entry.get("reference_calls", entry.get("calls", 0))
            logged["functions_generated"] += entry.get("generations", 0)
            logged["refinements_performed"] += entry.get("refinements", 0)
        for name, total in logged.items():
            if getattr(self, name) != total:
                raise AssertionError(
                    f"call accounting broken: {name} is {getattr(self, name)}, "
                    f"synthesis_log sums to {total}"
                )
        expected = sum(logged.values())
        if self.llm_calls_primary_model != expected:
            raise AssertionError(
                f"primary call accounting broken: {self.llm_calls_primary_model} != {expected}"
            )

    def to_dict(self) -> dict:
        return {
            "shop_id": self.shop_id,
            "pages_total": self.pages_total,
            "llm_calls_primary_model": self.llm_calls_primary_model,
            "llm_calls_decision_model": self.llm_calls_decision_model,
            "functions_generated": self.functions_generated,
            "refinements_performed": self.refinements_performed,
            "reference_extractions": self.reference_extractions,
            "seed": self.seed,
            "accuracy": self.accuracy,
            "cost_primary_usd": self.cost_primary_usd,
            "cost_decision_usd": self.cost_decision_usd,
            "cost_total_usd": self.cost_total_usd,
            "synthesis_log": self.synthesis_log,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)


@dataclass
class PageResult:
    page_id: str
    product: FoodProduct
    source: str  # program_id | "no-info" | "none"
    count_extracted: int

    def to_dict(self) -> dict:
        return {
            "page_id": self.page_id,
            "source": self.source,
            "count_extracted": self.count_extracted,
            "product": product_to_dict(self.product),
        }


@dataclass
class ShopRunResult:
    page_results: dict[str, PageResult]
    library: FunctionLibrary
    metrics: ShopRunMetrics
    ledger: CostLedger
    failures: dict[str, str] = field(default_factory=dict)  # page_id -> why it failed


# --- Decision ensemble -------------------------------------------------------

def render_samples(samples: list[tuple[CompressedDocument, bool]]) -> str:
    blocks = []
    for j, (doc, label) in enumerate(samples):
        verdict = "yes" if label else "no"
        blocks.append(
            f"--- SAMPLE {j} (contains target information: {verdict}) ---\n{doc.content}"
        )
    return "\n\n".join(blocks)


def _program_parser(kind: type):
    """The structured_call parse step for a program of one kind: parse_program,
    and a program of the other kind is rejected like any schema violation."""

    def parse(json_text: str):
        program = parse_program(json_text)
        if not isinstance(program, kind):
            raise SchemaViolation([("kind", f"expected a {kind.__name__}")])
        return program

    return parse


def build_decision_ensemble(
    samples: list[tuple[CompressedDocument, bool]],
    provider: Provider,
    config: OrchestratorConfig,
    ledger: CostLedger,
    token_prefix: str = "run",
) -> list[DecisionProgram]:
    """Generate the ensemble; each member must classify all samples correctly
    or is regenerated up to 3 times, keeping its best attempt."""
    labels = [label for _, label in samples]
    if not any(labels) or all(labels):
        raise ValueError("bootstrap samples need at least one positive and one negative")
    schema = request_schema(decision_program_json_schema)
    system = prompts.load("decision_system.txt")
    user_template = prompts.load("decision_user.txt")
    samples_text = render_samples(samples)

    ensemble: list[DecisionProgram] = []
    best_scores: list[int] = []
    for member in range(config.decision_ensemble_size):
        best_program: Optional[DecisionProgram] = None
        best_score = -1
        for attempt in range(3):
            user = user_template.format(
                schema=schema.text,
                member_token=f"{token_prefix}-m{member}a{attempt}",
                samples=samples_text,
            )
            try:
                _, program = structured_call(
                    provider, config.decision_model, system, user, schema,
                    _program_parser(DecisionProgram),
                    ledger=ledger, role_tag=DECISION_ROLE,
                )
            except SchemaViolation:
                continue
            score = sum(
                1 for doc, label in samples if run_decision(program, doc) == label
            )
            if score > best_score:
                best_score = score
                best_program = program
            if score == len(samples):
                break
        if best_program is not None:
            ensemble.append(best_program)
            best_scores.append(best_score)
    if not ensemble or max(best_scores) * 2 <= len(samples):
        raise EnsembleBootstrapFailed(
            "no decision program classified more than half of the bootstrap samples"
        )
    return ensemble


def decide(ensemble: list[DecisionProgram], doc: CompressedDocument) -> bool:
    """Strict majority vote over the ensemble's individual decisions."""
    if not ensemble or len(ensemble) % 2 == 0:
        raise ValueError("ensemble must be non-empty and odd-sized")
    return decision_votes(ensemble, doc) * 2 > len(ensemble)


# --- Pages ---------------------------------------------------------------------

class Page:
    """One visit to a page: its HTML and TEXT documents, and the tree of
    its HTML document.

    Each is derived when first read, and only a page that is rendered (a
    bootstrap sample, a page the decision ensemble judges, a synthesis
    page) is ever compressed; library programs run on the raw page in a
    matching scan that builds no tree. A document a visit reads is kept in
    the cache. A later visit takes a kept document from the cache, and
    compresses the raw page again for anything else it needs. The tree is
    ``parse_html`` of the HTML document, the page a candidate program's
    prompt carried, parsed once per visit.
    """

    def __init__(self, cache: "PageCache", page_id: str):
        self.page_id = page_id
        self._cache = cache
        self._compressed: Optional[tuple] = None  # what compress_both wrote on this visit
        self._tree: Optional[Document] = None

    @property
    def html(self) -> CompressedDocument:
        return self._document(0, self._cache.html)

    @property
    def text(self) -> CompressedDocument:
        return self._document(1, self._cache.text)

    @property
    def tree(self) -> Document:
        if self._tree is None:
            self._tree = parse_html(self.html.content)
        return self._tree

    def _document(self, variant: int, cached: dict[str, CompressedDocument]) -> CompressedDocument:
        doc = cached.get(self.page_id)
        if doc is None:
            if self._compressed is None:
                self._compressed = self._cache.read(self.page_id, compress_both)
            doc = cached[self.page_id] = self._compressed[variant]
        return doc


# --- Reference acquisition ----------------------------------------------------

def acquire_reference(
    page: Page,
    provider: Provider,
    config: OrchestratorConfig,
    ledger: CostLedger,
) -> FoodProduct:
    """Direct-extract a reference object with enough populated fields.

    Falls back once to the TEXT variant; every call is in the ledger under
    the ``reference`` role. Raises ReferenceUnattainable when both attempts
    fall short.
    """
    for doc in (page.html, page.text):
        try:
            product = extract_direct(
                doc, provider, config.primary_model,
                ledger=ledger, role_tag="reference",
            )
        except ExtractionFailed:
            continue
        if filled_field_ratio(product) >= config.reference_fill_threshold:
            return product
    raise ReferenceUnattainable(f"page {page.page_id}: no suitable reference object")


# --- Program synthesis ----------------------------------------------------------

@dataclass
class SynthesisResult:
    best_program: Optional[ExtractionProgram]
    accepted: bool
    best_similarity: float


def synthesize_program(
    page: Page,
    reference: FoodProduct,
    provider: Provider,
    config: OrchestratorConfig,
    ledger: CostLedger,
    token_prefix: str = "run",
) -> SynthesisResult:
    """Generate-and-refine until the program reproduces the reference.

    Prompts carry ``page.html`` and candidate programs run on ``page.tree``.
    One initial generation plus up to `max_alternatives` fresh starts, each
    followed by up to `max_refinements` feedback-driven refinement calls;
    at most (1+max_refinements)*(1+max_alternatives) primary calls total,
    each in the ledger under the ``func_gen`` or ``refine`` role.
    """
    schema = request_schema(extraction_program_json_schema)
    gen_system = prompts.load("funcgen_system.txt")
    gen_template = prompts.load("funcgen_user.txt")
    refine_template = prompts.load("refine_user.txt")
    reference_text = serialize_product(reference)

    best_program: Optional[ExtractionProgram] = None
    best_similarity = -1.0

    def call_for_program(user_prompt: str, role: str) -> Optional[ExtractionProgram]:
        try:
            _, program = structured_call(
                provider, config.primary_model, gen_system, user_prompt, schema,
                _program_parser(ExtractionProgram),
                ledger=ledger, role_tag=role, page_id=page.page_id,
            )
        except SchemaViolation:
            return None
        return program

    for alternative in range(1 + config.max_alternatives):
        attempt_token = f"{token_prefix}-{page.page_id}-alt{alternative}"
        user = gen_template.format(
            schema=schema.text,
            attempt_token=attempt_token,
            reference=reference_text,
            content=page.html.content,
        )
        program = call_for_program(user, "func_gen")
        if program is None:
            continue
        program = replace(program, generation=0)
        outcome = run_extraction_on_tree(program, page.tree)
        report = compare(outcome.product, reference)
        if report.overall > best_similarity:
            best_program, best_similarity = program, report.overall

        for round_no in range(1, config.max_refinements + 1):
            if report.overall == 1.0:
                break
            refine_user = refine_template.format(
                schema=schema.text,
                attempt_token=attempt_token,
                round=round_no,
                program=program.to_json(),
                feedback=render_feedback(report),
                reference=reference_text,
                content=page.html.content,
            )
            refined = call_for_program(refine_user, "refine")
            if refined is None:
                continue
            program = replace(refined, generation=round_no)
            outcome = run_extraction_on_tree(program, page.tree)
            report = compare(outcome.product, reference)
            if report.overall > best_similarity:
                best_program, best_similarity = program, report.overall
        if report.overall == 1.0:
            return SynthesisResult(best_program=program, accepted=True, best_similarity=1.0)
    return SynthesisResult(
        best_program=best_program, accepted=False, best_similarity=best_similarity
    )


# --- Whole-shop processing -------------------------------------------------------

# The memo's value for a program that extracts nothing from a page: products
# are frozen, so every such entry shares this one.
_NOTHING: tuple[FoodProduct, int] = (FoodProduct(), 0)


class PageCache:
    """The work the runs over one corpus share.

    Per page it keeps only what is small: the name signature of its pruned
    tree, the HTML and TEXT documents that some visit read, and
    the reason a page could not be parsed (so it is read once, not once per
    run). It never keeps a tree or an unread document. It also holds
    one extraction memo: ``results[program.rules][page_id]`` is the
    ``(product, count)`` that program extracts from that page. The memo is
    keyed by rule content (field path, selector, node index, capture and
    post-ops), never by ``program_id``, so a program synthesized again in a
    later run, under a new id, finds its results from the earlier one.
    """

    def __init__(self, corpus: Corpus):
        self.pages = {doc.page_id: doc for doc in corpus.pages}
        self.signatures: dict[str, int] = {}
        self.html: dict[str, CompressedDocument] = {}
        self.text: dict[str, CompressedDocument] = {}
        self.unparsable: dict[str, str] = {}
        self.results: dict[tuple[FieldRule, ...], dict[str, tuple[FoodProduct, int]]] = {}

    def serves(self, corpus: Corpus) -> bool:
        """Whether ``corpus`` has exactly the pages this cache was built from."""
        return self.pages == {doc.page_id: doc for doc in corpus.pages}

    def page(self, page_id: str) -> Page:
        """A new visit to a page; one that a read found unparsable raises
        UnparsableDocument on every call."""
        if page_id in self.unparsable:
            raise UnparsableDocument(self.unparsable[page_id])
        return Page(self, page_id)

    def read(self, page_id: str, read, *args):
        """``read(*args, raw page)``: ``compress_both`` or a matching scan.
        A page it finds unparsable is recorded, so it is read only once."""
        try:
            return read(*args, self.pages[page_id])
        except UnparsableDocument as exc:
            self.unparsable[page_id] = str(exc)
            raise


def process_shop(
    corpus: Corpus,
    provider: Provider,
    config: OrchestratorConfig,
    cache: Optional[PageCache] = None,
) -> ShopRunResult:
    """Run the full indirect algorithm over one shop's corpus.

    Library programs run on a page in one matching scan of the raw page
    (``run_extractions``), which builds no tree and also gives the page's
    name signature. A page is compressed only to be rendered: for its
    bootstrap sample, for the decision ensemble, or for a synthesis
    episode; a labelled page's first visit is its sample's, which the
    loop's visit to it continues, so a run compresses a page at most once.
    Runs that share a ``cache`` share what it keeps of each page and
    memoised library results, keyed by rule content: a library program
    runs on a page only on a memo miss that the page's signature does not
    settle, and a visit scans the page once for all such programs. A
    cache built from a corpus with other pages is refused with ValueError.
    A page that cannot be parsed gets an empty product and is listed in the
    result's ``failures``, in every run.

    Each run prices its calls into a fresh ledger, and every call count in
    the run's metrics is read off it. The run never reads ``corpus.truth``:
    ``metrics.accuracy`` stays None for the caller to score.
    """
    if cache is None:
        cache = PageCache(corpus)
    elif not cache.serves(corpus):
        raise ValueError(f"page cache was built from other pages than shop {corpus.shop_id}'s")
    ledger = CostLedger()
    ledger.meta["prompt_bundle_hash"] = prompts.bundle_hash()
    ledger.meta["shop_id"] = corpus.shop_id

    failures: dict[str, str] = {}
    token_prefix = f"{corpus.shop_id}-s{config.rng_seed}"

    samples = []
    sample_visits: dict[str, Page] = {}  # the loop's visit to a labelled page reuses these
    for page_id, label in sorted(corpus.labels.items()):
        if page_id not in cache.pages:
            continue
        try:
            page = cache.page(page_id)
            samples.append((page.text, label))
        except UnparsableDocument as exc:
            failures[page_id] = str(exc)
            continue
        sample_visits[page_id] = page
    ensemble = build_decision_ensemble(samples, provider, config, ledger, token_prefix)

    order = [doc.page_id for doc in corpus.pages]
    random.Random(config.rng_seed).shuffle(order)

    library = FunctionLibrary()
    memos: list[dict[str, tuple[FoodProduct, int]]] = []  # the cache's, per library entry
    needs: list[tuple[int, ...]] = []  # per library entry, the signature bits of each rule
    scans: dict[tuple[int, ...], ProgramScan] = {}  # by the library entries they run
    page_results: dict[str, PageResult] = {}
    synthesis_log: list[dict] = []

    def best_library_result(page: Page) -> tuple[Optional[LibraryEntry], FoodProduct, int]:
        """The library's best result on a page; the entry is None unless it
        extracts at least ``min_valid_attributes`` attributes. A program
        whose every rule needs a name the page's signature lacks selects
        nothing there, so it is not run; the others that miss the memo run
        in one scan, which a page not scanned before needs anyway for its
        signature. Raises UnparsableDocument for a page the scan finds so."""
        page_id = page.page_id
        signature = cache.signatures.get(page_id)
        missing = [index for index, memo in enumerate(memos) if page_id not in memo]
        if missing and signature is not None:
            absent = ~signature
            for index in missing:
                if all(bits & absent for bits in needs[index]):
                    memos[index][page_id] = _NOTHING
            missing = [index for index in missing if page_id not in memos[index]]
        if missing or signature is None:
            key = tuple(missing)
            scan = scans.get(key)
            if scan is None:
                scan = scans[key] = program_scan(tuple(library.entries[i].program.rules for i in key))
            products, cache.signatures[page_id] = cache.read(page_id, run_extractions, scan)
            for index, product in zip(missing, products):
                count = count_extracted(product)
                memos[index][page_id] = (product, count) if count else _NOTHING
        best_entry: Optional[LibraryEntry] = None
        best_product = _NOTHING[0]
        best_key = (-1, -1.0, 0.0)
        for index, entry in enumerate(library.entries):
            result = memos[index][page_id]
            key = (result[1], entry.mean_attributes_extracted, -float(index))
            if key > best_key:
                best_key = key
                best_entry = entry
                best_product = result[0]
        count = max(best_key[0], 0)
        if count < config.min_valid_attributes:
            best_entry = None
        return best_entry, best_product, count

    def synthesis_episode(page: Page) -> Optional[ExtractionProgram]:
        """Reference acquisition, then generate-and-refine; logs the episode
        with its call counts (the ledger entries it added, by role) and
        returns the best program, if any."""
        page_id = page.page_id
        start = len(ledger.entries)
        synthesis = None
        try:
            reference = acquire_reference(page, provider, config, ledger)
            synthesis = synthesize_program(page, reference, provider, config, ledger, token_prefix)
        except ReferenceUnattainable:
            log = {"page_id": page_id, "outcome": "reference_unattainable"}
        except PROVIDER_FAILURES as exc:
            log = {"page_id": page_id, "outcome": "provider_error", "error": str(exc)}
        else:
            log = {"page_id": page_id,
                   "outcome": "accepted" if synthesis.accepted else "best_imperfect"}
        roles = Counter(e.role_tag for e in ledger.entries[start:])
        if log["outcome"] == "reference_unattainable":
            log["calls"] = roles["reference"]
        else:
            log.update(reference_calls=roles["reference"], generations=roles["func_gen"],
                       refinements=roles["refine"])
        synthesis_log.append(log)
        if synthesis is None:
            return None
        log["best_similarity"] = synthesis.best_similarity
        log["program_id"] = synthesis.best_program.program_id if synthesis.best_program else None
        return synthesis.best_program

    for page_id in order:
        try:
            page = sample_visits.pop(page_id, None) or cache.page(page_id)
            entry, product, count = best_library_result(page)
        except UnparsableDocument as exc:
            failures[page_id] = str(exc)
            page_results[page_id] = PageResult(page_id, FoodProduct(), "none", 0)
            continue
        if entry is None:
            if not decide(ensemble, page.text):
                page_results[page_id] = PageResult(page_id, FoodProduct(), "no-info", 0)
                continue
            program = synthesis_episode(page)
            if program is not None:
                library.add(replace(
                    program, program_id=f"{program.program_id}-{len(library.entries):02d}",
                ))
                memos.append(cache.results.setdefault(program.rules, {}))
                needs.append(tuple(selector_needs(r.compiled_selector) for r in program.rules))
                # Only the new program misses: the others ran on this page above.
                entry, product, count = best_library_result(page)
        if entry is None:
            page_results[page_id] = PageResult(page_id, product, "none", count)
        else:
            entry.pages_matched += 1
            entry.attrs_total += count
            page_results[page_id] = PageResult(page_id, product, entry.program.program_id, count)

    (primary_calls, primary_cost), (decision_calls, decision_cost) = ledger.by_model()
    by_role_count = ledger.count_by_role()
    metrics = ShopRunMetrics(
        shop_id=corpus.shop_id,
        pages_total=len(corpus.pages),
        llm_calls_primary_model=primary_calls,
        llm_calls_decision_model=decision_calls,
        functions_generated=by_role_count.get("func_gen", 0),
        refinements_performed=by_role_count.get("refine", 0),
        reference_extractions=by_role_count.get("reference", 0),
        seed=config.rng_seed,
        cost_primary_usd=str(primary_cost),
        cost_decision_usd=str(decision_cost),
        cost_total_usd=str(ledger.total_usd),
        synthesis_log=synthesis_log,
    )
    metrics.check_invariants()
    return ShopRunResult(
        page_results=page_results,
        library=library,
        metrics=metrics,
        ledger=ledger,
        failures=failures,
    )
