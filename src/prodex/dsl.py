"""Declarative extraction and decision programs plus their interpreter.

Generated extraction logic is represented as data, not code: an extraction
program is a list of per-field rules (CSS selector, optional node index,
optional single-group capture regex, ordered post-processing ops), and a
decision program is a boolean predicate tree over text atoms. Programs are
emitted by a model as schema-constrained JSON, so the same refinement loop
that fixes products can edit programs.

Programs are valid by construction: a ``FieldRule`` or ``Predicate`` checks
itself when built and raises ``ProgramParseError`` if it is not, so
``parse_program`` checks only the JSON shape and the interpreter runs what
exists without further checks. The interpreter is pure and sandboxed by
construction: it can only read the page it is given, a selector matches
only among the page's first ``htmltree.MATCH_LIMIT`` elements, and each
field rule is evaluated independently of the others.

A program runs on a page in one of two ways with one outcome.
``run_extractions`` runs several programs on a raw page in one matching
scan that builds no tree (``htmltree.match_pruned``): the library's way.
``run_extraction_on_tree`` runs one program on a parsed tree with
``htmltree.select``: synthesis's way, on the page its prompt carried. Both
hand the text each rule selected to ``_outcome``, which applies the
capture and post-ops and assembles the product.

Post-ops:
    trim                      strip surrounding whitespace
    strip_label_prefix        drop a leading label such as "Zutaten:"
    parse_decimal_comma       normalize "3,5" / "3.5" to a decimal string; fail
                              on anything ``schema.parse_decimal`` rejects
    to_unit_code              map raw unit text ("kJ", "g") to a unit code

Field paths address schema leaves: a text field by name
(``ingredient_statement``) or a nutrient component (``fat.value``,
``fat.unit_code``).
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field, replace
from decimal import InvalidOperation
from json.encoder import encode_basestring as json_string
from typing import NoReturn, Optional, Union

from . import htmltree
from .compress import CompressedDocument, Variant, WrongVariant, match_page
from .reader import RawDocument
from .schema import (
    FIELDS,
    KNOWN_LABEL_PREFIXES,
    FieldKind,
    FoodProduct,
    SchemaViolation,
    interned_decimal,
    json_block,
    quantity,
    strip_known_prefix,
)

MAX_PREDICATE_DEPTH = 8
#: The characters of a selected text that a rule's capture reads: its search
#: sees the first CAPTURE_TEXT_LIMIT only, as if the text ended there. The
#: compile refuses exponential shapes; this bounds the polynomial ones, such
#: as ``(\d+)\s*g`` on a run of digits: about 0.13 s at the cap on a
#: 2-vCPU x86-64 host, against 3.1 s on 20,000 digits. The presets' captures
#: read texts of at most 7 characters.
CAPTURE_TEXT_LIMIT = 4096

#: What re.compile raises for a pattern it cannot build: re.error, or for
#: some patterns ValueError (incompatible flags), OverflowError (a repeat
#: count too large) or RecursionError (deep nesting).
_REGEX_ERRORS = (re.error, ValueError, OverflowError, RecursionError)

# The stdlib's regex parser, whose parse tree shows a pattern's shape.
try:
    from re import _parser as _sre  # CPython 3.11+
except ImportError:  # pragma: no cover - CPython 3.10
    import sre_parse as _sre

_REPEATS = frozenset((_sre.MAX_REPEAT, _sre.MIN_REPEAT, getattr(_sre, "POSSESSIVE_REPEAT", None)))
_BACKREFERENCES = frozenset((_sre.GROUPREF, _sre.GROUPREF_EXISTS))
_ATOMIC_GROUP = getattr(_sre, "ATOMIC_GROUP", None)  # CPython 3.11+

POST_OP_NAMES = ("trim", "strip_label_prefix", "parse_decimal_comma", "to_unit_code")


@dataclass(frozen=True)
class ProgramIssue:
    path: str  # where in the program: e.g. "rules[2].selector"
    kind: str  # InvalidSelector | InvalidRegex | UnknownField | UnknownPostOp | Malformed
    message: str


class ProgramParseError(SchemaViolation):
    """Program rejected; issues are renderable as regeneration feedback."""

    def __init__(self, issues: list[ProgramIssue]):
        self.issues = issues
        super().__init__([(i.path, i.message) for i in issues])

    def render_feedback(self) -> str:
        return "\n".join(f"- {i.path}: {i.kind}: {i.message}" for i in self.issues)


def _reject(path: str, kind: str, message: str) -> NoReturn:
    raise ProgramParseError([ProgramIssue(path, kind, message)])


def _rerooted(issues: list[ProgramIssue], root: str) -> list[ProgramIssue]:
    """A rule's or predicate's own issues placed under its path in the
    program; the path ``$`` is the node itself."""
    return [replace(i, path=root if i.path == "$" else f"{root}.{i.path}") for i in issues]


@dataclass(frozen=True)
class PostOp:
    op: str
    prefixes: tuple[str, ...] = ()
    unit_map: tuple[tuple[str, str], ...] = ()
    # Derived from unit_map on construction: lowered raw unit to code, where
    # the first raw unit of a lowered form wins with the last code given for
    # it, so that to_unit_code is one lookup.
    lowered_units: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lowered: dict[str, str] = {}
        for raw, code in dict(self.unit_map).items():
            lowered.setdefault(raw.lower(), code)
        object.__setattr__(self, "lowered_units", lowered)


@dataclass(frozen=True)
class FieldRule:
    """One field's rule. Construction checks the field path, selector, node
    index, capture and post-op applicability, and raises ProgramParseError at
    a path relative to the rule (``selector``, ``post_ops[1]``) on the first
    fault, so a rule that exists is valid."""

    field_path: str
    selector: str
    node_index: int = 0
    capture: Optional[str] = None
    post_ops: tuple[PostOp, ...] = ()
    # Derived from selector and capture on construction, so that running the
    # rule compiles nothing.
    compiled_selector: htmltree.CompiledSelector = field(init=False, repr=False, compare=False)
    compiled_capture: Optional[re.Pattern] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.field_path, str) or self.field_path not in _LEAF_PATHS:
            _reject("field_path", "UnknownField", f"unknown field path {self.field_path!r}")
        try:
            selector = _compile_selector(self.selector)
        except ValueError as exc:
            _reject("selector", "InvalidSelector", str(exc))
        if not _is_count(self.node_index):
            _reject("node_index", "Malformed", "node_index must be a non-negative integer")
        capture = None
        if self.capture is not None:
            capture = _compile_regex(self.capture, "capture")
            if capture.groups != 1:
                _reject("capture", "InvalidRegex", "capture needs exactly one group")
        allowed = _OPS_ALLOWED_BY_LEAF[_LEAF_PATHS[self.field_path]]
        for j, post in enumerate(self.post_ops):
            if post.op not in allowed:
                _reject(f"post_ops[{j}]", "UnknownPostOp",
                        f"post op {post.op!r} not applicable to this field")
        object.__setattr__(self, "compiled_selector", selector)
        object.__setattr__(self, "compiled_capture", capture)


@functools.lru_cache(maxsize=1024)
def _compile_selector(selector: str) -> htmltree.CompiledSelector:
    """htmltree.parse_selector once per distinct selector text.

    Compiled selectors are immutable, so rules share them. A ValueError is
    not cached and is raised again on every call.
    """
    return htmltree.parse_selector(selector)


def _compile_regex(pattern: str, path: str) -> re.Pattern:
    """The one compile of a regex a program carries (a rule's capture, a
    matches_regex atom); a pattern re cannot build, or whose shape can make
    a backtracking search take exponential time (``_backtracking_hazard``),
    is an InvalidRegex at ``path``."""
    try:
        compiled = re.compile(pattern)
    except _REGEX_ERRORS as exc:
        _reject(path, "InvalidRegex", str(exc))
    hazard = _backtracking_hazard(pattern)
    if hazard:
        _reject(path, "InvalidRegex", f"{hazard} can backtrack catastrophically")
    return compiled


@functools.lru_cache(maxsize=1024)
def _backtracking_hazard(pattern: str) -> Optional[str]:
    """What in a compilable pattern can make a search backtrack for time
    exponential in the text (Davis et al., ESEC/FSE 2018): a backreference,
    or an unbounded repeat whose body can match strings of more than one
    length (``(?:a+)+``, ``(?:a|aa)+``, ``(?:a{1,5})+``) or holds a branch
    that the parser could not fold into a character set (``(?:a|a)+``,
    ``(?:ab|a.)+``), since either lets the repeat split one text in many
    ways. None for a pattern with neither: ``(.*)``, ``(\\S+)`` and
    ``(?:a|b)+`` pass."""
    stack = [(_sre.parse(pattern), False)]  # (items, whether inside an unbounded repeat)
    while stack:
        items, repeated = stack.pop()
        for op, av in items:
            if op in _BACKREFERENCES:
                return "a backreference"
            if op in _REPEATS:
                unbounded = av[1] == _sre.MAXREPEAT
                if unbounded:
                    low, high = av[2].getwidth()
                    if low != high:
                        return "an unbounded repeat of a variable-length body"
                stack.append((av[2], repeated or unbounded))
            elif op is _sre.SUBPATTERN:
                stack.append((av[-1], repeated))
            elif op is _sre.BRANCH:
                if repeated:
                    return "a branch inside an unbounded repeat"
                stack.extend((branch, repeated) for branch in av[1])
            elif op in (_sre.ASSERT, _sre.ASSERT_NOT):
                stack.append((av[1], repeated))
            elif op is _ATOMIC_GROUP:
                stack.append((av, repeated))
    return None


@dataclass(frozen=True)
class ExtractionProgram:
    program_id: str
    target_schema_name: str
    rules: tuple[FieldRule, ...]
    created_by: str = ""
    generation: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": "extraction",
            "program_id": self.program_id,
            "target_schema_name": self.target_schema_name,
            "created_by": self.created_by,
            "generation": self.generation,
            "rules": [_rule_to_dict(rule) for rule in self.rules],
        }

    def to_json(self, level: int = 1, sort_keys: bool = True) -> str:
        """The program's JSON text: exactly ``json.dumps(self.to_dict(),
        indent=2, ensure_ascii=False, sort_keys=sort_keys)``, written in that
        fixed layout with the C escaper ``json_string`` that call uses. Its
        items sit at nesting ``level``: 1 for a document of its own, more
        for a program inside a larger document."""
        rules = [_rule_json(rule, level + 2, sort_keys) for rule in self.rules]
        return _json_object([
            '"kind": "extraction"',
            f'"program_id": {json_string(self.program_id)}',
            f'"target_schema_name": {json_string(self.target_schema_name)}',
            f'"created_by": {json_string(self.created_by)}',
            f'"generation": {self.generation}',
            f'"rules": {json_block("[]", rules, level + 1)}',
        ], level, sort_keys)


@dataclass(frozen=True)
class Predicate:
    op: str  # and | or | not | contains_keyword | matches_regex
    args: tuple["Predicate", ...] = ()
    value: Optional[str] = None
    # The matches_regex pattern, compiled on construction (a pattern that
    # does not compile is an InvalidRegex at ``$``, the predicate itself);
    # None for other ops.
    compiled: Optional[re.Pattern] = field(init=False, repr=False, compare=False)
    # The contains_keyword keyword, lowercased on construction; None for other ops.
    keyword: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        compiled = _compile_regex(self.value, "$") if self.op == "matches_regex" else None
        object.__setattr__(self, "compiled", compiled)
        keyword = self.value.lower() if self.op == "contains_keyword" else None
        object.__setattr__(self, "keyword", keyword)


@dataclass(frozen=True)
class DecisionProgram:
    program_id: str
    predicate: Predicate
    created_by: str = ""


def _json_object(members: list[str], level: int, sort_keys: bool) -> str:
    """A JSON object of ``"key": value`` members in declaration order, at
    nesting ``level`` as ``json_block`` lays it out. Its keys are names
    that need no escaping, so sorting the members sorts them by key."""
    return json_block("{}", sorted(members) if sort_keys else members, level)


def _rule_json(rule: FieldRule, level: int, sort_keys: bool) -> str:
    """``_rule_to_dict(rule)`` as a rules item at nesting ``level``."""
    ops = [_post_op_json(post, level + 2, sort_keys) for post in rule.post_ops]
    capture = "null" if rule.capture is None else json_string(rule.capture)
    return _json_object([
        f'"field_path": {json_string(rule.field_path)}',
        f'"selector": {json_string(rule.selector)}',
        f'"node_index": {rule.node_index}',
        f'"capture": {capture}',
        f'"post_ops": {json_block("[]", ops, level + 1)}',
    ], level, sort_keys)


def _post_op_json(post: PostOp, level: int, sort_keys: bool) -> str:
    """A post op as ``_rule_to_dict`` gives it, at nesting ``level``: the
    map is ``dict(post.unit_map)`` (a later duplicate key wins)."""
    op = f'"op": {json_string(post.op)}'
    if post.op == "strip_label_prefix":
        prefixes = [json_string(prefix) for prefix in post.prefixes]
        return _json_object([op, f'"prefixes": {json_block("[]", prefixes, level + 1)}'],
                            level, sort_keys)
    if post.op == "to_unit_code":
        units = dict(post.unit_map).items()
        entries = [f"{json_string(raw)}: {json_string(code)}"
                   for raw, code in (sorted(units) if sort_keys else units)]
        return _json_object([op, f'"map": {json_block("{}", entries, level + 1)}'],
                            level, sort_keys)
    return json_block("{}", [op], level)


def _rule_to_dict(rule: FieldRule) -> dict:
    ops = []
    for post in rule.post_ops:
        if post.op == "strip_label_prefix":
            ops.append({"op": post.op, "prefixes": list(post.prefixes)})
        elif post.op == "to_unit_code":
            ops.append({"op": post.op, "map": dict(post.unit_map)})
        else:
            ops.append({"op": post.op})
    return {
        "field_path": rule.field_path,
        "selector": rule.selector,
        "node_index": rule.node_index,
        "capture": rule.capture,
        "post_ops": ops,
    }


# --- Parsing ----------------------------------------------------------------

def parse_program(json_text: str) -> Union[ExtractionProgram, DecisionProgram]:
    """Validate program JSON into a program object or raise ProgramParseError."""
    try:
        data = json.loads(json_text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise ProgramParseError([ProgramIssue("$", "Malformed", f"invalid JSON: {exc}")])
    if not isinstance(data, dict):
        raise ProgramParseError([ProgramIssue("$", "Malformed", "expected a JSON object")])
    kind = data.get("kind")
    if kind == "extraction":
        return _parse_extraction(data)
    if kind == "decision":
        return _parse_decision(data)
    raise ProgramParseError(
        [ProgramIssue("kind", "Malformed", f"kind must be 'extraction' or 'decision', got {kind!r}")]
    )


def _leaf_paths() -> dict[str, str]:
    leaves: dict[str, str] = {}
    for spec in FIELDS:
        if spec.kind is FieldKind.TEXT:
            leaves[spec.name] = "text"
        else:
            leaves[f"{spec.name}.value"] = "value"
            leaves[f"{spec.name}.unit_code"] = "unit"
    return leaves


#: Valid field paths and their leaf type: 'text'|'value'|'unit'.
_LEAF_PATHS = _leaf_paths()


_OPS_ALLOWED_BY_LEAF = {
    "text": {"trim", "strip_label_prefix"},
    "value": {"trim", "parse_decimal_comma"},
    "unit": {"trim", "to_unit_code"},
}


def _parse_extraction(data: dict) -> ExtractionProgram:
    rules_data = data.get("rules")
    if not isinstance(rules_data, list):
        _reject("rules", "Malformed", "rules must be a list")
    issues: list[ProgramIssue] = []
    seen_paths: set[str] = set()
    rules: list[FieldRule] = []
    for i, entry in enumerate(rules_data):
        where = f"rules[{i}]"
        if not isinstance(entry, dict):
            issues.append(ProgramIssue(where, "Malformed", "rule must be an object"))
            continue
        try:
            rules.append(_parse_rule(entry, seen_paths))
        except ProgramParseError as exc:
            issues.extend(_rerooted(exc.issues, where))
    generation = data.get("generation", 0)
    if not _is_count(generation):
        issues.append(ProgramIssue("generation", "Malformed", "generation must be a non-negative integer"))
    if issues:
        raise ProgramParseError(issues)
    return ExtractionProgram(
        program_id=str(data.get("program_id", "")) or "prog-unnamed",
        target_schema_name=str(data.get("target_schema_name", "FoodProduct")),
        rules=tuple(rules),
        created_by=str(data.get("created_by", "")),
        generation=generation,
    )


def _is_count(value) -> bool:
    """A non-negative int; a JSON boolean is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_rule(entry: dict, seen_paths: set[str]) -> FieldRule:
    """Check a rule's JSON shape and build it; FieldRule checks its values.
    Issue paths are relative to the rule."""
    path = entry.get("field_path")
    if isinstance(path, str):
        if path in seen_paths:
            _reject("field_path", "Malformed", f"duplicate rule for {path}")
        seen_paths.add(path)
    selector = entry.get("selector")
    if not isinstance(selector, str):
        _reject("selector", "InvalidSelector", "selector must be a string")
    capture = entry.get("capture")
    if capture is not None and not isinstance(capture, str):
        _reject("capture", "InvalidRegex", "capture must be a string")
    node_index = entry.get("node_index")
    return FieldRule(
        field_path=path,
        selector=selector,
        node_index=0 if node_index is None else node_index,
        capture=capture,
        post_ops=_parse_post_ops(entry.get("post_ops", [])),
    )


def _parse_post_ops(raw) -> tuple[PostOp, ...]:
    if not isinstance(raw, list):
        _reject("post_ops", "Malformed", "post_ops must be a list")
    issues: list[ProgramIssue] = []
    ops: list[PostOp] = []
    for j, op_entry in enumerate(raw):
        spot = f"post_ops[{j}]"
        if isinstance(op_entry, str):
            op_entry = {"op": op_entry}
        if not isinstance(op_entry, dict) or "op" not in op_entry:
            issues.append(ProgramIssue(spot, "UnknownPostOp", "post op must name an op"))
            continue
        name = op_entry["op"]
        if name not in POST_OP_NAMES:
            issues.append(ProgramIssue(spot, "UnknownPostOp", f"unknown post op {name!r}"))
            continue
        if name == "strip_label_prefix":
            prefixes = op_entry.get("prefixes") or list(KNOWN_LABEL_PREFIXES)
            if not isinstance(prefixes, list) or not all(isinstance(p, str) for p in prefixes):
                issues.append(ProgramIssue(spot, "UnknownPostOp", "prefixes must be strings"))
                continue
            ops.append(PostOp(op=name, prefixes=tuple(prefixes)))
        elif name == "to_unit_code":
            mapping = op_entry.get("map")
            if not isinstance(mapping, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
            ):
                issues.append(ProgramIssue(spot, "UnknownPostOp", "map must be string-to-string"))
                continue
            ops.append(PostOp(op=name, unit_map=tuple(sorted(mapping.items()))))
        else:
            ops.append(PostOp(op=name))
    if issues:
        raise ProgramParseError(issues)
    return tuple(ops)


def _parse_decision(data: dict) -> DecisionProgram:
    issues: list[ProgramIssue] = []
    predicate = _parse_predicate(data.get("predicate"), "predicate", 1, issues)
    if issues or predicate is None:
        raise ProgramParseError(
            issues or [ProgramIssue("predicate", "Malformed", "missing predicate")]
        )
    return DecisionProgram(
        program_id=str(data.get("program_id", "")) or "dec-unnamed",
        predicate=predicate,
        created_by=str(data.get("created_by", "")),
    )


def _parse_predicate(raw, where: str, depth: int, issues: list[ProgramIssue]) -> Optional[Predicate]:
    if depth > MAX_PREDICATE_DEPTH:
        issues.append(ProgramIssue(where, "Malformed", f"predicate deeper than {MAX_PREDICATE_DEPTH}"))
        return None
    if not isinstance(raw, dict) or "op" not in raw:
        issues.append(ProgramIssue(where, "Malformed", "predicate node must be an object with an op"))
        return None
    op = raw["op"]
    if op == "contains_keyword":
        value = raw.get("value")
        if not isinstance(value, str) or not value:
            issues.append(ProgramIssue(where, "Malformed", "contains_keyword needs a non-empty value"))
            return None
        return Predicate(op=op, value=value)
    if op == "matches_regex":
        pattern = raw.get("pattern")
        if not isinstance(pattern, str):
            issues.append(ProgramIssue(where, "InvalidRegex", "matches_regex needs a pattern"))
            return None
        try:
            return Predicate(op=op, value=pattern)
        except ProgramParseError as exc:
            issues.extend(_rerooted(exc.issues, where))
            return None
    if op in ("and", "or", "not"):
        args_raw = raw.get("args")
        if not isinstance(args_raw, list) or not args_raw:
            issues.append(ProgramIssue(where, "Malformed", f"{op} needs args"))
            return None
        if op == "not" and len(args_raw) != 1:
            issues.append(ProgramIssue(where, "Malformed", "not takes exactly one arg"))
            return None
        args = []
        for k, arg_raw in enumerate(args_raw):
            arg = _parse_predicate(arg_raw, f"{where}.args[{k}]", depth + 1, issues)
            if arg is None:
                return None
            args.append(arg)
        return Predicate(op=op, args=tuple(args))
    issues.append(ProgramIssue(where, "Malformed", f"unknown predicate op {op!r}"))
    return None


# --- Interpretation ---------------------------------------------------------

@dataclass(frozen=True)
class ExtractionOutcome:
    product: FoodProduct
    field_status: dict[str, str]  # field_path -> extracted | no_match | post_op_failed


def run_extraction_on_tree(prog: ExtractionProgram, tree) -> ExtractionOutcome:
    """Evaluate every rule on a page's parsed tree (``htmltree.parse_html`` of
    its compressed HTML), all selectors in one walk of its element index;
    a failing rule never aborts the others."""
    scan = program_scan((prog.rules,))
    nodes = htmltree.select_targets(tree, scan.targets)
    return _outcome(prog.rules, [
        None if nodes[slot] is None else htmltree.text_content(nodes[slot])
        for slot in scan.slots[0]
    ])


class ProgramScan:
    """The rules of extraction programs compiled to be matched together: the
    distinct (selector, node index) pairs of the rules, as the targets of an
    ``htmltree.MatchSet``, and for each program the target each of its
    rules reads. ``rule_sets`` holds each program's rules."""

    def __init__(self, rule_sets: tuple[tuple[FieldRule, ...], ...]):
        self.rule_sets = rule_sets
        slots: dict[tuple[htmltree.CompiledSelector, int], int] = {}
        self.slots = tuple(
            tuple(slots.setdefault((rule.compiled_selector, rule.node_index), len(slots))
                  for rule in rules)
            for rules in rule_sets
        )
        self.targets = htmltree.MatchSet(tuple(slots))


#: The ProgramScan of some programs' rules, compiled once per process:
#: each run of the ten-run protocol meets the same library programs again,
#: and synthesis runs a program on its page again as it refines it.
program_scan = functools.lru_cache(maxsize=256)(ProgramScan)


def run_extractions(scan: ProgramScan, doc: RawDocument) -> tuple[list[FoodProduct], int]:
    """Run the programs of ``scan`` on a raw page in one matching scan that
    builds no tree; each product equals the one ``run_extraction_on_tree``
    gives on the page's pruned tree, ``parse_html`` of its compressed HTML.
    Also returns the pruned tree's name signature. Raises
    UnparsableDocument where ``compress_both`` does."""
    texts, signature = match_page(doc, scan.targets)
    found = {slot for slot, text in enumerate(texts) if text is not None}
    return [
        _NO_PRODUCT if found.isdisjoint(slots)  # most programs on most pages
        else _outcome(rules, [texts[slot] for slot in slots]).product
        for rules, slots in zip(scan.rule_sets, scan.slots)
    ], signature


#: What a program whose every rule selects nothing extracts.
_NO_PRODUCT = FoodProduct()


def _outcome(rules: tuple[FieldRule, ...], texts: list[Optional[str]]) -> ExtractionOutcome:
    """The capture, post-op and assembly half of running a program's rules,
    which the tree and the matching scan share: ``texts[i]`` is the text of
    the node rule i selected, or None where it selected none. A capture
    reads at most ``CAPTURE_TEXT_LIMIT`` characters of its text."""
    field_status: dict[str, str] = {}
    leaf_values: dict[str, str] = {}
    for rule, text in zip(rules, texts):
        if text is not None and rule.compiled_capture is not None:
            match = rule.compiled_capture.search(text, 0, CAPTURE_TEXT_LIMIT)
            text = match.group(1) if match else None
        status = "no_match"
        if text is not None:
            for post in rule.post_ops:
                text = _apply_post_op(post, text)
                if text is None:
                    status = "post_op_failed"
                    break
            if text:
                status = "extracted"
                leaf_values[rule.field_path] = text
        field_status[rule.field_path] = status
    return ExtractionOutcome(product=_assemble_product(leaf_values), field_status=field_status)


def _apply_post_op(post: PostOp, text: str) -> Optional[str]:
    if post.op == "trim":
        return text.strip()
    if post.op == "strip_label_prefix":
        return strip_known_prefix(text, post.prefixes)
    if post.op == "parse_decimal_comma":
        text = text.strip().replace(",", ".")
        try:
            interned_decimal(text)  # _assemble_product's quantity finds it checked
        except InvalidOperation:
            return None
        return text
    if post.op == "to_unit_code":
        return post.lowered_units.get(text.strip().lower())
    raise AssertionError(f"unreachable post op {post.op}")


def _assemble_product(leaf_values: dict[str, str]) -> FoodProduct:
    values: dict[str, object] = {}
    for spec in FIELDS:
        if spec.kind is FieldKind.TEXT:
            if spec.name in leaf_values:
                values[spec.name] = leaf_values[spec.name]
            continue
        raw_value = leaf_values.get(f"{spec.name}.value")
        if raw_value is None:
            continue
        try:
            values[spec.name] = quantity(raw_value, leaf_values.get(f"{spec.name}.unit_code"))
        except InvalidOperation:
            continue
    return FoodProduct(**values)  # type: ignore[arg-type]


def run_decision(prog: DecisionProgram, doc: CompressedDocument) -> bool:
    """Evaluate the predicate over a TEXT document."""
    return decision_votes((prog,), doc) == 1


def decision_votes(programs, doc: CompressedDocument) -> int:
    """How many of ``programs`` decide yes on a TEXT document; its text is
    lowercased once for all their keywords."""
    if doc.variant is not Variant.TEXT:
        raise WrongVariant(f"decision runs on TEXT, got {doc.variant.value}")
    text = doc.content
    lowered = text.lower()
    return sum(1 for prog in programs if _eval_predicate(prog.predicate, text, lowered))


def _eval_predicate(p: Predicate, text: str, lowered: str) -> bool:
    if p.op == "contains_keyword":
        return p.keyword in lowered
    if p.op == "matches_regex":
        return p.compiled.search(text) is not None
    if p.op == "and":
        return all(_eval_predicate(a, text, lowered) for a in p.args)
    if p.op == "or":
        return any(_eval_predicate(a, text, lowered) for a in p.args)
    if p.op == "not":
        return not _eval_predicate(p.args[0], text, lowered)
    raise AssertionError(f"unreachable predicate op {p.op}")


def count_extracted(product: FoodProduct) -> int:
    """Populated top-level fields; a nutrient counts iff its value is set."""
    return len(product.populated_fields())


# --- JSON Schemas for schema-constrained program generation ----------------

def extraction_program_json_schema() -> dict:
    paths = sorted(_LEAF_PATHS)
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "ExtractionProgram",
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "program_id", "rules"],
        "properties": {
            "kind": {"const": "extraction"},
            "program_id": {"type": "string", "minLength": 1},
            "target_schema_name": {"type": "string"},
            "created_by": {"type": "string"},
            "generation": {"type": "integer", "minimum": 0},
            "rules": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["field_path", "selector"],
                    "properties": {
                        "field_path": {"enum": paths},
                        "selector": {"type": "string", "minLength": 1},
                        "node_index": {"type": "integer", "minimum": 0},
                        "capture": {"type": ["string", "null"]},
                        "post_ops": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["op"],
                                "properties": {
                                    "op": {"enum": list(POST_OP_NAMES)},
                                    "prefixes": {
                                        "type": "array",
                                        "items": {"type": "string"},
                                    },
                                    "map": {
                                        "type": "object",
                                        "additionalProperties": {"type": "string"},
                                    },
                                },
                                "additionalProperties": False,
                            },
                        },
                    },
                },
            },
        },
    }


def decision_program_json_schema() -> dict:
    predicate_schema = {
        "type": "object",
        "oneOf": [
            {
                "properties": {
                    "op": {"const": "contains_keyword"},
                    "value": {"type": "string", "minLength": 1},
                },
                "required": ["op", "value"],
                "additionalProperties": False,
            },
            {
                "properties": {
                    "op": {"const": "matches_regex"},
                    "pattern": {"type": "string", "minLength": 1},
                },
                "required": ["op", "pattern"],
                "additionalProperties": False,
            },
            {
                "properties": {
                    "op": {"enum": ["and", "or", "not"]},
                    "args": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"$ref": "#/$defs/predicate"},
                    },
                },
                "required": ["op", "args"],
                "additionalProperties": False,
            },
        ],
    }
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "DecisionProgram",
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "program_id", "predicate"],
        "properties": {
            "kind": {"const": "decision"},
            "program_id": {"type": "string", "minLength": 1},
            "created_by": {"type": "string"},
            "predicate": {"$ref": "#/$defs/predicate"},
        },
        "$defs": {"predicate": predicate_schema},
    }
