"""Test-only provider that answers from synthetic-corpus ground truth.

The oracle lets every pipeline run offline and deterministically. It
discriminates request types by the requested schema's title (product
extraction, decision program, extraction program) and locates the page a
prompt refers to through the article number printed on the page itself.

Function-generation behavior is configurable to exercise the refinement
loop: each generation can start with k planted imperfections (broken rule
selectors), and each refinement call repairs exactly one by diffing the
prompt's current program against the template's true program. Syntheses can
also be scripted as unreparable, globally per template or via a seeded rate,
in which case refinements return the program unchanged.

All behavior is a pure function of (prompt bytes, oracle config), so
recorded oracle sessions replay bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, replace

from .reader import Corpus, load_true_program
from .dsl import ExtractionProgram, FieldRule, ProgramParseError, parse_program
from .gateway import ChatExchange, check_schema, estimate_usage
from .schema import product_to_dict

_PAGE_ID_RE = re.compile(r"Art\.-Nr\.\s+(\S+)")
_BODY_ID_RE = re.compile(r'id="page-([^"]+)"')
_ATTEMPT_TOKEN_RE = re.compile(r"Attempt token:\s*(\S+)")
_REFINE_MARKER = "Current extraction program:"


@dataclass(frozen=True)
class OracleConfig:
    imperfections_per_generation: int = 0
    unreparable_templates: frozenset[str] = frozenset()
    unreparable_rate: float = 0.0
    seed: int = 0


def _stable_hash(*parts: str) -> int:
    digest = hashlib.sha256("\0".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class OracleProvider:
    """Answers structured calls from a corpus's ground-truth store."""

    def __init__(self, corpus: Corpus, config: OracleConfig = OracleConfig()):
        self.corpus = corpus
        self.config = config

    def complete_structured(
        self, model_id: str, system_prompt: str, user_prompt: str, json_schema: dict
    ) -> ChatExchange:
        check_schema(json_schema)
        title = json_schema.get("title", "")
        if title == "DecisionProgram":
            response = self._decision_program(user_prompt)
        elif title == "ExtractionProgram":
            response = self._extraction_program(user_prompt)
        else:
            response = self._direct_product(user_prompt)
        return ChatExchange(
            response_text=response,
            usage=estimate_usage(system_prompt, user_prompt, response),
            timestamp=0.0,
        )

    # --- request handlers -------------------------------------------------

    def _find_page_id(self, prompt: str):
        match = _PAGE_ID_RE.search(prompt)
        if match and match.group(1) in self.corpus.truth:
            return match.group(1)
        match = _BODY_ID_RE.search(prompt)
        if match and match.group(1) in self.corpus.truth:
            return match.group(1)
        return None

    def _direct_product(self, prompt: str) -> str:
        page_id = self._find_page_id(prompt)
        if page_id is None:
            return "{}"
        record = self.corpus.truth[page_id]
        return json.dumps(product_to_dict(record.product), ensure_ascii=False)

    def _decision_program(self, prompt: str) -> str:
        keywords = list(self.corpus.decision_keywords) or ["Zutaten", "Nährwert"]
        first, second = keywords[0], keywords[-1]
        variants = [
            {
                "op": "or",
                "args": [
                    {"op": "contains_keyword", "value": first},
                    {"op": "contains_keyword", "value": second},
                ],
            },
            {
                "op": "or",
                "args": [
                    {"op": "contains_keyword", "value": first.lower()},
                    {"op": "contains_keyword", "value": second.lower()},
                ],
            },
            {
                "op": "or",
                "args": [
                    {"op": "matches_regex", "pattern": f"(?i){re.escape(first)}"},
                    {"op": "contains_keyword", "value": second},
                ],
            },
            {
                "op": "or",
                "args": [
                    {"op": "contains_keyword", "value": first},
                    {"op": "matches_regex", "pattern": f"(?i){re.escape(second)}"},
                ],
            },
            {
                "op": "not",
                "args": [
                    {
                        "op": "and",
                        "args": [
                            {"op": "not", "args": [{"op": "contains_keyword", "value": first}]},
                            {"op": "not", "args": [{"op": "contains_keyword", "value": second}]},
                        ],
                    }
                ],
            },
        ]
        pick = _stable_hash("decision", prompt, str(self.config.seed)) % len(variants)
        program = {
            "kind": "decision",
            "program_id": f"dec-{pick}-{_stable_hash(prompt) % 100000:05d}",
            "created_by": "oracle",
            "predicate": variants[pick],
        }
        return json.dumps(program, ensure_ascii=False)

    def _extraction_program(self, prompt: str) -> str:
        page_id = self._find_page_id(prompt)
        if page_id is None:
            return json.dumps(
                {"kind": "extraction", "program_id": "prog-empty", "rules": []}
            )
        record = self.corpus.truth[page_id]
        true_program = load_true_program(self.corpus, record.template_id)
        token_match = _ATTEMPT_TOKEN_RE.search(prompt)
        attempt_token = token_match.group(1) if token_match else "none"
        unreparable = self._is_unreparable(record.template_id, page_id, attempt_token)

        if _REFINE_MARKER in prompt:
            program = self._refine(prompt, true_program, unreparable)
        else:
            k = 1 if unreparable else self.config.imperfections_per_generation
            program = self._corrupt(true_program, k, page_id, attempt_token)
        return program.to_json()

    def _is_unreparable(self, template_id: str, page_id: str, attempt_token: str) -> bool:
        if template_id in self.config.unreparable_templates:
            return True
        if self.config.unreparable_rate <= 0.0:
            return False
        draw = _stable_hash("unreparable", page_id, attempt_token, str(self.config.seed))
        return (draw % 10_000) / 10_000 < self.config.unreparable_rate

    def _corrupt(
        self, true_program: ExtractionProgram, k: int, page_id: str, attempt_token: str
    ) -> ExtractionProgram:
        if k <= 0:
            return true_program
        rng = random.Random(_stable_hash("corrupt", page_id, attempt_token, str(self.config.seed)))
        indices = rng.sample(range(len(true_program.rules)), min(k, len(true_program.rules)))
        rules = list(true_program.rules)
        for i in indices:
            rules[i] = replace(rules[i], selector=f"div.zz-unfindbar-{i}")
        return replace(true_program, rules=tuple(rules), created_by="oracle", generation=0)

    def _refine(
        self, prompt: str, true_program: ExtractionProgram, unreparable: bool
    ) -> ExtractionProgram:
        prior = _parse_program_from_prompt(prompt)
        if prior is None:
            return true_program
        if unreparable:
            return prior
        # Repair exactly one rule: the first (in true-program order) that differs.
        prior_rules = {rule.field_path: rule for rule in prior.rules}
        repaired: list[FieldRule] = []
        fixed_one = False
        for want in true_program.rules:
            have = prior_rules.get(want.field_path)
            if have == want:
                repaired.append(have)
            elif not fixed_one:
                repaired.append(want)
                fixed_one = True
            elif have is not None:
                repaired.append(have)
        return replace(prior, rules=tuple(repaired), created_by="oracle")


def _parse_program_from_prompt(prompt: str):
    """Pull the current-program JSON object out of a refinement prompt."""
    start = prompt.find(_REFINE_MARKER)
    if start < 0:
        return None
    brace = prompt.find("{", start)
    if brace < 0:
        return None
    try:
        _, end = json.JSONDecoder().raw_decode(prompt, brace)
        program = parse_program(prompt[brace:end])
    except (json.JSONDecodeError, ProgramParseError):
        return None
    return program if isinstance(program, ExtractionProgram) else None
