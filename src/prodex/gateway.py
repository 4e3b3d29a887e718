"""Provider abstraction for schema-constrained chat completions.

Three provider families share one interface: a live JSON-over-HTTP client
speaking the chat-completions wire shape, a recording wrapper that persists
every exchange, and a replay provider that serves recorded exchanges keyed by
a content hash of (model, system prompt, user prompt, schema). Replay makes
every pipeline bit-deterministic offline.

Each request's JSON Schema is encoded once per process
(``request_schema``), for the prompt that shows it and the call that sends
it. The schema goes to the provider, which constrains its output with it.
Locally a response is validated once, by the parser that builds the value
from it (``parse_product`` or a program parser): a response the parser
rejects, or whose JSON holds a lone surrogate, gets one corrective retry.

Cost accounting is exact: usage is priced from a per-model table using
``Decimal`` arithmetic, and a ledger's total is always the sum of its
entries with no floating-point drift.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from decimal import Decimal
from json.encoder import encode_basestring as json_string
from typing import Callable, Optional, Protocol, TypeVar

from . import files
from .schema import SchemaViolation, json_block


class TransportError(Exception):
    """Network or HTTP-level failure after retries."""


class ProviderRefusal(Exception):
    """The provider declined to answer."""


class ReplayMiss(Exception):
    """No recorded exchange for the requested prompt key."""


#: What a provider raises when it gives no answer; a caller turns each into
#: a failure record for the page or episode, never into a crash.
PROVIDER_FAILURES = (TransportError, ProviderRefusal, ReplayMiss)


class UnknownModel(Exception):
    """Model id not present in the price table."""


@dataclass(frozen=True)
class Usage:
    input_tokens: int = 0
    cached_input_tokens: int = 0
    output_tokens: int = 0

    def __post_init__(self):
        if min(self.input_tokens, self.cached_input_tokens, self.output_tokens) < 0:
            raise ValueError("token counts must be non-negative")
        if self.cached_input_tokens > self.input_tokens:
            raise ValueError("cached_input_tokens cannot exceed input_tokens")

    def to_dict(self) -> dict:
        return {
            "input_tokens": self.input_tokens,
            "cached_input_tokens": self.cached_input_tokens,
            "output_tokens": self.output_tokens,
        }

    @staticmethod
    def from_dict(data: dict) -> "Usage":
        """The usage of a ledger entry or session record; a count that is not
        a JSON integer raises TypeError, and a negative one ValueError."""
        counts = {name: data.get(name, 0)
                  for name in ("input_tokens", "cached_input_tokens", "output_tokens")}
        for name, count in counts.items():
            if type(count) is not int:
                raise TypeError(f"{name} {count!r} is not an integer")
        return Usage(**counts)


@dataclass(frozen=True)
class ChatExchange:
    """A provider's answer to one request: the response text, its usage and
    when it came. The caller holds the request, so the answer does not echo
    it. ``structured_call`` prices the usage into the caller's ledger, the
    one record that ``prodex evaluate`` counts calls and cost from."""

    response_text: str
    usage: Usage
    timestamp: float = 0.0
    # The request's exchange_key, where the provider computed one (replay and
    # recording do), so that structured_call does not compute it again.
    key: Optional[str] = None


class RequestSchema(dict):
    """A request's JSON Schema with its two encodings, made once: ``text``,
    the ``indent=2`` text that prompts carry and session records nest, and
    ``key_text``, the sorted text ``exchange_key`` hashes. No caller changes
    it."""

    __slots__ = ("text", "key_text")

    def __init__(self, schema: dict):
        super().__init__(schema)
        self.text = json.dumps(schema, indent=2, ensure_ascii=False)
        self.key_text = json.dumps(schema, sort_keys=True, ensure_ascii=False)


@functools.cache
def request_schema(build: Callable[[], dict]) -> RequestSchema:
    """The RequestSchema of a schema builder (``schema.to_json_schema_dict``
    or a dsl program schema function), built once per process, which the
    call sites read for the prompt and the call alike."""
    return RequestSchema(build())


def exchange_key(model_id: str, system_prompt: str, user_prompt: str, json_schema) -> str:
    """Content hash identifying an exchange for record/replay.

    It hashes exactly ``json.dumps({"model_id": ..., "system_prompt": ...,
    "user_prompt": ..., "schema": json_schema}, sort_keys=True,
    ensure_ascii=False)``, spliced from the schema's ``key_text`` (a plain
    dict is read as ``RequestSchema(dict)``) and the C escaper
    ``json_string`` that call uses.
    """
    if not isinstance(json_schema, RequestSchema):
        json_schema = RequestSchema(json_schema)
    payload = (
        f'{{"model_id": {json_string(model_id)}, "schema": {json_schema.key_text}, '
        f'"system_prompt": {json_string(system_prompt)}, '
        f'"user_prompt": {json_string(user_prompt)}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --- Pricing ----------------------------------------------------------------

@dataclass(frozen=True)
class ModelPrice:
    input_usd_per_1m: Decimal
    cached_input_usd_per_1m: Decimal
    output_usd_per_1m: Decimal

    def __post_init__(self):
        for rate in (
            self.input_usd_per_1m,
            self.cached_input_usd_per_1m,
            self.output_usd_per_1m,
        ):
            if rate < 0:
                raise ValueError("price rates must be non-negative")


#: USD per million tokens, by model id.
PRICES = {
    "o3-mini": ModelPrice(Decimal("1.10"), Decimal("0.55"), Decimal("4.40")),
    "gpt-4o": ModelPrice(Decimal("2.50"), Decimal("1.25"), Decimal("10.00")),
}


_MILLION = Decimal(1_000_000)


def cost(usage: Usage, model_id: str) -> Decimal:
    """Exact USD cost of a usage record under the model's pricing."""
    if model_id not in PRICES:
        raise UnknownModel(model_id)
    price = PRICES[model_id]
    uncached = usage.input_tokens - usage.cached_input_tokens
    return (
        Decimal(uncached) * price.input_usd_per_1m / _MILLION
        + Decimal(usage.cached_input_tokens) * price.cached_input_usd_per_1m / _MILLION
        + Decimal(usage.output_tokens) * price.output_usd_per_1m / _MILLION
    )


# --- Ledger -----------------------------------------------------------------

#: The role tags of the primary model's calls (a direct page's, and an
#: indirect run's reference, generation and refinement calls) and of the
#: decision model's; a ledger counts its calls and cost by model through
#: these alone (``CostLedger.by_model``).
PRIMARY_ROLES = ("direct", "reference", "func_gen", "refine")
DECISION_ROLE = "decision_gen"


@dataclass(frozen=True)
class LedgerEntry:
    exchange_ref: str
    model_id: str
    role_tag: str
    usage: Usage
    cost_usd: Decimal
    page_id: Optional[str] = None


class CostLedger:
    """Ordered record of priced LLM calls; appends are thread-safe."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self.meta: dict[str, str] = {}
        self._lock = threading.Lock()

    def add(
        self,
        exchange_ref: str,
        model_id: str,
        role_tag: str,
        usage: Usage,
        page_id: Optional[str] = None,
    ) -> LedgerEntry:
        entry = LedgerEntry(
            exchange_ref=exchange_ref,
            model_id=model_id,
            role_tag=role_tag,
            usage=usage,
            cost_usd=cost(usage, model_id),
            page_id=page_id,
        )
        with self._lock:
            self.entries.append(entry)
        return entry

    @property
    def total_usd(self) -> Decimal:
        return sum((e.cost_usd for e in self.entries), Decimal(0))

    def total_by_role(self) -> dict[str, Decimal]:
        totals: dict[str, Decimal] = {}
        for entry in self.entries:
            totals[entry.role_tag] = totals.get(entry.role_tag, Decimal(0)) + entry.cost_usd
        return totals

    def count_by_role(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.role_tag] = counts.get(entry.role_tag, 0) + 1
        return counts

    def by_model(self) -> tuple[tuple[int, Decimal], tuple[int, Decimal]]:
        """(calls, cost) of the primary model's entries (``PRIMARY_ROLES``)
        and of the decision model's (``DECISION_ROLE``)."""
        counts, costs = self.count_by_role(), self.total_by_role()
        return ((sum(counts.get(role, 0) for role in PRIMARY_ROLES),
                 sum((costs.get(role, Decimal(0)) for role in PRIMARY_ROLES), Decimal(0))),
                (counts.get(DECISION_ROLE, 0), costs.get(DECISION_ROLE, Decimal(0))))

    def to_json(self) -> str:
        """ledger.json: ``meta``, ``total_usd`` and ``entries``, each entry
        with its fields in declaration order, usage as a nested object and
        the cost as a decimal string. The bytes are exactly those of
        ``json.dumps`` of that object with ``indent=2, ensure_ascii=False``,
        in that call's fixed layout with the C escaper ``json_string`` it
        uses."""
        meta = [f"{json_string(key)}: {json_string(value)}" for key, value in self.meta.items()]
        entries = [json_block("{}", [
            f'"exchange_ref": {json_string(e.exchange_ref)}',
            f'"model_id": {json_string(e.model_id)}',
            f'"role_tag": {json_string(e.role_tag)}',
            '"usage": ' + json_block("{}", [
                f'"input_tokens": {e.usage.input_tokens}',
                f'"cached_input_tokens": {e.usage.cached_input_tokens}',
                f'"output_tokens": {e.usage.output_tokens}',
            ], 4),
            f'"cost_usd": {json_string(str(e.cost_usd))}',
            f'"page_id": {"null" if e.page_id is None else json_string(e.page_id)}',
        ], 3) for e in self.entries]
        return json_block("{}", [
            f'"meta": {json_block("{}", meta, 2)}',
            f'"total_usd": {json_string(str(self.total_usd))}',
            f'"entries": {json_block("[]", entries, 2)}',
        ], 1)

    @staticmethod
    def from_json(text: str) -> "CostLedger":
        """The ledger in ``text``, as ``to_json`` writes it. It must hold an
        ``entries`` list, and each entry a role tag of ``PRIMARY_ROLES`` or
        ``DECISION_ROLE``, integer token counts of at least 0 and its cost as
        a decimal string; anything else raises ValueError naming the entry."""
        data = json.loads(text)
        ledger = CostLedger()
        ledger.meta = dict(data.get("meta", {}))
        entries = data["entries"]
        if not isinstance(entries, list):
            raise TypeError(f"entries must be a list, not {type(entries).__name__}")
        for index, raw in enumerate(entries):
            try:
                ledger.entries.append(LedgerEntry(
                    exchange_ref=raw["exchange_ref"],
                    model_id=raw["model_id"],
                    role_tag=_role_tag(raw["role_tag"]),
                    usage=Usage.from_dict(raw["usage"]),
                    cost_usd=_cost(raw["cost_usd"]),
                    page_id=raw.get("page_id"),
                ))
            except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
                raise ValueError(f"ledger entry {index}: {type(exc).__name__}: {exc}") from exc
        return ledger


def _role_tag(role_tag: str) -> str:
    if role_tag != DECISION_ROLE and role_tag not in PRIMARY_ROLES:
        raise ValueError(f"role tag {role_tag!r} is neither a primary nor a decision role")
    return role_tag


def _cost(text: str) -> Decimal:
    """A cost as ``to_json`` writes it: a string that reads as a finite decimal
    of at least 0, so that no binary float is taken for its nearest decimal."""
    if not isinstance(text, str):
        raise TypeError(f"cost {text!r} is not a decimal string")
    value = Decimal(text)
    if not value.is_finite() or value < 0:
        raise ValueError(f"cost {text!r} is not a finite amount of at least 0")
    return value


# --- Providers ---------------------------------------------------------------

class Provider(Protocol):
    def complete_structured(
        self, model_id: str, system_prompt: str, user_prompt: str, json_schema: dict
    ) -> ChatExchange:
        ...


#: The type names of JSON Schema.
_JSON_SCHEMA_TYPES = ("object", "array", "string", "number", "integer", "boolean", "null")


def check_schema(json_schema: dict) -> None:
    """Reject a schema that is not an object with a JSON Schema type, before
    any provider work."""
    if not isinstance(json_schema, dict) or json_schema.get("type") not in _JSON_SCHEMA_TYPES:
        raise SchemaViolation([("$schema", "schema must be an object with a JSON Schema type")])


T = TypeVar("T")


def validates_against(json_text: str, parse: Callable[[str], T]) -> Optional[T]:
    """``parse(json_text)``, or None when the parser raises SchemaViolation
    or the text's JSON holds a lone surrogate."""
    if _holds_lone_surrogate(json_text):
        return None
    try:
        return parse(json_text)
    except SchemaViolation:
        return None


#: A JSON escape of a surrogate code point (U+D800-U+DFFF).
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _holds_lone_surrogate(json_text: str) -> bool:
    """Whether ``json_text``, raw or once its JSON is decoded, holds a lone
    surrogate, which UTF-8 cannot encode, so that no prompt, session record
    or product file could carry the answer; an escaped pair such as
    ``\\ud83d\\ude00`` decodes to one character and passes."""
    if not json_text.isascii():
        try:
            json_text.encode("utf-8")
        except UnicodeEncodeError:
            return True
    if _SURROGATE_ESCAPE.search(json_text) is None:
        return False
    try:
        json.dumps(json.loads(json_text), ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    except (ValueError, RecursionError):  # not JSON: the parser refuses it
        pass
    return False


def count_tokens(content: str) -> int:
    """Deterministic token estimate: ceil(len(utf8 bytes) / 4), where a lone
    surrogate counts as the three bytes it would take."""
    n = len(content.encode("utf-8", "surrogatepass"))
    return (n + 3) // 4


def estimate_usage(system_prompt: str, user_prompt: str, response_text: str) -> Usage:
    return Usage(
        input_tokens=count_tokens(system_prompt) + count_tokens(user_prompt),
        cached_input_tokens=0,
        output_tokens=count_tokens(response_text),
    )


class LiveProvider:
    """Generic OpenAI-compatible chat-completions client.

    Base URL and API key come from the environment (PRODEX_API_BASE,
    PRODEX_API_KEY) unless given explicitly. Transient transport failures are
    retried up to 3 times with exponential backoff. It holds no limit on
    calls in flight: ``extract direct --workers`` (1-32) is that limit.
    """

    RETRIES = 3
    BACKOFF_BASE_SECONDS = 0.5

    def __init__(
        self,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        timeout_seconds: float = 120.0,
    ):
        self.base_url = (base_url or os.environ.get("PRODEX_API_BASE", "")).rstrip("/")
        self.api_key = api_key or os.environ.get("PRODEX_API_KEY", "")
        if not self.base_url:
            raise ValueError("live provider needs a base URL (PRODEX_API_BASE)")
        self.timeout_seconds = timeout_seconds

    def complete_structured(
        self, model_id: str, system_prompt: str, user_prompt: str, json_schema: dict
    ) -> ChatExchange:
        check_schema(json_schema)
        payload = {
            "model": model_id,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
            "response_format": {
                "type": "json_schema",
                "json_schema": {
                    "name": json_schema.get("title", "response"),
                    "schema": json_schema,
                    "strict": True,
                },
            },
        }
        body = self._post_with_retries(payload)
        try:
            choice = body["choices"][0]["message"]
        except (KeyError, IndexError, TypeError):
            raise TransportError(f"malformed completion response: {body!r}")
        if choice.get("refusal"):
            raise ProviderRefusal(str(choice["refusal"]))
        response_text = choice.get("content") or ""
        usage = self._usage_from_body(body, system_prompt, user_prompt, response_text)
        return ChatExchange(response_text=response_text, usage=usage, timestamp=time.time())

    def _post_with_retries(self, payload: dict) -> dict:
        import requests

        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Optional[Exception] = None
        for attempt in range(self.RETRIES):
            if attempt:
                time.sleep(self.BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)))
            try:
                response = requests.post(
                    url, json=payload, headers=headers, timeout=self.timeout_seconds
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code in (429,) or response.status_code >= 500:
                last_error = TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
                continue
            if response.status_code != 200:
                raise TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
            try:
                return response.json()
            except ValueError as exc:
                last_error = exc
                continue
        raise TransportError(f"request failed after {self.RETRIES} attempts: {last_error}")

    @staticmethod
    def _usage_from_body(body, system_prompt, user_prompt, response_text) -> Usage:
        raw = body.get("usage") or {}
        if not raw:
            return estimate_usage(system_prompt, user_prompt, response_text)
        details = raw.get("prompt_tokens_details") or {}
        return Usage(
            input_tokens=int(raw.get("prompt_tokens", 0)),
            cached_input_tokens=int(details.get("cached_tokens", 0)),
            output_tokens=int(raw.get("completion_tokens", 0)),
        )


class RecordingProvider:
    """Wraps any provider and persists each exchange as ``<key>.json`` in a
    session directory, written with ``files.write_atomic``: the bytes of
    ``json.dumps`` of the record with ``indent=2, ensure_ascii=False``."""

    def __init__(self, inner: Provider, session_dir):
        self.inner = inner
        self.session_dir = os.fspath(session_dir)
        os.makedirs(self.session_dir, exist_ok=True)
        self._lock = threading.Lock()

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema) -> ChatExchange:
        if not isinstance(json_schema, RequestSchema):
            json_schema = RequestSchema(json_schema)
        exchange = self.inner.complete_structured(
            model_id, system_prompt, user_prompt, json_schema
        )
        key = exchange.key or exchange_key(model_id, system_prompt, user_prompt, json_schema)
        # The schema's text one level deep: strings escape their line breaks,
        # so each one in the text is layout.
        schema_text = json_schema.text.replace("\n", "\n  ")
        usage = [f"{json_string(name)}: {json.dumps(value)}"
                 for name, value in exchange.usage.to_dict().items()]
        # json.dumps(record, indent=2, ensure_ascii=False) of the record, in
        # that fixed layout with the C escaper json_string it uses
        text = json_block("{}", [
            f'"key": {json_string(key)}',
            f'"model_id": {json_string(model_id)}',
            f'"system_prompt": {json_string(system_prompt)}',
            f'"user_prompt": {json_string(user_prompt)}',
            f'"schema": {schema_text}',
            f'"response_text": {json_string(exchange.response_text)}',
            f'"usage": {json_block("{}", usage, 2)}',
            f'"timestamp": {json.dumps(exchange.timestamp)}',
        ], 1)
        with self._lock:
            files.write_atomic(os.path.join(self.session_dir, f"{key}.json"), text)
        return replace(exchange, key=key)


class ReplayProvider:
    """Serves recorded exchanges; any unseen prompt is a ReplayMiss."""

    def __init__(self, session_dir):
        self.session_dir = os.fspath(session_dir)
        if not os.path.isdir(self.session_dir):
            raise ReplayMiss(f"no session directory {self.session_dir}")

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema) -> ChatExchange:
        key = exchange_key(model_id, system_prompt, user_prompt, json_schema)
        try:
            text = files.read_text(os.path.join(self.session_dir, f"{key}.json"))
        except FileNotFoundError:
            raise ReplayMiss(key) from None
        record = json.loads(text)
        return ChatExchange(
            response_text=record["response_text"],
            usage=Usage.from_dict(record["usage"]),
            timestamp=float(record.get("timestamp", 0.0)),
            key=key,
        )


# --- Schema-enforcing call helper --------------------------------------------

CORRECTIVE_INSTRUCTION = (
    "\n\nIMPORTANT: Your previous answer did not validate against the JSON "
    "schema. Respond again with JSON that is valid against the schema, and "
    "output nothing but the JSON object."
)


def structured_call(
    provider: Provider,
    model_id: str,
    system_prompt: str,
    user_prompt: str,
    json_schema: dict,
    parse: Callable[[str], T],
    ledger: Optional[CostLedger] = None,
    role_tag: str = "direct",
    page_id: Optional[str] = None,
) -> tuple[ChatExchange, T]:
    """One schema-constrained call with a single corrective retry.

    A response is accepted when ``parse`` builds a value from it, and retried
    once when ``parse`` raises SchemaViolation. Returns the accepted exchange
    and its value. Every attempt is priced into the ledger. The retry uses an
    amended user prompt, so recorded sessions replay it under its own key.
    """
    check_schema(json_schema)
    for prompt in (user_prompt, user_prompt + CORRECTIVE_INSTRUCTION):
        exchange = provider.complete_structured(model_id, system_prompt, prompt, json_schema)
        if ledger is not None:
            ledger.add(
                exchange.key or exchange_key(model_id, system_prompt, prompt, json_schema),
                model_id,
                role_tag,
                exchange.usage,
                page_id=page_id,
            )
        value = validates_against(exchange.response_text, parse)
        if value is not None:
            return exchange, value
    raise SchemaViolation([("$", "provider output failed schema validation after retry")])
