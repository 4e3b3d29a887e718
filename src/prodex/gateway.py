"""Provider abstraction for schema-constrained chat completions.

Three provider families share one interface: a live JSON-over-HTTP client
speaking the chat-completions wire shape, a recording wrapper that persists
every exchange, and a replay provider that serves recorded exchanges keyed by
a content hash of (model, system prompt, user prompt, schema). Replay makes
every pipeline bit-deterministic offline.

The JSON Schema goes to the provider, which constrains its output with it.
Locally a response is validated once, by the parser that builds the value
from it (``parse_product`` or a program parser): a response the parser
rejects gets one corrective retry.

Cost accounting is exact: usage is priced from a per-model table using
``Decimal`` arithmetic, and a ledger's total is always the sum of its
entries with no floating-point drift.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path
from typing import Callable, Optional, Protocol, TypeVar

from .schema import SchemaViolation


class TransportError(Exception):
    """Network or HTTP-level failure after retries."""


class ProviderRefusal(Exception):
    """The provider declined to answer."""


class ReplayMiss(Exception):
    """No recorded exchange for the requested prompt key."""


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
        return Usage(
            input_tokens=int(data.get("input_tokens", 0)),
            cached_input_tokens=int(data.get("cached_input_tokens", 0)),
            output_tokens=int(data.get("output_tokens", 0)),
        )


@dataclass(frozen=True)
class ChatExchange:
    model_id: str
    system_prompt: str
    user_prompt: str
    response_text: str
    usage: Usage
    timestamp: float = 0.0
    # The request's exchange_key, where the provider computed one (replay and
    # recording do), so that structured_call does not compute it again.
    key: Optional[str] = None


def exchange_key(model_id: str, system_prompt: str, user_prompt: str, json_schema) -> str:
    """Content hash identifying an exchange for record/replay."""
    payload = json.dumps(
        {
            "model_id": model_id,
            "system_prompt": system_prompt,
            "user_prompt": user_prompt,
            "schema": json_schema,
        },
        sort_keys=True,
        ensure_ascii=False,
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

@dataclass(frozen=True)
class LedgerEntry:
    exchange_ref: str
    model_id: str
    role_tag: str
    usage: Usage
    cost_usd: Decimal
    page_id: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "exchange_ref": self.exchange_ref,
            "model_id": self.model_id,
            "role_tag": self.role_tag,
            "usage": self.usage.to_dict(),
            "cost_usd": str(self.cost_usd),
            "page_id": self.page_id,
        }


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

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "total_usd": str(self.total_usd),
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)

    @staticmethod
    def from_json(text: str) -> "CostLedger":
        data = json.loads(text)
        ledger = CostLedger()
        ledger.meta = dict(data.get("meta", {}))
        for raw in data.get("entries", []):
            ledger.entries.append(
                LedgerEntry(
                    exchange_ref=raw["exchange_ref"],
                    model_id=raw["model_id"],
                    role_tag=raw["role_tag"],
                    usage=Usage.from_dict(raw["usage"]),
                    cost_usd=Decimal(raw["cost_usd"]),
                    page_id=raw.get("page_id"),
                )
            )
        return ledger


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
    """``parse(json_text)``, or None when the parser raises SchemaViolation."""
    try:
        return parse(json_text)
    except SchemaViolation:
        return None


def count_tokens(content: str) -> int:
    """Deterministic token estimate: ceil(len(utf8 bytes) / 4)."""
    n = len(content.encode("utf-8"))
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
    retried up to 3 times with exponential backoff; concurrent requests are
    capped by a semaphore.
    """

    RETRIES = 3
    BACKOFF_BASE_SECONDS = 0.5

    def __init__(
        self,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        max_in_flight: int = 4,
        timeout_seconds: float = 120.0,
    ):
        self.base_url = (base_url or os.environ.get("PRODEX_API_BASE", "")).rstrip("/")
        self.api_key = api_key or os.environ.get("PRODEX_API_KEY", "")
        if not self.base_url:
            raise ValueError("live provider needs a base URL (PRODEX_API_BASE)")
        self.timeout_seconds = timeout_seconds
        self._slots = threading.Semaphore(max_in_flight)

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
        return ChatExchange(
            model_id=model_id,
            system_prompt=system_prompt,
            user_prompt=user_prompt,
            response_text=response_text,
            usage=usage,
            timestamp=time.time(),
        )

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
            with self._slots:
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


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through ``<name>.tmp`` and a rename, so an
    interrupted write leaves at most a stray ``.tmp`` file, never a torn
    ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class RecordingProvider:
    """Wraps any provider and persists each exchange as ``<key>.json`` in a
    session directory, written with ``write_atomic``."""

    def __init__(self, inner: Provider, session_dir):
        self.inner = inner
        self.session_dir = Path(session_dir)
        self.session_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema) -> ChatExchange:
        exchange = self.inner.complete_structured(
            model_id, system_prompt, user_prompt, json_schema
        )
        key = exchange.key or exchange_key(model_id, system_prompt, user_prompt, json_schema)
        record = {
            "key": key,
            "model_id": model_id,
            "system_prompt": system_prompt,
            "user_prompt": user_prompt,
            "schema": json_schema,
            "response_text": exchange.response_text,
            "usage": exchange.usage.to_dict(),
            "timestamp": exchange.timestamp,
        }
        text = json.dumps(record, indent=2, ensure_ascii=False)
        with self._lock:
            write_atomic(self.session_dir / f"{key}.json", text)
        return replace(exchange, key=key)


class ReplayProvider:
    """Serves recorded exchanges; any unseen prompt is a ReplayMiss."""

    def __init__(self, session_dir):
        self.session_dir = Path(session_dir)
        if not self.session_dir.is_dir():
            raise ReplayMiss(f"no session directory {self.session_dir}")

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema) -> ChatExchange:
        key = exchange_key(model_id, system_prompt, user_prompt, json_schema)
        try:
            text = (self.session_dir / f"{key}.json").read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ReplayMiss(key) from None
        record = json.loads(text)
        return ChatExchange(
            model_id=record["model_id"],
            system_prompt=record["system_prompt"],
            user_prompt=record["user_prompt"],
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
