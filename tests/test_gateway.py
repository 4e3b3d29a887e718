import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import prodex
from prodex.dsl import (
    ExtractionProgram,
    extraction_program_json_schema,
    parse_program,
)
from prodex.gateway import (
    CORRECTIVE_INSTRUCTION,
    ChatExchange,
    CostLedger,
    LiveProvider,
    RecordingProvider,
    ReplayMiss,
    ReplayProvider,
    TransportError,
    UnknownModel,
    Usage,
    cost,
    estimate_usage,
    exchange_key,
    structured_call,
)
from prodex.indirect import _program_parser
from prodex.schema import SchemaViolation

SCHEMA = {"title": "T", "type": "object", "properties": {"a": {"type": "integer"}}}


def _parse_a(json_text: str) -> int:
    """The integer ``a`` of a response to SCHEMA; raises SchemaViolation otherwise."""
    try:
        value = json.loads(json_text)["a"]
    except (ValueError, TypeError, KeyError):
        raise SchemaViolation([("$", "expected an object with a")])
    if not isinstance(value, int):
        raise SchemaViolation([("a", "expected an integer")])
    return value


class TestCost:
    def test_million_input_tokens_o3_mini(self):
        usage = Usage(input_tokens=1_000_000, cached_input_tokens=0, output_tokens=0)
        assert cost(usage, "o3-mini") == Decimal("1.10")

    def test_million_cached_tokens_gpt_4o(self):
        usage = Usage(input_tokens=1_000_000, cached_input_tokens=1_000_000, output_tokens=0)
        assert cost(usage, "gpt-4o") == Decimal("1.25")

    def test_zero_usage(self):
        assert cost(Usage(), "o3-mini") == Decimal("0.00")

    def test_output_rate(self):
        usage = Usage(output_tokens=1_000_000)
        assert cost(usage, "o3-mini") == Decimal("4.40")
        assert cost(usage, "gpt-4o") == Decimal("10.00")

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            cost(Usage(), "gpt-99")

    def test_cached_portion_uses_cached_rate(self):
        usage = Usage(input_tokens=2_000_000, cached_input_tokens=1_000_000)
        assert cost(usage, "o3-mini") == Decimal("1.10") + Decimal("0.55")


class TestUsage:
    def test_cached_bounded_by_input(self):
        with pytest.raises(ValueError):
            Usage(input_tokens=1, cached_input_tokens=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Usage(input_tokens=-1)


class TestLedger:
    def test_total_equals_entry_sum_exactly(self):
        ledger = CostLedger()
        for tokens in (333_333, 777_777, 123_457):
            ledger.add("ref", "o3-mini", "direct", Usage(input_tokens=tokens))
        assert ledger.total_usd == sum((e.cost_usd for e in ledger.entries), Decimal(0))

    @given(st.lists(st.integers(min_value=0, max_value=10_000_000), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_total_is_exact_for_any_usage(self, token_counts):
        ledger = CostLedger()
        for tokens in token_counts:
            ledger.add("r", "gpt-4o", "decision_gen", Usage(input_tokens=tokens, output_tokens=tokens // 2))
        assert ledger.total_usd == sum((e.cost_usd for e in ledger.entries), Decimal(0))

    def test_json_round_trip_preserves_total(self):
        ledger = CostLedger()
        ledger.meta["shop_id"] = "alpha"
        ledger.add("r1", "o3-mini", "direct", Usage(input_tokens=123_456, output_tokens=789))
        again = CostLedger.from_json(ledger.to_json())
        assert again.total_usd == ledger.total_usd
        assert again.meta == ledger.meta
        assert len(again.entries) == 1

    def test_counts_by_role(self):
        ledger = CostLedger()
        ledger.add("a", "o3-mini", "reference", Usage())
        ledger.add("b", "o3-mini", "func_gen", Usage())
        ledger.add("c", "o3-mini", "func_gen", Usage())
        assert ledger.count_by_role() == {"reference": 1, "func_gen": 2}


class _ScriptedProvider:
    """Returns queued responses; records prompts it was asked."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def complete_structured(self, model_id, system_prompt, user_prompt, json_schema):
        self.calls.append(user_prompt)
        text = self.responses.pop(0)
        return ChatExchange(
            model_id=model_id,
            system_prompt=system_prompt,
            user_prompt=user_prompt,
            response_text=text,
            usage=estimate_usage(system_prompt, user_prompt, text),
            timestamp=0.0,
        )


class TestStructuredCall:
    def test_valid_response_single_call(self):
        provider = _ScriptedProvider(['{"a": 1}'])
        ledger = CostLedger()
        exchange, value = structured_call(
            provider, "o3-mini", "s", "u", SCHEMA, _parse_a, ledger, "direct"
        )
        assert exchange.response_text == '{"a": 1}'
        assert value == 1
        assert len(ledger.entries) == 1

    def test_corrective_retry_on_invalid_output(self):
        provider = _ScriptedProvider(['{"a": "not an int"}', '{"a": 2}'])
        ledger = CostLedger()
        exchange, value = structured_call(
            provider, "o3-mini", "s", "u", SCHEMA, _parse_a, ledger, "direct"
        )
        assert exchange.response_text == '{"a": 2}'
        assert value == 2
        assert len(ledger.entries) == 2
        assert provider.calls[1].endswith(CORRECTIVE_INSTRUCTION)

    def test_gives_up_after_one_retry(self):
        provider = _ScriptedProvider(["junk", "more junk"])
        with pytest.raises(SchemaViolation):
            structured_call(provider, "o3-mini", "s", "u", SCHEMA, _parse_a, CostLedger(), "direct")

    def test_malformed_schema_rejected_before_any_call(self):
        provider = _ScriptedProvider([])
        for _ in range(2):  # refused on every call, not only the first
            with pytest.raises(SchemaViolation):
                structured_call(
                    provider, "o3-mini", "s", "u", {"type": "nonsense"}, _parse_a,
                    CostLedger(), "direct",
                )
        assert provider.calls == []

    def test_response_the_parser_rejects_is_retried(self):
        # Valid against the JSON Schema, but a capture needs exactly one group.
        no_group = json.dumps({"kind": "extraction", "program_id": "p", "rules": [
            {"field_path": "fat.value", "selector": "p", "capture": "[0-9]+"}]})
        one_group = json.dumps({"kind": "extraction", "program_id": "p", "rules": [
            {"field_path": "fat.value", "selector": "p", "capture": "([0-9]+)"}]})
        schema = extraction_program_json_schema()
        assert jsonschema.Draft202012Validator(schema).is_valid(json.loads(no_group))
        provider = _ScriptedProvider([no_group, one_group])
        ledger = CostLedger()
        exchange, program = structured_call(
            provider, "o3-mini", "s", "u", schema, parse_program, ledger, "func_gen"
        )
        assert exchange.response_text == one_group
        assert program.rules[0].capture == "([0-9]+)"
        assert len(ledger.entries) == 2
        assert provider.calls[1].endswith(CORRECTIVE_INSTRUCTION)

    def test_program_of_the_wrong_kind_is_retried(self):
        decision = json.dumps({"kind": "decision", "program_id": "d",
                               "predicate": {"op": "contains_keyword", "value": "Zutaten"}})
        extraction = json.dumps({"kind": "extraction", "program_id": "p", "rules": []})
        provider = _ScriptedProvider([decision, extraction])
        ledger = CostLedger()
        _, program = structured_call(
            provider, "o3-mini", "s", "u", extraction_program_json_schema(),
            _program_parser(ExtractionProgram), ledger, "func_gen",
        )
        assert isinstance(program, ExtractionProgram)
        assert len(ledger.entries) == 2
        assert provider.calls[1].endswith(CORRECTIVE_INSTRUCTION)


def test_cli_import_does_not_load_jsonschema():
    code = "import sys, prodex.cli; print('jsonschema' in sys.modules)"
    src = str(Path(prodex.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


class TestRecordReplay:
    def test_record_then_replay_identical(self, tmp_path):
        inner = _ScriptedProvider(['{"a": 1}', '{"a": 2}'])
        recorder = RecordingProvider(inner, tmp_path / "session")
        first = recorder.complete_structured("m", "sys", "user-1", SCHEMA)
        second = recorder.complete_structured("m", "sys", "user-2", SCHEMA)

        replay = ReplayProvider(tmp_path / "session")
        again_first = replay.complete_structured("m", "sys", "user-1", SCHEMA)
        again_second = replay.complete_structured("m", "sys", "user-2", SCHEMA)
        assert again_first.response_text == first.response_text
        assert again_second.response_text == second.response_text
        assert again_first.usage == first.usage

    def test_replay_reads_the_session_file_once_and_stats_nothing(self, tmp_path, monkeypatch):
        recorder = RecordingProvider(_ScriptedProvider(['{"a": 1}']), tmp_path / "session")
        recorder.complete_structured("m", "sys", "user-1", SCHEMA)
        replay = ReplayProvider(tmp_path / "session")
        calls = []

        def counting(method):
            real = getattr(Path, method)

            def counted(self, *args, **kwargs):
                calls.append((method, self.name))
                return real(self, *args, **kwargs)

            return counted

        for method in ("read_text", "exists", "is_file", "stat"):
            monkeypatch.setattr(Path, method, counting(method))
        exchange = replay.complete_structured("m", "sys", "user-1", SCHEMA)
        with pytest.raises(ReplayMiss) as miss:
            replay.complete_structured("m", "sys", "user-2", SCHEMA)
        missed = exchange_key("m", "sys", "user-2", SCHEMA)
        monkeypatch.undo()
        assert exchange.response_text == '{"a": 1}'
        assert str(miss.value) == missed
        assert calls == [("read_text", f"{exchange.key}.json"), ("read_text", f"{missed}.json")]

    def test_altered_prompt_misses(self, tmp_path):
        inner = _ScriptedProvider(['{"a": 1}'])
        recorder = RecordingProvider(inner, tmp_path / "session")
        recorder.complete_structured("m", "sys", "user-1", SCHEMA)
        replay = ReplayProvider(tmp_path / "session")
        with pytest.raises(ReplayMiss):
            replay.complete_structured("m", "sys", "user-1 CHANGED", SCHEMA)

    def test_session_of_n_exchanges_yields_n_ledger_entries(self, tmp_path):
        n = 7
        inner = _ScriptedProvider(['{"a": %d}' % i for i in range(n)])
        recorder = RecordingProvider(inner, tmp_path / "session")
        ledger = CostLedger()
        for i in range(n):
            structured_call(recorder, "o3-mini", "sys", f"user-{i}", SCHEMA, _parse_a,
                            ledger, "direct")
        assert len(ledger.entries) == n
        replay = ReplayProvider(tmp_path / "session")
        replay_ledger = CostLedger()
        for i in range(n):
            structured_call(replay, "o3-mini", "sys", f"user-{i}", SCHEMA, _parse_a,
                            replay_ledger, "direct")
        assert replay_ledger.to_json() == ledger.to_json()

    def test_each_attempt_computes_its_key_once(self, tmp_path, monkeypatch):
        from prodex import gateway

        keys = []
        real_key = gateway.exchange_key

        def counting_key(*args):
            keys.append(real_key(*args))
            return keys[-1]

        monkeypatch.setattr(gateway, "exchange_key", counting_key)
        recorder = RecordingProvider(_ScriptedProvider(["[]", '{"a": 1}']), tmp_path / "session")
        ledgers = []
        for provider in (recorder, ReplayProvider(tmp_path / "session")):
            keys.clear()
            ledgers.append(CostLedger())
            structured_call(provider, "o3-mini", "sys", "user", SCHEMA, _parse_a,
                            ledgers[-1], "direct")
            # The first answer fails to parse, so there are two attempts.
            assert [e.exchange_ref for e in ledgers[-1].entries] == keys
            assert len(set(keys)) == 2
        assert sorted(p.stem for p in (tmp_path / "session").iterdir()) == sorted(keys)
        assert ledgers[0].to_json() == ledgers[1].to_json()

    def test_rerecorded_exchange_leaves_one_file(self, tmp_path):
        inner = _ScriptedProvider(['{"a": 1}', '{"a": 1}'])
        recorder = RecordingProvider(inner, tmp_path / "session")
        recorder.complete_structured("m", "sys", "user-1", SCHEMA)
        RecordingProvider(inner, tmp_path / "session").complete_structured(
            "m", "sys", "user-1", SCHEMA
        )
        key = exchange_key("m", "sys", "user-1", SCHEMA)
        assert [p.name for p in (tmp_path / "session").iterdir()] == [f"{key}.json"]
        replay = ReplayProvider(tmp_path / "session")
        assert replay.complete_structured("m", "sys", "user-1", SCHEMA).response_text == '{"a": 1}'

    def test_interrupted_write_leaves_no_torn_record(self, tmp_path, monkeypatch):
        real_write_text = Path.write_text

        def torn_write(path, data, *args, **kwargs):
            real_write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        recorder = RecordingProvider(_ScriptedProvider(['{"a": 1}', '{"a": 1}']),
                                     tmp_path / "session")
        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            recorder.complete_structured("m", "sys", "user-1", SCHEMA)
        monkeypatch.undo()
        replay = ReplayProvider(tmp_path / "session")
        with pytest.raises(ReplayMiss):
            replay.complete_structured("m", "sys", "user-1", SCHEMA)

        recorder.complete_structured("m", "sys", "user-1", SCHEMA)
        assert replay.complete_structured("m", "sys", "user-1", SCHEMA).response_text == '{"a": 1}'

    def test_missing_session_dir(self, tmp_path):
        with pytest.raises(ReplayMiss):
            ReplayProvider(tmp_path / "nope")

    def test_key_depends_on_all_parts(self):
        base = exchange_key("m", "s", "u", SCHEMA)
        assert exchange_key("m2", "s", "u", SCHEMA) != base
        assert exchange_key("m", "s2", "u", SCHEMA) != base
        assert exchange_key("m", "s", "u2", SCHEMA) != base
        assert exchange_key("m", "s", "u", {"type": "object"}) != base


class TestLiveProvider:
    def test_requires_base_url(self, monkeypatch):
        monkeypatch.delenv("PRODEX_API_BASE", raising=False)
        with pytest.raises(ValueError):
            LiveProvider()

    def test_malformed_schema_rejected_without_network(self, monkeypatch):
        provider = LiveProvider(base_url="http://localhost:1")

        def boom(*args, **kwargs):
            raise AssertionError("network should not be touched")

        monkeypatch.setattr("requests.post", boom)
        with pytest.raises(SchemaViolation):
            provider.complete_structured("m", "s", "u", {"type": "bogus"})

    def test_retries_then_raises_transport_error(self, monkeypatch):
        provider = LiveProvider(base_url="http://example.invalid")
        provider.BACKOFF_BASE_SECONDS = 0.0
        attempts = []

        import requests

        def fail(*args, **kwargs):
            attempts.append(1)
            raise requests.ConnectionError("down")

        monkeypatch.setattr("requests.post", fail)
        with pytest.raises(TransportError):
            provider.complete_structured("m", "s", "u", SCHEMA)
        assert len(attempts) == 3

    def test_parses_completion_and_usage(self, monkeypatch):
        provider = LiveProvider(base_url="http://api.example")

        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {
                    "choices": [{"message": {"content": '{"a": 3}'}}],
                    "usage": {
                        "prompt_tokens": 100,
                        "completion_tokens": 10,
                        "prompt_tokens_details": {"cached_tokens": 40},
                    },
                }

        monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
        exchange = provider.complete_structured("m", "s", "u", SCHEMA)
        assert exchange.response_text == '{"a": 3}'
        assert exchange.usage == Usage(input_tokens=100, cached_input_tokens=40, output_tokens=10)

    def test_refusal_surfaces(self, monkeypatch):
        from prodex.gateway import ProviderRefusal

        provider = LiveProvider(base_url="http://api.example")

        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"refusal": "no"}}]}

        monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
        with pytest.raises(ProviderRefusal):
            provider.complete_structured("m", "s", "u", SCHEMA)
