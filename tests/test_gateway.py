import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st
import jsontext

import prodex
from prodex import files
from prodex.dsl import (
    ExtractionProgram,
    extraction_program_json_schema,
    parse_program,
)
from prodex.gateway import (
    CORRECTIVE_INSTRUCTION,
    DECISION_ROLE,
    PRIMARY_ROLES,
    ChatExchange,
    CostLedger,
    LedgerEntry,
    LiveProvider,
    RecordingProvider,
    ReplayMiss,
    ReplayProvider,
    RequestSchema,
    TransportError,
    UnknownModel,
    Usage,
    cost,
    count_tokens,
    estimate_usage,
    exchange_key,
    request_schema,
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

    @pytest.mark.parametrize("count", [1.9, 2.0, "3", True, None, -1])
    def test_from_dict_takes_only_integer_counts_of_at_least_0(self, count):
        with pytest.raises((TypeError, ValueError)):
            Usage.from_dict({"input_tokens": count})
        assert Usage.from_dict({"input_tokens": 3}) == Usage(input_tokens=3)


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

    @given(
        st.dictionaries(jsontext.texts, jsontext.texts, max_size=3),
        st.lists(st.builds(
            LedgerEntry,
            exchange_ref=jsontext.texts,
            model_id=jsontext.texts,
            role_tag=jsontext.texts,
            usage=st.tuples(*[st.integers(0, 10**12)] * 3).map(
                lambda n: Usage(max(n[:2]), min(n[:2]), n[2])),
            cost_usd=jsontext.decimals,
            page_id=st.one_of(st.none(), jsontext.texts),
        ), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_json_is_byte_identical_to_json_dumps(self, meta, entries):
        """ledger.json on empty and awkward meta, entries and page ids."""
        ledger = CostLedger()
        ledger.meta.update(meta)
        ledger.entries.extend(entries)
        reference = {
            "meta": dict(ledger.meta),
            "total_usd": str(ledger.total_usd),
            "entries": [{
                "exchange_ref": e.exchange_ref,
                "model_id": e.model_id,
                "role_tag": e.role_tag,
                "usage": e.usage.to_dict(),
                "cost_usd": str(e.cost_usd),
                "page_id": e.page_id,
            } for e in ledger.entries],
        }
        assert ledger.to_json() == json.dumps(reference, indent=2, ensure_ascii=False)

    def test_from_json_reads_every_role_back(self):
        ledger = CostLedger()
        for role in (*PRIMARY_ROLES, DECISION_ROLE):
            ledger.add(role, "o3-mini", role, Usage(input_tokens=7, output_tokens=3), page_id="p")
        again = CostLedger.from_json(ledger.to_json())
        assert again.to_json() == ledger.to_json()

    @pytest.mark.parametrize("fields, message", [
        ({"role_tag": "refernce"}, "'refernce' is neither a primary nor a decision role"),
        ({"cost_usd": 0.1}, "cost 0.1 is not a decimal string"),
        ({"cost_usd": "NaN"}, "cost 'NaN' is not a finite amount"),
        ({"cost_usd": "-1"}, "cost '-1' is not a finite amount"),
        ({"cost_usd": "abc"}, "InvalidOperation"),
        ({"usage": {"input_tokens": 1.9}}, "input_tokens 1.9 is not an integer"),
        ({"usage": {"output_tokens": -1}}, "token counts must be non-negative"),
        ({"usage": []}, "AttributeError"),
    ], ids=["unknown-role", "float-cost", "nan-cost", "negative-cost", "cost-not-a-decimal",
            "float-count", "negative-count", "usage-not-an-object"])
    def test_from_json_refuses_an_entry_it_cannot_count_and_names_it(self, fields, message):
        ledger = CostLedger()
        ledger.add("a", "o3-mini", "direct", Usage(input_tokens=7))
        ledger.add("b", "gpt-4o", DECISION_ROLE, Usage(input_tokens=7))
        data = json.loads(ledger.to_json())
        data["entries"][1].update(fields)
        with pytest.raises(ValueError, match="^ledger entry 1: ") as refused:
            CostLedger.from_json(json.dumps(data))
        assert message in str(refused.value)

    @pytest.mark.parametrize("text", ["{}", '{"entries": {}}'])
    def test_from_json_wants_a_list_of_entries(self, text):
        with pytest.raises((KeyError, TypeError)):
            CostLedger.from_json(text)

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
            response_text=text,
            usage=estimate_usage(system_prompt, user_prompt, text),
            timestamp=0.0,
        )


class TestStructuredCall:
    @pytest.mark.parametrize("answer, accepted", [
        ('{"a": 1, "b": "\\ud83d\\ude00"}', True),  # an escaped pair: one character
        ('{"a": 1, "b": "\\\\ud800"}', True),  # an escaped backslash, then text
        ('{"a": 1, "b": "Zucker \\ud800"}', False),
        ('{"a": 1, "b": "\\uDC00\\ud800"}', False),  # a pair in the wrong order
        ('{"a": 1, "\\ud800": 0}', False),  # in a key
        ('{"a": 1, "b": "Zucker \ud800"}', False),  # the character itself
    ])
    def test_an_answer_holding_a_lone_surrogate_gets_the_corrective_retry(self, answer,
                                                                        accepted):
        """No prompt, session record or product file could carry such a
        text, so the gateway refuses it as a schema violation."""
        provider = _ScriptedProvider([answer, '{"a": 2}'])
        ledger = CostLedger()
        _, value = structured_call(provider, "o3-mini", "s", "u", SCHEMA, _parse_a, ledger)
        assert value == (1 if accepted else 2)
        assert len(ledger.entries) == (1 if accepted else 2)

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

    # A session file is UTF-8, which holds no lone surrogate: write_atomic
    # writes one as its escape, so that record differs from json.dumps' text
    # (test_a_lone_surrogate_is_recorded_as_its_escape_and_replays).
    _encodable = jsontext.texts.filter(lambda text: not any("\ud800" <= c <= "\udfff"
                                                            for c in text))

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(_encodable, _encodable, _encodable, _encodable),
        st.tuples(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9)),
        st.floats(),
        st.one_of(
            st.just(SCHEMA),
            st.dictionaries(_encodable, st.one_of(_encodable, st.integers(),
                                                  st.lists(_encodable)), max_size=4),
        ),
        st.booleans(),
    )
    @example(("o3-mini", "sys", "user", '{"a": 1}'), (5, 2, 1), 1.5, SCHEMA, True)
    def test_a_session_record_is_byte_identical_to_json_dumps(self, texts, tokens, timestamp,
                                                              schema, request_schema):
        """Drawn prompts, responses, usages and timestamps, with a plain-dict
        schema or a RequestSchema, whose text the record nests."""
        import tempfile

        model_id, system, user, response = texts
        inputs, cached, outputs = tokens
        usage = Usage(max(inputs, cached), min(inputs, cached), outputs)

        class Answering:
            def complete_structured(self, *args):
                return ChatExchange(response, usage, timestamp)

        json_schema = RequestSchema(schema) if request_schema else schema
        with tempfile.TemporaryDirectory() as session:
            recorder = RecordingProvider(Answering(), session)
            for _ in range(2):  # a RequestSchema's text is reused
                key = recorder.complete_structured(model_id, system, user, json_schema).key
                written = (Path(session) / f"{key}.json").read_text(encoding="utf-8")
                assert written == json.dumps({
                    "key": key,
                    "model_id": model_id,
                    "system_prompt": system,
                    "user_prompt": user,
                    "schema": schema,
                    "response_text": response,
                    "usage": usage.to_dict(),
                    "timestamp": timestamp,
                }, indent=2, ensure_ascii=False)

    def test_a_lone_surrogate_is_recorded_as_its_escape_and_replays(self, tmp_path):
        """UTF-8 cannot hold the character, so the record file holds its JSON
        escape, which reads back as the same text."""
        answer = '{"a": "Zucker \ud800"}'
        recorder = RecordingProvider(_ScriptedProvider([answer]), tmp_path / "session")
        key = recorder.complete_structured("m", "sys", "user", SCHEMA).key
        assert '"response_text": "{\\"a\\": \\"Zucker \\ud800\\"}"' in (
            tmp_path / "session" / f"{key}.json").read_text(encoding="utf-8")
        replayed = ReplayProvider(tmp_path / "session").complete_structured(
            "m", "sys", "user", SCHEMA)
        assert replayed.response_text == answer
        assert count_tokens("Zucker \ud800") == 3  # the surrogate as its three bytes

    def test_replay_reads_the_session_file_once_and_stats_nothing(self, tmp_path, monkeypatch):
        recorder = RecordingProvider(_ScriptedProvider(['{"a": 1}']), tmp_path / "session")
        recorder.complete_structured("m", "sys", "user-1", SCHEMA)
        replay = ReplayProvider(tmp_path / "session")
        calls = []

        def counting(owner, method):
            real = getattr(owner, method)

            def counted(path, *args, **kwargs):
                calls.append((method, os.path.basename(path)))
                return real(path, *args, **kwargs)

            return counted

        monkeypatch.setattr(files, "read_text", counting(files, "read_text"))
        for owner, method in ((Path, "exists"), (Path, "is_file"), (Path, "stat"),
                              (os.path, "exists"), (os.path, "isfile"), (os, "stat")):
            monkeypatch.setattr(owner, method, counting(owner, method))
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
        real_write_text = files.write_text

        def torn_write(path, data, *args, **kwargs):
            real_write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        recorder = RecordingProvider(_ScriptedProvider(['{"a": 1}', '{"a": 1}']),
                                     tmp_path / "session")
        monkeypatch.setattr(files, "write_text", torn_write)
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


def _reference_exchange_key(model_id, system_prompt, user_prompt, json_schema) -> str:
    """exchange_key as it was before the schema text was spliced in; replay
    finds recorded sessions by these keys, so they must not move."""
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


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=12,
)


@given(
    st.text(max_size=12),
    st.text(max_size=40),
    st.text(max_size=40),
    st.dictionaries(st.text(max_size=6), _json_values, max_size=5),
)
@example("o3-mini-ä", "Extrahiere das Produkt.", 'Nährwerte — "Fett" 3,5\u2028g 🍫\n\t\\',
         {"z": {"b": [1, {"y": 2, "a": None}], "a": "é"}, "type": "object", "$defs": {}})
@settings(max_examples=200, deadline=None)
def test_exchange_key_is_the_json_dumps_formula(model_id, system_prompt, user_prompt, schema):
    want = _reference_exchange_key(model_id, system_prompt, user_prompt, schema)
    assert exchange_key(model_id, system_prompt, user_prompt, schema) == want
    request_schema = RequestSchema(schema)
    assert request_schema == schema
    assert exchange_key(model_id, system_prompt, user_prompt, request_schema) == want


def test_call_sites_key_their_schemas_as_json_dumps_does():
    from prodex.dsl import decision_program_json_schema
    from prodex.schema import to_json_schema_dict

    for build in (to_json_schema_dict, extraction_program_json_schema,
                  decision_program_json_schema):
        schema, plain = request_schema(build), build()
        assert request_schema(build) is schema  # built once
        assert isinstance(schema, RequestSchema) and schema == plain
        assert schema.text == json.dumps(plain, indent=2, ensure_ascii=False)
        assert exchange_key("o3-mini", "sys", "Zutaten: Weizenmehl", schema) == (
            _reference_exchange_key("o3-mini", "sys", "Zutaten: Weizenmehl", plain)
        )


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
