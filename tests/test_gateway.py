import json
import math
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from conftest import cosine_similarity
from tagforge.gateway import (
    AuditLog,
    ChatRequest,
    HttpProvider,
    MockProvider,
    MockScriptError,
    PermanentProviderError,
    ProviderConfig,
    ROLE_TEMPERATURE,
    SchemaValidationError,
    StructuredOutputError,
    TransportError,
    complete_structured,
    extract_json,
    prompt_key,
    validate_schema,
)


class _StubServer:
    """One-shot behavior queue: each POST consumes the next (status, body)."""

    def __init__(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                outer.seen.append((self.path, json.loads(raw) if raw else None))
                status, body = outer.behaviors.pop(0) if outer.behaviors else (200, "{}")
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.behaviors: list[tuple[int, str]] = []
        self.seen: list[tuple[str, dict]] = []
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.httpd.server_address[1]}/v1"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def stub():
    server = _StubServer()
    yield server
    server.close()


def _provider(endpoint, sleeps=None, **overrides):
    cfg = ProviderConfig(endpoint=endpoint, timeout_s=5.0,
                         backoff_base_ms=1.0, **overrides)
    recorder = sleeps if sleeps is not None else []
    return HttpProvider(cfg, sleeper=recorder.append)


CHAT_OK = json.dumps({"choices": [{"message": {"content": "hello"}}],
                      "usage": {"total_tokens": 7}})
REQ = ChatRequest(role_tag="Manager", system_prompt="sys", user_prompt="usr")


# http transport ---------------------------------------------------------------------

def test_retries_through_two_500s_then_succeeds(stub):
    stub.behaviors = [(500, "boom"), (500, "boom"), (200, CHAT_OK)]
    sleeps: list[float] = []
    provider = _provider(stub.endpoint, sleeps=sleeps)
    assert provider.complete(REQ) == "hello"
    assert len(stub.seen) == 3
    assert len(sleeps) == 2
    # backoff: base * 2^(attempt-1) plus up to one base of jitter, in seconds
    assert 0.001 <= sleeps[0] < 0.002
    assert 0.002 <= sleeps[1] < 0.003


def test_connection_refused_exhausts_retries():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    sleeps: list[float] = []
    provider = _provider(f"http://127.0.0.1:{port}/v1", sleeps=sleeps,
                         max_retries=2)
    with pytest.raises(TransportError) as err:
        provider.complete(REQ)
    assert "3 attempts" in str(err.value)
    assert len(sleeps) == 2


def test_404_is_permanent_and_not_retried(stub):
    stub.behaviors = [(404, "missing")]
    provider = _provider(stub.endpoint)
    with pytest.raises(PermanentProviderError) as err:
        provider.complete(REQ)
    assert err.value.status == 404
    assert len(stub.seen) == 1


def test_429_retries_then_succeeds(stub):
    stub.behaviors = [(429, "slow down"), (200, CHAT_OK)]
    provider = _provider(stub.endpoint)
    assert provider.complete(REQ) == "hello"
    assert len(stub.seen) == 2


def test_200_with_non_json_body_is_permanent(stub):
    stub.behaviors = [(200, "<html>nope</html>")]
    provider = _provider(stub.endpoint)
    with pytest.raises(PermanentProviderError) as err:
        provider.complete(REQ)
    assert err.value.status == 200


def test_chat_reply_missing_content_is_permanent(stub):
    stub.behaviors = [(200, json.dumps({"choices": []}))]
    provider = _provider(stub.endpoint)
    with pytest.raises(PermanentProviderError):
        provider.complete(REQ)


def test_chat_request_body_shape(stub):
    stub.behaviors = [(200, CHAT_OK)]
    provider = _provider(stub.endpoint)
    provider.complete(ChatRequest(role_tag="Enhancement", system_prompt="s",
                                  user_prompt="u"))
    path, body = stub.seen[0]
    assert path.endswith("/chat/completions")
    assert body["messages"] == [{"role": "system", "content": "s"},
                                {"role": "user", "content": "u"}]
    assert body["temperature"] == ROLE_TEMPERATURE["Enhancement"] == 0.7
    assert body["max_tokens"] == 2048


def test_embed_orders_rows_by_index(stub):
    reply = {"data": [
        {"index": 1, "embedding": [0.0, 1.0]},
        {"index": 0, "embedding": [1.0, 0.0]},
    ]}
    stub.behaviors = [(200, json.dumps(reply))]
    provider = _provider(stub.endpoint)
    vecs = provider.embed(["a", "b"])
    assert np.allclose(vecs[0], [1.0, 0.0])
    assert np.allclose(vecs[1], [0.0, 1.0])
    path, body = stub.seen[0]
    assert path.endswith("/embeddings")
    assert body["input"] == ["a", "b"]


def test_embed_row_count_mismatch_is_permanent(stub):
    stub.behaviors = [(200, json.dumps({"data": [
        {"index": 0, "embedding": [1.0]}]}))]
    provider = _provider(stub.endpoint)
    with pytest.raises(PermanentProviderError):
        provider.embed(["a", "b"])


def test_embed_rejects_empty_input_locally(stub):
    provider = _provider(stub.endpoint)
    assert provider.embed([]) == []
    with pytest.raises(ValueError):
        provider.embed(["ok", ""])
    assert stub.seen == []


# mock provider ----------------------------------------------------------------------

def test_mock_embeddings_deterministic_and_distinct():
    provider = MockProvider(seed=7)
    a1, = provider.embed(["some text"])
    a2, = provider.embed(["some text"])
    b, = provider.embed(["other text"])
    assert np.array_equal(a1, a2)
    assert cosine_similarity(a1, b) < 0.999
    assert math.isclose(float(np.linalg.norm(a1)), 1.0, abs_tol=1e-12)
    other_seed, = MockProvider(seed=8).embed(["some text"])
    assert not np.array_equal(a1, other_seed)


def test_mock_embed_empty_string_rejected():
    with pytest.raises(ValueError):
        MockProvider().embed([""])


def test_mock_script_by_ordinal_and_key():
    req = ChatRequest(role_tag="Manager", system_prompt="s", user_prompt="u")
    by_key = MockProvider({prompt_key(req): "keyed"})
    assert by_key.complete(req) == "keyed"
    by_ordinal = MockProvider({"0": "first", "1": "second"})
    assert by_ordinal.complete(req) == "first"
    assert by_ordinal.complete(req) == "second"
    with pytest.raises(MockScriptError):
        by_ordinal.complete(req)


def test_mock_script_error_is_permanent():
    assert issubclass(MockScriptError, PermanentProviderError)


def test_mock_from_file_round_trip(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"0": "reply"}), encoding="utf-8")
    provider = MockProvider.from_file(str(path))
    assert provider.complete(REQ) == "reply"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": 5}), encoding="utf-8")
    with pytest.raises(ValueError):
        MockProvider.from_file(str(bad))


def test_prompt_key_format_and_sensitivity():
    req = ChatRequest(role_tag="Goal", system_prompt="a", user_prompt="b")
    key = prompt_key(req)
    assert re.fullmatch(r"Goal:[0-9a-f]{16}", key)
    other = ChatRequest(role_tag="Goal", system_prompt="a", user_prompt="c")
    assert prompt_key(other) != key


def test_resolved_temperature_role_default_and_override():
    default = ChatRequest("Manager", "s", "u").resolved_temperature()
    assert 0.0 <= default <= 1.0
    assert ChatRequest("NoSuchRole", "s", "u").resolved_temperature() == 0.0


# audit ------------------------------------------------------------------------------

def test_audit_jsonl_is_ordered_and_key_sorted(tmp_path):
    audit = AuditLog()
    audit.record("b_kind", zeta=1, alpha=2)
    audit.record("a_kind", value="x")
    lines = audit.to_jsonl().splitlines()
    assert [json.loads(l)["seq"] for l in lines] == [0, 1]
    assert lines[0].index('"alpha"') < lines[0].index('"zeta"')
    out = tmp_path / "audit.jsonl"
    audit.write(str(out))
    assert out.read_text(encoding="utf-8") == audit.to_jsonl()


def test_mock_calls_are_audited_with_zero_latency():
    audit = AuditLog()
    provider = MockProvider({"0": "x"}, audit=audit)
    provider.complete(REQ)
    provider.embed(["t"])
    kinds = [e["kind"] for e in audit.entries]
    assert kinds == ["llm_call", "embed_call"]
    assert all(e["latency_ms"] == 0.0 for e in audit.entries)


# json extraction --------------------------------------------------------------------

def test_extract_json_plain_and_fenced():
    assert extract_json('{"a": 1}') == ({"a": 1}, True)
    fenced = "```json\n{\"mode\": \"semantic\"}\n```"
    assert extract_json(fenced) == ({"mode": "semantic"}, True)


def test_extract_json_prose_wrapped_array():
    text = "Here are the nodes:\n[1, 2, 3]\nHope that helps!"
    assert extract_json(text) == ([1, 2, 3], True)


def test_extract_json_none_found():
    value, found = extract_json("no structured content here")
    assert not found and value is None


# schemas ----------------------------------------------------------------------------

def test_mode_decision_accepts_dict_string_and_raw_text():
    assert validate_schema("mode-decision", {"mode": "Semantic"}) == "semantic"
    assert validate_schema("mode-decision", "TOPOLOGICAL") == "topological"
    assert validate_schema("mode-decision", None,
                           raw_text="I would go with semantic here.") == "semantic"


def test_mode_decision_rejects_ambiguous_or_absent():
    with pytest.raises(SchemaValidationError):
        validate_schema("mode-decision", "semantic or topological, both work")
    with pytest.raises(SchemaValidationError):
        validate_schema("mode-decision", "neither really")
    with pytest.raises(SchemaValidationError):
        validate_schema("mode-decision", 42)


def test_generated_nodes_normalization():
    raw = [{"node_id": 7, "label": 2, "text": "body", "neighbors": [1, "2"]}]
    out = validate_schema("generated-nodes", raw)
    assert out == [{"node_id": "7", "label": 2, "text": "body",
                    "neighbors": ["1", "2"], "mask": "Train"}]
    wrapped = validate_schema("generated-nodes", {"nodes": raw})
    assert wrapped == out


def test_generated_nodes_rejections():
    with pytest.raises(SchemaValidationError):
        validate_schema("generated-nodes", [{"label": 0, "text": "t", "neighbors": []}])
    with pytest.raises(SchemaValidationError):
        validate_schema("generated-nodes",
                        [{"node_id": "a", "label": True, "text": "t", "neighbors": []}])
    with pytest.raises(SchemaValidationError):
        validate_schema("generated-nodes",
                        [{"node_id": "a", "label": 0, "text": "t", "neighbors": "b"}])
    with pytest.raises(SchemaValidationError):
        validate_schema("generated-nodes", {"not_nodes": []})


def test_quality_scores_two_dimensions_and_single_score():
    out = validate_schema("quality-scores", [
        {"node_id": "n1", "semantic_coherence": 8.0, "structural_integrity": 6.0},
        {"node_id": 2, "score": 7.5},
    ])
    assert out[0] == {"node_id": "n1", "semantic_coherence": 8.0,
                      "structural_integrity": 6.0}
    assert out[1] == {"node_id": "2", "semantic_coherence": 7.5,
                      "structural_integrity": 7.5}


def test_quality_scores_rejections():
    with pytest.raises(SchemaValidationError):
        validate_schema("quality-scores", [{"node_id": "a", "semantic_coherence": 5.0}])
    with pytest.raises(SchemaValidationError):
        validate_schema("quality-scores", [{"node_id": "a"}])
    with pytest.raises(SchemaValidationError):
        validate_schema("quality-scores", [{"node_id": "a", "score": float("nan")}])
    with pytest.raises(SchemaValidationError):
        validate_schema("quality-scores", [{"node_id": "a", "score": True}])


def test_goal_decision_shapes():
    assert validate_schema("goal-decision", True) == {
        "goal_reached": True, "justification": ""}
    assert validate_schema("goal-decision",
                           {"goal_reached": False, "justification": "more work"}) == {
        "goal_reached": False, "justification": "more work"}
    assert validate_schema("goal-decision", {"converged": True})["goal_reached"] is True
    with pytest.raises(SchemaValidationError):
        validate_schema("goal-decision", {"goal_reached": "yes"})
    with pytest.raises(SchemaValidationError):
        validate_schema("goal-decision", "done")


@pytest.mark.parametrize("schema_id, value", [
    ("generated-nodes", [{"node_id": "\ud800bad", "label": 0, "text": "t",
                          "neighbors": []}]),
    ("generated-nodes", [{"node_id": "a", "label": 0, "text": "t",
                          "neighbors": ["b\udfff"]}]),
    ("generated-nodes", [{"node_id": "a", "label": 0, "text": "body \ud83d",
                          "neighbors": []}]),
    ("generated-nodes", [{"node_id": "a", "label": 0, "text": "t",
                          "neighbors": [], "mask": "Tr\udc00ain"}]),
    ("quality-scores", [{"node_id": "\ud800", "score": 5.0}]),
    ("goal-decision", {"goal_reached": True, "justification": "ok \ud800"}),
])
def test_strings_utf8_cannot_encode_are_rejected(schema_id, value):
    # a lone surrogate in the audit or the graph file stops either being written
    with pytest.raises(SchemaValidationError, match="lone surrogate"):
        validate_schema(schema_id, value)


def test_paired_surrogates_and_non_ascii_text_pass():
    reply = json.loads('[{"node_id": "\\u00e9\\ud83d\\ude00", "label": 0, '
                       '"text": "caf\\u00e9", "neighbors": []}]')
    out = validate_schema("generated-nodes", reply)
    assert out[0]["node_id"] == "\u00e9\U0001F600" and out[0]["text"] == "caf\u00e9"


def test_unknown_schema_id_rejected():
    with pytest.raises(ValueError):
        validate_schema("no-such-schema", {})


# structured completion --------------------------------------------------------------

def test_complete_structured_first_try():
    provider = MockProvider({"0": '{"mode": "semantic"}'})
    assert complete_structured(provider, REQ, "mode-decision") == "semantic"
    assert provider.calls == 1


def test_complete_structured_repairs_once():
    provider = MockProvider({"0": "utter nonsense", "1": '{"goal_reached": true}'})
    out = complete_structured(provider, REQ, "goal-decision")
    assert out["goal_reached"] is True
    assert provider.calls == 2


def test_complete_structured_repair_prompt_carries_previous_reply():
    seen: list[ChatRequest] = []

    class Spy(MockProvider):
        def complete(self, req):
            seen.append(req)
            return super().complete(req)

    provider = Spy({"0": "utter nonsense", "1": '{"goal_reached": false}'})
    complete_structured(provider, REQ, "goal-decision")
    assert "utter nonsense" in seen[1].user_prompt
    assert seen[1].role_tag == REQ.role_tag


def test_complete_structured_two_failures_raise():
    provider = MockProvider({"0": "bad", "1": "still bad"})
    with pytest.raises(StructuredOutputError) as err:
        complete_structured(provider, REQ, "quality-scores")
    assert err.value.schema_id == "quality-scores"
    assert err.value.raw_replies == ("bad", "still bad")
    with pytest.raises(ValueError):
        complete_structured(provider, REQ, "bogus-schema")
