"""Provider access for the agent roles.

One wire protocol: POST {endpoint}/chat/completions with the familiar
{model, messages, temperature, max_tokens} body, replies read from
choices[0].message.content; POST {endpoint}/embeddings for vectors. A mock
provider replays scripted replies and hashes texts into deterministic unit
vectors so every offline test runs without a network.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .community import embedding_row
from .graph import atomic_write_text, read_json

if TYPE_CHECKING:
    import requests

log = logging.getLogger("tagforge.gateway")

ROLE_TEMPERATURE = {
    "Manager": 0.0,
    "Enhancement": 0.7,
    "Evaluation": 0.0,
    "Goal": 0.0,
}
EMBED_BATCH = 64
SCHEMA_IDS = ("generated-nodes", "quality-scores", "mode-decision", "goal-decision")
# The scale of both quality-scores dimensions: the Evaluation prompts state
# it, and the loop clamps every score onto it.
SCORE_MIN = 0.0
SCORE_MAX = 10.0


class TransportError(RuntimeError):
    """Retries exhausted on timeouts, connection failures, 429s, or 5xx."""


class PermanentProviderError(RuntimeError):
    """Non-retryable provider failure (4xx other than 429, malformed body)."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class MockScriptError(PermanentProviderError):
    """The mock script has no reply for a prompt."""


class SchemaValidationError(ValueError):
    pass


class StructuredOutputError(RuntimeError):
    """Structured output stayed invalid after one repair attempt."""

    def __init__(self, schema_id: str, raw_replies: Sequence[str]):
        super().__init__(
            f"reply did not satisfy schema {schema_id!r} after repair attempt")
        self.schema_id = schema_id
        self.raw_replies = tuple(raw_replies)


@dataclass
class ChatRequest:
    role_tag: str
    system_prompt: str
    user_prompt: str

    def resolved_temperature(self) -> float:
        return ROLE_TEMPERATURE.get(self.role_tag, 0.0)


@dataclass
class ProviderConfig:
    endpoint: str = "http://localhost:8000/v1"
    model: str = "local-chat"
    embed_model: str | None = None
    api_key_env: str = "TAGFORGE_API_KEY"
    timeout_s: float = 60.0
    max_retries: int = 3
    backoff_base_ms: float = 250.0


class AuditLog:
    """Ordered JSON-lines record of every call and decision in a run."""

    def __init__(self):
        self.entries: list[dict] = []
        self._seq = 0

    def record(self, kind: str, **fields) -> dict:
        entry = {"seq": self._seq, "kind": kind}
        entry.update(fields)
        self._seq += 1
        self.entries.append(entry)
        return entry

    def to_jsonl(self) -> str:
        if not self.entries:
            return ""
        return "\n".join(
            json.dumps(e, sort_keys=True, ensure_ascii=False) for e in self.entries) + "\n"

    def write(self, path: str) -> None:
        atomic_write_text(path, self.to_jsonl())


def _prompt_digest(req: ChatRequest) -> str:
    """SHA-256 hex digest of a request's role tag and both prompts. A lone
    surrogate, which a repair prompt may quote from a reply, is hashed as its
    own code unit rather than raising."""
    return hashlib.sha256(
        f"{req.role_tag}\x1f{req.system_prompt}\x1f{req.user_prompt}".encode(
            "utf-8", "surrogatepass")
    ).hexdigest()


def prompt_key(req: ChatRequest) -> str:
    return f"{req.role_tag}:{_prompt_digest(req)[:16]}"


class HttpProvider:
    """Chat and embedding calls over the standard completion wire format.

    Timeouts, connection drops, 429, and 5xx retry with exponential backoff
    plus jitter; other 4xx are permanent.
    """

    def __init__(self, config: ProviderConfig, audit: AuditLog | None = None,
                 session: requests.Session | None = None,
                 sleeper: Callable[[float], None] = time.sleep):
        # Imported here because importing requests adds about 0.07 s to the
        # start-up of every command, and only this provider needs it.
        import requests

        self.config = config
        self.audit = audit
        self._session = session or requests.Session()
        self._sleep = sleeper
        self._jitter = random.Random(0x5eed)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, path: str, body: dict) -> dict:
        import requests

        url = self.config.endpoint.rstrip("/") + path
        last_reason = "no attempt made"
        attempts = self.config.max_retries + 1
        for attempt in range(attempts):
            if attempt > 0:
                base = self.config.backoff_base_ms
                delay_ms = base * (2 ** (attempt - 1)) + self._jitter.uniform(0, base)
                self._sleep(delay_ms / 1000.0)
            try:
                resp = self._session.post(
                    url, json=body, headers=self._headers(),
                    timeout=self.config.timeout_s)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_reason = f"{type(exc).__name__}: {exc}"
                continue
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise PermanentProviderError(
                        f"{url}: 200 reply is not JSON: {exc}", status=200) from exc
            if resp.status_code == 429 or resp.status_code >= 500:
                last_reason = f"HTTP {resp.status_code}"
                continue
            raise PermanentProviderError(
                f"{url}: HTTP {resp.status_code}: {resp.text[:300]}",
                status=resp.status_code)
        raise TransportError(
            f"{url}: giving up after {attempts} attempts ({last_reason})")

    def complete(self, req: ChatRequest) -> str:
        body = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": req.system_prompt},
                {"role": "user", "content": req.user_prompt},
            ],
            "temperature": req.resolved_temperature(),
            "max_tokens": 2048,
        }
        started = time.monotonic()
        reply = self._post("/chat/completions", body)
        latency_ms = (time.monotonic() - started) * 1000.0
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise PermanentProviderError(
                f"chat reply missing choices[0].message.content: {exc}") from exc
        if not isinstance(content, str):
            raise PermanentProviderError("chat reply content is not a string")
        if self.audit is not None:
            self.audit.record(
                "llm_call", provider="http", role=req.role_tag,
                prompt_sha256=_prompt_digest(req), model=self.config.model,
                temperature=req.resolved_temperature(),
                latency_ms=round(latency_ms, 3),
                usage=reply.get("usage"))
        return content

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            return []
        if any(not t for t in texts):
            raise ValueError("cannot embed empty strings")
        body = {
            "model": self.config.embed_model or self.config.model,
            "input": list(texts),
        }
        started = time.monotonic()
        reply = self._post("/embeddings", body)
        latency_ms = (time.monotonic() - started) * 1000.0
        try:
            rows = sorted(reply["data"], key=lambda item: item["index"])
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in rows]
        except (KeyError, TypeError) as exc:
            raise PermanentProviderError(
                f"embeddings reply missing data[*].embedding: {exc}") from exc
        if len(vectors) != len(texts):
            raise PermanentProviderError(
                f"embeddings reply has {len(vectors)} rows for {len(texts)} inputs")
        if self.audit is not None:
            self.audit.record(
                "embed_call", provider="http", count=len(texts),
                latency_ms=round(latency_ms, 3), usage=reply.get("usage"))
        return vectors


def _mock_vector(text: str, dim: int, seed: int) -> np.ndarray:
    if text == "":
        raise ValueError("cannot embed an empty string")
    base = hashlib.sha256(f"{seed}\x1f{text}".encode("utf-8")).digest()
    vals: list[float] = []
    counter = 0
    while len(vals) < dim:
        block = hashlib.sha256(base + counter.to_bytes(4, "big")).digest()
        for i in range(0, len(block), 4):
            word = int.from_bytes(block[i:i + 4], "big")
            vals.append(word / 2 ** 32 * 2.0 - 1.0)
        counter += 1
    vec = np.array(vals[:dim], dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


class MockProvider:
    """Scripted provider for offline runs.

    Replies come from a flat JSON map keyed either by ``Role:hash16`` (see
    :func:`prompt_key`) or by the zero-based ordinal of the chat call as a
    string. Embeddings are hash projections: deterministic, unit-norm, and
    distinct for distinct texts with overwhelming probability.
    """

    def __init__(self, script: Mapping[str, str] | None = None, seed: int = 0,
                 embed_dim: int = 32, audit: AuditLog | None = None):
        self.script = dict(script or {})
        self.seed = seed
        self.embed_dim = embed_dim
        self.audit = audit
        self.calls = 0
        self.embed_calls = 0

    @classmethod
    def from_file(cls, path: str, seed: int = 0, audit: AuditLog | None = None) -> "MockProvider":
        script = read_json(path)
        if not isinstance(script, dict) or not all(
                isinstance(v, str) for v in script.values()):
            raise ValueError(f"{path}: mock script must map string keys to string replies")
        return cls(script, seed=seed, audit=audit)

    def complete(self, req: ChatRequest) -> str:
        ordinal = self.calls
        self.calls += 1
        key = prompt_key(req)
        if key in self.script:
            reply = self.script[key]
        elif str(ordinal) in self.script:
            reply = self.script[str(ordinal)]
        else:
            raise MockScriptError(
                f"mock script has no reply for {key} (call ordinal {ordinal})")
        if self.audit is not None:
            self.audit.record(
                "llm_call", provider="mock", role=req.role_tag,
                prompt_sha256=_prompt_digest(req), model="mock",
                temperature=req.resolved_temperature(),
                latency_ms=0.0, usage=None)
        return reply

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        self.embed_calls += 1
        out = [_mock_vector(t, self.embed_dim, self.seed) for t in texts]
        if self.audit is not None:
            self.audit.record(
                "embed_call", provider="mock", count=len(texts),
                latency_ms=0.0, usage=None)
        return out


def embed_texts(provider, texts: Sequence[str], dim: int = 0) -> list[np.ndarray]:
    """Embed texts in batches of EMBED_BATCH and check every reply.

    Each reply must hold one row per text, and every row must pass
    ``community.embedding_row`` at one dimension: ``dim`` unless it is 0,
    else that of the first row. Any other reply raises PermanentProviderError.
    """
    out: list[np.ndarray] = []
    for start in range(0, len(texts), EMBED_BATCH):
        chunk = texts[start:start + EMBED_BATCH]
        rows = provider.embed(chunk)
        if len(rows) != len(chunk):
            raise PermanentProviderError(
                f"embedding reply has {len(rows)} rows for {len(chunk)} texts")
        for row in rows:
            try:
                vec, _ = embedding_row(row, dim)
            except ValueError as exc:
                raise PermanentProviderError(str(exc)) from exc
            dim = vec.size
            out.append(vec)
    return out


# structured output ---------------------------------------------------------

def extract_json(text: str):
    """Best-effort extraction of the first JSON value inside a reply.

    Returns (value, True) or (None, False). Tolerates code fences and prose
    on either side of the value.
    """
    stripped = text.strip()
    try:
        return json.loads(stripped), True
    except ValueError:
        pass
    decoder = json.JSONDecoder()
    for idx, ch in enumerate(text):
        if ch in "[{":
            try:
                value, _ = decoder.raw_decode(text[idx:])
                return value, True
            except ValueError:
                continue
    return None, False


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaValidationError(message)


def _as_number(value, message: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), message)
    out = float(value)
    _require(np.isfinite(out), message)
    return out


_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _text(value, what: str) -> str:
    """``value`` if it is a string UTF-8 can encode: a lone surrogate, which a
    JSON escape can carry, would stop the audit and the graph being written."""
    _require(isinstance(value, str), f"{what} must be a string")
    _require(not _LONE_SURROGATE.search(value), f"{what} holds a lone surrogate")
    return value


def _norm_id(value) -> str:
    _require(isinstance(value, (str, int)) and not isinstance(value, bool),
             "node_id must be a string or integer")
    out = str(value)
    _require(out != "", "node_id must be nonempty")
    return _text(out, "node_id")


def validate_schema(schema_id: str, value, raw_text: str = ""):
    """Normalize a parsed reply against one of the named reply shapes."""
    if schema_id == "mode-decision":
        candidates: list[str] = []
        if isinstance(value, dict) and isinstance(value.get("mode"), str):
            candidates.append(value["mode"])
        elif isinstance(value, str):
            candidates.append(value)
        elif value is None and raw_text:
            candidates.append(raw_text)
        _require(bool(candidates), "mode decision must be text or {'mode': ...}")
        lowered = candidates[0].lower()
        has_sem = "semantic" in lowered
        has_top = "topological" in lowered
        _require(has_sem != has_top,
                 "mode decision must name exactly one of semantic or topological")
        return "semantic" if has_sem else "topological"

    if schema_id == "generated-nodes":
        if isinstance(value, dict) and isinstance(value.get("nodes"), list):
            value = value["nodes"]
        _require(isinstance(value, list), "generated nodes must be a JSON array")
        out = []
        for i, item in enumerate(value):
            _require(isinstance(item, dict), f"nodes[{i}] must be an object")
            _require("node_id" in item, f"nodes[{i}] missing node_id")
            _require("label" in item, f"nodes[{i}] missing label")
            _require("text" in item, f"nodes[{i}] missing text")
            _require("neighbors" in item, f"nodes[{i}] missing neighbors")
            label = item["label"]
            _require(isinstance(label, int) and not isinstance(label, bool),
                     f"nodes[{i}].label must be an integer")
            _require(isinstance(item["neighbors"], list),
                     f"nodes[{i}].neighbors must be a list")
            out.append({
                "node_id": _norm_id(item["node_id"]),
                "label": label,
                "text": _text(item["text"], f"nodes[{i}].text"),
                "neighbors": [_norm_id(nb) for nb in item["neighbors"]],
                "mask": _text(item.get("mask", "Train"), f"nodes[{i}].mask"),
            })
        return out

    if schema_id == "quality-scores":
        if isinstance(value, dict) and isinstance(value.get("scores"), list):
            value = value["scores"]
        _require(isinstance(value, list), "quality scores must be a JSON array")
        out = []
        for i, item in enumerate(value):
            _require(isinstance(item, dict), f"scores[{i}] must be an object")
            _require("node_id" in item, f"scores[{i}] missing node_id")
            nid = _norm_id(item["node_id"])
            if "semantic_coherence" in item or "structural_integrity" in item:
                _require("semantic_coherence" in item and "structural_integrity" in item,
                         f"scores[{i}] needs both dimensions")
                sem = _as_number(item["semantic_coherence"],
                                 f"scores[{i}].semantic_coherence must be a number")
                struct = _as_number(item["structural_integrity"],
                                    f"scores[{i}].structural_integrity must be a number")
            else:
                _require("score" in item, f"scores[{i}] needs dimensions or a score")
                sem = struct = _as_number(item["score"],
                                          f"scores[{i}].score must be a number")
            out.append({"node_id": nid, "semantic_coherence": sem,
                        "structural_integrity": struct})
        return out

    if schema_id == "goal-decision":
        if isinstance(value, bool):
            return {"goal_reached": value, "justification": ""}
        if isinstance(value, dict):
            flag = value.get("goal_reached", value.get("converged"))
            _require(isinstance(flag, bool),
                     "goal decision needs a boolean goal_reached")
            return {"goal_reached": flag, "justification": _text(
                value.get("justification", ""), "goal justification")}
        raise SchemaValidationError("goal decision must be a boolean or an object")

    raise ValueError(f"unknown schema id {schema_id!r}")


_REPAIR_HINTS = {
    "mode-decision": 'Reply with JSON like {"mode": "semantic"} or {"mode": "topological"}.',
    "generated-nodes": (
        "Reply with a JSON array of node objects, each with keys node_id, "
        "label (integer), text, neighbors (array of existing node ids), and mask."),
    "quality-scores": (
        "Reply with a JSON array of objects, each with keys node_id, "
        f"semantic_coherence ({SCORE_MIN:g}-{SCORE_MAX:g}), and "
        f"structural_integrity ({SCORE_MIN:g}-{SCORE_MAX:g})."),
    "goal-decision": 'Reply with JSON like {"goal_reached": false, "justification": "..."}.',
}


def complete_structured(provider, req: ChatRequest, schema_id: str):
    """Request a reply that must parse under a named schema.

    On an invalid first reply, re-asks once with the schema description and
    the offending text; a second failure raises StructuredOutputError.
    """
    if schema_id not in SCHEMA_IDS:
        raise ValueError(f"unknown schema id {schema_id!r}")
    raw1 = provider.complete(req)
    value, found = extract_json(raw1)
    try:
        return validate_schema(schema_id, value if found else None, raw_text=raw1)
    except SchemaValidationError as first_error:
        log.info("reply failed schema %s (%s); asking for repair", schema_id, first_error)
    repair = ChatRequest(
        role_tag=req.role_tag,
        system_prompt=req.system_prompt,
        user_prompt=(
            "The previous reply could not be used because it did not match the "
            f"required format. {_REPAIR_HINTS[schema_id]} Output only the JSON "
            "value, with no surrounding prose.\n\nPrevious reply:\n" + raw1),
    )
    raw2 = provider.complete(repair)
    value, found = extract_json(raw2)
    try:
        return validate_schema(schema_id, value if found else None, raw_text=raw2)
    except SchemaValidationError as exc:
        raise StructuredOutputError(schema_id, (raw1, raw2)) from exc
