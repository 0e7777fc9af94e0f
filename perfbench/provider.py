"""Offline provider that answers every agent role, for benchmark runs.

Replies are computed from the prompt, so the loop runs any number of
iterations with no script:

- Manager alternates semantic and topological by its own call ordinal, so
  both seed-selection paths run.
- Enhancement reads the capsule and the budget from the prompt and returns
  exactly the budget, each node citing real capsule ids.
- Evaluation scores each candidate from a hash of its id, so some fall
  below the acceptance bar.
- Goal always answers false, so every run reaches the iteration cap.

The provider times itself and counts prompt characters per role, so the
benchmark can subtract provider time from loop time. Before each reply it
times a short slice of the reference kernel (``calibrate.py``), so the machine's
speed is sampled all through the loop; that slice counts as provider time.
"""
from __future__ import annotations

import hashlib
import json
import re
import time
from collections import Counter

from tagforge.gateway import ChatRequest, MockProvider, prompt_key

import calibrate

_CAPSULE_HEAD = "Context nodes (the knowledge capsule):\n"
_CANDIDATE_HEAD = "Candidate nodes:\n"
_BUDGET = re.compile(r"Write exactly (\d+) new node")
_decoder = json.JSONDecoder()


def _json_after(text: str, head: str):
    start = text.index(head) + len(head)
    return _decoder.raw_decode(text, start)[0]


def id_score(node_id: str) -> float:
    """Deterministic score in [4, 10) from the node id."""
    h = int.from_bytes(hashlib.sha256(node_id.encode("utf-8")).digest()[:4], "big")
    return round(4.0 + 6.0 * h / 2 ** 32, 3)


class BenchProvider(MockProvider):
    def __init__(self, seed: int = 0, embed_dim: int = 32):
        super().__init__({}, seed=seed, embed_dim=embed_dim)
        self.provider_s = 0.0
        self.prompt_chars: Counter = Counter()
        self.role_calls: Counter = Counter()
        self.embed_texts = 0
        self.generated = 0
        self.reference_s: list[float] = []

    def complete(self, req: ChatRequest) -> str:
        t0 = time.perf_counter()
        try:
            self.reference_s.append(calibrate.reference_slice())
            self.role_calls[req.role_tag] += 1
            self.prompt_chars[req.role_tag] += len(req.system_prompt) + len(req.user_prompt)
            key = prompt_key(req)
            self.script[key] = self._reply(req)
            try:
                return super().complete(req)
            finally:
                del self.script[key]
        finally:
            self.provider_s += time.perf_counter() - t0

    def embed(self, texts):
        t0 = time.perf_counter()
        try:
            self.embed_texts += len(texts)
            return super().embed(texts)
        finally:
            self.provider_s += time.perf_counter() - t0

    def _reply(self, req: ChatRequest) -> str:
        role = req.role_tag
        if role == "Manager":
            mode = "semantic" if self.role_calls[role] % 2 == 1 else "topological"
            return json.dumps({"mode": mode})
        if role == "Enhancement":
            return json.dumps(self._generate(req.user_prompt))
        if role == "Evaluation":
            rows = _json_after(req.user_prompt, _CANDIDATE_HEAD)
            return json.dumps([
                {"node_id": row["node_id"],
                 "semantic_coherence": id_score(row["node_id"]),
                 "structural_integrity": id_score(row["node_id"] + "/s")}
                for row in rows])
        if role == "Goal":
            return json.dumps({"goal_reached": False,
                               "justification": "run to the iteration cap"})
        raise ValueError(f"no reply rule for role {role!r}")

    def _generate(self, prompt: str) -> list[dict]:
        capsule = _json_after(prompt, _CAPSULE_HEAD)
        budget = int(_BUDGET.search(prompt).group(1))
        out = []
        for _ in range(budget):
            k = self.generated
            self.generated += 1
            first = capsule[k % len(capsule)]
            second = capsule[(7 * k + 3) % len(capsule)]
            out.append({
                "node_id": f"syn{k}",
                "label": first["label"],
                "text": (f"Title: synthesized record {k}. Abstract: extends "
                         f"record {first['node_id']} toward {second['node_id']}."),
                "neighbors": sorted({first["node_id"], second["node_id"]}),
                "mask": "Train",
            })
        return out
