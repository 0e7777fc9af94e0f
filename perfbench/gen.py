"""Seeded planted-label text-attributed graphs for the benchmark.

Each node gets a label drawn uniformly from ``labels`` classes and a split
mask. Each edge picks a uniform endpoint, then a partner of the same label
with probability ``p_in`` and of another label otherwise, so generation costs
O(n + m). The graph is written as TAG-JSON with both directions of every edge
listed, so loading it needs no normalization fixes.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOPICS = (
    "iterative retrieval over layered index structures",
    "spectral relaxations of balanced partition objectives",
    "sample-efficient exploration bounds for bandit feedback",
    "distillation of ensemble predictions into compact models",
    "margin-based generalization under label noise",
    "streaming sketches for heavy-hitter detection",
    "message passing on sparse relational data",
)
MASKS = ("Train", "Validation", "Test")
MASK_P = (0.6, 0.2, 0.2)
EMBED_DIM = 32


def planted_graph(n: int, avg_degree: float, seed: int, part: int = 0,
                  labels: int = 7, p_in: float = 0.8) -> dict:
    """TAG-JSON object of a planted-label graph with about n*avg_degree/2 edges.

    ``part`` tells apart the several graphs one seed makes.
    """
    if n < 2 * labels:
        raise ValueError(f"need at least {2 * labels} nodes for {labels} labels")
    rng = np.random.default_rng([seed, n, labels, part])
    label = rng.integers(labels, size=n)
    label[:labels] = np.arange(labels)  # every label occurs
    mask = rng.choice(len(MASKS), size=n, p=MASK_P)
    members = [np.flatnonzero(label == lbl) for lbl in range(labels)]

    target = int(round(n * avg_degree / 2))
    edges: dict[tuple[int, int], None] = {}
    while len(edges) < target:
        batch = target - len(edges) + 64
        u = rng.integers(n, size=batch)
        same = rng.random(batch) < p_in
        other = (label[u] + rng.integers(1, labels, size=batch)) % labels
        pick = np.where(same, label[u], other)
        pos = rng.random(batch)
        for a, lbl, r in zip(u.tolist(), pick.tolist(), pos.tolist()):
            group = members[lbl]
            b = int(group[int(r * group.size)])
            if a != b:
                edges.setdefault((a, b) if a < b else (b, a))
            if len(edges) == target:
                break

    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    nodes = []
    for i in range(n):
        topic = TOPICS[int(label[i]) % len(TOPICS)]
        nodes.append({
            "node_id": str(i),
            "label": int(label[i]),
            "text": f"Title: notes on {topic}. Abstract: record {i} studies {topic}.",
            "neighbors": [str(j) for j in sorted(adj[i])],
            "mask": MASKS[int(mask[i])],
        })
    return {"class_count": labels, "nodes": nodes}


def label_embeddings(graph: dict, seed: int, part: int = 0, dim: int = EMBED_DIM) -> dict:
    """Node id -> vector: a per-label centroid plus Gaussian noise."""
    rng = np.random.default_rng([seed, dim, 7, part])
    centroids = rng.normal(size=(graph["class_count"], dim))
    noise = rng.normal(scale=0.6, size=(len(graph["nodes"]), dim))
    return {node["node_id"]: (centroids[node["label"]] + noise[i]).tolist()
            for i, node in enumerate(graph["nodes"])}


def write_inputs(directory: Path, n: int, avg_degree: float, seed: int,
                 embeddings: bool = False, part: int = 0) -> dict:
    """Write graph.json (and emb.json) into ``directory``; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    graph = planted_graph(n, avg_degree, seed, part)
    paths = {"graph": directory / "graph.json"}
    paths["graph"].write_text(json.dumps(graph), encoding="utf-8")
    if embeddings:
        paths["embeddings"] = directory / "emb.json"
        paths["embeddings"].write_text(
            json.dumps(label_embeddings(graph, seed, part)), encoding="utf-8")
    return paths
