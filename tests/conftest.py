import numpy as np
import pytest
from hypothesis import settings

from tagforge.graph import NodeRecord, TextAttributedGraph, _neighbor_key


def cosine_similarity(a, b):
    """Cosine of the angle between two vectors.

    Raises ValueError on dimension mismatch or a zero-norm operand.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vectors")
    return float(np.dot(x, y) / (nx * ny))


def edges(g):
    """Each undirected edge of ``g`` exactly once, oriented from the end with
    the smaller ``_neighbor_key``, so ids with equal ``node_sort_key`` such as
    "1" and "01" still give one orientation."""
    for rec in g.nodes:
        u = _neighbor_key(rec.node_id)
        for nb in rec.neighbors:
            if u < _neighbor_key(nb):
                yield (rec.node_id, nb)


def edge_set(g):
    return frozenset(edges(g))


def make_graph(adjacency, labels=None, class_count=None, masks=None, texts=None):
    """Build a graph from an adjacency dict; neighbor lists may be one-sided."""
    ids = sorted(adjacency)
    labels = labels or {}
    masks = masks or {}
    texts = texts or {}
    recs = [
        NodeRecord(
            node_id=i,
            label=labels.get(i, 0),
            text=texts.get(i, f"document text for node {i} with enough words"),
            neighbors=tuple(adjacency[i]),
            mask=masks.get(i, "Train"),
        )
        for i in ids
    ]
    if class_count is None:
        class_count = max(labels.values(), default=0) + 1 if labels else 1
    return TextAttributedGraph.from_records(recs, class_count)


def path_graph(n):
    return make_graph({str(i): [str(i + 1)] if i + 1 < n else [] for i in range(n)})


def triangle():
    return make_graph({"0": ["1", "2"], "1": ["2"], "2": []})


def two_k3():
    adj = {"0": ["1", "2"], "1": ["2"], "2": [], "3": ["4", "5"], "4": ["5"], "5": []}
    return make_graph(adj, labels={i: (0 if int(i) < 3 else 1) for i in adj},
                      class_count=2)


def complete_graph(n):
    return make_graph({str(i): [str(j) for j in range(i + 1, n)] for i in range(n)})


def random_graph(n, p, seed, class_count=3):
    rng = np.random.default_rng(seed)
    adj = {str(i): [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[str(i)].append(str(j))
    labels = {str(i): int(rng.integers(class_count)) for i in range(n)}
    masks = {str(i): ("Train", "Validation", "Test")[int(rng.integers(3))]
             for i in range(n)}
    return make_graph(adj, labels=labels, class_count=class_count, masks=masks)


def assignment(part):
    """A partition's communities as an id -> community index dict."""
    return dict(zip(part.ids, part.comm.tolist()))


def random_embeddings(g, dim=8, seed=0):
    from tagforge.community import EmbeddingTable
    rng = np.random.default_rng(seed)
    table = {}
    for nid in g.ids():
        v = rng.normal(size=dim)
        while np.linalg.norm(v) < 1e-9:
            v = rng.normal(size=dim)
        table[nid] = v
    return EmbeddingTable(table)


@pytest.fixture
def tmp_graph_file(tmp_path):
    from tagforge.graph import save_graph

    def _write(g, name="graph.json"):
        path = tmp_path / name
        save_graph(g, str(path))
        return str(path)

    return _write


# ``--hypothesis-profile deep`` runs a property test that reads
# ``settings.default.max_examples`` ten times as deep as tier-1's 400.
settings.register_profile("deep", max_examples=4000)
