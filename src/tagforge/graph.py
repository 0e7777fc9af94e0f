"""Text-attributed graph data model.

A graph here is an ordered collection of node records, each carrying a text
payload, an integer class label, a split mask, and a neighbor list. Graphs are
undirected and simple: construction symmetrizes neighbor lists, drops
self-loops, and deduplicates repeated mentions, counting every such fix.
"""
from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

log = logging.getLogger("tagforge.graph")

MASKS = ("Train", "Validation", "Test")
# Rows per block when community detection sums the semantic pair term over
# all pairs (at most _ROW_BLOCK * n floats at once) or gathers sampled pairs.
# Detection's _aggregate sizes its blocks by a float budget instead. graph_stats
# runs its BFS sources in blocks of this size: _ROW_BLOCK / 64 uint64 words
# per node.
_ROW_BLOCK = 1024


class GraphSchemaError(ValueError):
    """Raised when a graph file cannot be parsed into the expected shape."""


class GraphValidationError(ValueError):
    """Raised when parsed graph content violates a structural constraint."""


def node_sort_key(node_id: str) -> tuple[int, int, str]:
    """Canonical ordering key: numeric ids sort numerically, others follow."""
    if node_id.isdigit():
        return (0, int(node_id), "")
    return (1, 0, node_id)


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """One node: identity, class label, text payload, neighbors, split mask."""

    node_id: str
    label: int
    text: str
    neighbors: tuple[str, ...]
    mask: str = "Train"


@dataclass(frozen=True)
class SynthesizedDelta:
    """A batch of accepted nodes plus the edges that attach them.

    ``bridge_edges`` are (new_id, original_id) pairs and the only edges a
    merge adds. Neighbor lists on the incoming records are ignored.
    """

    new_nodes: tuple[NodeRecord, ...]
    bridge_edges: tuple[tuple[str, str], ...] = ()


def _neighbor_key(node_id: str) -> tuple[tuple[int, int, str], str]:
    """Neighbor list order: ``node_sort_key``, then the id itself, so ids
    with equal keys such as "1" and "01" keep one order in every process."""
    return (node_sort_key(node_id), node_id)


def _check_record(node_id: str, label, mask, class_count: int) -> None:
    """Raise unless the label is an int in [0, class_count) and the mask is
    one of MASKS."""
    if not isinstance(label, int) or isinstance(label, bool):
        raise GraphValidationError(f"node {node_id!r}: label must be an integer")
    if not (0 <= label < class_count):
        raise GraphValidationError(
            f"node {node_id!r}: label {label} outside [0, {class_count})")
    if mask not in MASKS:
        raise GraphValidationError(
            f"node {node_id!r}: mask {mask!r} not in {MASKS}")


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, as ``np.unique``
    gives them. On numpy 2.4, ``np.unique`` took over ten times as long for
    a few thousand int64 values."""
    a = np.sort(a)
    return a[np.append(True, a[1:] != a[:-1])] if a.size else a


def _adjacency(row: np.ndarray, col: np.ndarray, n: int) -> sp.csr_matrix:
    """The n x n 0/1 matrix with an entry at each distinct position pair
    (row, col), given sorted by row, then col."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    csr = sp.csr_matrix((np.ones(col.size), col, indptr), shape=(n, n))
    csr.sort_indices()
    return csr


def _key_order(ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each position's rank in the ``_neighbor_key`` order of ``ids``, and
    its ``key_rank``: the rank of its ``node_sort_key`` among the distinct
    keys. Each key is computed once."""
    n = len(ids)
    by_key = sorted(zip(map(node_sort_key, ids), ids, range(n)))
    perm = [p for _, _, p in by_key]
    nbr_rank = np.empty(n, dtype=np.int64)
    nbr_rank[perm] = np.arange(n)
    new_key = [a[0] != b[0] for a, b in zip(by_key, by_key[1:])]
    key_rank = np.empty(n, dtype=np.int64)
    key_rank[perm] = np.cumsum([0, *new_key][:n])
    return nbr_rank, key_rank


def _checked_positions(ids: Sequence[str], labels: Sequence, masks: Sequence,
                       neighbors: Sequence[Sequence[str]],
                       class_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate the fields of records given column by column, and map each
    neighbour mention to a node position.

    In record order, raises on a duplicate id, then on the record's label and
    mask (``_check_record``); then on mentions of unknown ids, listing the
    first ten. Returns, for every mention in record order, the positions of
    its owner and of the node it names.
    """
    pos: dict[str, int] = {}
    for i, (nid, label, mask) in enumerate(zip(ids, labels, masks)):
        if nid in pos:
            raise GraphValidationError(
                f"duplicate node_id {nid!r} at positions {pos[nid]} and {i}")
        pos[nid] = i
        # a valid record passes at once; _check_record names the fault
        if type(label) is not int or not 0 <= label < class_count or mask not in MASKS:
            _check_record(nid, label, mask, class_count)
    get = pos.get
    dst = np.array([get(nb, -1) for nbs in neighbors for nb in nbs], dtype=np.int64)
    src = np.repeat(np.arange(len(ids)), [len(nbs) for nbs in neighbors])
    dangling = np.flatnonzero(dst < 0)
    if dangling.size:
        flat = [nb for nbs in neighbors for nb in nbs]
        shown = ", ".join(f"{ids[src[k]]}->{flat[k]}" for k in dangling[:10].tolist())
        raise GraphValidationError(
            f"{dangling.size} neighbor reference(s) to unknown nodes: {shown}")
    return src, dst


class TextAttributedGraph:
    """Immutable undirected simple graph over text-attributed nodes.

    Build instances through :meth:`from_records` or :func:`load_graph`; both
    normalize adjacency and validate labels, masks, and neighbor references.
    Each of these, :meth:`subgraph` and :func:`merge_synthesis` hands the
    constructor the ``adjacency_csr()`` it built from position arrays.
    """

    __slots__ = (
        "nodes", "class_count", "normalization_fixes",
        "_ids", "_pos", "_degrees", "_csr", "_key_rank",
    )

    def __init__(self, nodes: tuple[NodeRecord, ...], class_count: int,
                 csr: sp.csr_matrix, normalization_fixes: int = 0):
        self.nodes = nodes
        self.class_count = class_count
        self.normalization_fixes = normalization_fixes
        self._ids = tuple(rec.node_id for rec in nodes)
        self._pos = {node_id: i for i, node_id in enumerate(self._ids)}
        self._csr = csr
        # scipy keeps indptr as int32 while the entries fit
        self._degrees = np.diff(csr.indptr).astype(np.int64)
        self._degrees.flags.writeable = False
        self._key_rank = None

    @classmethod
    def from_records(cls, records: Sequence[NodeRecord], class_count: int) -> "TextAttributedGraph":
        if class_count < 0:
            raise GraphValidationError("class_count must be nonnegative")
        return cls._normalized(
            [rec.node_id for rec in records], [rec.label for rec in records],
            [rec.text for rec in records], [rec.neighbors for rec in records],
            [rec.mask for rec in records], class_count)

    @classmethod
    def _normalized(cls, ids: Sequence[str], labels: Sequence, texts: Sequence,
                    neighbors: Sequence[Sequence[str]], masks: Sequence,
                    class_count: int) -> "TextAttributedGraph":
        """The graph of records given column by column, validated by
        ``_checked_positions``.

        Adjacency is normalized on position arrays: self-loops, repeated
        mentions and one-sided mentions each count one fix, and the union of
        both directions is kept. Neighbor lists follow ``_neighbor_key`` and
        hold the nodes' own id objects, one copy per id. The sorted position
        pairs become ``adjacency_csr()``, and the key order the cached
        ``key_rank()``.
        """
        src, dst = _checked_positions(ids, labels, masks, neighbors, class_count)
        n = len(ids)
        loop = src == dst
        mentioned = src[~loop] * n + dst[~loop]
        once = _sorted_unique(mentioned)
        both = _sorted_unique(np.concatenate([once, once % n * n + once // n]))
        fixes = int(loop.sum()) + (mentioned.size - once.size) + (both.size - once.size)
        row, col = both // n, both % n

        nbr_rank, key_rank = _key_order(ids)
        csr = _adjacency(row, col, n)
        id_of = np.empty(n, dtype=object)
        id_of[:] = ids
        nbr_ids = tuple(id_of[col[np.lexsort((nbr_rank[col], row))]].tolist())
        bounds = csr.indptr.tolist()
        lists = map(nbr_ids.__getitem__, map(slice, bounds, bounds[1:]))
        g = cls(tuple(map(NodeRecord, ids, labels, texts, lists, masks)), class_count, csr, fixes)
        key_rank.flags.writeable = False
        g._key_rank = key_rank
        if fixes:
            log.info("graph normalization applied %d fixes", fixes)
        return g

    # basic accessors -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return self._csr.nnz // 2

    def ids(self) -> tuple[str, ...]:
        """Each position's id, built once per graph."""
        return self._ids

    def has_node(self, node_id: str) -> bool:
        return node_id in self._pos

    def node(self, node_id: str) -> NodeRecord:
        return self.nodes[self._pos[node_id]]

    def index_of(self, node_id: str) -> int:
        return self._pos[node_id]

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        return self.nodes[self._pos[node_id]].neighbors

    def degrees(self) -> np.ndarray:
        """Read-only int64 degree of each position."""
        return self._degrees

    def adjacency_csr(self) -> sp.csr_matrix:
        """The 0/1 adjacency matrix on node positions, with sorted indices."""
        return self._csr

    def key_rank(self) -> np.ndarray:
        """Read-only rank of each position's ``node_sort_key`` among the
        graph's distinct keys. The canonical node order is by this rank, then
        by position: ids with equal keys, such as "1" and "01", share a rank
        and tie by position."""
        if self._key_rank is None:
            self._key_rank = _key_order(self._ids)[1]
            self._key_rank.flags.writeable = False
        return self._key_rank

    def distinct_positions(self, positions: Iterable[int], what: str) -> np.ndarray:
        """The distinct positions in ``positions``, ascending, as int64. Raises
        ``ValueError``, naming them ``what``, unless each is an integer in
        ``[0, num_nodes)``."""
        idx, n = np.asarray(list(positions)), self.num_nodes
        if idx.size and (idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0
                         or idx.max() >= n):
            raise ValueError(f"{what} must be positions in [0, {n}): {idx.tolist()[:10]}")
        return _sorted_unique(idx.astype(np.int64))

    def subgraph(self, positions: Iterable[int]) -> "TextAttributedGraph":
        """Induced subgraph on node positions (``distinct_positions``), in the
        graph's node order, with all attributes and the CSR sliced from this
        graph's."""
        idx = self.distinct_positions(positions, "subgraph nodes")
        keep = set(map(self._ids.__getitem__, idx.tolist()))
        records = tuple(
            NodeRecord(rec.node_id, rec.label, rec.text,
                       tuple(nb for nb in rec.neighbors if nb in keep), rec.mask)
            for rec in map(self.nodes.__getitem__, idx.tolist()))
        return TextAttributedGraph(records, self.class_count, self._csr[idx][:, idx])

    def to_json_obj(self) -> dict:
        return {
            "class_count": self.class_count,
            "nodes": [
                {
                    "node_id": rec.node_id,
                    "label": rec.label,
                    "text": rec.text,
                    "neighbors": list(rec.neighbors),
                    "mask": rec.mask,
                }
                for rec in self.nodes
            ],
        }


# serialization -----------------------------------------------------------

def _coerce_id(raw) -> str:
    if isinstance(raw, bool):
        raise GraphSchemaError("node ids may not be booleans")
    if isinstance(raw, int):
        return str(raw)
    if isinstance(raw, str) and raw:
        return raw
    raise GraphSchemaError(f"node id must be a nonempty string or integer, got {raw!r}")


def _json_columns(obj) -> tuple[int, Sequence, Sequence, Sequence, Sequence, Sequence]:
    """The class count and the node fields of a TAG-JSON object, column by
    column, with ids coerced to strings. Raises ``GraphSchemaError`` on the
    first record, in record order, whose fields have the wrong shape."""
    if not isinstance(obj, dict):
        raise GraphSchemaError("top level must be a JSON object")
    if "class_count" not in obj or "nodes" not in obj:
        raise GraphSchemaError("top level requires 'class_count' and 'nodes'")
    class_count = obj["class_count"]
    if not isinstance(class_count, int) or isinstance(class_count, bool) or class_count < 0:
        raise GraphSchemaError("'class_count' must be a nonnegative integer")
    raw_nodes = obj["nodes"]
    if not isinstance(raw_nodes, list):
        raise GraphSchemaError("'nodes' must be a list")
    rows = []
    for i, item in enumerate(raw_nodes):
        if not isinstance(item, dict):
            raise GraphSchemaError(f"nodes[{i}] must be an object")
        try:
            node_id = _coerce_id(item["node_id"])
            label = item["label"]
            text = item["text"]
            neighbors = item["neighbors"]
            mask = item.get("mask", "Train")
        except KeyError as exc:
            raise GraphSchemaError(f"nodes[{i}] missing field {exc.args[0]!r}") from exc
        if not isinstance(text, str):
            raise GraphSchemaError(f"nodes[{i}].text must be a string")
        if not isinstance(neighbors, list):
            raise GraphSchemaError(f"nodes[{i}].neighbors must be a list")
        if not isinstance(label, int) or isinstance(label, bool):
            raise GraphSchemaError(f"nodes[{i}].label must be an integer")
        if not isinstance(mask, str):
            raise GraphSchemaError(f"nodes[{i}].mask must be a string")
        # _coerce_id returns a nonempty str as it is; the test skips the call
        rows.append((node_id, label, text,
                     [nb if nb.__class__ is str and nb else _coerce_id(nb) for nb in neighbors],
                     mask))
    return (class_count, *(zip(*rows) if rows else ((),) * 5))


def graph_from_json_obj(obj) -> TextAttributedGraph:
    class_count, ids, labels, texts, neighbors, masks = _json_columns(obj)
    return TextAttributedGraph._normalized(ids, labels, texts, neighbors, masks, class_count)


def node_ids_from_json_obj(obj) -> list[str]:
    """The node ids of a TAG-JSON object in record order, after every check
    ``graph_from_json_obj`` makes, with the same errors; builds no records."""
    class_count, ids, labels, _, neighbors, masks = _json_columns(obj)
    _checked_positions(ids, labels, masks, neighbors, class_count)
    return list(ids)


def load_graph(path: str) -> TextAttributedGraph:
    """Load a graph from a JSON file, normalizing and validating it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphSchemaError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return graph_from_json_obj(obj)


def atomic_write_text(path: str, content: str) -> None:
    """Write via a temp file and rename so readers never observe partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def graph_text(g: TextAttributedGraph) -> str:
    """The text of a graph file, as ``save_graph`` writes it."""
    return json.dumps(g.to_json_obj(), ensure_ascii=False, indent=2) + "\n"


def save_graph(g: TextAttributedGraph, path: str) -> None:
    atomic_write_text(path, graph_text(g))


# statistics --------------------------------------------------------------

def histogram_json(counts: dict) -> dict:
    """A histogram as the JSON reports write it: string keys, ascending by key."""
    return {str(k): v for k, v in sorted(counts.items())}


@dataclass(frozen=True)
class GraphStats:
    num_nodes: int
    num_edges: int
    avg_degree: float
    density: float
    global_clustering_coefficient: float
    avg_path_length: float
    connected_components: int
    largest_component_size: int
    degree_histogram: dict
    label_distribution: dict

    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "avg_degree": self.avg_degree,
            "density": self.density,
            "clustering_coefficient": self.global_clustering_coefficient,
            "avg_path_length": self.avg_path_length,
            "connected_components": self.connected_components,
            "largest_component_size": self.largest_component_size,
            "degree_histogram": histogram_json(self.degree_histogram),
            "label_distribution": histogram_json(self.label_distribution),
        }


def component_labels(
        g: TextAttributedGraph, keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Connected component label per node position, plus component sizes.

    With a boolean ``keep`` mask over node positions, the components are
    those of the subgraph induced by the kept nodes, and every dropped
    position is labeled -1. Labels number components in order of their
    first node position.
    """
    idx = np.arange(g.num_nodes) if keep is None else np.flatnonzero(keep)
    sub = g.adjacency_csr() if keep is None else g.adjacency_csr()[idx][:, idx]
    labels = np.full(g.num_nodes, -1, dtype=np.int64)
    if idx.size == 0:
        return labels, np.zeros(0, dtype=np.int64)
    count, sub_labels = csgraph.connected_components(sub, directed=False)
    labels[idx] = sub_labels
    return labels, np.bincount(sub_labels, minlength=count).astype(np.int64)


def largest_component(g: TextAttributedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the largest connected component in the graph's canonical
    order (``key_rank``), and the size of every component, for a graph with
    at least one node.

    Among equally large largest components, the one holding the first node
    in that order is taken, so the choice does not depend on record order.
    """
    comp, sizes = component_labels(g)
    order = np.argsort(g.key_rank(), kind="stable")
    in_order = comp[order]
    big = in_order[np.argmax(sizes[in_order] == sizes.max())]
    return order[in_order == big], sizes


def histograms(g: TextAttributedGraph) -> tuple[dict[int, int], dict[int, int]]:
    """Node count per degree and node count per label, keyed in node order."""
    return (dict(Counter(len(rec.neighbors) for rec in g.nodes)),
            dict(Counter(rec.label for rec in g.nodes)))


def local_clustering(g: TextAttributedGraph) -> np.ndarray:
    """Local clustering coefficient per node; zero for degree below two."""
    n = g.num_nodes
    if n == 0:
        return np.zeros(0)
    a = g.adjacency_csr()
    deg = g.degrees().astype(np.float64)
    tri = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2.0
    out = np.zeros(n)
    mask = deg >= 2
    out[mask] = 2.0 * tri[mask] / (deg[mask] * (deg[mask] - 1.0))
    return out


def graph_stats(g: TextAttributedGraph) -> GraphStats:
    """Connectivity, degree, clustering, and distance summary of a graph.

    Average path length is the mean shortest-path distance over node pairs of
    the largest connected component (``largest_component``); a graph with no
    pair yields zero. It is exact: a level-synchronous BFS runs 64 sources per
    uint64 word (Then et al., VLDB 2014) and sums integer hop counts, at
    O(diameter * m * L / 64) word operations for L nodes and m edges in that
    component.
    """
    n = g.num_nodes
    if n == 0:
        return GraphStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, {}, {})
    m = g.num_edges
    comp_idx, sizes = largest_component(g)
    largest = int(comp_idx.size)
    avg_path = 0.0
    if largest >= 2:
        sub = g.adjacency_csr()[comp_idx][:, comp_idx]
        starts, indices = sub.indptr[:-1], sub.indices
        total = 0
        for start in range(0, largest, _ROW_BLOCK):
            # bit j % 64 of word j // 64 in row v: source start + j has reached v
            bit = np.arange(min(_ROW_BLOCK, largest - start))
            frontier = np.zeros((largest, (bit.size + 63) // 64), dtype=np.uint64)
            frontier[start + bit, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
            unseen = ~frontier
            level = 0
            while True:
                level += 1
                # every node of the component has a neighbour, so no segment
                # of the reduction is empty
                nxt = np.bitwise_or.reduceat(np.take(frontier, indices, axis=0), starts, axis=0)
                nxt &= unseen
                reached = int(np.bitwise_count(nxt).sum())
                if reached == 0:
                    break
                total += level * reached
                unseen ^= nxt
                frontier = nxt
        avg_path = float(total) / (largest * (largest - 1))
    hist, label_dist = histograms(g)
    return GraphStats(
        num_nodes=n,
        num_edges=m,
        avg_degree=float(2.0 * m / n),
        density=float(2.0 * m / (n * (n - 1))) if n > 1 else 0.0,
        global_clustering_coefficient=float(local_clustering(g).mean()),
        avg_path_length=avg_path,
        connected_components=int(sizes.size),
        largest_component_size=largest,
        degree_histogram=hist,
        label_distribution=label_dist,
    )


# merging -----------------------------------------------------------------

def merge_synthesis(g: TextAttributedGraph, delta: SynthesizedDelta) -> TextAttributedGraph:
    """Graft accepted nodes onto a base graph without mutating it.

    Only the delta is validated: new ids are unique and not in ``g``, each
    new record passes the label and mask rule of ``from_records``, and each
    bridge joins a new node to a base node. The new records are appended to
    ``g``'s, so the new nodes take positions ``n .. n+k-1`` in delta order.
    Only the records of bridge targets are rebuilt; every other record is
    shared with ``g``. Neighbor lists hold the graph's own id objects, and a
    new node's neighbors are its bridge targets. The CSR is ``g``'s with
    both directions of each distinct bridge added.
    """
    n = g.num_nodes
    new_pos = {rec.node_id: n + i for i, rec in enumerate(delta.new_nodes)}
    dup = [nid for nid in new_pos if g.has_node(nid)]
    if dup:
        raise GraphValidationError(f"new node ids collide with base graph: {dup[:10]}")
    if len(new_pos) != len(delta.new_nodes):
        raise GraphValidationError("duplicate ids among new nodes")
    for rec in delta.new_nodes:
        _check_record(rec.node_id, rec.label, rec.mask, g.class_count)

    records = [*g.nodes, *delta.new_nodes]
    # far ends per bridge end; each new node has an entry, so its incoming list is dropped
    added: dict[int, set[int]] = {p: set() for p in new_pos.values()}
    for new_id, orig_id in delta.bridge_edges:
        if new_id not in new_pos:
            raise GraphValidationError(f"bridge edge references unknown new node {new_id!r}")
        if not g.has_node(orig_id):
            raise GraphValidationError(f"bridge edge references unknown base node {orig_id!r}")
        u, v = new_pos[new_id], g.index_of(orig_id)
        added[u].add(v)
        added.setdefault(v, set()).add(u)
    for p, near in added.items():
        rec = records[p]
        records[p] = NodeRecord(rec.node_id, rec.label, rec.text, tuple(sorted(
            {*(rec.neighbors if p < n else ()), *(records[q].node_id for q in near)},
            key=_neighbor_key)), rec.mask)
    m = len(records)
    bridges = np.array([p * m + q for p, near in added.items() for q in near], dtype=np.int64)
    pairs = np.sort(np.concatenate([
        np.repeat(np.arange(n), g.degrees()) * m + g.adjacency_csr().indices, bridges]))
    return TextAttributedGraph(tuple(records), g.class_count, _adjacency(pairs // m, pairs % m, m))
