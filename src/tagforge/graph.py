"""Text-attributed graph data model.

A graph here is columns over node positions (ids, texts, class labels, split
masks) and a CSR adjacency matrix. Node records with neighbor lists are only
its input and output, built on demand. Graphs are undirected and simple:
construction symmetrizes neighbor lists, drops self-loops, and deduplicates
repeated mentions, counting every such fix.

TAG-JSON files are read and written column by column. ``load_graph`` pulls
each node field out of the decoded file in one pass and checks it in bulk;
records are walked one by one only to name a fault, so a fault raises the
same error, in the same order, as a record-by-record check would: schema
faults, then validation faults, then mentions of unknown ids, each stage in
record order. ``graph_text`` writes ``json.dumps(indent=2)``'s layout byte
for byte, with ``json``'s own string encoder, and builds no per-node dict.
"""
from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring
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

    def to_json_obj(self) -> dict:
        """The record as graph files and prompts write it."""
        return {"node_id": self.node_id, "label": self.label, "text": self.text,
                "neighbors": list(self.neighbors), "mask": self.mask}


@dataclass(frozen=True)
class SynthesizedDelta:
    """A batch of accepted nodes plus the edges that attach them.

    ``bridge_edges`` are (new_id, original_id) pairs and the only edges a
    merge adds. Neighbor lists on the incoming records are ignored.
    """

    new_nodes: tuple[NodeRecord, ...]
    bridge_edges: tuple[tuple[str, str], ...] = ()


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, as ``np.unique``
    gives them. On numpy 2.4, ``np.unique`` took over ten times as long for
    a few thousand int64 values."""
    a = np.sort(a)
    return a[np.append(True, a[1:] != a[:-1])] if a.size else a


def _gather(indptr: np.ndarray, indices: np.ndarray,
            rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored entries of ``rows`` in a CSR layout, row by row, and the
    index into ``rows`` each one belongs to."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    ends = np.cumsum(counts)
    at = np.repeat(lo - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)
    return np.repeat(np.arange(rows.size), counts), indices[at]


def _adjacency(row: np.ndarray, col: np.ndarray, n: int) -> sp.csr_matrix:
    """The n x n 0/1 matrix with an entry at each distinct position pair
    (row, col), given sorted by row, then col."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    csr = sp.csr_matrix((np.ones(col.size), col, indptr), shape=(n, n))
    csr.sort_indices()
    return csr


def _key_order(ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each position's rank in the neighbor list order of ``ids`` (by
    ``node_sort_key``, then by the id itself, so ids with equal keys such as
    "1" and "01" keep one order in every process), and
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
    return _read_only(nbr_rank), _read_only(key_rank)


def _all_instances(values: Iterable, cls: type) -> bool:
    return all(map(isinstance, values, repeat(cls)))


def _checked_positions(ids: Sequence[str], labels: Sequence, masks: Sequence,
                       mentions: Sequence[str], counts: Sequence[int],
                       class_count: int) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Validate the fields of records given column by column, and map each
    neighbour mention to a node position. ``mentions`` holds every record's
    mentions in record order, ``counts`` how many each record has.

    Ids, labels and masks are checked in bulk. If any check fails, the
    records are checked one by one, in record order, for a duplicate id, then
    for the record's label and mask (``_check_record``), and the first fault
    is raised. Then mentions of unknown ids raise, listing the first ten.
    Returns each id's position, and for every mention the positions of its
    owner and of the node it names.
    """
    n = len(ids)
    pos = dict(zip(ids, range(n)))
    if not (len(pos) == n and _all_instances(labels, int)
            and not any(map(isinstance, labels, repeat(bool)))
            and (n == 0 or 0 <= min(labels) and max(labels) < class_count)
            and all(map(MASKS.__contains__, masks))):
        seen: dict[str, int] = {}
        for i, (nid, label, mask) in enumerate(zip(ids, labels, masks)):
            if nid in seen:
                raise GraphValidationError(
                    f"duplicate node_id {nid!r} at positions {seen[nid]} and {i}")
            seen[nid] = i
            _check_record(nid, label, mask, class_count)
    dst = np.fromiter(map(pos.get, mentions, repeat(-1)), np.int64, len(mentions))
    src = np.repeat(np.arange(n), counts)
    dangling = np.flatnonzero(dst < 0)
    if dangling.size:
        shown = ", ".join(f"{ids[src[k]]}->{mentions[k]}" for k in dangling[:10].tolist())
        raise GraphValidationError(
            f"{dangling.size} neighbor reference(s) to unknown nodes: {shown}")
    return pos, src, dst


class TextAttributedGraph:
    """Immutable undirected simple graph over text-attributed nodes.

    The graph is its columns (``ids()``, ``texts()``, ``labels()``,
    ``masks()``) and ``adjacency_csr()``. :meth:`records` builds the
    ``NodeRecord`` of given positions, the form nodes take in and out.

    Build instances through :meth:`from_records` or :func:`load_graph`; both
    normalize adjacency and validate labels, masks, and neighbor references.
    Each of these, :meth:`subgraph` and :func:`merge_synthesis` hands the
    constructor its columns and the CSR it built from position arrays.
    """

    __slots__ = (
        "class_count", "normalization_fixes",
        "_ids", "_texts", "_labels", "_masks", "_pos", "_degrees", "_csr", "_key_order",
    )

    def __init__(self, ids: Iterable[str], texts: Iterable[str], labels: Sequence[int],
                 masks: Sequence[int], class_count: int, csr: sp.csr_matrix,
                 normalization_fixes: int = 0, pos: dict[str, int] | None = None):
        """``pos``, when given, maps each id to its position."""
        self.class_count = class_count
        self.normalization_fixes = normalization_fixes
        self._ids = tuple(ids)
        self._texts = tuple(texts)
        self._labels = _read_only(np.asarray(labels, dtype=np.int64))
        self._masks = _read_only(np.asarray(masks, dtype=np.int8))
        self._pos = dict(zip(self._ids, range(len(self._ids)))) if pos is None else pos
        self._csr = csr
        # scipy keeps indptr as int32 while the entries fit
        self._degrees = _read_only(np.diff(csr.indptr).astype(np.int64))
        self._key_order = None

    @classmethod
    def from_records(cls, records: Sequence[NodeRecord], class_count: int) -> "TextAttributedGraph":
        if class_count < 0:
            raise GraphValidationError("class_count must be nonnegative")
        return cls._normalized(
            class_count, [rec.node_id for rec in records], [rec.label for rec in records],
            [rec.text for rec in records],
            [nb for rec in records for nb in rec.neighbors],
            [len(rec.neighbors) for rec in records], [rec.mask for rec in records])

    @classmethod
    def _normalized(cls, class_count: int, ids: Sequence[str], labels: Sequence,
                    texts: Sequence, mentions: Sequence[str], counts: Sequence[int],
                    masks: Sequence) -> "TextAttributedGraph":
        """The graph of records given column by column, with their neighbour
        mentions flattened (``mentions``, ``counts``), validated by
        ``_checked_positions``.

        Adjacency is normalized on position arrays: self-loops, repeated
        mentions and one-sided mentions each count one fix, and the union of
        both directions is kept as ``adjacency_csr()``.
        """
        pos, src, dst = _checked_positions(ids, labels, masks, mentions, counts, class_count)
        n = len(ids)
        loop = src == dst
        mentioned = src[~loop] * n + dst[~loop]
        once = _sorted_unique(mentioned)
        both = _sorted_unique(np.concatenate([once, once % n * n + once // n]))
        fixes = int(loop.sum()) + (mentioned.size - once.size) + (both.size - once.size)
        if fixes:
            log.info("graph normalization applied %d fixes", fixes)
        return cls(ids, texts, labels, np.fromiter(map(MASKS.index, masks), np.int8, n),
                   class_count, _adjacency(both // n, both % n, n), fixes, pos)

    # basic accessors -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return self._csr.nnz // 2

    @property
    def nodes(self) -> tuple[NodeRecord, ...]:
        """Every node's record, in position order, built on each access."""
        return self.records(np.arange(self.num_nodes))

    def ids(self) -> tuple[str, ...]:
        """Each position's id."""
        return self._ids

    def texts(self) -> tuple[str, ...]:
        """Each position's text."""
        return self._texts

    def labels(self) -> np.ndarray:
        """Read-only int64 class label of each position."""
        return self._labels

    def masks(self) -> np.ndarray:
        """Read-only int8 split of each position, as an index into ``MASKS``."""
        return self._masks

    def has_node(self, node_id: str) -> bool:
        return node_id in self._pos

    def node(self, node_id: str) -> NodeRecord:
        return self.records([self._pos[node_id]])[0]

    def index_of(self, node_id: str) -> int:
        return self._pos[node_id]

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).neighbors

    def degrees(self) -> np.ndarray:
        """Read-only int64 degree of each position."""
        return self._degrees

    def adjacency_csr(self) -> sp.csr_matrix:
        """The 0/1 adjacency matrix on node positions, with sorted indices."""
        return self._csr

    def _order(self) -> tuple[np.ndarray, np.ndarray]:
        if self._key_order is None:
            self._key_order = _key_order(self._ids)
        return self._key_order

    def key_rank(self) -> np.ndarray:
        """Read-only rank of each position's ``node_sort_key`` among the
        graph's distinct keys. The canonical node order is by this rank, then
        by position: ids with equal keys, such as "1" and "01", share a rank
        and tie by position."""
        return self._order()[1]

    def records(self, positions: Sequence[int]) -> tuple[NodeRecord, ...]:
        """The records of ``positions`` (checked as in ``distinct_positions``),
        in the order given and with repeats.

        Each neighbour list holds the graph's own id objects, from the
        position's CSR row, ordered by id (``node_sort_key``, then the id
        itself): one sort of those rows' entries by row, then neighbour rank.
        """
        return tuple(map(NodeRecord, *self._record_fields(positions)))

    def _record_fields(self, positions: Sequence[int],
                       names: Sequence[str] | None = None) -> tuple[Iterable, ...]:
        """The ``NodeRecord`` fields of ``positions``, one iterable per field
        in field order, as ``records`` describes them. With ``names``, each
        id, the node's own and its neighbours', is given as the name of its
        position."""
        idx = self._positions(positions, "record positions")
        ids, at = self._ids if names is None else names, idx.tolist()
        row, col = _gather(self._csr.indptr, self._csr.indices, idx)
        col = col[np.argsort(row * self.num_nodes + self._order()[0][col])]
        nbr_ids = tuple(map(ids.__getitem__, col.tolist()))
        bounds = [0, *np.cumsum(self._degrees[idx]).tolist()]
        return (map(ids.__getitem__, at), self._labels[idx].tolist(),
                map(self._texts.__getitem__, at),
                map(nbr_ids.__getitem__, map(slice, bounds, bounds[1:])),
                map(MASKS.__getitem__, self._masks[idx].tolist()))

    def _positions(self, positions: Sequence[int], what: str) -> np.ndarray:
        idx, n = np.asarray(positions), self.num_nodes
        if idx.size and (idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0
                         or idx.max() >= n):
            raise ValueError(f"{what} must be positions in [0, {n}): {idx.tolist()[:10]}")
        return idx.astype(np.int64, copy=False)

    def distinct_positions(self, positions: Iterable[int], what: str) -> np.ndarray:
        """The distinct positions in ``positions``, ascending, as int64. Raises
        ``ValueError``, naming them ``what``, unless each is an integer in
        ``[0, num_nodes)``."""
        return _sorted_unique(self._positions(list(positions), what))

    def subgraph(self, positions: Iterable[int]) -> "TextAttributedGraph":
        """Induced subgraph on node positions (``distinct_positions``), in the
        graph's node order, with every column and the CSR sliced from this
        graph's."""
        idx = self.distinct_positions(positions, "subgraph nodes")
        keep = idx.tolist()
        return TextAttributedGraph(
            map(self._ids.__getitem__, keep), map(self._texts.__getitem__, keep),
            self._labels[idx], self._masks[idx], self.class_count, self._csr[idx][:, idx])


# serialization -----------------------------------------------------------

def _coerce_id(raw) -> str:
    if isinstance(raw, bool):
        raise GraphSchemaError("node ids may not be booleans")
    if isinstance(raw, int):
        return str(raw)
    if isinstance(raw, str) and raw:
        return raw
    raise GraphSchemaError(f"node id must be a nonempty string or integer, got {raw!r}")


def _coerced_ids(raw: list) -> list[str]:
    """``_coerce_id`` of each item; a list of nonempty strings as it is."""
    if _all_instances(raw, str) and all(raw):
        return raw
    return list(map(_coerce_id, raw))


def _encodable(strings: Iterable[str]) -> bool:
    """Whether UTF-8 can encode every string: a lone surrogate, which a JSON
    escape can carry, would load and then stop the graph being written."""
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _raise_schema_fault(raw_nodes: list) -> None:
    """Raise ``GraphSchemaError`` for the first record, in record order,
    whose fields have the wrong shape or hold a string UTF-8 cannot encode.
    Called when a bulk check of ``_json_columns`` failed, so one does."""
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
        mentions = list(map(_coerce_id, neighbors))
        for field, strings in (("node_id", [node_id]), ("text", [text]),
                               ("neighbors", mentions)):
            if not _encodable(strings):
                raise GraphSchemaError(f"nodes[{i}].{field} holds a lone surrogate")
    raise AssertionError("a bulk schema check failed on records that pass one by one")


def _json_columns(obj) -> tuple[int, list, list, list, list, list, list]:
    """The class count and the node fields of a TAG-JSON object, column by
    column as ``TextAttributedGraph._normalized`` takes them: ids, labels,
    texts, every record's neighbour mentions in record order with each
    record's count, and masks. Ids and mentions are coerced to strings.

    Each field is pulled out in one comprehension and checked in bulk. If
    any check fails, ``_raise_schema_fault`` names the first record at
    fault."""
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
    if not _all_instances(raw_nodes, dict):
        _raise_schema_fault(raw_nodes)
    try:
        ids = _coerced_ids([item["node_id"] for item in raw_nodes])
        labels = [item["label"] for item in raw_nodes]
        texts = [item["text"] for item in raw_nodes]
        neighbors = [item["neighbors"] for item in raw_nodes]
        masks = [item.get("mask", "Train") for item in raw_nodes]
        ok = (_all_instances(texts, str) and _all_instances(neighbors, list)
              and _all_instances(labels, int) and not any(map(isinstance, labels, repeat(bool)))
              and _all_instances(masks, str))
        if ok:
            mentions = _coerced_ids([nb for nbs in neighbors for nb in nbs])
            ok = _encodable(ids) and _encodable(texts) and _encodable(mentions)
    except (KeyError, ValueError):  # a missing field, an id that is not one
        ok = False
    if not ok:
        _raise_schema_fault(raw_nodes)
    return class_count, ids, labels, texts, mentions, list(map(len, neighbors)), masks


def graph_from_json_obj(obj) -> TextAttributedGraph:
    """The graph of a decoded TAG-JSON object, as ``load_graph`` builds it."""
    return TextAttributedGraph._normalized(*_json_columns(obj))


def read_json(path: str):
    """The JSON value in a UTF-8 file. A file that is not UTF-8 or not JSON
    raises ``GraphSchemaError`` naming the path and the place."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise GraphSchemaError(
            f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise GraphSchemaError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_graph(path: str) -> TextAttributedGraph:
    """Load a graph from a TAG-JSON file, normalizing and validating it.

    Each node field is gathered into one column and checked in bulk; only
    when a check fails are the records walked one by one, to name the first
    record at fault. Faults raise in this order, each stage in record order:
    a file that is not UTF-8 or not JSON, then schema faults
    (``GraphSchemaError``: a field missing or of the wrong type, an id that
    is neither a nonempty string nor an integer, an id, text or mention
    holding a lone surrogate), then validation faults
    (``GraphValidationError``: a duplicate id, a label outside
    ``[0, class_count)``, a mask not in ``MASKS``), then mentions of unknown
    ids.
    """
    return graph_from_json_obj(read_json(path))


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


# the text around a node's five fields in a graph file, as json.dumps(indent=2)
# lays out one item of "nodes"
_NODE_FRAME = ('    {\n      "node_id": ', ',\n      "label": ', ',\n      "text": ',
               ',\n      "neighbors": ', ',\n      "mask": ', '\n    },\n')


def _list_text(items: Sequence[str]) -> str:
    """A node's encoded neighbour ids, laid out as json.dumps(indent=2) lays
    out its "neighbors"."""
    return "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"


def graph_text(g: TextAttributedGraph) -> str:
    """The text of a graph file, as ``save_graph`` writes it: byte for byte
    what ``json.dumps(obj, ensure_ascii=False, indent=2) + "\\n"`` gives for
    ``obj = {"class_count": g.class_count, "nodes": [rec.to_json_obj() for
    rec in g.nodes]}``.

    The layout is written directly, because ``indent`` makes ``json`` fall
    back to its pure-Python encoder. Every string goes through
    ``json.encoder.encode_basestring``, the function ``json.dumps`` calls
    with ``ensure_ascii=False``: each id once, each text and mask once per
    node. Nodes come in position order, each with its five fields in
    ``NodeRecord`` order and its neighbours in ``records`` order, one per
    line; an empty list is written ``[]``. The pieces of every node are
    placed into one list, column by column, and joined once.
    """
    n = g.num_nodes
    head = f'{{\n  "class_count": {json.dumps(g.class_count)},\n  "nodes": '
    if n == 0:
        return head + "[]\n}\n"
    names = list(map(encode_basestring, g.ids()))
    ids, labels, texts, neighbors, masks = g._record_fields(np.arange(n), names)
    # node i's pieces are parts[11 * i: 11 * (i + 1)]: its frame's six pieces
    # with its five fields between them
    parts = [None] * (11 * n)
    for k, piece in enumerate(_NODE_FRAME):
        parts[2 * k::11] = [piece] * n
    parts[1::11] = ids
    parts[3::11] = map(str, labels)
    parts[5::11] = map(encode_basestring, texts)
    parts[7::11] = map(_list_text, neighbors)
    parts[9::11] = map(encode_basestring, masks)
    parts[0] = head + "[\n" + parts[0]
    parts[-1] = "\n    }\n  ]\n}\n"
    return "".join(parts)


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
    return dict(Counter(g.degrees().tolist())), dict(Counter(g.labels().tolist()))


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
    The columns are ``g``'s with the delta's appended, and the CSR is
    ``g``'s with both directions of each distinct bridge added: a new node's
    neighbors are its bridge targets.
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

    for new_id, orig_id in delta.bridge_edges:
        if new_id not in new_pos:
            raise GraphValidationError(f"bridge edge references unknown new node {new_id!r}")
        if not g.has_node(orig_id):
            raise GraphValidationError(f"bridge edge references unknown base node {orig_id!r}")
    u, v = np.array([(new_pos[a], g.index_of(b)) for a, b in delta.bridge_edges],
                    dtype=np.int64).reshape(-1, 2).T
    m = n + len(new_pos)
    pairs = _sorted_unique(np.concatenate([
        np.repeat(np.arange(n), g.degrees()) * m + g.adjacency_csr().indices,
        u * m + v, v * m + u]))
    new = delta.new_nodes
    return TextAttributedGraph(
        (*g.ids(), *new_pos), (*g.texts(), *(rec.text for rec in new)),
        np.concatenate([g.labels(), np.fromiter((rec.label for rec in new), np.int64)]),
        np.concatenate([g.masks(), np.fromiter((MASKS.index(rec.mask) for rec in new), np.int8)]),
        g.class_count, _adjacency(pairs // m, pairs % m, m))
