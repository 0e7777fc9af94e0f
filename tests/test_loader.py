"""The one-pass columnar graph loader against the loader it replaced.

``reference_graph_from_json_obj`` and ``reference_from_records`` are the
loader that validated every record, built it, and built it again while
normalizing, kept word for word (``from_records`` as a function), with two
exceptions. Its ``cls`` is ``ReferenceGraph``: the graph as it was when it
stored its records. And a record whose id, text or neighbour mention holds a
lone surrogate is a schema fault, checked after the record's other fields:
UTF-8 cannot encode such a string, so the graph could not be saved.
``reference_adjacency_csr`` and ``reference_key_rank`` are the lazy caches
that walked every neighbour list through an id map and sorted every key, and
``reference_json_obj`` the graph's ``to_json_obj`` that gave the stored
records to the graph file writer.
"""
import json
import logging
import re
from typing import Iterable, Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, find, given, settings, strategies as st

from tagforge.cli import _load_id_list
from tagforge.graph import (
    MASKS,
    GraphSchemaError,
    GraphValidationError,
    NodeRecord,
    SynthesizedDelta,
    TextAttributedGraph,
    graph_from_json_obj,
    graph_text,
    load_graph,
    merge_synthesis,
    node_sort_key,
    save_graph,
)
from conftest import _neighbor_key
from test_graph import _copy_id, reference_merge_synthesis

log = logging.getLogger("tagforge.graph")


def _check_record(rec: NodeRecord, class_count: int) -> None:
    """Raise unless the record's label is an int in [0, class_count) and its
    mask is one of MASKS."""
    if not isinstance(rec.label, int) or isinstance(rec.label, bool):
        raise GraphValidationError(f"node {rec.node_id!r}: label must be an integer")
    if not (0 <= rec.label < class_count):
        raise GraphValidationError(
            f"node {rec.node_id!r}: label {rec.label} outside [0, {class_count})")
    if rec.mask not in MASKS:
        raise GraphValidationError(
            f"node {rec.node_id!r}: mask {rec.mask!r} not in {MASKS}")


class ReferenceGraph:
    """The records a reference builds, with the graph's id map and the
    accessors the references read."""

    def __init__(self, nodes: tuple[NodeRecord, ...], class_count: int,
                 normalization_fixes: int = 0):
        self.nodes = nodes
        self.class_count = class_count
        self.normalization_fixes = normalization_fixes
        self._pos = {rec.node_id: i for i, rec in enumerate(nodes)}

    def ids(self) -> tuple[str, ...]:
        return tuple(rec.node_id for rec in self.nodes)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._pos


def reference_from_records(records: Sequence[NodeRecord], class_count: int) -> ReferenceGraph:
    cls = ReferenceGraph
    if class_count < 0:
        raise GraphValidationError("class_count must be nonnegative")
    seen: dict[str, int] = {}
    for i, rec in enumerate(records):
        if rec.node_id in seen:
            raise GraphValidationError(
                f"duplicate node_id {rec.node_id!r} at positions {seen[rec.node_id]} and {i}")
        seen[rec.node_id] = i
        _check_record(rec, class_count)

    # Normalize adjacency: union-symmetrize, drop self-loops and repeats.
    # Neighbor lists hold the nodes' own id objects, one copy per id.
    ids = {rec.node_id: rec.node_id for rec in records}
    mention: dict[str, set[str]] = {rec.node_id: set() for rec in records}
    fixes = 0
    dangling: list[tuple[str, str]] = []
    for rec in records:
        for nb in rec.neighbors:
            if nb not in ids:
                dangling.append((rec.node_id, nb))
                continue
            nb = ids[nb]
            if nb == rec.node_id:
                fixes += 1
                continue
            if nb in mention[rec.node_id]:
                fixes += 1
                continue
            mention[rec.node_id].add(nb)
    if dangling:
        shown = ", ".join(f"{a}->{b}" for a, b in dangling[:10])
        raise GraphValidationError(
            f"{len(dangling)} neighbor reference(s) to unknown nodes: {shown}")
    for u in list(mention):
        for v in mention[u]:
            if u not in mention[v]:
                mention[v].add(u)
                fixes += 1

    normalized = tuple(
        NodeRecord(
            node_id=rec.node_id,
            label=rec.label,
            text=rec.text,
            neighbors=tuple(sorted(mention[rec.node_id], key=_neighbor_key)),
            mask=rec.mask,
        )
        for rec in records
    )
    if fixes:
        log.info("graph normalization applied %d fixes", fixes)
    return cls(normalized, class_count, fixes)


LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _coerce_id(raw) -> str:
    if isinstance(raw, bool):
        raise GraphSchemaError("node ids may not be booleans")
    if isinstance(raw, int):
        return str(raw)
    if isinstance(raw, str) and raw:
        return raw
    raise GraphSchemaError(f"node id must be a nonempty string or integer, got {raw!r}")


def reference_records(obj):
    """The first half of ``reference_graph_from_json_obj``: the class count
    and the records it passed to ``from_records``."""
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
    records = []
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
        neighbors = tuple(_coerce_id(nb) for nb in neighbors)
        for field, strings in (("node_id", [node_id]), ("text", [text]),
                               ("neighbors", neighbors)):
            if any(LONE_SURROGATE.search(value) for value in strings):
                raise GraphSchemaError(f"nodes[{i}].{field} holds a lone surrogate")
        records.append(NodeRecord(
            node_id=node_id,
            label=label,
            text=text,
            neighbors=neighbors,
            mask=mask,
        ))
    return class_count, records


def reference_graph_from_json_obj(obj) -> ReferenceGraph:
    class_count, records = reference_records(obj)
    return reference_from_records(records, class_count)


def reference_adjacency_csr(records: Sequence[NodeRecord]) -> sp.csr_matrix:
    n = len(records)
    pos = {rec.node_id: i for i, rec in enumerate(records)}
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(rec.neighbors) for rec in records), dtype=np.int64, count=n),
              out=indptr[1:])
    indices = np.fromiter((pos[nb] for rec in records for nb in rec.neighbors),
                          dtype=np.int64, count=int(indptr[-1]))
    csr = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    csr.sort_indices()
    return csr


def reference_key_rank(g: ReferenceGraph) -> np.ndarray:
    keys = [node_sort_key(rec.node_id) for rec in g.nodes]
    rank_of = {k: r for r, k in enumerate(sorted(set(keys)))}
    return np.array([rank_of[k] for k in keys], dtype=np.int64)


def reference_json_obj(self: ReferenceGraph) -> dict:
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


# drawing messy TAG-JSON ----------------------------------------------------------

# ints, their string forms, forms with equal node_sort_key ("1", "01", "001")
# and alphabetic ids; 1 and "1" are the same id once coerced
ID_POOL = (0, 1, 2, 10, "0", "1", "01", "001", "2", "10", "02", "a", "b", "B", "x1", " 1")
BAD_IDS = ("", 1.5, None, [], {"1": 1})

# each way of spoiling a draw, and what the loader then says
MUTATIONS = {
    "dangling": "unknown nodes",
    "duplicate": "duplicate node_id",
    "bool id": "booleans",
    "bad id": "nonempty string",
    "bad neighbour": "node id",
    "label type": ".label must",
    "label range": "outside [0",
    "mask type": ".mask must",
    "mask value": "not in ('Train'",
    "neighbours type": ".neighbors must",
    "text": ".text must",
    "missing field": "missing field",
    "item type": "must be an object",
    "class count": "'class_count' must",
    "top level": "top level",
    "nodes type": "'nodes' must",
    "surrogate id": ".node_id holds a lone surrogate",
    "surrogate text": ".text holds a lone surrogate",
    "surrogate mention": ".neighbors holds a lone surrogate",
    "no mask": None,
}


@st.composite
def tag_json(draw, mutations=st.lists(st.sampled_from(tuple(MUTATIONS)), max_size=3)):
    class_count = draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(ID_POOL), max_size=10, unique_by=str))
    nodes = []
    for nid in ids:
        # mentions name other nodes by either form, themselves, or a node
        # twice, and need not be mirrored
        mentions = draw(st.lists(
            st.sampled_from(ids).flatmap(
                lambda v: st.sampled_from([v, str(v)] + ([int(v)] if str(v).isdigit() else []))),
            max_size=6)) if ids else []
        nodes.append({
            "node_id": nid,
            "label": draw(st.integers(0, class_count - 1)),
            "text": draw(st.sampled_from(["", "a text", "ünïcode ✓"])),
            "neighbors": mentions,
            "mask": draw(st.sampled_from(MASKS)),
        })
    obj = {"class_count": class_count, "nodes": nodes}
    for kind in draw(mutations):
        obj = _mutate(draw, obj, kind)
    return obj


def _mutate(draw, obj, kind):
    if not isinstance(obj, dict) or not isinstance(obj.get("nodes"), list):
        return obj
    nodes = obj["nodes"]
    if kind == "top level":
        return draw(st.sampled_from([nodes, {"nodes": nodes}, {"class_count": 1}, 3]))
    if kind == "nodes type":
        return {**obj, "nodes": draw(st.sampled_from(["x", {}, None]))}
    if kind == "class count":
        return {**obj, "class_count": draw(st.sampled_from([-1, True, "3", 1.5]))}
    if not nodes:
        return obj
    i = draw(st.integers(0, len(nodes) - 1))
    item = nodes[i]
    if not isinstance(item, dict):
        return obj
    item = dict(item)
    nodes = nodes[:i] + [item] + nodes[i + 1:]
    mentions = item.get("neighbors")
    if kind in ("dangling", "bad neighbour") and not isinstance(mentions, list):
        return obj
    if kind == "dangling":
        item["neighbors"] = mentions + [draw(st.sampled_from(["zz", 99, "011"]))]
    elif kind == "duplicate":
        other = nodes[draw(st.integers(0, len(nodes) - 1))]
        if isinstance(other, dict) and "node_id" in other:
            item["node_id"] = draw(st.sampled_from(
                [other["node_id"], str(other["node_id"])]))
    elif kind == "bool id":
        item["node_id"] = draw(st.booleans())
    elif kind == "bad id":
        item["node_id"] = draw(st.sampled_from(BAD_IDS))
    elif kind == "bad neighbour":
        item["neighbors"] = mentions + [draw(st.sampled_from((True, False) + BAD_IDS))]
    elif kind == "label type":
        item["label"] = draw(st.sampled_from(["1", True, 1.5, None]))
    elif kind == "label range":
        item["label"] = draw(st.sampled_from([-1, 3, 7]))
    elif kind == "mask type":
        item["mask"] = draw(st.sampled_from([3, None, ["Test"]]))
    elif kind == "mask value":
        item["mask"] = draw(st.sampled_from(["train", "Dev", ""]))
    elif kind == "neighbours type":
        item["neighbors"] = draw(st.sampled_from(["1", {"1": 1}, None, 3]))
    elif kind == "text":
        item["text"] = draw(st.sampled_from([3, None, ["a"]]))
    elif kind == "missing field":
        item.pop(draw(st.sampled_from(["node_id", "label", "text", "neighbors"])), None)
    elif kind == "surrogate id":
        item["node_id"] = draw(st.sampled_from(["b\udc00", "\ud800"]))
    elif kind == "surrogate text":
        item["text"] = draw(st.sampled_from(["bad \ud800 text", "\udfff"]))
    elif kind == "surrogate mention" and isinstance(mentions, list):
        # also a mention of no node: the schema fault comes first
        item["neighbors"] = mentions + ["b\udc00"]
    elif kind == "no mask":
        item.pop("mask", None)
    elif kind == "item type":
        nodes[i] = draw(st.sampled_from([[], "x", 3, None]))
    return {**obj, "nodes": nodes}


def _outcome(build, *args):
    try:
        return build(*args), None
    except Exception as exc:  # the differential compares every failure
        return None, (type(exc), str(exc))


def _assert_same_graph(got: TextAttributedGraph, want: ReferenceGraph,
                       picks: Sequence[int] | None = None) -> None:
    """``got`` holds the reference's records, CSR, key ranks and JSON, and
    builds the records of ``picks`` (by default every position backwards,
    then every position again)."""
    nodes = got.nodes
    assert nodes == want.nodes
    assert got.class_count == want.class_count
    assert got.normalization_fixes == want.normalization_fixes
    assert 2 * got.num_edges == sum(len(rec.neighbors) for rec in want.nodes)
    for rec in nodes:
        for nb in rec.neighbors:
            assert nb is got.ids()[got.index_of(nb)]
    if picks is None:
        picks = [*reversed(range(got.num_nodes)), *range(got.num_nodes)]
    assert got.records(picks) == tuple(want.nodes[p] for p in picks)
    assert json.loads(graph_text(got)) == reference_json_obj(want)
    labels, masks = got.labels(), got.masks()
    assert labels.dtype == np.int64 and not labels.flags.writeable
    assert masks.dtype == np.int8 and not masks.flags.writeable
    assert labels.tolist() == [rec.label for rec in want.nodes]
    assert [MASKS[m] for m in masks.tolist()] == [rec.mask for rec in want.nodes]
    csr, ref_csr = got.adjacency_csr(), reference_adjacency_csr(want.nodes)
    assert csr.shape == ref_csr.shape and csr.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        a, b = getattr(csr, name), getattr(ref_csr, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(got.degrees(), [len(rec.neighbors) for rec in want.nodes])
    assert got.degrees().dtype == np.int64 and not got.degrees().flags.writeable
    assert got.key_rank().dtype == np.int64 and not got.key_rank().flags.writeable
    assert np.array_equal(got.key_rank(), reference_key_rank(want))


# ``--hypothesis-profile deep`` raises the budget (tests/conftest.py)
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(obj=tag_json())
def test_loader_matches_reference_on_messy_tag_json(tmp_path_factory, obj):
    want, want_error = _outcome(reference_graph_from_json_obj, obj)
    got, got_error = _outcome(graph_from_json_obj, obj)
    assert got_error == want_error
    if want_error is None:
        _assert_same_graph(got, want)
    want_ids = (list(want.ids()), None) if want_error is None else (None, want_error)
    if isinstance(obj, dict) and "nodes" in obj:
        path = tmp_path_factory.getbasetemp() / "loader-example.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert _outcome(_load_id_list, str(path)) == want_ids

    # from_records on the same records, and with a label or mask that the
    # JSON schema refuses written into the last record
    parsed, schema_error = _outcome(reference_records, obj)
    if schema_error is not None:
        return
    class_count, records = parsed
    variants = [records]
    if records:
        rec = records[-1]
        variants += [records[:-1] + [NodeRecord(rec.node_id, True, rec.text, rec.neighbors)],
                     records[:-1] + [NodeRecord(rec.node_id, 0, rec.text, rec.neighbors, 3)]]
    for recs in variants:
        want, want_error = _outcome(reference_from_records, recs, class_count)
        got, got_error = _outcome(TextAttributedGraph.from_records, recs, class_count)
        assert got_error == want_error
        if want_error is None:
            _assert_same_graph(got, want)


@pytest.mark.parametrize("kind", [None, *MUTATIONS])
def test_every_mutation_is_drawn_with_its_error(kind):
    """Each way of spoiling a draw can end in the error it is meant to
    cause; unspoiled draws and a missing mask end with and without fixes."""
    outcomes = set()

    def reached(obj):
        got, error = _outcome(reference_graph_from_json_obj, obj)
        if error is None:
            outcomes.add("fixes" if got.normalization_fixes else "no fixes")
            return MUTATIONS.get(kind) is None and outcomes == {"fixes", "no fixes"}
        return MUTATIONS.get(kind) is not None and MUTATIONS[kind] in error[1]

    find(tag_json(st.just([kind] if kind else [])), reached, settings=settings(
        max_examples=1000, deadline=None, database=None, derandomize=True,
        phases=[Phase.generate]))


def test_loader_lists_the_first_ten_dangling_mentions():
    obj = {"class_count": 1, "nodes": [
        {"node_id": "a", "label": 0, "text": "", "neighbors": [f"x{i}" for i in range(7)] + ["b"]},
        {"node_id": 2, "label": 0, "text": "", "neighbors": ["a", 5, "y", "y", "02", 2, "2"]},
        {"node_id": "b", "label": 0, "text": "", "neighbors": []},
    ]}
    want = _outcome(reference_graph_from_json_obj, obj)
    assert want[1][1].startswith("11 neighbor reference(s)")
    assert _outcome(graph_from_json_obj, obj) == want


# every constructor -----------------------------------------------------------------

def reference_subgraph(self: ReferenceGraph, keep_ids: Iterable[str]) -> ReferenceGraph:
    """The id-keyed ``subgraph`` it replaced, kept word for word as a
    function, except that it builds a ``ReferenceGraph``."""
    keep = set(keep_ids)
    missing = keep - set(self._pos)
    if missing:
        raise GraphValidationError(f"subgraph ids not in graph: {sorted(missing)[:10]}")
    records = tuple(
        NodeRecord(
            node_id=rec.node_id,
            label=rec.label,
            text=rec.text,
            neighbors=tuple(nb for nb in rec.neighbors if nb in keep),
            mask=rec.mask,
        )
        for rec in self.nodes if rec.node_id in keep
    )
    return ReferenceGraph(records, self.class_count)


# new ids, some with the node_sort_key of an ID_POOL id or of each other
NEW_IDS = ("3", "03", "001", "010", "s1", "s2")


@st.composite
def grown_graphs(draw):
    """A valid TAG-JSON object with isolated nodes appended, a delta for the
    graph it loads to, and positions of the merged graph, in any order and
    with repeats. Each new node bridges to none or several base nodes, drawn
    with repeats, and a bridge names its ends by equal copies of their ids."""
    obj = draw(tag_json(st.just([])))
    isolated = draw(st.lists(st.sampled_from(["7", "007", "iso"]), unique=True))
    nodes = obj["nodes"] + [
        {"node_id": v, "label": 0, "text": "", "neighbors": []} for v in isolated]
    ids = [str(item["node_id"]) for item in nodes]
    # a mention of "02" drawn as 2 names no node
    obj = {**obj, "nodes": [
        {**item, "neighbors": [nb for nb in item["neighbors"] if str(nb) in ids]}
        for item in nodes]}
    new_ids = draw(st.lists(st.sampled_from([v for v in NEW_IDS if v not in ids]),
                            unique=True, max_size=4))
    new = tuple(NodeRecord(v, draw(st.integers(0, obj["class_count"] - 1)), "new",
                           ("ignored",), draw(st.sampled_from(MASKS))) for v in new_ids)
    bridges = [(_copy_id(v), _copy_id(ids[t])) for v in new_ids
               for t in (draw(st.lists(st.integers(0, len(ids) - 1), max_size=3)) if ids else ())]
    delta = SynthesizedDelta(new, tuple(draw(st.permutations(bridges))))
    size = len(ids) + len(new_ids)
    picks = draw(st.lists(st.integers(0, size - 1), max_size=12)) if size else []
    return obj, delta, picks


# ``--hypothesis-profile deep`` raises the budget (tests/conftest.py)
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(case=grown_graphs())
def test_every_constructor_matches_id_keyed_reference(case):
    """Load, ``from_records``, ``merge_synthesis`` and ``subgraph`` (of the
    loaded and of the merged graph) give the reference's records and JSON,
    and the CSR that walking those records through an id map gives; the
    loaded and the merged graph build the records of the drawn positions."""
    obj, delta, picks = case
    g, want = graph_from_json_obj(obj), reference_graph_from_json_obj(obj)
    class_count, records = reference_records(obj)
    _assert_same_graph(TextAttributedGraph.from_records(records[::-1], class_count),
                       reference_from_records(records[::-1], class_count))
    merged = merge_synthesis(g, delta)
    want_merged = reference_merge_synthesis(want, delta, reference_from_records)
    for parent, ref in ((g, want), (merged, want_merged)):
        inside = [p for p in picks if p < parent.num_nodes]
        _assert_same_graph(parent, ref, inside)
        _assert_same_graph(parent.subgraph(inside),
                           reference_subgraph(ref, [ref.ids()[p] for p in inside]))


def _all_ids(case):
    obj, delta, _ = case
    return [str(item["node_id"]) for item in obj["nodes"]] + [r.node_id for r in delta.new_nodes]


DRAWN_CASES = {
    "equal keys": lambda case: len(set(map(node_sort_key, _all_ids(case)))) < len(_all_ids(case)),
    "isolated node": lambda case: graph_from_json_obj(case[0]).degrees().min(initial=1) == 0,
    "new node without bridge": lambda case: bool(
        {r.node_id for r in case[1].new_nodes} - {v for v, _ in case[1].bridge_edges}),
    "target of several new nodes": lambda case: any(
        len({v for v, t in case[1].bridge_edges if t == target}) > 1
        for _, target in case[1].bridge_edges),
    "empty delta": lambda case: not case[1].new_nodes,
}


@pytest.mark.parametrize("kind", DRAWN_CASES)
def test_every_constructor_case_is_drawn(kind):
    find(grown_graphs(), DRAWN_CASES[kind], settings=settings(
        max_examples=1000, deadline=None, database=None, derandomize=True,
        phases=[Phase.generate]))


# writing ---------------------------------------------------------------------------

# ids whose JSON form needs escapes, non-ASCII ids, and ids with equal
# node_sort_key ("1", "01", "001"; 3 and "03")
WRITER_IDS = ("1", "01", "001", 3, "03", "10", "a", "é", 'q"uote', "back\\slash",
              "line\u2028sep", "tab\there", "✓")
# characters json escapes (quote, backslash, control characters), ones it
# writes as they are with ensure_ascii=False (DEL, U+2028, U+2029, non-ASCII,
# an astral character)
TEXT_PIECES = ('"', "\\", "\x00", "\x1f", "\n", "\t", "\r", "\b", "\x7f", "\u2028",
               "\u2029", "é", "✓", "\U0001f600", "a b")


@st.composite
def writable_tag_json(draw):
    """A TAG-JSON object that loads: every text draws from ``TEXT_PIECES``
    and from the characters UTF-8 can encode (any but a surrogate), ids from ``WRITER_IDS``, and
    mentions name nodes, with repeats and self-mentions."""
    class_count = draw(st.integers(0, 3))
    ids = draw(st.lists(st.sampled_from(WRITER_IDS), unique_by=str,
                        max_size=8)) if class_count else []
    text = st.lists(st.one_of(st.sampled_from(TEXT_PIECES), st.characters(codec="utf-8")),
                    max_size=6).map("".join)
    return {"class_count": class_count, "nodes": [{
        "node_id": nid,
        "label": draw(st.integers(0, class_count - 1)),
        "text": draw(text),
        "neighbors": draw(st.lists(st.sampled_from(ids), max_size=4)),
        "mask": draw(st.sampled_from(MASKS)),
    } for nid in ids]}


def _json_dumps_text(want: ReferenceGraph) -> str:
    return json.dumps(reference_json_obj(want), ensure_ascii=False, indent=2) + "\n"


# ``--hypothesis-profile deep`` raises the budget (tests/conftest.py)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(obj=writable_tag_json())
def test_graph_text_is_json_dumps_byte_for_byte(tmp_path_factory, obj):
    """``graph_text`` is the text ``json.dumps(..., ensure_ascii=False,
    indent=2)`` gives for the reference's records, in file order and in
    reversed record order; ``save_graph`` writes its UTF-8 bytes, and
    ``load_graph`` reads them back to the same records and text."""
    class_count, records = reference_records(obj)
    for got, want in ((graph_from_json_obj(obj), reference_graph_from_json_obj(obj)),
                      (TextAttributedGraph.from_records(records[::-1], class_count),
                       reference_from_records(records[::-1], class_count))):
        text = graph_text(got)
        assert text == _json_dumps_text(want)
        path = tmp_path_factory.getbasetemp() / "writer-example.json"
        save_graph(got, str(path))
        assert path.read_bytes() == text.encode("utf-8")
        back = load_graph(str(path))
        assert back.nodes == got.nodes and back.class_count == got.class_count
        assert back.normalization_fixes == 0 and graph_text(back) == text


WRITER_CASES = {
    "zero nodes": lambda obj: not obj["nodes"] and obj["class_count"] > 0,
    "class count 0": lambda obj: obj["class_count"] == 0,
    "empty neighbour list": lambda obj: any(not item["neighbors"] for item in obj["nodes"]),
    "equal keys": lambda obj: len({node_sort_key(str(item["node_id"])) for item in obj["nodes"]})
    < len(obj["nodes"]),
    **{f"text piece {piece!r}": lambda obj, piece=piece: any(
        piece in item["text"] for item in obj["nodes"]) for piece in TEXT_PIECES},
}


@pytest.mark.parametrize("kind", WRITER_CASES)
def test_every_writer_case_is_drawn(kind):
    find(writable_tag_json(), WRITER_CASES[kind], settings=settings(
        max_examples=1000, deadline=None, database=None, derandomize=True,
        phases=[Phase.generate]))


def test_graph_file_that_is_not_utf8_is_refused_naming_the_path(tmp_path):
    path = tmp_path / "latin-1.json"
    path.write_bytes(b'{"class_count": 1, "nodes": [{"node_id": "caf\xe9", "label": 0, '
                     b'"text": "", "neighbors": []}]}')
    message = f"{path}: not UTF-8 at byte 45: invalid continuation byte"
    for read in (load_graph, _load_id_list):
        with pytest.raises(GraphSchemaError) as info:
            read(str(path))
        assert str(info.value) == message


def test_lone_surrogates_are_refused_naming_the_record():
    """A text, an id or a mention that UTF-8 cannot encode would load and
    then fail in ``save_graph``; the loader refuses it as the reference does."""
    nodes = [{"node_id": "a", "label": 0, "text": "", "neighbors": []},
             {"node_id": "b", "label": 0, "text": "", "neighbors": ["a"]}]
    for i, field, value, message in [
            (1, "text", "bad \ud800 text", "nodes[1].text holds a lone surrogate"),
            (0, "node_id", "b\udc00", "nodes[0].node_id holds a lone surrogate"),
            (1, "neighbors", ["a", "\udfff"], "nodes[1].neighbors holds a lone surrogate")]:
        obj = {"class_count": 1, "nodes": [dict(item) for item in nodes]}
        obj["nodes"][i][field] = value
        want = _outcome(reference_graph_from_json_obj, obj)
        assert want == (None, (GraphSchemaError, message))
        assert _outcome(graph_from_json_obj, obj) == want
