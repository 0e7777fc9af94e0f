import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import edge_set, edges, make_graph, path_graph, random_graph, triangle, two_k3
from tagforge.graph import (
    _ROW_BLOCK,
    GraphSchemaError,
    MASKS,
    GraphValidationError,
    NodeRecord,
    SynthesizedDelta,
    TextAttributedGraph,
    component_labels,
    graph_from_json_obj,
    graph_text,
    graph_stats,
    load_graph,
    merge_synthesis,
    node_sort_key,
    save_graph,
)

# oracles ----------------------------------------------------------------------

def oracle_clustering(g):
    """Mean local clustering by adjacency-matrix triple loop."""
    n = g.num_nodes
    ids = g.ids()
    pos = {v: i for i, v in enumerate(ids)}
    a = np.zeros((n, n))
    for u, v in edges(g):
        a[pos[u], pos[v]] = a[pos[v], pos[u]] = 1.0
    total = 0.0
    for i in range(n):
        nbrs = [j for j in range(n) if a[i, j] > 0]
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(
            a[u, v] for ui, u in enumerate(nbrs) for v in nbrs[ui + 1:])
        total += 2.0 * links / (k * (k - 1))
    return total / n if n else 0.0


def oracle_path_length(g):
    """Mean shortest-path length over ordered pairs of the largest component,
    by Floyd-Warshall."""
    n = g.num_nodes
    if n == 0:
        return 0.0
    ids = g.ids()
    pos = {v: i for i, v in enumerate(ids)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges(g):
        dist[pos[u], pos[v]] = dist[pos[v], pos[u]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    comp = {}
    for i in range(n):
        comp.setdefault(frozenset(j for j in range(n) if np.isfinite(dist[i, j])), []).append(i)
    largest = max(comp, key=len)
    members = sorted(largest)
    if len(members) < 2:
        return 0.0
    vals = [dist[i, j] for i in members for j in members if i != j]
    return float(np.mean(vals))


def oracle_components(g):
    parent = {v: v for v in g.ids()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges(g):
        parent[find(u)] = find(v)
    roots = {}
    for v in g.ids():
        roots.setdefault(find(v), 0)
        roots[find(v)] += 1
    return len(roots), max(roots.values(), default=0)


# construction and normalization ------------------------------------------------

def test_one_sided_neighbor_lists_are_symmetrized():
    g = make_graph({"a": ["b"], "b": []})
    assert g.neighbors("b") == ("a",)
    assert g.num_edges == 1
    assert g.normalization_fixes == 1


def test_self_loops_and_duplicates_are_dropped_and_counted():
    recs = [
        NodeRecord("x", 0, "text body of node x here", ("x", "y", "y")),
        NodeRecord("y", 0, "text body of node y here", ("x",)),
    ]
    g = TextAttributedGraph.from_records(recs, 1)
    assert g.num_edges == 1
    assert g.neighbors("x") == ("y",)
    assert g.normalization_fixes == 2


def test_neighbor_lists_share_the_node_id_objects():
    obj = json.loads(json.dumps({"class_count": 1, "nodes": [
        {"node_id": "alpha", "label": 0, "text": "t", "neighbors": ["beta", 7]},
        {"node_id": "beta", "label": 0, "text": "t", "neighbors": ["alpha"]},
        {"node_id": 7, "label": 0, "text": "t", "neighbors": []},
    ]}))
    g = graph_from_json_obj(obj)
    for h in (g, g.subgraph([g.index_of("alpha"), g.index_of("7")])):
        own = {rec.node_id: rec.node_id for rec in h.nodes}
        assert all(nb is own[nb] for rec in h.nodes for nb in rec.neighbors)
        assert sum(len(rec.neighbors) for rec in h.nodes) == 2 * h.num_edges > 0
    assert not hasattr(g.nodes[0], "__dict__")


def test_dangling_neighbor_rejected_with_offender_listed():
    recs = [NodeRecord("a", 0, "text body of node a here", ("ghost",))]
    with pytest.raises(GraphValidationError, match="ghost"):
        TextAttributedGraph.from_records(recs, 1)


def test_duplicate_node_id_rejected():
    recs = [
        NodeRecord("a", 0, "text body one of node a", ()),
        NodeRecord("a", 0, "text body two of node a", ()),
    ]
    with pytest.raises(GraphValidationError, match="duplicate"):
        TextAttributedGraph.from_records(recs, 1)


def test_label_out_of_range_rejected():
    recs = [NodeRecord("a", 3, "text body of node a here", ())]
    with pytest.raises(GraphValidationError, match="label"):
        TextAttributedGraph.from_records(recs, 2)


def test_bad_mask_rejected():
    recs = [NodeRecord("a", 0, "text body of node a here", (), mask="train")]
    with pytest.raises(GraphValidationError, match="mask"):
        TextAttributedGraph.from_records(recs, 1)


def test_handshake_lemma_after_load():
    for seed in range(5):
        g = random_graph(25, 0.15, seed)
        assert int(g.degrees().sum()) == 2 * g.num_edges


def test_degrees_are_cached_read_only_and_follow_the_records():
    g = random_graph(25, 0.15, 3)
    deg = g.degrees()
    assert deg is g.degrees() and not deg.flags.writeable and deg.dtype == np.int64
    assert deg.tolist() == [len(g.neighbors(v)) for v in g.ids()]
    assert np.array_equal(deg, np.diff(g.adjacency_csr().indptr))


def test_node_sort_key_orders_numerics_before_text():
    ids = ["10", "2", "new_node 1", "1", "alpha"]
    assert sorted(ids, key=node_sort_key) == ["1", "2", "10", "alpha", "new_node 1"]


def test_edges_yield_every_edge_once_with_equal_sort_keys():
    # "1", "01" and "001" share a node_sort_key
    g = make_graph({"1": ["01", "001", "2"], "01": ["001"], "001": [], "2": ["b"], "b": []})
    found = list(edges(g))
    assert len(found) == g.num_edges == 5
    assert {frozenset(e) for e in found} == {
        frozenset(p) for p in [("1", "01"), ("1", "001"), ("01", "001"), ("1", "2"), ("2", "b")]}
    # where the keys differ, the smaller key comes first
    assert ("1", "2") in found and ("2", "b") in found
    for seed in range(3):
        rng = np.random.default_rng(seed)
        ids = [str(i) for i in range(40)] + ["0" + str(i) for i in range(0, 40, 3)] + ["x", "y"]
        adj = {i: [j for j in ids if j != i and rng.random() < 0.1] for i in ids}
        g = make_graph(adj)
        assert len(list(edges(g))) == len(edge_set(g)) == g.num_edges


# serialization ------------------------------------------------------------------

def test_round_trip_preserves_everything(tmp_path):
    g = random_graph(30, 0.1, seed=7)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    g2 = load_graph(str(path))
    assert g2.ids() == g.ids()
    assert edge_set(g2) == edge_set(g)
    assert g2.class_count == g.class_count
    for nid in g.ids():
        assert g2.node(nid) == g.node(nid)


def test_ids_are_built_once_and_follow_the_records(tmp_path):
    g = random_graph(20, 0.2, seed=3)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    delta = SynthesizedDelta((NodeRecord("new", 0, "synthesized node text body", ()),),
                             (("new", "4"),))
    for h in (load_graph(str(path)), TextAttributedGraph.from_records(g.nodes[::-1], 3),
              merge_synthesis(g, delta), g.subgraph([g.index_of(v) for v in ("7", "2", "11")]),
              make_graph({})):
        assert h.ids() is h.ids()
        assert h.ids() == tuple(rec.node_id for rec in h.nodes)


def test_unicode_text_survives_round_trip(tmp_path):
    g = make_graph({"a": []}, texts={"a": "analyse sémantique — graphen 日本語"})
    path = tmp_path / "u.json"
    save_graph(g, str(path))
    assert load_graph(str(path)).node("a").text == "analyse sémantique — graphen 日本語"


def test_integer_ids_canonicalized_to_strings(tmp_path):
    obj = {"class_count": 1, "nodes": [
        {"node_id": 536, "label": 0, "text": "record with numeric id and text",
         "neighbors": [639], "mask": "Train"},
        {"node_id": 639, "label": 0, "text": "neighbor record with numeric id",
         "neighbors": [], "mask": "Train"},
    ]}
    path = tmp_path / "n.json"
    path.write_text(json.dumps(obj))
    g = load_graph(str(path))
    assert g.has_node("536")
    assert g.neighbors("536") == ("639",)
    assert g.neighbors("639") == ("536",)


def test_empty_node_list_loads(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"class_count": 0, "nodes": []}))
    g = load_graph(str(path))
    assert g.num_nodes == 0 and g.num_edges == 0


def test_parse_failure_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"class_count": 1, "nodes": [')
    with pytest.raises(GraphSchemaError, match="line"):
        load_graph(str(path))


def test_boolean_id_rejected(tmp_path):
    obj = {"class_count": 1, "nodes": [
        {"node_id": True, "label": 0, "text": "bool id should be rejected",
         "neighbors": [], "mask": "Train"}]}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(GraphSchemaError):
        load_graph(str(path))


def test_non_integer_label_rejected(tmp_path):
    obj = {"class_count": 1, "nodes": [
        {"node_id": "a", "label": 0.5, "text": "float label should be rejected",
         "neighbors": [], "mask": "Train"}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(GraphSchemaError):
        load_graph(str(path))


def test_save_is_atomic_no_partial_file(tmp_path):
    g = random_graph(10, 0.2, seed=1)
    target = tmp_path / "out.json"
    save_graph(g, str(target))
    first = target.read_bytes()
    save_graph(g, str(target))
    assert target.read_bytes() == first
    assert not [p for p in tmp_path.iterdir() if p.name != "out.json"]


# statistics ---------------------------------------------------------------------

def test_triangle_stats():
    s = graph_stats(triangle())
    assert s.avg_degree == 2.0
    assert s.global_clustering_coefficient == 1.0
    assert s.avg_path_length == 1.0
    assert s.connected_components == 1


def test_single_isolated_node_stats():
    s = graph_stats(make_graph({"a": []}))
    assert s.num_nodes == 1
    assert s.avg_degree == 0.0
    assert s.density == 0.0
    assert s.global_clustering_coefficient == 0.0
    assert s.connected_components == 1
    assert s.largest_component_size == 1


def test_empty_graph_stats():
    s = graph_stats(TextAttributedGraph.from_records([], 0))
    assert s.num_nodes == 0 and s.num_edges == 0
    assert s.avg_path_length == 0.0


def test_stats_match_oracles_on_random_graphs():
    for seed in range(12):
        g = random_graph(20 + seed, 0.12, seed)
        s = graph_stats(g)
        assert abs(s.global_clustering_coefficient - oracle_clustering(g)) < 1e-9
        assert abs(s.avg_path_length - oracle_path_length(g)) < 1e-9
        comps, largest = oracle_components(g)
        assert s.connected_components == comps
        assert s.largest_component_size == largest
        assert sum(s.degree_histogram.values()) == g.num_nodes
        assert sum(s.label_distribution.values()) == g.num_nodes


def test_density_and_avg_degree_identities():
    g = random_graph(24, 0.2, seed=3)
    s = graph_stats(g)
    n, m = g.num_nodes, g.num_edges
    assert abs(s.avg_degree - 2 * m / n) < 1e-12
    assert abs(s.density - 2 * m / (n * (n - 1))) < 1e-12


def graph_from_edges(n, edges):
    """Graph on ids "0".."n-1" in position order, from an edge list."""
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return TextAttributedGraph.from_records(
        [NodeRecord(str(i), 0, f"node {i}", tuple(str(j) for j in adj[i])) for i in range(n)], 1)


def pair_mean(total, nodes):
    return total / (nodes * (nodes - 1))


@pytest.mark.parametrize("leaves", [62, 63, 64, 65, 1023, 1024, 1025])
def test_star_path_length_is_exact_across_word_and_block_edges(leaves):
    # 2L centre-leaf pairs at distance 1, L(L-1) ordered leaf pairs at distance 2
    s = graph_stats(graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)]))
    assert s.largest_component_size == leaves + 1
    assert s.avg_path_length == pair_mean(2 * leaves + 2 * leaves * (leaves - 1), leaves + 1)


def test_path_graph_path_length_is_exact():
    n = 300
    s = graph_stats(graph_from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    assert s.avg_path_length == pair_mean(n * (n * n - 1) // 3, n)


@pytest.mark.parametrize("n", [129, 130])
def test_cycle_path_length_is_exact(n):
    # each node sees floor(n^2 / 4) as its distance total
    s = graph_stats(graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
    assert s.avg_path_length == pair_mean(n * (n * n // 4), n)


def test_path_length_of_largest_component_away_from_position_zero():
    # a triangle at positions 0-2, then a 200-node path on the even positions
    # 10..408 with an isolated node at every odd position between them
    path = list(range(10, 410, 2))
    g = graph_from_edges(410, [(0, 1), (1, 2), (0, 2)] + list(zip(path, path[1:])))
    labels, sizes = component_labels(g)
    assert labels[0] != int(sizes.argmax())
    s = graph_stats(g)
    assert s.largest_component_size == 200
    assert s.connected_components == 1 + 1 + (410 - 3 - 200)
    assert s.avg_path_length == pair_mean(200 * (200 * 200 - 1) // 3, 200)


def test_path_length_of_tied_largest_components_does_not_depend_on_record_order():
    # a path 0-1-2-3 and a star 4-{5,6,7}: the path holds the first id in
    # canonical order, whichever records come first
    adj = {0: (1,), 1: (0, 2), 2: (1, 3), 3: (2,), 4: (5, 6, 7), 5: (4,), 6: (4,), 7: (4,)}
    recs = [NodeRecord(str(i), 0, f"node {i}", tuple(str(j) for j in adj[i])) for i in adj]
    for order in (recs, recs[4:] + recs[:4]):
        s = graph_stats(TextAttributedGraph.from_records(order, 1))
        assert s.largest_component_size == 4
        assert s.avg_path_length == pair_mean(2 * 10, 4)


def test_path_length_matches_scipy_shortest_path_on_planted_graph():
    from scipy.sparse import csgraph

    rng = np.random.default_rng(11)
    n, classes = 1500, 6
    label = rng.integers(classes, size=n)
    members = [np.flatnonzero(label == c) for c in range(classes)]
    edges = set()
    while len(edges) < 3000:
        u = int(rng.integers(n))
        v = int(rng.choice(members[label[u]]) if rng.random() < 0.8 else rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = graph_from_edges(n, sorted(edges))
    labels, sizes = component_labels(g)
    comp = np.flatnonzero(labels == int(sizes.argmax()))
    assert comp.size > _ROW_BLOCK
    sub = g.adjacency_csr()[comp][:, comp]
    total = float(csgraph.shortest_path(sub, method="D", unweighted=True).sum())
    assert graph_stats(g).avg_path_length == pair_mean(total, comp.size)


# merging ------------------------------------------------------------------------

def test_merge_empty_delta_is_identity():
    g = random_graph(8, 0.3, seed=2)
    merged = merge_synthesis(g, SynthesizedDelta(new_nodes=()))
    assert merged.ids() == g.ids()
    assert edge_set(merged) == edge_set(g)


def test_merge_adds_node_and_back_edge():
    g = make_graph({"A": ["B"], "B": []})
    delta = SynthesizedDelta(
        new_nodes=(NodeRecord("S", 0, "synthesized node text body", ()),),
        bridge_edges=(("S", "A"),),
    )
    merged = merge_synthesis(g, delta)
    assert merged.num_nodes == 3
    assert "S" in merged.neighbors("A")
    assert merged.neighbors("B") == ("A",)
    # purity: the input graph is untouched
    assert g.num_nodes == 2
    assert "S" not in g.neighbors("A")


def test_merge_rejects_id_collision():
    g = make_graph({"A": []})
    delta = SynthesizedDelta(
        new_nodes=(NodeRecord("A", 0, "colliding identifier text", ()),),
    )
    with pytest.raises(GraphValidationError, match="A"):
        merge_synthesis(g, delta)


def test_merge_rejects_dangling_bridge():
    g = make_graph({"A": []})
    delta = SynthesizedDelta(
        new_nodes=(NodeRecord("S", 0, "synthesized node text body", ()),),
        bridge_edges=(("S", "ghost"),),
    )
    with pytest.raises(GraphValidationError):
        merge_synthesis(g, delta)


# The merge that sent every record back through from_records, kept word for
# word, apart from its loop over internal edges, as the oracle of the append
# merge.
def reference_merge_synthesis(g, delta: SynthesizedDelta,
                              build=TextAttributedGraph.from_records):
    """Graft accepted nodes onto a base graph without mutating it.

    Original records survive byte for byte except for neighbor lists extended
    by bridge edges. New node adjacency comes solely from the delta edge sets.
    The merged records go through ``build``.
    """
    new_ids = [rec.node_id for rec in delta.new_nodes]
    dup = [nid for nid in new_ids if g.has_node(nid)]
    if dup:
        raise GraphValidationError(f"new node ids collide with base graph: {dup[:10]}")
    if len(set(new_ids)) != len(new_ids):
        raise GraphValidationError("duplicate ids among new nodes")
    new_id_set = set(new_ids)

    extra: dict[str, set[str]] = {nid: set() for nid in new_ids}
    base_extra: dict[str, set[str]] = {}
    for new_id, orig_id in delta.bridge_edges:
        if new_id not in new_id_set:
            raise GraphValidationError(f"bridge edge references unknown new node {new_id!r}")
        if not g.has_node(orig_id):
            raise GraphValidationError(f"bridge edge references unknown base node {orig_id!r}")
        extra[new_id].add(orig_id)
        base_extra.setdefault(orig_id, set()).add(new_id)

    records: list[NodeRecord] = []
    for rec in g.nodes:
        added = base_extra.get(rec.node_id)
        if added:
            merged = tuple(sorted(set(rec.neighbors) | added, key=node_sort_key))
            records.append(NodeRecord(rec.node_id, rec.label, rec.text, merged, rec.mask))
        else:
            records.append(rec)
    for rec in delta.new_nodes:
        records.append(NodeRecord(
            node_id=rec.node_id,
            label=rec.label,
            text=rec.text,
            neighbors=tuple(sorted(extra[rec.node_id], key=node_sort_key)),
            mask=rec.mask,
        ))
    merged = build(tuple(records), g.class_count)
    if merged.normalization_fixes:
        raise GraphValidationError(
            f"merge produced {merged.normalization_fixes} unexpected adjacency fixes")
    return merged


def _copy_id(node_id):
    """An equal id that is (beyond one character) a different str object."""
    return (node_id + ".")[:-1]


def _mixed_id_graph(rng, n, class_count=3):
    """Ids ``<k>`` next to ``0<k>`` (equal ``node_sort_key``) and alphabetic
    ids, with one-sided neighbor mentions and shuffled records."""
    names = []
    for i in range(n):
        r = rng.random()
        names.append(f"0{i // 2}" if r < 0.3 else str(i // 2) if r < 0.7 else f"a{i}")
    names = list(dict.fromkeys(names))
    nbrs = {v: [] for v in names}
    for a, b in rng.integers(len(names), size=(2 * len(names), 2)).tolist():
        if a != b:
            nbrs[names[a]].append(names[b])
    recs = [NodeRecord(names[i], int(rng.integers(class_count)), f"document {i}",
                       tuple(nbrs[names[i]]), MASKS[int(rng.integers(3))])
            for i in rng.permutation(len(names)).tolist()]
    return TextAttributedGraph.from_records(recs, class_count)


@pytest.mark.parametrize("seed", range(60))
def test_merge_matches_reference_on_mixed_ids(seed):
    rng = np.random.default_rng([seed, 17])
    g = _mixed_id_graph(rng, int(rng.integers(4, 60)))
    new = {}
    for k in rng.integers(1000, 1010, size=int(rng.integers(1, 6))).tolist():
        nid = str(rng.choice([str(k), f"0{k}", f"new {k}"]))
        new[nid] = NodeRecord(nid, int(rng.integers(3)), f"synthesized {k}",
                              ("ignored",), MASKS[int(rng.integers(3))])
    ids, new_ids = g.ids(), list(new)
    # a few targets, so bridges repeat and several new nodes share a target
    targets = [ids[i] for i in rng.integers(len(ids), size=3).tolist()]
    bridges = tuple(
        (_copy_id(new_ids[int(rng.integers(len(new_ids)))]),
         _copy_id(targets[int(rng.integers(3))]))
        for _ in range(int(rng.integers(0, 12))))
    delta = SynthesizedDelta(tuple(new.values()), bridges)

    merged = merge_synthesis(g, delta)
    assert graph_text(merged) == graph_text(reference_merge_synthesis(g, delta))
    assert merged.num_edges == g.num_edges + len(set(bridges))
    assert TextAttributedGraph.from_records(merged.nodes, 3).normalization_fixes == 0
    own = {rec.node_id: rec.node_id for rec in merged.nodes}
    for rec in merged.nodes:
        assert all(nb is own[nb] for nb in rec.neighbors)
        assert list(rec.neighbors) == sorted(
            rec.neighbors, key=lambda v: (node_sort_key(v), v))
    hit = {t for _, t in bridges}
    for old, rec in zip(g.nodes, merged.nodes):
        assert (rec == old) == (old.node_id not in hit)


def coo_adjacency(g):
    """The CSR built from one (row, column) pair per neighbour mention."""
    rows = [i for i, rec in enumerate(g.nodes) for _ in rec.neighbors]
    cols = [g.index_of(nb) for rec in g.nodes for nb in rec.neighbors]
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.num_nodes, g.num_nodes))


@pytest.mark.parametrize("seed", range(30))
def test_adjacency_csr_equals_coo_build_on_mixed_ids(seed):
    rng = np.random.default_rng([seed, 23])
    g = _mixed_id_graph(rng, int(rng.integers(1, 80)))
    new = NodeRecord("new 1", 0, _TEXT, ())
    merged = merge_synthesis(g, SynthesizedDelta((new,), (("new 1", g.ids()[0]),)))
    for graph in (g, merged, TextAttributedGraph.from_records([], 1)):
        got, want = graph.adjacency_csr(), coo_adjacency(graph)
        assert got.shape == want.shape and got.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_key_rank_shares_ranks_between_equal_keys():
    ids = ["b", "01", "10", "1", "2", "a"]
    g = TextAttributedGraph.from_records([NodeRecord(v, 0, _TEXT, ()) for v in ids], 1)
    assert g.key_rank().tolist() == [4, 0, 2, 0, 1, 3]
    order = np.argsort(g.key_rank(), kind="stable")
    assert [ids[i] for i in order] == ["01", "1", "2", "10", "a", "b"]
    assert g.key_rank() is g.key_rank() and not g.key_rank().flags.writeable
    for seed in range(10):
        g = _mixed_id_graph(np.random.default_rng([seed, 29]), 50)
        ids = g.ids()
        assert np.argsort(g.key_rank(), kind="stable").tolist() == sorted(
            range(len(ids)), key=lambda i: node_sort_key(ids[i]))


_TEXT = "synthesized node text body"


@pytest.mark.parametrize("delta", [
    pytest.param(SynthesizedDelta((NodeRecord("S", 2, _TEXT, ()),)), id="label-too-big"),
    pytest.param(SynthesizedDelta((NodeRecord("S", -1, _TEXT, ()),)), id="label-negative"),
    pytest.param(SynthesizedDelta((NodeRecord("S", True, _TEXT, ()),)), id="label-bool"),
    pytest.param(SynthesizedDelta((NodeRecord("S", 1.0, _TEXT, ()),)), id="label-float"),
    pytest.param(SynthesizedDelta((NodeRecord("S", "1", _TEXT, ()),)), id="label-str"),
    pytest.param(SynthesizedDelta((NodeRecord("S", 0, _TEXT, (), "Dev"),)), id="mask"),
    pytest.param(SynthesizedDelta((NodeRecord("S", 0, _TEXT, ()),
                                   NodeRecord("S", 1, _TEXT, ()))), id="duplicate-new"),
    pytest.param(SynthesizedDelta((NodeRecord("S", 0, _TEXT, ()),), (("T", "A"),)),
                 id="bridge-unknown-new"),
    pytest.param(SynthesizedDelta((NodeRecord("S", 0, _TEXT, ()),), (("A", "S"),)),
                 id="bridge-reversed"),
    pytest.param(SynthesizedDelta((NodeRecord("S", 0, _TEXT, ()),), (("S", "S"),)),
                 id="bridge-new-to-new"),
])
def test_merge_rejects_invalid_delta(delta):
    g = make_graph({"A": ["B"], "B": []}, labels={"A": 0, "B": 1}, class_count=2)
    for merge in (merge_synthesis, reference_merge_synthesis):
        with pytest.raises(GraphValidationError):
            merge(g, delta)


def test_merge_monotone_in_nodes_and_edges():
    g = random_graph(10, 0.25, seed=5)
    delta = SynthesizedDelta(
        new_nodes=(NodeRecord("zz", 0, "appended node body text here", ()),),
        bridge_edges=(("zz", g.ids()[0]),),
    )
    merged = merge_synthesis(g, delta)
    assert merged.num_nodes == g.num_nodes + 1
    assert merged.num_edges == g.num_edges + 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 18), st.integers(0, 10_000))
def test_subgraph_edges_are_induced(n, seed):
    g = random_graph(n, 0.3, seed)
    rng = np.random.default_rng(seed + 1)
    keep = [v for v in g.ids() if rng.random() < 0.6] or [g.ids()[0]]
    sub = g.subgraph([g.index_of(v) for v in keep])
    kept = set(keep)
    expected = {(u, v) for u, v in edges(g) if u in kept and v in kept}
    assert edge_set(sub) == expected
    for nid in sub.ids():
        assert sub.node(nid).text == g.node(nid).text
        assert sub.node(nid).label == g.node(nid).label


@pytest.mark.parametrize("positions", [
    [-1], [3], [0, 3], ["a"], [1.0], [True], np.array([[0, 1]]),
], ids=["minus-one", "n", "inside-and-n", "id", "float", "bool", "two-d"])
def test_subgraph_rejects_what_is_not_a_position(positions):
    g = make_graph({"a": ["b"], "b": [], "c": []})
    with pytest.raises(ValueError, match=r"positions in \[0, 3\)"):
        g.subgraph(positions)
    with pytest.raises(ValueError, match=r"record positions must be positions in \[0, 3\)"):
        g.records(positions)


def test_subgraph_counts_repeats_once_in_node_order():
    g = make_graph({"a": ["b"], "b": ["c"], "c": []})
    sub = g.subgraph(np.array([2, 0, 1, 2, 1]))
    assert sub.ids() == ("a", "b", "c") and sub.num_edges == 2
    assert g.subgraph([]).num_nodes == 0 and g.subgraph(iter([1, 1])).ids() == ("b",)


def oracle_induced_components(g, kept):
    """Components of the subgraph induced by ``kept``, by breadth-first search,
    listed in order of their first node position."""
    seen, comps = set(), []
    for start in g.ids():
        if start not in kept or start in seen:
            continue
        comp, frontier = {start}, [start]
        seen.add(start)
        while frontier:
            u = frontier.pop()
            for w in g.neighbors(u):
                if w in kept and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    frontier.append(w)
        comps.append(frozenset(comp))
    return comps


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10_000))
def test_component_labels_on_induced_subsets_match_bfs(n, seed):
    g = random_graph(n, 0.12, seed)
    keep = np.random.default_rng(seed + 2).random(n) < 0.6
    ids = g.ids()
    expected = oracle_induced_components(g, {ids[i] for i in np.flatnonzero(keep)})
    labels, sizes = component_labels(g, keep)
    got: dict[int, set] = {}
    for i, lab in enumerate(labels.tolist()):
        if keep[i]:
            got.setdefault(lab, set()).add(ids[i])
        else:
            assert lab == -1
    assert [frozenset(got[c]) for c in range(len(got))] == expected
    assert sizes.tolist() == [len(c) for c in expected]
    full, full_sizes = component_labels(g)
    every, every_sizes = component_labels(g, np.ones(n, dtype=bool))
    assert np.array_equal(full, every) and np.array_equal(full_sizes, every_sizes)
