import hashlib
import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import (
    assignment,
    complete_graph,
    cosine_similarity,
    edges,
    make_graph,
    path_graph,
    random_embeddings,
    random_graph,
    two_k3,
)
from tagforge import community
from tagforge.community import (
    _GAIN_EPS,
    AGGREGATE_SEMANTIC_LIMIT,
    EXACT_PAIR_LIMIT,
    EmbeddingTable,
    ModularityParams,
    Partition,
    _Level,
    _pair_term,
    detect_communities,
    indicator,
    semantic_modularity,
)
from tagforge.graph import _ROW_BLOCK, NodeRecord, TextAttributedGraph

# oracles ----------------------------------------------------------------------

def oracle_newman(g, partition):
    """Textbook double loop over all ordered node pairs, diagonal included."""
    ids = g.ids()
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n))
    for u, v in edges(g):
        a[pos[u], pos[v]] = a[pos[v], pos[u]] = 1.0
    k = a.sum(axis=1)
    two_m = k.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if partition.comm[i] == partition.comm[j]:
                q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def oracle_semantic(g, partition, emb, gamma, term):
    """Direct evaluation of the full objective, all ordered pairs."""
    ids = g.ids()
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n))
    for u, v in edges(g):
        a[pos[u], pos[v]] = a[pos[v], pos[u]] = 1.0
    k = a.sum(axis=1)
    two_m = k.sum()
    emb.check(g)
    x = emb.unit
    cos = x @ x.T
    s = np.clip(cos, 0.0, None) if term == "similarity" else 1.0 - cos
    s_tot = float(s.sum())
    q = 0.0
    for i in range(n):
        for j in range(n):
            if partition.comm[i] == partition.comm[j]:
                q += a[i, j] - gamma * k[i] * k[j] / two_m - (1 - gamma) * s[i, j] / s_tot
    return q / two_m


def set_partitions(items):
    """All partitions of a sequence (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


# cosine -------------------------------------------------------------------------

def test_cosine_identity_and_orthogonal():
    e1 = [1.0, 0.0]
    e2 = [0.0, 1.0]
    assert cosine_similarity(e1, e1) == pytest.approx(1.0)
    assert cosine_similarity(e1, e2) == pytest.approx(0.0)


def test_cosine_hand_value():
    assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))


def test_cosine_errors():
    with pytest.raises(ValueError):
        cosine_similarity([1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


# embedding table -----------------------------------------------------------------

def test_embedding_table_rejects_zero_and_mismatched():
    for bad in ({"a": [1.0, 0.0], "b": [0.0, 0.0]}, {"a": [1.0, 0.0], "c": [1.0, 0.0, 0.0]},
                {"a": [np.nan, 1.0]}, {"a": []}, {"a": [[1.0, 0.0]]}, {"a": ["x", 1.0]}):
        with pytest.raises(ValueError):
            EmbeddingTable(bad)
    t = EmbeddingTable({"a": [1.0, 0.0]})
    for bad in ({"b": [0.0, 0.0]}, {"c": [1.0, 0.0, 0.0]}):
        with pytest.raises(ValueError):
            t.extended(bad)
    t = t.extended({"d": [3.0, 4.0]})
    assert t.ids == ("a", "d") and t.dim == 2
    assert np.array_equal(t.unit[1], [0.6, 0.8])


def test_embedding_table_extended_matches_one_build():
    rng = np.random.default_rng(5)
    vecs = {str(i): rng.normal(size=7) for i in range(60)}
    ids = list(vecs)
    whole = EmbeddingTable(vecs)
    grown = EmbeddingTable({v: vecs[v] for v in ids[:5]})
    for start, stop in ((5, 6), (6, 6), (6, 31), (31, 60)):
        grown = grown.extended({v: vecs[v] for v in ids[start:stop]})
    assert grown.ids == whole.ids == tuple(ids) and grown.dim == whole.dim == 7
    assert np.array_equal(grown.raw, whole.raw)
    assert np.array_equal(grown.unit, whole.unit)
    assert np.array_equal(whole.raw, np.stack(list(vecs.values())))
    assert np.array_equal(whole.unit,
                          np.stack([v / np.linalg.norm(v) for v in vecs.values()]))


# params and partition -------------------------------------------------------------

def test_modularity_params_validation():
    with pytest.raises(ValueError):
        ModularityParams(gamma=1.5)
    with pytest.raises(ValueError):
        ModularityParams(semantic_term="euclidean")


def test_partition_canonicalization_orders_by_smallest_member():
    g = TextAttributedGraph.from_records(
        [NodeRecord(v, 0, "t", ()) for v in ("b", "a", "c")], 1)
    p = Partition(g, [9, 4, 9])
    # community containing "a" gets index 0
    assert assignment(p) == {"a": 0, "b": 1, "c": 1}
    assert p.community_count == 2
    assert not p.comm.flags.writeable


def test_partition_check_requires_the_graph_node_order():
    g = make_graph({"a": ["b"], "b": []})
    for labels in ([0], [0, 1, 2], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ValueError):
            Partition(g, labels)
    part = Partition(g, [0, 1])
    part.check(g)
    reordered = TextAttributedGraph.from_records(tuple(reversed(g.nodes)), g.class_count)
    for other in (reordered, make_graph({"a": ["b"], "b": [], "c": []})):
        with pytest.raises(ValueError):
            part.check(other)


# semantic modularity ---------------------------------------------------------------

def test_two_k3_gamma_one_is_exactly_half():
    g = two_k3()
    part = Partition(g, [0 if int(nid) < 3 else 1 for nid in g.ids()])
    q = semantic_modularity(g, part, None, ModularityParams(gamma=1.0))
    assert q == 0.5


def test_all_in_one_community_gamma_one_is_zero():
    g = random_graph(15, 0.25, seed=9)
    part = Partition(g, [0] * g.num_nodes)
    q = semantic_modularity(g, part, None, ModularityParams(gamma=1.0))
    assert abs(q) < 1e-12


def test_gamma_one_matches_newman_oracle_on_random_pairs():
    rng = np.random.default_rng(4)
    for trial in range(30):
        g = random_graph(int(rng.integers(5, 22)), 0.3, seed=trial + 100)
        if g.num_edges == 0:
            continue
        part = Partition(g, [int(rng.integers(3)) for nid in g.ids()])
        mine = semantic_modularity(g, part, None, ModularityParams(gamma=1.0))
        assert abs(mine - oracle_newman(g, part)) < 1e-12


@pytest.mark.parametrize("term", ["similarity", "distance"])
def test_four_node_path_gamma_half_matches_double_loop(term):
    g = path_graph(4)
    emb = random_embeddings(g, dim=6, seed=11)
    part = Partition(g, [0, 0, 1, 1])
    params = ModularityParams(gamma=0.5, semantic_term=term)
    mine = semantic_modularity(g, part, emb, params)
    assert abs(mine - oracle_semantic(g, part, emb, 0.5, term)) < 1e-12


@pytest.mark.parametrize("term", ["similarity", "distance"])
def test_gamma_half_matches_double_loop_on_random_graphs(term):
    rng = np.random.default_rng(17)
    for trial in range(10):
        g = random_graph(int(rng.integers(4, 14)), 0.35, seed=trial + 300)
        if g.num_edges == 0:
            continue
        emb = random_embeddings(g, dim=5, seed=trial)
        part = Partition(g, [int(rng.integers(2)) for nid in g.ids()])
        params = ModularityParams(gamma=0.5, semantic_term=term)
        mine = semantic_modularity(g, part, emb, params)
        assert abs(mine - oracle_semantic(g, part, emb, 0.5, term)) < 1e-12


@pytest.mark.parametrize("term", ["similarity", "distance"])
def test_semantic_modularity_sums_a_large_community_in_row_blocks(term):
    import tracemalloc
    n, big = 3000, 2700
    assert big > _ROW_BLOCK
    g = path_graph(n)
    emb = random_embeddings(g, dim=8, seed=13)
    comm = (np.arange(n) >= big).astype(np.int64)
    part = Partition(g, comm)
    params = ModularityParams(gamma=0.5, semantic_term=term)
    tracemalloc.start()
    try:
        got = semantic_modularity(g, part, emb, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big * big * 8
    # the unblocked sums, with one |C| x |C| array per community
    x, m = emb.unit, g.num_edges
    s_tot = float(_pair_term(x @ x.T, term).sum())
    same = sum(float(_pair_term(xb @ xb.T, term).sum()) for xb in (x[comm == 0], x[comm == 1]))
    internal, deg_sum = community.block_totals(g, part.comm, 2)
    topology = int(internal.sum()) / m - 0.5 * float((deg_sum ** 2).sum()) / (4.0 * m * m)
    want = topology - 0.5 * same / (2.0 * m * s_tot)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_zero_edges_is_an_error():
    g = make_graph({"a": [], "b": []})
    part = Partition(g, [0, 1])
    with pytest.raises(ValueError):
        semantic_modularity(g, part, None, ModularityParams(gamma=1.0))


def test_gamma_below_one_requires_covering_embeddings():
    g = path_graph(3)
    part = Partition(g, [0] * g.num_nodes)
    with pytest.raises(ValueError):
        semantic_modularity(g, part, None, ModularityParams(gamma=0.5))


# detection --------------------------------------------------------------------------

def test_detect_recovers_two_triangles():
    g = two_k3()
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    groups = {}
    for nid, c in assignment(part).items():
        groups.setdefault(c, set()).add(nid)
    assert sorted(groups.values(), key=sorted) == [
        {"0", "1", "2"}, {"3", "4", "5"}]


def test_two_triangles_is_the_exhaustive_optimum():
    """Exhaustive search over all 203 partitions of the 6 nodes agrees."""
    g = two_k3()
    params = ModularityParams(gamma=1.0)
    best_q, best_parts = -math.inf, []
    count = 0
    for blocks in set_partitions(list(g.ids())):
        count += 1
        labels = {v: i for i, block in enumerate(blocks) for v in block}
        q = semantic_modularity(g, Partition(g, [labels[v] for v in g.ids()]), None, params)
        if q > best_q + 1e-12:
            best_q, best_parts = q, [labels]
        elif q > best_q - 1e-12:
            best_parts.append(labels)
    assert count == 203
    detected = detect_communities(g, None, params, 0)
    q_detected = semantic_modularity(g, detected, None, params)
    assert abs(q_detected - best_q) < 1e-12


def test_complete_graph_stays_single_community():
    g = complete_graph(5)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    assert part.community_count == 1


def test_degenerate_small_graphs_terminate():
    for n in (1, 2, 3):
        adj = {str(i): ([str(i + 1)] if i + 1 < n else []) for i in range(n)}
        g = make_graph(adj)
        part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
        part.check(g)


def test_detection_beats_singleton_partition():
    params = ModularityParams(gamma=1.0)
    for seed in range(8):
        g = random_graph(18, 0.2, seed=seed + 40)
        if g.num_edges == 0:
            continue
        detected = detect_communities(g, None, params, 0)
        singleton = Partition(g, np.arange(g.num_nodes))
        assert (semantic_modularity(g, detected, None, params)
                >= semantic_modularity(g, singleton, None, params) - 1e-12)


def test_detection_beats_singleton_with_semantics():
    params = ModularityParams(gamma=0.5)
    for seed in range(4):
        g = random_graph(14, 0.25, seed=seed + 60)
        if g.num_edges == 0:
            continue
        emb = random_embeddings(g, dim=6, seed=seed)
        detected = detect_communities(g, emb, params, 0)
        singleton = Partition(g, np.arange(g.num_nodes))
        assert (semantic_modularity(g, detected, emb, params)
                >= semantic_modularity(g, singleton, emb, params) - 1e-12)


def reversed_table(emb):
    """The table of the graph whose node records come in reverse order."""
    return EmbeddingTable(dict(zip(emb.ids[::-1], emb.raw[::-1])))


def test_detection_invariant_to_record_order():
    g = random_graph(16, 0.22, seed=77)
    reordered = TextAttributedGraph.from_records(tuple(reversed(g.nodes)), g.class_count)
    assert reordered.ids() == tuple(reversed(g.ids()))
    part1 = detect_communities(g, None, ModularityParams(gamma=1.0), 5)
    part2 = detect_communities(reordered, None, ModularityParams(gamma=1.0), 5)
    assert assignment(part1) == assignment(part2)
    emb = random_embeddings(g, dim=6, seed=77)
    params = ModularityParams(gamma=0.5)
    assert (assignment(detect_communities(g, emb, params, 5))
            == assignment(detect_communities(reordered, reversed_table(emb), params, 5)))


def test_detection_deterministic_for_fixed_seed():
    g = random_graph(20, 0.2, seed=13)
    emb = random_embeddings(g, dim=4, seed=2)
    p1 = detect_communities(g, emb, ModularityParams(gamma=0.5), 3)
    p2 = detect_communities(g, emb, ModularityParams(gamma=0.5), 3)
    assert assignment(p1) == assignment(p2)


def test_edgeless_graph_yields_singletons():
    g = make_graph({"a": [], "b": [], "c": []})
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    assert part.community_count == 3


# differential and oracle checks on planted-label graphs ----------------------------

def planted(n, seed, labels=6, avg_degree=4.0, dim=16):
    """Planted-label graph (80% of edge ends inside the label) plus embeddings
    drawn around one centroid per label."""
    rng = np.random.default_rng(seed)
    label = rng.integers(labels, size=n)
    label[:labels] = np.arange(labels)
    groups = [np.flatnonzero(label == c) for c in range(labels)]
    edges = set()
    while len(edges) < n * avg_degree / 2:
        a = int(rng.integers(n))
        lbl = label[a] if rng.random() < 0.8 else int(rng.integers(labels))
        b = int(rng.choice(groups[lbl]))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    adj = {str(i): [] for i in range(n)}
    for a, b in sorted(edges):
        adj[str(a)].append(str(b))
    g = make_graph(adj, labels={str(i): int(label[i]) for i in range(n)},
                   class_count=labels)
    vecs = rng.normal(size=(labels, dim))[label] + rng.normal(scale=0.8, size=(n, dim))
    return g, EmbeddingTable({nid: vecs[int(nid)] for nid in g.ids()})


def partition_digest(part):
    return hashlib.sha256(json.dumps(sorted(assignment(part).items())).encode()).hexdigest()


# sha256 of the sorted assignment, recorded with the detection code that built
# the semantic block sums from k^2 dense slices and summed each candidate
# community in its own call
RECORDED_PARTITIONS = {
    (300, 1.0, "similarity"):
        "dc45f193658e684d4dade0f7754af712d364c6a50b2dc2ac095d343d3382b24a",
    (300, 1.0, "distance"):
        "dc45f193658e684d4dade0f7754af712d364c6a50b2dc2ac095d343d3382b24a",
    (300, 0.5, "similarity"):
        "c7ff2e9061da674533862da22fd4707a55646fc801d750dbb1888bcd915be1e1",
    (300, 0.5, "distance"):
        "7fdd0d5c58a1f42177471206ef658e242552997674f2125da3e419147cf607a9",
    (900, 1.0, "similarity"):
        "6a6734f6904bea4a6096b266773550bcdd6ae18ca874862a5afa3289991b2774",
    (900, 1.0, "distance"):
        "6a6734f6904bea4a6096b266773550bcdd6ae18ca874862a5afa3289991b2774",
    (900, 0.5, "similarity"):
        "d6f0a4e0a72765e72c4877b322ab3e66f3ac31d4c0a7b7b644d27f6b2f036494",
    (900, 0.5, "distance"):
        "1a16627607fdc401531848ad06412ae1fc40d73cc586a9f33ac562ec70489388",
    # bench scale, recorded with the local moving that re-evaluated every node
    # on every sweep
    (2000, 0.5, "similarity"):
        "d9a8a96eafda71a6ef74c9e67f65e2956d237aac32332ccf7a5e9233e8f51154",
    (2000, 0.5, "distance"):
        "0752b8844485ef61beaa6b2ec4d9be0fda68a115b486ad40b6dc08dee61f9a11",
    (2000, 1.0, "similarity"):
        "428d845d0277ebf1631e319fa0a3cf0a59dbddfa0e1815090f35a856b82465a5",
    (5100, 0.5, "similarity"):
        "e89074c3bfb83bf0890ce7265411a42f2a135cc10982aad94c7f268b0deb178d",
    # Cora scale, recorded with the local moving that gathered every member of
    # each candidate community on every visit
    (2700, 0.5, "similarity"):
        "77d5cee4b8b36f60b4c74b3bdd56a498a03a8d829738ad049003d50723066310",
    # at size, recorded with the local moving that skipped a visit by comparing
    # community stamps: gamma = 0.5 stays at the first level, gamma = 1 has a
    # long tail of sweeps
    (10000, 0.5, "similarity"):
        "766ec094f70e6ae5369b93a9f57f3c503c2e9f62b7378d698d3fa8dcf8a8b0b6",
    (10000, 1.0, "similarity"):
        "1d5de4ea4e44b00e3b512ce6ce6cb4d3ecfc3973ac5a939cecc2734fc37a1b4d",
}


@pytest.mark.parametrize("n,gamma,term", sorted(RECORDED_PARTITIONS))
def test_detection_matches_recorded_partitions(n, gamma, term, monkeypatch):
    g, emb = planted(n, seed=n + 7)
    levels = []
    aggregate = community._aggregate
    monkeypatch.setattr(community, "_aggregate",
                        lambda *args: levels.append(1) or aggregate(*args))
    params = ModularityParams(gamma=gamma, semantic_term=term)
    part = detect_communities(g, emb, params, 11)
    assert partition_digest(part) == RECORDED_PARTITIONS[(n, gamma, term)]
    if n == 300:
        assert len(levels) >= 2  # coarsened at least twice
    else:
        assert n > EXACT_PAIR_LIMIT  # the pair sum is sampled
    if gamma < 1.0 and n > AGGREGATE_SEMANTIC_LIMIT:
        assert not levels  # the semantic run stays at the first level
    if gamma < 1.0:
        reversed_copy = TextAttributedGraph.from_records(
            list(reversed(g.nodes)), g.class_count)
        assert (assignment(detect_communities(reversed_copy, reversed_table(emb), params, 11))
                == assignment(part))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_detected_modularity_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    g, _ = planted(150, seed)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
    graph = nx.Graph()
    graph.add_nodes_from(g.ids())
    graph.add_edges_from(edges(g))
    expected = nx.community.modularity(
        graph, [{g.ids()[i] for i in members} for members in part.positions(g)])
    assert part.community_count > 1
    assert semantic_modularity(g, part) == pytest.approx(expected, rel=0, abs=1e-12)


# local moving against the full-sweep reference ------------------------------------

# The local moving that re-evaluated every node on every sweep, kept word for
# word as the reference for the version that skips visits whose result is
# already known.
def reference_local_moving(level: _Level, two_m: float, gamma: float, sem_coeff: float,
                             x_unit: np.ndarray | None, semantic_term: str) -> tuple[np.ndarray, bool]:
    """Greedy node moves until no single move improves the score.

    Nodes are visited in index order; candidate communities are those holding
    a graph neighbor. Ties on gain go to the community whose smallest original
    member comes first, which makes the sweep order permutation invariant.
    Each visit gathers the semantic pair terms between the node and the
    members of its own and every candidate community in one vector operation
    (from ``level.sem`` on coarse levels, from ``x_unit`` on the first) and
    sums them per community, so its cost follows those communities' sizes.
    """
    n = len(level.members)
    indptr, nbrs, weights = (arr.tolist() for arr in (
        level.adj.indptr, level.adj.indices, level.adj.data))
    comm = list(range(n))
    node_strength = level.strength.tolist()
    comm_strength = list(node_strength)
    members: list[set[int]] = [{i} for i in range(n)]
    # smallest original member per super-node and per community, for
    # canonical tie-breaking
    first = [ms[0] for ms in level.members]
    min_member = list(first)

    improved_any = False
    while True:
        moved = False
        for v in range(n):
            cur = comm[v]
            links: dict[int, float] = {}
            for j in range(indptr[v], indptr[v + 1]):
                u = nbrs[j]
                if u == v:
                    continue
                c = comm[u]
                links[c] = links.get(c, 0.0) + weights[j]
            cands = sorted((c for c in links if c != cur), key=min_member.__getitem__)
            if not cands:
                continue
            k_v = node_strength[v]

            groups = [cur] + cands
            if sem_coeff == 0.0:
                sem = [0.0] * len(groups)
            else:
                sizes = [len(members[c]) for c in groups]
                idx = np.fromiter(itertools.chain.from_iterable(members[c] for c in groups),
                                  dtype=np.intp, count=sum(sizes))
                if level.sem is not None:
                    vals = level.sem[v, idx]
                else:
                    vals = _pair_term(x_unit[idx] @ x_unit[v], semantic_term)
                vals[idx == v] = 0.0
                starts = list(itertools.accumulate(sizes[:-1], initial=0))
                sem = np.add.reduceat(vals, starts).tolist()

            k_c = comm_strength[cur] - k_v
            base = links.get(cur, 0.0) - gamma * k_v * k_c / two_m - sem_coeff * sem[0]
            best_c, best_gain = cur, 0.0
            for c, s in zip(cands, sem[1:]):
                delta = (links[c] - gamma * k_v * comm_strength[c] / two_m
                         - sem_coeff * s) - base
                if delta > best_gain + _GAIN_EPS:
                    best_gain = delta
                    best_c = c
            if best_c != cur:
                members[cur].discard(v)
                members[best_c].add(v)
                comm_strength[cur] -= k_v
                comm_strength[best_c] += k_v
                comm[v] = best_c
                if first[v] == min_member[cur]:
                    min_member[cur] = min((first[u] for u in members[cur]), default=n + 1)
                min_member[best_c] = min(min_member[best_c], first[v])
                moved = True
                improved_any = True
        if not moved:
            break
    return np.array(comm), improved_any


def check_local_moving(monkeypatch):
    """Run every ``_local_moving`` call of detection through the reference as
    well, assert equal results, and return the levels seen."""
    levels = []
    fast = community._local_moving

    def both(level, *args):
        comm, improved = fast(level, *args)
        ref_comm, ref_improved = reference_local_moving(level, *args)
        assert np.array_equal(comm, ref_comm) and improved == ref_improved
        levels.append(level)
        return comm, improved

    monkeypatch.setattr(community, "_local_moving", both)
    return levels


@pytest.mark.parametrize("gamma,term", [(1.0, "similarity")] + [
    (gamma, term) for gamma in (0.1, 0.5, 0.9) for term in ("similarity", "distance")])
def test_local_moving_matches_full_sweep_reference(gamma, term, monkeypatch):
    levels = check_local_moving(monkeypatch)
    params = ModularityParams(gamma=gamma, semantic_term=term)
    for n, seed, avg_degree in [(60, 1, 3.0), (250, 2, 4.0), (400, 3, 1.6), (700, 4, 5.0)]:
        g, emb = planted(n, seed, avg_degree=avg_degree)
        detect_communities(g, emb, params, seed)
    for seed in range(6):
        g = random_graph(30, 0.12, seed=seed + 500)
        if g.num_edges:
            detect_communities(g, random_embeddings(g, dim=5, seed=seed), params, seed)
    coarse = [lv for lv in levels if any(len(ms) > 1 for ms in lv.members)]
    assert len(coarse) >= 8
    if gamma < 1.0:
        assert all(lv.sem is not None for lv in coarse)  # dense semantic blocks


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_local_moving_matches_reference_on_tied_cliques(gamma, monkeypatch):
    """A ring of identical 5-cliques whose node j always carries vector j: every
    clique looks the same, so gains tie and _GAIN_EPS and min_member decide."""
    levels = check_local_moving(monkeypatch)
    cliques, size = 12, 5
    adj = {str(i): [] for i in range(cliques * size)}
    for c in range(cliques):
        base = c * size
        for a, b in itertools.combinations(range(size), 2):
            adj[str(base + a)].append(str(base + b))
        adj[str(base + size - 1)].append(str((base + size) % (cliques * size)))
    g = make_graph(adj)
    vecs = np.eye(size) + 0.5
    emb = EmbeddingTable({nid: vecs[int(nid) % size] for nid in g.ids()})
    part = detect_communities(g, emb, ModularityParams(gamma=gamma), 0)
    assert len(levels) >= 2 and part.community_count > 1


def test_local_moving_revisits_node_when_only_its_own_community_changed():
    """Node v ends up alone with non-neighbours, then a non-neighbour joins its
    community and v leaves on the next sweep, although no community holding a
    neighbour of v changed. With gamma = 0 a co-assigned pair counts its edge
    weight minus its semantic value; values up to 2 lie in the ``distance``
    term's range. Sweep 1: u joins x, v joins them, b joins y. Sweep 2: u
    leaves for {b, y}, v stays, w joins {x, v}. Sweep 3: v follows u."""
    u, v, w, x, b, y = range(6)
    adj, sem = np.zeros((6, 6)), np.zeros((6, 6))
    for p, q, weight in [(u, x, 3.6), (u, v, 2), (u, b, 3), (u, y, 3), (w, x, 2.5), (b, y, 1)]:
        adj[p, q] = adj[q, p] = weight
    for p, q, value in [(v, x, 1), (v, w, 2), (v, b, 2), (v, y, 2), (w, u, 1),
                        (x, b, 1.5), (x, y, 1.5), (w, b, 1), (w, y, 1)]:
        sem[p, q] = sem[q, p] = value
    level = _Level(sp.csr_matrix(adj), adj.sum(axis=1), sem, [[i] for i in range(6)])
    args = (level, float(adj.sum()), 0.0, 1.0, None, "distance")
    comm, improved = community._local_moving(*args)
    assert comm.tolist() == [y, y, x, x, y, y] and improved
    ref_comm, ref_improved = reference_local_moving(*args)
    assert np.array_equal(comm, ref_comm) and improved == ref_improved


@st.composite
def small_levels(draw):
    """A small level and the arguments of one local moving call on it. First
    levels draw unit rows from a palette holding duplicates and antipodes, so
    pair terms hit 0, 1 and 2; coarse levels come from ``_aggregate`` over a
    first level or are drawn by hand within ``_Level``'s contract."""
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    adj = np.zeros((n, n))
    for p, q in chosen:
        adj[p, q] = adj[q, p] = draw(st.sampled_from([1.0, 1.0, 2.0, 0.5, 3.0]))
    level = _Level(sp.csr_matrix(adj), adj.sum(axis=1), None, [[i] for i in range(n)])
    # gamma = 0 drops the null model, so topology ties and the semantic
    # sums alone decide
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    term = draw(st.sampled_from(["similarity", "distance"]))
    # semantic sums of the same order as topology, where the bound matters
    sem_coeff = (1.0 - gamma) * draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    kind = draw(st.sampled_from(["first", "first", "aggregated", "hand"]))
    x_unit = None
    if kind != "hand":
        u = np.random.default_rng(draw(st.integers(0, 2 ** 16))).normal(size=3)
        u /= np.linalg.norm(u)
        palette = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], u, -u])
        x_unit = palette[draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))]
    if kind == "aggregated":
        comm = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        level, x_unit = community._aggregate(level, comm, x_unit, term), None
    elif kind == "hand":
        # sem = P^T T P: T a symmetric matrix of dyadic pair terms in the
        # term's [lo, hi] over the original nodes, so every sum is exact, and
        # P a grouping of them in which super-node i's smallest member is i
        group = list(range(n)) + draw(st.lists(st.integers(0, n - 1), max_size=10))
        members = [[] for _ in range(n)]
        for orig, c in enumerate(group):
            members[c].append(orig)
        palette = ([0.0, 0.25, 0.5, 1.0] if term == "similarity"
                   else [-1.0, -0.5, 0.0, 0.75, 1.5, 2.0])
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        t = np.triu(rng.choice(palette, size=(len(group), len(group))))
        p = np.eye(n)[group]
        level = _Level(level.adj, level.strength, p.T @ (t + np.triu(t, 1).T) @ p, members)
    two_m = float(level.strength.sum())
    return level, two_m, gamma, sem_coeff, x_unit, term


# ``--hypothesis-profile deep`` raises the budget (tests/conftest.py)
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(small_levels())
def test_local_moving_matches_full_sweep_reference_on_small_levels(args):
    comm, improved = community._local_moving(*args)
    ref_comm, ref_improved = reference_local_moving(*args)
    assert comm.tolist() == ref_comm.tolist() and improved == ref_improved


def test_local_moving_weighs_the_own_community_penalty_before_settling_a_stay():
    """Topology favours keeping v with w by 0.1, less than the 0.5 that v's
    duplicate-vector partner w costs it in semantics, so v leaves for x. A
    topology bound that took the own community's semantic sum as 0 would
    settle the stay. Sweep 1: w joins v, v leaves w for x, x joins y. Sweep
    2: w follows v, and v leaves w again for {x, y}. Sweep 3: w follows v."""
    w, v, x, y = range(4)
    adj = np.zeros((4, 4))
    for p, q, weight in [(w, v, 1.0), (v, x, 0.9), (x, y, 5.0)]:
        adj[p, q] = adj[q, p] = weight
    x_unit = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    level = _Level(sp.csr_matrix(adj), adj.sum(axis=1), None, [[i] for i in range(4)])
    args = (level, float(adj.sum()), 0.0, 0.5, x_unit, "similarity")
    comm, improved = community._local_moving(*args)
    assert comm.tolist() == [y, y, y, y] and improved
    ref_comm, _ = reference_local_moving(*args)
    assert np.array_equal(comm, ref_comm)


@pytest.mark.parametrize("coarse", [True, False], ids=["coarse", "first"])
def test_local_moving_leaves_out_the_nodes_own_pair_term(coarse):
    """Two nodes joined by an edge of weight 0.5 whose pair terms are 0.8:
    one term between two unit vectors, or four between two super-nodes of two
    members each. With gamma = 0 joining gains 0.5 - 0.8 or 0.5 - 3.2 < 0, so
    both stay alone. The node's own term (1 for a unit vector's similarity
    with itself, 4 on the coarse level's diagonal) must not count against
    staying put."""
    adj = sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
    sem = np.array([[4.0, 3.2], [3.2, 4.0]]) if coarse else None
    x_unit = None if coarse else np.array([[1.0, 0.0], [0.8, 0.6]])
    level = _Level(adj, np.array([0.5, 0.5]), sem, [[0, 1], [2, 3]] if coarse else [[0], [1]])
    comm, improved = community._local_moving(level, 1.0, 0.0, 1.0, x_unit, "similarity")
    assert comm.tolist() == [0, 1] and not improved


def test_local_moving_bounds_the_own_sum_by_original_nodes():
    """Super-nodes v (2 members), w (3), q (1) and x (1); gamma = 0, so a
    co-assigned pair counts its edge weight minus its semantic sum. Sweep 1: v
    joins w for 7 - 5 over x's 1, w stays, q joins {v, w} for 2 - 1.5. Sweep
    2: v's own sum is 5 + 1.5, so leaving for x gains 1 - (7 - 6.5). U must
    count original nodes, 1 * 2 * 6 = 12: counted in super-nodes, 2 * 3 = 6,
    or without v's size, 6, the bound 1 - (7 - 6) settles a stay."""
    v, w, q, x = range(4)
    adj, sem = np.zeros((4, 4)), np.zeros((4, 4))
    for p, r, weight in [(v, w, 7), (v, x, 1), (w, q, 2)]:
        adj[p, r] = adj[r, p] = weight
    for p, r, value in [(v, w, 5), (v, q, 1.5), (x, w, 1)]:
        sem[p, r] = sem[r, p] = value
    members = [[0, 1], [2, 3, 4], [5], [6]]
    sem[range(4), range(4)] = [len(ms) ** 2 for ms in members]
    level = _Level(sp.csr_matrix(adj), adj.sum(axis=1), sem, members)
    args = (level, float(adj.sum()), 0.0, 1.0, None, "similarity")
    comm, improved = community._local_moving(*args)
    assert comm.tolist() == [x, w, w, x] and improved
    ref_comm, _ = reference_local_moving(*args)
    assert np.array_equal(comm, ref_comm)


@pytest.mark.parametrize("term", ["similarity", "distance"])
def test_coarse_levels_keep_the_semantic_sum_contract(term, monkeypatch):
    """Each block sum of a level that detection builds lies within the term's
    [lo, hi] times the number of original pairs it sums."""
    levels = []
    fast = community._local_moving
    monkeypatch.setattr(community, "_local_moving",
                        lambda *args: levels.append(args[0]) or fast(*args))
    g, emb = planted(900, seed=907)
    detect_communities(g, emb, ModularityParams(gamma=0.5, semantic_term=term), 11)
    lo, hi = (0.0, 1.0) if term == "similarity" else (-1.0, 2.0)
    coarse = [lv for lv in levels if lv.sem is not None]
    assert len(coarse) >= 2
    for level in coarse:
        sizes = np.array([len(ms) for ms in level.members], dtype=np.float64)
        pairs = np.outer(sizes, sizes)
        tol = 1e-9 * pairs
        assert np.all(level.sem >= lo * pairs - tol) and np.all(level.sem <= hi * pairs + tol)


def test_local_moving_holds_no_copy_of_the_semantic_block_sums(monkeypatch):
    import tracemalloc
    captured = []
    fast = community._local_moving
    monkeypatch.setattr(community, "_local_moving",
                        lambda *args: captured.append(args) or fast(*args))
    g, emb = planted(2000, seed=2007)
    detect_communities(g, emb, ModularityParams(gamma=0.5), 11)
    args = captured[1]  # the first coarse level
    level = args[0]
    assert level.sem is not None and len(level.sem) > 600
    tracemalloc.start()
    try:
        fast(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < level.sem.nbytes / 2


# aggregation against the whole-matrix reference ----------------------------------

# The aggregation that summed each 1,024-row block of the pair-term matrix as
# ind_b^T @ (rows @ ind), one k x k temporary per block, kept word for word as
# the reference for the version that walks community-ordered blocks.
def reference_aggregate(level: _Level, comm: np.ndarray, x_unit: np.ndarray | None,
                        semantic_term: str) -> _Level:
    """Collapse each community of ``comm`` into one super-node.

    Super-nodes are ordered by their smallest original member. Semantic block
    sums are carried when ``level.sem`` exists, or, on the first level, built
    from ``x_unit`` when it is given.
    """
    n = len(comm)
    comm = comm.tolist()
    first: dict[int, int] = {}
    for v in range(n):
        c, m = comm[v], level.members[v][0]
        if m < first.get(c, m + 1):
            first[c] = m
    labels = sorted(first, key=first.__getitem__)
    remap = {c: i for i, c in enumerate(labels)}
    k = len(labels)
    caff = [remap[c] for c in comm]
    members: list[list[int]] = [[] for _ in range(k)]
    for v in range(n):
        members[caff[v]].extend(level.members[v])
    for ms in members:
        ms.sort()
    # weights are integer counts, so P^T A P and P^T strength are exact
    ind = indicator(caff, k)
    adj = (ind.T @ level.adj @ ind).tocsr()
    strength = ind.T @ level.strength
    sem = None
    if level.sem is not None or x_unit is not None:
        # P^T T P, one row block of the pair-term matrix T at a time
        sem = np.zeros((k, k))
        for start in range(0, n, _ROW_BLOCK):
            if level.sem is not None:
                rows = level.sem[start:start + _ROW_BLOCK]
            else:
                rows = _pair_term(x_unit[start:start + _ROW_BLOCK] @ x_unit.T, semantic_term)
            sem += ind[start:start + _ROW_BLOCK].T @ (rows @ ind)
    return _Level(adj, strength, sem, members)


def assert_same_level(got: _Level, ref: _Level):
    assert got.adj.shape == ref.adj.shape and (got.adj != ref.adj).nnz == 0
    assert np.array_equal(got.strength, ref.strength)
    assert got.members == ref.members
    assert got.sem.shape == ref.sem.shape
    # every pair term is nonnegative, so the sums have no cancellation
    assert np.all(np.abs(got.sem - ref.sem) <= 1e-12 * np.abs(ref.sem))


@pytest.mark.parametrize("term", ["similarity", "distance"])
def test_aggregate_matches_reference_on_every_shape_of_labelling(term):
    n = 1500
    step = community._SEM_BLOCK_FLOATS // n
    assert n % step and n > 2 * step  # several blocks, the last one short
    rng = np.random.default_rng(41)
    g = random_graph(n, 4.0 / n, seed=41)
    x_unit = random_embeddings(g, dim=12, seed=41).unit
    level = _Level(g.adjacency_csr(), g.degrees().astype(np.float64), None,
                   [[i] for i in range(n)])
    big = rng.integers(0, 400, size=n)
    big[rng.permutation(n)[:step + 100]] = 7  # one community larger than a block
    labellings = {
        "random": rng.integers(0, 600, size=n),
        "larger than a block": big,
        "k = 1": np.zeros(n, dtype=np.int64),
        "k = n": rng.permutation(n),
    }
    for name, comm in labellings.items():
        ref = reference_aggregate(level, comm, x_unit, term)
        assert_same_level(community._aggregate(level, comm, x_unit, term), ref)
        # the coarse level built from it, collapsed again from its sem
        k = len(ref.members)
        for coarse_comm in (rng.integers(0, max(1, k // 3), size=k), np.zeros(k, np.int64),
                            np.arange(k)):
            assert_same_level(community._aggregate(ref, coarse_comm, None, term),
                              reference_aggregate(ref, coarse_comm, None, term))


@pytest.mark.parametrize("term", ["similarity", "distance"])
def test_aggregate_matches_reference_inside_detection(term, monkeypatch):
    calls = []
    fast = community._aggregate

    def both(level, comm, x_unit, semantic_term):
        got = fast(level, comm, x_unit, semantic_term)
        assert_same_level(got, reference_aggregate(level, comm, x_unit, semantic_term))
        calls.append(level.sem is None)
        return got

    monkeypatch.setattr(community, "_aggregate", both)
    g, emb = planted(2000, seed=2007)
    detect_communities(g, emb, ModularityParams(gamma=0.5, semantic_term=term), 11)
    assert calls[0] and not calls[-1]  # the first level and at least one coarse level


def test_first_aggregate_allocates_no_k_by_k_temporary(monkeypatch):
    import tracemalloc
    captured = []
    fast = community._aggregate
    monkeypatch.setattr(community, "_aggregate",
                        lambda *args: captured.append(args) or fast(*args))
    g, emb = planted(2000, seed=2007)
    detect_communities(g, emb, ModularityParams(gamma=0.5), 11)
    args = captured[0]
    assert args[2] is not None  # built from the unit embeddings
    tracemalloc.start()
    try:
        sem = fast(*args).sem
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sem) > 600
    # sem itself plus a few blocks of the fixed float budget
    assert peak < sem.nbytes + 4 * community._SEM_BLOCK_FLOATS * 8
