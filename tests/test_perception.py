import hashlib
import json
import math
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import edges, make_graph, random_embeddings, random_graph
from tagforge.community import (
    EmbeddingTable,
    ModularityParams,
    Partition,
    detect_communities,
    semantic_modularity,
)
from tagforge.graph import MASKS, NodeRecord, TextAttributedGraph, node_sort_key
from tagforge.perception import (
    EnhancementMode,
    KnowledgeCapsule,
    PerceptionParams,
    PprConvergenceError,
    SeedSelection,
    build_report,
    class_imbalance,
    fallback_mode,
    personalized_pagerank,
    report_to_json,
    sample_knowledge,
    select_seed,
    train_imbalance,
)

# oracle -------------------------------------------------------------------------

def oracle_ppr(g, seeds, alpha):
    """Dense direct solve of pi = alpha v + (1-alpha) M pi, where column j of
    M is A[:,j]/deg_j for non-dangling j and the teleport vector otherwise."""
    ids = g.ids()
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    v = np.zeros(n)
    for s in seeds:
        v[pos[s]] = 1.0 / len(seeds)
    a = np.zeros((n, n))
    for x, y in edges(g):
        a[pos[x], pos[y]] = a[pos[y], pos[x]] = 1.0
    deg = a.sum(axis=0)
    m = np.zeros((n, n))
    for j in range(n):
        if deg[j] > 0:
            m[:, j] = a[:, j] / deg[j]
        else:
            m[:, j] = v
    pi = np.linalg.solve(np.eye(n) - (1 - alpha) * m, alpha * v)
    return {ids[i]: pi[i] for i in range(n)}


# class imbalance ------------------------------------------------------------------

def test_imbalance_hand_values():
    assert class_imbalance({0: 10, 1: 2, 2: 5}) == {0: 1.0, 1: 5.0, 2: 2.0}
    assert class_imbalance({0: 4, 1: 4}) == {0: 1.0, 1: 1.0}
    assert class_imbalance({0: 1, 1: 99}) == {0: 99.0, 1: 1.0}


def test_imbalance_errors():
    with pytest.raises(ValueError):
        class_imbalance({})
    with pytest.raises(ValueError):
        class_imbalance({0: 0})


def test_train_imbalance_counts_training_nodes_only():
    g = make_graph({"a": [], "b": [], "c": [], "d": []},
                   labels={"a": 0, "b": 0, "c": 1, "d": 1}, class_count=2,
                   masks={"a": "Train", "b": "Train", "c": "Train", "d": "Test"})
    assert train_imbalance(g) == {0: 1.0, 1: 2.0}
    assert train_imbalance(make_graph({"a": []}, masks={"a": "Test"})) is None


def test_fallback_mode_turns_topological_above_threshold():
    assert fallback_mode(None, 3.0) == (EnhancementMode.SEMANTIC, 1.0)
    assert fallback_mode({0: 1.0, 1: 3.0}, 3.0) == (EnhancementMode.SEMANTIC, 3.0)
    assert fallback_mode({0: 1.0, 1: 3.5}, 3.0) == (EnhancementMode.TOPOLOGICAL, 3.5)


# seed selection --------------------------------------------------------------------

def _two_community_fixture():
    adj = {}
    small = [f"s{i}" for i in range(3)]
    big = [f"b{i}" for i in range(10)]
    for group in (small, big):
        for i, nid in enumerate(group):
            adj[nid] = [group[(i + 1) % len(group)]]
    g = make_graph(adj)
    part = Partition(g, [1 if nid in small else 0 for nid in g.ids()])
    return g, part, small, big


def test_semantic_seed_prefers_small_tight_community():
    g, part, small, big = _two_community_fixture()
    vecs = {}
    rng = np.random.default_rng(0)
    base = rng.normal(size=4)
    for nid in g.ids():
        vecs[nid] = base + rng.normal(scale=0.01, size=4)
    emb = EmbeddingTable(vecs)
    sel = select_seed(g, part, emb, EnhancementMode.SEMANTIC, PerceptionParams())
    assert sel.nodes == frozenset(small)
    assert sel.descriptor.startswith("community:")


def test_semantic_seed_single_community():
    g = make_graph({"a": ["b"], "b": []})
    part = Partition(g, [0, 0])
    emb = random_embeddings(g, dim=3, seed=1)
    sel = select_seed(g, part, emb, EnhancementMode.SEMANTIC, PerceptionParams())
    assert sel.nodes == frozenset({"a", "b"})


def test_topological_seed_picks_minority_train_nodes():
    adj = {str(i): [] for i in range(12)}
    adj["0"] = ["1"]
    labels = {str(i): (1 if i >= 10 else 0) for i in range(12)}
    g = make_graph(adj, labels=labels, class_count=2)
    part = Partition(g, [0] * g.num_nodes)
    sel = select_seed(g, part, None, EnhancementMode.TOPOLOGICAL, PerceptionParams())
    assert sel.nodes == frozenset({"10", "11"})
    assert sel.descriptor == "label:1"


def test_topological_seed_returns_only_train_nodes():
    adj = {str(i): [] for i in range(8)}
    labels = {str(i): i % 2 for i in range(8)}
    masks = {str(i): ("Train" if i < 3 else "Test") for i in range(8)}
    # Train counts: label 0 -> {0, 2}, label 1 -> {1}; minority is label 1
    g = make_graph(adj, labels=labels, class_count=2, masks=masks)
    part = Partition(g, [0] * g.num_nodes)
    sel = select_seed(g, part, None, EnhancementMode.TOPOLOGICAL, PerceptionParams())
    assert sel.nodes == frozenset({"1"})
    for nid in sel.nodes:
        assert g.node(nid).mask == "Train"


def test_topological_seed_without_train_nodes_is_error():
    g = make_graph({"a": []}, masks={"a": "Test"})
    part = Partition(g, [0])
    with pytest.raises(ValueError):
        select_seed(g, part, None, EnhancementMode.TOPOLOGICAL, PerceptionParams())


# personalized pagerank ---------------------------------------------------------------

def test_single_node_ppr():
    g = make_graph({"only": []})
    pi = personalized_pagerank(g, ["only"], PerceptionParams())
    assert pi == {"only": pytest.approx(1.0)}


def test_two_node_path_analytic():
    g = make_graph({"A": ["B"], "B": []})
    pi = personalized_pagerank(g, ["A"], PerceptionParams())
    assert pi["A"] == pytest.approx(0.540541, abs=1e-6)
    assert pi["B"] == pytest.approx(0.459459, abs=1e-6)


def test_teleport_dominance():
    g = random_graph(20, 0.2, seed=1)
    seeds = list(g.ids())[:4]
    params = PerceptionParams(teleport_alpha=0.999)
    pi = personalized_pagerank(g, seeds, params)
    v = {nid: (1 / len(seeds) if nid in seeds else 0.0) for nid in g.ids()}
    l1 = sum(abs(pi[nid] - v[nid]) for nid in g.ids())
    assert l1 < 0.01


def test_ppr_matches_dense_solve():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n = int(rng.integers(3, 50))
        g = random_graph(n, 0.15, seed=trial + 500)
        k = int(rng.integers(1, min(4, n) + 1))
        seeds = list(rng.choice(g.ids(), size=k, replace=False))
        pi = personalized_pagerank(g, seeds, PerceptionParams())
        want = oracle_ppr(g, set(seeds), 0.15)
        l1 = sum(abs(pi[nid] - want[nid]) for nid in g.ids())
        assert l1 < 1e-8


def test_ppr_is_a_distribution():
    for seed in range(6):
        g = random_graph(30, 0.1, seed=seed + 900)
        pi = personalized_pagerank(g, [g.ids()[0]], PerceptionParams())
        assert all(p >= 0 for p in pi.values())
        assert abs(sum(pi.values()) - 1.0) < 1e-9


def test_ppr_nonconvergence_raises_with_residual():
    g = random_graph(25, 0.2, seed=3)
    params = PerceptionParams(ppr_tolerance=1e-10, ppr_max_iters=1)
    with pytest.raises(PprConvergenceError) as err:
        personalized_pagerank(g, [g.ids()[0]], params)
    assert err.value.residual > 0


def test_ppr_validates_seeds():
    g = make_graph({"a": []})
    with pytest.raises(ValueError):
        personalized_pagerank(g, [], PerceptionParams())
    with pytest.raises(ValueError):
        personalized_pagerank(g, ["ghost"], PerceptionParams())


# capsule ------------------------------------------------------------------------------

def _hundred_node_fixture():
    g = random_graph(100, 0.06, seed=42)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    pi = personalized_pagerank(g, [g.ids()[0]], PerceptionParams())
    return g, part, pi


def test_large_beta_gives_top_n_by_score():
    g, part, pi = _hundred_node_fixture()
    params = PerceptionParams(retention_beta=1e6, top_k_percent=50.0, capsule_size=30)
    capsule = sample_knowledge(g, pi, params, rng_seed=0, partition=None)
    ranked = sorted(pi, key=lambda nid: (-pi[nid], nid))
    from tagforge.graph import node_sort_key
    ranked = sorted(pi, key=lambda nid: (-pi[nid], node_sort_key(nid)))
    assert list(capsule.node_ids) == ranked[:30]


def test_fixed_seed_capsule_reproducible():
    g, part, pi = _hundred_node_fixture()
    params = PerceptionParams()
    c1 = sample_knowledge(g, pi, params, rng_seed=42, partition=part)
    c2 = sample_knowledge(g, pi, params, rng_seed=42, partition=part)
    assert c1 == c2


def test_whole_graph_when_capacity_allows():
    g = random_graph(12, 0.3, seed=5)
    pi = personalized_pagerank(g, [g.ids()[0]], PerceptionParams())
    params = PerceptionParams(top_k_percent=100.0, retention_beta=1e6,
                              capsule_size=50)
    capsule = sample_knowledge(g, pi, params, rng_seed=0)
    assert sorted(capsule.node_ids) == sorted(g.ids())


def test_capsule_is_subset_of_top_slice_plus_delegates():
    g, part, pi = _hundred_node_fixture()
    from tagforge.graph import node_sort_key
    for seed in range(10):
        params = PerceptionParams(top_k_percent=20.0, retention_beta=0.8,
                                  capsule_size=25)
        capsule = sample_knowledge(g, pi, params, rng_seed=seed, partition=part)
        assert len(capsule) <= 25
        ranked = sorted(pi, key=lambda n: (-pi[n], node_sort_key(n)))
        k_count = max(1, math.ceil(len(ranked) * 0.20))
        top = set(ranked[:k_count])
        members = members_by_community(part)
        quota = min(len(members), math.ceil(25 / 5))
        order = sorted(range(len(members)),
                       key=lambda c: (-len(members[c]),
                                      min(node_sort_key(v) for v in members[c])))
        delegates = set()
        for c in order[:quota]:
            group = [v for v in members[c] if v in pi]
            if group:
                delegates.add(min(group, key=lambda n: (-pi[n], node_sort_key(n))))
        assert set(capsule.node_ids) <= top | delegates


def test_raising_beta_never_shrinks_retention():
    g, part, pi = _hundred_node_fixture()
    from tagforge.graph import node_sort_key
    ranked = sorted(pi, key=lambda n: (-pi[n], node_sort_key(n)))
    k_count = max(1, math.ceil(len(ranked) * 0.20))
    top = ranked[:k_count]
    peak = pi[ranked[0]]
    prev = set()
    for beta in (0.2, 0.5, 1.0, 2.0, 8.0, 1e6):
        draws = np.random.default_rng(7).random(len(top))
        kept = {nid for nid, r in zip(top, draws)
                if r < min(1.0, beta * pi[nid] / peak)}
        assert prev <= kept
        prev = kept


def test_empty_scores_error():
    g = make_graph({"a": []})
    with pytest.raises(ValueError):
        sample_knowledge(g, {}, PerceptionParams(), rng_seed=0)


# environment report ---------------------------------------------------------------------

def test_report_single_class_single_community():
    g = make_graph({"a": ["b"], "b": ["c"], "c": []})
    part = Partition(g, [0] * g.num_nodes)
    report = build_report(g, part, None)
    assert report.class_stats[0].fraction == pytest.approx(1.0)
    assert report.community_stats[0].fraction_of_graph == pytest.approx(1.0)


def test_report_fractions_and_sizes_are_consistent():
    g = random_graph(40, 0.1, seed=21)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    report = build_report(g, part, None)
    assert sum(cs.fraction for cs in report.class_stats.values()) == pytest.approx(1.0)
    assert sum(cs.size for cs in report.community_stats.values()) == g.num_nodes


def test_report_modularity_contributions_sum_to_newman():
    from tagforge.community import semantic_modularity
    g = random_graph(30, 0.15, seed=33)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    report = build_report(g, part, None)
    total = sum(cs.modularity_contribution for cs in report.community_stats.values())
    q = semantic_modularity(g, part, None, ModularityParams(gamma=1.0))
    assert total == pytest.approx(q, abs=1e-12)


def test_report_json_round_trips_byte_stably():
    g = random_graph(25, 0.15, seed=2)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    emb = random_embeddings(g, dim=4, seed=9)
    text = report_to_json(build_report(g, part, emb))
    again = json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    assert text == again


def test_report_has_case_study_field_names():
    g = random_graph(20, 0.2, seed=6)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    obj = build_report(g, part, None).to_json_obj()
    assert set(obj) >= {"Graph", "StructuralDistribution", "SemanticDistribution",
                        "LabelDistribution", "ClassStatistics"}
    assert "degree_distribution" in obj["StructuralDistribution"]
    assert "indices" in obj["Graph"] and "statistics" in obj["Graph"]
    some_comm = next(iter(obj["Graph"]["statistics"].values()))
    assert "modularity_contribution" in some_comm


def test_report_semantic_placeholder_without_embeddings():
    g = make_graph({"a": ["b"], "b": []})
    part = Partition(g, [0, 0])
    obj = build_report(g, part, None).to_json_obj()
    assert "placeholder" in obj["SemanticDistribution"]


def test_report_label_centroid_matrix_with_embeddings():
    g = make_graph({"a": ["b"], "b": [], "c": []},
                   labels={"a": 0, "b": 0, "c": 1}, class_count=2)
    part = Partition(g, [0] * g.num_nodes)
    emb = EmbeddingTable({"a": [1.0, 0.0], "b": [1.0, 0.1], "c": [0.0, 1.0]})
    obj = build_report(g, part, emb).to_json_obj()
    sem = obj["SemanticDistribution"]["label_centroid_similarity"]
    assert sem["0"]["0"] == pytest.approx(1.0)
    assert sem["0"]["1"] == sem["1"]["0"]


# sha256 of report_to_json, recorded with the report built from per-edge loops
# over string ids; the last graph declares two classes no node carries
@pytest.mark.parametrize("seed, n, p, gamma, empty_classes, digest", [
    (11, 80, 0.05, 1.0, 0, "e44fc5e3bba5add7bd8ef0d2cc60b0872514c51ebc0cf1443cfbcda0e7b3cfd2"),
    (12, 120, 0.03, 0.5, 0, "05291b18875f1ba38cc01081e351fc8581fd9dc054fde5695f32f533c5d35ff7"),
    (13, 60, 0.06, 0.5, 2, "175e4c30f3b9c35a1d008fb72c3e3df441a99eec9aef4695ced4c097bf3d39a5"),
])
def test_report_json_matches_recorded_digest(seed, n, p, gamma, empty_classes, digest):
    g = random_graph(n, p, seed)
    g = TextAttributedGraph.from_records(g.nodes, g.class_count + empty_classes)
    emb = random_embeddings(g, dim=8, seed=seed) if gamma < 1.0 else None
    part = detect_communities(g, emb, ModularityParams(gamma=gamma), seed)
    text = report_to_json(build_report(g, part, emb))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# string-keyed copies -----------------------------------------------------------------

def members_by_community(partition):
    """Each community's ids sorted by ``node_sort_key``: the string-keyed
    ``Partition.members_by_community`` that the copies below read, on the
    position-indexed partition. Ids with equal keys keep position order."""
    out = [[] for _ in range(partition.community_count)]
    for node_id, c in zip(partition.ids, partition.comm.tolist()):
        out[c].append(node_id)
    for members in out:
        members.sort(key=node_sort_key)
    return out


# Seed selection and capsule sampling as they were before they moved onto node
# positions, kept word for word as the oracles of the position versions, except
# that seed selection reads the embedding table by position, the only way the
# table can be read, and both check the partition as the position versions do.
# They break ties between ids with equal ``node_sort_key`` (such as "1" and
# "01") by the order of the ppr mapping or by graph position.
def reference_select_seed(
    g: TextAttributedGraph,
    partition: Partition,
    emb: EmbeddingTable | None,
    mode: EnhancementMode,
    params: PerceptionParams = PerceptionParams(),
) -> SeedSelection:
    mode = EnhancementMode(mode)
    if mode is EnhancementMode.SEMANTIC:
        partition.check(g)
        if emb is not None:
            emb.check(g)
        members = members_by_community(partition)
        best_idx, best_score = None, None
        for idx, group in enumerate(members):
            if emb is not None and len(group) > 0:
                x = emb.raw[np.array([g.index_of(v) for v in group])]
                var = float(x.var(axis=0).mean()) if len(group) > 1 else 0.0
            else:
                var = 0.0
            score = len(group) * (1.0 + params.seed_variance_mu * var)
            if best_score is None or score < best_score - 1e-15:
                best_idx, best_score = idx, score
        return SeedSelection(frozenset(members[best_idx]), f"community:{best_idx}")

    imbalance = train_imbalance(g)
    if imbalance is None:
        raise ValueError("topological seed selection requires training nodes")
    target = min(sorted(imbalance), key=lambda lbl: (-imbalance[lbl], lbl))
    nodes = frozenset(
        rec.node_id for rec in g.nodes if rec.mask == "Train" and rec.label == target)
    return SeedSelection(nodes, f"label:{target}")


def reference_sample_knowledge(
    g: TextAttributedGraph,
    ppr: Mapping[str, float],
    params: PerceptionParams = PerceptionParams(),
    rng_seed: int = 0,
    partition: Partition | None = None,
) -> KnowledgeCapsule:
    if not ppr:
        raise ValueError("ppr scores must be nonempty")
    missing = [nid for nid in ppr if not g.has_node(nid)]
    if missing:
        raise ValueError(f"ppr scores reference unknown nodes: {missing[:10]}")

    ranked = sorted(ppr, key=lambda nid: (-ppr[nid], node_sort_key(nid)))
    n = len(ranked)
    k_count = max(1, math.ceil(n * params.top_k_percent / 100.0))
    top_slice = ranked[:k_count]
    peak = ppr[ranked[0]]
    if peak <= 0.0:
        raise ValueError("ppr scores must contain a positive maximum")

    rng = np.random.default_rng(rng_seed)
    draws = rng.random(len(top_slice))
    retained = [
        nid for nid, r in zip(top_slice, draws)
        if r < min(1.0, params.retention_beta * ppr[nid] / peak)
    ]

    delegates: list[str] = []
    if partition is not None:
        partition.check(g)
        members = members_by_community(partition)
        quota = min(len(members), math.ceil(params.capsule_size / 5))
        ordered = sorted(
            range(len(members)),
            key=lambda c: (-len(members[c]), min(node_sort_key(v) for v in members[c])))
        for c in ordered[:quota]:
            scored = [v for v in members[c] if v in ppr]
            if scored:
                delegates.append(
                    min(scored, key=lambda nid: (-ppr[nid], node_sort_key(nid))))

    target = min(params.capsule_size, n)
    if not retained:
        chosen = top_slice[:target]
    else:
        pool = dict.fromkeys(retained)
        for d in delegates:
            pool.setdefault(d)
        ordered_pool = sorted(pool, key=lambda nid: (-ppr[nid], node_sort_key(nid)))
        chosen = ordered_pool[:target]
        if len(chosen) < target:
            seen = set(chosen)
            for nid in top_slice:
                if len(chosen) >= target:
                    break
                if nid not in seen:
                    chosen.append(nid)
                    seen.add(nid)
            chosen.sort(key=lambda nid: (-ppr[nid], node_sort_key(nid)))

    return KnowledgeCapsule(
        node_ids=tuple(chosen),
        records=tuple(g.node(nid) for nid in chosen),
        ppr_scores={nid: float(ppr[nid]) for nid in chosen},
    )


def _distinct_key_graph(rng, n):
    """A random graph with numeric and alphabetic ids whose ``node_sort_key``s
    are all distinct, with records in shuffled order, so position order is
    not canonical order."""
    names = [str(i) if rng.random() < 0.7 else f"n{i}" for i in range(n)]
    nbrs = {v: [] for v in names}
    for a, b in rng.integers(n, size=(int(rng.integers(0, 3 * n)), 2)).tolist():
        if a != b:
            nbrs[names[a]].append(names[b])
    recs = [NodeRecord(names[i], int(rng.integers(3)), f"document {i}", tuple(nbrs[names[i]]),
                       MASKS[int(rng.integers(3))])
            for i in rng.permutation(n).tolist()]
    return TextAttributedGraph.from_records(recs, 3)


def _random_partition(rng, g):
    """A partition with a random number of communities, from labels drawn
    for the positions in shuffled order."""
    k = int(rng.integers(1, g.num_nodes + 1))
    labels = np.empty(g.num_nodes, dtype=np.int64)
    labels[rng.permutation(g.num_nodes)] = rng.integers(k, size=g.num_nodes)
    return Partition(g, labels)


@pytest.mark.parametrize("seed", range(40))
def test_capsule_matches_reference_with_distinct_keys(seed):
    rng = np.random.default_rng([seed, 41])
    g = _distinct_key_graph(rng, int(rng.integers(1, 120)))
    ids = g.ids()
    part = _random_partition(rng, g)
    seed_node = ids[int(rng.integers(len(ids)))]
    pi = personalized_pagerank(g, [seed_node])
    # scores from a few values tie often, so ties are broken by key
    coarse = {v: float(rng.integers(1, 4)) / 8 for v in rng.permutation(ids).tolist()}
    partial = {v: pi[v] for v in ids if v == seed_node or rng.random() < 0.5}
    for scores in (pi, coarse, partial):
        for beta, size, top in ((1e-9, 30, 20.0), (0.05, 7, 20.0), (0.5, 30, 20.0),
                                (2.0, 30, 20.0), (2.0, 1, 100.0), (8.0, 200, 50.0),
                                (1e6, 12, 5.0)):
            params = PerceptionParams(retention_beta=beta, capsule_size=size,
                                      top_k_percent=top)
            for partition in (None, part):
                rng_seed = int(rng.integers(1000))
                got = sample_knowledge(g, scores, params, rng_seed, partition)
                assert got == reference_sample_knowledge(g, scores, params, rng_seed,
                                                         partition)


def test_emptied_pool_falls_back_to_top_slice_and_still_validates():
    g = random_graph(60, 0.08, seed=4)
    pi = personalized_pagerank(g, [g.ids()[0]])
    params = PerceptionParams(retention_beta=1e-12, top_k_percent=10.0, capsule_size=30)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    capsule = sample_knowledge(g, pi, params, 3, part)
    # the top slice is 6 nodes, shorter than capsule_size, and no delegate joins
    assert capsule == reference_sample_knowledge(g, pi, params, 3, part)
    assert len(capsule) == 6
    with pytest.raises(ValueError):
        sample_knowledge(g, pi, params, 3, Partition(make_graph({"0": []}), [0]))


class RecordingArray(np.ndarray):
    """Records the index of every read, in order."""

    def __getitem__(self, index):
        self.reads.append(np.asarray(index).tolist())
        return np.asarray(self)[index]


@pytest.mark.parametrize("seed", range(30))
def test_seed_matches_reference_with_distinct_keys(seed):
    rng = np.random.default_rng([seed, 43])
    g = _distinct_key_graph(rng, int(rng.integers(1, 90)))
    part = _random_partition(rng, g)
    emb = random_embeddings(g, dim=4, seed=seed)
    emb.raw = emb.raw.view(RecordingArray)
    for mode in EnhancementMode:
        for table in (None, emb):
            emb.raw.reads = []
            try:
                want = reference_select_seed(g, part, table, mode)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    select_seed(g, part, table, mode)
                continue
            want_rows, emb.raw.reads = emb.raw.reads, []
            assert select_seed(g, part, table, mode) == want
            # the same rows in the same order, so the same variance floats;
            # a single member's variance is 0 without a read
            assert emb.raw.reads == [rows for rows in want_rows if len(rows) > 1]


def _misaligned_tables(g):
    """A table in another order, one for another graph, one missing a node
    and one with a node more."""
    vecs = {v: [1.0, float(i)] for i, v in enumerate(g.ids())}
    return {
        "reordered": EmbeddingTable(dict(reversed(vecs.items()))),
        "other-graph": EmbeddingTable({f"x{v}": vec for v, vec in vecs.items()}),
        "missing": EmbeddingTable(dict(list(vecs.items())[1:])),
        "superset": EmbeddingTable({**vecs, "extra": [0.0, 1.0]}),
    }


SEMANTIC_STAGES = {
    "detect_communities":
        lambda g, part, emb: detect_communities(g, emb, ModularityParams(gamma=0.5), 0),
    "semantic_modularity":
        lambda g, part, emb: semantic_modularity(g, part, emb, ModularityParams(gamma=0.5)),
    "select_seed": lambda g, part, emb: select_seed(g, part, emb, EnhancementMode.SEMANTIC),
    "build_report": build_report,
}


@pytest.mark.parametrize("table", ["reordered", "other-graph", "missing", "superset"])
@pytest.mark.parametrize("stage", sorted(SEMANTIC_STAGES))
def test_misaligned_table_is_rejected_by_every_stage(stage, table):
    g, part, small, big = _two_community_fixture()
    aligned = EmbeddingTable({v: [1.0, float(i)] for i, v in enumerate(g.ids())})
    SEMANTIC_STAGES[stage](g, part, aligned)
    with pytest.raises(ValueError, match="node order"):
        SEMANTIC_STAGES[stage](g, part, _misaligned_tables(g)[table])


def _equal_key_leaves_fixture():
    """A hub h with leaves "1" and "01" (equal ``node_sort_key``), s-h, and a
    40-node path t0...t39 from s."""
    path = [f"t{i}" for i in range(40)]
    adj = {"h": ["1", "01", "s"], "1": [], "01": [], "s": ["t0"]}
    adj.update({v: [w] for v, w in zip(path, path[1:])})
    adj["t39"] = []
    g = make_graph(adj)
    # one partition from two labellings
    p1 = Partition(g, [0 if v in ("1", "01") else 1 for v in g.ids()])
    p2 = Partition(g, [7 if v in ("1", "01") else 3 for v in g.ids()])
    return g, p1, p2


def test_equal_partitions_give_equal_capsules_with_equal_keys():
    g, p1, p2 = _equal_key_leaves_fixture()
    pi = personalized_pagerank(g, ["t20"])
    assert np.array_equal(p1.comm, p2.comm) and pi["1"] == pi["01"]
    for rng_seed in range(5):
        got = sample_knowledge(g, pi, PerceptionParams(), rng_seed, p1)
        assert got == sample_knowledge(g, pi, PerceptionParams(), rng_seed, p2)
        # nor does the order of the scores
        assert got == sample_knowledge(g, dict(reversed(pi.items())), PerceptionParams(),
                                       rng_seed, p1)
        # the tie goes to the graph's first position of the two
        assert g.ids().index("01") < g.ids().index("1")
        assert "01" in got.node_ids and "1" not in got.node_ids
        # so does the string-keyed copy, whose member lists keep position
        # order between equal keys
        for scores in (pi, dict(reversed(pi.items()))):
            assert got == reference_sample_knowledge(
                g, scores, PerceptionParams(), rng_seed, p1)
