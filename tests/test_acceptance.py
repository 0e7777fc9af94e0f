"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test records its wall time; the final test checks the offline budget.
Run with -v to get one pass/fail line per criterion.
"""
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import assignment, make_graph, random_graph
from test_community import oracle_newman
from test_graph import oracle_clustering, oracle_components, oracle_path_length
from test_perception import oracle_ppr
from tagforge.analysis import (
    coherence_scores,
    grassmann_objective,
    ks_p_value,
    ks_two_sample,
    label_homogeneity_similarity,
    principal_direction,
)
from tagforge.cli import main
from tagforge.community import ModularityParams, Partition, detect_communities, semantic_modularity
from tagforge.gateway import MockProvider
from tagforge.graph import NodeRecord, TextAttributedGraph, graph_stats, load_graph, save_graph
from tagforge.limiter import LimiterParams, sample_limited_detailed
from tagforge.perception import personalized_pagerank
from tagforge.synthesis import SynthesisConfig, run_synthesis

_DURATIONS: dict[int, float] = {}


@contextmanager
def _timed(criterion: int):
    start = time.perf_counter()
    try:
        yield
    finally:
        _DURATIONS[criterion] = time.perf_counter() - start


def test_criterion_01_stats_match_naive_oracles():
    with _timed(1):
        rng = np.random.default_rng(101)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.02, 0.5))
            g = random_graph(n, p, seed=trial)
            s = graph_stats(g)
            assert abs(s.global_clustering_coefficient - oracle_clustering(g)) < 1e-9
            assert abs(s.avg_path_length - oracle_path_length(g)) < 1e-9
            comps, largest = oracle_components(g)
            assert s.connected_components == comps
            assert s.largest_component_size == largest
            assert abs(s.avg_degree - 2.0 * g.num_edges / g.num_nodes) < 1e-9
    assert _DURATIONS[1] < 10.0


def test_criterion_02_ppr_matches_dense_solve():
    with _timed(2):
        rng = np.random.default_rng(202)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            p = float(rng.uniform(0.03, 0.4))
            g = random_graph(n, p, seed=1000 + trial)
            k = int(rng.integers(1, min(4, n) + 1))
            seeds = rng.choice(n, size=k, replace=False)
            got = personalized_pagerank(g, seeds)
            assert np.abs(got - oracle_ppr(g, seeds, 0.15)).sum() < 1e-8
        two = make_graph({"A": ["B"], "B": []})
        a, b = two.index_of("A"), two.index_of("B")
        pi = personalized_pagerank(two, [a])
        assert abs(pi[a] - 0.540541) < 1e-6
        assert abs(pi[b] - 0.459459) < 1e-6


def test_criterion_03_modularity_reduces_to_newman():
    with _timed(3):
        rng = np.random.default_rng(303)
        params = ModularityParams(gamma=1.0)
        checked = 0
        for trial in range(100):
            n = int(rng.integers(3, 26))
            g = random_graph(n, float(rng.uniform(0.1, 0.5)), seed=2000 + trial)
            if g.num_edges == 0:
                g = make_graph({str(i): [str((i + 1) % n)] for i in range(n)})
            communities = int(rng.integers(1, 5))
            part = Partition(g, [int(rng.integers(communities)) for v in g.ids()])
            got = semantic_modularity(g, part, None, params)
            assert abs(got - oracle_newman(g, part)) < 1e-12
            checked += 1
        assert checked == 100

        adj = {"0": ["1", "2"], "1": ["2"], "2": [], "3": ["4", "5"],
               "4": ["5"], "5": []}
        g = make_graph(adj)
        part = detect_communities(g, None, params, 0)
        assert semantic_modularity(g, part, None, params) == 0.5


def test_criterion_04_grassmann_suite():
    with _timed(4):
        rng = np.random.default_rng(404)
        dim = 6
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        vectors = rng.normal(size=(10_000, dim))
        scores = coherence_scores(vectors, u)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
        flipped = coherence_scores(-vectors[:2000], u)
        assert np.allclose(flipped, scores[:2000], atol=1e-12)
        cosines = np.abs(vectors @ u) / np.linalg.norm(vectors, axis=1)
        angles = np.arccos(np.clip(cosines, 0.0, 1.0))
        order = np.argsort(angles)
        assert np.all(np.diff(scores[order]) <= 1e-9)

        for trial in range(20):
            n = int(rng.integers(10, 40))
            base = rng.normal(size=dim)
            base /= np.linalg.norm(base)
            cloud = base[None, :] + rng.normal(0, 0.5, size=(n, dim))
            cloud = cloud[np.linalg.norm(cloud, axis=1) > 1e-6]
            pd = principal_direction(cloud)
            probes = rng.normal(size=(10_000, dim))
            probes /= np.linalg.norm(probes, axis=1)[:, None]
            unit = cloud / np.linalg.norm(cloud, axis=1)[:, None]
            cos = np.clip(np.abs(probes @ unit.T), 0.0, 1.0)
            probe_objectives = (np.arccos(cos) ** 2).sum(axis=1)
            assert pd.objective <= float(probe_objectives.min()) + 1e-9

        diag = principal_direction(np.eye(2))
        assert abs(diag.objective - math.pi ** 2 / 8) < 1e-6
        assert np.allclose(np.abs(diag.direction), math.sqrt(0.5), atol=1e-6)


def test_criterion_05_ks_oracle():
    with _timed(5):
        rng = np.random.default_rng(505)
        for _ in range(500):
            na = int(rng.integers(2, 80))
            nb = int(rng.integers(2, 80))
            a = rng.choice([0.0, 1.0, 2.0, 3.5, 7.0], size=na)
            b = rng.normal(rng.uniform(-1, 2), 1.0, size=nb)
            got = ks_two_sample(a, b).statistic
            pts = np.concatenate([a, b])
            fa = np.array([(a <= x).mean() for x in pts])
            fb = np.array([(b <= x).mean() for x in pts])
            want = float(np.max(np.abs(fa - fb)))
            assert got == pytest.approx(want, abs=1e-15)
        assert ks_p_value(0.2, 100, 100) == pytest.approx(0.0366, abs=5e-4)


def test_criterion_06_limiter_guarantees():
    with _timed(6):
        rng = np.random.default_rng(606)
        for trial in range(50):
            n = int(rng.integers(20, 401))
            g = random_graph(n, min(0.5, 5.0 / n), seed=3000 + trial,
                             class_count=int(rng.integers(2, 6)))
            part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
            alpha = float(rng.choice([0.3, 0.5, 0.7]))
            result = sample_limited_detailed(g, part, LimiterParams(alpha=alpha))

            assert result.graph.num_nodes == math.floor(alpha * n)

            full: dict[int, int] = {}
            kept: dict[int, int] = {}
            for rec in g.nodes:
                full[rec.label] = full.get(rec.label, 0) + 1
            for rec in result.graph.nodes:
                kept[rec.label] = kept.get(rec.label, 0) + 1
            for lbl, count in full.items():
                assert abs(kept.get(lbl, 0) - math.floor(alpha * count)) <= 1

            trace = result.repair.distortion_trace
            for prev, nxt in zip(trace, trace[1:]):
                assert nxt < prev

            cells: dict[tuple, int] = {}
            comm_of = assignment(part)
            for rec in result.graph.nodes:
                key = (rec.label, comm_of[rec.node_id])
                cells[key] = cells.get(key, 0) + 1
            targets = {k: v for k, v in result.cell_targets.items() if v > 0}
            assert cells == targets


# case-study replay fixture ------------------------------------------------------

_REQUIRED_IDS = ["41", "70", "166", "263", "337", "462", "476", "536", "637",
                 "638", "639", "761", "825", "833", "1004", "1005", "1017",
                 "1116", "1196", "1290", "1312"]

_NEW_NODES = [
    ("new_node 1", 0, ["337", "833", "639", "476"],
     "Title: Integrating Explanation-Based Learning with Case Adaptation "
     "Strategies. Abstract: adaptation patterns generalize into reusable "
     "strategies across domains."),
    ("new_node 2", 1, ["462", "70", "1312"],
     "Title: Adaptive Parameter Control in Evolution Strategies for Dynamic "
     "Environments. Abstract: parameter schedules under drift."),
    ("new_node 3", 0, ["637", "638", "825", "1004"],
     "Title: Multi-Level Similarity Assessment for Case Retrieval in "
     "Heterogeneous Domains. Abstract: layered similarity scoring."),
    ("new_node 4", 3, ["1290", "263"],
     "Title: Hybrid Neural-Symbolic Architecture for Interpretable Knowledge "
     "Extraction. Abstract: rules distilled from trained networks."),
    ("new_node 5", 0, ["462", "70", "1017"],
     "Title: Case-base Design for Knowledge Discovery. Abstract: pattern "
     "recognition instead of adaptation or similarity."),
]


def _replay_graph() -> TextAttributedGraph:
    """Deterministic 160-node fixture containing every id the scripted
    replies reference, seven classes, mostly Train masks."""
    rng = np.random.default_rng(537)
    ids = list(_REQUIRED_IDS) + [str(2000 + i) for i in range(160 - len(_REQUIRED_IDS))]
    adj: dict[str, list[str]] = {i: [] for i in ids}
    for pin in (("536", "639"), ("41", "166"), ("41", "637"), ("41", "761"),
                ("41", "1004"), ("41", "1005"), ("41", "1116"), ("41", "1196")):
        adj[pin[0]].append(pin[1])
    n = len(ids)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.022:
                adj[ids[i]].append(ids[j])
    labels = {i: int(rng.integers(7)) for i in ids}
    masks = {i: ("Train" if rng.random() < 0.9 else
                 ("Validation" if rng.random() < 0.5 else "Test")) for i in ids}
    recs = [NodeRecord(
        node_id=i, label=labels[i],
        text=(f"Title: synthetic record {i}. Abstract: deterministic filler "
              f"text for the replay fixture, entry {i}."),
        neighbors=tuple(adj[i]), mask=masks[i]) for i in ids]
    return TextAttributedGraph.from_records(recs, 7)


def _replay_script() -> dict:
    nodes = [{"node_id": nid, "label": lbl, "text": text, "neighbors": nbrs,
              "mask": "Train"}
             for nid, lbl, nbrs, text in _NEW_NODES]
    scores = [
        {"node_id": "new_node 1", "semantic_coherence": 9.0, "structural_integrity": 8.0},
        {"node_id": "new_node 2", "semantic_coherence": 8.0, "structural_integrity": 7.6},
        {"node_id": "new_node 3", "semantic_coherence": 8.4, "structural_integrity": 8.0},
        {"node_id": "new_node 4", "semantic_coherence": 7.7, "structural_integrity": 7.5},
        {"node_id": "new_node 5", "semantic_coherence": 5.3, "structural_integrity": 5.3},
    ]
    return {
        "0": json.dumps({"mode": "semantic"}),
        "1": json.dumps(nodes),
        "2": json.dumps(scores),
        "3": json.dumps({"goal_reached": False,
                         "justification": "has not converged"}),
    }


def test_criterion_07_case_study_replay(tmp_path):
    with _timed(7):
        g = _replay_graph()
        base = tmp_path / "replay_base.json"
        save_graph(g, str(base))
        script = tmp_path / "replay_script.json"
        script.write_text(json.dumps(_replay_script()), encoding="utf-8")
        cfg = tmp_path / "replay_cfg.json"
        cfg.write_text(json.dumps({"synthesis": {"max_iterations": 1}}),
                       encoding="utf-8")

        artifacts = []
        for tag in ("first", "second"):
            out = tmp_path / f"replay_{tag}.json"
            audit = tmp_path / f"replay_{tag}.audit.jsonl"
            code = main(["synthesize", str(base), str(out),
                         "--provider", f"mock:{script}", "--config", str(cfg),
                         "--seed", "1", "--audit", str(audit)])
            assert code == 0
            artifacts.append((out.read_bytes(), audit.read_bytes()))
        assert artifacts[0][0] == artifacts[1][0]
        assert artifacts[0][1] == artifacts[1][1]

        entries = [json.loads(line) for line in
                   artifacts[0][1].decode("utf-8").splitlines()]
        by_kind = {}
        for e in entries:
            by_kind.setdefault(e["kind"], []).append(e)

        perception = by_kind["perception"][0]
        assert perception["mode"] == "semantic"
        assert perception["capsule_size"] == 30
        assert perception["budget"] == 5

        generation = by_kind["generation"][0]
        assert generation["kept"] == 5 and generation["returned"] == 5

        iteration = by_kind["iteration"][0]
        assert iteration["accepted"] == ["new_node 1", "new_node 2",
                                         "new_node 3", "new_node 4"]
        assert "new_node 5" not in iteration["accepted"]
        assert iteration["scores"]["new_node 5"] == pytest.approx(5.3)
        assert not iteration["converged"]
        assert not iteration["goal_reached"]

        grown = load_graph(str(tmp_path / "replay_first.json"))
        assert grown.num_nodes == g.num_nodes + 4
        assert not grown.has_node("new_node 5")
        for nid, _, neighbors, _ in _NEW_NODES[:4]:
            assert sorted(grown.neighbors(nid)) == sorted(neighbors)
            for t in neighbors:
                assert nid in grown.neighbors(t)
    assert _DURATIONS[7] < 5.0


def test_criterion_08_loop_safety_under_adversarial_scripts():
    with _timed(8):
        g = _replay_graph()
        base_nodes, base_edges = g.num_nodes, g.num_edges

        garbage = MockProvider({str(i): "%% not json %%" for i in range(64)})
        result = run_synthesis(g, SynthesisConfig(max_iterations=3), garbage)
        assert result.iterations <= 3
        assert result.graph.num_nodes == base_nodes

        empty_script = {}
        ordinal = 0
        for _ in range(3):
            empty_script[str(ordinal)] = json.dumps({"mode": "semantic"})
            empty_script[str(ordinal + 1)] = "[]"
            ordinal += 2
        empties = MockProvider(empty_script)
        result = run_synthesis(g, SynthesisConfig(max_iterations=3), empties)
        assert result.iterations <= 3
        assert not result.converged
        assert result.graph.num_nodes == base_nodes

        constant_script = {}
        ordinal = 0
        for t in range(3):
            constant_script[str(ordinal)] = json.dumps({"mode": "semantic"})
            constant_script[str(ordinal + 1)] = json.dumps(
                [{"node_id": f"flat {t}", "label": 0,
                  "text": "constant-score candidate with sufficient length",
                  "neighbors": ["41"]}])
            constant_script[str(ordinal + 2)] = json.dumps(
                [{"node_id": f"flat {t}", "score": 8.0}])
            constant_script[str(ordinal + 3)] = json.dumps(
                {"goal_reached": False, "justification": ""})
            ordinal += 4
        constant = MockProvider(constant_script)
        result = run_synthesis(g, SynthesisConfig(max_iterations=3), constant)
        assert result.iterations <= 3
        lam = result.state.lambda_weights
        assert all(w >= -1e-12 for w in lam)
        assert sum(lam) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= result.state.tau <= 10.0

        # the input graph object was never mutated by any of the three runs
        assert g.num_nodes == base_nodes and g.num_edges == base_edges


_CORA_PATH = os.environ.get("TAGFORGE_CORA", "data/cora.json")


def test_criterion_09_cora_limit_fidelity():
    if not os.path.exists(_CORA_PATH):
        pytest.skip(f"dataset not present at {_CORA_PATH} "
                    "(set TAGFORGE_CORA to enable)")
    with _timed(9):
        start = time.perf_counter()
        g = load_graph(_CORA_PATH)
        part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
        result = sample_limited_detailed(g, part, LimiterParams(alpha=0.5))
        ks = ks_two_sample(g.degrees().astype(float),
                           result.graph.degrees().astype(float))
        homogeneity = label_homogeneity_similarity(g, result.graph)
        elapsed = time.perf_counter() - start
        assert ks.statistic <= 0.10
        assert homogeneity >= 0.95
        assert elapsed < 60.0


def test_criterion_10_offline_budget():
    required = set(range(1, 9))
    missing = required - set(_DURATIONS)
    assert not missing, f"criteria did not run before the budget check: {missing}"
    total = sum(_DURATIONS[k] for k in required)
    assert total < 120.0, f"offline criteria took {total:.1f}s"
