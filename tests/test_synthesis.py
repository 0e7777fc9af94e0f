import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_graph, random_graph
from tagforge import analysis, prompts
from tagforge.community import EmbeddingTable
from tagforge.gateway import _REPAIR_HINTS, AuditLog, MockProvider
from tagforge.perception import EnhancementMode, KnowledgeCapsule
from tagforge.synthesis import (
    GeneratedNode,
    QualityAssessment,
    SynthesisConfig,
    _progress_vector,
    check_convergence,
    edge_probability,
    evaluate_nodes,
    filter_accepted,
    generate_nodes,
    project_simplex,
    propose_edges,
    run_synthesis,
    select_edges,
    select_mode,
    sigmoid,
    update_threshold,
    update_weights,
)
from tagforge.graph import MASKS, NodeRecord


def _vertex_optimality(v, p):
    """Projection test via the variational inequality: (v - p) . (q - p) <= 0
    for every simplex vertex q, which extends to the whole simplex by
    linearity."""
    v = np.asarray(v, dtype=np.float64)
    for j in range(len(v)):
        q = np.zeros_like(v)
        q[j] = 1.0
        assert float((v - p) @ (q - p)) <= 1e-9


# simplex projection ----------------------------------------------------------------

def test_project_simplex_frozen_example():
    lam = np.array([1 / 3, 1 / 3, 1 / 3]) + 0.05 * np.array([1.0, 0.0, 0.0])
    p = project_simplex(lam)
    assert np.allclose(p, [0.366666666, 0.316666666, 0.316666666], atol=1e-8)


def test_project_simplex_idempotent_on_simplex_points():
    for q in ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]):
        assert np.allclose(project_simplex(q), q, atol=1e-12)


def test_project_simplex_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 8))
        v = rng.normal(0.0, 3.0, size=dim)
        p = project_simplex(v)
        assert np.all(p >= 0.0)
        assert math.isclose(float(p.sum()), 1.0, abs_tol=1e-9)
        _vertex_optimality(v, p)
        # projection is the closest simplex point: beat random candidates
        dirichlet = rng.dirichlet(np.ones(dim), size=50)
        dists = np.linalg.norm(dirichlet - v[None, :], axis=1)
        assert float(np.linalg.norm(p - v)) <= float(dists.min()) + 1e-9


def test_project_simplex_rejects_empty():
    with pytest.raises(ValueError):
        project_simplex([])


def test_update_weights_zero_gradient_is_identity():
    lam = (0.2, 0.5, 0.3)
    assert np.allclose(update_weights(lam, (0.0, 0.0, 0.0)), lam, atol=1e-12)


def test_update_weights_huge_gradient_saturates_vertex():
    out = update_weights((1 / 3, 1 / 3, 1 / 3), (1e6, 0.0, 0.0))
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-9)


def test_update_weights_frozen_step():
    out = update_weights((1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), eta=0.05)
    assert np.allclose(out, [0.366666666, 0.316666666, 0.316666666], atol=1e-8)


def test_update_weights_shape_mismatch():
    with pytest.raises(ValueError):
        update_weights((0.5, 0.5), (1.0, 0.0, 0.0))


# threshold and convergence ----------------------------------------------------------

def test_update_threshold_frozen_example():
    assert update_threshold(7.0, 8.0, 7.5, zeta=0.1) == pytest.approx(7.05)


def test_update_threshold_no_history_is_noop():
    assert update_threshold(7.0, 9.5, None) == 7.0


def test_update_threshold_equal_means_is_noop():
    assert update_threshold(6.2, 8.0, 8.0) == pytest.approx(6.2)


def test_update_threshold_clamps_to_scale():
    assert update_threshold(9.98, 10.0, 0.0, zeta=0.1) == 10.0
    assert update_threshold(0.01, 0.0, 9.0, zeta=0.1) == 0.0


def test_check_convergence_plateau_and_goal():
    history = [8.00, 8.01, 8.02]
    assert check_convergence(history, epsilon=0.05, window_k=2, goal_reached=True)
    assert not check_convergence(history, epsilon=0.05, window_k=2, goal_reached=False)
    assert not check_convergence([8.0, 8.01], epsilon=0.05, window_k=2,
                                 goal_reached=True)
    assert not check_convergence([7.0, 8.0, 9.0], epsilon=0.05, window_k=2,
                                 goal_reached=True)


# edge scoring ----------------------------------------------------------------------

def test_sigmoid_frozen_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
    assert sigmoid(0.4) == pytest.approx(0.598687660112452, abs=1e-15)


def test_sigmoid_stability_and_symmetry():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
    for x in (-3.7, -0.2, 1.9):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


def test_edge_probability_monotone_in_each_feature():
    theta = (0.6, 0.3, 0.1)
    base = edge_probability(0.5, 0.5, 0.5, theta)
    assert edge_probability(0.9, 0.5, 0.5, theta) > base
    assert edge_probability(0.5, 0.9, 0.5, theta) > base
    assert edge_probability(0.5, 0.5, 0.9, theta) > base


def test_edge_probability_clamps_similarity():
    theta = (0.6, 0.3, 0.1)
    assert edge_probability(3.0, 0.0, 0.0, theta) == edge_probability(1.0, 0.0, 0.0, theta)
    assert edge_probability(-2.0, 0.0, 0.0, theta) == edge_probability(0.0, 0.0, 0.0, theta)


def test_select_edges_threshold_and_fallback():
    assert select_edges({"a": 0.9, "b": 0.4}, 0.5) == [("a", 0.9)]
    assert select_edges({"a": 0.3, "b": 0.4}, 0.5) == [("b", 0.4)]
    assert select_edges({"a": 0.5}, 0.5) == [("a", 0.5)]
    assert select_edges({}, 0.5) == []
    kept = select_edges({"a": 0.7, "b": 0.9, "c": 0.8}, 0.5)
    assert kept == [("b", 0.9), ("c", 0.8), ("a", 0.7)]


def test_propose_edges_scores_and_filters():
    g = make_graph({"1": ["2"], "2": [], "3": []})
    emb = EmbeddingTable({"1": [1.0, 0.0], "2": [0.0, 1.0], "3": [1.0, 0.0]})
    gen = GeneratedNode(
        record=NodeRecord("n1", 0, "text", (), "Train"),
        proposed=("1", "3", "missing"))
    kept = propose_edges(g, gen, np.array([1.0, 0.0]), emb,
                         frozenset({"1", "3"}), (0.6, 0.3, 0.1), 0.5, max_deg=1)
    # deg ratio separates the two perfect-similarity targets
    assert [t for t, _ in kept] == ["1", "3"]
    assert kept[0][1] == pytest.approx(sigmoid(0.7))
    assert kept[1][1] == pytest.approx(sigmoid(0.6))


def test_propose_edges_zero_norm_embedding_rejected():
    g = make_graph({"1": []})
    emb = EmbeddingTable({"1": [1.0, 0.0]})
    gen = GeneratedNode(NodeRecord("n1", 0, "t", (), "Train"), proposed=("1",))
    with pytest.raises(ValueError):
        propose_edges(g, gen, np.zeros(2), emb, frozenset(), (0.6, 0.3, 0.1), 0.5, 0)


def test_filter_accepted_strictly_above_bar():
    qa = QualityAssessment(
        composite={"a": 7.5, "b": 7.0, "c": 6.9}, semantic={}, structural={},
        rejected={}, goal_reached=False)
    assert filter_accepted(qa, 7.0) == ["a"]
    assert filter_accepted(qa, 7.5) == []
    assert filter_accepted(qa, 6.0) == ["a", "b", "c"]


# config ----------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SynthesisConfig(new_node_fraction=0.0)
    with pytest.raises(ValueError):
        SynthesisConfig(lambda_init=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SynthesisConfig(edge_threshold=1.5)
    with pytest.raises(ValueError):
        SynthesisConfig(max_iterations=0)


def test_config_schema_is_pinned():
    # the run_start audit entry and the "synthesis" config section carry these
    # keys; a key added or dropped by a base class shows here
    assert {f.name: f.default for f in fields(SynthesisConfig)} == {
        "capsule_size": 30, "new_node_fraction": 0.15, "top_k_percent": 20.0,
        "retention_beta": 2.0, "seed_variance_mu": 0.5, "teleport_alpha": 0.15,
        "ppr_tolerance": 1e-10, "ppr_max_iters": 200, "gamma": 0.5,
        "semantic_term": "similarity", "theta_semantic": (0.6, 0.3, 0.1),
        "theta_topological": (0.2, 0.5, 0.3), "edge_threshold": 0.5, "tau_initial": 7.0,
        "zeta": 0.1, "epsilon": 0.05, "window_k": 2,
        "eta": 0.05, "lambda_init": (1 / 3, 1 / 3, 1 / 3), "max_iterations": 15,
        "min_text_chars": 20, "imbalance_fallback_threshold": 3.0}
    assert len(fields(SynthesisConfig)) == 22


def test_budget_is_ceil_of_fraction():
    assert math.ceil(0.15 * 30) == 5
    assert math.ceil(0.15 * 6) == 1


# agent wrappers --------------------------------------------------------------------

def _capsule(g):
    return KnowledgeCapsule(
        node_ids=tuple(g.ids()),
        records=g.nodes,
        ppr_scores={nid: 1.0 / g.num_nodes for nid in g.ids()})


def test_select_mode_parses_decision():
    provider = MockProvider({"0": 'the call is {"mode": "topological"}'})
    mode = select_mode(provider, "{}", (1 / 3, 1 / 3, 1 / 3), None, SynthesisConfig())
    assert mode is EnhancementMode.TOPOLOGICAL


def test_select_mode_fallback_uses_imbalance_rule():
    audit = AuditLog()
    config = SynthesisConfig()
    provider = MockProvider({"0": "??", "1": "??"})
    mode = select_mode(provider, "{}", (1 / 3, 1 / 3, 1 / 3), {0: 5.0, 1: 1.0},
                       config, audit=audit)
    assert mode is EnhancementMode.TOPOLOGICAL
    assert any(e["kind"] == "mode_fallback" for e in audit.entries)

    provider = MockProvider({"0": "??", "1": "??"})
    mode = select_mode(provider, "{}", (1 / 3, 1 / 3, 1 / 3), {0: 2.0}, config)
    assert mode is EnhancementMode.SEMANTIC


def test_generate_nodes_drop_reasons_and_budget():
    g = make_graph({"1": ["2"], "2": []}, labels={"1": 0, "2": 1}, class_count=2)
    batch = [
        {"node_id": "n_good", "label": 1, "text": "a" * 30, "neighbors": ["1"]},
        {"node_id": "1", "label": 0, "text": "a" * 30, "neighbors": ["2"]},
        {"node_id": "n_good", "label": 0, "text": "a" * 30, "neighbors": ["2"]},
        {"node_id": "n_lbl", "label": 5, "text": "a" * 30, "neighbors": ["1"]},
        {"node_id": "n_mask", "label": 0, "text": "a" * 30, "neighbors": ["1"],
         "mask": "train"},
        {"node_id": "n_dang", "label": 0, "text": "a" * 30, "neighbors": ["404"]},
        {"node_id": "n_empty", "label": 0, "text": "a" * 30, "neighbors": []},
        {"node_id": "n_good2", "label": 0, "text": "b" * 30, "neighbors": ["2", "2"]},
    ]
    audit = AuditLog()
    provider = MockProvider({"0": json.dumps(batch)})
    out = generate_nodes(provider, g, _capsule(g), "summary",
                         EnhancementMode.SEMANTIC, 10, audit=audit)
    assert [gen.record.node_id for gen in out] == ["n_good", "n_good2"]
    assert out[1].proposed == ("2",)
    gen_record = next(e for e in audit.entries if e["kind"] == "generation")
    assert gen_record["kept"] == 2 and gen_record["returned"] == 8
    reasons = gen_record["dropped"]
    assert "duplicate id" in reasons["1"]
    assert "duplicate id" in reasons["n_good"]
    assert "outside class range" in reasons["n_lbl"]
    assert "unknown mask" in reasons["n_mask"]
    assert "dangling neighbor" in reasons["n_dang"]
    assert "no neighbor proposals" in reasons["n_empty"]


def test_generate_nodes_truncates_to_budget():
    g = make_graph({"1": []})
    batch = [{"node_id": f"n{i}", "label": 0, "text": "c" * 25, "neighbors": ["1"]}
             for i in range(4)]
    provider = MockProvider({"0": json.dumps(batch)})
    audit = AuditLog()
    out = generate_nodes(provider, g, _capsule(g), "s", EnhancementMode.SEMANTIC, 2,
                         audit=audit)
    assert [gen.record.node_id for gen in out] == ["n0", "n1"]
    gen_record = next(e for e in audit.entries if e["kind"] == "generation")
    assert gen_record["kept"] == 2 and gen_record["returned"] == 4
    assert gen_record["dropped"] == {"n2": "over budget", "n3": "over budget"}


def _generate(g, batch, budget):
    """The nodes ``generate_nodes`` keeps from one reply, and its audit entry."""
    audit = AuditLog()
    out = generate_nodes(MockProvider({"0": json.dumps(batch)}), g, _capsule(g), "s",
                         EnhancementMode.SEMANTIC, budget, audit=audit)
    return out, next(e for e in audit.entries if e["kind"] == "generation")


def test_generate_nodes_lets_an_ids_first_item_decide():
    g = make_graph({"1": []})
    batch = [{"node_id": "x", "label": 0, "text": "", "neighbors": ["1"]},
             {"node_id": "x", "label": 0, "text": "c" * 25, "neighbors": ["1"]}]
    out, entry = _generate(g, batch, 2)
    assert out == []
    assert entry["kept"] == 0 and entry["dropped"] == {"x": "empty text"}


GEN_POOL = ("1", "2", "x", "y", "z")


@st.composite
def generation_replies(draw):
    """A reply of items from a small id pool, some naming graph nodes or each
    other's ids, with empty texts, labels and masks out of range, dangling
    and missing neighbour proposals, and a budget."""
    items = draw(st.lists(st.fixed_dictionaries({
        "node_id": st.sampled_from(GEN_POOL),
        "label": st.integers(-1, 2),
        "text": st.sampled_from(["", "c" * 25]),
        "neighbors": st.lists(st.sampled_from(["1", "2", "404"]), max_size=2),
        "mask": st.sampled_from([*MASKS, "train"]),
    }), max_size=8))
    return items, draw(st.integers(1, 4))


# ``--hypothesis-profile deep`` raises the budget (tests/conftest.py)
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(case=generation_replies())
def test_generate_nodes_audit_accounts_for_every_id(case):
    batch, budget = case
    out, entry = _generate(make_graph({"1": ["2"], "2": []}, class_count=2), batch, budget)
    kept = {gen.record.node_id for gen in out}
    dropped = entry["dropped"]
    assert all(dropped.get(nid, "duplicate id") == "duplicate id" for nid in kept)
    assert {item["node_id"] for item in batch} <= kept | set(dropped)
    assert entry["kept"] == len(out) <= budget


def _gen(nid, text="x" * 30, proposed=("1",)):
    return GeneratedNode(NodeRecord(nid, 0, text, (), "Train"), proposed=tuple(proposed))


def test_evaluate_nodes_prefilters_never_reach_scorer():
    seen_prompts = []

    class Spy(MockProvider):
        def complete(self, req):
            seen_prompts.append(req.user_prompt)
            return super().complete(req)

    provider = Spy({
        "0": json.dumps([{"node_id": "ok", "score": 8.0}]),
        "1": json.dumps({"goal_reached": False, "justification": "no"}),
    })
    qa = evaluate_nodes(provider, [_gen("ok"), _gen("short", text="tiny"),
                                   _gen("ok")],
                        "{}", "{}", SynthesisConfig())
    assert set(qa.composite) == {"ok"}
    assert "shorter than" in qa.rejected["short"]
    assert qa.rejected["ok"] == "duplicate id" or "duplicate id" in qa.rejected.values()
    assert "short" not in seen_prompts[0]
    assert qa.goal_reached is False


def test_evaluate_nodes_unscored_and_clamped():
    provider = MockProvider({
        "0": json.dumps([{"node_id": "a", "semantic_coherence": 12.0,
                          "structural_integrity": -2.0}]),
        "1": json.dumps({"goal_reached": True, "justification": "done"}),
    })
    qa = evaluate_nodes(provider, [_gen("a"), _gen("b")], "{}", "{}",
                        SynthesisConfig())
    assert qa.composite["a"] == pytest.approx(5.0)
    assert qa.semantic["a"] == 10.0 and qa.structural["a"] == 0.0
    assert qa.rejected["b"] == "unscored"
    assert qa.goal_reached is True and qa.goal_justification == "done"


def test_clamp_scale_is_the_scale_the_prompts_state():
    provider = MockProvider({
        "0": json.dumps([{"node_id": "a", "semantic_coherence": 1e9,
                          "structural_integrity": -1e9}]),
        "1": json.dumps({"goal_reached": False}),
    })
    qa = evaluate_nodes(provider, [_gen("a")], "{}", "{}", SynthesisConfig())
    low, high = qa.structural["a"], qa.semantic["a"]
    assert (low, high) == (0.0, 10.0)
    assert f" from {low:g} to {high:g} " in prompts.EVALUATION_SYSTEM
    for text in (prompts.evaluation_prompt("[]", "", "").user_prompt,
                 _REPAIR_HINTS["quality-scores"]):
        assert text.count(f" ({low:g}-{high:g})") == 2


def test_evaluate_nodes_goal_fallback_degrades_to_false():
    audit = AuditLog()
    provider = MockProvider({"0": "??", "1": "??"}, audit=audit)
    qa = evaluate_nodes(provider, [], "{}", "{}", SynthesisConfig(), audit=audit)
    assert qa.goal_reached is False
    assert qa.composite == {}
    assert any(e["kind"] == "goal_fallback" for e in audit.entries)


def test_quality_assessment_means():
    qa = QualityAssessment(composite={"a": 8.0, "b": 6.0}, semantic={"a": 7.0},
                           structural={}, rejected={}, goal_reached=False)
    assert qa.mean == pytest.approx(7.0)
    assert qa.mean_semantic == pytest.approx(7.0)
    empty = QualityAssessment({}, {}, {}, {}, False)
    assert empty.mean is None and empty.mean_semantic is None


@pytest.mark.parametrize("seed", range(4))
def test_progress_structure_reading_equals_public_similarities(seed):
    initial = random_graph(40, 0.1, seed)
    now = random_graph(46, 0.08, seed + 100)
    reference = (analysis._clustering_profile(initial),
                 analysis.label_homogeneity_matrix(initial))
    expected = 0.5 * (analysis.clustering_similarity(now, initial)
                      + analysis.label_homogeneity_similarity(now, initial))
    assert _progress_vector(now, reference, None)[1] == expected
    assert _progress_vector(now, None, None)[1] == 0.0


# the loop --------------------------------------------------------------------------

def _base_graph():
    adj = {
        "1": ["2", "3"], "2": ["3"], "3": [],
        "4": ["5", "6"], "5": ["6"], "6": [],
        "3b": ["1"],
    }
    labels = {"1": 0, "2": 0, "3": 0, "3b": 0, "4": 1, "5": 1, "6": 1}
    texts = {nid: f"document body for node {nid} with enough length" for nid in adj}
    return make_graph(adj, labels=labels, class_count=2, texts=texts)


def _script_one_round(node_spec, scores, goal=False):
    return {
        "0": json.dumps({"mode": "semantic"}),
        "1": json.dumps(node_spec),
        "2": json.dumps(scores),
        "3": json.dumps({"goal_reached": goal, "justification": "scripted"}),
    }


def test_run_synthesis_grows_graph_and_audits():
    g = _base_graph()
    script = _script_one_round(
        [{"node_id": "new_node 1", "label": 0,
          "text": "a freshly synthesized document with plenty of text",
          "neighbors": ["1", "2"]}],
        [{"node_id": "new_node 1", "semantic_coherence": 9.0,
          "structural_integrity": 8.0}])
    provider = MockProvider(script, seed=3)
    result = run_synthesis(g, SynthesisConfig(max_iterations=1), provider, rng_seed=7)
    assert result.failure is None
    assert not result.converged
    assert result.iterations == 1
    assert result.graph.num_nodes == g.num_nodes + 1
    new_neighbors = result.graph.neighbors("new_node 1")
    assert set(new_neighbors) <= {"1", "2"} and new_neighbors
    for t in new_neighbors:
        assert "new_node 1" in result.graph.neighbors(t)
    kinds = [e["kind"] for e in result.audit.entries]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    assert "perception" in kinds and "iteration" in kinds
    iteration = next(e for e in result.audit.entries if e["kind"] == "iteration")
    assert iteration["accepted"] == ["new_node 1"]
    assert result.state.quality_history == [pytest.approx(8.5)]
    # base graph untouched
    assert g.num_nodes == 7


def test_run_synthesis_drops_empty_text_candidate_and_keeps_the_rest():
    g = _base_graph()
    script = _script_one_round(
        [{"node_id": "blank", "label": 0, "text": "", "neighbors": ["1"]},
         {"node_id": "new_node 1", "label": 0,
          "text": "a freshly synthesized document with plenty of text",
          "neighbors": ["1", "2"]}],
        [{"node_id": "new_node 1", "semantic_coherence": 9.0,
          "structural_integrity": 8.0}])
    provider = MockProvider(script, seed=3)
    result = run_synthesis(g, SynthesisConfig(max_iterations=1), provider, rng_seed=7)
    assert result.failure is None
    assert result.graph.has_node("new_node 1") and not result.graph.has_node("blank")
    generation = next(e for e in result.audit.entries if e["kind"] == "generation")
    assert generation["dropped"] == {"blank": "empty text"}


def test_run_synthesis_rejects_below_bar():
    g = _base_graph()
    script = _script_one_round(
        [{"node_id": "weak", "label": 0,
          "text": "a node whose quality score is below the default bar",
          "neighbors": ["1"]}],
        [{"node_id": "weak", "score": 5.75}])
    provider = MockProvider(script)
    result = run_synthesis(g, SynthesisConfig(max_iterations=1), provider)
    assert result.graph.num_nodes == g.num_nodes
    assert result.failure is None


def test_run_synthesis_converges_on_plateau_and_goal():
    per_round = []
    for t in range(3):
        nid = f"gen {t}"
        per_round.append((
            [{"node_id": nid, "label": 0,
              "text": "synthesized text long enough to pass the length filter",
              "neighbors": ["1"]}],
            [{"node_id": nid, "score": 8.0}],
        ))
    script = {}
    ordinal = 0
    for nodes, scores in per_round:
        script[str(ordinal)] = json.dumps({"mode": "semantic"})
        script[str(ordinal + 1)] = json.dumps(nodes)
        script[str(ordinal + 2)] = json.dumps(scores)
        script[str(ordinal + 3)] = json.dumps(
            {"goal_reached": True, "justification": "plateau"})
        ordinal += 4
    provider = MockProvider(script)
    result = run_synthesis(g := _base_graph(),
                           SynthesisConfig(max_iterations=10), provider)
    assert result.converged
    assert result.iterations == 3
    assert result.graph.num_nodes == g.num_nodes + 3
    assert result.state.quality_history == [8.0, 8.0, 8.0]


def test_run_synthesis_structured_failure_aborts_iteration_only():
    g = _base_graph()
    script = {
        # round 1: mode ok, generation garbage twice -> iteration aborted
        "0": json.dumps({"mode": "semantic"}),
        "1": "garbage", "2": "more garbage",
        # round 2: full productive round
        "3": json.dumps({"mode": "semantic"}),
        "4": json.dumps([{"node_id": "late", "label": 1,
                          "text": "second round synthesized document body text",
                          "neighbors": ["4"]}]),
        "5": json.dumps([{"node_id": "late", "score": 9.0}]),
        "6": json.dumps({"goal_reached": False, "justification": ""}),
    }
    provider = MockProvider(script)
    result = run_synthesis(g, SynthesisConfig(max_iterations=2), provider)
    assert result.failure is None
    assert result.graph.num_nodes == g.num_nodes + 1
    kinds = [e["kind"] for e in result.audit.entries]
    assert "iteration_aborted" in kinds


def test_run_synthesis_provider_failure_ends_gracefully():
    g = _base_graph()
    provider = MockProvider({})  # no replies at all -> MockScriptError on call 0
    result = run_synthesis(g, SynthesisConfig(max_iterations=3), provider)
    assert result.failure is not None
    assert result.graph.num_nodes == g.num_nodes
    kinds = [e["kind"] for e in result.audit.entries]
    assert "provider_failure" in kinds and kinds[-1] == "run_end"


class _BadEmbedder(MockProvider):
    """Scripted chat; from embed call ``bad_call`` on, replies pass through
    ``spoil``."""

    def __init__(self, script, bad_call, spoil):
        super().__init__(script, seed=3)
        self.bad_call = bad_call
        self.spoil = spoil

    def embed(self, texts):
        vecs = super().embed(texts)
        return self.spoil(vecs) if self.embed_calls >= self.bad_call else vecs


@pytest.mark.parametrize("bad_call, spoil", [
    (2, lambda vecs: [v[:8] for v in vecs]),
    (1, lambda vecs: [np.full_like(vecs[0], np.nan)] + vecs[1:]),
    (1, lambda vecs: [np.zeros_like(vecs[0])] + vecs[1:]),
    (1, lambda vecs: vecs[:-1]),
], ids=["dimension-change", "nan-row", "zero-row", "missing-row"])
def test_run_synthesis_bad_embedding_reply_is_provider_failure(bad_call, spoil):
    g = _base_graph()
    script = _script_one_round(
        [{"node_id": "new_node 1", "label": 0,
          "text": "a freshly synthesized document with plenty of text",
          "neighbors": ["1", "2"]}],
        [{"node_id": "new_node 1", "score": 9.0}])
    provider = _BadEmbedder(script, bad_call, spoil)
    result = run_synthesis(g, SynthesisConfig(max_iterations=2), provider)
    assert result.failure is not None
    assert result.failure.startswith("PermanentProviderError")
    assert result.graph.num_nodes == g.num_nodes
    kinds = [e["kind"] for e in result.audit.entries]
    assert "provider_failure" in kinds and kinds[-1] == "run_end"


def test_run_synthesis_unproductive_round_continues():
    g = _base_graph()
    script = {}
    ordinal = 0
    for _ in range(2):
        script[str(ordinal)] = json.dumps({"mode": "semantic"})
        script[str(ordinal + 1)] = "[]"
        ordinal += 2
    provider = MockProvider(script)
    result = run_synthesis(g, SynthesisConfig(max_iterations=2), provider)
    assert result.failure is None
    assert not result.converged
    assert result.graph.num_nodes == g.num_nodes
    kinds = [e["kind"] for e in result.audit.entries]
    assert kinds.count("iteration_unproductive") == 2


def test_run_synthesis_state_invariants_under_adversarial_scores():
    g = _base_graph()
    script = {}
    ordinal = 0
    for t in range(4):
        script[str(ordinal)] = json.dumps({"mode": "topological"})
        script[str(ordinal + 1)] = json.dumps(
            [{"node_id": f"adv {t}", "label": 0,
              "text": "adversarial candidate with wildly swinging scores",
              "neighbors": ["1"]}])
        script[str(ordinal + 2)] = json.dumps(
            [{"node_id": f"adv {t}", "score": 10.0 if t % 2 == 0 else 0.0}])
        script[str(ordinal + 3)] = json.dumps(
            {"goal_reached": False, "justification": ""})
        ordinal += 4
    provider = MockProvider(script)
    result = run_synthesis(g, SynthesisConfig(max_iterations=4), provider)
    lam = result.state.lambda_weights
    assert all(w >= -1e-12 for w in lam)
    assert sum(lam) == pytest.approx(1.0)
    assert 0.0 <= result.state.tau <= 10.0
    assert result.iterations <= 4


@settings(max_examples=10, deadline=None)
@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_threshold_stays_on_scale(tau, cur, prev):
    out = update_threshold(tau, cur, prev)
    assert 0.0 <= out <= 10.0
