"""The iterative synthesis loop and its update rules.

An iteration runs these stages in order: ``perceive`` (communities and the
environment report), ``select_mode``, ``retrieve`` (seed, personalized
PageRank, knowledge capsule and node budget), ``generate_nodes``, wiring by
``propose_edges``, ``evaluate_nodes`` (scores and the goal verdict), the merge
of candidates above an adaptive acceptance bar, and progress: the bar, the
objective weights (projected gradient on a three-way progress vector) and the
stop test on plateaued quality plus the goal verdict, or the iteration cap.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence

import numpy as np

from . import analysis
from .community import EmbeddingTable, ModularityParams, Partition, detect_communities
from .gateway import (
    SCORE_MAX,
    SCORE_MIN,
    AuditLog,
    PermanentProviderError,
    StructuredOutputError,
    TransportError,
    complete_structured,
    embed_texts,
)
from .graph import MASKS, NodeRecord, SynthesizedDelta, TextAttributedGraph, merge_synthesis
from .perception import (
    EnhancementMode,
    EnvironmentReport,
    PerceptionParams,
    KnowledgeCapsule,
    SeedSelection,
    build_report,
    fallback_mode,
    personalized_pagerank,
    report_to_json,
    sample_knowledge,
    select_seed,
    train_imbalance,
)
from . import prompts

log = logging.getLogger("tagforge.synthesis")


@dataclass(frozen=True)
class SynthesisConfig(PerceptionParams, ModularityParams):
    """All knobs of the loop; defaults follow the reference configuration.

    The seed, PageRank and capsule knobs are those of ``PerceptionParams``
    and the detection knobs those of ``ModularityParams``, so the config is
    passed to both stages as it is.
    """

    new_node_fraction: float = 0.15
    theta_semantic: tuple[float, float, float] = (0.6, 0.3, 0.1)
    theta_topological: tuple[float, float, float] = (0.2, 0.5, 0.3)
    edge_threshold: float = 0.5
    tau_initial: float = 7.0
    zeta: float = 0.1
    epsilon: float = 0.05
    window_k: int = 2
    eta: float = 0.05
    lambda_init: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    max_iterations: int = 15
    min_text_chars: int = 20
    imbalance_fallback_threshold: float = 3.0

    def __post_init__(self):
        if not (0.0 < self.new_node_fraction <= 1.0):
            raise ValueError("new_node_fraction must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.window_k < 1:
            raise ValueError("window_k must be at least 1")
        if not (SCORE_MIN <= self.tau_initial <= SCORE_MAX):
            raise ValueError("tau_initial must lie on the score scale")
        if not (0.0 <= self.edge_threshold <= 1.0):
            raise ValueError("edge_threshold must lie in [0, 1]")
        lam = np.asarray(self.lambda_init, dtype=np.float64)
        if lam.shape != (3,) or abs(float(lam.sum()) - 1.0) > 1e-9 or np.any(lam < 0):
            raise ValueError("lambda_init must be a 3-point distribution")
        PerceptionParams.__post_init__(self)
        ModularityParams.__post_init__(self)


@dataclass
class GeneratedNode:
    """A candidate straight from the generation role, plus edge decisions."""

    record: NodeRecord
    proposed: tuple[str, ...]
    kept_edges: tuple[tuple[str, float], ...] = ()


@dataclass
class QualityAssessment:
    """Scores and the goal verdict for one evaluation round."""

    composite: dict
    semantic: dict
    structural: dict
    rejected: dict
    goal_reached: bool
    goal_justification: str = ""

    @property
    def mean(self) -> float | None:
        if not self.composite:
            return None
        return float(np.mean(list(self.composite.values())))

    @property
    def mean_semantic(self) -> float | None:
        if not self.semantic:
            return None
        return float(np.mean(list(self.semantic.values())))


@dataclass
class SynthesisState:
    iteration: int = 0
    tau: float = 7.0
    lambda_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    quality_history: list = field(default_factory=list)
    converged: bool = False


@dataclass
class SynthesisResult:
    graph: TextAttributedGraph
    audit: AuditLog
    converged: bool
    iterations: int
    state: SynthesisState
    failure: str | None = None


# update rules ---------------------------------------------------------------

def project_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("need a nonempty vector")
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, x.size + 1)
    cond = u - (css - 1.0) / j > 0
    rho = int(np.nonzero(cond)[0][-1]) + 1
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(x - theta, 0.0)


def update_weights(
    lambda_weights: Sequence[float],
    gradient: Sequence[float],
    eta: float = 0.05,
) -> tuple[float, float, float]:
    """One projected-ascent step on the objective weights."""
    lam = np.asarray(lambda_weights, dtype=np.float64)
    g = np.asarray(gradient, dtype=np.float64)
    if lam.shape != g.shape:
        raise ValueError("weights and gradient must have matching shape")
    out = project_simplex(lam + eta * g)
    return (float(out[0]), float(out[1]), float(out[2]))


def update_threshold(
    tau_prev: float,
    mean_current: float,
    mean_previous: float | None,
    zeta: float = 0.1,
) -> float:
    """Drift the acceptance bar toward recent quality movement, clamped to
    the score scale. With no previous mean the bar stays put."""
    if mean_previous is None:
        return tau_prev
    tau = tau_prev + zeta * (mean_current - mean_previous)
    return min(SCORE_MAX, max(SCORE_MIN, tau))


def check_convergence(
    quality_history: Sequence[float],
    epsilon: float = 0.05,
    window_k: int = 2,
    goal_reached: bool = False,
) -> bool:
    """Quality plateau over the last window_k steps plus the goal verdict."""
    if len(quality_history) < window_k + 1:
        return False
    last = quality_history[-1]
    stable = all(
        abs(last - quality_history[-1 - j]) < epsilon for j in range(1, window_k + 1))
    return stable and goal_reached


def sigmoid(x: float) -> float:
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def edge_probability(
    similarity: float,
    neighborhood_overlap: float,
    degree_ratio: float,
    theta: Sequence[float],
) -> float:
    """Logistic blend of semantic closeness, shared-neighborhood overlap,
    and normalized target degree. Similarity is clamped into [0, 1]."""
    t1, t2, t3 = theta
    sim = min(1.0, max(0.0, similarity))
    return sigmoid(t1 * sim + t2 * neighborhood_overlap + t3 * degree_ratio)


def select_edges(scored: Mapping[str, float], threshold: float) -> list[tuple[str, float]]:
    """Keep candidates at or above the threshold; if none qualify, keep the
    single most probable so the node stays attachable."""
    if not scored:
        return []
    kept = [(t, p) for t, p in scored.items() if p >= threshold]
    if not kept:
        best = min(scored, key=lambda t: (-scored[t], t))
        kept = [(best, scored[best])]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return kept


def propose_edges(
    g: TextAttributedGraph,
    gen: GeneratedNode,
    new_embedding: np.ndarray,
    emb: EmbeddingTable,
    capsule_ids: frozenset,
    theta: Sequence[float],
    threshold: float,
    max_deg: int,
) -> list[tuple[str, float]]:
    """Score every proposed attachment point and apply the edge filter.

    The overlap feature compares a target's neighborhood against the proposed
    neighbors that fall inside the capsule; it is zero when none do. The
    degree feature divides by ``max_deg``, the largest degree in ``g``.
    """
    emb.check(g)
    targets = [t for t in gen.proposed if g.has_node(t)]
    if not targets:
        return []
    in_capsule = [t for t in targets if t in capsule_ids]
    capsule_set = set(in_capsule)
    x = np.asarray(new_embedding, dtype=np.float64)
    xn = float(np.linalg.norm(x))
    if xn == 0.0:
        raise ValueError("generated node embedding has zero norm")
    x = x / xn
    scored: dict[str, float] = {}
    for t in targets:
        sim = float(x @ emb.unit[g.index_of(t)])
        if capsule_set:
            overlap = sum(1 for w in g.neighbors(t) if w in capsule_set) / len(capsule_set)
        else:
            overlap = 0.0
        deg_ratio = g.degree(t) / max_deg if max_deg > 0 else 0.0
        scored[t] = edge_probability(sim, overlap, deg_ratio, theta)
    return select_edges(scored, threshold)


def filter_accepted(assessment: QualityAssessment, tau: float) -> list[str]:
    """Ids whose composite score strictly exceeds the acceptance bar."""
    return sorted(nid for nid, s in assessment.composite.items() if s > tau)


# agent interactions ----------------------------------------------------------

def select_mode(
    provider,
    report_json: str,
    lambda_weights: Sequence[float],
    imbalance: Mapping[int, float] | None,
    config: SynthesisConfig,
    audit: AuditLog | None = None,
) -> EnhancementMode:
    """Ask the coordinator role for a mode; fall back to the imbalance rule
    when its reply stays unusable."""
    req = prompts.manager_prompt(report_json, lambda_weights)
    try:
        decided = complete_structured(provider, req, "mode-decision")
        return EnhancementMode(decided)
    except StructuredOutputError:
        mode, peak = fallback_mode(imbalance, config.imbalance_fallback_threshold)
        if audit is not None:
            audit.record("mode_fallback", peak_imbalance=peak, mode=mode.value)
        log.warning("mode decision unusable; falling back to %s", mode.value)
        return mode


def generate_nodes(
    provider,
    g: TextAttributedGraph,
    capsule: KnowledgeCapsule,
    report_summary: str,
    mode: EnhancementMode,
    budget: int,
    prior_rejections: Sequence[str] = (),
    audit: AuditLog | None = None,
) -> list[GeneratedNode]:
    """Request a candidate batch and keep only locally valid records.

    Drops, each with an audited reason: ids colliding with the graph or the
    batch, empty texts (kept candidates are embedded next), labels outside
    the class range, neighbor proposals naming unknown ids, and bad masks.
    Text length is screened later with the evaluation pre-filters.
    """
    req = prompts.enhancement_prompt(
        mode.value, capsule.to_json(), report_summary, budget, g.class_count,
        prior_rejections)
    raw = complete_structured(provider, req, "generated-nodes")
    out: list[GeneratedNode] = []
    seen: set[str] = set()
    dropped: dict[str, str] = {}
    for item in raw:
        nid = item["node_id"]
        if g.has_node(nid) or nid in seen:
            dropped[nid] = "duplicate id"
            continue
        if not item["text"]:
            dropped[nid] = "empty text"
            continue
        if not (0 <= item["label"] < g.class_count):
            dropped[nid] = f"label {item['label']} outside class range"
            continue
        if item["mask"] not in MASKS:
            dropped[nid] = f"unknown mask {item['mask']!r}"
            continue
        unknown = [t for t in item["neighbors"] if not g.has_node(t)]
        if unknown:
            dropped[nid] = f"dangling neighbor {unknown[0]!r}"
            continue
        if not item["neighbors"]:
            dropped[nid] = "no neighbor proposals"
            continue
        seen.add(nid)
        record = NodeRecord(
            node_id=nid, label=item["label"], text=item["text"],
            neighbors=(), mask=item["mask"])
        out.append(GeneratedNode(
            record=record,
            proposed=tuple(dict.fromkeys(item["neighbors"]))))
    if audit is not None:
        audit.record(
            "generation", requested=budget, returned=len(raw),
            kept=len(out), dropped=dropped)
    if len(out) > budget:
        out = out[:budget]
    return out


def evaluate_nodes(
    provider,
    candidates: Sequence[GeneratedNode],
    initial_report_json: str,
    current_report_json: str,
    config: SynthesisConfig,
    audit: AuditLog | None = None,
) -> QualityAssessment:
    """Pre-filter candidates, score the survivors, and fetch the goal verdict.

    Deterministic pre-filters reject duplicate ids and texts shorter than the
    configured floor before any scoring happens. Candidates the scorer skips
    are rejected as unscored. The goal verdict degrades to False when the
    goal role's reply stays unusable.
    """
    rejected: dict[str, str] = {}
    survivors: list[GeneratedNode] = []
    seen: set[str] = set()
    for gen in candidates:
        nid = gen.record.node_id
        if nid in seen:
            rejected[nid] = "duplicate id"
            continue
        seen.add(nid)
        if len(gen.record.text) < config.min_text_chars:
            rejected[nid] = f"text shorter than {config.min_text_chars} characters"
            continue
        survivors.append(gen)

    composite: dict[str, float] = {}
    semantic: dict[str, float] = {}
    structural: dict[str, float] = {}
    if survivors:
        payload = [
            {
                "node_id": gen.record.node_id,
                "label": gen.record.label,
                "text": gen.record.text,
                "neighbors": [t for t, _ in gen.kept_edges] or list(gen.proposed),
            }
            for gen in survivors
        ]
        req = prompts.evaluation_prompt(
            json.dumps(payload, ensure_ascii=False, indent=1),
            initial_report_json, current_report_json)
        scores = complete_structured(provider, req, "quality-scores")
        by_id = {}
        for row in scores:
            by_id.setdefault(row["node_id"], row)
        for gen in survivors:
            nid = gen.record.node_id
            row = by_id.get(nid)
            if row is None:
                rejected[nid] = "unscored"
                continue
            sem = min(SCORE_MAX, max(SCORE_MIN, row["semantic_coherence"]))
            struct = min(SCORE_MAX, max(SCORE_MIN, row["structural_integrity"]))
            if sem != row["semantic_coherence"] or struct != row["structural_integrity"]:
                log.warning("score for %s clamped onto the score scale", nid)
            semantic[nid] = sem
            structural[nid] = struct
            composite[nid] = (sem + struct) / 2.0

    goal_reached = False
    justification = ""
    try:
        verdict = complete_structured(
            provider,
            prompts.goal_prompt(initial_report_json, current_report_json),
            "goal-decision")
        goal_reached = verdict["goal_reached"]
        justification = verdict["justification"]
    except StructuredOutputError:
        if audit is not None:
            audit.record("goal_fallback", goal_reached=False)
        log.warning("goal verdict unusable; treating the goal as not reached")

    return QualityAssessment(
        composite=composite, semantic=semantic, structural=structural,
        rejected=rejected, goal_reached=goal_reached,
        goal_justification=justification)


# progress tracking -----------------------------------------------------------

def _progress_vector(
    g_now: TextAttributedGraph,
    reference: tuple[dict, np.ndarray] | None,
    assessment: QualityAssessment | None,
) -> np.ndarray:
    """Three normalized progress readings: round quality, structural fidelity
    to the initial graph, and negated class imbalance. ``reference`` is the
    initial graph's clustering profile and label-pair matrix, or None when it
    has no edge."""
    if assessment is not None and assessment.mean_semantic is not None:
        quality = assessment.mean_semantic / SCORE_MAX
    else:
        quality = 0.0
    structure = 0.0
    if g_now.num_edges > 0 and reference is not None:
        profile, pairs = reference
        structure = 0.5 * (
            analysis._profile_similarity(analysis._clustering_profile(g_now), profile)
            + analysis._homogeneity_overlap(analysis.label_homogeneity_matrix(g_now), pairs))
    imbalance = train_imbalance(g_now)
    balance = -max(imbalance.values()) if imbalance else 0.0
    return np.array([quality, structure, balance], dtype=np.float64)


def summarize_report(report: EnvironmentReport) -> str:
    stats = report.global_stats
    label_part = ", ".join(
        f"{lbl}: {cs.count}" for lbl, cs in sorted(report.class_stats.items()))
    return (
        f"nodes={stats.num_nodes}, edges={stats.num_edges}, "
        f"avg_degree={stats.avg_degree:.3f}, components={stats.connected_components}, "
        f"communities={len(report.community_stats)}, labels={{{label_part}}}")


# perception stages -------------------------------------------------------------

def perceive(g: TextAttributedGraph, emb: EmbeddingTable | None, mparams: ModularityParams,
             seed: int) -> tuple[Partition, EnvironmentReport, str]:
    """The partition detected with ``seed``, its environment report and the
    report's JSON."""
    partition = detect_communities(g, emb, mparams, seed)
    report = build_report(g, partition, emb)
    return partition, report, report_to_json(report)


def retrieve(g: TextAttributedGraph, partition: Partition, emb: EmbeddingTable | None,
             mode: EnhancementMode, config: SynthesisConfig,
             seed: int) -> tuple[SeedSelection, KnowledgeCapsule, int]:
    """The seed region for ``mode``, the capsule sampled with ``seed`` after
    personalized PageRank from that region, and the node budget."""
    seed_sel = select_seed(g, partition, emb, mode, config)
    scores = personalized_pagerank(g, seed_sel.nodes, config)
    capsule = sample_knowledge(g, scores, config, seed, partition)
    return seed_sel, capsule, math.ceil(config.new_node_fraction * len(capsule))


# the loop ---------------------------------------------------------------------

def run_synthesis(
    g: TextAttributedGraph,
    config: SynthesisConfig,
    provider,
    rng_seed: int = 0,
) -> SynthesisResult:
    """Run the full loop and return the grown graph plus its audit trail.

    Provider failures, including embedding replies that fail the gateway's
    checks, end the run gracefully: the graph grown so far comes back along
    with a ``provider_failure`` entry in the audit log. Any other exception
    ends the run the same way with an ``internal_failure`` entry. Structured
    output failures abort only the current iteration.
    """
    audit = provider.audit if getattr(provider, "audit", None) is not None else AuditLog()
    if getattr(provider, "audit", None) is None:
        provider.audit = audit
    audit.record("run_start", seed=rng_seed, config=asdict(config),
                 base_nodes=g.num_nodes, base_edges=g.num_edges)

    state = SynthesisState(
        tau=config.tau_initial, lambda_weights=tuple(config.lambda_init))
    g_current = g
    failure: str | None = None

    try:
        texts = [rec.text for rec in g.nodes]
        vectors = embed_texts(provider, texts)
        emb = EmbeddingTable({rec.node_id: vec for rec, vec in zip(g.nodes, vectors)})

        partition, report, report_json = perceive(g, emb, config, rng_seed)
        report0_json = report_json
        audit.record("initial_report", summary=summarize_report(report))

        reference = ((analysis._clustering_profile(g), analysis.label_homogeneity_matrix(g))
                     if g.num_edges > 0 else None)
        prev_progress: np.ndarray | None = None
        prior_rejections: list[str] = []

        for iteration in range(1, config.max_iterations + 1):
            state.iteration = iteration
            try:
                if iteration > 1:
                    partition, report, report_json = perceive(
                        g_current, emb, config, rng_seed + iteration)
                mode = select_mode(provider, report_json, state.lambda_weights,
                                   train_imbalance(g_current), config, audit)
                seed_sel, capsule, budget = retrieve(
                    g_current, partition, emb, mode, config, rng_seed + iteration)
                audit.record(
                    "perception", iteration=iteration, mode=mode.value,
                    seed=seed_sel.descriptor, capsule_size=len(capsule),
                    budget=budget)

                candidates = generate_nodes(
                    provider, g_current, capsule, summarize_report(report),
                    mode, budget, prior_rejections, audit)

                theta = (config.theta_semantic if mode is EnhancementMode.SEMANTIC
                         else config.theta_topological)
                capsule_ids = frozenset(capsule.node_ids)
                wired: list[tuple[GeneratedNode, np.ndarray]] = []
                if candidates:
                    new_vectors = embed_texts(
                        provider, [gen.record.text for gen in candidates], emb.dim)
                    max_deg = int(np.diff(g_current.adjacency_csr().indptr).max(initial=0))
                    for gen, vec in zip(candidates, new_vectors):
                        kept = propose_edges(
                            g_current, gen, vec, emb, capsule_ids,
                            theta, config.edge_threshold, max_deg)
                        if not kept:
                            audit.record("edge_drop", node_id=gen.record.node_id,
                                         iteration=iteration)
                            continue
                        gen.kept_edges = tuple(kept)
                        wired.append((gen, vec))
                if not wired:
                    audit.record("iteration_unproductive", iteration=iteration,
                                 reason="no attachable candidates")
                    continue

                assessment = evaluate_nodes(
                    provider, [gen for gen, _ in wired], report0_json, report_json,
                    config, audit)
                accepted_ids = filter_accepted(assessment, state.tau)
                prior_rejections = [
                    f"{nid}: {reason}" for nid, reason in
                    sorted(assessment.rejected.items())]
                prior_rejections += [
                    f"{nid}: scored {assessment.composite[nid]:.2f}, below the "
                    f"acceptance bar {state.tau:.2f}"
                    for nid in sorted(assessment.composite)
                    if nid not in accepted_ids]

                accepted = [(gen, vec) for gen, vec in wired
                            if gen.record.node_id in accepted_ids]
                if accepted:
                    delta = SynthesizedDelta(
                        new_nodes=tuple(gen.record for gen, _ in accepted),
                        bridge_edges=tuple(
                            (gen.record.node_id, target)
                            for gen, _ in accepted for target, _ in gen.kept_edges),
                    )
                    g_current = merge_synthesis(g_current, delta)
                    emb = emb.extended({gen.record.node_id: vec for gen, vec in accepted})

                mean_now = assessment.mean
                if mean_now is not None:
                    state.tau = update_threshold(
                        state.tau, mean_now,
                        state.quality_history[-1] if state.quality_history else None,
                        config.zeta)
                    state.quality_history.append(mean_now)

                progress = _progress_vector(g_current, reference, assessment)
                gradient = (progress - prev_progress
                            if prev_progress is not None else np.zeros(3))
                state.lambda_weights = update_weights(
                    state.lambda_weights, gradient, config.eta)
                prev_progress = progress

                state.converged = check_convergence(
                    state.quality_history, config.epsilon, config.window_k,
                    assessment.goal_reached)
                audit.record(
                    "iteration", iteration=iteration, mode=mode.value,
                    generated=len(candidates), wired=len(wired),
                    scores={nid: assessment.composite[nid]
                            for nid in sorted(assessment.composite)},
                    rejected=dict(sorted(assessment.rejected.items())),
                    accepted=accepted_ids, tau=state.tau,
                    lambda_weights=list(state.lambda_weights),
                    mean_quality=mean_now, goal_reached=assessment.goal_reached,
                    goal_justification=assessment.goal_justification,
                    converged=state.converged,
                    nodes=g_current.num_nodes, edges=g_current.num_edges)
                if state.converged:
                    break
            except StructuredOutputError as exc:
                audit.record("iteration_aborted", iteration=iteration,
                             schema=exc.schema_id)
                log.warning("iteration %d aborted: %s", iteration, exc)
                continue
    except (TransportError, PermanentProviderError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
        audit.record("provider_failure", error=failure)
        log.error("synthesis stopped early: %s", failure)
    except Exception as exc:
        # any other fault still returns the graph grown so far with a closed
        # audit, so the caller can write both
        failure = f"{type(exc).__name__}: {exc}"
        audit.record("internal_failure", iteration=state.iteration, error=failure)
        log.exception("synthesis stopped by an internal error: %s", failure)

    audit.record(
        "run_end", iterations=state.iteration, converged=state.converged,
        final_nodes=g_current.num_nodes, final_edges=g_current.num_edges,
        failure=failure)
    return SynthesisResult(
        graph=g_current, audit=audit, converged=state.converged,
        iterations=state.iteration, state=state, failure=failure)
