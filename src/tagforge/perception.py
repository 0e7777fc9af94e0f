"""Retrieval stage: where to look in the graph and what to hand the generator.

Covers mode-conditional seed selection, personalized PageRank smoothing,
stochastic knowledge-capsule sampling, and the environment report that
summarizes graph state for the coordinating agents.
"""
from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .community import EmbeddingTable, Partition, block_totals, indicator
from .graph import GraphStats, TextAttributedGraph, NodeRecord, graph_stats, histogram_json

log = logging.getLogger("tagforge.perception")


class EnhancementMode(str, Enum):
    SEMANTIC = "semantic"
    TOPOLOGICAL = "topological"


class PprConvergenceError(RuntimeError):
    """Power iteration failed to reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PerceptionParams:
    """Knobs for seed scoring, PageRank, and capsule sampling."""

    seed_variance_mu: float = 0.5
    teleport_alpha: float = 0.15
    ppr_tolerance: float = 1e-10
    ppr_max_iters: int = 200
    top_k_percent: float = 20.0
    retention_beta: float = 2.0
    capsule_size: int = 30

    def __post_init__(self):
        if not (0.0 < self.teleport_alpha <= 1.0):
            raise ValueError("teleport_alpha must lie in (0, 1]")
        if not (0.0 < self.top_k_percent <= 100.0):
            raise ValueError("top_k_percent must lie in (0, 100]")
        if self.retention_beta <= 0.0:
            raise ValueError("retention_beta must be positive")
        if self.capsule_size < 1:
            raise ValueError("capsule_size must be at least 1")
        if self.seed_variance_mu < 0.0:
            raise ValueError("seed_variance_mu must be nonnegative")


class SeedSelection(NamedTuple):
    nodes: frozenset
    descriptor: str


def class_imbalance(label_counts: Mapping[int, int]) -> dict[int, float]:
    """Imbalance factor per class: largest class count over this class count."""
    if not label_counts:
        raise ValueError("label_counts must be nonempty")
    if any(c <= 0 for c in label_counts.values()):
        raise ValueError("every class count must be positive")
    peak = max(label_counts.values())
    return {label: peak / count for label, count in label_counts.items()}


def train_imbalance(g: TextAttributedGraph) -> dict[int, float] | None:
    """Imbalance factor per training label; None when no node is in Train."""
    counts = Counter(rec.label for rec in g.nodes if rec.mask == "Train")
    return class_imbalance(counts) if counts else None


def fallback_mode(
    imbalance: Mapping[int, float] | None, threshold: float,
) -> tuple[EnhancementMode, float]:
    """The mode to run when no usable decision exists, plus the peak training
    imbalance it was chosen from: topological once the peak exceeds
    ``threshold``, semantic otherwise."""
    peak = max(imbalance.values()) if imbalance else 1.0
    mode = EnhancementMode.TOPOLOGICAL if peak > threshold else EnhancementMode.SEMANTIC
    return mode, peak


def select_seed(
    g: TextAttributedGraph,
    partition: Partition,
    emb: EmbeddingTable | None,
    mode: EnhancementMode,
    params: PerceptionParams = PerceptionParams(),
) -> SeedSelection:
    """Pick the region the retrieval walk should favor.

    Semantic mode scores each community by size * (1 + mu * Var) with Var the
    mean per-dimension variance of member embeddings, and takes the minimizer:
    small, semantically tight communities are the cheapest to enrich. The
    topological mode returns every training node of the most underrepresented
    training label.
    """
    mode = EnhancementMode(mode)
    ids = g.ids()
    if mode is EnhancementMode.SEMANTIC:
        partition.check(g)
        if emb is not None:
            emb.check(g)
        best, best_score = None, None
        for idx, members in enumerate(partition.positions(g)):
            var = 0.0
            if emb is not None and len(members) > 1:
                var = float(emb.raw[members].var(axis=0).mean())
            score = len(members) * (1.0 + params.seed_variance_mu * var)
            if best_score is None or score < best_score - 1e-15:
                best, best_score = (idx, members), score
        idx, members = best
        return SeedSelection(frozenset(ids[i] for i in members.tolist()), f"community:{idx}")

    imbalance = train_imbalance(g)
    if imbalance is None:
        raise ValueError("topological seed selection requires training nodes")
    target = min(sorted(imbalance), key=lambda lbl: (-imbalance[lbl], lbl))
    train_label = np.array([rec.label if rec.mask == "Train" else -1 for rec in g.nodes])
    nodes = frozenset(ids[i] for i in np.flatnonzero(train_label == target))
    return SeedSelection(nodes, f"label:{target}")


def personalized_pagerank(
    g: TextAttributedGraph,
    seed_nodes: Iterable[str],
    params: PerceptionParams = PerceptionParams(),
) -> dict[str, float]:
    """Random-walk-with-restart scores restarting uniformly over the seeds.

    Dangling nodes hand their probability mass back to the teleport vector.
    Iterates until the L1 change drops below tolerance, else raises
    PprConvergenceError carrying the final residual.
    """
    seeds = set(seed_nodes)
    if not seeds:
        raise ValueError("seed set must be nonempty")
    unknown = sorted(s for s in seeds if not g.has_node(s))
    if unknown:
        raise ValueError(f"seed nodes not in graph: {unknown[:10]}")

    v = np.zeros(g.num_nodes)
    v[[g.index_of(s) for s in seeds]] = 1.0 / len(seeds)
    deg = g.degrees().astype(np.float64)
    dangling = deg == 0.0
    safe_deg = np.where(dangling, 1.0, deg)
    a = g.adjacency_csr()
    alpha = params.teleport_alpha

    pi = v.copy()
    residual = math.inf
    for _ in range(params.ppr_max_iters):
        weighted = pi / safe_deg
        weighted[dangling] = 0.0
        spread = a @ weighted
        loose_mass = float(pi[dangling].sum())
        nxt = alpha * v + (1.0 - alpha) * (spread + loose_mass * v)
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < params.ppr_tolerance:
            return dict(zip(g.ids(), pi.tolist()))
    raise PprConvergenceError(
        f"personalized pagerank did not converge within {params.ppr_max_iters} "
        f"iterations (residual {residual:.3e})", residual)


@dataclass(frozen=True)
class KnowledgeCapsule:
    """The retrieved node set handed to the generation role.

    ``records`` keep full-graph neighbor lists so generated nodes can cite
    real attachment points, and ``ppr_scores`` give each member's relevance.
    """

    node_ids: tuple[str, ...]
    records: tuple[NodeRecord, ...]
    ppr_scores: dict[str, float]

    def __len__(self) -> int:
        return len(self.node_ids)

    def to_json(self) -> str:
        """The members as the generation prompt shows them."""
        return json.dumps([
            {
                "node_id": rec.node_id,
                "label": rec.label,
                "text": rec.text,
                "neighbors": list(rec.neighbors),
                "mask": rec.mask,
                "relevance": self.ppr_scores[rec.node_id],
            }
            for rec in self.records
        ], ensure_ascii=False, indent=1)


def sample_knowledge(
    g: TextAttributedGraph,
    ppr: Mapping[str, float],
    params: PerceptionParams = PerceptionParams(),
    rng_seed: int = 0,
    partition: Partition | None = None,
) -> KnowledgeCapsule:
    """Draw the knowledge capsule from PageRank scores.

    Nodes rank by descending score, then in the graph's canonical order, so
    ids with equal keys such as "1" and "01" tie by graph position. The top
    ``top_k_percent`` pass a stochastic retention filter (node i survives when
    r_i < min(1, beta * pi_i / max pi)); the survivors are unioned with the
    first-ranked node of each of the largest communities, then cut back or
    padded in rank order to min(capsule_size, candidate pool). The pad pool
    is the top slice itself, so capsule membership always stays inside
    top-slice plus delegates. If every retention draw fails, the top slice is
    used outright.
    """
    if not ppr:
        raise ValueError("ppr scores must be nonempty")
    missing = [nid for nid in ppr if not g.has_node(nid)]
    if missing:
        raise ValueError(f"ppr scores reference unknown nodes: {missing[:10]}")

    n = len(ppr)
    pos = np.fromiter(map(g.index_of, ppr), dtype=np.int64, count=n)
    score = np.fromiter(ppr.values(), dtype=np.float64, count=n)
    # place j holds the j-th scored node in rank order
    ranked = np.lexsort((pos, g.key_rank()[pos], -score))
    pos, score = pos[ranked], score[ranked]
    k_count = max(1, math.ceil(n * params.top_k_percent / 100.0))
    if score[0] <= 0.0:
        raise ValueError("ppr scores must contain a positive maximum")

    draws = np.random.default_rng(rng_seed).random(k_count)
    pool = np.zeros(n, dtype=bool)
    pool[:k_count] = draws < np.minimum(1.0, params.retention_beta * score[:k_count] / score[0])
    retained = pool.any()

    if partition is not None:
        partition.check(g)
        k, comm = partition.community_count, partition.comm
        first_place = np.full(k, n, dtype=np.int64)
        np.minimum.at(first_place, comm[pos], np.arange(n))
        quota = min(k, math.ceil(params.capsule_size / 5))
        # communities are numbered in canonical order, so size ties go to
        # the community whose first node comes first
        largest = np.argsort(-np.bincount(comm, minlength=k), kind="stable")[:quota]
        delegates = first_place[largest]
        pool[delegates[delegates < n]] = True

    target = min(params.capsule_size, n)
    if not retained:
        log.info("capsule retention emptied the pool; falling back to top slice")
        pool = np.arange(n) < k_count
    short = target - int(pool.sum())
    if short > 0:
        pool[np.flatnonzero(~pool[:k_count])[:short]] = True
    records = tuple(g.nodes[i] for i in pos[np.flatnonzero(pool)[:target]].tolist())
    return KnowledgeCapsule(
        node_ids=tuple(rec.node_id for rec in records),
        records=records,
        ppr_scores={rec.node_id: float(ppr[rec.node_id]) for rec in records},
    )


# environment report -------------------------------------------------------

@dataclass(frozen=True)
class ClassStat:
    count: int
    fraction: float
    internal_edges: int
    avg_degree: float
    community_distribution: dict


@dataclass(frozen=True)
class CommunityStat:
    size: int
    internal_edges: int
    fraction_of_graph: float
    modularity_contribution: float


@dataclass(frozen=True)
class EnvironmentReport:
    global_stats: GraphStats
    class_stats: dict
    community_stats: dict
    semantic_distribution: dict

    def to_json_obj(self) -> dict:
        comm_order = sorted(
            self.community_stats,
            key=lambda c: (-self.community_stats[c].size, c))
        graph_block = dict(self.global_stats.to_dict())
        graph_block.pop("degree_histogram", None)
        graph_block.pop("label_distribution", None)
        graph_block["indices"] = [str(c) for c in comm_order]
        graph_block["sizes"] = [self.community_stats[c].size for c in comm_order]
        graph_block["distribution"] = {
            str(c): self.community_stats[c].size for c in comm_order}
        graph_block["statistics"] = {
            str(c): {
                "size": cs.size,
                "internal_edges": cs.internal_edges,
                "fraction_of_graph": cs.fraction_of_graph,
                "modularity_contribution": cs.modularity_contribution,
            }
            for c, cs in self.community_stats.items()
        }
        return {
            "Graph": graph_block,
            "StructuralDistribution": {
                "degree_distribution": histogram_json(self.global_stats.degree_histogram),
            },
            "SemanticDistribution": self.semantic_distribution,
            "LabelDistribution": histogram_json(self.global_stats.label_distribution),
            "ClassStatistics": {
                str(lbl): {
                    "count": cs.count,
                    "fraction": cs.fraction,
                    "internal_edges": cs.internal_edges,
                    "avg_degree": cs.avg_degree,
                    "community_distribution": cs.community_distribution,
                }
                for lbl, cs in self.class_stats.items()
            },
        }


def report_to_json(report: EnvironmentReport) -> str:
    return json.dumps(report.to_json_obj(), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def build_report(
    g: TextAttributedGraph,
    partition: Partition,
    emb: EmbeddingTable | None = None,
) -> EnvironmentReport:
    """Assemble the structured state summary consumed by the agent roles."""
    if g.num_nodes == 0:
        raise ValueError("cannot report on an empty graph")
    partition.check(g)
    stats = graph_stats(g)
    n = g.num_nodes
    m = g.num_edges
    k, comm = partition.community_count, partition.comm
    label_of = np.array([rec.label for rec in g.nodes], dtype=np.int64)

    class_internal = block_totals(g, label_of, g.class_count)[0].tolist()
    # node count per (label, community)
    spread = (indicator(label_of, g.class_count).T @ indicator(comm, k)).toarray()
    class_stats: dict[int, ClassStat] = {}
    for lbl, row in enumerate(spread.astype(np.int64).tolist()):
        count = sum(row)
        if count == 0:
            continue
        internal = class_internal[lbl]
        comm_dist = {str(c): x for c, x in enumerate(row) if x}
        class_stats[lbl] = ClassStat(
            count=count,
            fraction=count / n,
            internal_edges=internal,
            avg_degree=2.0 * internal / count,
            community_distribution=dict(sorted(
                comm_dist.items(), key=lambda kv: (-kv[1], kv[0]))),
        )

    comm_stats: dict[int, CommunityStat] = {}
    comm_internal, deg_sum = (arr.tolist() for arr in block_totals(g, comm, k))
    sizes = np.bincount(comm, minlength=k).tolist()
    for c in range(k):
        internal = comm_internal[c]
        if m > 0:
            contribution = internal / m - (deg_sum[c] / (2.0 * m)) ** 2
        else:
            contribution = 0.0
        comm_stats[c] = CommunityStat(
            size=sizes[c],
            internal_edges=internal,
            fraction_of_graph=sizes[c] / n,
            modularity_contribution=contribution,
        )

    if emb is not None:
        emb.check(g)
        centroids: dict[int, np.ndarray] = {}
        for lbl in class_stats:
            centroid = emb.unit[label_of == lbl].mean(axis=0)
            norm = float(np.linalg.norm(centroid))
            centroids[lbl] = centroid / norm if norm > 0 else centroid
        labels = sorted(centroids)
        sem_dist: dict = {"label_centroid_similarity": {
            str(a): {
                str(b): float(np.dot(centroids[a], centroids[b])) for b in labels}
            for a in labels}}
    else:
        sem_dist = {"placeholder": "semantic distribution not computed (embeddings unavailable)"}

    return EnvironmentReport(
        global_stats=stats,
        class_stats=class_stats,
        community_stats=comm_stats,
        semantic_distribution=sem_dist,
    )
