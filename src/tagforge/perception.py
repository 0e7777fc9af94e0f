"""Retrieval stage: where to look in the graph and what to hand the generator.

Covers mode-conditional seed selection, personalized PageRank smoothing,
stochastic knowledge-capsule sampling, and the environment report that
summarizes graph state for the coordinating agents. The report is its JSON
object: ``build_report`` returns the dict that ``report_to_json`` writes.
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
from .graph import MASKS, TextAttributedGraph, NodeRecord, graph_stats

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
    nodes: frozenset[int]
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
    counts = Counter(g.labels()[g.masks() == MASKS.index("Train")].tolist())
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
    """Pick the region the retrieval walk should favor, as node positions.

    Semantic mode scores each community by size * (1 + mu * Var) with Var the
    mean per-dimension variance of member embeddings, and takes the minimizer:
    small, semantically tight communities are the cheapest to enrich. The
    topological mode returns every training node of the most underrepresented
    training label.
    """
    mode = EnhancementMode(mode)
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
        return SeedSelection(frozenset(members.tolist()), f"community:{idx}")

    imbalance = train_imbalance(g)
    if imbalance is None:
        raise ValueError("topological seed selection requires training nodes")
    target = min(sorted(imbalance), key=lambda lbl: (-imbalance[lbl], lbl))
    train = (g.labels() == target) & (g.masks() == MASKS.index("Train"))
    return SeedSelection(frozenset(np.flatnonzero(train).tolist()),
                         f"label:{target}")


def personalized_pagerank(
    g: TextAttributedGraph,
    seed_positions: Iterable[int],
    params: PerceptionParams = PerceptionParams(),
) -> np.ndarray:
    """Random-walk-with-restart scores of each node position, restarting
    uniformly over the seed positions (repeats count once).

    Dangling nodes hand their probability mass back to the teleport vector.
    Iterates until the L1 change drops below tolerance, else raises
    PprConvergenceError carrying the final residual.
    """
    seeds = g.distinct_positions(seed_positions, "seeds")
    if not seeds.size:
        raise ValueError("seed set must be nonempty")

    v = np.zeros(g.num_nodes)
    v[seeds] = 1.0 / seeds.size
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
            return pi
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
        return json.dumps(
            [{**rec.to_json_obj(), "relevance": self.ppr_scores[rec.node_id]}
             for rec in self.records], ensure_ascii=False, indent=1)


def sample_knowledge(
    g: TextAttributedGraph,
    pi: np.ndarray,
    params: PerceptionParams = PerceptionParams(),
    rng_seed: int = 0,
    partition: Partition | None = None,
) -> KnowledgeCapsule:
    """Draw the knowledge capsule from the PageRank score of each node
    position.

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
    n = g.num_nodes
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (n,) or not n:
        raise ValueError(f"ppr scores must be a nonempty array of shape ({n},), got {pi.shape}")
    # place j holds the j-th node in rank order; lexsort is stable, so equal
    # scores and keys keep position order
    pos = np.lexsort((g.key_rank(), -pi))
    score = pi[pos]
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
        pool[first_place[largest]] = True

    target = min(params.capsule_size, n)
    if not retained:
        log.info("capsule retention emptied the pool; falling back to top slice")
        pool = np.arange(n) < k_count
    short = target - int(pool.sum())
    if short > 0:
        pool[np.flatnonzero(~pool[:k_count])[:short]] = True
    chosen = pos[np.flatnonzero(pool)[:target]]
    records = g.records(chosen)
    node_ids = tuple(rec.node_id for rec in records)
    return KnowledgeCapsule(node_ids, records, dict(zip(node_ids, pi[chosen].tolist())))


# environment report -------------------------------------------------------

def report_to_json(report: dict) -> str:
    """The environment report as the Manager, Evaluation and Goal roles read it."""
    return json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def build_report(
    g: TextAttributedGraph,
    partition: Partition,
    emb: EmbeddingTable | None = None,
) -> dict:
    """The environment report, the state summary the agent roles read, as
    the JSON object that ``report_to_json`` writes.

    ``Graph`` holds ``graph_stats`` less its histograms (those go to
    ``StructuralDistribution`` and ``LabelDistribution``) plus the
    communities: ``indices``, ``sizes`` and ``distribution`` by descending
    size, then integer community. ``ClassStatistics`` holds each label some
    node carries, in integer order, with its ``community_distribution`` by
    descending count, then community as a string.
    """
    if g.num_nodes == 0:
        raise ValueError("cannot report on an empty graph")
    partition.check(g)
    graph_block = graph_stats(g).to_dict()
    degree_histogram = graph_block.pop("degree_histogram")
    label_histogram = graph_block.pop("label_distribution")
    n = g.num_nodes
    m = g.num_edges
    k, comm = partition.community_count, partition.comm

    class_internal = block_totals(g, g.labels(), g.class_count)[0].tolist()
    # node count per (label, community)
    spread = (indicator(g.labels(), g.class_count).T @ indicator(comm, k)).toarray()
    class_stats: dict[str, dict] = {}
    for lbl, row in enumerate(spread.astype(np.int64).tolist()):
        count = sum(row)
        if count == 0:
            continue
        internal = class_internal[lbl]
        comm_dist = {str(c): x for c, x in enumerate(row) if x}
        class_stats[str(lbl)] = {
            "count": count,
            "fraction": count / n,
            "internal_edges": internal,
            "avg_degree": 2.0 * internal / count,
            "community_distribution": dict(sorted(
                comm_dist.items(), key=lambda kv: (-kv[1], kv[0]))),
        }

    comm_internal, deg_sum = (arr.tolist() for arr in block_totals(g, comm, k))
    sizes = np.bincount(comm, minlength=k).tolist()
    comm_order = sorted(range(k), key=lambda c: (-sizes[c], c))
    graph_block["indices"] = [str(c) for c in comm_order]
    graph_block["sizes"] = [sizes[c] for c in comm_order]
    graph_block["distribution"] = {str(c): sizes[c] for c in comm_order}
    graph_block["statistics"] = {
        str(c): {
            "size": sizes[c],
            "internal_edges": comm_internal[c],
            "fraction_of_graph": sizes[c] / n,
            "modularity_contribution": (
                comm_internal[c] / m - (deg_sum[c] / (2.0 * m)) ** 2 if m > 0 else 0.0),
        }
        for c in range(k)
    }

    if emb is not None:
        emb.check(g)
        centroids: dict[str, np.ndarray] = {}
        for lbl in class_stats:
            centroid = emb.unit[g.labels() == int(lbl)].mean(axis=0)
            norm = float(np.linalg.norm(centroid))
            centroids[lbl] = centroid / norm if norm > 0 else centroid
        sem_dist: dict = {"label_centroid_similarity": {
            a: {b: float(np.dot(ca, cb)) for b, cb in centroids.items()}
            for a, ca in centroids.items()}}
    else:
        sem_dist = {"placeholder": "semantic distribution not computed (embeddings unavailable)"}

    return {
        "Graph": graph_block,
        "StructuralDistribution": {"degree_distribution": degree_histogram},
        "SemanticDistribution": sem_dist,
        "LabelDistribution": label_histogram,
        "ClassStatistics": class_stats,
    }
