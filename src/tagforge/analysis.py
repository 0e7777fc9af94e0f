"""Quality measurement for synthesized graphs.

Two families of checks live here: distribution comparisons between a
source graph and a grown or sampled variant (two-sample KS on degrees,
degree-binned clustering similarity, label homogeneity overlap), and subspace
coherence of embedding clouds scored against an iteratively reweighted
principal direction.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .graph import TextAttributedGraph, local_clustering

log = logging.getLogger("tagforge.analysis")

SMALL_SAMPLE_FLOOR = 25


# two-sample Kolmogorov-Smirnov ---------------------------------------------

@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    n_a: int
    n_b: int
    small_sample: bool

    def to_dict(self) -> dict:
        return asdict(self)


def ks_p_value(statistic: float, n: int, m: int) -> float:
    """Asymptotic two-sided p-value: the Kolmogorov distribution's survival
    function at sqrt(n m / (n + m)) * statistic, clamped into [0, 1].
    """
    # scipy.special.kolmogorov is the function behind scipy.stats.kstwobign.sf.
    # Imported here because importing it (let alone scipy.stats) adds about
    # 0.1 s to the start-up of every command, and only this function needs it.
    from scipy.special import kolmogorov

    if statistic <= 0.0:
        return 1.0
    lam = statistic * math.sqrt(n * m / (n + m))
    return min(1.0, max(0.0, float(kolmogorov(lam))))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KSResult:
    """Exact sup-distance between the two empirical CDFs, with p-value.

    Sets ``small_sample`` when either sample has fewer than 25 points, since
    the asymptotic p-value is unreliable there.
    """
    xa = np.sort(np.asarray(a, dtype=np.float64))
    xb = np.sort(np.asarray(b, dtype=np.float64))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    d = float(np.max(np.abs(fa - fb)))
    return KSResult(
        statistic=d,
        p_value=ks_p_value(d, xa.size, xb.size),
        n_a=int(xa.size),
        n_b=int(xb.size),
        small_sample=min(xa.size, xb.size) < SMALL_SAMPLE_FLOOR,
    )


# graph feature similarity ---------------------------------------------------

def degree_sequence(g: TextAttributedGraph) -> np.ndarray:
    return g.degrees().astype(np.float64)


def clustering_similarity(g1: TextAttributedGraph, g2: TextAttributedGraph) -> float:
    """One minus the pooled-weight L1 gap between degree-binned mean local
    clustering curves. Bins observed in only one graph contribute no gap.
    """
    if g1.num_nodes == 0 or g2.num_nodes == 0:
        raise ValueError("both graphs must be nonempty")
    return _profile_similarity(_clustering_profile(g1), _clustering_profile(g2))


def _clustering_profile(g: TextAttributedGraph) -> dict[int, tuple[int, float]]:
    """Node count and summed local clustering per log-spaced degree bin,
    floor(log2 d), shared across graphs; isolated nodes get bin -1."""
    # frexp's exponent is floor(log2 d) + 1 exactly, and 0 for d = 0
    shifted = np.frexp(g.degrees())[1]
    count = np.bincount(shifted)
    total = np.bincount(shifted, weights=local_clustering(g))
    return {b - 1: (int(count[b]), float(total[b])) for b in np.flatnonzero(count).tolist()}


def _profile_similarity(p1: dict[int, tuple[int, float]],
                        p2: dict[int, tuple[int, float]]) -> float:
    pooled = sum(count for count, _ in p1.values()) + sum(count for count, _ in p2.values())
    gap = 0.0
    for b in sorted(set(p1) | set(p2)):
        in1 = p1.get(b)
        in2 = p2.get(b)
        weight = ((in1[0] if in1 else 0) + (in2[0] if in2 else 0)) / pooled
        if in1 and in2:
            gap += weight * abs(in1[1] / in1[0] - in2[1] / in2[0])
    return 1.0 - gap


def label_homogeneity_matrix(g: TextAttributedGraph) -> np.ndarray:
    """Symmetric label pair incidence: entry (a, b) is the fraction of edge
    mass joining labels a and b; all entries sum to one."""
    if g.num_edges == 0:
        raise ValueError("label homogeneity undefined for an edgeless graph")
    c = g.class_count
    h = np.zeros((c, c))
    m = g.num_edges
    label = np.array([rec.label for rec in g.nodes], dtype=np.int64)
    adj = g.adjacency_csr().tocoo()
    upper = adj.row < adj.col
    a, b = label[adj.row[upper]], label[adj.col[upper]]
    # each cell only ever receives one constant, 1/m on the diagonal and 0.5/m
    # off it, so the sums do not depend on the order of the increments
    step = np.where(a == b, 1.0 / m, 0.5 / m)
    np.add.at(h, (a, b), step)
    off = a != b
    np.add.at(h, (b[off], a[off]), step[off])
    return h


def label_homogeneity_similarity(g1: TextAttributedGraph, g2: TextAttributedGraph) -> float:
    """Total-variation overlap between the two label-pair distributions."""
    if g1.class_count != g2.class_count:
        raise ValueError("graphs must share a class count")
    return _homogeneity_overlap(label_homogeneity_matrix(g1), label_homogeneity_matrix(g2))


def _homogeneity_overlap(h1: np.ndarray, h2: np.ndarray) -> float:
    return float(1.0 - 0.5 * np.abs(h1 - h2).sum())


@dataclass(frozen=True)
class FeatureSimilarityReport:
    degree_ks: KSResult
    clustering_similarity: float
    label_homogeneity: float

    def to_dict(self) -> dict:
        return asdict(self)


def feature_similarity_report(
    g1: TextAttributedGraph, g2: TextAttributedGraph) -> FeatureSimilarityReport:
    return FeatureSimilarityReport(
        degree_ks=ks_two_sample(degree_sequence(g1), degree_sequence(g2)),
        clustering_similarity=clustering_similarity(g1, g2),
        label_homogeneity=label_homogeneity_similarity(g1, g2),
    )


# subspace coherence ---------------------------------------------------------

@dataclass(frozen=True)
class PrincipalDirection:
    direction: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _unit_rows(vectors) -> np.ndarray:
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a nonempty 2-d array of row vectors")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("rows must have positive finite norm")
    return x / norms[:, None]


def _canonical_sign(u: np.ndarray) -> np.ndarray:
    for val in u:
        if abs(val) > 1e-12:
            return u if val > 0 else -u
    return u


def grassmann_objective(u: np.ndarray, vectors) -> float:
    """Sum of squared principal angles between u and each row vector."""
    return _objective_of_unit_rows(u, _unit_rows(vectors))


def _objective_of_unit_rows(u: np.ndarray, x: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    u = u / np.linalg.norm(u)
    cosines = np.clip(np.abs(x @ u), 0.0, 1.0)
    return float((np.arccos(cosines) ** 2).sum())


def principal_direction(vectors) -> PrincipalDirection:
    """Direction minimizing the sum of squared angles to the given vectors.

    Iteratively reweighted scheme: each round weights every vector by
    arccos(|u.x|) / sqrt(1 - (u.x)^2) (limit 1 as the angle vanishes), builds
    the weighted second-moment matrix, and takes its dominant eigenvector.
    Starts from the normalized mean and stops when a round turns it by under
    1e-8 radians, or after 100 rounds. The objective is monitored and must
    never increase; a numerical increase beyond 1e-9 raises.
    """
    x = _unit_rows(vectors)
    n, dim = x.shape
    mean = x.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        u = np.zeros(dim)
        u[0] = 1.0
    else:
        u = mean / norm
    u = _canonical_sign(u)
    # the objective normalizes its rows again, which moves x by ulps; doing
    # that once keeps every value grassmann_objective(., x) would give
    x_objective = _unit_rows(x)
    f_prev = _objective_of_unit_rows(u, x_objective)
    for outer in range(1, 101):
        t = x @ u
        a = np.clip(np.abs(t), 0.0, 1.0)
        near_aligned = a > 1.0 - 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(near_aligned, 1.0, np.arccos(a) / np.sqrt(1.0 - a ** 2))
        m = x.T @ (x * w[:, None])
        v = _canonical_sign(np.linalg.eigh(m)[1][:, -1])
        f_new = _objective_of_unit_rows(v, x_objective)
        # the reweighted eigen-step can overshoot on spread-out clouds;
        # halve the move back toward the previous direction until the
        # objective stops increasing, preserving the monotone guarantee
        halved = 0
        while f_new > f_prev and halved < 50:
            blend = u + v if float(v @ u) >= 0.0 else u - v
            bn = float(np.linalg.norm(blend))
            if bn < 1e-300:
                v = u
                f_new = f_prev
                break
            v = _canonical_sign(blend / bn)
            f_new = _objective_of_unit_rows(v, x_objective)
            halved += 1
        if f_new > f_prev + 1e-9:
            raise RuntimeError(
                f"coherence objective increased from {f_prev:.12f} to {f_new:.12f}")
        step = float(np.arccos(np.clip(abs(v @ u), 0.0, 1.0)))
        u = v
        f_prev = min(f_prev, f_new)
        if step < 1e-8:
            break
    return PrincipalDirection(direction=u, objective=f_prev,
                              iterations=outer, converged=step < 1e-8)


def coherence_score(x, direction) -> float:
    """Closeness of one vector to the principal direction, in [0, 1]."""
    xv = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(xv)):
        raise ValueError("cannot score a vector with non-finite entries")
    nx = float(np.linalg.norm(xv))
    if nx == 0.0:
        raise ValueError("cannot score a zero vector")
    u = np.asarray(direction, dtype=np.float64)
    u = u / np.linalg.norm(u)
    cos = float(np.clip(abs(xv @ u) / nx, 0.0, 1.0))
    return 1.0 - (2.0 / math.pi) * math.acos(cos)


@dataclass(frozen=True)
class CoherenceReport:
    scores: dict
    mean: float
    sample_std: float
    t_statistic: float | None
    degenerate: bool
    sample_size: int

    def to_dict(self) -> dict:
        return asdict(self)


def coherence_statistics(scores: Mapping[str, float]) -> CoherenceReport:
    """One-sample t statistic of the scores against the 0.5 chance level.

    A zero-variance sample is flagged degenerate with no t value rather than
    dividing by zero.
    """
    if len(scores) < 2:
        raise ValueError("need at least two scores for a t statistic")
    vals = np.array([scores[k] for k in sorted(scores)], dtype=np.float64)
    mean = float(vals.mean())
    std = float(vals.std(ddof=1))
    if std == 0.0:
        return CoherenceReport(dict(scores), mean, 0.0, None, True, int(vals.size))
    t = (mean - 0.5) / (std / math.sqrt(vals.size))
    return CoherenceReport(dict(scores), mean, std, float(t), False, int(vals.size))
