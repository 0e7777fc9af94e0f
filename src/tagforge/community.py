"""Community structure over text-attributed graphs.

The partition quality function extends classic modularity with a semantic
term: pairs of co-assigned nodes are additionally charged by their normalized
text similarity, so detected communities trade edge density against semantic
tightness. With ``gamma = 1`` the function reduces exactly to the classic
edge-minus-null-model value and embeddings are never touched.

All double sums run over ordered node pairs including the diagonal, which is
the convention under which the two-triangle fixture scores exactly 0.5.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import _ROW_BLOCK, TextAttributedGraph

log = logging.getLogger("tagforge.community")

# Exact all-pairs semantic sums above this node count get replaced by a
# seeded uniform-pair estimate inside detection.
EXACT_PAIR_LIMIT = 650
PAIR_SAMPLE_SIZE = 200_000
# Above this node count a semantic run stays at the local-moving level and
# skips coarsening, to bound memory. Each coarse level of k super-nodes holds
# one dense k x k float array, its block sums ``sem``. No other array grows
# with k^2: _aggregate builds ``sem`` from row blocks of _SEM_BLOCK_FLOATS
# floats, and local moving reads it a row at a time. At 50k nodes the first
# coarse level has k near 20k, about 3.3 GB.
AGGREGATE_SEMANTIC_LIMIT = 5000
# Floats per row block of the pair-term matrix when _aggregate builds
# semantic block sums: 4 MB, whatever the node count.
_SEM_BLOCK_FLOATS = 2 ** 19

_GAIN_EPS = 1e-12


def embedding_row(vec: Sequence[float], dim: int = 0) -> tuple[np.ndarray, float]:
    """``vec`` as a float64 row, with its norm.

    The rule every embedding row meets: a nonempty 1-d vector of numbers, of
    ``dim`` entries unless ``dim`` is 0, whose norm is finite and nonzero.
    Any other row raises ValueError.
    """
    try:
        row = np.asarray(vec, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"embedding row is not numeric: {exc}") from exc
    if row.ndim != 1 or row.size == 0 or row.size != (dim or row.size):
        raise ValueError(f"embedding row has shape {row.shape}, expected ({dim or 'd > 0'},)")
    norm = float(np.linalg.norm(row))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("embedding row has zero or non-finite norm")
    return row, norm


class EmbeddingTable:
    """Dense vectors in one graph's node order, all of one dimension, none
    zero-norm.

    The key order of the mapping is the node order: row i of ``raw`` and of
    its unit-norm copy ``unit`` is the vector of ``ids[i]``. A consumer
    reads rows by node position of a graph ``g`` after ``check(g)``, which
    raises unless ``ids`` equals ``g.ids()``. ``extended`` appends the nodes
    a merge appends.
    """

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        self.ids = tuple(map(str, vectors))
        self.raw, self.unit = _stacked(vectors.values(), 0)
        self.dim = self.raw.shape[1]

    def extended(self, vectors: Mapping[str, Sequence[float]]) -> "EmbeddingTable":
        """A table of these rows followed by ``vectors``, in key order."""
        raw, unit = _stacked(vectors.values(), self.dim)
        out = EmbeddingTable({})
        out.ids, out.dim = self.ids + tuple(map(str, vectors)), self.dim
        out.raw, out.unit = np.vstack((self.raw, raw)), np.vstack((self.unit, unit))
        return out

    def check(self, g: TextAttributedGraph) -> None:
        if self.ids != g.ids():
            raise ValueError("embedding table ids are not the graph's node ids in node order")


def _stacked(vectors: Iterable[Sequence[float]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw and unit rows of ``vectors``, each checked by ``embedding_row``
    against ``dim`` or, when it is 0, against the first row's dimension."""
    rows, norms = [], []
    for vec in vectors:
        row, norm = embedding_row(vec, dim)
        dim = row.size
        rows.append(row)
        norms.append(norm)
    raw = np.array(rows).reshape(len(rows), dim)
    return raw, raw / np.array(norms).reshape(-1, 1)


@dataclass(frozen=True)
class ModularityParams:
    """gamma weights topology against semantics; semantic_term picks whether
    co-assigned pairs are charged by clamped cosine similarity or by the
    distance 1 - cosine."""

    gamma: float = 0.5
    semantic_term: str = "similarity"

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.semantic_term not in ("similarity", "distance"):
            raise ValueError(f"unknown semantic_term {self.semantic_term!r}")


class Partition:
    """A community index 0..k-1 at every node position of one graph.

    ``comm[i]`` is the community of ``ids[i]``. Communities are numbered by
    their first node in the graph's canonical order (``key_rank``, then
    position), whatever labels the constructor is given. A consumer reads
    ``comm`` by node position of a graph ``g`` after ``check(g)``, which
    raises unless ``ids`` equals ``g.ids()``.
    """

    def __init__(self, g: TextAttributedGraph, labels: Sequence[int] | np.ndarray):
        """The partition of ``g`` that puts positions with equal ``labels``
        together; ``labels`` holds one integer per node position."""
        labels = np.asarray(labels)
        if labels.shape != (g.num_nodes,) or (labels.size and labels.dtype.kind not in "iu"):
            raise ValueError("labels must hold one integer per node of the graph, "
                             f"got shape {labels.shape} for {g.num_nodes} nodes")
        order = np.argsort(g.key_rank(), kind="stable")
        _, first, inverse = np.unique(labels[order], return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        comm = np.empty(g.num_nodes, dtype=np.int64)
        comm[order] = rank[inverse]
        comm.flags.writeable = False
        self.ids = g.ids()
        self.comm = comm
        self.community_count = int(first.size)

    def check(self, g: TextAttributedGraph) -> None:
        if self.ids != g.ids():
            raise ValueError("partition ids are not the graph's node ids in node order")

    def positions(self, g: TextAttributedGraph) -> list[np.ndarray]:
        """Each community's node positions in ``g``'s canonical order, for
        the graph that ``check`` accepts."""
        order = np.lexsort((g.key_rank(), self.comm))
        sizes = np.bincount(self.comm, minlength=self.community_count)
        return np.split(order, np.cumsum(sizes)[:-1])


def indicator(comm: np.ndarray, k: int) -> sp.csr_matrix:
    """The n x k membership matrix P of a labelling: P[i, comm[i]] = 1."""
    n = len(comm)
    return sp.csr_matrix((np.ones(n), (np.arange(n), comm)), shape=(n, k))


def block_totals(
        g: TextAttributedGraph, comm: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Internal edge count and degree sum of each block of a node-position
    labelling with labels 0..k-1: diag(P^T A P) / 2 and P^T deg."""
    p = indicator(comm, k)
    a = g.adjacency_csr()
    internal = (p.T @ a @ p).diagonal() // 2
    return internal.astype(np.int64), (p.T @ a.getnnz(axis=1)).astype(np.int64)


def _pair_term(sim_block: np.ndarray, semantic_term: str,
               out: np.ndarray | None = None) -> np.ndarray:
    """The semantic pair term of each similarity; ``out=sim_block`` applies
    it in place."""
    if semantic_term == "similarity":
        return np.maximum(sim_block, 0.0, out=out)
    return np.subtract(1.0, sim_block, out=out)


def _total_pair_sum(x_unit: np.ndarray, semantic_term: str) -> float:
    """Sum of the semantic pair term over all ordered pairs, diagonal included."""
    n = x_unit.shape[0]
    total = 0.0
    for start in range(0, n, _ROW_BLOCK):
        block = x_unit[start:start + _ROW_BLOCK] @ x_unit.T
        total += float(_pair_term(block, semantic_term, out=block).sum())
    return total


def _sampled_pair_sum(x_unit: np.ndarray, semantic_term: str, rng_seed: int) -> float:
    n = x_unit.shape[0]
    rng = np.random.default_rng(rng_seed)
    li = rng.integers(0, n, size=PAIR_SAMPLE_SIZE)
    mi = rng.integers(0, n, size=PAIR_SAMPLE_SIZE)
    # gather the sampled rows one block at a time, not as two sample x d copies
    dots = np.empty(PAIR_SAMPLE_SIZE)
    for start in range(0, PAIR_SAMPLE_SIZE, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        dots[block] = np.einsum("ij,ij->i", x_unit[li[block]], x_unit[mi[block]])
    est = float(_pair_term(dots, semantic_term, out=dots).mean()) * n * n
    log.info(
        "semantic pair sum estimated from %d sampled pairs of %d^2 (seed %d)",
        PAIR_SAMPLE_SIZE, n, rng_seed)
    return est


def semantic_modularity(
    g: TextAttributedGraph,
    partition: Partition,
    emb: EmbeddingTable | None = None,
    params: ModularityParams = ModularityParams(gamma=1.0),
) -> float:
    """Score a partition by edge density minus null model minus semantic spread.

    Exact evaluation; the semantic part costs O(n^2) vector products, taken
    in row blocks as ``_total_pair_sum`` takes them, so no community forms a
    |C| x |C| array. At
    ``gamma = 1`` the score equals classic modularity and ``emb`` may be None.
    """
    m = g.num_edges
    if m == 0:
        raise ValueError("modularity undefined for a graph with no edges")
    partition.check(g)
    internal, deg_sum = block_totals(g, partition.comm, partition.community_count)
    deg_sum = deg_sum.astype(np.float64)
    q = int(internal.sum()) / m - params.gamma * float((deg_sum ** 2).sum()) / (4.0 * m * m)

    if params.gamma < 1.0:
        if emb is None:
            raise ValueError("gamma below 1 requires embeddings")
        emb.check(g)
        s_tot = _total_pair_sum(emb.unit, params.semantic_term)
        if s_tot > 0.0:
            same = 0.0
            for members in partition.positions(g):
                same += _total_pair_sum(emb.unit[members], params.semantic_term)
            q -= (1.0 - params.gamma) * same / (2.0 * m * s_tot)
    return q


# detection ----------------------------------------------------------------

class _Level:
    """One coarsening level: weighted CSR adjacency over super-nodes.

    ``sem``, where present, holds the semantic block sums of the level:
    ``sem[u, w]`` is the sum of the pair terms of the ``len(members[u]) *
    len(members[w])`` ordered pairs of original nodes with one end in ``u``
    and one in ``w``, and each term lies in ``[lo, hi]``: ``[0, 1]`` for
    ``similarity``, ``[-1, 2]`` for ``distance``. ``_aggregate``, the only
    producer of ``sem``, keeps this by induction: it sums blocks of the first
    level's pair terms, or of the sums of the level it collapses.
    """

    def __init__(self, adj: sp.csr_matrix, strength: np.ndarray,
                 sem: np.ndarray | None, members: list[list[int]]):
        self.adj = adj
        self.strength = strength
        self.sem = sem
        self.members = members  # original node indices per super-node


def _local_moving(level: _Level, two_m: float, gamma: float, sem_coeff: float,
                  x_unit: np.ndarray | None, semantic_term: str) -> tuple[np.ndarray, bool]:
    """Greedy node moves until no single move improves the score.

    Nodes are visited in index order; candidate communities are those holding
    a graph neighbor. Ties on gain go to the community whose smallest original
    member comes first, which makes the sweep order permutation invariant.

    A visit that weighs semantics gathers the terms between ``v`` and the
    members of its own community but ``v`` and of every candidate community,
    from row ``v`` of ``level.sem`` on coarse levels and from ``x_unit`` on
    the first, and sums them per community.

    A sweep visits only dirty nodes, in index order. Every node starts dirty.
    A visit that ends with ``v`` staying put, with or without a candidate
    community, clears ``dirty[v]`` and registers ``v`` in ``watch`` under its
    own community and under each candidate. A move of ``v`` from ``a`` to
    ``b`` marks every node registered under ``a`` or ``b`` dirty and empties
    both lists; ``v`` itself stays dirty. A node marked ahead of the sweep's
    position is visited in this sweep, one marked behind it in the next. A
    clean node would stay put again: a neighbour that moved left a community
    ``v`` is registered under, so no neighbour moved and ``links`` is the
    same, and community strengths, semantic sums, ``min_member`` and
    member-set order change only with membership, which marks. The visit
    would compute the same floats. A node that stayed twice is listed twice
    under a community, which only marks it twice.

    Before it sorts the candidates and gathers, a visit bounds every
    candidate's gain by topology alone and keeps ``v`` when no bound exceeds
    ``_GAIN_EPS``. Sizes count original nodes: ``N`` in all, ``|v|`` in
    ``v`` and ``comm_size[c]`` in community ``c``. A bound is the gain in the
    same float expression order with every candidate's semantic sum replaced
    by the floor ``lo * N * |v|`` and the own community's by ``U = hi * |v|
    * comm_size[cur]``. IEEE rounding of -, * and / is monotone and
    ``sem_coeff >= 0``, so the bound is at least the gain whenever each
    candidate sum, as computed, is at least the floor and the own sum at
    most U. By ``_Level``'s contract a candidate sum holds ``|v| *
    comm_size[c]`` terms and the own sum ``|v| * (comm_size[cur] - |v|)``:

    - ``similarity``'s ``max(x.y, 0)`` is never below 0, nor is a sum of
      such terms. ``distance``'s 1 - x.y can round below 0 for
      near-identical unit rows, but only by a few ``d * eps`` per term for
      dimension d, far above the floor's -1 per term.
    - A computed term exceeds ``hi`` by a few ``d * eps`` at most, and a
      float sum of K terms, in whatever order and over however many levels,
      is off by at most ``K * eps`` times the sum of their sizes. Over the
      own sum's K terms, U leaves a slack of ``|v|**2`` whole terms, at
      least one. That covers the rounding while ``(comm_size[cur] + d)**2
      * eps`` is below 1/2: any community under ten million original
      nodes.
    - At ``sem_coeff == 0`` every semantic product is 0 and the bound is
      the gain.

    On the first level every size is 1, so the floor is ``lo * n`` and U
    is ``hi`` times the community's member count.
    """
    n = len(level.members)
    indptr, nbrs, weights = (arr.tolist() for arr in (
        level.adj.indptr, level.adj.indices, level.adj.data))
    comm = list(range(n))
    node_strength = level.strength.tolist()
    comm_strength = list(node_strength)
    members: list[set[int]] = [{i} for i in range(n)]
    size = [len(ms) for ms in level.members]
    comm_size = list(size)
    # smallest original member per super-node and per community, for
    # canonical tie-breaking
    first = [ms[0] for ms in level.members]
    min_member = list(first)
    dirty = bytearray(b"\x01") * n
    watch: list[list[int]] = [[] for _ in range(n)]
    lo, hi = (0.0, 1.0) if semantic_term == "similarity" else (-1.0, 2.0)
    lo_total = lo * sum(size)

    improved_any = False
    while True:
        moved = False
        for v in range(n):
            if not dirty[v]:
                continue
            cur = comm[v]
            links: dict[int, float] = {}
            for j in range(indptr[v], indptr[v + 1]):
                u = nbrs[j]
                if u == v:
                    continue
                c = comm[u]
                links[c] = links.get(c, 0.0) + weights[j]
            k_v, size_v = node_strength[v], size[v]
            scale = gamma * k_v
            # each candidate's value and v's own community's value, before
            # their semantic sums; rounding is monotone, so the largest
            # candidate value gives the largest bound
            topo = {c: links[c] - scale * comm_strength[c] / two_m for c in links if c != cur}
            own = links.get(cur, 0.0) - scale * (comm_strength[cur] - k_v) / two_m
            best_c = cur
            if topo and (max(topo.values()) - sem_coeff * (lo_total * size_v)) - (
                    own - sem_coeff * (hi * (size_v * comm_size[cur]))) > _GAIN_EPS:
                cands = sorted(topo, key=min_member.__getitem__)
                if sem_coeff == 0.0:
                    sem = [0.0] * (len(cands) + 1)
                else:
                    pos = [u for u in members[cur] if u != v]
                    ends = [len(pos)]
                    for c in cands:
                        pos.extend(members[c])
                        ends.append(len(pos))
                    if level.sem is None:
                        vals = _pair_term(x_unit.take(pos, axis=0) @ x_unit[v],
                                          semantic_term).tolist()
                    else:
                        vals = level.sem[v].take(pos).tolist()
                    sem = [sum(vals[start:end]) for start, end in zip([0] + ends, ends)]
                base = own - sem_coeff * sem[0]
                best_gain = 0.0
                for c, s in zip(cands, sem[1:]):
                    delta = (topo[c] - sem_coeff * s) - base
                    if delta > best_gain + _GAIN_EPS:
                        best_gain = delta
                        best_c = c
            if best_c == cur:
                dirty[v] = 0
                watch[cur].append(v)
                for c in topo:
                    watch[c].append(v)
                continue
            members[cur].discard(v)
            members[best_c].add(v)
            comm_strength[cur] -= k_v
            comm_strength[best_c] += k_v
            comm_size[cur] -= size_v
            comm_size[best_c] += size_v
            comm[v] = best_c
            if first[v] == min_member[cur]:
                min_member[cur] = min((first[u] for u in members[cur]), default=n + 1)
            min_member[best_c] = min(min_member[best_c], first[v])
            for c in (cur, best_c):
                for u in watch[c]:
                    dirty[u] = 1
                watch[c].clear()
            moved = True
            improved_any = True
        if not moved:
            break
    return np.array(comm), improved_any


def _aggregate(level: _Level, comm: np.ndarray, x_unit: np.ndarray | None,
               semantic_term: str) -> _Level:
    """Collapse each community of ``comm`` into one super-node.

    Super-nodes are ordered by their smallest original member. Semantic block
    sums P^T T P are carried when ``level.sem`` exists, or, on the first
    level, built from ``x_unit`` when it is given. T is taken one block of
    rows at a time, in the order of the rows' new communities, with about
    ``_SEM_BLOCK_FLOATS`` floats per block whatever n is. Each block's rows
    are summed per column community (``rows @ P``), then per row community,
    and added into the block's own communities' rows of ``sem`` only, so no
    k x k temporary is made. The sums run in another order than the
    whole-matrix P^T T P, so ``sem`` may differ from it in the last bits.
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
    caff = np.array([remap[c] for c in comm], dtype=np.intp)
    members: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(caff.tolist()):
        members[c].extend(level.members[v])
    for ms in members:
        ms.sort()
    # weights are integer counts, so P^T A P and P^T strength are exact
    ind = indicator(caff, k)
    adj = (ind.T @ level.adj @ ind).tocsr()
    strength = ind.T @ level.strength
    sem = None
    if level.sem is not None or x_unit is not None:
        order = np.argsort(caff, kind="stable")
        step = max(1, _SEM_BLOCK_FLOATS // n)
        sem = np.zeros((k, k))
        for start in range(0, n, step):
            idx = order[start:start + step]
            if level.sem is not None:
                rows = level.sem[idx]
            else:
                rows = x_unit[idx] @ x_unit.T
                _pair_term(rows, semantic_term, out=rows)
            # sorted rows, so the block's communities are the labels lo..hi-1
            lo, hi = int(caff[idx[0]]), int(caff[idx[-1]]) + 1
            sem[lo:hi] += indicator(caff[idx] - lo, hi - lo).T @ (rows @ ind)
    return _Level(adj, strength, sem, members)


def detect_communities(
    g: TextAttributedGraph,
    emb: EmbeddingTable | None = None,
    params: ModularityParams = ModularityParams(gamma=1.0),
    rng_seed: int = 0,
) -> Partition:
    """Greedy local moving plus coarsening, guided by the semantic score.

    Deterministic for a fixed seed, and invariant to the order node records
    appear in: nodes are swept in canonical id order and gain ties resolve to
    the community with the smallest member id. The seed only feeds the pair
    sum estimator used on graphs with more than EXACT_PAIR_LIMIT nodes.
    """
    n = g.num_nodes
    if n == 0:
        raise ValueError("cannot detect communities of an empty graph")
    if g.num_edges == 0:
        return Partition(g, np.arange(n))
    perm = np.argsort(g.key_rank(), kind="stable")

    adj0 = g.adjacency_csr()[perm][:, perm]
    strength = g.degrees()[perm].astype(np.float64)
    two_m = float(strength.sum())

    x_unit = None
    sem_coeff = 0.0
    if params.gamma < 1.0:
        if emb is None:
            raise ValueError("gamma below 1 requires embeddings")
        emb.check(g)
        x_unit = emb.unit[perm]
        if n <= EXACT_PAIR_LIMIT:
            s_tot = _total_pair_sum(x_unit, params.semantic_term)
        else:
            s_tot = _sampled_pair_sum(x_unit, params.semantic_term, rng_seed)
        if s_tot > 0.0:
            # gain comparisons drop the common 1/m factor, so the semantic
            # coefficient keeps the same relative scale: (1 - gamma) / S_tot
            # per pair, counted twice for the two ordered orientations.
            sem_coeff = (1.0 - params.gamma) / s_tot

    level = _Level(adj0, strength, None, [[i] for i in range(n)])
    node_comm, improved = _local_moving(level, two_m, params.gamma, sem_coeff,
                                        x_unit, params.semantic_term)

    can_aggregate_sem = sem_coeff == 0.0 or n <= AGGREGATE_SEMANTIC_LIMIT
    if not can_aggregate_sem:
        log.info("skipping coarsening passes: n=%d is above AGGREGATE_SEMANTIC_LIMIT", n)

    # node_comm holds one community per super-node of level; a pass that
    # makes no move returns the identity, so its level is kept as it is
    sem_source = x_unit if sem_coeff > 0.0 else None
    while improved and can_aggregate_sem:
        coarse = _aggregate(level, node_comm, sem_source, params.semantic_term)
        if len(coarse.members) == len(level.members):
            break
        level = coarse
        node_comm, improved = _local_moving(level, two_m, params.gamma, sem_coeff,
                                            None, params.semantic_term)

    # level.members holds indices into perm, the canonical order
    labels = np.empty(n, dtype=np.int64)
    labels[perm[np.concatenate(level.members)]] = np.repeat(
        node_comm, [len(ms) for ms in level.members])
    return Partition(g, labels)
