"""Distribution-preserving graph downsampling.

Given a target fraction alpha, nodes are apportioned across (label,
community) cells by largest-remainder rounding, applied first across classes
and then across each class's cells so per-class totals never drift more than
one node from their rounding targets. Within a cell the highest-utility nodes
win, where utility blends degree and bridge potential. A greedy swap repair
then nudges the sample's component profile toward the source graph without
ever touching cell counts.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .community import Partition, indicator
from .graph import (TextAttributedGraph, _gather, _sorted_unique, component_labels,
                    histogram_json, histograms, largest_component)

log = logging.getLogger("tagforge.limiter")

# candidate caps per repair round
_BRIDGE_CAP = 12
_ISOLATE_CAP = 4
_REPLACE_CAP = 8
_GAIN_EPS = 1e-12
# ARPACK tolerance of the first, loose pass of the spectrum's deflation check
_CHECK_TOL = 1e-6
# the check's margin: a remaining eigenvalue of the Laplacian is a missed copy
# when it lies more than this below the largest one found
_CHECK_MARGIN = 1e-10
# delta of the factored spectrum, which factors L + delta I (1e-2 was slower)
_SHIFT = 1e-3
# largest cycle rank c of a component whose spectrum is factored: the factor
# then holds at most (2c)^2 <= 2^24 floats (128 MB)
_CYCLE_RANK_BUDGET = 2048


@dataclass(frozen=True)
class LimiterParams:
    alpha: float = 0.5
    lambda_weights: tuple[float, float] = (1 / 3, 1 / 3)
    repair_epsilon: float = 0.05
    max_repair_swaps: int | None = None
    eigen_count: int = 10

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if len(self.lambda_weights) != 2 or any(w < 0 for w in self.lambda_weights):
            raise ValueError("lambda_weights must be two nonnegative values")
        if self.repair_epsilon < 0.0:
            raise ValueError("repair_epsilon must be nonnegative")
        if self.eigen_count < 1:
            raise ValueError("eigen_count must be positive")


@dataclass(frozen=True)
class PropertyTensor:
    """Compact structural fingerprint used to compare graph versions."""

    degree_histogram: dict
    label_distribution: dict
    top_spectral: tuple[float, ...]
    component_profile: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "degree_histogram": histogram_json(self.degree_histogram),
            "label_distribution": histogram_json(self.label_distribution),
            "top_spectral": list(self.top_spectral),
            "component_profile": list(self.component_profile),
        }


@dataclass(frozen=True)
class RepairReport:
    swaps: int
    initial_distortion: float
    final_distortion: float
    distortion_trace: tuple[float, ...]
    warning: str | None = None


@dataclass(frozen=True)
class LimitResult:
    graph: TextAttributedGraph
    cell_targets: dict
    repair: RepairReport


def dense_laplacian_eigenvalues(a: sp.csr_matrix, count: int) -> np.ndarray:
    """The ``count`` smallest eigenvalues of I - D^-1/2 A D^-1/2, ascending
    and clipped to [0, 2], from numpy's dense ``eigvalsh``."""
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    lap = np.eye(a.shape[0]) - (a.toarray() * inv_sqrt[None, :]) * inv_sqrt[:, None]
    return np.clip(np.linalg.eigvalsh(lap)[:count], 0.0, 2.0)


def _normalized(a: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """M = D^-1/2 A D^-1/2 of a connected graph with adjacency ``a``, and the
    fixed ARPACK start vector, so repeated calls give the same bits."""
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    return (sp.diags(inv_sqrt) @ a @ sp.diags(inv_sqrt),
            np.random.default_rng(0).standard_normal(a.shape[0]))


def _fill_missed_copies(apply: Callable[[np.ndarray], np.ndarray], vals: np.ndarray,
                        vecs: np.ndarray, bound: Callable[[float], float],
                        v0: np.ndarray) -> np.ndarray:
    """The found eigenvalues ``vals`` (columns of ``vecs``) of the symmetric
    operator ``apply``, with any larger eigenvalue that the solve missed in
    place of the smallest found one.

    Lanczos can miss copies of a repeated eigenvalue. So the found pairs are
    moved to -3, below the spectrum of either operator (M's lies in [-1, 1],
    the inverse's is positive), and the largest remaining eigenvalue is
    checked; one above ``bound`` of the smallest found value takes its place
    until none is.

    The check runs loose first (``tol`` = ``_CHECK_TOL``) and returns a Ritz
    pair (theta, w) of the deflated operator R. A Ritz value is at most R's
    largest eigenvalue, and some eigenvalue of R lies within
    r = |Rw - theta w| / |w| of theta: the residual bound on which ARPACK
    accepts the full-precision pair too. So theta + r at most the bound means
    no copy was missed, and the check stops; only the matvec for r is added.
    Otherwise the check is redone at full precision, and its test and swap are
    the full-precision check's, so every swap and every returned bit is what
    that check alone gives.
    """
    s = vecs.shape[0]
    while True:
        shift = vals + 3.0
        rest = LinearOperator(
            (s, s), dtype=np.float64,
            matvec=lambda x: apply(x) - vecs @ (shift * (vecs.T @ x)))
        low = int(np.argmin(vals))
        limit = bound(vals[low])
        theta, w = eigsh(rest, k=1, which="LA", v0=v0, tol=_CHECK_TOL)
        r = np.linalg.norm(rest.matvec(w[:, 0]) - theta[0] * w[:, 0]) / np.linalg.norm(w)
        if theta[0] + r <= limit:
            return vals
        top, w = eigsh(rest, k=1, which="LA", v0=v0)
        if top[0] <= limit:
            return vals
        vals[low], vecs[:, low] = top[0], w[:, 0]


def _lanczos_spectrum(a: sp.csr_matrix, count: int) -> np.ndarray:
    """The ``count`` smallest eigenvalues of L = I - M, unordered, as 1 - mu
    for the largest eigenvalues mu of M, by ARPACK's Lanczos iteration on M.

    The main solve keeps ``min(s, max(3 * count, 20))`` Lanczos vectors, not
    ARPACK's default ``max(2 * count + 1, 20)``. The top eigenvalues of M in
    the tree-like components of sparse graphs crowd near 1, and implicitly
    restarted Lanczos separates such a cluster in far fewer restarts when its
    basis is a few times wider than the number of pairs wanted: at 10 pairs
    the main solve takes about half the time on the benchmark's components.
    Four times as wide was no faster than three, and five times was slower.
    """
    m, v0 = _normalized(a)
    s = a.shape[0]
    # a bare matvec: eigsh would wrap the CSR in several operator layers
    mu, vecs = eigsh(LinearOperator((s, s), dtype=np.float64, matvec=lambda x: m @ x),
                     k=count, which="LA", v0=v0, ncv=min(s, max(3 * count, 20)))
    mu = _fill_missed_copies(lambda x: m @ x, mu, vecs, lambda low: low + _CHECK_MARGIN, v0)
    return 1.0 - mu


def _factored_spectrum(a: sp.csr_matrix, count: int) -> np.ndarray:
    """The ``count`` smallest eigenvalues of L = I - M, unordered, by
    shift-invert (Ericsson & Ruhe 1980): one sparse LU of L + delta I, with
    delta = ``_SHIFT``, and ARPACK's Lanczos iteration on its inverse.

    The eigenvalues nu = 1 / (lambda + delta) of the inverse lie in
    [1 / (2 + delta), 1 / delta], and the smallest lambda become the largest
    nu, pulled apart where they crowd near 0. L + delta I is symmetric
    positive definite, so the LU keeps diagonal pivots (SuperLU's symmetric
    mode) after a minimum degree ordering of A + A^T.

    The check's margin carries over from lambda. A remaining lambda' more than
    ``_CHECK_MARGIN`` below the largest found lambda is exactly a remaining
    nu' > 1 / (1 / nu_low - _CHECK_MARGIN) = nu_low / (1 - _CHECK_MARGIN * nu_low)
    for the smallest found nu_low: a margin of about _CHECK_MARGIN * nu_low^2
    in nu, from 2.5e-11 at lambda = 2 to 1e-4 at lambda = 0. The denominator
    stays positive, as nu <= 1 / delta.
    """
    m, v0 = _normalized(a)
    s = a.shape[0]
    lu = splu((sp.identity(s) * (1.0 + _SHIFT) - m).tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    nu, vecs = eigsh(LinearOperator((s, s), dtype=np.float64, matvec=lu.solve),
                     k=count, which="LA", v0=v0)
    nu = _fill_missed_copies(lu.solve, nu, vecs,
                             lambda low: low / (1.0 - _CHECK_MARGIN * low), v0)
    return 1.0 / nu - _SHIFT


def _smallest_laplacian_eigenvalues(a: sp.csr_matrix, count: int) -> tuple[float, ...]:
    """The ``count`` smallest eigenvalues of L = I - D^-1/2 A D^-1/2,
    ascending, for a connected graph with at least two nodes.

    A component whose cycle rank c = m - s + 1 (m edges, s nodes) is at most
    ``_CYCLE_RANK_BUDGET`` takes ``_factored_spectrum``; any other takes
    ``_lanczos_spectrum``. The LU's fill follows c, not s: minimum degree
    elimination takes the nodes of degree 1 and 2 first, and each leaves at
    most one new entry in place of its own two. What remains is a kernel of
    at most 2(c - 1) nodes, so under the budget the factor holds at most
    (2c)^2 <= 2^24 floats, and on sparse components shift-invert is several
    times faster than Lanczos on M, whose top eigenvalues crowd near 1 in
    tree-like components. Well above the budget the factor costs more than
    Lanczos' restarts. Both paths start ARPACK from the same fixed vector, so
    repeated calls give the same bits, and both complete their pairs with
    ``_fill_missed_copies``. Graphs too small for ARPACK to return ``count``
    pairs use ``dense_laplacian_eigenvalues``. The tests hold both paths to
    1e-12 of a dense solve.
    """
    s = a.shape[0]
    if s <= count + 1:
        return tuple(dense_laplacian_eigenvalues(a, count).tolist())
    solve = _factored_spectrum if a.nnz // 2 - s + 1 <= _CYCLE_RANK_BUDGET else _lanczos_spectrum
    return tuple(np.clip(np.sort(solve(a, count)), 0.0, 2.0).tolist())


def property_tensor(g: TextAttributedGraph, eigen_count: int = 10) -> PropertyTensor:
    """Degree and label histograms, leading normalized-Laplacian spectrum of
    the largest component (``largest_component``), and the component
    profile (count/n, largest/n).
    """
    n = g.num_nodes
    hist, labels = histograms(g)
    spectral: tuple[float, ...] = ()
    profile = (0.0, 0.0)
    if n > 0:
        members, sizes = largest_component(g)
        if members.size == 1:
            spectral = (0.0,)
        else:
            spectral = _smallest_laplacian_eigenvalues(
                g.adjacency_csr()[members][:, members], eigen_count)
        profile = (sizes.size / n, members.size / n)
    return PropertyTensor(
        degree_histogram=hist,
        label_distribution=labels,
        top_spectral=spectral,
        component_profile=profile,
    )


def _utility(g: TextAttributedGraph, comm: np.ndarray, k: int,
             lambda_weights: Sequence[float]) -> np.ndarray:
    """Utility of selecting each node, at every node position.

    Blends normalized degree and the fraction of the node's neighbors
    outside its own community (zero for isolated nodes).
    """
    l_degree, l_bridge = lambda_weights
    a = g.adjacency_csr()
    p = indicator(comm, k)
    deg = g.degrees()
    max_deg = int(deg.max(initial=0))
    degree_term = deg / max_deg if max_deg > 0 else np.zeros(len(deg))
    outside = deg - np.asarray((a @ p).multiply(p).sum(axis=1)).ravel()
    bridge = np.divide(outside, deg, out=np.zeros(len(deg)), where=deg > 0)
    return l_degree * degree_term + l_bridge * bridge


def _largest_remainder(
    quotas: Sequence[tuple], total: int) -> dict:
    """Apportion ``total`` across items given (key, exact_quota, capacity).

    Base share is floor(quota); leftovers go to the largest fractional
    remainders, ties resolved by key order, skipping items at capacity.
    """
    base: dict = {}
    fracs: list[tuple[float, tuple, object]] = []
    for key, quota, capacity in quotas:
        b = min(int(math.floor(quota + 1e-12)), capacity)
        base[key] = b
        fracs.append((quota - b, key, capacity))
    leftover = total - sum(base.values())
    if leftover < 0:
        raise RuntimeError("largest-remainder apportionment overflow")
    fracs.sort(key=lambda item: (-item[0], item[1]))
    idx = 0
    while leftover > 0:
        if idx >= len(fracs):
            raise RuntimeError("largest-remainder apportionment ran out of capacity")
        _, key, capacity = fracs[idx]
        if base[key] < capacity:
            base[key] += 1
            leftover -= 1
        idx += 1
    return base


def _distortion(count, largest, n: int, ref: tuple[float, float]):
    """L1 distance of the profile (count / n, largest / n) to ``ref``, elementwise."""
    return abs(count / n - ref[0]) + abs(largest / n - ref[1])


def _first_per_cell(items: np.ndarray, cells: np.ndarray, cap: int,
                    *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first ``cap`` items of each cell by ``keys`` (most significant
    first, ties in the given order), sorted by (cell, keys), and the rank of
    each within its cell."""
    order = np.lexsort(keys[::-1] + (cells,))
    items, cells = items[order], cells[order]
    first = np.ones(cells.size, dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    rank = np.arange(cells.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
    keep = rank < cap
    return items[keep], rank[keep]


def _splice(table: np.ndarray, cells: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``table`` with the columns of ``cells`` replaced by ``new``. Both
    hold their columns in cell order, with the cell in the first row."""
    if not table.shape[1]:
        return new
    old_at = np.searchsorted(table[0], np.stack([cells, cells + 1]))
    new_at = np.searchsorted(new[0], np.stack([cells, cells + 1]))
    pieces, done = [], 0
    for start, end, new_start, new_end in zip(*old_at.tolist(), *new_at.tolist()):
        pieces += [table[:, done:start], new[:, new_start:new_end]]
        done = end
    pieces.append(table[:, done:])
    return np.concatenate(pieces, axis=1)


class _RepairState:
    """The sample and what a repair round reads from it, updated swap by swap.

    ``comp`` labels the component of each sampled node (-1 outside),
    ``sizes`` holds each label's size (0 for a free label), ``members`` each
    label's nodes and ``count`` the number of components. ``induced`` counts
    each node's sampled neighbours and ``comps_of`` each outside node's
    distinct neighbouring components.

    The columns of ``pairs`` are the candidate pairs of every cell, in (cell,
    pool, replaceable) order, with the rows cell, b, r, kept, lost and delta:
    what of a pair's score depends neither on component sizes nor on which
    component is the largest. The columns of ``touch`` are the (cell, pool
    node, sampled component it touches) triples, also in cell order.
    """

    def __init__(self, g: TextAttributedGraph, mask: np.ndarray, cell: np.ndarray,
                 key_rank: np.ndarray, id_rank: np.ndarray):
        n = mask.size
        a = g.adjacency_csr()
        self.indptr = a.indptr.astype(np.int64)
        self.nbrs = a.indices.astype(np.int64)
        self.cell, self.key_rank, self.id_rank = cell, key_rank, id_rank
        self.n_cells = int(cell.max()) + 1
        # the nodes of each cell in position order, as a CSR layout
        self.cell_nodes = np.argsort(cell, kind="stable")
        self.cell_ptr = np.append(0, np.cumsum(np.bincount(cell, minlength=self.n_cells)))
        self.bridge = np.zeros(n, dtype=bool)

        self.mask = mask
        self.induced = (a @ mask).astype(np.int64)
        self.comp, sizes = component_labels(g, mask)
        # a sample never has more components than nodes
        self.cap = max(int(mask.sum()), 2)
        self.sizes = np.zeros(self.cap, dtype=np.int64)
        self.sizes[:sizes.size] = sizes
        self.count = int(sizes.size)
        self.free = list(range(self.cap - 1, self.count - 1, -1))
        self.members: list[set[int]] = [set() for _ in range(self.cap)]
        for v, c in zip(np.flatnonzero(mask).tolist(), self.comp[mask].tolist()):
            self.members[c].add(v)
        self.comps_of = np.zeros(n, dtype=np.int64)
        self.refresh(np.flatnonzero(~mask))
        self.pairs = np.zeros((6, 0), dtype=np.int64)
        self.touch = np.zeros((3, 0), dtype=np.int64)
        self.rerank(np.arange(self.n_cells))

    def sampled_neighbors(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every sampled neighbour of ``nodes``, node by node, and the index
        into ``nodes`` it belongs to."""
        own, nb = _gather(self.indptr, self.nbrs, nodes)
        keep = self.mask[nb]
        return own[keep], nb[keep]

    def refresh(self, outside: np.ndarray) -> None:
        """Recount ``comps_of`` for the given outside nodes."""
        own, nb = self.sampled_neighbors(outside)
        distinct = _sorted_unique(own * self.cap + self.comp[nb]) // self.cap
        self.comps_of[outside] = np.bincount(distinct, minlength=outside.size)

    def rerank(self, cells: np.ndarray) -> None:
        """Rebuild the replaceable lists, pools, pairs and touches of ``cells``."""
        cell, mask, induced, comps_of, bridge = (
            self.cell, self.mask, self.induced, self.comps_of, self.bridge)
        nodes = _gather(self.cell_ptr, self.cell_nodes, cells)[1]
        repl = nodes[mask[nodes] & (induced[nodes] <= 1)]
        repl, _ = _first_per_cell(repl, cell[repl], _REPLACE_CAP,
                                  induced[repl], self.id_rank[repl])
        repl_count = np.bincount(cell[repl], minlength=self.n_cells)
        outs = nodes[~mask[nodes]]
        outs = outs[repl_count[cell[outs]] > 0]
        bridges, b_rank = _first_per_cell(
            outs, cell[outs], _BRIDGE_CAP, -comps_of[outs], self.key_rank[outs])
        isolates, i_rank = _first_per_cell(
            outs, cell[outs], _ISOLATE_CAP, comps_of[outs], self.key_rank[outs])
        # np.isin costs more than the rest of a small re-rank together
        bridge[bridges] = True
        fresh = ~bridge[isolates]
        bridge[bridges] = False
        pool = np.concatenate([bridges, isolates[fresh]])
        pool = pool[np.lexsort((np.concatenate([b_rank, _BRIDGE_CAP + i_rank[fresh]]),
                                cell[pool]))]

        # every (pool node, replaceable node) pair of a cell, in (cell, pool,
        # replaceable) order
        per = repl_count[cell[pool]]
        b = np.repeat(pool, per)
        repl_start = np.cumsum(repl_count) - repl_count
        r = repl[np.repeat(repl_start[cell[pool]] - (np.cumsum(per) - per), per)
                 + np.arange(b.size)]

        # each pair against every sampled neighbour of its b: whether r is
        # one of them, and whether b touches r's component through another
        own, nb = self.sampled_neighbors(pool)
        lab = self.comp[nb]
        pair, entry = _gather(np.append(0, np.cumsum(np.bincount(own, minlength=pool.size))),
                              np.arange(nb.size), np.repeat(np.arange(pool.size), per))
        is_r = nb[entry] == r[pair]
        adj = np.zeros(b.size, dtype=bool)
        adj[pair[is_r]] = True
        kept = np.zeros(b.size, dtype=bool)
        kept[pair[(lab[entry] == self.comp[r][pair]) & ~is_r]] = True
        # removing r (induced degree 0 or 1) deletes its component or shrinks
        # it by one; adding b merges the components of b's sampled
        # neighbours, less r's if r was b's only link into it
        lost = adj & ~kept
        delta = 1 - (induced[r] == 0) - (comps_of[b] - lost)
        self.pairs = _splice(self.pairs, cells, np.stack([cell[b], b, r, kept, lost, delta]))
        touch = _sorted_unique(own * self.cap + lab)
        owner = pool[touch // self.cap]
        self.touch = _splice(self.touch, cells, np.stack([cell[owner], owner, touch % self.cap]))

    def swap(self, r: int, b: int) -> None:
        """Take ``r`` out of the sample and ``b`` in, and update the state.

        ``r`` has at most one sampled neighbour, so its component loses one
        node and stays connected, or disappears. The components ``b``
        touches are relabelled into the largest of them. Only the cells of
        r, b, their neighbours, the relabelled nodes and the outside nodes
        next to those are re-ranked.
        """
        mask, comp, sizes, members = self.mask, self.comp, self.sizes, self.members
        near_r = self.nbrs[self.indptr[r]:self.indptr[r + 1]]
        near_b = self.nbrs[self.indptr[b]:self.indptr[b + 1]]

        mask[r] = False
        self.induced[near_r] -= 1
        c = comp[r]
        comp[r] = -1
        sizes[c] -= 1
        members[c].discard(r)
        if sizes[c] == 0:
            self.free.append(c)
            self.count -= 1

        mask[b] = True
        self.induced[near_b] += 1
        joined = _sorted_unique(comp[near_b[mask[near_b]]])
        if joined.size == 0:
            top = self.free.pop()
            self.count += 1
            moved = np.zeros(0, dtype=np.int64)
        else:
            top = int(joined[np.argmax(sizes[joined])])
            rest = [c for c in joined.tolist() if c != top]
            moved = np.fromiter((v for c in rest for v in members[c]), dtype=np.int64)
            comp[moved] = top
            sizes[top] += sizes[rest].sum()
            sizes[rest] = 0
            for c in rest:
                members[top] |= members[c]
                members[c] = set()
            self.free.extend(rest)
            self.count -= len(rest)
        comp[b] = top
        sizes[top] += 1
        members[top].add(b)

        # comps_of changes only next to r, b and the relabelled nodes
        near_moved = _gather(self.indptr, self.nbrs, moved)[1]
        near = _sorted_unique(np.concatenate([near_r, near_b, near_moved, [r]]))
        self.refresh(near[~mask[near]])
        self.rerank(_sorted_unique(self.cell[np.concatenate([[b], near, moved])]))


def connectivity_repair(
    g: TextAttributedGraph,
    selected: Sequence[int] | np.ndarray,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> tuple[TextAttributedGraph, RepairReport]:
    """Swap sampled nodes for outside nodes of the same (label, community)
    cell while the swap strictly reduces the component-profile distortion.
    The sample is given by the node positions ``selected`` (repeats count
    once), and the repaired sample comes back as a subgraph of ``g``.

    Stops once distortion falls within ``repair_epsilon``, no improving
    same-cell swap remains, or the swap budget (default twice the sample
    size) is exhausted. Cell counts are invariant by construction. Equal
    gains go to the smallest (``key_rank`` of b, ``key_rank`` of r).

    Only a sampled node with at most one sampled neighbour is replaceable,
    so a swap's removal shrinks a component by one node or deletes an
    isolated one, and never splits a component. The round state
    (``_RepairState``) is therefore carried across swaps, not rebuilt:
    component labels and sizes (the components the added node joins are
    relabelled into the largest of them, smaller into larger), induced
    degrees, each outside node's count of distinct neighbouring components
    (recounted next to the two swapped and the relabelled nodes), and each
    cell's replaceable list, bridge and isolate pool and candidate pairs
    with their size-free terms (re-ranked only in cells holding one of
    those nodes). A round scores the cached pairs with the component sizes
    of the moment: its cost follows the number of pairs and what the swap
    touched, plus one pass over a node-length buffer, not the edge count.
    """
    n_g = g.num_nodes
    picked = g.distinct_positions(selected, "sample")
    if not picked.size:
        raise ValueError("sample must be nonempty")
    partition.check(g)
    ref_sizes = component_labels(g)[1].tolist()
    kappa_ref = (len(ref_sizes) / n_g, max(ref_sizes) / n_g)

    ids = g.ids()
    key_rank = g.key_rank()
    id_rank = np.empty(n_g, dtype=np.int64)
    id_rank[sorted(range(n_g), key=ids.__getitem__)] = np.arange(n_g)
    cell = _cells(g, partition.comm, partition.community_count)[0]

    mask = np.zeros(n_g, dtype=bool)
    mask[picked] = True
    n_s = int(mask.sum())
    max_swaps = params.max_repair_swaps if params.max_repair_swaps is not None else 2 * n_s

    st = _RepairState(g, mask, cell, key_rank, id_rank)
    comp, sizes = st.comp, st.sizes
    cur = _distortion(st.count, int(sizes.max()), n_s, kappa_ref)
    trace = [cur]
    swaps = 0
    warning: str | None = None

    while swaps < max_swaps and cur > params.repair_epsilon:
        _, b, r, kept, lost, delta = st.pairs
        _, owner, label = st.touch
        top, top_size = int(np.argmax(sizes)), int(sizes.max())
        # per pool node, the summed size of the components it touches and
        # whether the top one is among them
        mass_of = np.bincount(owner, weights=sizes[label], minlength=n_g).astype(np.int64)
        on_top = np.zeros(n_g, dtype=bool)
        on_top[owner[label == top]] = True
        # b's new component: b and every component it touches, less r's
        # component if r was b's only link into it (lost), or less r alone
        # if b reaches r's component through another node (kept)
        c_r = comp[r]
        merged_size = 1 + mass_of[b] - sizes[c_r] * lost - kept
        new_count = st.count + delta
        # The new largest component: a merge that takes in the top component
        # is at least as large as any other. Otherwise the merge competes
        # with the top component or, when r leaves the top, with the shrunk
        # top and the second (a merge that holds the second outgrows it).
        # Free labels have size 0, and among equal tops any one gives the
        # same largest size.
        second = int(np.partition(sizes, -2)[-2])
        top_merged = np.where(c_r == top, kept, on_top[b])
        beside = np.where(c_r == top, max(second, top_size - 1), top_size)
        largest = np.maximum(merged_size, np.where(top_merged, 0, beside))
        gain = cur - _distortion(new_count, largest, n_s, kappa_ref)

        # Every distortion is an integer multiple of 1 / (n_s * n_g) up to a
        # few ulps, so two different gains differ by at least that much (2e-7
        # at 4k nodes), and while n_s * n_g stays below about 1e11, gains
        # within _GAIN_EPS of each other are exactly equal. The best gain,
        # then the smallest key pair, then the first pair in (cell, pool,
        # replaceable) order is thus exact and independent of scan order.
        better = gain > _GAIN_EPS
        if not better.any():
            warning = ("no same-cell swap could reduce component distortion; "
                       f"stopping at {cur:.4f}" if b.size else
                       "no same-cell swap candidates exist; "
                       f"distortion stays at {cur:.4f}")
            log.warning(warning)
            break
        tied = np.flatnonzero(better & (gain >= gain[better].max() - _GAIN_EPS))
        pick = tied[np.lexsort((key_rank[r[tied]], key_rank[b[tied]]))[0]]
        st.swap(int(r[pick]), int(b[pick]))
        swaps += 1
        new_cur = _distortion(st.count, int(sizes.max()), n_s, kappa_ref)
        if new_cur >= cur - _GAIN_EPS:
            raise RuntimeError("repair swap failed to decrease distortion")
        cur = new_cur
        trace.append(cur)

    report = RepairReport(
        swaps=swaps,
        initial_distortion=trace[0],
        final_distortion=cur,
        distortion_trace=tuple(trace),
        warning=warning,
    )
    return g.subgraph(np.flatnonzero(mask)), report


def _cells(g: TextAttributedGraph, comm: np.ndarray,
           k: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Each node's cell, numbered in (label, community) order, and the
    (label, community) key of each cell, for ``k`` communities."""
    codes, cell = np.unique(g.labels() * k + comm, return_inverse=True)
    return cell.ravel(), [divmod(c, k) for c in codes.tolist()]


def _select(g: TextAttributedGraph, partition: Partition, params: LimiterParams,
            total: int) -> tuple[np.ndarray, dict]:
    """The positions selected before repair, and each cell's target count.

    ``total`` nodes are apportioned by largest remainder across classes, then
    across each class's cells. Within a cell the highest utilities win. Two
    utilities differ by l1 (d_i - d_j) / D + l2 (o_i / d_i - o_j / d_j), D
    the largest degree and o the neighbours outside the community: at l1 =
    l2 = 1/3 by 0 or by at least 1 / (3 D^3), above _GAIN_EPS while D <
    6,900, and float sums of terms in [0, 1] err by ulps. So utilities within
    _GAIN_EPS are equal: a tier ends where a cell's utility, in descending
    order, drops by more, and a tier ranks by key_rank, then position.
    """
    comm, k = partition.comm, partition.community_count
    cell, keys = _cells(g, comm, k)
    sizes = np.bincount(cell, minlength=len(keys)).tolist()
    class_counts = np.bincount(g.labels()).tolist()
    class_targets = _largest_remainder(
        [(lbl, params.alpha * count, count) for lbl, count in enumerate(class_counts) if count],
        total)
    cell_targets: dict[tuple, int] = {}
    for lbl, members in groupby(zip(keys, sizes), key=lambda item: item[0][0]):
        cell_targets.update(_largest_remainder(
            [(key, params.alpha * size, size) for key, size in members], class_targets[lbl]))

    utility = _utility(g, comm, k, params.lambda_weights)
    # tiers count up along each cell's utilities in descending order; only
    # their order within a cell matters
    by_utility = np.lexsort((-utility, cell))
    u = utility[by_utility]
    tier = np.empty(cell.size, dtype=np.int64)
    tier[by_utility] = np.cumsum(np.append(0, u[:-1] - u[1:] > _GAIN_EPS))
    nodes, rank = _first_per_cell(np.arange(cell.size), cell, cell.size, tier, g.key_rank())
    target = np.array([cell_targets[key] for key in keys], dtype=np.int64)
    return nodes[rank < target[cell[nodes]]], cell_targets


def sample_limited_detailed(
    g: TextAttributedGraph,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> LimitResult:
    """Produce the alpha-fraction sample with repair, plus bookkeeping.

    Selection is deterministic: within a cell, utilities within ``_GAIN_EPS``
    of each other are equal, and ties go to the smaller ``key_rank``, then
    to the earlier position.
    """
    n = g.num_nodes
    partition.check(g)
    total = int(math.floor(params.alpha * n))
    if total < 1:
        raise ValueError(
            f"alpha * n = {params.alpha * n:.3f} selects no nodes; raise alpha")
    selected, cell_targets = _select(g, partition, params, total)
    repaired, report = connectivity_repair(g, selected, partition, params)
    return LimitResult(graph=repaired, cell_targets=cell_targets, repair=report)


def sample_limited(
    g: TextAttributedGraph,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> TextAttributedGraph:
    return sample_limited_detailed(g, partition, params).graph
