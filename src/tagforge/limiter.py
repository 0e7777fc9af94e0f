"""Distribution-preserving graph downsampling.

Given a target fraction alpha, nodes are apportioned across (label,
community) cells by largest-remainder rounding, applied first across classes
and then across each class's cells so per-class totals never drift more than
one node from their rounding targets. Within a cell the highest-utility nodes
win, where utility blends degree, coverage of not-yet-selected community
mass, and bridge potential. A greedy swap repair then nudges the sample's
component profile toward the source graph without ever touching cell counts.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

from .community import Partition, indicator
from .graph import TextAttributedGraph, component_labels, histograms, node_sort_key

log = logging.getLogger("tagforge.limiter")

# candidate caps per repair round
_BRIDGE_CAP = 12
_ISOLATE_CAP = 4
_REPLACE_CAP = 8
_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class LimiterParams:
    alpha: float = 0.5
    lambda_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    repair_epsilon: float = 0.05
    max_repair_swaps: int | None = None
    eigen_count: int = 10

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if len(self.lambda_weights) != 3 or any(w < 0 for w in self.lambda_weights):
            raise ValueError("lambda_weights must be three nonnegative values")
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
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "label_distribution": {str(k): v for k, v in sorted(self.label_distribution.items())},
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


def _smallest_laplacian_eigenvalues(a: sp.csr_matrix, count: int) -> tuple[float, ...]:
    """The ``count`` smallest eigenvalues of I - D^-1/2 A D^-1/2, ascending,
    for a connected graph with at least two nodes.

    They are 1 - mu for the largest eigenvalues mu of M = D^-1/2 A D^-1/2,
    found by ARPACK's Lanczos iteration from a fixed start vector, so repeated
    calls give the same bits. Lanczos can miss copies of a repeated
    eigenvalue, so the found pairs are shifted below the spectrum and the
    largest remaining eigenvalue is checked; one above the smallest found
    takes its place until none is. Graphs too small for ARPACK to return
    ``count`` pairs use the dense solver.
    """
    s = a.shape[0]
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    if s <= count + 1:
        lap = np.eye(s) - (a.toarray() * inv_sqrt[None, :]) * inv_sqrt[:, None]
        vals = np.linalg.eigvalsh(lap)[:count]
    else:
        m = sp.diags(inv_sqrt) @ a @ sp.diags(inv_sqrt)
        v0 = np.random.default_rng(0).standard_normal(s)
        mu, vecs = eigsh(m, k=count, which="LA", v0=v0)
        while True:
            # found pairs move to -3, below the spectrum of M in [-1, 1]
            shift = mu + 3.0
            rest = LinearOperator(
                (s, s), dtype=np.float64,
                matvec=lambda x: m @ x - vecs @ (shift * (vecs.T @ x)))
            top, w = eigsh(rest, k=1, which="LA", v0=v0)
            low = int(np.argmin(mu))
            if top[0] <= mu[low] + 1e-10:
                break
            mu[low], vecs[:, low] = top[0], w[:, 0]
        vals = np.sort(1.0 - mu)
    return tuple(float(x) for x in np.clip(vals, 0.0, 2.0))


def property_tensor(g: TextAttributedGraph, eigen_count: int = 10) -> PropertyTensor:
    """Degree and label histograms, leading normalized-Laplacian spectrum of
    the largest component, and the component profile (count/n, largest/n).

    Among equally large largest components, the one holding the smallest
    node id (by ``node_sort_key``) is the one whose spectrum is taken.
    """
    n = g.num_nodes
    hist, labels = histograms(g)
    spectral: tuple[float, ...] = ()
    profile = (0.0, 0.0)
    if n > 0:
        comp_arr, size_arr = component_labels(g)
        comp, sizes = comp_arr.tolist(), size_arr.tolist()
        largest = max(sizes)
        ids = g.ids()
        order = sorted(range(n), key=lambda i: node_sort_key(ids[i]))
        big = next(comp[i] for i in order if sizes[comp[i]] == largest)
        members = [i for i in order if comp[i] == big]
        if largest == 1:
            spectral = (0.0,)
        else:
            spectral = _smallest_laplacian_eigenvalues(
                g.adjacency_csr()[members][:, members], eigen_count)
        profile = (len(sizes) / n, largest / n)
    return PropertyTensor(
        degree_histogram=hist,
        label_distribution=labels,
        top_spectral=spectral,
        component_profile=profile,
    )


def _utility(g: TextAttributedGraph, comm: np.ndarray, k: int,
             lambda_weights: Sequence[float]):
    """The formula of ``node_weights`` over node positions, as
    ``score(rows, covered)`` with ``covered`` the selected node count per
    community. Everything but coverage is computed here, once per sample.
    """
    l1, l2, l3 = lambda_weights
    a = g.adjacency_csr()
    p = indicator(comm, k)
    sizes = np.bincount(comm, minlength=k)
    deg = a.getnnz(axis=1)
    max_deg = int(deg.max(initial=0))
    degree_term = deg / max_deg if max_deg > 0 else np.zeros(len(deg))
    outside = deg - np.asarray((a @ p).multiply(p).sum(axis=1)).ravel()
    bridge = np.divide(outside, deg, out=np.zeros(len(deg)), where=deg > 0)

    def score(rows: np.ndarray, covered: np.ndarray) -> np.ndarray:
        c = comm[rows]
        return (l1 * degree_term[rows] + l2 * (1.0 - covered[c] / sizes[c])
                + l3 * bridge[rows])
    return score


def node_weights(
    g: TextAttributedGraph,
    candidates: Iterable[str],
    selected: Iterable[str],
    partition: Partition,
    lambda_weights: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
) -> dict[str, float]:
    """Utility of adding each candidate given what is already selected.

    Blends normalized degree, the unselected fraction of the candidate's
    community, and the fraction of its neighbors outside its own community
    (zero for isolated nodes).
    """
    k = partition.community_count
    comm = partition.community_array(g)
    covered = np.bincount(comm[[g.index_of(u) for u in set(selected)]], minlength=k)
    candidates = list(candidates)
    rows = np.array([g.index_of(v) for v in candidates], dtype=np.intp)
    weights = _utility(g, comm, k, lambda_weights)(rows, covered)
    return dict(zip(candidates, weights.tolist()))


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
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    rank = np.arange(cells.size) - np.repeat(starts, np.diff(starts, append=cells.size))
    keep = rank < cap
    return items[keep], rank[keep]


def connectivity_repair(
    g: TextAttributedGraph,
    sub: TextAttributedGraph,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> tuple[TextAttributedGraph, RepairReport]:
    """Swap sampled nodes for outside nodes of the same (label, community)
    cell while the swap strictly reduces the component-profile distortion.

    Stops once distortion falls within ``repair_epsilon``, no improving
    same-cell swap remains, or the swap budget (default twice the sample
    size) is exhausted. Cell counts are invariant by construction. Equal
    gains go to the smallest (``node_sort_key(b)``, ``node_sort_key(r)``).
    """
    foreign = [v for v in sub.ids() if not g.has_node(v)]
    if foreign:
        raise ValueError(f"sample holds ids not in the graph: {foreign[:10]}")
    n_g = g.num_nodes
    ref_sizes = component_labels(g)[1].tolist()
    kappa_ref = (len(ref_sizes) / n_g, max(ref_sizes) / n_g)

    ids = g.ids()
    keys = [node_sort_key(v) for v in ids]
    key_index = {k: i for i, k in enumerate(sorted(set(keys)))}
    key_rank = np.array([key_index[k] for k in keys], dtype=np.int64)
    id_rank = np.empty(n_g, dtype=np.int64)
    id_rank[sorted(range(n_g), key=ids.__getitem__)] = np.arange(n_g)
    labels = np.array([rec.label for rec in g.nodes], dtype=np.int64)
    # cells numbered in (label, community) order
    cell = np.unique(labels * partition.community_count + partition.community_array(g),
                     return_inverse=True)[1].ravel()
    n_cells = int(cell.max()) + 1
    a = g.adjacency_csr()
    rows, cols = a.nonzero()

    mask = np.zeros(n_g, dtype=bool)
    mask[[g.index_of(v) for v in sub.ids()]] = True
    n_s = int(mask.sum())
    if n_s == 0:
        raise ValueError("sample must be nonempty")
    max_swaps = params.max_repair_swaps if params.max_repair_swaps is not None else 2 * n_s

    comp, sizes = component_labels(g, mask)
    cur = _distortion(len(sizes), int(sizes.max()), n_s, kappa_ref)
    trace = [cur]
    swaps = 0
    warning: str | None = None

    while swaps < max_swaps and cur > params.repair_epsilon:
        induced = (a @ mask).astype(np.int64)
        repl = np.flatnonzero(mask & (induced <= 1))
        repl, _ = _first_per_cell(repl, cell[repl], _REPLACE_CAP, induced[repl], id_rank[repl])
        repl_count = np.bincount(cell[repl], minlength=n_cells)
        outs = np.flatnonzero(~mask)
        outs = outs[repl_count[cell[outs]] > 0]

        # one row per (outside node, sampled component it touches): the
        # number of edges into it and one sampled neighbor there, plus a
        # sentinel row that keeps lookups past the last key in bounds
        n_c = sizes.size
        touch = ~mask[rows] & mask[cols]
        bc, first, bc_edges = np.unique(rows[touch] * n_c + comp[cols[touch]],
                                        return_index=True, return_counts=True)
        comps_of = np.bincount(bc // n_c, minlength=n_g)
        mass_of = np.bincount(bc // n_c, weights=sizes[bc % n_c], minlength=n_g).astype(np.int64)
        bc, bc_edges = np.append(bc, np.iinfo(np.int64).max), np.append(bc_edges, 0)
        bc_nbr = np.append(cols[touch][first], -1)

        def edges_into(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Edges from each b into c, and a sampled neighbor there or -1."""
            i = np.searchsorted(bc, b * n_c + c)
            hit = bc[i] == b * n_c + c
            return np.where(hit, bc_edges[i], 0), np.where(hit, bc_nbr[i], -1)

        bridges, b_rank = _first_per_cell(
            outs, cell[outs], _BRIDGE_CAP, -comps_of[outs], key_rank[outs])
        isolates, i_rank = _first_per_cell(
            outs, cell[outs], _ISOLATE_CAP, comps_of[outs], key_rank[outs])
        fresh = ~np.isin(isolates, bridges)
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

        # removing r (induced degree 0 or 1) deletes its component or shrinks
        # it by one; adding b merges the components of b's sampled neighbors,
        # less c_r if r was b's only link into it
        c_r, d_r = comp[r], induced[r]
        into_cr, nbr_cr = edges_into(b, c_r)
        leaves = (d_r == 0) | ((into_cr == 1) & (nbr_cr == r))
        lost = (into_cr > 0) & leaves
        kept = (into_cr > 0) & ~leaves
        merged_size = 1 + mass_of[b] - sizes[c_r] * lost - kept
        new_count = n_c - (d_r == 0) - (comps_of[b] - lost) + 1
        # The new largest component: a merge that takes in the top component
        # is at least as large as any other. Otherwise the merge competes
        # with the top component or, when r leaves the top, with the shrunk
        # top and the second (a merge that holds the second outgrows it).
        top, top_size = int(np.argmax(sizes)), int(sizes.max())
        second = int(np.partition(sizes, -2)[-2]) if n_c > 1 else 0
        top_merged = np.where(c_r == top, kept, edges_into(b, np.full_like(b, top))[0] > 0)
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
                       f"stopping at {cur:.4f}" if outs.size else
                       "no same-cell swap candidates exist; "
                       f"distortion stays at {cur:.4f}")
            log.warning(warning)
            break
        tied = np.flatnonzero(better & (gain >= gain[better].max() - _GAIN_EPS))
        pick = tied[np.lexsort((key_rank[r[tied]], key_rank[b[tied]]))[0]]
        mask[r[pick]] = False
        mask[b[pick]] = True
        swaps += 1
        comp, sizes = component_labels(g, mask)
        new_cur = _distortion(len(sizes), int(sizes.max()), n_s, kappa_ref)
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
    return g.subgraph(ids[i] for i in np.flatnonzero(mask)), report


def sample_limited_detailed(
    g: TextAttributedGraph,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> LimitResult:
    """Produce the alpha-fraction sample with repair, plus bookkeeping.

    Selection is deterministic: ranking ties break on node id.
    """
    n = g.num_nodes
    partition.validate(g)
    total = int(math.floor(params.alpha * n))
    if total < 1:
        raise ValueError(
            f"alpha * n = {params.alpha * n:.3f} selects no nodes; raise alpha")

    ids = g.ids()
    keys = [node_sort_key(v) for v in ids]
    k = partition.community_count
    comm = partition.community_array(g)
    cells: dict[tuple, list[int]] = {}
    for i, (rec, c) in enumerate(zip(g.nodes, comm.tolist())):
        cells.setdefault((rec.label, c), []).append(i)
    _, class_counts = histograms(g)

    class_targets = _largest_remainder(
        [(lbl, params.alpha * count, count) for lbl, count in sorted(class_counts.items())],
        total,
    )
    cell_targets: dict[tuple, int] = {}
    for lbl in sorted(class_counts):
        lbl_cells = sorted(key for key in cells if key[0] == lbl)
        shares = _largest_remainder(
            [(key, params.alpha * len(cells[key]), len(cells[key])) for key in lbl_cells],
            class_targets[lbl],
        )
        cell_targets.update(shares)

    score = _utility(g, comm, k, params.lambda_weights)
    covered = np.zeros(k, dtype=np.int64)
    selected: list[int] = []
    for key in sorted(cell_targets):
        members = cells[key]
        want = cell_targets[key]
        if want >= len(members):
            chosen = sorted(members, key=keys.__getitem__)
        else:
            weights = dict(zip(members, score(np.array(members), covered).tolist()))
            chosen = sorted(members, key=lambda i: (-weights[i], keys[i]))[:want]
        covered[key[1]] += len(chosen)
        selected.extend(chosen)

    sub = g.subgraph(ids[i] for i in selected)
    repaired, report = connectivity_repair(g, sub, partition, params)
    return LimitResult(graph=repaired, cell_targets=dict(cell_targets), repair=report)


def sample_limited(
    g: TextAttributedGraph,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> TextAttributedGraph:
    return sample_limited_detailed(g, partition, params).graph
