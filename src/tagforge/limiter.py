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


def _distortion(count: int, largest: int, n: int, ref: tuple[float, float]) -> float:
    """L1 distance of the component profile (count / n, largest / n) to ``ref``."""
    return abs(count / n - ref[0]) + abs(largest / n - ref[1])


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
    size) is exhausted. Cell counts are invariant by construction.
    """
    n_g = g.num_nodes
    ref_sizes = component_labels(g)[1].tolist()
    kappa_ref = (len(ref_sizes) / n_g, max(ref_sizes) / n_g)

    ids = g.ids()
    keys = [node_sort_key(v) for v in ids]
    a = g.adjacency_csr()
    indptr, indices = a.indptr.tolist(), a.indices.tolist()
    nbrs = [indices[indptr[i]:indptr[i + 1]] for i in range(n_g)]
    cell_of = list(zip((rec.label for rec in g.nodes),
                       partition.community_array(g).tolist()))

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
        comp, size_arr = comp.tolist(), sizes.tolist()
        by_cell_out: dict[tuple, list[int]] = {}
        for v in np.flatnonzero(~mask).tolist():
            by_cell_out.setdefault(cell_of[v], []).append(v)
        # replaceable nodes: induced degree at most 1, grouped by cell and
        # ordered by (induced degree, node id as a string)
        induced = (a @ mask).astype(np.int64)
        by_cell_repl: dict[tuple, list[tuple[int, str, int]]] = {}
        for r in np.flatnonzero(mask & (induced <= 1)).tolist():
            by_cell_repl.setdefault(cell_of[r], []).append((int(induced[r]), ids[r], r))
        # component sizes sorted descending for fast "largest untouched" scans
        size_order = sorted(range(len(size_arr)), key=lambda c: -size_arr[c])

        best = None  # (gain, (b_key, r_key), b, r)
        any_pair = False
        for cell, outs in sorted(by_cell_out.items()):
            repls = sorted(by_cell_repl.get(cell, ()))[:_REPLACE_CAP]
            if not repls:
                continue
            any_pair = True
            scored_out = []
            for b in outs:
                # selected neighbors of b per component
                comps_b = {}
                for w in nbrs[b]:
                    if comp[w] >= 0:
                        comps_b[comp[w]] = comps_b.get(comp[w], 0) + 1
                scored_out.append((len(comps_b), b, comps_b))
            scored_out.sort(key=lambda item: (-item[0], keys[item[1]]))
            pool = scored_out[:_BRIDGE_CAP] + sorted(
                scored_out, key=lambda item: (item[0], keys[item[1]]))[:_ISOLATE_CAP]
            seen_b = set()
            for _, b, comps_b in pool:
                if b in seen_b:
                    continue
                seen_b.add(b)
                for d_r, _, r in repls:
                    # removing r (induced degree 0 or 1) deletes its component
                    # or shrinks it by one; adding b merges the components of
                    # b's selected neighbors, less c_r if r was b's only link
                    c_r = comp[r]
                    merged = set(comps_b)
                    if d_r == 0 or (r in nbrs[b] and comps_b[c_r] == 1):
                        merged.discard(c_r)
                    merged_size = 1 + sum(size_arr[c] for c in merged) - (c_r in merged)
                    new_count = len(size_arr) - (d_r == 0) - len(merged) + 1
                    # the largest component: the merge result, the shrunk c_r,
                    # or the biggest untouched component
                    rest = next((size_arr[c] for c in size_order
                                 if c not in merged and c != c_r), 0)
                    if d_r == 1 and c_r not in merged:
                        rest = max(rest, size_arr[c_r] - 1)
                    gain = cur - _distortion(new_count, max(merged_size, rest), n_s, kappa_ref)
                    if gain > _GAIN_EPS and (best is None or gain > best[0] + _GAIN_EPS or (
                            abs(gain - best[0]) <= _GAIN_EPS and (keys[b], keys[r]) < best[1])):
                        best = (gain, (keys[b], keys[r]), b, r)
        if best is None:
            if cur > params.repair_epsilon:
                warning = ("no same-cell swap could reduce component distortion; "
                           f"stopping at {cur:.4f}" if any_pair else
                           "no same-cell swap candidates exist; "
                           f"distortion stays at {cur:.4f}")
                log.warning(warning)
            break
        _, _, b, r = best
        mask[r] = False
        mask[b] = True
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
