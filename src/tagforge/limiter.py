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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .community import Partition
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
            a = g.adjacency_csr()[members][:, members].toarray()
            deg = a.sum(axis=1)
            inv_sqrt = 1.0 / np.sqrt(deg)
            lap = np.eye(largest) - (a * inv_sqrt[None, :]) * inv_sqrt[:, None]
            vals = np.clip(np.linalg.eigvalsh(lap), 0.0, 2.0)
            spectral = tuple(float(x) for x in vals[:eigen_count])
        profile = (len(sizes) / n, largest / n)
    return PropertyTensor(
        degree_histogram=hist,
        label_distribution=labels,
        top_spectral=spectral,
        component_profile=profile,
    )


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
    l1, l2, l3 = lambda_weights
    assign = partition.assignment
    sizes = partition.community_sizes()
    covered = Counter(assign[u] for u in set(selected))
    # row lengths of the graph's cached adjacency: no pass over the records
    max_deg = int(g.adjacency_csr().getnnz(axis=1).max(initial=0))
    out: dict[str, float] = {}
    for v in candidates:
        deg = g.degree(v)
        c = assign[v]
        coverage_gap = 1.0 - covered[c] / sizes[c]
        if deg > 0:
            outside = sum(1 for u in g.neighbors(v) if assign[u] != c)
            bridge = outside / deg
        else:
            bridge = 0.0
        degree_term = deg / max_deg if max_deg > 0 else 0.0
        out[v] = l1 * degree_term + l2 * coverage_gap + l3 * bridge
    return out


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


def _components(g: TextAttributedGraph, selected: set) -> tuple[dict[str, int], list[int]]:
    """Component id per node of the subgraph induced by ``selected`` (-1 for
    every other node) and the component sizes, as plain Python containers
    so the repair loop's many single lookups stay cheap."""
    ids = g.ids()
    keep = np.fromiter((v in selected for v in ids), dtype=bool, count=len(ids))
    labels, sizes = component_labels(g, keep)
    return dict(zip(ids, labels.tolist())), sizes.tolist()


def _distortion(profile: tuple[float, float], ref: tuple[float, float]) -> float:
    return abs(profile[0] - ref[0]) + abs(profile[1] - ref[1])


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

    selected = set(sub.ids())
    n_s = len(selected)
    if n_s == 0:
        raise ValueError("sample must be nonempty")
    max_swaps = params.max_repair_swaps if params.max_repair_swaps is not None else 2 * n_s

    cell_of = {
        rec.node_id: (rec.label, partition.assignment[rec.node_id]) for rec in g.nodes}

    comp, sizes = _components(g, selected)
    cur = _distortion((len(sizes) / n_s, max(sizes) / n_s), kappa_ref)
    trace = [cur]
    swaps = 0
    warning: str | None = None

    while swaps < max_swaps and cur > params.repair_epsilon:
        by_cell_out: dict[tuple, list[str]] = {}
        for v in g.ids():
            if v not in selected:
                by_cell_out.setdefault(cell_of[v], []).append(v)
        # replaceable nodes: induced degree at most 1, grouped by cell
        by_cell_repl: dict[tuple, list[tuple[int, str]]] = {}
        induced_deg: dict[str, int] = {}
        for v in selected:
            d = sum(1 for w in g.neighbors(v) if w in selected)
            induced_deg[v] = d
            if d <= 1:
                by_cell_repl.setdefault(cell_of[v], []).append((d, v))

        size_arr = list(sizes)
        # component sizes sorted descending for fast "largest untouched" scans
        size_order = sorted(range(len(size_arr)), key=lambda c: -size_arr[c])

        best = None  # (gain, b_key, r_key, b, r)
        any_pair = False
        for cell, outs in sorted(by_cell_out.items()):
            repls = sorted(by_cell_repl.get(cell, ()))[:_REPLACE_CAP]
            if not repls:
                continue
            scored_out = []
            for b in outs:
                comps_b: dict[int, int] = {}
                for w in g.neighbors(b):
                    if w in selected:
                        comps_b[comp[w]] = comps_b.get(comp[w], 0) + 1
                scored_out.append((len(comps_b), b, comps_b))
            scored_out.sort(key=lambda item: (-item[0], node_sort_key(item[1])))
            pool = scored_out[:_BRIDGE_CAP] + sorted(
                scored_out, key=lambda item: (item[0], node_sort_key(item[1])))[:_ISOLATE_CAP]
            seen_b = set()
            for _, b, comps_b in pool:
                if b in seen_b:
                    continue
                seen_b.add(b)
                for d_r, r in repls:
                    any_pair = True
                    c_r = comp[r]
                    # stage 1: remove r (induced degree 0 or 1)
                    removed_comp = None
                    shrunk = {}
                    if d_r == 0:
                        removed_comp = c_r
                        count_after = len(size_arr) - 1
                    else:
                        shrunk[c_r] = size_arr[c_r] - 1
                        count_after = len(size_arr)
                    # stage 2: add b, merging the components its remaining
                    # selected neighbors belong to
                    merged = set(comps_b)
                    if r in set(g.neighbors(b)):
                        # b loses r as an attachment point
                        cnt = comps_b.get(c_r, 0)
                        if cnt == 1:
                            merged.discard(c_r)
                    if removed_comp is not None:
                        merged.discard(removed_comp)
                    merged_size = 1
                    for c in merged:
                        merged_size += shrunk.get(c, size_arr[c])
                    new_count = count_after - len(merged) + 1
                    # largest component: the merge result, the one possibly
                    # shrunk component, or the biggest untouched component
                    untouched_best = 0
                    for c in size_order:
                        if c in merged or c == removed_comp or c in shrunk:
                            continue
                        untouched_best = size_arr[c]
                        break
                    for c, s in shrunk.items():
                        if c not in merged and s > untouched_best:
                            untouched_best = s
                    new_largest = max(merged_size, untouched_best)
                    cand = _distortion((new_count / n_s, new_largest / n_s), kappa_ref)
                    gain = cur - cand
                    if gain > _GAIN_EPS:
                        entry = (gain, node_sort_key(b), node_sort_key(r), b, r)
                        if best is None or (entry[0] > best[0] + _GAIN_EPS) or (
                                abs(entry[0] - best[0]) <= _GAIN_EPS
                                and (entry[1], entry[2]) < (best[1], best[2])):
                            best = entry
        if best is None:
            if cur > params.repair_epsilon:
                warning = ("no same-cell swap could reduce component distortion; "
                           f"stopping at {cur:.4f}" if any_pair else
                           "no same-cell swap candidates exist; "
                           f"distortion stays at {cur:.4f}")
                log.warning(warning)
            break
        _, _, _, b, r = best
        selected.discard(r)
        selected.add(b)
        swaps += 1
        comp, sizes = _components(g, selected)
        new_cur = _distortion((len(sizes) / n_s, max(sizes) / n_s), kappa_ref)
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
    return g.subgraph(selected), report


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

    cells: dict[tuple, list[str]] = {}
    for rec in g.nodes:
        key = (rec.label, partition.assignment[rec.node_id])
        cells.setdefault(key, []).append(rec.node_id)
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

    selected: list[str] = []
    for key in sorted(cell_targets):
        members = cells[key]
        want = cell_targets[key]
        if want >= len(members):
            chosen = sorted(members, key=node_sort_key)
        else:
            weights = node_weights(g, members, selected, partition, params.lambda_weights)
            chosen = sorted(
                members, key=lambda v: (-weights[v], node_sort_key(v)))[:want]
        selected.extend(chosen)

    sub = g.subgraph(selected)
    repaired, report = connectivity_repair(g, sub, partition, params)
    return LimitResult(graph=repaired, cell_targets=dict(cell_targets), repair=report)


def sample_limited(
    g: TextAttributedGraph,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> TextAttributedGraph:
    return sample_limited_detailed(g, partition, params).graph
